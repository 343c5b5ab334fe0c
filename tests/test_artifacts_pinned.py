"""Every `sweep` artifact pinned to the byte for each noise family, `verify`'s for three,
and the standalone `adversary` command's on and off a chord for two.

A change to the program that keeps its numbers keeps these hashes. A change
that alters artifacts on purpose updates the pins and names the changed
artifacts in CHANGES.md. Each command runs from its own directory with the
relative output `out`, so `config_hash` does not depend on where the tests run.
"""

import hashlib
import json

import numpy as np
import pytest

from stackgame import cli
from stackgame.envelope import build_envelope
from stackgame.kernel import KernelContext

_XS = np.linspace(-1.0, 1.0, 4096)
NOISES = {
    "uniform": {"kind": "uniform", "delta": 1.0},
    # sigma = 3 puts a chord on the truncated normal's level curve
    "truncated-normal": {"kind": "truncated-normal", "delta": 1.0, "params": {"sigma": 3.0}},
    "triangular": {"kind": "triangular", "delta": 1.0},
    "tabulated": {"kind": "tabulated", "delta": 1.0, "params": {
        "xs": _XS.tolist(),
        "pdf": (1.0 - 0.6 * np.abs(_XS) + 0.3 * np.cos(9.0 * np.pi * _XS)).tolist()}},
}

# SHA-256 of each artifact, recorded from the parent of the change that added this file;
# those that read chord ends or zero_limit re-recorded when both became exact, and those
# that read the level curve when it took its partial moments at the level itself
PINS = {
    "uniform": {
        "adversary.json":
            "a2f3565f92f7153dab9b012cd5769a4c0f226c10c9841e4983ab66dca143520b",
        "equilibrium.json":
            "cabeb0a22154cda011923b3c717d6999f3a9b03543042f945d9fa040570127c3",
        "eta_utility.csv":
            "00ff96c927f6664a00d2279db030ee057483bf97833e18315643432df25f2aac",
        "level_curve.csv":
            "a99a76ba9a27ca0947fb6e27cd07a621ee98088c8b30cd255066598af6dbc94f",
        "resolved_config.json":
            "cf7a932273a9e7e11909b9c34090e4aecad00bede6f0621885640b7e4fa19f47",
        "sweep_report.json":
            "a9f4837e32e085013ab8e0137e57c0a1b5445dd37a7ef764b09113951454425b",
        "sweep_simulations.csv":
            "e1092c78c0b74362d8ebcd79bc48d091f13b212963cfa5cb784b0953ebc5ae64",
        "tradeoff.csv":
            "e8b299dd974849dcea3fc717c6639bd0763b0b964de48875a514ad2ad3664786",
        "tradeoff_summary.json":
            "712d603a23ac8fe4ac0d29695fdf351738bc89d11c03e57dc1f946bf79a63639",
    },
    "truncated-normal": {
        "adversary.json":
            "17d73c987c66f6af5958b71d2e4fe8bbbbba81df2d6fc5ea36d54745bea2a6a8",
        "equilibrium.json":
            "3763f6ca0ea27b9562142bed7e877fcc806cdc971e28ed7f852935cdf4cc85f1",
        "eta_utility.csv":
            "26fb1e5d9c9fba6ae03646e8fb60a5c5e3de0dc1d4f7bcdd20ffd8fef2e55f55",
        "level_curve.csv":
            "260ffe831371046f60493f21f66bd19eac028c465c7dab7b007d778662531711",
        "resolved_config.json":
            "d01758f4a08576a402a3f970382550dcf31b6793374286a2c409849a44cb7fcd",
        "sweep_report.json":
            "dd8a5bf4101e6d166b388b6f769e25a73f0f0285a5656dec0ff4dee0dec2a0bf",
        "sweep_simulations.csv":
            "4059c41a298ce45f6e7b42b2a17c093910cd6458c9ad975b211070f261604878",
        "tradeoff.csv":
            "7f6d44cab515f1fe408d36d3bb49407206f807fd308785455fba63c4466520c1",
        "tradeoff_summary.json":
            "cfff0d59e0427df57fadd4c1dfcf9352094ad6c31d602258d254577466f00f85",
    },
    "triangular": {
        "adversary.json":
            "be3227b81182ac32deac06858db6a2b21626a0e08becf751f3b34d29fde25f61",
        "equilibrium.json":
            "e87fdb278a3ce2570ff666a4c218521273b97f55f9db2a68a1e8bc23e74cf716",
        "eta_utility.csv":
            "4ea3de732eeb3a88229c719498eb2657d4f54626377c5a2c12eeef3805c7dcc5",
        "level_curve.csv":
            "95ddd167a2a9061062b98e8f9b89b5cbc44516b4b833234092c6af3c3e8d7666",
        "resolved_config.json":
            "088ab8b5c25745ecb24f52560ed738b39c4c92898dbca55f91b70d86cab9f377",
        "sweep_report.json":
            "f038991a6ec4ff603d8a51bbaa7b9c849c3b0efd9da84a1645c3337407284cbc",
        "sweep_simulations.csv":
            "cd09f60e2ea0b465b2adabee3e83633e908ad31eba6e65c16499efd29ccee9cd",
        "tradeoff.csv":
            "da6569aad372570a84f53a5217ec0d551c7f08cbe269f29092d577fd98d041dd",
        "tradeoff_summary.json":
            "604a4d27331c928731c5e8406c8e6417f5529efaff2a6d1c0ceff5d05975f21c",
    },
    "tabulated": {
        "adversary.json":
            "f92581e0d5b90318aae5c6e114e98a1e37e124bee0c9939a2dab5db72410d8f4",
        "equilibrium.json":
            "8f18ff5f676e07450eca4059bb3705ac3916197b65ca58dcd03ada8705555708",
        "eta_utility.csv":
            "3b0f230169921ac6a93aaf5a5da903105f2872f749dcc9b59ac59027f3c902a7",
        "level_curve.csv":
            "b8ffdcf285fae6976ab8356bbacabc693fb0edbdafe046b1aa3303df3e7283f6",
        "resolved_config.json":
            "50d814260c2b4284344d1dea2043579a6c5b7adaf6e19e7aaab098c6afa70f14",
        "sweep_report.json":
            "bff2d6a3a8f34e4b91371c8bffb46743f43241a5fbe598343e8d76679704b6ef",
        "sweep_simulations.csv":
            "9ddf6ac24c087839a9181cd5b0cb7ac12e79196ac1b1d25e474c492c057a2e57",
        "tradeoff.csv":
            "56b95476781e39acf085956803fb80f569d1da1adc792c73ed4c76210f6996d5",
        "tradeoff_summary.json":
            "8774534ae910955ad81108bc987df59adcfac53ed8f1f3bda875f8db7cd9fb6e",
    },
}


def sweep_hashes(workdir, noise) -> dict:
    """Run `sweep` in workdir on a small config; SHA-256 of each artifact by name."""
    (workdir / "config.json").write_text(json.dumps({
        "honest_noise": noise,
        "eta_grid": {"start": 2.0, "stop": 3.0, "step": 0.25},
        "simulation": {"n_nodes": [2, 3], "trials": 20_000, "seed": 17},
        "envelope": {"grid_size": 512},
        "oracle": {"grid_size": 256},
    }))
    assert cli.main(["sweep", "--config", "config.json", "--output", "out"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("name", list(NOISES))
def test_sweep_artifacts_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert sweep_hashes(tmp_path, NOISES[name]) == PINS[name]


# SHA-256 of each `verify` artifact, recorded before the dominance check drew its
# common random numbers once per chunk
VERIFY_PINS = {
    "uniform": {
        "resolved_config.json":
            "9a4c7c08d9a82bcaf7934f1eba0f8bd7ffcfc6e93371bfb7c722a3a9561602df",
        "verify_report.json":
            "48a505d3fb1dab4e3340b68eab5120a9fdea8a539d1c1c24ce35bdd57a37fc0e",
    },
    "truncated-normal": {
        "resolved_config.json":
            "88b216b5240ecf5fd4f17a52ae4b9502460497bf5e80854e225c0cccab06ebba",
        "verify_report.json":
            "dfb550b03a2aeeb3bfc9ebfb45d96feae77dac354c707fd18fbf1ef2ac485592",
    },
    "tabulated": {
        "resolved_config.json":
            "a2871621e6a90408513d72c5d3faf71c02cb2257c2408e79229aa92771d40e69",
        "verify_report.json":
            "e3e86620354d5661563af6d86f482434afc44de7f69cf06561eafe9a30921fcf",
    },
}


def verify_hashes(workdir, noise) -> dict:
    """Run `verify` in workdir on a small config; SHA-256 of each artifact by name.

    Three controlled nodes and four chunks exercise the replicated and iid
    candidates on every chunk's shared draws.
    """
    (workdir / "config.json").write_text(json.dumps({
        "honest_noise": noise,
        "simulation": {"n_nodes": [4], "trials": 20_000, "seed": 29, "chunk_size": 6000},
        "envelope": {"grid_size": 512},
    }))
    assert cli.main(["verify", "--config", "config.json", "--output", "out",
                     "--realizations", "5000", "--candidates", "8"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("name", list(VERIFY_PINS))
def test_verify_artifacts_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert verify_hashes(tmp_path, NOISES[name]) == VERIFY_PINS[name]


# SHA-256 of each standalone `adversary` artifact at eta 2, recorded before the
# envelope kept its chords as one array of ends; per noise, one alpha off a
# chord (two atoms) and one on a chord (four atoms)
ADVERSARY_PINS = {
    ("uniform", 0.5, False): {
        "adversary.json":
            "5eb73721dbc66d1ad4ea917e70eadce0fe92d409fcf35205a2de1c556a209c29",
        "resolved_config.json":
            "e1b5bc0967fd718239cac6d03174a07ca63b682dab4dbdbc7b042f7eee1c1670",
    },
    ("uniform", 0.9, True): {
        "adversary.json":
            "5fa96f14c8e68ad3b4afc4c6f34c37e04369094e6e614fcc9bc9d1a21fa65a06",
        "resolved_config.json":
            "e1b5bc0967fd718239cac6d03174a07ca63b682dab4dbdbc7b042f7eee1c1670",
    },
    ("tabulated", 0.25, False): {
        "adversary.json":
            "5d76076c471d218e3230618551f6177d92e8cf80e131515830cc205d5ab8e90c",
        "resolved_config.json":
            "a8c4d0ddf412ae1876152baa4f2a52c0df8631efb7a98b1e2891ad245b73b705",
    },
    ("tabulated", 0.9, True): {
        "adversary.json":
            "1d2d44fc7ccf6fa8703387fbd718c062f3909e9c4a198a4f405aeaaa3ff56b86",
        "resolved_config.json":
            "a8c4d0ddf412ae1876152baa4f2a52c0df8631efb7a98b1e2891ad245b73b705",
    },
}


@pytest.mark.parametrize("name, alpha, on_chord", list(ADVERSARY_PINS))
def test_adversary_artifacts_are_pinned(name, alpha, on_chord, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({
        "honest_noise": NOISES[name], "envelope": {"grid_size": 512}}))
    env = build_envelope(KernelContext(2.0, cli.parse_config("config.json").noise), 512)
    assert (not env.is_touch(alpha)[0]) == on_chord
    assert cli.main(["adversary", "--config", "config.json", "--output", "out",
                     "--eta", "2", "--alpha", str(alpha)]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((tmp_path / "out").iterdir())}
    assert hashes == ADVERSARY_PINS[name, alpha, on_chord]
