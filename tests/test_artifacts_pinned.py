"""Every `sweep` artifact pinned to the byte for each noise family, `verify`'s for three,
the standalone `adversary` command's on and off a chord for two, and `simulate`'s for
two, with the solved adversary and with one read back from an adversary file.

A change to the program that keeps its numbers keeps these hashes. A change
that alters artifacts on purpose updates the pins and names the changed
artifacts in CHANGES.md. The resolved config and its `config_hash` leave out
the output directory, so each command writes to an absolute path under the
test's own temporary directory and the hashes do not depend on where it is.
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
# that read the level curve when it took its partial moments at the level itself. Every
# JSON artifact re-recorded when the resolved config stopped echoing a range for the
# collected values (a new config_hash), the Monte Carlo ones when the simulator stopped
# drawing those values (a new stream), and the tabulated level_curve.csv and
# tradeoff_summary.json when the curve's slope took its moments at the curve's own level.
# Every JSON artifact re-recorded again when the resolved config stopped echoing the
# output directory (a new config_hash; every CSV kept its hash), and again, with
# sweep_simulations.csv, when simulation.chunk_size went and a chunk became 8192 trials
# (a new config_hash and a new Monte Carlo stream; every other CSV kept its hash). The
# truncated normal's, all but resolved_config.json, re-recorded when its erf and normal
# quantile stopped coming from scipy (numbers moved at rounding level). adversary.json,
# sweep_report.json and sweep_simulations.csv re-recorded when sweep began to write the
# standalone adversary command's adversary.json and to key every run at the i-th n on
# seed + i, as simulate does
PINS = {
    "uniform": {
        "adversary.json":
            "eb8ee1af82f3456b1e95c8422ef2c1ad1082f57940b96e1e35820700ca42ca6d",
        "equilibrium.json":
            "472df8599af0bcc2a7ad17d4cfe659f9521a11cd5100df9c97633929d7b7563f",
        "eta_utility.csv":
            "00ff96c927f6664a00d2279db030ee057483bf97833e18315643432df25f2aac",
        "level_curve.csv":
            "a99a76ba9a27ca0947fb6e27cd07a621ee98088c8b30cd255066598af6dbc94f",
        "resolved_config.json":
            "f925ff0bab216d4f27a972d3e2987e2de112cb3b30770282b36b331d7e2aab2e",
        "sweep_report.json":
            "e72258099bb40ef316d36ef15a3d9e9372782baa45422b21542971f12234c1b5",
        "sweep_simulations.csv":
            "fa0795954b3f00bbed55de1fc5d26bc2f43912d05a7859c2ab7dd794588224a1",
        "tradeoff.csv":
            "e8b299dd974849dcea3fc717c6639bd0763b0b964de48875a514ad2ad3664786",
        "tradeoff_summary.json":
            "5b9a83b72f73a3d7d07a831aaea5fcbef9085c016b66ec7543710a6d614b6a73",
    },
    "truncated-normal": {
        "adversary.json":
            "def069f3176b1bb80387d898abeaf931b6d520fbcb3ad1753b04952848f89eb4",
        "equilibrium.json":
            "140058ff939bcac2cb3ffbfff1c6fe663767e9aa06e22c798e263b936a35a709",
        "eta_utility.csv":
            "7b1ced155fffe8ba60a021136e0dc5f26c82551a3b5fa2775a8c97676cd95ac4",
        "level_curve.csv":
            "5f01cb419acbfe214fbe75765b94ab129dac5ef99e7126e07f4c961fd9b1be24",
        "resolved_config.json":
            "c09b7eb2303d798d5e9aa91e76de16bef7124e62efb093dd79425655994d7bce",
        "sweep_report.json":
            "aae098e4c713651e9d406efd70506338e4b7b7af9cf0466e64f033a29d154212",
        "sweep_simulations.csv":
            "16d84e17e52b20ba307f834352b80fbf82ffba909a73771fc66cea6a58326788",
        "tradeoff.csv":
            "c16d8208ad93be809dc6e279feddc0985ba6a014cbe2003c9f77edab4c0a79e4",
        "tradeoff_summary.json":
            "6b7d8c5e53c360d3136bc7607660c7b00a4b00a5e326bb7a6dbf358dadb7df4c",
    },
    "triangular": {
        "adversary.json":
            "cfe1230500e06205e7ae8971349f25e23040af33917fb2fc348847c63682104a",
        "equilibrium.json":
            "50d30c615ee81a5f62c9ba759dc72d0769b2833fc48275591a891bbe1346571e",
        "eta_utility.csv":
            "4ea3de732eeb3a88229c719498eb2657d4f54626377c5a2c12eeef3805c7dcc5",
        "level_curve.csv":
            "95ddd167a2a9061062b98e8f9b89b5cbc44516b4b833234092c6af3c3e8d7666",
        "resolved_config.json":
            "f0bf41b7ae131d1136b9a912eca9f6d2324c5c2b9cbb7ad7fb338346b6277057",
        "sweep_report.json":
            "2591bdbc33528597ba73cf22932af8e189a47c8daf3bcf6b1ec988104d117065",
        "sweep_simulations.csv":
            "34289db5b98b00e34df544566cb272434c39133afd586f61c5287b8f6e5bc07c",
        "tradeoff.csv":
            "da6569aad372570a84f53a5217ec0d551c7f08cbe269f29092d577fd98d041dd",
        "tradeoff_summary.json":
            "4d193359a9977bf4bd8ba82a26284d2fad5556280c745e69f569f8cc6a178228",
    },
    "tabulated": {
        "adversary.json":
            "abea8e7c4d74d9024ba79c8afe82f42dbc94e7ff5b48a4176682b09d97be79fe",
        "equilibrium.json":
            "c00142cf5cb7ed47a2a4fbb61739016d9383d55cb19702c744314f21ea643020",
        "eta_utility.csv":
            "3b0f230169921ac6a93aaf5a5da903105f2872f749dcc9b59ac59027f3c902a7",
        "level_curve.csv":
            "60f72bb383ea1300614035b1c026a28ce21edf419b68f1eca51839422b117447",
        "resolved_config.json":
            "346b42ccbfa2fa996ede1e1f784a9453452f13ec04d9cd5f6adba759dea8afa1",
        "sweep_report.json":
            "2118d830d8f40290ac0756f17f048e1eb5a92c38665960586e2575f580ba3952",
        "sweep_simulations.csv":
            "33826f4c4e208c741e43f8920356edc8fd81a87922956d9d068f2ed1675b0cde",
        "tradeoff.csv":
            "56b95476781e39acf085956803fb80f569d1da1adc792c73ed4c76210f6996d5",
        "tradeoff_summary.json":
            "be01199c7d235f27cf8d7403ebcddbe8a49f8ff22a634bf1f4823e8f614b9e69",
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
    assert cli.main(["sweep", "--config", str(workdir / "config.json"),
                     "--output", str(workdir / "out")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("name", list(NOISES))
def test_sweep_artifacts_are_pinned(name, tmp_path):
    assert sweep_hashes(tmp_path, NOISES[name]) == PINS[name]


# SHA-256 of each `verify` artifact, recorded before the dominance check drew its
# common random numbers once per chunk; re-recorded with the stream and config_hash above,
# and again when verify's scenario realizations and candidates became the fixed 100 000
# and 20 (and 2 iid), run here without flags, and the config_hash left out the output,
# and again when a chunk became 8192 trials; the truncated normal's verify_report.json
# re-recorded when its erf and normal quantile stopped coming from scipy, and every
# verify_report.json when the random candidates left the scenario suite's stream
VERIFY_PINS = {
    "uniform": {
        "resolved_config.json":
            "f41518a162de5a3852556a6b22c96aae5da6d4fd571c6e57f86f901e39a1d26f",
        "verify_report.json":
            "f6a914fa5aa559d44e85d1aca287c6144491ef5fd1a304cb919982baf2ca6206",
    },
    "truncated-normal": {
        "resolved_config.json":
            "146751a592d0876d15299f96edb8274e5f6ef8cc1769af1f64793fce67b64455",
        "verify_report.json":
            "113181c5487432cf2e7894c0a156e13bf960961147954ad1e4df92cab588f3dd",
    },
    "tabulated": {
        "resolved_config.json":
            "87f4293a3d65b5f04b64a8dedbdda2da67cf9f92eb91819761664e4dbcb13793",
        "verify_report.json":
            "bac6d36026a60b16e13f9922e2e6bfb8442912e06751974b0a3bfa5747889cac",
    },
}


def verify_hashes(workdir, noise) -> dict:
    """Run `verify` in workdir on a small config; SHA-256 of each artifact by name.

    Three controlled nodes and three chunks exercise the replicated and iid
    candidates on every chunk's shared draws.
    """
    (workdir / "config.json").write_text(json.dumps({
        "honest_noise": noise,
        "simulation": {"n_nodes": [4], "trials": 20_000, "seed": 29},
        "envelope": {"grid_size": 512},
    }))
    assert cli.main(["verify", "--config", str(workdir / "config.json"),
                     "--output", str(workdir / "out")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("name", list(VERIFY_PINS))
def test_verify_artifacts_are_pinned(name, tmp_path):
    assert verify_hashes(tmp_path, NOISES[name]) == VERIFY_PINS[name]


# SHA-256 of each standalone `adversary` artifact at eta 2, recorded before the
# envelope kept its chords as one array of ends, and re-recorded with each config_hash
# above, the last when simulation.chunk_size left the resolved config; per noise, one
# alpha off a chord (two atoms) and one on a chord (four atoms)
ADVERSARY_PINS = {
    ("uniform", 0.5, False): {
        "adversary.json":
            "f5cd464f6769d4313e7010425264bc7ea65403c6c887ce0c26661e13b81d4822",
        "resolved_config.json":
            "32c8c18caaffc251e017d7f97724fc80ed8fd326741218cc0b57796903aae8f0",
    },
    ("uniform", 0.9, True): {
        "adversary.json":
            "d7f016b26cd95cab7e3d88fdb4539c5c79278000d6ad32bdd870c2dbb83b8b0b",
        "resolved_config.json":
            "32c8c18caaffc251e017d7f97724fc80ed8fd326741218cc0b57796903aae8f0",
    },
    ("tabulated", 0.25, False): {
        "adversary.json":
            "91535df765c663e936b5342b629956aa78bf30fec2b1d5b68170c432d4b283cb",
        "resolved_config.json":
            "3ca2802e2064b99589c3390548345135ec25aad1ee91c3933ec32857f7c0eff4",
    },
    ("tabulated", 0.9, True): {
        "adversary.json":
            "d9645b965c9eba57a625ef81b1cac376ced65773cfd79a0f6091fa35542f2f11",
        "resolved_config.json":
            "3ca2802e2064b99589c3390548345135ec25aad1ee91c3933ec32857f7c0eff4",
    },
}


@pytest.mark.parametrize("name, alpha, on_chord", list(ADVERSARY_PINS))
def test_adversary_artifacts_are_pinned(name, alpha, on_chord, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"honest_noise": NOISES[name], "envelope": {"grid_size": 512}}))
    env = build_envelope(KernelContext(2.0, cli.parse_config(config).noise), 512)
    assert (not env.is_touch(alpha)[0]) == on_chord
    assert cli.main(["adversary", "--config", str(config), "--output", str(tmp_path / "out"),
                     "--alpha", str(alpha)]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((tmp_path / "out").iterdir())}
    assert hashes == ADVERSARY_PINS[name, alpha, on_chord]


# SHA-256 of `noise_validation.json`, recorded before validate returned its report as
# the plain dict this file holds; per noise, the command's exit code and the hash. The
# asymmetric table fails its symmetry check, so the command exits 1 and still writes it.
_ASYMMETRIC = {"kind": "tabulated", "delta": 1.0,
               "params": {"xs": [-1, -0.5, 0, 0.5, 1], "pdf": [0.2, 0.2, 0.6, 0.8, 0.8]}}
VALIDATION_PINS = {
    "uniform": (0, "6a4dfc949214b0e95aebfada74adb5cfe4a611b8d2e3a156156be2ea30d79b7d"),
    "asymmetric": (1, "32fa26a222cb59873d82a6266b16a5fe6b55ac508cca8b2cc2cea7bb39b3fb6f"),
}


@pytest.mark.parametrize("name", list(VALIDATION_PINS))
def test_noise_validation_is_pinned(name, tmp_path):
    noise = {**NOISES, "asymmetric": _ASYMMETRIC}[name]
    (tmp_path / "config.json").write_text(json.dumps({"honest_noise": noise}))
    code = cli.main(["validate-noise", "--config", str(tmp_path / "config.json"),
                     "--output", str(tmp_path / "out")])
    digest = hashlib.sha256((tmp_path / "out" / "noise_validation.json").read_bytes()).hexdigest()
    assert (code, digest) == VALIDATION_PINS[name]


# SHA-256 of each `simulate` artifact on the sweep pins' config, recorded before the
# CLI alone wrote the adversary and result dicts; per noise, the solved equilibrium's
# adversary and the one `adversary --alpha 0.9` writes, read back through --adversary
SIMULATE_PINS = {
    ("uniform", False): {
        "resolved_config.json":
            "b34cb9658e9547d531d5cded85d64bfb68618a8449385c9c261032dfe64c1f9c",
        "simulation.json":
            "efa13860f64f030a51ecf061e3a7d38a9bd4e9d2f0c3387d279e1c1b4032a846",
        "simulations.csv":
            "5047ae0f5d2139f8debf479bc91fd549957126b5a7dbd5361ecaed063bfed6c4",
    },
    ("uniform", True): {
        "resolved_config.json":
            "b34cb9658e9547d531d5cded85d64bfb68618a8449385c9c261032dfe64c1f9c",
        "simulation.json":
            "72115aec2e2344f2c54b70c4882e80c5c8ac20f466096089bb25417af3bfd81e",
        "simulations.csv":
            "6ca8ce14315e85d816f3e8d99636a6a483cf9d7aa7377dc745641214b2a4e908",
    },
    ("tabulated", False): {
        "resolved_config.json":
            "9de9fc81c1297063b0da22daa44798486bc4d572a3dee0ae9b0dc4c24d65061a",
        "simulation.json":
            "e3f6d3359d71fb90fc6f1558f94ca8c704dce1b4d5b431bb69f845cf5c9c12e7",
        "simulations.csv":
            "356c1008374beddc0aea5e24fba4e6518460d6181e35dc88111698f73c6a9c87",
    },
    ("tabulated", True): {
        "resolved_config.json":
            "9de9fc81c1297063b0da22daa44798486bc4d572a3dee0ae9b0dc4c24d65061a",
        "simulation.json":
            "5f527ac462f0a16b70e45cda5cd89f26a9bf2dbd5958d7907505c532d53a8d49",
        "simulations.csv":
            "bb89c234403f6a164a69f83df7ee21e8b2bbb17489234d08028b1817fd2c4627",
    },
}


@pytest.mark.parametrize("name, from_file", list(SIMULATE_PINS))
def test_simulate_artifacts_are_pinned(name, from_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "honest_noise": NOISES[name],
        "eta_grid": {"start": 2.0, "stop": 3.0, "step": 0.25},
        "simulation": {"n_nodes": [2, 3], "trials": 20_000, "seed": 17},
        "envelope": {"grid_size": 512},
    }))
    flags = ["--config", str(config), "--output", str(tmp_path / "out")]
    if from_file:
        assert cli.main(["adversary", "--config", str(config), "--output",
                         str(tmp_path / "adv"), "--alpha", "0.9"]) == 0
        flags += ["--adversary", str(tmp_path / "adv" / "adversary.json")]
    assert cli.main(["simulate", *flags]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((tmp_path / "out").iterdir())}
    assert hashes == SIMULATE_PINS[name, from_file]
