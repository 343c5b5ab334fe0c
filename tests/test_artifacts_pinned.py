"""Every `sweep` artifact pinned to the byte for each noise family, `verify`'s for three,
and the standalone `adversary` command's on and off a chord for two.

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
# quantile stopped coming from scipy (numbers moved at rounding level)
PINS = {
    "uniform": {
        "adversary.json":
            "5fe73b7541d851850ad5ff701c9eb1203e6c32819c3122b554448ba6ec538c34",
        "equilibrium.json":
            "472df8599af0bcc2a7ad17d4cfe659f9521a11cd5100df9c97633929d7b7563f",
        "eta_utility.csv":
            "00ff96c927f6664a00d2279db030ee057483bf97833e18315643432df25f2aac",
        "level_curve.csv":
            "a99a76ba9a27ca0947fb6e27cd07a621ee98088c8b30cd255066598af6dbc94f",
        "resolved_config.json":
            "f925ff0bab216d4f27a972d3e2987e2de112cb3b30770282b36b331d7e2aab2e",
        "sweep_report.json":
            "1d0d0d29d47a68dad60e2fbf49f6056b6822a19f1bd660036d8c565bc3700d69",
        "sweep_simulations.csv":
            "ad0b73722de57ae12388cde9473834f18d44be87b3ceeac7c09c86b1923d7c7f",
        "tradeoff.csv":
            "e8b299dd974849dcea3fc717c6639bd0763b0b964de48875a514ad2ad3664786",
        "tradeoff_summary.json":
            "5b9a83b72f73a3d7d07a831aaea5fcbef9085c016b66ec7543710a6d614b6a73",
    },
    "truncated-normal": {
        "adversary.json":
            "aaf65ba81a9d1294e44e76edc720e07ba518d5169fa6ed50e607e9148f7f6ab8",
        "equilibrium.json":
            "140058ff939bcac2cb3ffbfff1c6fe663767e9aa06e22c798e263b936a35a709",
        "eta_utility.csv":
            "7b1ced155fffe8ba60a021136e0dc5f26c82551a3b5fa2775a8c97676cd95ac4",
        "level_curve.csv":
            "5f01cb419acbfe214fbe75765b94ab129dac5ef99e7126e07f4c961fd9b1be24",
        "resolved_config.json":
            "c09b7eb2303d798d5e9aa91e76de16bef7124e62efb093dd79425655994d7bce",
        "sweep_report.json":
            "e08708c5ce170961336561f6cd061b771dda66861a3ee82f57a9986f34344999",
        "sweep_simulations.csv":
            "ac12df6892198bc965253592eadfea2f86b3f30a56797a6efa4c6661d96e2070",
        "tradeoff.csv":
            "c16d8208ad93be809dc6e279feddc0985ba6a014cbe2003c9f77edab4c0a79e4",
        "tradeoff_summary.json":
            "6b7d8c5e53c360d3136bc7607660c7b00a4b00a5e326bb7a6dbf358dadb7df4c",
    },
    "triangular": {
        "adversary.json":
            "0e8cdb18661c327f6da961faeee78ae597d02fa50e4658a90810429d73e15264",
        "equilibrium.json":
            "50d30c615ee81a5f62c9ba759dc72d0769b2833fc48275591a891bbe1346571e",
        "eta_utility.csv":
            "4ea3de732eeb3a88229c719498eb2657d4f54626377c5a2c12eeef3805c7dcc5",
        "level_curve.csv":
            "95ddd167a2a9061062b98e8f9b89b5cbc44516b4b833234092c6af3c3e8d7666",
        "resolved_config.json":
            "f0bf41b7ae131d1136b9a912eca9f6d2324c5c2b9cbb7ad7fb338346b6277057",
        "sweep_report.json":
            "6e41fd53f6cda6fafefd1d1625c7ee7242e0b50b4a3c4577e99c85d371731361",
        "sweep_simulations.csv":
            "629628a0b62c08ad71a284487d6a282fe4822c7271670966b04d6d7c353e7505",
        "tradeoff.csv":
            "da6569aad372570a84f53a5217ec0d551c7f08cbe269f29092d577fd98d041dd",
        "tradeoff_summary.json":
            "4d193359a9977bf4bd8ba82a26284d2fad5556280c745e69f569f8cc6a178228",
    },
    "tabulated": {
        "adversary.json":
            "275ccc4b68f4206705d16a6132b0df00f304610ff270e8756170dc244cbb01a9",
        "equilibrium.json":
            "c00142cf5cb7ed47a2a4fbb61739016d9383d55cb19702c744314f21ea643020",
        "eta_utility.csv":
            "3b0f230169921ac6a93aaf5a5da903105f2872f749dcc9b59ac59027f3c902a7",
        "level_curve.csv":
            "60f72bb383ea1300614035b1c026a28ce21edf419b68f1eca51839422b117447",
        "resolved_config.json":
            "346b42ccbfa2fa996ede1e1f784a9453452f13ec04d9cd5f6adba759dea8afa1",
        "sweep_report.json":
            "c84ce591cdbd18c792b2fdec14bd43f1531550fd2458dd5ff1a9fcef99a37607",
        "sweep_simulations.csv":
            "601ed90ea6b474a81c87bd41ac5507bdb4661591501ce840a4b9ea4b71295f39",
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
# re-recorded when its erf and normal quantile stopped coming from scipy
VERIFY_PINS = {
    "uniform": {
        "resolved_config.json":
            "f41518a162de5a3852556a6b22c96aae5da6d4fd571c6e57f86f901e39a1d26f",
        "verify_report.json":
            "0fa7ba5b8b67e4f6ba80c8f142417ac985dce0c04aa6a3dab1fcea1beb108135",
    },
    "truncated-normal": {
        "resolved_config.json":
            "146751a592d0876d15299f96edb8274e5f6ef8cc1769af1f64793fce67b64455",
        "verify_report.json":
            "d9ca0d9e84aed4380380f9cef8ae40001eb6b8d02bdb684be8f7de0ed9e87c72",
    },
    "tabulated": {
        "resolved_config.json":
            "87f4293a3d65b5f04b64a8dedbdda2da67cf9f92eb91819761664e4dbcb13793",
        "verify_report.json":
            "c2f5413e5e49985525d4e93d92645673c475e43a125f6fc81b0b2a58c573b673",
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
