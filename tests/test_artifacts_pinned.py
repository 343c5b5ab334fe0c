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
# that read the level curve when it took its partial moments at the level itself. Every
# JSON artifact re-recorded when the resolved config stopped echoing a range for the
# collected values (a new config_hash), the Monte Carlo ones when the simulator stopped
# drawing those values (a new stream), and the tabulated level_curve.csv and
# tradeoff_summary.json when the curve's slope took its moments at the curve's own level
PINS = {
    "uniform": {
        "adversary.json":
            "58c84d45a015f0b61ab13c5bd4777558d90353032c4f2b8050c72a54b74aa9dc",
        "equilibrium.json":
            "f3b87ed1485fec52009ccf8d7492ce77d0249b7d573d894d47acbeb40910fe75",
        "eta_utility.csv":
            "00ff96c927f6664a00d2279db030ee057483bf97833e18315643432df25f2aac",
        "level_curve.csv":
            "a99a76ba9a27ca0947fb6e27cd07a621ee98088c8b30cd255066598af6dbc94f",
        "resolved_config.json":
            "57009b7c3bb0c7a9e8bc8f59154ed97cc0569fc36415cc026f1aa78768adcbe5",
        "sweep_report.json":
            "503d1ab08652a7cd94344e2ef35f1dd5cdaa48bfdc6610fdcf6a312f3fc54a94",
        "sweep_simulations.csv":
            "6ca8e3aa14254931f9ce65a1f4019a9d1a9f56bfc4d6d8ba6b359897a1ccf22a",
        "tradeoff.csv":
            "e8b299dd974849dcea3fc717c6639bd0763b0b964de48875a514ad2ad3664786",
        "tradeoff_summary.json":
            "001b09fcd44f1a2e96be743bf2bfc8e20902028730df30e942c0f001f640224d",
    },
    "truncated-normal": {
        "adversary.json":
            "396e15b9a9742bb64d9bc7dc163dcdc48eda5bc6097db57b111041dfee26a0c8",
        "equilibrium.json":
            "f6bbe14270c01580ddb76e01fa33d3d24af5f89ea0e011578da36c9e40cc4c86",
        "eta_utility.csv":
            "26fb1e5d9c9fba6ae03646e8fb60a5c5e3de0dc1d4f7bcdd20ffd8fef2e55f55",
        "level_curve.csv":
            "260ffe831371046f60493f21f66bd19eac028c465c7dab7b007d778662531711",
        "resolved_config.json":
            "eabec63b777adbe564a6136e4181d601cb72a7b59ce5e8eb4b49bb5142f43d3c",
        "sweep_report.json":
            "539cd90912e9a8b918135c8b513c1b13a5e496f94dba3cccf1acc56729e43b19",
        "sweep_simulations.csv":
            "f412b81f0d0404d6e39fbadb7d67beb713f017616f7eda2fdeb6b50003fc182e",
        "tradeoff.csv":
            "7f6d44cab515f1fe408d36d3bb49407206f807fd308785455fba63c4466520c1",
        "tradeoff_summary.json":
            "779003ada7bb7b48ebaf3463cd8fe7be8a8c6ed44d48851cc111f1032c4cbe57",
    },
    "triangular": {
        "adversary.json":
            "725866652584fc47d4e02eb287111e32c29240513ca8fe9a6c98a03e5f6f113d",
        "equilibrium.json":
            "fcda96547cfe8d5103c3cd9e6af42ca5d04fd615f253353b9c95f7cd25c24193",
        "eta_utility.csv":
            "4ea3de732eeb3a88229c719498eb2657d4f54626377c5a2c12eeef3805c7dcc5",
        "level_curve.csv":
            "95ddd167a2a9061062b98e8f9b89b5cbc44516b4b833234092c6af3c3e8d7666",
        "resolved_config.json":
            "474f3933cebc2885f6d7a51ff0a98552af99392878895d98f200c8400b720605",
        "sweep_report.json":
            "e0a59b9279b74b86c007a38b8e675c5336fac51c01f0a2d81e6ca05c4ac73610",
        "sweep_simulations.csv":
            "fc4901491afc61dba82304d153358484c2f5b8831b11ff09a66f14ff6fdf1e6b",
        "tradeoff.csv":
            "da6569aad372570a84f53a5217ec0d551c7f08cbe269f29092d577fd98d041dd",
        "tradeoff_summary.json":
            "eca74f32940b947f7df8f54bab37c3b978371ab393748b367e78b110879d801f",
    },
    "tabulated": {
        "adversary.json":
            "d14439d72e8e0a8de45ee27edb2ff52db3912ab8d4caa24036271ebf7ad3af5d",
        "equilibrium.json":
            "d4115710abe14a109e060c0f915772845e840072210fd52bc020cc203a2a36fb",
        "eta_utility.csv":
            "3b0f230169921ac6a93aaf5a5da903105f2872f749dcc9b59ac59027f3c902a7",
        "level_curve.csv":
            "60f72bb383ea1300614035b1c026a28ce21edf419b68f1eca51839422b117447",
        "resolved_config.json":
            "9e2766901e5a4820a10c2aaea84b371c587b44ba69b9c2f5928b1dae4868fc03",
        "sweep_report.json":
            "b8145c58c056e34262308cf026c02978ac033ecbc5a999ce4e159dc05f245831",
        "sweep_simulations.csv":
            "6911200bfa35e175f21715a6690be293af646f2aa2063b10fe4924aefadd6930",
        "tradeoff.csv":
            "56b95476781e39acf085956803fb80f569d1da1adc792c73ed4c76210f6996d5",
        "tradeoff_summary.json":
            "d541f9857ce6d0a1b163fe9d84d62b860366e5ee6a1151c3d58fdcc5eab59b05",
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
# common random numbers once per chunk; re-recorded with the stream and config_hash above
VERIFY_PINS = {
    "uniform": {
        "resolved_config.json":
            "60c0aeebb62ee16bd8e60f8576288a0f4edc1aaa1169b60398a5bc72267293da",
        "verify_report.json":
            "4f2256ad502aaf05922b0a47858551022f533a4c15658912dc9b6c69c1312eed",
    },
    "truncated-normal": {
        "resolved_config.json":
            "3e82f0c11e5a0ec531e6d232f8e6bb4904d3f1c08252adb5b5e10b6d5b29af67",
        "verify_report.json":
            "db721cf347f8381cce0848690b9186be934f2f13e8f54607232c49fc0bffe8e4",
    },
    "tabulated": {
        "resolved_config.json":
            "13bd34b0eb76c2563eb25b870fdf009754ea717072045d0d873a8e49c6b47167",
        "verify_report.json":
            "291607a0ad74518554b2c243659add9eaaff920de3b51f6a851a7b6efd40b261",
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
# envelope kept its chords as one array of ends, and re-recorded with the config_hash
# above; per noise, one alpha off a chord (two atoms) and one on a chord (four atoms)
ADVERSARY_PINS = {
    ("uniform", 0.5, False): {
        "adversary.json":
            "a056d27eb6e779b880d1df0426fd25833bd337308823985a7d1770862fb921ce",
        "resolved_config.json":
            "e8ad2431450cb05ecbbbe9683b7c4438218d082dfd9234de030f743c57f40057",
    },
    ("uniform", 0.9, True): {
        "adversary.json":
            "30ba02f5c48e518cada7db669d95e18dcc51733d7a79d6aba69d7de0b50ffe72",
        "resolved_config.json":
            "e8ad2431450cb05ecbbbe9683b7c4438218d082dfd9234de030f743c57f40057",
    },
    ("tabulated", 0.25, False): {
        "adversary.json":
            "7e8810ae7a068c015bd53903d6998f31c2cdc53c073977af9315f28e9c7b7264",
        "resolved_config.json":
            "1f9c32636c9850fcec9858ac0e75a67c582b940536590838e8775363a1563ada",
    },
    ("tabulated", 0.9, True): {
        "adversary.json":
            "527550b4cec9b1ba8c850bf2218a98e2ab0db5195bcd19fb26cfbf10fa68f21a",
        "resolved_config.json":
            "1f9c32636c9850fcec9858ac0e75a67c582b940536590838e8775363a1563ada",
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
                     "--alpha", str(alpha)]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((tmp_path / "out").iterdir())}
    assert hashes == ADVERSARY_PINS[name, alpha, on_chord]
