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
# output directory (a new config_hash; every CSV kept its hash)
PINS = {
    "uniform": {
        "adversary.json":
            "22a701c927530726ac2cc58231392301228ea2b80eee8ce4bf7860b81089ff26",
        "equilibrium.json":
            "d74637335b92d6cd9784785e14d376c3a67a8cd6822fe03c69d73bc32bd6d756",
        "eta_utility.csv":
            "00ff96c927f6664a00d2279db030ee057483bf97833e18315643432df25f2aac",
        "level_curve.csv":
            "a99a76ba9a27ca0947fb6e27cd07a621ee98088c8b30cd255066598af6dbc94f",
        "resolved_config.json":
            "a5a1df6e8552a11621129faeb262bdb33de80f736dd360dd72e95c046e45818b",
        "sweep_report.json":
            "7bebd8a333f2c8555b1e794ea6ac5037597441514d6164f459aee701427a33e3",
        "sweep_simulations.csv":
            "6ca8e3aa14254931f9ce65a1f4019a9d1a9f56bfc4d6d8ba6b359897a1ccf22a",
        "tradeoff.csv":
            "e8b299dd974849dcea3fc717c6639bd0763b0b964de48875a514ad2ad3664786",
        "tradeoff_summary.json":
            "37d8a73cd7a76f39bfc144581169410193819d89c65a6a5989f22200c2f8bf06",
    },
    "truncated-normal": {
        "adversary.json":
            "f13c0e556cf64b0ff36d9e81cd5cb39b8db303df1fbf25467ae9fc862f941165",
        "equilibrium.json":
            "11374dcc8148bc708ab526ba4e895b68b9375422f518421a6002a76e77297535",
        "eta_utility.csv":
            "26fb1e5d9c9fba6ae03646e8fb60a5c5e3de0dc1d4f7bcdd20ffd8fef2e55f55",
        "level_curve.csv":
            "260ffe831371046f60493f21f66bd19eac028c465c7dab7b007d778662531711",
        "resolved_config.json":
            "2a0fae37275429813cb60c40616670354938f125c73895080d045e6bebedc994",
        "sweep_report.json":
            "812862fa7c6d67866b1cfbfc4fd2208a498b3d3bf6cc6ff7007c409b2a7c8ac2",
        "sweep_simulations.csv":
            "f412b81f0d0404d6e39fbadb7d67beb713f017616f7eda2fdeb6b50003fc182e",
        "tradeoff.csv":
            "7f6d44cab515f1fe408d36d3bb49407206f807fd308785455fba63c4466520c1",
        "tradeoff_summary.json":
            "cdccd9682d5f56320e2f042c9ac54651e812c96d1bd31656fb2aec16051f0e09",
    },
    "triangular": {
        "adversary.json":
            "bf52542f13ef249f51c7afc5c3ce5add1eaa8628e4bb3240c5d4fd1c26bc33e2",
        "equilibrium.json":
            "cc222f32a7d9d3853ae25e4eebab6c437986aaa7c8fa768239900480ea99252b",
        "eta_utility.csv":
            "4ea3de732eeb3a88229c719498eb2657d4f54626377c5a2c12eeef3805c7dcc5",
        "level_curve.csv":
            "95ddd167a2a9061062b98e8f9b89b5cbc44516b4b833234092c6af3c3e8d7666",
        "resolved_config.json":
            "4a119c029bce5429fa8ca3252623ba60d65e8f2a1cf43603d1ddfaa22c999850",
        "sweep_report.json":
            "f29d821e9ea6c15ba79bc892fb4a92567d70b030df6b249be8350d2852977ffd",
        "sweep_simulations.csv":
            "fc4901491afc61dba82304d153358484c2f5b8831b11ff09a66f14ff6fdf1e6b",
        "tradeoff.csv":
            "da6569aad372570a84f53a5217ec0d551c7f08cbe269f29092d577fd98d041dd",
        "tradeoff_summary.json":
            "357efc35713aa1aad5d401a039c2dae1e08caf244385181e0a2097260103f5ae",
    },
    "tabulated": {
        "adversary.json":
            "b2fcf37de56abe26d364cd960e236476f548e47f08f210b26cd28dac65482098",
        "equilibrium.json":
            "d84a3d115821044e36347b79eb199f21254359cd918f4142620421e8b0ea89bc",
        "eta_utility.csv":
            "3b0f230169921ac6a93aaf5a5da903105f2872f749dcc9b59ac59027f3c902a7",
        "level_curve.csv":
            "60f72bb383ea1300614035b1c026a28ce21edf419b68f1eca51839422b117447",
        "resolved_config.json":
            "1fc8d1b8a7e2589165bd0972560cc89ab3a076640dd3bf2b805882052c762962",
        "sweep_report.json":
            "3433fc03df875db3f8204570fde2a5c5641156dc3c2e9ad22a191af60a662b9a",
        "sweep_simulations.csv":
            "6911200bfa35e175f21715a6690be293af646f2aa2063b10fe4924aefadd6930",
        "tradeoff.csv":
            "56b95476781e39acf085956803fb80f569d1da1adc792c73ed4c76210f6996d5",
        "tradeoff_summary.json":
            "a0e0219bf9b0344bf3541b44e0c29b8d9017cfc16136b7400467581ba8276903",
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
# and 20 (and 2 iid), run here without flags, and the config_hash left out the output
VERIFY_PINS = {
    "uniform": {
        "resolved_config.json":
            "e141ff693edfc100f37bf7de87842c0442abd85e57103f8ec2ecf7570194129e",
        "verify_report.json":
            "9c3c5a9fc3ba65c8d07e47fed406d02b74234c6394f07e49a620f9c1c306bcd9",
    },
    "truncated-normal": {
        "resolved_config.json":
            "10d677d44f53b3003b3a9bba4f2be4cbad52cc87a527e7d2c64aac4ca04ee4fd",
        "verify_report.json":
            "6b3589eff191f7726f2354543549b1f7606111e31116636e89ba660e7d492c53",
    },
    "tabulated": {
        "resolved_config.json":
            "d02f9023739cc7ff141774c1f9d41f5318e1701ecb2a824a27174ac42673fb1f",
        "verify_report.json":
            "5347d4abedfeee1936036ff2fbd2ef812fec553726541b0f5b1b1a41d270b1cc",
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
    assert cli.main(["verify", "--config", str(workdir / "config.json"),
                     "--output", str(workdir / "out")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("name", list(VERIFY_PINS))
def test_verify_artifacts_are_pinned(name, tmp_path):
    assert verify_hashes(tmp_path, NOISES[name]) == VERIFY_PINS[name]


# SHA-256 of each standalone `adversary` artifact at eta 2, recorded before the
# envelope kept its chords as one array of ends, and re-recorded with each config_hash
# above; per noise, one alpha off a chord (two atoms) and one on a chord (four atoms)
ADVERSARY_PINS = {
    ("uniform", 0.5, False): {
        "adversary.json":
            "a2c98ea8d398bf3e4425b88a81a6abe21cc728320da2692e9b08a5f27ac4e187",
        "resolved_config.json":
            "e91f008ea637f86f21c3bd3e206e1b0e03a842c85b62f449e2be8dbf3857da46",
    },
    ("uniform", 0.9, True): {
        "adversary.json":
            "471f4f67cb8d690f196acfd42ac129dcfa99cac14d161d6c2916f27a3b5c2f53",
        "resolved_config.json":
            "e91f008ea637f86f21c3bd3e206e1b0e03a842c85b62f449e2be8dbf3857da46",
    },
    ("tabulated", 0.25, False): {
        "adversary.json":
            "dac1b6b6ed4334b9352be9f26e47a58ff15071646b403b103c719950761f8156",
        "resolved_config.json":
            "41efb5b244c68c79254e2efafffce52f4a04a370a756b517f2182d4c50701daa",
    },
    ("tabulated", 0.9, True): {
        "adversary.json":
            "f0862dc196256800b9952f7ec0aa1129f216bec88386b9f497751b9090e71480",
        "resolved_config.json":
            "41efb5b244c68c79254e2efafffce52f4a04a370a756b517f2182d4c50701daa",
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
