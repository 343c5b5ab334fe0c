"""Tests of the benchmark itself: span arithmetic, generated configs, tracer cleanup."""

import importlib
import json

import pytest

import run
import spans
from spans import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, simulation_seed

from stackgame import cli
from stackgame.envelope import Envelope
from stackgame.kernel import KernelContext
from stackgame.noise_model import HonestNoiseModel


def _tree():
    return [
        Span("cli.main", 0.0, 10.0, 1, None, "r"),
        Span("envelope.build_envelope", 1.0, 4.0, 2, 1, "r",
             {"samples": 10, "grid": 8, "chords": 1}),
        Span("envelope.hull", 2.0, 3.0, 3, 2, "r"),
        Span("kernel.error_moment", 5.0, 9.0, 4, 1, "r", {"n": 4}),
        Span("kernel.error_moment", 6.0, 7.0, 5, 4, "r", {"n": 2}),
    ]


def test_self_time_subtracts_direct_children():
    assert self_times(_tree()) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [Span("a", 0.0, 10.0, 1, None, "r"), Span("b", 1.0, 4.0, 2, 1, "r"),
            Span("c", 3.0, 6.0, 3, 1, "r"), Span("d", 8.0, 12.0, 4, 1, "r")]
    assert self_times(tree)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_on_a_synthetic_tree():
    m = layer_metrics(_tree(), {"noise_model.pdf_scalar.calls": 7})
    assert m["cli.main.total_s"] == 10.0
    assert m["envelope.build_envelope.total_s"] == 3.0
    assert m["envelope.hull.self_s"] == 1.0
    assert m["envelope.refine_ratio"] == 10 / 8
    assert m["kernel.error_moment.self_s"] == 4.0
    assert m["kernel.error_moment.points"] == 6
    assert m["kernel.error_moment.us_per_point"] == pytest.approx(4e6 / 6)
    assert m["noise_model.pdf_scalar.calls"] == 7
    assert m["noise_model.cdf.evals_per_draw"] == 0.0  # no draws: no division


def test_benchmark_json_names_what_the_benchmark_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(spans.LAYER_METRICS)
    computed = set(layer_metrics([], {})) | {"cli.artifact_bytes", "trace.overhead_ratio"}
    assert computed == {name for name, _, _ in spans.LAYER_METRICS}


@pytest.mark.parametrize("seed", [0, 7, 2**40])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_configs_parse(tmp_path, name, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WORKLOADS[name].config(simulation_seed(seed))))
    cfg = cli.parse_config(path)
    assert cfg.seed == simulation_seed(seed)
    if name == "solve-uniform":
        assert (cfg.eta_grid.size, cfg.alpha_grid.size, cfg.envelope_grid) == (601, 1000, 4096)
        assert cfg.utility.dc.params == {"gamma": 0.02}
    elif name == "sweep-truncnormal":
        assert cfg.noise.kind == "truncated-normal"
        assert list(cfg.eta_grid) == [2.0, 2.25, 2.5, 2.75, 3.0]
        assert (cfg.n_nodes, cfg.trials) == ([2, 5], 100_000)
    else:
        assert (cfg.noise.kind, cfg.n_nodes, cfg.trials) == ("uniform", [2, 5], 200_000)


def _bindings():
    out = {}
    for name in spans.MODULES:
        mod = importlib.import_module(f"stackgame.{name}")
        out.update({(name, key): val for key, val in vars(mod).items() if callable(val)})
    for cls in (HonestNoiseModel, KernelContext, Envelope):
        out.update({(cls.__name__, key): val for key, val in vars(cls).items()})
    return out


def test_tracer_restores_every_binding(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "honest_noise": {"kind": "truncated-normal", "delta": 1.0, "params": {"sigma": 0.5}},
        "eta_grid": {"values": [2.0, 2.5]},
        "alpha_grid": {"start": 0.001, "stop": 1.0, "num": 50},
        "report_alphas": {"values": [0.5]},
        "simulation": {"n_nodes": [2], "trials": 2000, "seed": 3},
        "envelope": {"grid_size": 64},
        "oracle": {"grid_size": 64},
    }))
    argv = ["sweep", "--config", str(config), "--output", str(tmp_path / "out")]
    before = _bindings()
    tracer = Tracer("test")
    with tracer.installed():
        assert tracer.span("cli.main", cli.main)(argv) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["strategy.solve_equilibrium.etas"] == 2
    assert m["simulator.run_monte_carlo.trials"] == 2000
    assert m["noise_model.cdf.evals_per_draw"] > 0
    assert m["noise_model.pdf_scalar.calls"] > 0
    assert m["numerics.adaptive_simpson.calls"] > 0

    # a following untraced call runs the original functions: nothing recorded
    n_spans, counts = len(tracer.spans), dict(tracer.counts)
    assert cli.main(argv) == 0
    assert (len(tracer.spans), dict(tracer.counts)) == (n_spans, counts)
