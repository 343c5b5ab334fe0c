"""Outside-in tracing of stackgame's layers, and the per-layer metrics.

`Tracer.installed()` rebinds each traced public function at every name it is
looked up under: module functions in each stackgame module that imported them
by name (`cli`, `strategy` and `tradeoff` do), methods on their class (so that
`inv_cdf`'s internal `self.cdf` calls are seen). Every binding is restored on
exit. Each call of a traced function records a span (name, start, end, span
id, parent id, run id, attributes) in memory; calls too frequent for a span
each (quadrature integrand, quadrature and bisection entry points) only bump a
counter. `layer_metrics` turns spans and counters into the named metrics.

The CLI runs with one worker, so calls nest on one thread and the parent of a
span is the innermost span open when it starts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "envelope", "kernel", "noise_model", "numerics", "simulator",
           "strategy", "tradeoff")


def _size(args, kwargs, result):
    return {"n": int(np.size(result))}


def _envelope_samples(args, kwargs, result):
    from stackgame.envelope import DEFAULT_GRID_SIZE
    grid = args[1] if len(args) > 1 else kwargs.get("grid_size", DEFAULT_GRID_SIZE)
    return {"samples": int(result.source_qs.size), "grid": int(grid),
            "chords": len(result.chords())}


def _mc_trials(args, kwargs, result):
    return {"trials": int(result.trials), "accepted": int(result.accepted_count)}


def _etas(args, kwargs, result):
    return {"n": len(result.best_alpha_sets)}


# (module, function, span name, attributes) -- functions, rebound in every
# stackgame module that holds them
FUNCTION_SPANS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "_write_csv", "cli.write", None),
    ("envelope", "build_envelope", "envelope.build_envelope", _envelope_samples),
    ("tradeoff", "c_alpha", "tradeoff.c_alpha", _size),
    ("tradeoff", "build_oracle_table", "tradeoff.build_oracle_table", None),
    ("tradeoff", "oracle_c2", "tradeoff.oracle_c2", None),
    ("strategy", "solve_equilibrium", "strategy.solve_equilibrium", _etas),
    ("strategy", "best_alpha_set", "strategy.best_alpha_set", None),
    ("strategy", "build_adversary", "strategy.build_adversary", None),
    ("simulator", "run_monte_carlo", "simulator.run_monte_carlo", _mc_trials),
    ("simulator", "run_scenario_suite", "simulator.run_scenario_suite", None),
    ("simulator", "dominance_check", "simulator.dominance_check", None),
)

# (module, class, method, span name, attributes) -- rebound on the class
METHOD_SPANS = (
    ("noise_model", "HonestNoiseModel", "sample", "noise_model.sample", _size),
    ("noise_model", "HonestNoiseModel", "cdf", "noise_model.cdf", _size),
    ("kernel", "KernelContext", "error_moment", "kernel.error_moment", _size),
    ("kernel", "KernelContext", "accept_prob_inv", "kernel.accept_prob_inv", _size),
    ("envelope", "Envelope", "__init__", "envelope.hull", None),
    ("envelope", "Envelope", "is_touch", "envelope.is_touch", None),
)

# (module, class or None, attribute, counter name) -- calls counted, no span
COUNTED = (
    ("noise_model", "HonestNoiseModel", "pdf_scalar", "noise_model.pdf_scalar.calls"),
    ("numerics", None, "adaptive_simpson", "numerics.adaptive_simpson.calls"),
    ("numerics", None, "bisect_monotone_vec", "numerics.bisect_monotone_vec.calls"),
)

# every per-layer metric the traced run reports: (name, unit, better)
LAYER_METRICS = (
    ("noise_model.sample.draws", "count", "lower"),
    ("noise_model.sample.total_s", "s", "lower"),
    ("noise_model.cdf.evals", "count", "lower"),
    ("noise_model.cdf.evals_per_draw", "evals/draw", "lower"),
    ("noise_model.pdf_scalar.calls", "count", "lower"),
    ("numerics.adaptive_simpson.calls", "count", "lower"),
    ("numerics.bisect_monotone_vec.calls", "count", "lower"),
    ("kernel.error_moment.points", "count", "lower"),
    ("kernel.error_moment.self_s", "s", "lower"),
    ("kernel.error_moment.us_per_point", "us", "lower"),
    ("kernel.accept_prob_inv.points", "count", "lower"),
    ("kernel.accept_prob_inv.self_s", "s", "lower"),
    ("envelope.build_envelope.calls", "count", "lower"),
    ("envelope.build_envelope.total_s", "s", "lower"),
    ("envelope.hull.self_s", "s", "lower"),
    ("envelope.samples", "count", "lower"),
    ("envelope.refine_ratio", "ratio", "lower"),
    ("envelope.chords", "count", "lower"),
    ("envelope.is_touch.self_s", "s", "lower"),
    ("tradeoff.c_alpha.points", "count", "lower"),
    ("tradeoff.c_alpha.total_s", "s", "lower"),
    ("tradeoff.build_oracle_table.total_s", "s", "lower"),
    ("tradeoff.oracle_c2.calls", "count", "lower"),
    ("tradeoff.oracle_c2.total_s", "s", "lower"),
    ("strategy.solve_equilibrium.etas", "count", "lower"),
    ("strategy.solve_equilibrium.total_s", "s", "lower"),
    ("strategy.best_alpha_set.total_s", "s", "lower"),
    ("strategy.build_adversary.calls", "count", "lower"),
    ("strategy.build_adversary.total_s", "s", "lower"),
    ("simulator.run_monte_carlo.calls", "count", "lower"),
    ("simulator.run_monte_carlo.trials", "count", "lower"),
    ("simulator.run_monte_carlo.self_s", "s", "lower"),
    ("simulator.accept_ratio", "ratio", "higher"),
    ("simulator.run_scenario_suite.total_s", "s", "lower"),
    ("simulator.dominance_check.total_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.parse_config.total_s", "s", "lower"),
    ("cli.write.total_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.span_id, self.parent_id,
                self.run_id, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def span(self, name: str, fn, attrs=None):
        """fn wrapped to record one span per call; attrs(args, kwargs, result)."""
        spans, open_, ids, run_id = self.spans, self._open, self._ids, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = open_[-1] if open_ else None
            open_.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
            # attributes are read after the clock stops, outside the span
            extra = attrs(args, kwargs, result) if attrs else {}
            spans.append(Span(name, start, end, span_id, parent, run_id, extra))
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _rebind_function(self, module: str, attr: str, wrap) -> None:
        original = getattr(importlib.import_module(f"stackgame.{module}"), attr)
        wrapper = wrap(original)
        for name in MODULES:
            mod = importlib.import_module(f"stackgame.{name}")
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._rebind(mod, key, wrapper)

    @contextmanager
    def installed(self):
        """Trace every layer inside the block; restore all bindings after."""
        try:
            for module, attr, name, attrs in FUNCTION_SPANS:
                self._rebind_function(module, attr,
                                      lambda fn, n=name, a=attrs: self.span(n, fn, a))
            for module, cls_name, attr, name, attrs in METHOD_SPANS:
                cls = getattr(importlib.import_module(f"stackgame.{module}"), cls_name)
                self._rebind(cls, attr, self.span(name, cls.__dict__[attr], attrs))
            for module, cls_name, attr, name in COUNTED:
                if cls_name is None:
                    self._rebind_function(module, attr, lambda fn, n=name: self.counted(n, fn))
                else:
                    cls = getattr(importlib.import_module(f"stackgame.{module}"), cls_name)
                    self._rebind(cls, attr, self.counted(name, cls.__dict__[attr]))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": [s.to_json() for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it its child spans cover."""
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent_id in by_id:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def _has_ancestor(span: Span, by_id: dict, name: str) -> bool:
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent_id)
    return False


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced run (without the two the caller adds)."""
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)

    def calls(name):
        return len(groups[name])

    def total(name):  # inclusive, a recursive call counted once
        return sum(s.duration for s in groups[name] if not _has_ancestor(s, by_id, name))

    def self_s(name):
        return sum(selfs[s.span_id] for s in groups[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in groups[name])

    def ratio(num, den):
        return num / den if den else 0.0

    draws = attr("noise_model.sample", "n")
    sampling_evals = sum(s.attrs["n"] for s in groups["noise_model.cdf"]
                         if _has_ancestor(s, by_id, "noise_model.sample"))
    em_points = attr("kernel.error_moment", "n")
    em_self = self_s("kernel.error_moment")
    samples = attr("envelope.build_envelope", "samples")
    trials = attr("simulator.run_monte_carlo", "trials")
    return {
        "noise_model.sample.draws": draws,
        "noise_model.sample.total_s": total("noise_model.sample"),
        "noise_model.cdf.evals": attr("noise_model.cdf", "n"),
        "noise_model.cdf.evals_per_draw": ratio(sampling_evals, draws),
        "noise_model.pdf_scalar.calls": counts.get("noise_model.pdf_scalar.calls", 0),
        "numerics.adaptive_simpson.calls": counts.get("numerics.adaptive_simpson.calls", 0),
        "numerics.bisect_monotone_vec.calls":
            counts.get("numerics.bisect_monotone_vec.calls", 0),
        "kernel.error_moment.points": em_points,
        "kernel.error_moment.self_s": em_self,
        "kernel.error_moment.us_per_point": ratio(em_self * 1e6, em_points),
        "kernel.accept_prob_inv.points": attr("kernel.accept_prob_inv", "n"),
        "kernel.accept_prob_inv.self_s": self_s("kernel.accept_prob_inv"),
        "envelope.build_envelope.calls": calls("envelope.build_envelope"),
        "envelope.build_envelope.total_s": total("envelope.build_envelope"),
        "envelope.hull.self_s": self_s("envelope.hull"),
        "envelope.samples": samples,
        "envelope.refine_ratio": ratio(samples, attr("envelope.build_envelope", "grid")),
        "envelope.chords": attr("envelope.build_envelope", "chords"),
        "envelope.is_touch.self_s": self_s("envelope.is_touch"),
        "tradeoff.c_alpha.points": attr("tradeoff.c_alpha", "n"),
        "tradeoff.c_alpha.total_s": total("tradeoff.c_alpha"),
        "tradeoff.build_oracle_table.total_s": total("tradeoff.build_oracle_table"),
        "tradeoff.oracle_c2.calls": calls("tradeoff.oracle_c2"),
        "tradeoff.oracle_c2.total_s": total("tradeoff.oracle_c2"),
        "strategy.solve_equilibrium.etas": attr("strategy.solve_equilibrium", "n"),
        "strategy.solve_equilibrium.total_s": total("strategy.solve_equilibrium"),
        "strategy.best_alpha_set.total_s": total("strategy.best_alpha_set"),
        "strategy.build_adversary.calls": calls("strategy.build_adversary"),
        "strategy.build_adversary.total_s": total("strategy.build_adversary"),
        "simulator.run_monte_carlo.calls": calls("simulator.run_monte_carlo"),
        "simulator.run_monte_carlo.trials": trials,
        "simulator.run_monte_carlo.self_s": self_s("simulator.run_monte_carlo"),
        "simulator.accept_ratio":
            ratio(attr("simulator.run_monte_carlo", "accepted"), trials),
        "simulator.run_scenario_suite.total_s": total("simulator.run_scenario_suite"),
        "simulator.dominance_check.total_s": total("simulator.dominance_check"),
        "cli.main.total_s": total("cli.main"),
        "cli.parse_config.total_s": total("cli.parse_config"),
        "cli.write.total_s": total("cli.write"),
    }
