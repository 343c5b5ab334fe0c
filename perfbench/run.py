#!/usr/bin/env python3
"""stackgame benchmark: the `stackgame` CLI timed end to end, and traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-uniform --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one summary

--trace 0 runs the workload's CLI command again and again, untraced, each time
in a fresh interpreter, for about --seconds, and reports the medians of:

    wall_s       process start to exit of one CLI invocation
    setup_s      interpreter start + `import stackgame.cli` + `parse_config`
                 of the workload's config (median of several probes)
    cpu_s        user + system CPU of the invocation
    peak_rss_mb  maximum resident set size of the invocation

--trace 1 alternates untraced and traced invocations (perfbench/traced.py)
and reports the per-layer metrics of spans.py, medians over the traced ones.

Every invocation counts in `attempted`. It counts in `failed` when it exits
non-zero, when the workload's checks (workloads.py) reject its output, or when
its artifacts differ from those of the run's first invocation; all
invocations write to the same --output path because the config hash covers
the output directory. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give provenance,
sample counts and failed_ratio. Generated configs, outputs and logs live in a
temporary directory under .perfbench-work/ in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import WORKLOADS, simulation_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260814  # the CLI's own default simulation seed
DEFAULT_SECONDS = 35

# Every child runs with BLAS/OpenMP pools pinned to one thread, so a shared
# 2-core box is not oversubscribed by hidden threads.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))

CLI = (sys.executable, "-m", "stackgame.cli")
SETUP_CODE = "import sys\nimport stackgame.cli\nstackgame.cli.parse_config(sys.argv[1])"
SETUP_WARMUP = 1  # the first probe may compile bytecode; it is not reported
SETUP_PROBES = 5
MIN_INVOCATIONS = 2  # the byte-identical check needs a repetition; a traced pair has one
HARD_LIMIT_S = 170  # a run must end within 180 s; children are killed past this


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Invocation:
    exit_code: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv, log: Path, timeout: float) -> Invocation:
    """Run argv to completion in the checkout; measure it with wait4."""
    env = {k: v for k, v in os.environ.items() if k != "STACKGAME_OUTPUT_DIR"}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


def _tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


def _snapshot(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()} \
        if out.is_dir() else {}


class OutputCheck:
    """Judges each invocation: exit code, workload checks, byte-identical artifacts."""

    def __init__(self, workload, cfg, out: Path):
        self.workload, self.cfg, self.out = workload, cfg, out
        self.reference = None
        self.reference_problems: list = []

    def __call__(self, exit_code: int) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        snap = _snapshot(self.out)
        if self.reference is None:
            self.reference = snap
            try:
                self.reference_problems = self.workload.check(self.out, self.cfg)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                self.reference_problems = [f"unreadable output: {exc!r}"]
            return self.reference_problems
        if snap != self.reference:
            names = sorted(n for n in set(snap) | set(self.reference)
                           if snap.get(n) != self.reference.get(n))
            return [f"artifacts differ from the first invocation: {names}"]
        return self.reference_problems

    @property
    def artifact_bytes(self) -> int:
        return sum(len(b) for b in (self.reference or {}).values())


def _more(walls, deadline: float, hard_end: float, minimum: int) -> bool:
    """Whether another invocation fits: the run's length is fixed by --seconds."""
    now = time.perf_counter()
    expected = statistics.median(walls)
    if now + expected > hard_end:
        return False
    return len(walls) < minimum or now + expected <= deadline


class WorkloadRun:
    """One workload at one seed: generated config, invocations, checks."""

    def __init__(self, name: str, seed: int, seconds: int, tmp: Path):
        from stackgame.cli import parse_config

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.sim_seed = simulation_seed(seed)
        self.tmp = tmp
        self.config = tmp / f"{name}.json"
        self.config.write_text(json.dumps(self.workload.config(self.sim_seed),
                                          indent=2, sort_keys=True) + "\n")
        self.out = tmp / "out"
        self.check = OutputCheck(self.workload, parse_config(self.config), self.out)
        self.cli_args = [self.workload.command, "--config", str(self.config),
                         "--output", str(self.out)]
        self.attempted = 0
        self.failed = 0
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_end = self.start + HARD_LIMIT_S

    def _invoke(self, argv, log_name: str) -> Invocation:
        shutil.rmtree(self.out, ignore_errors=True)
        log = self.tmp / log_name
        inv = spawn(argv, log, self.hard_end - time.perf_counter())
        problems = self.check(inv.exit_code)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload.name} invocation {self.attempted}: "
                  f"{'; '.join(problems)}\n{_tail(log)}", file=sys.stderr)
        return inv

    def setup_times(self) -> list:
        walls = []
        for i in range(SETUP_WARMUP + SETUP_PROBES):
            log = self.tmp / "setup.log"
            inv = spawn([sys.executable, "-c", SETUP_CODE, str(self.config)], log,
                        self.hard_end - time.perf_counter())
            if inv.exit_code != 0:
                raise BenchError(f"set-up probe exited {inv.exit_code}:\n{_tail(log)}")
            if i >= SETUP_WARMUP:
                walls.append(inv.wall)
        return walls

    def untraced(self) -> dict:
        """Median end-to-end metrics: name -> (value, unit, samples)."""
        setup = self.setup_times()
        invs = []
        while True:
            invs.append(self._invoke([*CLI, *self.cli_args], "cli.log"))
            if not _more([i.wall for i in invs], self.deadline, self.hard_end, MIN_INVOCATIONS):
                break
        samples = {"wall_s": [i.wall for i in invs], "setup_s": setup,
                   "cpu_s": [i.cpu for i in invs], "peak_rss_mb": [i.rss_mb for i in invs]}
        return {name: (statistics.median(samples[name]), unit, samples[name])
                for name, unit in END_TO_END}

    def traced(self) -> dict:
        """Median per-layer metrics: name -> (value, unit, samples)."""
        plain, traced, layers = [], [], []
        while True:
            plain.append(self._invoke([*CLI, *self.cli_args], "cli.log").wall)
            spans_path = self.tmp / "spans.json"
            run_id = f"{self.workload.name}-{self.seed}-{len(traced)}"
            inv = self._invoke([sys.executable, str(HERE / "traced.py"), str(spans_path),
                                run_id, "--", *self.cli_args], "traced.log")
            traced.append(inv.wall)
            if inv.exit_code == 0:
                doc = json.loads(spans_path.read_text())
                layers.append(spans.layer_metrics(
                    [spans.Span.from_json(row) for row in doc["spans"]], doc["counts"]))
            pair = [a + b for a, b in zip(plain, traced)]
            if not _more(pair, self.deadline, self.hard_end, 1):
                break
        if not layers:
            raise BenchError("no traced invocation succeeded")
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        samples = {name: [m[name] for m in layers] for name in layers[0]}
        samples["cli.artifact_bytes"] = [self.check.artifact_bytes]
        samples["trace.overhead_ratio"] = [overhead]
        return {name: (statistics.median(samples[name]), unit, samples[name])
                for name, unit, _ in spans.LAYER_METRICS}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": THREAD_ENV, "cli_workers": 1,
            "schedule": "one workload, one invocation at a time"}


def _report(name: str, run: WorkloadRun, metrics: dict) -> None:
    wl = run.workload
    seed_note = "" if wl.uses_seed else f"; {name} is deterministic and ignores it"
    print(f"{name}: seed {run.seed} -> simulation.seed {run.sim_seed}{seed_note}")
    for metric, (value, unit, samples) in metrics.items():
        spread = f", min {min(samples):.6g}, max {max(samples):.6g}" if len(samples) > 1 else ""
        print(f"  {metric}: median {value:.6g} {unit} (n={len(samples)}{spread})")
    print(f"  failed_ratio: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} invocations)")
    if "cli.main.total_s" in metrics:
        layer = wl.dominant_layer
        part, whole = metrics[layer][0], metrics["cli.main.total_s"][0]
        print(f"  dominant layer {layer}: {part:.4g} s of {whole:.4g} s traced "
              f"({100.0 * part / max(whole, 1e-12):.1f}%)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "stackgame" / "cli.py").is_file():
        print(f"no stackgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    attempted = failed = 0
    result = {}
    try:
        for name in names:
            wl_tmp = tmp / name
            wl_tmp.mkdir()
            run = WorkloadRun(name, args.seed, args.seconds, wl_tmp)
            metrics = run.traced() if args.trace else run.untraced()
            _report(name, run, metrics)
            attempted += run.attempted
            failed += run.failed
            prefix = "" if len(names) == 1 else f"{name}."
            result.update({prefix + metric: {"value": value, "unit": unit}
                           for metric, (value, unit, _) in metrics.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
