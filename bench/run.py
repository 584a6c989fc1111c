"""heapinv benchmark: one workload per process, every metric by name and unit.

    python3 bench/run.py --workload matrix|sweep|emit|all --seed N \
        --seconds S --trace 0|1 [--short]

Run from the root of a checkout; the library is imported from ``src/``.
A run sets up several times (import of heapinv, ``load_corpus`` and the
workload's task list) and reports the median as ``setup_s``.  It then runs
whole passes over the task list, in an order drawn from the seed, for
about ``--seconds`` (always at least one pass), and checks the outputs
after the timed passes.  ``--trace 1`` runs half the time untraced and
half under the tracer and reports per-layer metrics of one pass.

Times are reported at a reference interpreter speed: each measured
interval is scaled by the speed probe timed around it (see ``speed.py``).
Probe time is excluded from pass walls.  The human-readable lines also
show each time as measured ("raw").

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 9
TIME_UNITS = ("s", "ms", "us")
MODULES = ("lang", "interp", "fixpoint", "encode", "chc", "corpus")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def setup(workload: wl.Workload, short: bool):
    """Import heapinv afresh, load the corpus and build the task list."""
    for name in [n for n in sys.modules
                 if n == "heapinv" or n.startswith("heapinv.")]:
        del sys.modules[name]
    importlib.import_module("heapinv")
    lib = types.SimpleNamespace(**{
        m: importlib.import_module(f"heapinv.{m}") for m in MODULES})
    tasks = workload.build(lib, lib.corpus.load_corpus())
    if short:
        tasks = [t for t in tasks if wl.in_short_mode(t)]
    return lib, tasks


class Passes:
    """Timed passes over the task list and what they leave for the checks."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.walls: list[tuple[float, float, float]] = []  # start, end, wall
        self.latencies: list[tuple[float, float]] = []     # start, end
        self.attempted = 0
        self.failed = 0   # task executions whose output differed from pass 1
        self.first: list | None = None

    def scaled_walls(self) -> list[float]:
        return [wall * self.probe.scale(start, end)
                for start, end, wall in self.walls]

    def scaled_latencies(self) -> list[float]:
        return [(end - start) * self.probe.scale(start, end)
                for start, end in self.latencies]

    def scale(self) -> float:
        """The phase's mean factor from raw to reference-speed time."""
        return sum(self.scaled_walls()) / sum(w for _, _, w in self.walls)


def run_passes(workload, lib, domain, tasks, order, seconds, passes: Passes,
               tracer: Tracer | None = None) -> None:
    probe = passes.probe
    start = perf_counter()
    while True:
        kept = [None] * len(tasks)
        t_pass = perf_counter()
        probe_before = probe.spent
        if tracer is not None:
            pass_span = tracer.open("pass")
        for i in order:
            task = tasks[i]
            if tracer is None:
                t0 = perf_counter()
                result = workload.run(lib, domain, task)
                passes.latencies.append((t0, perf_counter()))
            else:
                tracer.task = task.id
                span = tracer.open("task")
                try:
                    result = workload.run(lib, domain, task)
                finally:
                    tracer.close(span)
                if workload.stats is not None:
                    span.attrs.update(workload.stats(result))
            kept[i] = workload.keep(result)
            del result
            probe.tick()
        if tracer is not None:
            tracer.close(pass_span)
            tracer.task = None
        probe.tick(force=True)
        t_end = perf_counter()
        wall = t_end - t_pass - (probe.spent - probe_before)
        passes.walls.append((t_pass, t_end, wall))
        passes.attempted += len(tasks)
        if passes.first is None:
            passes.first = kept
        else:
            passes.failed += sum(not workload.repeat_ok(a, b)
                                 for a, b in zip(passes.first, kept))
        del kept
        if t_end - start + wall > seconds:
            return


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  With 242 samples in a sparse
    part of the distribution, one order statistic jumps with the noise of
    the one task it lands on; the weighted mean spreads over its
    neighbours.  Weights are the Beta density at each rank's midpoint."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.tick(force=True)
        t0 = perf_counter()
        lib, tasks = setup(workload, args.short)
        setups.append((t0, perf_counter()))
    probe.tick(force=True)
    domain = lib.fixpoint.InputDomain()
    order = wl.task_order(len(tasks), args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds

    plain = Passes(probe)
    run_passes(workload, lib, domain, tasks, order, budget, plain)
    traced = None
    if args.trace:
        tracer = Tracer()
        traced = Passes(probe)
        tracer.install(lib)
        try:
            run_passes(workload, lib, domain, tasks, order, budget, traced,
                       tracer)
        finally:
            tracer.uninstall()
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()), encoding="utf-8")

    ok = workload.check(lib, domain, tasks, plain.first, ROOT,
                        random.Random(args.seed))
    failed = ok.count(False) + plain.failed
    attempted = plain.attempted
    if traced is not None:
        failed += traced.failed + sum(
            not workload.repeat_ok(a, b)
            for a, b in zip(plain.first, traced.first))
        attempted += traced.attempted
    for task, good in zip(tasks, ok):
        if not good:
            print(f"check failed: {args.workload} {task.id}", file=sys.stderr)

    plain_wall = statistics.median(plain.scaled_walls())
    if args.trace:
        units = PER_LAYER_UNITS
        factor = traced.scale()
        raw = tracer.layer_metrics(len(traced.walls))
        raw["trace.overhead_s"] = (
            statistics.median(w for _, _, w in traced.walls)
            - statistics.median(w for _, _, w in plain.walls))
        metrics = {name: value * factor if units[name] in TIME_UNITS else value
                   for name, value in raw.items()}
        overhead = statistics.median(traced.scaled_walls()) - plain_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / plain_wall
    else:
        units = END_TO_END_UNITS
        factor = plain.scale()
        latencies = plain.scaled_latencies()
        raw_latencies = [end - start for start, end in plain.latencies]
        raw = {
            "setup_s": statistics.median(end - start for start, end in setups),
            "wall_s": statistics.median(w for _, _, w in plain.walls),
            "task_p50_ms": quantile(raw_latencies, 0.5) * 1e3,
            "task_p95_ms": quantile(raw_latencies, 0.95) * 1e3,
        }
        metrics = {
            "setup_s": statistics.median(
                (end - start) * probe.scale(start, end)
                for start, end in setups),
            "wall_s": plain_wall,
            "task_p50_ms": quantile(latencies, 0.5) * 1e3,
            "task_p95_ms": quantile(latencies, 0.95) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    fail_ratio = failed / attempted
    print(f"{args.workload}: {len(tasks)} tasks, {len(plain.walls)} untraced"
          + (f" and {len(traced.walls)} traced" if traced else "")
          + f" passes, {len(plain.latencies)} task latency samples")
    print(f"{args.workload}: fail_ratio = {fail_ratio:.6g} ratio "
          f"({failed} of {attempted})")
    print(f"{args.workload}: speed scale = {factor:.4f} "
          "(reference-speed time over measured time)")
    for name, value in metrics.items():
        unit = units[name]
        unscaled = f", raw {raw[name]:.6g} {unit}" if unit in TIME_UNITS else ""
        print(f"{args.workload}: {name} = {value:.6g} {unit}{unscaled}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak memory is its own."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.short:
            cmd.append("--short")
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny task subset, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "heapinv").is_dir():
        print(f"error: no heapinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
