"""Benchmark of sphervar: B-divisor recovery end to end and per layer.

    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from
its src/ directory.  A run is a whole number of complete passes over a
fixed item list; the seed fixes the item order within each pass, and
--seconds fixes the number of passes through the time one pass took at
the reference commit, so every run of a workload does the same work.
Every time reported with --trace 0 is a wall time scaled to the
reference host speed by speed.Probe (see speed.py); the wall-time
figures go to the record under bench/out/ beside them.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the same object, and with
--trace 1 the per-layer table, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import speed  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_ITEMS = 100  # at least ten samples beyond the 90th percentile


def set_up(name: str, work_dir: Path, tracer=None):
    """Import sphervar afresh and build the workload's inputs and oracles;
    returns (seconds taken, workload)."""
    t0 = time.perf_counter()
    for mod in [m for m in sys.modules if m.partition(".")[0] == "sphervar"]:
        del sys.modules[mod]
    importlib.import_module("sphervar.cli")
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name][0](work_dir)
    workloads.smoke_check()
    return time.perf_counter() - t0, workload


def run_passes(workload, passes: int, rng: random.Random, probe=None):
    """Time every item of every pass, sampling the host speed between
    items when given a probe; returns (attempted, failed, wrong, (start,
    duration) of the items that did not fail)."""
    attempted = 0
    failed = 0
    wrong: list[str] = []
    durations: list[tuple[float, float]] = []
    for _ in range(passes):
        for item in workload.pass_items(rng):
            attempted += 1
            if probe is not None:
                probe.maybe_sample()
            t0 = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # count the failure and go on measuring
                failed += 1
                print(f"failed: {item.name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            complaint = item.check(result)
            if complaint is None:
                durations.append((t0, dt))
            else:
                failed += 1
                wrong.append(f"{item.name}: {complaint}")
    if probe is not None:
        probe.sample()
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    return attempted, failed, wrong, durations


def pass_count(name: str, workload, seconds: int) -> int:
    per_pass = len(workload.pass_items(random.Random(0)))
    nominal = workloads.WORKLOADS[name][1]
    return max(math.ceil(MIN_ITEMS / per_pass), round(seconds / nominal))


def timing_metrics(durations: list[float], setups: list[float]) -> dict:
    ms = [d * 1e3 for d in durations]
    return {
        "throughput_items_s": (len(durations) / sum(durations), "items/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def measure(name: str, seed: int, seconds: int, trace: bool, work_dir: Path):
    tracer = tracing.Tracer() if trace else None
    probe = speed.Probe()
    setups = []
    scaled_setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        probe.sample(3)
        t0 = time.perf_counter()
        dt, workload = set_up(name, work_dir, tracer)
        probe.sample(3)
        setups.append(dt)
        scaled_setups.append(dt * probe.scale(t0, t0 + dt))
    passes = pass_count(name, workload, seconds)
    gc.collect()
    t0 = time.perf_counter()
    attempted, failed, wrong, timed = run_passes(
        workload, passes, random.Random(seed), probe)
    wall = time.perf_counter() - t0
    if not timed:
        raise SystemExit("no operation succeeded")
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall_metrics = timing_metrics([d for _, d in timed], setups)
    end_to_end = timing_metrics(
        [d * probe.scale(t, t + d) for t, d in timed], scaled_setups)
    end_to_end["peak_rss_mb"] = rss
    metrics = tracer.metrics() if trace else end_to_end
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "passes": passes, "wall_s": wall,
              "speed_kernel_median_s": probe.median_s(),
              "speed_samples": len(probe.durations),
              "wall_clock_metrics": {k: v for k, (v, _) in wall_metrics.items()},
              "result": result}
    if trace:
        record["traced_end_to_end"] = {
            k: v for k, (v, _) in end_to_end.items() if k != "setup_s"}
        record["layers"] = tracer.table()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def self_check() -> int:
    """One pass of every workload with every oracle; exit 1 on any fault."""
    status = 0
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            t0 = time.perf_counter()
            _, workload = set_up(name, Path(tmp))
            attempted, failed, _, _ = run_passes(workload, 1, random.Random(0))
        print(f"{name}: {attempted - failed}/{attempted} passed "
              f"in {time.perf_counter() - t0:.1f} s")
        status |= failed != 0
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one pass of every workload, all oracles")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "sphervar" / "__init__.py").is_file():
        print(f"error: no sphervar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()
    work_dir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
