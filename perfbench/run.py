"""tilinglab benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root (or anywhere: paths are taken from this
file).  tilinglab is imported from ``src/`` next to this directory.  One
process runs one workload as a closed loop, one operation at a time: it
repeats whole rounds of the workload's operations until ``--seconds`` is
used up, checks every output, and prints a JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
(``wall_s`` is the median round, ``setup_s`` the median of fresh-process
set-ups, ``peak_rss_mb`` this process's peak); with ``--trace 1`` they are
the per-layer ones, from one untraced and one traced round, and the spans
are written to ``perfbench/out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_round(ops, failures: list, tracer=None) -> tuple[list, list[float]]:
    """Run every operation once; returns the outputs (None for a failed
    operation) and each operation's wall time.  Checks come afterwards."""
    gc.collect()
    outputs = []
    times = []
    for op in ops:
        depth = len(tracer.stack) if tracer else 0
        start = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.label}: {type(exc).__name__}: {str(exc)[:200]}")
            outputs.append(None)
        times.append(time.perf_counter() - start)
        if tracer:
            tracer.reset_stack(depth)
    return outputs, times


def _check_round(ops, outputs, problems: list) -> None:
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            problems.append(f"{op.label}: {exc}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes (import plus input build)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _setup_only(workload: str, seed: int) -> None:
    start = time.perf_counter()
    tl = workloads.load(ROOT)
    workloads.build(tl, workload, seed)
    print(repr(time.perf_counter() - start))


def _measure(tl, workload, seed, seconds, failures, problems):
    """Whole rounds while another one still fits in ``seconds`` (at least
    one); returns the per-operation times of every round and the
    operations attempted."""
    inputs = workloads.build(tl, workload, seed)
    ops = workloads.operations(tl, workload, inputs)
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outputs, times = _run_round(ops, failures)
        _check_round(ops, outputs, problems)
        rounds.append(times)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return rounds, len(rounds) * len(ops)


def _end_to_end(tl, args, failures, problems) -> tuple[dict, int]:
    setup_s = _setup_seconds(args.workload, args.seed)
    rounds, attempted = _measure(tl, args.workload, args.seed, args.seconds, failures, problems)
    print(f"rounds: {len(rounds)}, wall_s per round: "
          f"{', '.join(f'{sum(times):.4f}' for times in rounds)}")
    # a burst of contention on a shared host slows a stretch of one round;
    # each operation's median over the rounds discards it
    wall_s = sum(statistics.median(op_times) for op_times in zip(*rounds))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024}
    return values, attempted


def _per_layer(tl, args, names, failures, problems) -> tuple[dict, int]:
    inputs = workloads.build(tl, args.workload, args.seed)
    ops = workloads.operations(tl, args.workload, inputs)
    outputs, times = _run_round(ops, failures)
    _check_round(ops, outputs, problems)
    untraced = sum(times)

    tracer = spans.Tracer()
    spans.install(tracer, tl)
    inputs = workloads.build(tl, args.workload, args.seed)
    ops = workloads.operations(tl, args.workload, inputs)
    outputs, times = _run_round(ops, failures, tracer)
    _check_round(ops, outputs, problems)
    traced = sum(times)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}.tsv"))
    print(f"untraced round {untraced:.4f} s, traced round {traced:.4f} s, "
          f"{len(tracer.name)} spans")

    totals = tracer.layer_totals()
    values = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = traced - untraced
        elif field in ("time_s", "self_s"):
            values[name] = totals.get(layer, {}).get(field, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    return values, 2 * len(ops)


def _run_all(args) -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(f"== {workload}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = _benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args)
    try:
        if args.setup_only:
            _setup_only(args.workload, args.seed)
            return 0
        tl = workloads.load(ROOT)
    except ImportError as exc:
        print(f"cannot load tilinglab: {exc}", file=sys.stderr)
        return 2
    checks.self_test()
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    failures: list[str] = []
    problems: list[str] = []
    if args.trace:
        values, attempted = _per_layer(tl, args, list(units), failures, problems)
    else:
        values, attempted = _end_to_end(tl, args, failures, problems)
    for line in failures:
        print(f"failed: {line}")
    for line in problems:
        print(f"WRONG: {line}")
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(f"attempted {attempted}, failed {len(failures)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
