"""Alternating parent/change pairs of benchmark runs, and their summary.

Usage::

    python tools/ab_pairs.py PARENT CHANGE --workload exact --seed 1 --pairs 10 --seconds 28

PARENT and CHANGE are two checkouts of the repository, such as a
``git archive`` of the parent commit and the working tree.  For each of the
seeds ``--seed`` .. ``--seed + --pairs - 1``, ``perfbench/run.py`` runs once
in each tree, one process at a time; the parent goes first in the even
pairs and the change in the odd ones, so neither side always runs on a
warmer or a busier machine.  Each run's last line is its JSON result.

For each workload and each end-to-end metric of the change's
``BENCHMARK.json`` the summary gives the parent's median and quartiles
(inclusive method), the change's median and the number of pairs in which
the change was better.  The exit status is 1 when any run was not correct,
failed an operation or did not finish.  ``--json FILE`` also writes every
run's result.  Only the standard library is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def last_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``perfbench/run.py`` run."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; a run that exits nonzero or prints no
    result is reported as not correct."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=tree,
    )
    try:
        if proc.returncode == 0:
            return last_result(proc.stdout)
    except (ValueError, IndexError):
        pass
    tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "error": f"exit {proc.returncode}: {' '.join(tail)}"}


def problems(workload: str, runs: list[tuple[dict, dict]]) -> list[str]:
    """One line per run that was not correct or failed an operation."""
    out = []
    for i, pair in enumerate(runs):
        for side, result in zip(("parent", "change"), pair):
            if not result["correct"] or result["failed"]:
                why = result.get("error", f"correct={result['correct']}, "
                                          f"failed={result['failed']}")
                out.append(f"{workload} pair {i} {side}: {why}")
    return out


def summarize(metrics: list[dict], runs: list[tuple[dict, dict]]) -> list[dict]:
    """Per metric (``name``, ``unit``, ``better`` as in BENCHMARK.json), the
    parent's median and quartiles, the change's median and the change's
    wins over the (parent, change) result pairs that both report it."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in runs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        sign = 1 if metric["better"] == "lower" else -1
        q1, q3 = (
            statistics.quantiles(parent, n=4, method="inclusive")[::2]
            if len(parent) > 1 else (parent[0], parent[0])
        )
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent_median": statistics.median(parent),
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": statistics.median(change),
            "wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
        })
    return rows


def format_row(row: dict) -> str:
    base = row["parent_median"]
    delta = (row["change_median"] - base) / base * 100 if base else 0.0
    return (
        f"  {row['name']} ({row['unit']}): parent {row['parent_median']:.6g} "
        f"(quartiles {row['parent_q1']:.6g}-{row['parent_q3']:.6g}), "
        f"change {row['change_median']:.6g} ({delta:+.2f}%), "
        f"change better in {row['wins']} of {row['pairs']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: every one in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--json", default=None, help="also write every run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record = {}
    bad = []
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            trees = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
            first, second = (run_once(tree, workload, seed, seconds) for tree in trees)
            runs.append((first, second) if i % 2 == 0 else (second, first))
            print(f"{workload} seed {seed}: {'parent' if i % 2 == 0 else 'change'} first",
                  flush=True)
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
        for row in summarize(spec["end_to_end"], runs):
            print(format_row(row))
        bad += problems(workload, runs)
        record[workload] = {
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "parent": [p for p, _ in runs],
            "change": [c for _, c in runs],
        }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
    for line in bad:
        print(f"BAD: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
