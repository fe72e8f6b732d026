#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each directory is a checkout of the repository.  Bytecode is written in
both with compileall first, so no run pays for compiling.  Each pair runs
bench/run.py --trace 0 once in each checkout, for the run_seconds that
BENCHMARK.json states, with the parent first in even pairs and the change
first in odd ones.  Each run's end-to-end metrics are printed as it ends.
Then, for each end-to-end metric of BENCHMARK.json, the summary gives
each side's median and quartiles, the pairs the change read better in,
and whether two rules hold: the change reads better in at least nine of
ten pairs, and its median is better than the parent's by more than the
parent's spread between quartiles.  Its last column checks the metric's
bound: "within" when the change's median is worse than the parent's by
no more than that fraction of the parent's median, "outside" when it is
worse by more, and "unresolved" when the parent's own spread between
quartiles is wider than that fraction, so the runs cannot tell, unless
every run of the change reads better than every run of the parent.

Runs are sequential, one bench process at a time.  BENCHMARK.json is read
from CHANGE_DIR.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as bench/record.py
    takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(
    parent: list[dict[str, float]], change: list[dict[str, float]], end_to_end: list[dict]
) -> list[str]:
    """One line per metric, pair i being (parent[i], change[i])."""
    lines = [
        f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
        f" {'won':>7}  9/10  spread  bound"
    ]
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        gain = pm - cm if lower else cm - pm
        nine = 10 * wins >= 9 * len(p)
        allowed = spec["bound"] * pm
        better_in_every_run = max(c) < min(p) if lower else min(c) > max(p)
        if p3 - p1 > allowed and not better_in_every_run:
            bound = "unresolved"
        else:
            bound = "within" if -gain <= allowed else "outside"
        lines.append(
            f"{name:<14} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>34}"
            f" {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>34} {f'{wins}/{len(p)}':>7}"
            f"  {'yes' if nine else 'no':<4}  {'yes' if gain > p3 - p1 else 'no':<6}  {bound}"
        )
    return lines


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced bench run in tree: its end-to-end metric values."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {result['failed']} of {result['attempted']} items failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=tree, check=True
        )
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values = bench_once(trees[side], args.workload, args.seed, spec["run_seconds"])
            runs[side].append(values)
            shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in spec["end_to_end"])
            print(f"pair {i} {side:<6} {shown}", flush=True)
    print("\n".join(summarize(runs["parent"], runs["change"], spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
