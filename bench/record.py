#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 bench/record.py --seeds 10

Runs bench/run.py once per (workload, seed) untraced, seeds from 0,
and once per workload traced at seed 0, each in its own process.  For
every end-to-end metric it reports the values, their median, quartiles
and spread (quartile distance over median, quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound from BENCHMARK.json, and writes it all to .bench_out/record.json.
Use the same settings on a parent commit and on a change to compare
them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: wrong answers: {result}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.seeds)
    seconds = spec["run_seconds"]
    report: dict = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"attempted_per_run": [r["attempted"] for r in runs], "end_to_end": {}}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            print(f"  {metric}: median {s['median']:.4g} spread {s['spread']:.3f} (bound {bound})")
        traced = run_once(name, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  trace.overhead_frac: {entry['per_layer']['trace.overhead_frac']:.3f}", flush=True)
        report["workloads"][name] = entry

    out = Path(".bench_out/record.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
