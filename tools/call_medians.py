#!/usr/bin/env python3
"""Show which public calls of a benchmark workload set its item latencies.

    python3 tools/call_medians.py [--workload W] [--seed S] [--passes N]

Runs N passes of workload W from bench/workloads.py in this process,
each on freshly set-up state as bench/run.py runs them, and takes each
item's median latency over the passes, unscaled: no calibration clock,
no child process, no answer check.  It prints, per call type, the item
count and the sum and the median of the item medians, then the p50 and
p90 of the item medians, taken as bench/run.py takes item_p50_ms and
item_p90_ms, with the call types of the items each lies between.  Run
from the root of the repository; bench/ is read, never written.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(calls: list[str], medians: list[float]) -> list[str]:
    """The report for items whose call types are calls and whose median
    latencies, in seconds, are medians: one line per call type, with its
    item count and the sum and median of its items' medians, by
    descending sum, then one per percentile.  A percentile q interpolates
    between the items at ranks floor and ceil of q * (n - 1) in sorted
    order, as statistics.median and the inclusive tenth quantiles do."""
    by_call: dict[str, list[float]] = {}
    for call, m in zip(calls, medians):
        by_call.setdefault(call, []).append(m)
    total = {call: sum(ms) for call, ms in by_call.items()}
    lines = [f"{'call':<22} {'items':>6} {'sum of medians (ms)':>20} {'median (us)':>12}"]
    for call in sorted(total, key=lambda c: (-total[c], c)):
        lines.append(
            f"{call:<22} {len(by_call[call]):>6} {total[call] * 1e3:>20.4f}"
            f" {statistics.median(by_call[call]) * 1e6:>12.3f}"
        )
    order = sorted(range(len(medians)), key=lambda i: medians[i])
    values = {
        "p50": statistics.median(medians),
        "p90": statistics.quantiles(medians, n=10, method="inclusive")[8],
    }
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        at = q * (len(medians) - 1)
        ranks = sorted({int(at), -int(-at // 1)})
        types = sorted({calls[order[r]] for r in ranks})
        lines.append(f"{name} {values[name] * 1e6:.3f} us, between items of {', '.join(types)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="hall_queries")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=15)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    passes = []
    for _ in range(args.passes):
        passes.append(wl.run_pass(wl.set_up()))
    calls = [it.call for it in passes[0]]
    medians = [statistics.median(p[i].seconds for p in passes) for i in range(len(calls))]
    print(f"{args.workload} seed {args.seed}: {len(calls)} items, {args.passes} passes")
    print("\n".join(summarize(calls, medians)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
