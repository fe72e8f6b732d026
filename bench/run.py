#!/usr/bin/env python3
"""Benchmark runner for schemehall.

Run from the repository root, against the library under ./src:

    python3 bench/run.py --workload hall_queries --seed 3 --seconds 40 --trace 0

Workloads: catalogue_report and hall_queries (see
BENCHMARK.json for why each exists).  One process, one caller, closed
loop: each call starts when the previous one has returned.

--trace 0 times a fixed number of whole passes, each on freshly
set-up state, and reports the end-to-end metrics.  The number is
--seconds over the workload's pass_seconds (at least three), so
it does not depend on how fast the library runs.  Between calls it
times the fixed kernel of calibrate.py every half second and scales
each call's time by how fast the kernel ran around it, so that a run
made while the shared host is slow reads like one made while it is
quiet.  The metrics take each item's median over the passes.

--trace 1 runs untraced and traced passes in turn (set-up included in
the trace), reports the per-layer metrics and the tracing overhead,
and requires every traced pass to give the untraced answers and every
traced function to be restored afterwards.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, and for
--trace 1 every span, goes under .bench_out/.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
CALIBRATION_REPEATS = 4
WINDOW_EVERY_S = 0.5
# times the import, then scales it by a calibration window in the same
# child process: the child may run on another core than the parent, in
# another state, and the parent's windows did not predict its times
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import schemehall; "
    "d = time.perf_counter() - t; import calibrate; "
    f"print(d * calibrate.REFERENCE_S / calibrate.window({CALIBRATION_REPEATS}))"
)


def import_seconds(src: Path) -> float:
    """Scaled time of `import schemehall` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)])),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def answer_key(item):
    """A plain, comparable form of one item's answer."""
    if item.error is not None:
        return ("error", type(item.error).__name__, str(item.error))
    a = item.answer
    if hasattr(a, "o_pi"):  # HallCertificate
        return (a.hall.bits, a.o_pi.bits, a.lifted_subgroup, a.index)
    if isinstance(a, tuple):  # Hall family
        return tuple(t.bits for t in a)
    return a


def checked_pass(wl, state, frozen, whole: bool):
    gc.collect()
    items = wl.run_pass(state)
    verdicts = wl.check(items, frozen)
    pass_ok = wl.whole_pass_ok(items, frozen) if whole else True
    return items, verdicts, pass_ok


def pass_count(wl, seconds: float) -> int:
    """Passes per run: fixed by the run length and the workload alone."""
    return max(MIN_PASSES, round(seconds / wl.pass_seconds))


class SpeedClock:
    """How fast the machine runs, from calibration windows over time.

    A window is CALIBRATION_REPEATS kernels of calibrate.py back to
    back.  One is timed when the clock starts, then on each tick,
    between two item calls, once WINDOW_EVERY_S has passed since the
    last, and when asked.  An instant gets the factor REFERENCE_S over
    the mean kernel time of the last window before it and the first
    window after it.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.kernels: list[float] = []
        self.window()

    def window(self) -> None:
        self.kernels.append(calibrate.window(CALIBRATION_REPEATS))
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        if time.perf_counter() - self.ends[-1] >= WINDOW_EVERY_S:
            self.window()

    def factor(self, at: float) -> float:
        i = bisect.bisect_right(self.ends, at)
        return 2.0 * calibrate.REFERENCE_S / (self.kernels[i - 1] + self.kernels[i])


def timed_pass(wl, clock: SpeedClock, frozen, whole: bool):
    """Set-up, then one pass with the clock's windows between items and
    after it.  Returns checked_pass's results and the scaled set-up
    time."""
    import workloads

    t0 = time.perf_counter()
    state = wl.set_up()
    setup = time.perf_counter() - t0
    workloads.BETWEEN_ITEMS = clock.tick
    try:
        items, verdicts, pass_ok = checked_pass(wl, state, frozen, whole)
    finally:
        workloads.BETWEEN_ITEMS = None
    clock.window()
    return items, verdicts, pass_ok, setup * clock.factor(t0)


def timings(items) -> list[tuple[float, float]]:
    """Each item's start and latency, without its answer, which a run
    does not keep past its pass."""
    return [(it.start, it.seconds) for it in items]


def item_medians(passes: list[list[tuple[float, float]]], clock: SpeedClock) -> list[float]:
    """Each item's median over the passes of its scaled latency."""
    return [
        statistics.median(p[i][1] * clock.factor(p[i][0]) for p in passes)
        for i in range(len(passes[0]))
    ]


def untraced_run(wl, frozen, seconds: float, src: Path) -> dict:
    """A fixed number of whole passes, each on freshly set-up state.

    Every pass runs the same items on the same inputs.  Each item's
    latency is scaled by the SpeedClock factor at its start, and the
    timing metrics come from each item's median scaled latency over the
    passes.  Other tenants of a shared machine slow the kernel and the
    library alike, so a slow stretch cancels in the scale, and a burst
    within one pass drops out of the median.  The pass count depends on
    the run length alone.

    setup_s is the median scaled import time plus the median scaled
    set-up time.  The import is timed in a child process before every
    pass, so that its median spans the run as the passes do.
    """
    clock = SpeedClock()
    imports, setups, passes, durations = [], [], [], []
    attempted = failed = 0
    correct = True
    for k in range(pass_count(wl, seconds)):
        imports.append(import_seconds(src))
        items, verdicts, pass_ok, setup = timed_pass(wl, clock, frozen, whole=k == 0)
        setups.append(setup)
        passes.append(timings(items))
        durations.append(sum(it.seconds for it in items))
        attempted += len(items)
        failed += verdicts.count(False)
        correct = correct and pass_ok

    med = item_medians(passes, clock)
    med_ms = [x * 1000.0 for x in med]
    factors = [clock.factor(start) for p in passes for start, _ in p]
    setup = statistics.median(imports) + statistics.median(setups)
    metrics = {
        "setup_s": (setup, "s"),
        "items_per_s": (len(med) / sum(med), "1/s"),
        "item_p50_ms": (statistics.median(med_ms), "ms"),
        "item_p90_ms": (statistics.quantiles(med_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "item_seconds_per_pass": durations, "scaled_setups_s": setups, "scaled_imports_s": imports,
        "kernel_windows_s": clock.kernels, "median_factor": statistics.median(factors),
        "items_per_pass": len(med), "failed_frac": failed / attempted,
        "timed_items_per_s": attempted / sum(durations),
    }
    return _result(correct and failed == 0, attempted, failed, metrics, detail)


def traced_run(wl, frozen, seconds: float, out_dir: Path, tag: str) -> dict:
    """Pairs of an untraced and a traced pass, half as many pairs as an
    untraced run has passes, and at least MIN_PASSES.

    The per-layer metrics come from the first traced pass, unscaled.
    The tracing overhead compares scaled item medians, as the untraced
    metrics do: 1 - (sum of untraced medians) / (sum of traced medians).
    Every traced pass must give the first untraced pass's answers and
    leave every wrapped function restored.
    """
    from spans import RATIOS, SPAN_NAMES, Tracer

    clock = SpeedClock()
    plain, traced, layer = [], [], None
    attempted = failed = 0
    reference = None
    correct = True
    for _ in range(max(MIN_PASSES, pass_count(wl, seconds) // 2)):
        items, verdicts, pass_ok, _ = timed_pass(wl, clock, frozen, whole=reference is None)
        plain.append(timings(items))
        if reference is None:
            reference = [answer_key(i) for i in items]
        attempted += len(items)
        failed += verdicts.count(False)
        correct = correct and pass_ok

        tracer = Tracer()
        tracer.install()
        try:
            items, verdicts, _, _ = timed_pass(wl, clock, frozen, whole=False)
        finally:
            tracer.restore()
        traced.append(timings(items))
        attempted += len(items)
        failed += verdicts.count(False)
        correct = correct and tracer.restored() and [answer_key(i) for i in items] == reference
        if layer is None:
            layer = tracer.metrics()
            tracer.write(out_dir / f"spans-{tag}.json.gz")
            spans = len(tracer.name)

    metrics = {}
    for full in SPAN_NAMES:
        metrics[f"{full}.calls"] = (layer[f"{full}.calls"], "count")
        metrics[f"{full}.s"] = (layer[f"{full}.s"], "s")
        metrics[f"{full}.self_s"] = (layer[f"{full}.self_s"], "s")
    for name in RATIOS:
        metrics[name] = (layer[name], "ratio")
    overhead = 1.0 - sum(item_medians(plain, clock)) / sum(item_medians(traced, clock))
    metrics["trace.overhead_frac"] = (overhead, "frac")
    detail = {"spans": spans, "kernel_windows_s": clock.kernels}
    return _result(correct and failed == 0, attempted, failed, metrics, detail)


def _result(correct, attempted, failed, metrics, detail) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalogue_report", "hall_queries"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "schemehall" / "__init__.py").is_file():
        print(f"no schemehall sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import schemehall
    if Path(schemehall.__file__).resolve().parent != (src / "schemehall").resolve():
        print(f"schemehall was imported from {schemehall.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    frozen = json.loads((HERE / "facts.json").read_text())[args.workload]
    wl = WORKLOADS[args.workload](args.seed)
    out_dir = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(wl, frozen, args.seconds, out_dir, tag)
    else:
        result = untraced_run(wl, frozen, args.seconds, src)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    del result["detail"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
