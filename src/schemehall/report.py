"""Machine-readable reports over a batch of scheme files.

One JSON object per input, schema-versioned, with deterministic key
and list ordering so a report over the same corpus is byte-identical
from run to run.  Timing figures are only included on request, since
they would break that determinism.
"""
from __future__ import annotations

import json
import time

from .arith import format_pi, validate_pi
from .errors import (
    InternalInconsistencyError,
    NotPiValencedError,
    NotSolvableError,
    SchemehallError,
)
from .formats import parse_scheme
from .hall import find_hall
from .scheme import AssociationScheme, is_solvable_scheme

__all__ = ["scheme_record", "report_records", "render_jsonl"]

SCHEMA_VERSION = 1

DEFAULT_PI_SETS: tuple[tuple[int, ...], ...] = ((2,), (3,), (5,), (7,), (2, 3))


def scheme_record(
    name: str,
    text: str,
    pi_sets: tuple[tuple[int, ...], ...] = DEFAULT_PI_SETS,
    timings: bool = False,
) -> dict:
    """Build the report record for one scheme file body.

    A pi whose Hall check finds an internal inconsistency gets an
    "error" entry instead of an answer; the other pi go on.  One found
    outside the per-pi checks, by the hypergroup build, the solvability
    test or the closed-subset census, leaves a valid record with its
    size fields and a top-level "error" in place of the analysis.
    """
    t0 = time.perf_counter()
    record: dict = {"schema": SCHEMA_VERSION, "input": name}
    try:
        scheme = parse_scheme(text, name=name).scheme()
    except SchemehallError as exc:
        record["valid"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        record["valid"] = True
        record["n_points"] = scheme.n_points
        record["rank"] = scheme.rank
        record["valencies"] = list(scheme.valencies)
        try:
            record.update(_analysis(scheme, pi_sets))
        except InternalInconsistencyError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"

    if timings:
        record["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    return record


def _analysis(scheme: AssociationScheme, pi_sets: tuple[tuple[int, ...], ...]) -> dict:
    """Solvability, closed-subset census and per-pi Hall entries."""
    out: dict = {"solvable": is_solvable_scheme(scheme)}
    census = scheme.closed_subsets()
    out["closed_subsets"] = {
        "count": len(census),
        "valencies": sorted(c.valency for c in census),
    }
    by_pi: dict[str, dict] = {}
    for pi in pi_sets:
        ps = validate_pi(pi)
        key = format_pi(ps)
        entry: dict = {}
        try:
            cert = find_hall(scheme, ps)
        except NotPiValencedError:
            entry["pi_valenced"] = False
            entry["hall"] = None
        except NotSolvableError:
            entry["pi_valenced"] = True
            entry["hall"] = None
        except InternalInconsistencyError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["pi_valenced"] = True
            entry["hall"] = {
                "relations": list(cert.hall.members()),
                "valency": cert.hall.valency,
                "index": cert.index,
                "core": list(cert.o_pi.members()),
            }
        by_pi[key] = entry
    out["pi"] = by_pi
    return out


def _worker(task: tuple[str, str, tuple[tuple[int, ...], ...], bool]) -> dict:
    return scheme_record(*task)


def report_records(
    inputs: list[tuple[str, str]],
    pi_sets: tuple[tuple[int, ...], ...] = DEFAULT_PI_SETS,
    timings: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Records for (name, text) pairs, ordered by input name.

    jobs > 1 fans the per-scheme work out over at most that many
    processes, and never more than there are inputs; the output order
    stays the sorted-name order either way.  The process pool is only
    imported then, so a serial report never loads concurrent.futures or
    multiprocessing.  jobs < 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (name, text, pi_sets, timings)
        for name, text in sorted(inputs, key=lambda p: p[0])
    ]
    if jobs == 1 or len(tasks) <= 1:
        return [_worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_worker, tasks))


def render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
