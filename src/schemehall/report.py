"""Machine-readable reports over a batch of scheme files.

One JSON object per input, schema-versioned, with deterministic key
and list ordering so a report over the same corpus is byte-identical
from run to run.  Timing figures are only included on request, since
they would break that determinism.
"""
from __future__ import annotations

import json
import time
from collections.abc import Iterable
from itertools import repeat

from .arith import format_pi, validate_pi
from .errors import (
    InternalInconsistencyError,
    NotPiValencedError,
    NotSolvableError,
    SchemehallError,
)
from .formats import SchemeFile, parse_scheme
from .hall import find_hall
from .scheme import AssociationScheme, is_solvable_scheme

__all__ = ["scheme_record", "report_records", "render_jsonl"]

SCHEMA_VERSION = 1

DEFAULT_PI_SETS: tuple[tuple[int, ...], ...] = ((2,), (3,), (5,), (7,), (2, 3))


def scheme_record(
    name: str,
    text: str | bytes,
    pi_sets: tuple[tuple[int, ...], ...] = DEFAULT_PI_SETS,
    timings: bool = False,
) -> dict:
    """Build the report record for one scheme file body, given as text or
    as the file's bytes.  Bytes that are not UTF-8 make an invalid record
    whose error names the first undecodable byte, as a body the parser
    or validation refuses does.  Each pi of pi_sets is validated before
    any of that work, so one that is no set of primes raises ValueError
    whatever the body.

    A pi whose Hall check finds an internal inconsistency gets an
    "error" entry instead of an answer; the other pi go on.  One found
    outside the per-pi checks, by validation's proof of the relation
    hypergroup, the solvability test or the closed-subset census, leaves
    a valid record with its size fields, read off the parsed file, and
    a top-level "error" in place of the analysis: the proof runs once
    the scheme axioms hold.
    """
    pis = tuple(map(validate_pi, pi_sets))
    t0 = time.perf_counter()
    record: dict = {"schema": SCHEMA_VERSION, "input": name}
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        parsed = parse_scheme(text, name=name)
        scheme = parsed.scheme()
    except InternalInconsistencyError as exc:  # the axioms held, the proof failed
        valencies = map(parsed.matrix[0].count, range(parsed.rank))
        record.update(_sizes(parsed, valencies), error=f"{type(exc).__name__}: {exc}")
    except (SchemehallError, UnicodeDecodeError) as exc:
        record["valid"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        record.update(_sizes(parsed, scheme.valencies))
        try:
            record.update(_analysis(scheme, pis))
        except InternalInconsistencyError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"

    if timings:
        record["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    return record


def _sizes(parsed: SchemeFile, valencies: Iterable[int]) -> dict:
    """A valid record's size fields, read off a file that passed the
    scheme axioms, which make the valencies row 0's label counts."""
    return {
        "valid": True,
        "n_points": parsed.n_points,
        "rank": parsed.rank,
        "valencies": list(valencies),
    }


def _analysis(scheme: AssociationScheme, pis: tuple[frozenset[int], ...]) -> dict:
    """Solvability, closed-subset census and per-pi Hall entries, for
    the validated pis."""
    out: dict = {"solvable": is_solvable_scheme(scheme)}
    census = scheme.closed_subsets()
    out["closed_subsets"] = {
        "count": len(census),
        "valencies": sorted(c.valency for c in census),
    }
    by_pi: dict[str, dict] = {}
    for ps in pis:
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


def report_records(
    inputs: list[tuple[str, str | bytes]],
    pi_sets: tuple[tuple[int, ...], ...] = DEFAULT_PI_SETS,
    timings: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Records for (name, text or bytes) pairs, ordered by input name.

    jobs > 1 fans the per-scheme work out over at most that many
    processes, and never more than there are inputs; the output order
    stays the sorted-name order either way.  The process pool is only
    imported then, so a serial report never loads concurrent.futures or
    multiprocessing.  A jobs that is not an int of at least 1, a bool
    included, raises ValueError, and so does a pi that is no set of
    primes, before any record is made or any pool started.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    pis = tuple(map(validate_pi, pi_sets))
    ordered = sorted(inputs, key=lambda p: p[0])
    if jobs == 1 or len(ordered) <= 1:
        return [scheme_record(name, text, pis, timings) for name, text in ordered]
    from concurrent.futures import ProcessPoolExecutor

    names, texts = zip(*ordered)
    with ProcessPoolExecutor(max_workers=min(jobs, len(ordered))) as pool:
        return list(pool.map(scheme_record, names, texts, repeat(pis), repeat(timings)))


def render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
