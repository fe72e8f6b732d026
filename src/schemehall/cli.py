"""Command line interface.

Exit codes: 0 success, 1 the queried property is false (invalid scheme
under `validate`, "not solvable" under `solvable`), 2 bad input or an
unmet precondition, 3 a broken internal invariant.  argparse's own
usage errors also exit 2, which matches the input-error lane.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arith import format_pi, prime_factors, validate_pi
from .errors import (
    InternalInconsistencyError,
    NoConjugatorFoundError,
    ParentMismatchError,
    SchemeAxiomError,
    SchemehallError,
)
from .formats import parse_scheme, render_scheme
from .hall import (
    HallCertificate,
    conjugating_element,
    extend_to_hall,
    find_hall,
)
from .hypergroup import format_table
from .report import DEFAULT_PI_SETS, render_jsonl, report_records
from .scheme import AssociationScheme, conjugators, quotient_scheme, solvable_chain_scheme

__all__ = ["build_parser", "main", "entry"]


def _load(path: str) -> AssociationScheme:
    text = Path(path).read_text("utf-8")
    return parse_scheme(text, name=Path(path).stem).scheme()


def _ids(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {spec!r}") from None


def _pi(spec: str) -> frozenset[int]:
    return validate_pi(_ids(spec))


def _print_certificate(cert: HallCertificate) -> None:
    print(f"Hall {format_pi(cert.pi)}-subset: relations {list(cert.hall.members())}")
    print(f"valency: {cert.hall.valency}")
    print(f"index: {cert.index}")
    print(f"core: relations {list(cert.o_pi.members())} (valency {cert.o_pi.valency})")
    print(f"thin quotient group order: {cert.scheme.n_points // cert.o_pi.valency}")


def cmd_validate(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text("utf-8")
    sf = parse_scheme(text, name=Path(args.file).stem)
    try:
        scheme = sf.scheme()
    except SchemeAxiomError as exc:
        print(f"invalid: {exc}")
        return 1
    print(
        f"valid: {scheme.n_points} points, rank {scheme.rank}, "
        f"valencies {list(scheme.valencies)}"
    )
    return 0


def cmd_closed(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    census = scheme.closed_subsets()
    print(f"closed subsets: {len(census)}")
    for c in census:
        print(f"  relations {list(c.members())} valency {c.valency}")
    return 0


def cmd_solvable(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    chain = solvable_chain_scheme(scheme)
    if chain is None:
        print("not solvable")
        return 1
    path = " < ".join(str(list(c.members())) for c in chain.subsets)
    print(f"solvable: {path}")
    print(f"step primes: {list(chain.step_primes)}")
    return 0


def cmd_hall(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    cert = find_hall(scheme, _pi(args.pi))
    _print_certificate(cert)
    return 0


def cmd_conjugate(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    t = scheme.closed_subset(_ids(args.t))
    u = scheme.closed_subset(_ids(args.u))
    if args.pi is not None:
        pi = _pi(args.pi)
    else:
        pi = frozenset(prime_factors(t.valency))
    s = conjugating_element(scheme, t, u, pi)
    print(f"conjugator: relation {s}")
    print(f"all conjugators: {list(conjugators(scheme, t, u))}")
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    t = scheme.closed_subset(_ids(args.t))
    cert = extend_to_hall(scheme, t, _pi(args.pi))
    _print_certificate(cert)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    t = scheme.closed_subset(_ids(args.t))
    text = render_scheme(quotient_scheme(scheme, t))
    if args.output:
        Path(args.output).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_hypergroup(args: argparse.Namespace) -> int:
    scheme = _load(args.file)
    sys.stdout.write(format_table(scheme.hypergroup))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    files = sorted(root.glob("*.scm"))
    if not files:
        raise ValueError(f"no .scm files under {root}")
    pi_sets: tuple[tuple[int, ...], ...]
    if args.pi is not None:
        pi_sets = tuple((p,) for p in sorted(_pi(args.pi)))
    else:
        pi_sets = DEFAULT_PI_SETS
    inputs = [(f.stem, f.read_bytes()) for f in files]  # so one undecodable file is one record
    records = report_records(inputs, pi_sets, timings=args.timings, jobs=args.jobs)
    if args.json:
        sys.stdout.write(render_jsonl(records))
    else:
        for r in records:
            if not r["valid"]:
                print(f"{r['input']}: INVALID ({r['error']})")
                continue
            size = f"{r['input']}: n={r['n_points']} rank={r['rank']}"
            if "error" in r:
                print(f"{size} ERROR ({r['error']})")
                continue
            print(
                f"{size} solvable={r['solvable']} "
                f"closed={r['closed_subsets']['count']}"
            )
    failed = []
    for r in records:
        if not r["valid"]:
            continue
        if "error" in r:
            failed.append((r["input"], r["error"]))
            continue
        failed.extend(
            (f"{r['input']} pi={key}", entry["error"])
            for key, entry in r["pi"].items() if "error" in entry
        )
    for where, error in failed:
        print(f"internal error: {where}: {error}", file=sys.stderr)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemehall",
        description="Hall subsets of solvable association schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check the scheme axioms on a file")
    p.add_argument("file")

    p = add("closed", cmd_closed, "list all closed relation subsets")
    p.add_argument("file")

    p = add("solvable", cmd_solvable, "print a solvable chain or 'not solvable'")
    p.add_argument("file")

    p = add("hall", cmd_hall, "find a Hall subset for a prime set")
    p.add_argument("file")
    p.add_argument("--pi", required=True, help="comma-separated primes, e.g. 2,3")

    p = add("conjugate", cmd_conjugate, "find a relation conjugating one Hall subset onto another")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="relation ids of the first subset")
    p.add_argument("--u", required=True, help="relation ids of the second subset")
    p.add_argument("--pi", help="prime set; default: prime divisors of the first subset's valency")

    p = add("extend", cmd_extend, "grow a closed subset into a containing Hall subset")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="relation ids of the subset to extend")
    p.add_argument("--pi", required=True)

    p = add("quotient", cmd_quotient, "emit the quotient scheme by a closed subset")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="relation ids of the modulus")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = add("hypergroup", cmd_hypergroup, "print the complex multiplication table")
    p.add_argument("file")

    p = add("report", cmd_report, "batch report over a directory of .scm files")
    p.add_argument("dir")
    p.add_argument("--json", action="store_true", help="emit one JSON object per scheme")
    p.add_argument("--pi", help="primes queried individually (default: 2,3,5,7 and {2,3})")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes, at least 1")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InternalInconsistencyError, NoConjugatorFoundError, ParentMismatchError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (SchemehallError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
