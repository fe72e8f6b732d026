#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    PYTHONPATH=src python3 bench/selftest.py

Checks that seed 0 reproduces the bundled inputs exactly, that
relabelled inputs at other seeds are still valid schemes and groups
with the same label-invariant shape, and that tracing neither changes
an answer nor leaves a wrapped function behind.  Exits non-zero on the
first failure.
"""
from __future__ import annotations

import sys

import schemehall as sh

import inputs
from run import answer_key
from spans import SPAN_NAMES, Tracer
from workloads import CatalogueReport

SEEDS = (1, 2)


def shape(scheme) -> tuple:
    return scheme.n_points, scheme.rank, tuple(sorted(scheme.valencies))


def check_seed_zero() -> None:
    bundled = inputs.bundled_matrices()
    for name, text in inputs.catalogue_inputs(0):
        if sh.parse_scheme(text, name=name).matrix != bundled[name]:
            raise AssertionError(f"seed 0 changed catalogue scheme {name}")
    _, groups = inputs.hall_inputs(0)
    for name, table in groups:
        if table != sh.bundled_group(name).table:
            raise AssertionError(f"seed 0 changed group {name}")


def check_relabelled(seed: int) -> None:
    reference = {name: sh.validate_scheme(m) for name, m in inputs.bundled_matrices().items()}
    moved = 0
    for name, text in inputs.catalogue_inputs(seed):
        got = sh.parse_scheme(text, name=name)
        moved += got.matrix != reference[name].rel
        if shape(got.scheme()) != shape(reference[name]):
            raise AssertionError(f"seed {seed} changed the shape of {name}")
    if moved < len(reference) // 2:
        raise AssertionError(f"seed {seed} relabelled only {moved} catalogue schemes")
    _, groups = inputs.hall_inputs(seed)
    for name, table in groups:
        sh.validate_group(table)


def check_tracing() -> None:
    wl = CatalogueReport(SEEDS[0])
    plain = wl.run_pass(wl.set_up())
    tracer = Tracer()
    tracer.install()
    try:
        bound = {attr for _, attr, _ in tracer.bindings}
        traced = wl.run_pass(wl.set_up())
    finally:
        tracer.restore()
    if not tracer.restored():
        raise AssertionError("a traced function was not restored")
    missing = {full.split(".")[1] for full in SPAN_NAMES} - bound
    if missing:
        raise AssertionError(f"never wrapped: {sorted(missing)}")
    if [answer_key(i) for i in plain] != [answer_key(i) for i in traced]:
        raise AssertionError("tracing changed an answer")
    if not tracer.metrics()["report.scheme_record.calls"] == len(traced):
        raise AssertionError("scheme_record spans do not match the items run")


def main() -> int:
    check_seed_zero()
    print("seed 0 reproduces the bundled inputs")
    for seed in SEEDS:
        check_relabelled(seed)
        print(f"seed {seed}: relabelled inputs validate with unchanged shape")
    check_tracing()
    print("tracing leaves answers unchanged and restores every function")
    return 0


if __name__ == "__main__":
    sys.exit(main())
