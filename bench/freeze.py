#!/usr/bin/env python3
"""Regenerate bench/facts.json, the oracle's frozen facts.

    PYTHONPATH=src python3 bench/freeze.py

Runs one untraced pass of every workload at seed 0 and stores the
label-invariant facts of its answers, plus the sha256 of the seed-0
catalogue report JSONL.  Only rerun this on a commit whose answers are
known to be right: every later benchmark run is checked against it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import schemehall as sh

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> None:
    facts = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0)
        items = wl.run_pass(wl.set_up())
        bad = [it.key for it in items if it.error is not None]
        if bad:
            raise SystemExit(f"{name}: unexpected errors on {bad[:5]}")
        facts[name] = wl.facts(items)
        if name == "catalogue_report":
            jsonl = sh.render_jsonl([it.answer for it in items])
            facts[name]["jsonl_sha256_seed0"] = hashlib.sha256(jsonl.encode()).hexdigest()
        print(f"{name}: {len(items)} items")
    (HERE / "facts.json").write_text(render(facts))


def render(facts: dict) -> str:
    """Sorted JSON with one line per frozen entry, so diffs stay readable."""
    def dump(obj, depth: int) -> str:
        if not isinstance(obj, dict) or depth == 3:
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))
        pad = " " * (depth + 1)
        body = ",\n".join(f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}" for k, v in sorted(obj.items()))
        return "{\n" + body + "\n" + " " * depth + "}"

    return dump(facts, 0) + "\n"


if __name__ == "__main__":
    main()
