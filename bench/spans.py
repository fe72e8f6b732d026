"""Span tracing from outside the library.

Tracer.install() replaces each traced function wherever it is bound:
in every loaded schemehall module that holds it under its own name,
and on the Hypergroup class for closure_mask.  Each call then records
one span (name, start, end, parent span) plus an item count where one
is defined (the number of closed subsets enumerate_closed_subsets
returns).  Spans stay in memory in flat arrays; Tracer.restore() puts
every original function object back.  Untraced runs never install.

The hottest helpers, bits_of and mul_masks, are left unwrapped on
purpose: their cost lands in the self time of their callers.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from pathlib import Path

# layer -> public functions traced in that layer's module
TRACED: dict[str, tuple[str, ...]] = {
    "formats": ("parse_scheme",),
    "scheme": ("validate_scheme", "solvable_chain_scheme", "pi_predicates", "conjugators"),
    "hypergroup": (
        "validate_hypergroup",
        "enumerate_closed_subsets",
        "closure_mask",
        "is_subnormal",
        "is_strongly_normal",
        "double_cosets",
    ),
    "solvability": ("solvable_chain",),
    "quotient": ("quotient", "lift_closed", "project_closed"),
    "groups": ("validate_group", "thin_hypergroup", "all_subgroups", "find_subgroup_conjugator"),
    "hall": (
        "find_hall",
        "all_hall_subsets",
        "conjugating_element",
        "extend_to_hall",
        "compute_o_pi",
        "group_from_thin",
        "hall_subgroups",
    ),
    "report": ("scheme_record",),
}
METHODS = {"closure_mask"}  # traced as methods of hypergroup.Hypergroup
SPAN_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns
)
RATIOS: tuple[str, ...] = (
    "hall.compute_o_pi.per_query",
    "scheme.solvable_chain_scheme.per_scheme",
    "hypergroup.enumerate_closed_subsets.hit_ratio",
    "hypergroup.closure_mask.per_closed_subset",
)
_COUNTED = {"hypergroup.enumerate_closed_subsets": len}


class Tracer:
    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count = array("l")
        self._stack: list[int] = [-1]
        self.bindings: list[tuple[object, str, object]] = []

    def _wrap(self, code: int, fn, counter=None):
        name, start, end, parent, count = self.name, self.start, self.end, self.parent, self.count
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            count.append(-1)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(out)
            return out

        return traced

    def install(self) -> None:
        if self.bindings:
            raise RuntimeError("tracer is already installed")
        mods = {
            key: mod for key, mod in sys.modules.items()
            if key == "schemehall" or key.startswith("schemehall.")
        }
        for code, full in enumerate(SPAN_NAMES):
            layer, fn_name = full.split(".")
            home = mods[f"schemehall.{layer}"]
            if fn_name in METHODS:
                owner = home.Hypergroup
                original = owner.__dict__[fn_name]
                self._bind(owner, fn_name, self._wrap(code, original))
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(code, original, _COUNTED.get(full))
            for mod in mods.values():
                if vars(mod).get(fn_name) is original:
                    self._bind(mod, fn_name, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self.bindings.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Every binding install() replaced holds its original object again."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self.bindings)

    # -- reading the spans ----------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls, total s and self_s per traced name, and the four ratios.

        A span's total counts once even when the same name is active
        above it (recursion), and self time is its duration minus the
        durations of its direct children.
        """
        names, start, end, parent, count = self.name, self.start, self.end, self.parent, self.count
        k = len(SPAN_NAMES)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        child_s = [0.0] * len(names)
        closure_children = [0] * len(names)
        code_closure = SPAN_NAMES.index("hypergroup.closure_mask")
        code_enum = SPAN_NAMES.index("hypergroup.enumerate_closed_subsets")
        for i in range(len(names) - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child_s[p] += dur
                if names[i] == code_closure and names[p] == code_enum:
                    closure_children[p] += 1
            c = names[i]
            calls[c] += 1
            self_s[c] += dur - child_s[i]
            if not self._inside_same(i):
                total[c] += dur

        out: dict[str, float] = {}
        for c, full in enumerate(SPAN_NAMES):
            out[f"{full}.calls"] = calls[c]
            out[f"{full}.s"] = total[c]
            out[f"{full}.self_s"] = self_s[c]

        def by(full: str) -> int:
            return calls[SPAN_NAMES.index(full)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        queries = by("hall.find_hall") + by("hall.conjugating_element") + by("hall.extend_to_hall")
        enum_spans = [i for i in range(len(names)) if names[i] == code_enum]
        misses = [i for i in enum_spans if closure_children[i]]
        out["hall.compute_o_pi.per_query"] = ratio(by("hall.compute_o_pi"), queries)
        out["scheme.solvable_chain_scheme.per_scheme"] = ratio(
            by("scheme.solvable_chain_scheme"), by("scheme.validate_scheme")
        )
        out["hypergroup.enumerate_closed_subsets.hit_ratio"] = ratio(
            len(enum_spans) - len(misses), len(enum_spans)
        )
        out["hypergroup.closure_mask.per_closed_subset"] = ratio(
            sum(closure_children[i] for i in misses), sum(count[i] for i in misses)
        )
        return out

    def _inside_same(self, i: int) -> bool:
        code = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == code:
                return True
            p = self.parent[p]
        return False

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON columns: name, start, end, parent, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": SPAN_NAMES,
            "name": self.name.tolist(),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": self.parent.tolist(),
            "count": self.count.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
