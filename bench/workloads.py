"""The benchmark workloads and the oracle behind their answers.

A workload turns seeded inputs into passes of items.  set_up() makes
the library calls a pass needs before it is timed; run_pass() makes
the timed public calls, one item each, and keeps every answer; check()
then decides per item whether the answer is right, from two sources:

* facts known from theory (a Hall valency is the pi-part of n, the
  index is a pi'-number, a returned conjugator conjugates, an
  extension contains its seed and lies in the Hall family, a group's
  Hall subgroup has the pi-part of the group order);
* label-invariant facts frozen from a reference run (facts.json),
  which freeze.py regenerates.

All library calls go through module attributes at call time, so a
traced run sees them.  run.py divides the run length by pass_seconds
to fix how many passes a run makes, so that the count is the same on
every commit, however fast the library is.
"""
from __future__ import annotations

import hashlib
import time
from collections import Counter

import schemehall as sh
from schemehall.report import DEFAULT_PI_SETS

import inputs


# called before each timed call when set; run.py times its calibration
# kernel there, between calls, never inside one
BETWEEN_ITEMS = None


class Item:
    """One timed public call: what was asked, what came back, when, how long."""

    __slots__ = ("key", "call", "args", "answer", "error", "start", "seconds")

    def __init__(self, key: str, call: str, args: tuple):
        self.key = key
        self.call = call
        self.args = args
        self.answer = None
        self.error: BaseException | None = None
        self.start = 0.0
        self.seconds = 0.0

    def run(self, fn, *args):
        if BETWEEN_ITEMS is not None:
            BETWEEN_ITEMS()
        self.start = t0 = time.perf_counter()
        try:
            self.answer = fn(*args)
        except Exception as exc:  # an unexpected error fails this item only
            self.error = exc
        self.seconds = time.perf_counter() - t0
        return self.answer


def _hall_ok(n: int, pi: frozenset[int], valency: int, index: int) -> bool:
    """Theory: valency is the pi-part of n and the index a pi'-number."""
    return (
        valency == sh.pi_part(n, pi)
        and valency * index == n
        and all(p not in pi for p in sh.prime_factors(index))
    )


# ---------------------------------------------------------------------------
# catalogue_report


class CatalogueReport:
    """scheme_record over every bundled catalogue scheme, cold."""

    name = "catalogue_report"
    pass_seconds = 1.5

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = inputs.catalogue_inputs(seed)

    def set_up(self):
        return None

    def run_pass(self, state) -> list[Item]:
        items = []
        for name, text in self.inputs:
            item = Item(name, "scheme_record", ())
            item.run(sh.scheme_record, name, text, DEFAULT_PI_SETS, False)
            items.append(item)
        return items

    @staticmethod
    def record_facts(record: dict) -> dict:
        if not record["valid"]:
            return {"valid": False}
        val = record["valencies"]
        pis = {}
        for key, entry in record["pi"].items():
            hall = entry["hall"]
            pis[key] = [entry["pi_valenced"], None if hall is None else [
                hall["valency"], hall["index"], sum(val[r] for r in hall["core"])
            ]]
        return {
            "valid": True,
            "n": record["n_points"],
            "rank": record["rank"],
            "valencies": sorted(val),
            "solvable": record["solvable"],
            "closed": [record["closed_subsets"]["count"], record["closed_subsets"]["valencies"]],
            "pi": pis,
        }

    def facts(self, items: list[Item]) -> dict:
        return {"records": {it.key: self.record_facts(it.answer) for it in items}}

    def check(self, items: list[Item], frozen: dict) -> list[bool]:
        want = frozen["records"]
        pi_of = {sh.format_pi(frozenset(p)): frozenset(p) for p in DEFAULT_PI_SETS}
        verdicts = []
        for it in items:
            rec = it.answer
            ok = it.error is None and self.record_facts(rec) == want.get(it.key)
            if ok and rec["valid"]:
                for key, entry in rec["pi"].items():
                    hall = entry["hall"]
                    if hall is not None:
                        ok = ok and _hall_ok(rec["n_points"], pi_of[key], hall["valency"], hall["index"])
            verdicts.append(ok)
        return verdicts

    def whole_pass_ok(self, items: list[Item], frozen: dict) -> bool:
        """The per-item records are what report_records returns, and at
        seed 0 the JSONL is byte-identical to the frozen digest."""
        records = [it.answer for it in items]
        text = sh.render_jsonl(records)
        batch = sh.render_jsonl(sh.report_records(self.inputs, jobs=1, timings=False))
        if text != batch:
            return False
        if self.seed == 0:
            return hashlib.sha256(text.encode()).hexdigest() == frozen["jsonl_sha256_seed0"]
        return True


# ---------------------------------------------------------------------------
# hall_queries


def _relevant_pis(scheme) -> list[frozenset[int]]:
    """The pi <= {2, 3, 5, 7} made only of primes of n and the valencies."""
    primes = set(sh.prime_factors(scheme.n_points))
    for v in scheme.valencies:
        primes.update(sh.prime_factors(v))
    return [pi for pi in inputs.PI_SUBSETS if pi <= primes]


class HallQueries:
    """Many Hall queries against each warm scheme.

    Criterion-2 pattern on every solvable catalogue scheme of order
    <= 12 and every pi it is pi-valenced for; criterion-3 pattern,
    find_hall on the thin scheme of each bundled group.  Of the 16
    pi <= {2, 3, 5, 7}, only those made of primes that divide n or a
    valency are asked: a prime outside them changes no answer, so the
    other pi would repeat a query already made.
    """

    name = "hall_queries"
    pass_seconds = 3.0

    def __init__(self, seed: int):
        self.seed = seed
        self.schemes, self.groups = inputs.hall_inputs(seed)

    def set_up(self):
        """Parse, validate, build hypergroups, pick the query inputs."""
        pairs = []
        for name, text in self.schemes:
            scheme = sh.parse_scheme(text, name=name).scheme()
            scheme.hypergroup
            if not sh.is_solvable_scheme(scheme):
                continue
            closed = scheme.closed_subsets()
            for pi in _relevant_pis(scheme):
                if sh.is_pi_valenced(scheme, pi):
                    seeds = tuple(
                        t for t in closed if sh.pi_predicates(scheme, t, pi).is_closed_pi_subset
                    )
                    pairs.append((f"{name}|{sh.format_pi(pi)}", scheme, pi, seeds))
        groups = []
        for name, table in self.groups:
            scheme = sh.from_group(table, name=name)
            scheme.hypergroup
            groups.append((name, scheme, _relevant_pis(scheme)))
        return pairs, groups

    def run_pass(self, state) -> list[Item]:
        pairs, groups = state
        items = []
        for key, scheme, pi, seeds in pairs:
            ctx = (scheme, pi)
            item = Item(key, "find_hall", ctx)
            item.run(sh.find_hall, scheme, pi)
            items.append(item)
            item = Item(key, "all_hall_subsets", ctx)
            halls = item.run(sh.all_hall_subsets, scheme, pi) or ()
            items.append(item)
            for t in halls:
                for u in halls:
                    item = Item(key, "conjugating_element", ctx + (t, u))
                    item.run(sh.conjugating_element, scheme, t, u, pi)
                    items.append(item)
            for t in seeds:
                item = Item(key, "extend_to_hall", ctx + (t,))
                item.run(sh.extend_to_hall, scheme, t, pi)
                items.append(item)
        for name, scheme, pis in groups:
            for pi in pis:
                item = Item(f"{name}|{sh.format_pi(pi)}", "group_find_hall", (scheme, pi))
                item.run(sh.find_hall, scheme, pi)
                items.append(item)
        return items

    def facts(self, items: list[Item]) -> dict:
        pairs: dict[str, dict] = {}
        groups: dict[str, list] = {}
        for it in items:
            if it.error is not None:
                continue
            if it.call == "find_hall":
                c = it.answer
                pairs.setdefault(it.key, {})["hall"] = [c.hall.valency, c.index, c.o_pi.valency]
            elif it.call == "all_hall_subsets":
                pairs.setdefault(it.key, {})["family"] = len(it.answer)
            elif it.call == "extend_to_hall":
                entry = pairs.setdefault(it.key, {})
                entry["seeds"] = entry.get("seeds", 0) + 1
            elif it.call == "group_find_hall":
                c = it.answer
                groups[it.key] = [c.hall.valency, c.index, c.o_pi.valency]
        for entry in pairs.values():
            entry.setdefault("seeds", 0)
        return {"pairs": pairs, "groups": groups, "items": len(items)}

    def check(self, items: list[Item], frozen: dict) -> list[bool]:
        want_pairs, want_groups = frozen["pairs"], frozen["groups"]
        families: dict[str, set[int]] = {}
        seeds = Counter(it.key for it in items if it.call == "extend_to_hall")
        verdicts = []
        for it in items:
            if it.error is not None:
                verdicts.append(False)
                continue
            scheme, pi = it.args[0], it.args[1]
            n = scheme.n_points
            if it.call == "all_hall_subsets":
                fam = {t.bits for t in it.answer}
                families[it.key] = fam
                want = want_pairs.get(it.key)
                ok = (
                    want is not None
                    and len(fam) == len(it.answer) == want["family"]
                    and seeds[it.key] == want["seeds"]
                    and all(t.valency == sh.pi_part(n, pi) for t in it.answer)
                )
            elif it.call == "find_hall":
                c = it.answer
                want = want_pairs.get(it.key)
                ok = (
                    want is not None
                    and [c.hall.valency, c.index, c.o_pi.valency] == want["hall"]
                    and _hall_ok(n, pi, c.hall.valency, c.index)
                )
            elif it.call == "conjugating_element":
                t, u = it.args[2], it.args[3]
                ok = sh.conjugate_subset(scheme, t, it.answer).bits == u.bits
            elif it.call == "extend_to_hall":
                t, c = it.args[2], it.answer
                ok = (
                    t.bits & ~c.hall.bits == 0
                    and _hall_ok(n, pi, c.hall.valency, c.index)
                )
            else:  # group_find_hall
                c = it.answer
                ok = (
                    [c.hall.valency, c.index, c.o_pi.valency] == want_groups.get(it.key)
                    and _hall_ok(n, pi, c.hall.valency, c.index)
                )
            verdicts.append(ok)
        # a returned Hall subset must lie in its pair's family
        for i, it in enumerate(items):
            if verdicts[i] and it.call in ("find_hall", "extend_to_hall"):
                verdicts[i] = it.answer.hall.bits in families.get(it.key, ())
        return verdicts

    def whole_pass_ok(self, items: list[Item], frozen: dict) -> bool:
        """The pass covers exactly the frozen (scheme, pi) pairs and groups."""
        got = self.facts(items)
        return (
            set(got["pairs"]) == set(frozen["pairs"])
            and set(got["groups"]) == set(frozen["groups"])
            and got["items"] == frozen["items"]
        )


WORKLOADS = {w.name: w for w in (CatalogueReport, HallQueries)}
