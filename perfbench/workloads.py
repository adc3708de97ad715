"""The benchmark's workloads: seeded op lists, a check for every op, and the
known-defect probes.

An op is one singval CLI invocation.  Its check reads the op's stdout and
exit code and compares them with facts from families.py, never with
singval's own answers, and never with exact row text or row counts.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import families as fam

Check = Callable[[str, int], "str | None"]


@dataclass(frozen=True)
class Op:
    """argv for `singval`, and a check returning None or why the op failed."""

    argv: tuple[str, ...]
    check: Check


# -- checks ----------------------------------------------------------------------


def _exit_zero(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def check_verify(out: str, code: int) -> str | None:
    if _exit_zero(code):
        return _exit_zero(code)
    if not re.search(r"^result: pass\b", out, re.M):
        return "no 'result: pass' line"
    return None


def _json(out: str, code: int) -> tuple[dict | None, str | None]:
    if _exit_zero(code):
        return None, _exit_zero(code)
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not one JSON document"


def _mismatches(pairs: list[tuple[str, object, object]]) -> str | None:
    bad = [f"{name}: got {got!r}, expected {want!r}" for name, got, want in pairs
           if want is not None and got != want]
    return "; ".join(bad) or None


def _members(facts: fam.Facts) -> list[list[int]] | None:
    return None if facts.members is None else [list(v) for v in sorted(facts.members)]


def check_info(facts: fam.Facts) -> Check:
    def check(out: str, code: int) -> str | None:
        obj, err = _json(out, code)
        if err:
            return err
        g = facts.gorenstein
        return _mismatches([
            ("conductor", obj["conductor"], list(facts.gamma)),
            ("delta", obj["delta"], facts.delta),
            ("members", sorted(obj["members"]), _members(facts)),
            ("gorenstein by lengths", obj["gorenstein_by_lengths"], g),
            ("gorenstein by symmetry", obj["gorenstein_by_symmetry"], g),
            ("verdicts agree", obj["agreement"], True),
        ])
    return check


def check_ideal_info(facts: fam.Facts) -> Check:
    def check(out: str, code: int) -> str | None:
        obj, err = _json(out, code)
        if err:
            return err
        return _mismatches([
            ("conductor", obj["conductor"], list(facts.gamma)),
            ("members", sorted(obj["members"]), _members(facts)),
            ("doubled inside == total", obj["doubled_equals_total"], facts.gorenstein),
            ("routes agree", obj["routes_agree"], True),
        ])
    return check


def check_series(facts: fam.Facts) -> Check:
    """The Poincare series is supported exactly on the value set."""
    def check(out: str, code: int) -> str | None:
        obj, err = _json(out, code)
        if err:
            return err
        w = obj["window"]
        want = {v for v in product(*[range(a, b + 1) for a, b in zip(w["lo"], w["hi"])])
                if facts.member(v)}
        got = {tuple(c["point"]) for c in obj["series"]["pg"]["coefficients"] if c["class"]}
        if got != want:
            return (f"pg support differs from the value set at "
                    f"{sorted(got ^ want)[:4]}")
        return None
    return check


def check_count(facts: fam.Facts) -> Check:
    """The counts agree with the series, and are nonzero exactly on the value set."""
    def check(out: str, code: int) -> str | None:
        obj, err = _json(out, code)
        if err:
            return err
        if obj["agreement"] is not True:
            return "agreement: no"
        if facts.members is not None:
            wrong = [row["v"] for row in obj["rows"]
                     if (row["counted"] > 0) != facts.member(tuple(row["v"]))]
            if wrong:
                return f"points counted off the value set, or missed on it: {wrong[:4]}"
        return None
    return check


# -- op lists ----------------------------------------------------------------------


class _OpList:
    """Writes cases under workdir and collects the ops on them."""

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.ops: list[Op] = []

    def path(self, case: fam.Case, tag: str = "") -> str:
        target = self.workdir / f"{case.name}{tag}.json"
        target.write_text(json.dumps(case.data, indent=1), encoding="utf-8")
        return str(target.relative_to(self.root))

    def add(self, case: fam.Case, kind: str, *extra: str, tag: str = "") -> None:
        f = case.facts
        path = self.path(case, tag)
        if kind == "verify":
            self.ops.append(Op(("verify", path, *extra), check_verify))
        elif kind == "info":
            self.ops.append(Op(("info", path, "--format", "json"), check_info(f)))
        elif kind == "ideal-info":
            self.ops.append(Op(("ideal-info", path, "--format", "json"), check_ideal_info(f)))
        elif kind == "series":
            self.ops.append(Op(("series", path, *extra, "--q", "2", "--format", "json"),
                               check_series(f)))
        elif kind == "count":
            self.ops.append(Op(("count", path, *extra, "--format", "json"), check_count(f)))
        else:
            raise ValueError(kind)


ALL = "--all-ideals"
TABLE_SERIES = ("--which", "a,lg,pg,lhat,phat")


def curves(rng: random.Random, b: _OpList) -> None:
    """Every subcommand but count on concrete curves, Q-side jet algebra."""
    plan = {
        (2, 3): [("info",), ("verify", ALL)],
        (3, 4): [("info",), ("verify",), ("ideal-info",), ("series",)],
        (2, 5): [("info",), ("verify", ALL)],
        (3, 5): [("info",), ("verify", ALL), ("ideal-info",), ("series",)],
        (2, 7): [("info",), ("verify",)],
        (4, 5): [("info",), ("verify",), ("ideal-info",), ("series",)],
        (3, 7): [("info",), ("verify",), ("series",)],
        (5, 6): [("info",)],
        (5, 7): [("info",), ("ideal-info",)],
    }
    for (p, q), kinds in plan.items():
        case = fam.monomial_branch(p, q, rng)
        for kind, *extra in kinds:
            b.add(case, kind, *extra)
    for k, kinds in [(2, [("info",), ("verify", ALL)]), (4, [("info",), ("verify",)]),
                     (6, [("info",), ("verify",)]), (8, [("info",)])]:
        case = fam.a_type(k, rng)
        for kind, *extra in kinds:
            b.add(case, kind, *extra)
    d4 = fam.ordinary_point(3, rng)
    b.add(d4, "info")
    b.add(d4, "series")
    cusps = fam.glued_cusps(rng)
    b.add(cusps, "info")
    b.add(cusps, "verify")
    for name in ("cusp", "e8", "semigroup345", "node", "tacnode"):
        b.add(fam.corpus_case(b.root, name), "verify", ALL)


def tables(rng: random.Random, b: _OpList) -> None:
    """Abstract value-module files: no jet algebra at all, only the
    value-module, lattice, Lefschetz and series layers."""
    d4 = fam.ordinary_table(3, rng)
    b.add(d4, "series", *TABLE_SERIES)
    b.add(d4, "verify")
    b.add(fam.ordinary_table(4, rng), "series", *TABLE_SERIES, "--margin", "1")
    for k in range(4, 25, 2):
        case = fam.a_type_table(k, rng)
        b.add(case, "series", *TABLE_SERIES)
        if k % 4 == 0:
            b.add(case, "verify")
    for c in range(40, 121, 10):
        case = fam.semigroup_table(c, rng)
        b.add(case, "series", *TABLE_SERIES)
        b.add(case, "verify")
    e8 = fam.corpus_case(b.root, "abstract_e8")
    b.add(e8, "series", *TABLE_SERIES)
    b.add(e8, "verify")


def oracle(rng: random.Random, b: _OpList) -> None:
    """GF(p) point counts: the only workload doing mod-p arithmetic."""
    def count(case: fam.Case, q: int, level: int) -> None:
        b.add(case, "count", "--q", str(q), "--level", str(level), tag=f"_q{q}_l{level}")

    for name, q, level in [("cusp", 2, 4), ("cusp", 3, 6), ("node", 3, 3), ("tacnode", 3, 3),
                           ("tacnode", 3, 4), ("tacnode", 5, 3), ("e8", 5, 8), ("e8", 3, 5),
                           ("e8", 2, 7), ("semigroup345", 3, 5), ("semigroup345", 2, 7)]:
        count(fam.corpus_case(b.root, name), q, level)
    for (p, qq), q, level in [((2, 3), 3, 8), ((2, 3), 2, 11), ((3, 4), 5, 8), ((3, 4), 3, 9),
                              ((2, 5), 5, 7), ((2, 5), 3, 9), ((3, 5), 5, 8), ((3, 5), 3, 9),
                              ((2, 7), 5, 8), ((2, 7), 3, 9), ((4, 5), 5, 8), ((4, 5), 3, 9)]:
        count(fam.monomial_branch(p, qq, rng, primes=(q,)), q, level)
    for k, q, level in [(2, 3, 4), (2, 5, 3), (3, 3, 4), (3, 5, 3), (4, 3, 5), (4, 7, 3),
                        (6, 3, 4), (6, 5, 3), (8, 3, 4), (8, 3, 5), (8, 5, 3)]:
        count(fam.a_type(k, rng, primes=(q,)), q, level)
    for q, level in [(3, 2), (5, 2)]:
        count(fam.ordinary_point(3, rng, primes=(q,)), q, level)
    for q, level in [(3, 3), (5, 3), (5, 2), (7, 2)]:
        count(fam.glued_cusps(rng, primes=(q,)), q, level)


WORKLOADS = {"curves": curves, "tables": tables, "oracle": oracle}


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """The op list of one pass, its inputs written under workdir."""
    b = _OpList(root, workdir)
    WORKLOADS[workload](random.Random(f"{workload}:{seed}"), b)
    return b.ops


# -- known-defect probes --------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """An input singval is known to get wrong, and what it should do instead."""

    name: str
    argv: tuple[str, ...]
    correct_code: int
    correct: str


def probes(root: Path, workdir: Path) -> list[Probe]:
    b = _OpList(root, workdir)
    rng = random.Random(0)
    t9 = b.path(fam.monomial_branch(9, 11, rng), tag="_probe")
    a7 = fam.Case("A7_plain", fam.curve_doc([[{1: 1}, {1: 1}], [{4: 1}, {4: -1}]]),
                  fam.Facts(r=2, gamma=(4, 4)))
    return [
        Probe("info-conductor-80", ("info", t9), 0,
              "exit 0 with conductor [80] and delta 40 (a reduced plane branch)"),
        Probe("count-A7-bad-reduction-mod-2", ("count", b.path(a7), "--q", "2", "--level", "5"),
              2, "exit 2 with BadReduction: the branches (t, t^4) and (t, -t^4) "
                 "coincide mod 2"),
    ]
