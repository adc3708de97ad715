"""Random finitely determined staircases for the property suites.

Constructions mirror where value sets actually come from: numerical
semigroups and min-closures of finitely many shifted copies of one
(modules over the semigroup), plus their two-branch analogues built on
wedges {0} u (S1+ x S2+).  Every candidate is normalized, given its
minimal conductor, and rejected unless the clip rule holds on a collar
around the box, so the suite only ever sees genuinely finitely
determined tables.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

from singval.errors import SingvalError
from singval.valuemodule import ValueModule

R1_BOUND = 48
R2_BOUND = 13
GAMMA_CAP = 6


def semigroup_table(rng: random.Random, bound: int) -> list[bool]:
    """Membership table on [0, bound] of a random numerical semigroup."""
    while True:
        k = rng.randint(1, 3)
        gens = rng.sample(range(2, 8), k)
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g == 1:
            break
    table = [False] * (bound + 1)
    table[0] = True
    for v in range(1, bound + 1):
        table[v] = any(v >= a and table[v - a] for a in gens)
    return table


def _r1_points(rng: random.Random) -> set[tuple[int, ...]]:
    sem = semigroup_table(rng, R1_BOUND)
    members = [v for v, ok in enumerate(sem) if ok]
    shifts = [rng.randint(0, 6) for _ in range(rng.randint(1, 3))]
    return {(s + v,) for s in shifts for v in members if s + v <= R1_BOUND}


def _wedge_points(rng: random.Random) -> set[tuple[int, ...]]:
    """{0} u (S1+ x S2+) on the two-branch box."""
    s1 = semigroup_table(rng, R2_BOUND)
    s2 = semigroup_table(rng, R2_BOUND)
    pos1 = [v for v in range(1, R2_BOUND + 1) if s1[v]]
    pos2 = [v for v in range(1, R2_BOUND + 1) if s2[v]]
    return {(0, 0)} | set(product(pos1, pos2))


def _r2_points(rng: random.Random) -> set[tuple[int, ...]]:
    wedge = _wedge_points(rng)
    shifts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    pts = {
        (a + x, b + y)
        for a, b in shifts
        for x, y in wedge
        if a + x <= R2_BOUND and b + y <= R2_BOUND
    }
    # close under componentwise min so the table is an honest module table
    changed = True
    while changed:
        changed = False
        for p in list(pts):
            for q in list(pts):
                m = (min(p[0], q[0]), min(p[1], q[1]))
                if m not in pts:
                    pts.add(m)
                    changed = True
    return pts


def _finish(r: int, pts: set[tuple[int, ...]], bound: int) -> ValueModule | None:
    """Normalize, certify the minimal conductor and the clip rule, or reject."""
    base = tuple(min(p[i] for p in pts) for i in range(r))
    pts = {tuple(x - b for x, b in zip(p, base)) for p in pts}
    cap = (bound - max(base) - 1,) * r
    if any(c < GAMMA_CAP + 2 for c in cap):
        return None

    # ok(g): the whole box [g, cap] lies inside, computed top-down
    ok: dict[tuple[int, ...], bool] = {}
    for g in sorted(product(*[range(c + 1) for c in cap]), reverse=True):
        if g not in pts:
            ok[g] = False
            continue
        ok[g] = all(
            ok.get(tuple(x + (1 if j == i else 0) for j, x in enumerate(g)), True)
            for i in range(r)
        )
    full = [g for g, good in ok.items() if good]
    if not full:
        return None
    gamma = tuple(min(g[i] for g in full) for i in range(r))
    if gamma not in ok or not ok[gamma] or any(x > GAMMA_CAP for x in gamma):
        return None
    for v in product(*[range(c + 1) for c in cap]):
        clipped = tuple(min(x, g) for x, g in zip(v, gamma))
        if (v in pts) != (clipped in pts):
            return None
    members = [v for v in pts if all(x <= g for x, g in zip(v, gamma))]
    try:
        vm = ValueModule(r, gamma, members)
    except SingvalError:
        return None
    # only value-set-like tables: the duality combinatorics need the
    # completion axiom, which random min-closures can miss
    if not vm.is_good():
        return None
    return vm


def random_modules(n: int, seed: int) -> list[ValueModule]:
    """n accepted staircases, alternating one and two branches."""
    rng = random.Random(seed)
    out: list[ValueModule] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 60 * n:
            raise RuntimeError("random staircase generator rejected too many candidates")
        if len(out) % 2 == 0:
            vm = _finish(1, _r1_points(rng), R1_BOUND)
        else:
            vm = _finish(2, _r2_points(rng), R2_BOUND)
        if vm is not None:
            out.append(vm)
    return out


def wedge(gens, conductor):
    """{0} u (S+ x S+) for the numerical semigroup S = <gens> of that conductor."""
    table = [True] + [False] * conductor
    for v in range(1, conductor + 1):
        table[v] = any(v >= a and table[v - a] for a in gens)
    pos = [v for v in range(1, conductor + 1) if table[v]]
    return ValueModule(2, (conductor, conductor), [(0, 0), *product(pos, pos)])
