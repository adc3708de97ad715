"""Seeded singval inputs whose answers are known in closed form.

Nothing here imports singval.  Every fact comes from the family's
definition: semigroup arithmetic for one-branch curves and numerical
semigroups, contact orders for the A_{2k-1} and glued-cusp pairs, and the
tangent-line count for ordinary r-fold points.  The seed only adds small
integer higher-order terms (curves) or picks generators (semigroups); the
terms keep the semigroup and the contact orders, so the facts hold for
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from math import gcd
from pathlib import Path

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Facts:
    """What a correct singval must report for one input.

    `members` is the value set inside the box [0, gamma]; outside the box
    membership follows the clip rule.  None marks a fact this family does
    not pin down.
    """

    r: int
    gamma: Vec
    delta: int | None = None
    members: frozenset[Vec] | None = None
    gorenstein: bool | None = None

    def member(self, v: Vec) -> bool:
        if any(x < 0 for x in v):
            return False
        return tuple(min(x, g) for x, g in zip(v, self.gamma)) in self.members


@dataclass(frozen=True)
class Case:
    """One input file: its name, its JSON document and its known answers."""

    name: str
    data: dict
    facts: Facts


# -- power series in the input format ------------------------------------------


def _series(terms: dict[int, int]) -> list[list[int]]:
    return [[e, c, 1] for e, c in sorted(terms.items()) if c]


def curve_doc(branch_gens: list[list[dict[int, int]]]) -> dict:
    """A plane curve file: the ring is generated by x and y, the maximal
    ideal by the same two elements, and plane curves are Gorenstein."""
    gens = [[_series(b) for b in g] for g in branch_gens]
    return {
        "field": "rational",
        "branches": len(branch_gens[0]),
        "ring_generators": gens,
        "ideals": {"max": gens},
        "canonical": "ring",
    }


def _units(rng: random.Random, n: int, primes: tuple[int, ...]) -> list[int]:
    """n small nonzero integers that stay units modulo every given prime."""
    pool = [c for c in range(-6, 7) if c and all(c % p for p in primes)]
    return [rng.choice(pool) for _ in range(n)]


# -- semigroup arithmetic ------------------------------------------------------


def semigroup_members(gens: tuple[int, ...], upto: int) -> list[int]:
    """Elements of the numerical semigroup <gens> in [0, upto]."""
    inside = [False] * (upto + 1)
    inside[0] = True
    for s in range(1, upto + 1):
        inside[s] = any(s >= g and inside[s - g] for g in gens)
    return [s for s in range(upto + 1) if inside[s]]


def semigroup_conductor(gens: tuple[int, ...]) -> int:
    """Smallest c with every integer >= c in <gens> (gcd must be 1)."""
    if gcd(*gens) != 1:
        raise ValueError(f"generators {gens} are not coprime")
    bound = min(gens) * max(gens)
    members = set(semigroup_members(gens, bound))
    c = bound
    while c > 0 and c - 1 in members:
        c -= 1
    return c


def _semigroup_facts(gens: tuple[int, ...]) -> Facts:
    c = semigroup_conductor(gens)
    return _r1_facts(c, semigroup_members(gens, c))


def _r1_facts(c: int, members: list[int]) -> Facts:
    """One axis: the members in [0, c]; delta counts the gaps below c."""
    delta = c - len(members) + 1
    return Facts(
        r=1,
        gamma=(c,),
        delta=delta,
        members=frozenset((s,) for s in members),
        # a numerical semigroup is symmetric exactly when half of [0, c)
        # is gaps (Kunz)
        gorenstein=2 * delta == c,
    )


# -- concrete curves -----------------------------------------------------------


def monomial_branch(p: int, q: int, rng: random.Random,
                    primes: tuple[int, ...] = ()) -> Case:
    """x = t^p + a t^(p+1), y = t^q + b t^(q+1) + c t^(q+2), gcd(p, q) = 1.

    Orders p and q with one characteristic exponent: the semigroup is
    <p, q> whatever the higher terms, so the conductor is (p-1)(q-1) and
    delta is half of it.
    """
    a, b, c = _units(rng, 3, primes)
    doc = curve_doc([[{p: 1, p + 1: a}], [{q: 1, q + 1: b, q + 2: c}]])
    return Case(f"t{p}_t{q}", doc, _semigroup_facts((p, q)))


def a_type(k: int, rng: random.Random, primes: tuple[int, ...] = ()) -> Case:
    """A_{2k-1}: two smooth branches y = x^k + ... and y = -x^k + ....

    Their difference has order k (2 stays a unit for odd primes), so the
    contact order is k, delta is k and the conductor is (k, k); the value
    set in the box is the diagonal.
    """
    a, b = _units(rng, 2, primes)
    doc = curve_doc([[{1: 1}, {1: 1}], [{k: 1, k + 1: a}, {k: -1, k + 1: b}]])
    facts = Facts(r=2, gamma=(k, k), delta=k,
                  members=frozenset((i, i) for i in range(k + 1)), gorenstein=True)
    return Case(f"A{2 * k - 1}", doc, facts)


def ordinary_members(r: int) -> frozenset[Vec]:
    """Value set of r lines through a point in the plane, inside [0, r-1]^r:
    the v with at most min(v) coordinates above min(v)."""
    return frozenset(
        v for v in product(range(r), repeat=r)
        if sum(1 for x in v if x > min(v)) <= min(v)
    )


def ordinary_point(r: int, rng: random.Random, primes: tuple[int, ...] = ()) -> Case:
    """r smooth branches y = s_i x + b_i x^2 with distinct slopes s_i.

    Pairwise transversal lines: delta = r(r-1)/2 and conductor (r-1, ..., r-1).
    Slopes are distinct modulo every given prime, and a zero slope stands
    for a branch with no linear term.
    """
    modulus = min(primes) if primes else 13
    slopes = rng.sample(range(modulus), r)
    bs = _units(rng, r, primes)
    doc = curve_doc([[{1: 1}] * r,
                      [{1: s, 2: b} for s, b in zip(slopes, bs)]])
    facts = Facts(r=r, gamma=(r - 1,) * r, delta=r * (r - 1) // 2,
                  members=ordinary_members(r), gorenstein=True)
    return Case(f"ordinary{r}", doc, facts)


def glued_cusps(rng: random.Random, primes: tuple[int, ...] = ()) -> Case:
    """Two cusps with transversal tangents: (t^2, t^3 + ...) and (s^3 + ..., s^2).

    Each cusp has delta 1 and conductor 2; transversal branches of
    multiplicity 2 meet with intersection number 4, so delta = 1 + 1 + 4 and
    the conductor is 2 + 4 on both branches.
    """
    a, b = _units(rng, 2, primes)
    doc = curve_doc([[{2: 1}, {3: 1, 4: a}], [{3: 1, 4: b}, {2: 1}]])
    return Case("glued_cusps", doc, Facts(r=2, gamma=(6, 6), delta=6, gorenstein=True))


# Corpus files are members of the families above.
CORPUS_FACTS = {
    "cusp": _semigroup_facts((2, 3)),
    "e8": _semigroup_facts((3, 5)),
    "abstract_e8": _semigroup_facts((3, 5)),
    "semigroup345": _semigroup_facts((3, 4, 5)),
    "node": Facts(r=2, gamma=(1, 1), delta=1,
                  members=frozenset({(0, 0), (1, 1)}), gorenstein=True),
    "tacnode": Facts(r=2, gamma=(2, 2), delta=2,
                     members=frozenset({(0, 0), (1, 1), (2, 2)}), gorenstein=True),
}


def corpus_case(root: Path, name: str) -> Case:
    doc = json.loads((root / "corpus" / f"{name}.json").read_text(encoding="utf-8"))
    return Case(name, doc, CORPUS_FACTS[name])


# -- abstract value-module tables ----------------------------------------------


def _table_doc(facts: Facts, rng: random.Random) -> dict:
    members = sorted(facts.members)
    rng.shuffle(members)  # the file lists members in no particular order
    return {"mode": "value-module", "r": facts.r, "gamma": list(facts.gamma),
            "members": [list(v) for v in members], "deg_offset": 0}


def ordinary_table(r: int, rng: random.Random) -> Case:
    facts = Facts(r=r, gamma=(r - 1,) * r, delta=r * (r - 1) // 2,
                  members=ordinary_members(r), gorenstein=True)
    return Case(f"ordinary{r}_table", _table_doc(facts, rng), facts)


def a_type_table(k: int, rng: random.Random) -> Case:
    facts = Facts(r=2, gamma=(k, k), delta=k,
                  members=frozenset((i, i) for i in range(k + 1)), gorenstein=True)
    return Case(f"A{2 * k - 1}_table", _table_doc(facts, rng), facts)


def semigroup_table(conductor: int, rng: random.Random, size: int = 10) -> Case:
    """<m, a, b> drawn by the seed, with every integer from the conductor on
    added, and `size` members in [0, conductor].

    A semigroup cut below c and filled in from c is again a semigroup; its
    conductor is exactly c when c - 1 is a gap, which the draw insists on.
    The member count is fixed too, because the table's cost grows with it.
    """
    while True:
        m = rng.randrange(max(2, conductor // 4), max(3, conductor // 2))
        gens = (m, *sorted(rng.sample(range(m + 1, 2 * m), 2)))
        members = semigroup_members(gens, conductor - 1)
        if members[-1] != conductor - 1 and len(members) + 1 == size:
            break
    facts = _r1_facts(conductor, members + [conductor])
    name = f"sg{conductor}_" + "_".join(map(str, gens))
    return Case(name, _table_doc(facts, rng), facts)
