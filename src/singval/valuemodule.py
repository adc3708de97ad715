"""Finitely determined value sets in Z^r and their duality combinatorics.

A ValueModule stores the membership table of a normalized value set on the
box [0, gamma], where gamma is the minimal conductor (v >= gamma lies in the
set, and membership anywhere is determined by clipping into the box).  From
that table alone it builds, once, the per-axis jump table and the staircase
codimension table on the box; every filtration count (partial and total
jump dimensions, codimension, degrees), the gap sets used by the symmetry
test and the self-duality criteria read those two tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod
from typing import Iterable

from .errors import EnumerationTooLarge, SingvalError
from .lattice import Vec, iter_box, vec_check


BOX_POINTS_MAX = 1 << 18  # points of [0, gamma] a module tabulates, about 270 bytes each


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no check, with the first counterexample if any."""

    ok: bool
    detail: str = ""
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


class ValueModule:
    """Normalized value set of a fractional ideal (or abstract input).

    `members` lists the set's points inside [0, gamma]; everything outside
    the box follows from the clip rule.  Every branch has residue degree
    d_i = 1, so the total degree d of the series formulas is r.
    `deg_offset` is the degree of the normalized ideal, used by deg_J.
    `ambient` optionally carries the ring's own value set for the module
    structure checks.  `_jumps[v][i]` is the partial jump c(v, i) and
    `_ell[v]` the codimension ell(v), both for v in [0, gamma].
    """

    __slots__ = ("r", "gamma", "members", "deg_offset", "ambient", "_jumps", "_ell")

    def __init__(
        self,
        r: int,
        gamma: Iterable[int],
        members: Iterable[Iterable[int]],
        deg_offset: int = 0,
        ambient: "ValueModule | None" = None,
    ):
        if not isinstance(r, int) or r < 1:
            raise SingvalError(f"branch count must be a positive integer, got {r!r}")
        self.r = r
        self.gamma = g = vec_check(gamma, r)
        if any(x < 0 for x in g):
            raise SingvalError(f"conductor exponent must be nonnegative, got {g}")
        if (points := prod(x + 1 for x in g)) > BOX_POINTS_MAX:
            raise EnumerationTooLarge(f"the box [0, {g}] holds {points} points, above the "
                                      f"value-module ceiling of {BOX_POINTS_MAX}")
        if not isinstance(deg_offset, int):
            raise SingvalError(f"deg_offset must be an integer, got {deg_offset!r}")
        self.deg_offset = deg_offset
        self.ambient = ambient
        self.members = mem = frozenset(vec_check(v, r) for v in members)
        for v in mem:
            if any(x < 0 for x in v) or any(x > gx for x, gx in zip(v, g)):
                raise SingvalError(f"member {v} falls outside the box [0, {g}]")
        # Reverse lex: some member w has w_i = v_i and w_j >= v_j (j != i)
        # exactly when v is a member or v + 1_j has such a w, for some j != i
        # with v_j < gamma_j.  Forward lex: ell(v) = ell(v - 1_k) +
        # c(v - 1_k, k), k the last nonzero coordinate of v; that is the
        # staircase raising coordinate 0 first, then 1, and so on.
        box = list(iter_box((0,) * r, g))
        self._jumps = jumps = {}
        for v in reversed(box):
            ups = [(j, jumps[v[:j] + (v[j] + 1,) + v[j + 1:]]) for j in range(r) if v[j] < g[j]]
            jumps[v] = tuple(int(v in mem or any(u[i] for j, u in ups if j != i))
                             for i in range(r))
        self._ell = ell = {box[0]: 0}
        for v in box[1:]:
            k = max(j for j in range(r) if v[j])
            w = v[:k] + (v[k] - 1,) + v[k + 1:]
            ell[v] = ell[w] + jumps[w][k]
        self._validate()

    # -- construction-time sanity ------------------------------------------

    def _validate(self) -> None:
        g = self.gamma
        if g not in self.members:
            raise SingvalError(f"the conductor point {g} must itself be a member")
        for i in range(self.r):
            if not any(v[i] == 0 for v in self.members):
                raise SingvalError(
                    f"not normalized: no member has coordinate {i} equal to 0")
        # closure under componentwise min, which every valued module satisfies.
        # A box point whose r jumps are all 1 is the min of one witness per
        # axis, and every jump at min(a, b) is 1 (a or b is the witness), so
        # the table is min-closed exactly when every such point is a member.
        mem = self.members
        for v, jumps in self._jumps.items():
            if all(jumps) and v not in mem:
                ws = sorted({min(w for w in mem if w[i] == v[i] and _geq(w, v))
                             for i in range(self.r)})
                raise SingvalError(f"not min-closed: {v} is the componentwise min of "
                                   f"the members {', '.join(map(str, ws))} but is not one")
        # gamma must be the *minimal* conductor: one step below it in any
        # coordinate, the jump in that coordinate is still zero (always, if gamma_i = 0)
        for i in range(self.r):
            probe = tuple(x - 1 if j == i else x for j, x in enumerate(g))
            if self.c_partial(probe, i) != 0:
                raise SingvalError(
                    f"conductor is not minimal: coordinate {i} jump at {probe} is nonzero")
        if self.ambient is not None:
            amb = self.ambient
            if amb.r != self.r:
                raise SingvalError("ambient value set has a different branch count")
            if any(a > b for a, b in zip(self.gamma, amb.gamma)):
                # a normalized module contains 0, hence the whole ambient set,
                # hence everything beyond the ambient conductor
                raise SingvalError(
                    f"module conductor {self.gamma} exceeds the ambient one {amb.gamma}")
            for s in amb.members:
                for v in self.members:
                    w = tuple(x + y for x, y in zip(s, v))
                    if not self.member(w):
                        raise SingvalError(
                            f"not a module over the ambient set: {s} + {v} = {w} is missing")

    # -- basic queries ------------------------------------------------------

    def member(self, v: Iterable[int]) -> bool:
        """Membership anywhere in Z^r, via clipping into the box."""
        v = vec_check(v, self.r)
        if any(x < 0 for x in v):
            return False
        return tuple(min(x, g) for x, g in zip(v, self.gamma)) in self.members

    def c_partial(self, v: Iterable[int], i: int) -> int:
        """Dimension jump in direction i: 0 or 1.

        Equals 1 exactly when some member w has w_i = v_i and w_j >= v_j for
        j != i.  Above gamma_i the jump is always 1, below 0 always 0;
        otherwise it is the jump table's entry at v clipped into the box.
        """
        v = vec_check(v, self.r)
        if not 0 <= i < self.r:
            raise SingvalError(f"branch index {i} out of range for r={self.r}")
        if v[i] < 0:
            return 0
        if v[i] >= self.gamma[i]:
            return 1
        return self._jumps[tuple(min(max(x, 0), g) for x, g in zip(v, self.gamma))][i]

    def c_total(self, v: Iterable[int]) -> int:
        """Total jump dim between v and v + 1, as a chain sum of partial jumps.

        The chain raises coordinate 0, then 1, and so on; on good tables any
        coordinate order gives the same value (a tested invariant).
        """
        v = vec_check(v, self.r)
        total = 0
        cur = list(v)
        for i in range(self.r):
            total += self.c_partial(tuple(cur), i)
            cur[i] += 1
        return total

    def ell(self, v: Iterable[int]) -> int:
        """Codimension of the v-th filtration step inside the whole module.

        Sum of partial jumps along the staircase from 0 up to max(v, 0),
        raising coordinate 0 first, then 1, and so on: the length table at
        v clipped into the box, plus one for every step above gamma.
        """
        v = vec_check(v, self.r)
        u, above = [], 0
        for x, g in zip(v, self.gamma):
            if x > g:
                above += x - g
                x = g
            u.append(x if x > 0 else 0)
        return self._ell[tuple(u)] + above

    def deg_J(self, v: Iterable[int]) -> int:
        """Degree of the v-th filtration step: deg_offset - ell(v)."""
        return self.deg_offset - self.ell(v)

    # -- gap sets and symmetry ----------------------------------------------

    def delta_nonempty(self, n: Iterable[int], i: int) -> bool:
        """Is there a member w with w_i = n_i and w_j > n_j for all j != i?

        Decided through one partial-jump query at n + 1_(everything but i).
        """
        n = vec_check(n, self.r)
        probe = tuple(x + (0 if j == i else 1) for j, x in enumerate(n))
        return self.c_partial(probe, i) == 1

    def delta_any(self, n: Iterable[int]) -> bool:
        n = vec_check(n, self.r)
        return any(self.delta_nonempty(n, i) for i in range(self.r))

    def is_symmetric(self) -> Verdict:
        """Does membership mirror gap-set emptiness around gamma - 1?

        Checks member(v) <=> no member sits strictly above tau - v off one
        matching coordinate, for all v in [-2, gamma + 2], with tau = gamma - 1.
        """
        tau = tuple(g - 1 for g in self.gamma)
        lo = (-2,) * self.r
        hi = tuple(g + 2 for g in self.gamma)
        for v in iter_box(lo, hi):
            inside = self.member(v)
            mirrored = not self.delta_any(tuple(t - x for t, x in zip(tau, v)))
            if inside != mirrored:
                return Verdict(
                    False,
                    f"at {v}: member={inside} but the mirrored gap test says {mirrored}",
                    v,
                )
        return Verdict(True, f"symmetric with center {tau}", tau)

    # -- self-duality criteria ----------------------------------------------

    def mirror(self, v: Vec, i: int | None = None) -> tuple[Vec, int]:
        """The point paired with v and its jump count there.

        Total form: gamma - v - 1 and c(gamma - v - 1).  With an axis i:
        gamma - v - 1_i and c(gamma - v - 1_i, i).  The count pairing adds
        this count to v's own (c(v), or c(v, i)).
        """
        g = self.gamma
        if i is None:
            w = tuple(gx - x - 1 for gx, x in zip(g, v))
            return w, self.c_total(w)
        w = tuple(gx - x - (1 if j == i else 0) for j, (gx, x) in enumerate(zip(g, v)))
        return w, self.c_partial(w, i)

    def self_dual_by_counts(self) -> Verdict:
        """Total-count pairing: c(v) + c(gamma - v - 1) = d for all v.

        Scanned over [-1, gamma]; both sides are stable outside.
        """
        d = self.r
        for v in iter_box((-1,) * self.r, self.gamma):
            w, cw = self.mirror(v)
            s = self.c_total(v) + cw
            if s != d:
                return Verdict(False, f"c{v} + c{w} = {s} != {d}", v)
        return Verdict(True, "count pairing is exact on the window")

    def self_dual_by_counts_percoord(self) -> Verdict:
        """Per-coordinate pairing: c(v,i) + c(gamma - v - 1_i, i) = 1 for all v, i."""
        for v in iter_box((-1,) * self.r, self.gamma):
            for i in range(self.r):
                w, cw = self.mirror(v, i)
                s = self.c_partial(v, i) + cw
                if s != 1:
                    return Verdict(False, f"c({v},{i}) + c({w},{i}) = {s} != 1", (v, i))
        return Verdict(True, "per-coordinate pairing is exact on the window")

    def self_dual_by_lengths(self) -> Verdict:
        """Length criterion: twice the codimension at gamma fills the whole box."""
        lhs = 2 * self.ell(self.gamma)
        rhs = sum(self.gamma)
        if lhs == rhs:
            return Verdict(True, f"2*{lhs // 2} = {rhs}")
        return Verdict(False, f"2*ell(gamma) = {lhs} != {rhs} = sum(gamma)")

    def self_dual_by_chain(self) -> Verdict:
        """Chain criterion along one saturated chain from 0 to gamma.

        The chain raises coordinate 0 gamma_0 times, then coordinate 1, and
        so on.  At every chain point the per-coordinate pairing must be exact.
        """
        order = [i for i in range(self.r) for _ in range(self.gamma[i])]
        cur = [0] * self.r
        for step, i in enumerate(order):
            v = tuple(cur)
            s = self.c_partial(v, i) + self.mirror(v, i)[1]
            if s != 1:
                return Verdict(
                    False,
                    f"step {step} (coordinate {i} at {v}): pairing gives {s} != 1",
                    (v, i),
                )
            cur[i] += 1
        return Verdict(True, "pairing exact along the chain")

    def is_good(self) -> Verdict:
        """The completion axiom that separates value sets from arbitrary
        min-closed tables.

        Whenever two members v != w share coordinate i, some member u must
        rise strictly above them there while holding the componentwise min
        everywhere else (exactly where v and w differ, at least the shared
        value where they agree).  Chain-order independence of the jump
        counts and the duality mirrors all rest on it; tables that fail it
        are outside the theory even when min-closed and normalized.

        Read off the jump table, where c(p, i) = 1 exactly when some member
        q has q_i = p_i and q >= p.  Let m = min(v, w), a member by
        min-closure.  A completing u exists exactly when c(m + 1_i, j) = 1
        for every j where v and w differ: u is a witness for each such j,
        and the min of one witness per j is a u.  A pair of members sharing
        coordinate i, with min m and differing at j, exists exactly when
        c(m + 1_j, i) = 1 (m and the witness).  So the axiom holds exactly
        when c(m + 1_j, i) <= c(m + 1_i, j) for every member m and axes
        i != j.  A member outside the box has the same two jumps as its clip
        into it, or a right-hand side of 1, so the box members suffice.
        """
        for m in self.members_sorted():
            ups = [tuple(x + (k == a) for k, x in enumerate(m)) for a in range(self.r)]
            for i, j in permutations(range(self.r), 2):
                if self.c_partial(ups[j], i) > self.c_partial(ups[i], j):
                    w = next(w for w in self.members_sorted()
                             if w[i] == m[i] and w[j] > m[j] and _geq(w, m))
                    return Verdict(
                        False,
                        f"members {m} and {w} share coordinate {i} "
                        "but nothing completes them above it",
                        (m, w, i),
                    )
        return Verdict(True, "completion axiom holds on the box")

    # -- dual, combinatorially ----------------------------------------------

    def dual_from_jump_profile(self) -> "ValueModule":
        """The dual as a ValueModule, built from the per-axis jump mirror.

        Members are the box points where every mirrored partial jump is 0;
        the degree offset follows from the staircase pairing
        (deg + sum(gamma) - 2 ell(gamma)).  This is derived data: checks that
        compare a module against its dual accept it only as a clearly
        labeled substitute for a concretely computed dual.
        """
        g = self.gamma
        members = [
            v for v in iter_box((0,) * self.r, g)
            if all(self.mirror(v, i)[1] == 0 for i in range(self.r))
        ]
        offset = self.deg_offset + sum(g) - 2 * self.ell(g)
        return ValueModule(self.r, g, members, deg_offset=offset, ambient=self.ambient)

    # -- plumbing -------------------------------------------------------------

    def members_sorted(self) -> list[Vec]:
        return sorted(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueModule):
            return NotImplemented
        return (
            self.r == other.r
            and self.gamma == other.gamma
            and self.members == other.members
            and self.deg_offset == other.deg_offset
        )

    def __hash__(self) -> int:
        return hash((self.r, self.gamma, self.members, self.deg_offset))

    def __repr__(self) -> str:
        return (
            f"ValueModule(r={self.r}, gamma={list(self.gamma)}, "
            f"{len(self.members)} box members, deg_offset={self.deg_offset})"
        )


def _geq(a: Vec, b: Vec) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def ring_like(vm: ValueModule) -> bool:
    """Does the box table contain 0 and close under clipped addition?"""
    z = (0,) * vm.r
    if z not in vm.members:
        return False
    for a in vm.members:
        for b in vm.members:
            if not vm.member(tuple(x + y for x, y in zip(a, b))):
                return False
    return True
