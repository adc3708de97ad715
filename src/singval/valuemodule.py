"""Finitely determined value sets in Z^r and their duality combinatorics.

A ValueModule stores the membership table of a normalized value set on the
box [0, gamma], where gamma is the minimal conductor (v >= gamma lies in the
set, and membership anywhere is determined by clipping into the box).  All
filtration counts (partial and total jump dimensions, staircase codimension,
degrees), the gap sets used by the symmetry test, and the three self-duality
criteria are computed from that table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SingvalError
from .lattice import Vec, iter_box, vec_check


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
    structure checks.
    """

    __slots__ = ("r", "gamma", "members", "deg_offset", "ambient", "_ell_cache")

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
        self.gamma = vec_check(gamma, r)
        if any(x < 0 for x in self.gamma):
            raise SingvalError(f"conductor exponent must be nonnegative, got {self.gamma}")
        if not isinstance(deg_offset, int):
            raise SingvalError(f"deg_offset must be an integer, got {deg_offset!r}")
        self.deg_offset = deg_offset
        self.ambient = ambient
        pts = frozenset(vec_check(v, r) for v in members)
        self.members = pts
        self._ell_cache: dict[Vec, int] = {}
        self._validate()

    # -- construction-time sanity ------------------------------------------

    def _validate(self) -> None:
        g = self.gamma
        for v in self.members:
            if any(x < 0 for x in v) or any(x > gx for x, gx in zip(v, g)):
                raise SingvalError(f"member {v} falls outside the box [0, {g}]")
        if g not in self.members:
            raise SingvalError(f"the conductor point {g} must itself be a member")
        for i in range(self.r):
            if not any(v[i] == 0 for v in self.members):
                raise SingvalError(
                    f"not normalized: no member has coordinate {i} equal to 0")
        # closure under componentwise min, which every valued module satisfies
        mem = self.members
        for a in mem:
            for b in mem:
                m = tuple(min(x, y) for x, y in zip(a, b))
                if m not in mem:
                    raise SingvalError(
                        f"not min-closed: {a} and {b} are members but {m} is not")
        # gamma must be the *minimal* conductor: one step below it in any
        # coordinate, the jump in that coordinate is still zero
        for i in range(self.r):
            if g[i] == 0:
                continue
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
        j != i.  Coordinates are clipped into the box first; above gamma_i
        the jump is always 1, below 0 always 0.
        """
        v = vec_check(v, self.r)
        if not 0 <= i < self.r:
            raise SingvalError(f"branch index {i} out of range for r={self.r}")
        if v[i] < 0:
            return 0
        if v[i] >= self.gamma[i]:
            return 1
        need = tuple(min(max(x, 0), g) for x, g in zip(v, self.gamma))
        for w in self.members:
            if w[i] == v[i] and all(w[j] >= need[j] for j in range(self.r) if j != i):
                return 1
        return 0

    def c_total(self, v: Iterable[int], order: Sequence[int] | None = None) -> int:
        """Total jump dim between v and v + 1, as a chain sum of partial jumps.

        The chain raises one coordinate at a time; any coordinate order gives
        the same value (a tested invariant), default is 0..r-1.
        """
        v = vec_check(v, self.r)
        if order is None:
            order = range(self.r)
        else:
            if sorted(order) != list(range(self.r)):
                raise SingvalError(f"chain order must permute 0..{self.r - 1}, got {order!r}")
        total = 0
        cur = list(v)
        for i in order:
            total += self.c_partial(tuple(cur), i)
            cur[i] += 1
        return total

    def ell(self, v: Iterable[int]) -> int:
        """Codimension of the v-th filtration step inside the whole module.

        Sum of partial jumps along the staircase from 0 up to max(v, 0),
        raising coordinate 0 first, then 1, and so on.
        """
        v = vec_check(v, self.r)
        u = tuple(max(x, 0) for x in v)
        if u in self._ell_cache:
            return self._ell_cache[u]
        total = 0
        cur = [0] * self.r
        for i in range(self.r):
            for k in range(u[i]):
                cur[i] = k
                total += self.c_partial(tuple(cur), i)
            cur[i] = u[i]
        self._ell_cache[u] = total
        return total

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

    def self_dual_by_chain(self, order: Sequence[int] | None = None) -> Verdict:
        """Chain criterion along one saturated chain from 0 to gamma.

        `order` lists the coordinate raised at each step (coordinate i must
        appear exactly gamma_i times); default raises coordinate 0 first.
        At every chain point the per-coordinate pairing must be exact.
        """
        g = self.gamma
        if order is None:
            order = [i for i in range(self.r) for _ in range(g[i])]
        counts = [0] * self.r
        for i in order:
            if not 0 <= i < self.r:
                raise SingvalError(f"chain step index {i} out of range")
            counts[i] += 1
        if counts != list(g):
            raise SingvalError(
                f"chain must raise coordinate i exactly gamma_i times; got {counts} vs {list(g)}")
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

    def pairing_report(self) -> list[tuple[Vec, int, int]]:
        """Pointwise excess of the count pairing over d, where positive.

        Returns (v, c(v) + c(gamma-v-1), d) for every window point where the
        sum exceeds d.  Empty for rings and self-dual modules; general
        modules can genuinely exceed the bound.
        """
        d = self.r
        out = []
        for v in iter_box((-1,) * self.r, self.gamma):
            s = self.c_total(v) + self.mirror(v)[1]
            if s > d:
                out.append((v, s, d))
        return out

    def is_good(self) -> Verdict:
        """The completion axiom that separates value sets from arbitrary
        min-closed tables.

        Whenever two members v != w share coordinate i, some member u must
        rise strictly above them there while holding the componentwise min
        everywhere else (exactly where v and w differ, at least the shared
        value where they agree).  Chain-order independence of the jump
        counts and the duality mirrors all rest on it; tables that fail it
        are outside the theory even when min-closed and normalized.
        """
        hi = tuple(g + 2 for g in self.gamma)
        pts = [v for v in iter_box((0,) * self.r, hi) if self.member(v)]
        for v in pts:
            for w in pts:
                if v == w:
                    continue
                shared = [i for i in range(self.r) if v[i] == w[i] and v[i] <= self.gamma[i]]
                for i in shared:
                    if any(
                        u[i] > v[i]
                        and all(
                            u[j] == min(v[j], w[j]) if v[j] != w[j] else u[j] >= v[j]
                            for j in range(self.r)
                            if j != i
                        )
                        for u in pts
                    ):
                        continue
                    return Verdict(
                        False,
                        f"members {v} and {w} share coordinate {i} "
                        "but nothing completes them above it",
                        (v, w, i),
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
