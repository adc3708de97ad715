"""Jet-space linear algebra over the branch model.

Everything here reduces questions about fractional ideals (membership,
conductors, colon ideals, quotient dimensions, value sets) to exact rank
computations on truncations.  The correctness backbone: if an ideal's
generator module G contains the full monomial band t^m * (product of power
series rings), then truncating at N = m + (order of a nonzerodivisor) loses
nothing -- membership, dimensions and colon systems at that precision are
exact, not approximate.  Conductor bounds are always *certified* by checking
band containment at jet level before they are used.  One row space
(RowSpaceQ) and one jet closure (JetSpace) serve both the rationals and,
for the counting oracle, the prime fields.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, product as iter_product
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Sequence, TypeVar

from .curve import (
    BranchSeries,
    CurvePresentation,
    Element,
    FracIdeal,
    common_shift,
    el_one,
    el_shift,
    el_unit_monomial,
    ideal_product,
    monomial_scale,
    ring_ideal,
)
from .errors import (
    BadReduction,
    BoundSearchExceeded,
    ClipRuleViolation,
    EnumerationTooLarge,
    NotContained,
    SingvalError,
)
from .lattice import Vec, vec_add, vec_check, vec_max, vec_neg, vec_sub
from .valuemodule import ValueModule, Verdict

_ZERO = Fraction(0)
_denominator = attrgetter("denominator")
# the conductor search climbs at most this far above the minimal orders
CONDUCTOR_CLIMB = 128
# value_set checks the clip rule this far above the conductor box
CLIP_COLLAR = 4
# the GF(p) oracle packs at most this many jets into one int
_MAX_SLOTS = 1024

T = TypeVar("T")


# -- exact row reduction ------------------------------------------------------


class RowSpaceQ:
    """A row space kept in reduced echelon form, over GF(p) with monic rows
    of ints in [0, p) when a prime p is given, else over the rationals with
    primitive integer rows (gcd 1, positive pivot).

    Column order is fixed by the caller; pivots are the first nonzero
    columns, so echelon rows sort by leading column and every question
    (rank, membership, residual) is a single reduction pass.  The reduced
    echelon form of a span is unique, so the rows do not depend on the
    order in which a span is added.  Over Q a query row is scaled to
    integers once; clearing an entry c with pivot d multiplies it by
    d / gcd(c, d), and its content is divided out again (fraction-free
    elimination, Bareiss, Math. Comp. 22, 1968).
    """

    __slots__ = ("ncols", "p", "rows", "pivots")

    def __init__(self, ncols: int, p: int = 0):
        self.ncols = ncols
        self.p = p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: Sequence) -> tuple[list[int], int, int]:
        """(v, num, den): the integer vector v that vanishes on every pivot column,
        with num/den * v in row + span (1 mod p).  Rows are zero before their
        pivot, so clearing pivot pc by a unit step leaves v[:pc] alone."""
        if len(row) != self.ncols:
            raise SingvalError(f"row has {len(row)} entries, space has {self.ncols} columns")
        p = self.p
        v, den = _integral(row)
        num = 1
        for pc, r in zip(self.pivots, self.rows):
            c = v[pc] % p if p else v[pc]
            if c:
                g = gcd(c, r[pc])
                c, d = c // g, r[pc] // g
                if d == 1:
                    v[pc:] = [a - c * b for a, b in zip(v[pc:], r[pc:])]
                    continue
                v = [d * a - c * b for a, b in zip(v, r)]
                g = gcd(*v)
                v = [a // g for a in v]
                num, den = num * g, den * d
        return [x % p for x in v] if p else v, num, den

    def residual(self, row: Sequence) -> list:
        v, num, den = self._reduce(row)
        s = Fraction(num, den)
        return v if s == 1 else [s * x if x else 0 for x in v]

    def contains(self, row: Sequence) -> bool:
        return not any(self._reduce(row)[0])

    def copy(self) -> RowSpaceQ:
        out = RowSpaceQ(self.ncols, self.p)
        out.rows = [list(r) for r in self.rows]
        out.pivots = list(self.pivots)
        return out

    def add(self, row: Sequence) -> bool:
        """Insert a row; returns True when the rank grew."""
        v = self._reduce(row)[0]
        pc = next(compress(count(), v), None)
        if pc is None:
            return False
        p = self.p
        s = pow(v[pc], -1, p) if p else (gcd(*v) if v[pc] > 0 else -gcd(*v))
        v = [c * s % p for c in v] if p else [c // s for c in v]
        for k, r in enumerate(self.rows):
            c = r[pc]
            if c and p:
                self.rows[k] = [(a - c * b) % p for a, b in zip(r, v)]
            elif c:
                g = gcd(c, v[pc])
                c, d = c // g, v[pc] // g
                r = [d * a - c * b for a, b in zip(r, v)]
                g = gcd(*r)
                self.rows[k] = [a // g for a in r] if g > 1 else r
        k = bisect_left(self.pivots, pc)
        self.rows.insert(k, v)
        self.pivots.insert(k, pc)
        return True


def _integral(row: Sequence) -> tuple[list[int], int]:
    """(den * row, den) for the least common denominator den of row."""
    den = lcm(*map(_denominator, row))
    if den == 1:
        return list(map(int, row)), 1
    return [x.numerator * (den // x.denominator) for x in row], den


# -- jets ---------------------------------------------------------------------


def _reduce(c: Fraction, p: int, nonzero: bool = False) -> int:
    """c mod p.  With nonzero, a nonzero c that vanishes mod p raises too: a
    ring generator losing a term would silently change the curve."""
    if c.denominator % p == 0:
        raise BadReduction(f"coefficient {c} has denominator divisible by {p}")
    v = c.numerator * pow(c.denominator, -1, p) % p
    if nonzero and c and not v:
        raise BadReduction(
            f"nonzero coefficient {c} vanishes mod {p}; the reduction would "
            "change the curve")
    return v


@dataclass(frozen=True)
class JetLayout:
    """Branch-major coordinates for the truncation at N: column (i, e) with
    0 <= e < N_i sits at offset_i + e.  Element rows hold the exact
    coefficients, or ints mod p when a prime p is passed."""

    N: Vec

    @property
    def r(self) -> int:
        return len(self.N)

    @property
    def offsets(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for n in self.N:
            out.append(acc)
            acc += n
        return tuple(out)

    @property
    def ncols(self) -> int:
        return sum(self.N)

    def element_row(self, z: Element, p: int = 0) -> list:
        """The coefficients of z below N, reduced mod p when p is given."""
        row: list = [0] * self.ncols
        for base, n, x in zip(self.offsets, self.N, z):
            for e, c in x.coeffs.items():
                if e < n:
                    row[base + e] = _reduce(c, p) if p else c
        return row

    def times(self, row: Sequence, gen: Sequence[Sequence[tuple]], p: int = 0) -> list:
        """The row of the product of row's element with gen, truncated at N.

        gen holds one list of (exponent, coefficient) pairs per branch, all
        exponents nonnegative; only the products below N are formed.
        """
        out: list = [0] * self.ncols
        for base, n, terms in zip(self.offsets, self.N, gen):
            for e, c in terms:
                for k in range(base, base + n - e):
                    a = row[k]
                    if a:
                        out[k + e] += c * a
        return [x % p for x in out] if p else out


class JetSpace:
    """Row-reduced image of a generator module inside the truncation at N,
    over the rationals or, when a prime p is given, over GF(p).

    Built by closing the generator rows under multiplication by the curve's
    algebra generators.  Dropping rows that do not grow the rank is sound:
    truncation commutes with multiplication by elements of nonnegative
    order, so a dependent truncated element contributes nothing new.  Over
    Q every row and every algebra generator is scaled to integers by one
    common denominator for the whole element, which changes no span.  Mod p
    every generator coefficient below N must reduce to a nonzero residue,
    or BadReduction is raised.
    """

    __slots__ = ("layout", "space", "mults", "cuts")

    def __init__(self, curve: CurvePresentation, gens: Sequence[Element], N: Vec, p: int = 0):
        N = vec_check(N, curve.r)
        if any(n < 1 for n in N):
            raise SingvalError(f"jet precision must be positive on every branch, got {N}")
        self.layout = JetLayout(N)
        self.space = RowSpaceQ(self.layout.ncols, p)
        self.mults = []
        for m in curve.gens:
            d = 1 if p else lcm(*(c.denominator for x in m for c in x.coeffs.values()))
            self.mults.append([[(e, _reduce(c, p, nonzero=True) if p else int(c * d))
                                for e, c in x.coeffs.items() if e < n] for x, n in zip(m, N)])
        self.cuts: dict[Vec, int] | None = None  # filled by cut_table
        self.extend(gens)

    def extend(self, gens: Sequence[Element]) -> bool:
        """Add the jets of gens and close the span again under the curve's
        algebra generators; True when the rank grew."""
        layout, space, p = self.layout, self.space, self.space.p
        rows = (_integral(layout.element_row(g, p))[0] for g in gens)
        queue = [row for row in rows if space.add(row)]
        grew = bool(queue)
        if grew:
            self.cuts = None
        while queue:
            x = queue.pop()
            for m in self.mults:
                y = layout.times(x, m, p)
                if space.add(y):
                    queue.append(y)
        return grew

    def copy(self) -> JetSpace:
        """A private copy to extend: the spans jet_span hands out are shared."""
        out = object.__new__(JetSpace)
        out.layout, out.mults, out.cuts = self.layout, self.mults, self.cuts
        out.space = self.space.copy()
        return out

    @property
    def rank(self) -> int:
        return self.space.rank

    def contains_element(self, z: Element) -> bool:
        return self.space.contains(self.layout.element_row(z))

    def has_unit(self, i: int, e: int) -> bool:
        """Does the span hold t_i^e?  In reduced echelon form, exactly when
        (i, e) is a pivot whose row has no other nonzero entry."""
        j = self.layout.offsets[i] + e
        k = bisect_left(self.space.pivots, j)
        return j in self.space.pivots[k:k + 1] and not any(self.space.rows[k][j + 1:])

    def cut_table(self) -> dict[Vec, int]:
        """dim_at_least at every w in [0, N], built on the first request."""
        if self.cuts is None:
            self.cuts = _cut_dims(self.space, self.layout)
        return self.cuts

    def dim_at_least(self, w: Vec) -> int:
        """Dimension of the subspace of the span supported on columns (i, e)
        with e >= w_i, read from the cut table; negative w_i cut nothing."""
        w = vec_check(w, self.layout.r)
        if any(x > n for x, n in zip(w, self.layout.N)):
            raise SingvalError(f"support cut {w} exceeds the jet precision {self.layout.N}")
        return self.cut_table()[tuple(max(0, x) for x in w)]


def _cut_dims(space: RowSpaceQ, layout: JetLayout) -> dict[Vec, int]:
    """dim_at_least for every w in [0, N], from one walk over the echelon form.

    In a reduced echelon form whose columns start with branch k, the rows
    pivoting at (k, e >= w_k) or later span exactly the vectors that vanish
    on branch k below w_k.  So walk w_k down from N_k, feeding each row that
    enters into a second echelon space with the columns rotated to put
    branch k + 1 first, and recurse there; at the last branch the dimension
    is the number of pivots at or after (r - 1, w_{r-1}).
    """
    N, r = layout.N, layout.r
    out: dict[Vec, int] = {}

    def walk(sp: RowSpaceQ, k: int, prefix: Vec) -> None:
        n = N[k]
        if k == r - 1:
            for w in range(n + 1):
                out[prefix + (w,)] = sp.rank - bisect_left(sp.pivots, w)
            return
        nxt = RowSpaceQ(sp.ncols, sp.p)
        j = sp.rank
        for w in range(n, -1, -1):
            while j and sp.pivots[j - 1] >= w:
                j -= 1
                row = sp.rows[j]
                nxt.add(row[n:] + row[:n])
            walk(nxt, k + 1, prefix + (w,))

    walk(space, 0, ())
    return out


def _memo(curve: CurvePresentation, key: tuple, build: Callable[[], T]) -> T:
    """curve.memo[key], built on the first request.  A build that raises
    leaves no entry."""
    memo = curve.memo
    if key not in memo:
        memo[key] = build()
    return memo[key]  # type: ignore[return-value]


def _jets(curve: CurvePresentation, gens: Sequence[Element], N: Vec, p: int = 0) -> JetSpace:
    """The curve's one jet span of gens at N over Q, or GF(p) when p is given.

    The span is shared by every caller: extend only a copy of it.
    """
    gens, N = tuple(gens), tuple(N)
    return _memo(curve, ("jets", gens, N, p), lambda: JetSpace(curve, gens, N, p))


def jet_span(a: FracIdeal, N: Vec) -> JetSpace:
    """Jets of the generator module of a (the monomial shift is ignored here;
    callers rebase to a common shift before comparing two ideals)."""
    return _jets(a.curve, a.gens, N)


# -- certified conductors -----------------------------------------------------


def _band_contained(a: FracIdeal, m: Vec) -> JetSpace | None:
    """The span certifying that the generator module contains every element
    of order >= m, or None when it does not.

    Checked at jets of precision m + p, where p is the order vector of the
    curve's distinguished nonzerodivisor: if the one band of monomials
    [m, m + p) lies in the truncated span, successive approximation by
    powers of the nonzerodivisor lifts the containment to the full module.
    """
    m = vec_check(m, a.r)
    if any(x < 0 for x in m):
        return None
    space = jet_span(a, vec_add(m, a.curve.z0_order))
    units = (space.has_unit(i, e) for i, n in enumerate(space.layout.N) for e in range(m[i], n))
    return space if all(units) else None


def _gen_conductor(a: FracIdeal) -> Vec:
    """Minimal m with t^m * (full product ring) inside the generator module.

    Climb the diagonal by doubling steps until a band hi is certified, then
    read the minimum off the certifying span at N = hi + p.  For m <= hi,
    t^m * full lies in the module exactly when every unit (i, e) with
    m_i <= e < N_i lies in that span: a jet matching t_i^e below N differs
    from it by an element of order >= N >= hi, which the module holds.  The
    condition splits by axis, so each coordinate is the foot of its run of
    units below hi_i.  The curve's memo holds one search per generator tuple.
    """
    if a._cond is None:
        a._cond = _memo(a.curve, ("cond", a.gens), lambda: _climb_conductor(a))
    return a._cond


def _climb_conductor(a: FracIdeal) -> Vec:
    k = 0
    while k <= CONDUCTOR_CLIMB:
        hi = tuple(x + k for x in a.vmin)
        space = _band_contained(a, hi)
        if space is not None:
            break
        k = 2 * k if k else 1
    else:
        raise BoundSearchExceeded(
            f"no full monomial band found up to {tuple(x + CONDUCTOR_CLIMB for x in a.vmin)}, "
            f"the climb ceiling of {CONDUCTOR_CLIMB} above the minimal orders: either the "
            "conductor lies higher, or two branches coincide and the curve is not reduced")
    out = []
    for i, e in enumerate(hi):
        while e and space.has_unit(i, e - 1):
            e -= 1
        out.append(e)
    return tuple(out)


# -- membership, containment, dimensions --------------------------------------


def contains_module(a: FracIdeal, b: FracIdeal) -> bool:
    """Is b inside a?  Every generator of b is tested on one jet span of a,
    taken at a's certified conductor, where membership is decided exactly."""
    d = vec_sub(a.shift, b.shift)
    for g in b.gens:
        for i, x in enumerate(g):
            if x.coeffs and min(x.coeffs) + d[i] < 0:
                # the generator has a pole the module cannot reach
                return False
    space = jet_span(a, vec_max(_gen_conductor(a), (1,) * a.r))
    return all(space.contains_element(el_shift(g, d)) for g in b.gens)


def _index(a: FracIdeal, b: FracIdeal) -> int:
    """Signed length l(a/c) - l(b/c), for any c inside both.

    Past the larger certified conductor N both modules contain every
    element, so the difference of their jet ranks at N is the answer; it
    is checked again two steps higher.  Equal generators give 0 at once.
    """
    a2, b2 = common_shift(a, b)
    if a2.gens == b2.gens:
        return 0
    N = vec_max(vec_max(_gen_conductor(a2), _gen_conductor(b2)), (1,) * a.r)
    dim = jet_span(a2, N).rank - jet_span(b2, N).rank
    collar = tuple(n + 2 for n in N)
    again = jet_span(a2, collar).rank - jet_span(b2, collar).rank
    if dim != again:
        raise SingvalError(
            f"quotient dimension did not stabilize: {dim} at {N} vs {again} at {collar}")
    return dim


def dim_quotient(a: FracIdeal, b: FracIdeal) -> int:
    """Length of a/b (equal to the k-dimension here).  b must sit inside a."""
    if not contains_module(a, b):
        raise NotContained("the second module is not contained in the first")
    return _index(a, b)


def degree(a: FracIdeal) -> int:
    """Degree normalized so the ring itself has degree 0."""
    return _index(a, ring_ideal(a.curve))


# -- distinguished ideals -------------------------------------------------------


def max_ideal(curve: CurvePresentation) -> FracIdeal:
    """The maximal ideal: every ring element without constant term is a
    series in the algebra generators, so they generate it as a module."""
    return FracIdeal(curve, curve.gens)


# -- colon ideals ---------------------------------------------------------------


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the given constraint matrix."""
    sp = RowSpaceQ(ncols)
    for row in rows:
        if any(row):
            sp.add(row)
    pivot_set = set(sp.pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for pc, r in zip(sp.pivots, sp.rows):
            v[pc] = Fraction(-r[f], r[pc])
        basis.append(v)
    return basis


def colon(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """The transporter {x : x*b inside a}, computed exactly.

    Any such x has order at least vmin(a) - vmin(b), because a generic
    combination of b's generators has order exactly vmin(b) on every
    branch, and everything of order at least cond(a) - vmin(b) belongs
    outright.  In between, membership of x*g_j in a is a finite linear
    system on jet residuals; its nullspace plus the guaranteed tail band
    generate the transporter.

    A nullspace element is kept as a generator only when its jet at
    N = hi + p (hi the foot of the tail band, p the order vector of the
    curve's nonzerodivisor) is not already in the closed jet span of the
    band and of the elements kept before it.  Dropping it is exact: the
    band puts every element of order >= hi inside the module, and an
    element whose jet below N lies in the span differs from a module
    element by something of order >= N >= hi.  So the kept elements and
    the band generate the same module as the whole nullspace, with one
    generator per element that grows the span instead of one per nullspace
    vector.

    The curve's memo holds one result per pair of generator tuples and
    shifts, so a repeated colon, and with it a repeated dual, is free.
    """
    if a.curve is not b.curve:
        raise SingvalError("colon of ideals over different curve presentations")
    return _memo(a.curve, ("colon", a.gens, a.shift, b.gens, b.shift), lambda: _colon(a, b))


def _colon_candidates(
    a: FracIdeal, b: FracIdeal
) -> tuple[list[Element], list[Element], Vec, Vec]:
    """The nullspace elements, the tail band, the common shift neg and the
    band's top hi of colon(a, b), all in the frame shifted by neg."""
    a2, b2 = common_shift(a, b)
    curve = a.curve
    r = curve.r
    conda = _gen_conductor(a2)
    xlo = vec_sub(a2.vmin, b2.vmin)
    xhi = vec_sub(conda, b2.vmin)  # from here on, x*b lands beyond cond(a)
    neg = tuple(max(0, -x) for x in xlo)
    lo = vec_add(xlo, neg)
    hi = vec_add(xhi, neg)
    a_shift = FracIdeal(curve, [el_shift(g, neg) for g in a2.gens]) if any(neg) else a2
    M = vec_add(conda, neg)
    M = vec_max(M, (1,) * r)
    space = jet_span(a_shift, M)
    layout = space.layout
    unknowns = [(i, e) for i in range(r) for e in range(lo[i], max(lo[i], hi[i]))]
    sol_rows: list[list[Fraction]] = []
    if unknowns:
        g_rows = [layout.element_row(g) for g in b2.gens]
        cols: list[list[Fraction]] = []
        for (i, e) in unknowns:
            base, n = layout.offsets[i], layout.N[i]
            stacked: list[Fraction] = []
            for g_row in g_rows:  # t_i^e * g: branch i of g's row, moved up by e
                w = [0] * layout.ncols
                w[base + e:base + n] = g_row[base:base + n - e]
                stacked.extend(space.space.residual(w))
            cols.append(stacked)
        sol_rows = _nullspace(list(zip(*cols)), len(unknowns))
    found: list[Element] = []
    for v in sol_rows:
        terms: list[dict[int, Fraction]] = [{} for _ in range(r)]
        for coeff, (i, e) in zip(v, unknowns):
            terms[i][e] = coeff
        found.append(tuple(BranchSeries(t) for t in terms))
    tail = [el_unit_monomial(r, i, hi[i] + e)
            for i in range(r) for e in range(curve.z0_order[i])]
    return found, tail, neg, hi


def _colon(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """colon(a, b) with the pruned generators, re-verified."""
    found, tail, neg, hi = _colon_candidates(a, b)
    curve = a.curve
    span = _jets(curve, tail, vec_add(hi, curve.z0_order)).copy()
    out = FracIdeal(curve, [z for z in found if span.extend([z])] + tail, neg)
    if not contains_module(a, ideal_product(out, b)):
        raise SingvalError("internal: the computed transporter fails re-verification")
    return out


def dual(b: FracIdeal, c: FracIdeal) -> FracIdeal:
    """Dual with respect to the supplied canonical ideal: c : b."""
    return colon(c, b)


def normalize_ideal(b: FracIdeal) -> FracIdeal:
    """Scale by a monomial so the minimal value vector becomes zero."""
    return monomial_scale(b, vec_neg(b.values_offset()))


def self_dual_direct(b: FracIdeal, canonical: FracIdeal) -> tuple[str, str]:
    """Module-level self-duality: is b isomorphic to its dual b* = c : b?

    Returns ("yes", why) or ("no", why), decided exactly.  After both are
    normalized to minimal value zero, every x in T = b* : b has v(x) >= 0,
    and an isomorphism is a multiplier in T of value zero.  A generic x in
    T has value vmin(T) and deg(x b) = deg(b) - |v(x)|, so once the degrees
    agree, b is isomorphic to b* exactly when vmin(T) = 0.  The value set
    is coarser: equal normalized value sets do not force an isomorphism.
    """
    bn = normalize_ideal(b)
    sn = normalize_ideal(dual(b, canonical))
    vb = value_set(bn)
    vs = value_set(sn)
    if vb.gamma != vs.gamma or vb.members != vs.members:
        return ("no", "normalized value sets differ")
    if vb.deg_offset != vs.deg_offset:
        return ("no", "normalized degrees differ")
    if any(colon(sn, bn).values_offset()):
        return ("no", "no transporter of value zero")
    return ("yes", "a transporter of value zero carries the module onto its dual")


def ideal_type(b: FracIdeal) -> int:
    """The type of b: the length of (b : m)/b, the socle of Q/b."""
    return dim_quotient(colon(b, max_ideal(b.curve)), b)


def verify_canonical(c: FracIdeal) -> Verdict:
    """Is c a canonical ideal?  Exactly when its type is 1: a rank-one
    maximal Cohen-Macaulay module of type 1 is canonical (Herzog-Kunz)."""
    t = ideal_type(c)
    if t == 1:
        return Verdict(True, "type 1")
    return Verdict(False, f"type {t}; a canonical ideal has type 1", witness=(t,))


# -- value sets -----------------------------------------------------------------


def value_set(b: FracIdeal) -> ValueModule:
    """Extract the normalized value set of b as a ValueModule.

    Normalizes by the minimal order vector, certifies the conductor, fills
    the membership table on [0, gamma] through jet dimension jumps, and
    verifies the clip rule on a collar of width CLIP_COLLAR before trusting
    the box; the cut table is read at w = v + svec, inside [0, N] for every
    v in the box.  The module's deg_offset is the degree of the normalized ideal.
    """
    bn = normalize_ideal(b)
    r = bn.r
    svec = bn.vmin  # equals bn.shift componentwise after normalization
    gamma = vec_sub(_gen_conductor(bn), svec)
    top = tuple(g + CLIP_COLLAR for g in gamma)
    N = vec_add(vec_add(top, svec), (2,) * r)
    cuts = jet_span(bn, N).cut_table()
    members = []
    table: dict[Vec, bool] = {}
    for v in iter_product(*[range(0, t + 1) for t in top]):
        w = vec_add(v, svec)
        table[v] = all(cuts[w] - cuts[w[:i] + (w[i] + 1,) + w[i + 1:]] == 1 for i in range(r))
        if table[v] and all(x <= g for x, g in zip(v, gamma)):
            members.append(v)
    for v, got in table.items():
        clipped = tuple(min(x, g) for x, g in zip(v, gamma))
        if got != table[clipped]:
            raise ClipRuleViolation(
                f"extracted membership at {v} is {got} but the box value at {clipped} "
                f"is {table[clipped]}")
    offset = degree(bn)
    return ValueModule(r, gamma, members, deg_offset=offset)


# -- length bookkeeping -----------------------------------------------------------


@dataclass(frozen=True)
class LengthsReport:
    inside: int  # length of b / (b : full module)
    total: int  # length of b*full / (b : full module)
    outside: int  # length of b*full / b
    doubled_equals_total: bool
    doubled_leq_total: bool
    dual_match: bool | None  # length of (dual*full)/dual == inside, when canonical given


def _trace_lengths(b: FracIdeal) -> tuple[int, int]:
    """(inside, total) for b, read in its generator frame, where
    b : full = t^cond * full and b * full = t^vmin * full are monomial."""
    cond = _gen_conductor(b)
    N = vec_max(cond, (1,) * b.r)
    inside = jet_span(b, N).rank - sum(n - c for n, c in zip(N, cond))
    return inside, sum(c - v for c, v in zip(cond, b.vmin))


def lengths_report(b: FracIdeal, canonical: FracIdeal | None = None) -> LengthsReport:
    """The three lengths tying b to its trace inside the full module."""
    inside, total = _trace_lengths(b)
    dual_match = None
    if canonical is not None:
        d_inside, d_total = _trace_lengths(dual(b, canonical))
        dual_match = d_total - d_inside == inside
    return LengthsReport(
        inside=inside,
        total=total,
        outside=total - inside,
        doubled_equals_total=2 * inside == total,
        doubled_leq_total=2 * inside <= total,
        dual_match=dual_match,
    )


def gorenstein_by_lengths(curve: CurvePresentation) -> bool:
    """Does the ring's conductor quotient split in half exactly?"""
    return lengths_report(ring_ideal(curve)).doubled_equals_total


# -- finite-field counting oracle --------------------------------------------------


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (the least strong pseudoprime to all of them; Sorenson and Webster,
# Math. Comp. 86 (2017)).  Bases up to 37 alone are exact only below
# 318665857834031151167461, which they pass although it is composite.
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for n < PRIME_TEST_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modp_jet_basis(curve: CurvePresentation, p: int, N: Vec) -> tuple[list[list[int]], JetLayout]:
    """Row basis of the curve ring's jets at N over the prime field."""
    space = _jets(curve, [el_one(curve.r)], N, p)
    return space.space.rows, space.layout


def _modp_precision(curve: CurvePresentation, p: int, level: int | Vec) -> Vec:
    """Truncation N = level + 1 of the GF(p) oracle, after the prime check."""
    if p >= PRIME_TEST_LIMIT:
        raise EnumerationTooLarge(
            f"q = {p} is at or above {PRIME_TEST_LIMIT}, the limit below which "
            "the primality test is exact")
    if not _is_prime(p):
        raise SingvalError(f"the specialization oracle needs a prime, got {p}")
    if isinstance(level, int):
        level = (level,) * curve.r
    return tuple(x + 1 for x in vec_check(level, curve.r))


def jet_rank_mod_q(curve: CurvePresentation, p: int, level: int | Vec) -> int:
    """Dimension of the enumerated jet span used by order_counts_mod_q.

    Raises BadReduction when it is below the rank over Q of the ring's jets
    at the same precision: reduction can only lose rank, and a loss means
    the ring mod p is a different ring (two branches that coincide mod p).
    """
    N = _modp_precision(curve, p, level)
    rank = len(_modp_jet_basis(curve, p, N)[0])
    over_q = jet_span(ring_ideal(curve), N).rank
    if rank != over_q:
        raise BadReduction(
            f"the ring's jets at {N} have rank {rank} mod {p} but {over_q} over Q; "
            "the reduction changes the ring")
    return rank


def order_counts_mod_q(
    curve: CurvePresentation,
    p: int,
    level: int | Vec,
    ceiling: int = 2 ** 24,
) -> dict[Vec, int]:
    """Brute-force cylinder counts over the prime field, by exact order vector.

    Enumerates every element of the ring's jet span at truncation N = level + 1
    and counts each exact order vector, with N_i where branch i vanishes to the
    precision.  Deliberately naive: it is the oracle the motivic series are
    checked against.  It shares the jet engine (JetSpace, over GF(p) here)
    with the prediction; what stays independent is the use made of the span:
    this enumerates its elements, while the prediction reads lengths off the
    cut table of the ring's Q span at the same N and builds the series from
    those.  Every one of the p^rank coefficient words is formed and its
    orders are read from its own coefficients, with no echelon structure and
    no cut table; the words are only packed many to an int
    (_modp_order_histogram), so that one big-int step forms or tests up to
    _MAX_SLOTS of them at once.
    """
    N = _modp_precision(curve, p, level)
    rows, layout = _modp_jet_basis(curve, p, N)
    rank = len(rows)
    if p ** rank > ceiling:
        raise EnumerationTooLarge(
            f"{p}^{rank} vectors exceed the enumeration ceiling {ceiling}")
    return _modp_order_histogram(rows, layout, p)


def _modp_order_histogram(rows: list[list[int]], layout: JetLayout, p: int) -> dict[Vec, int]:
    """Exact order vectors of all p^rank combinations of rows (ints in [0, p)),
    counted.

    Bit-sliced: a jet is a slot of ncols lanes of w bits, and one big-int
    operation acts on every slot of a word.  A word holds, side by side,
    all p^m values of the lowest m digits of the coefficient word and k < p
    values of digit m, at most _MAX_SLOTS slots, built by repeated doubling.
    Digit m then sweeps its p values k at a time, and the digits above it
    are walked in p-ary Gray-code order (a counter steps its lowest digit
    below p - 1, and the Gray word then changes in that one digit by +1);
    every step adds a multiple of one basis row to every slot.  Lanes add
    mod p without carries between them: a sum s <= 2p - 2 fits in w bits,
    and s >= p exactly when s + 2^(w-1) - p has the lane's top bit.  A
    slot's order on branch i is its first lane of the branch with a nonzero
    value, read off one slot mask per lane.
    """
    w = p.bit_length() + 1
    width = layout.ncols * w
    rank, m, n = len(rows), 0, 1
    while m < rank and n * p <= _MAX_SLOTS:
        m, n = m + 1, n * p
    k, values = (_MAX_SLOTS // n, p) if m < rank else (1, 1)  # digit m, if any
    full = (1 << width * n * k) - 1
    ones, slots = full // ((1 << w) - 1), full // ((1 << width) - 1)  # 1 per lane, per slot
    top = ones << (w - 1)
    bias, fill = ((1 << w - 1) - p) * ones, top - ones
    packed = [sum(x << w * j for j, x in enumerate(row)) for row in rows]

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & top) >> (w - 1)) * p

    word, size = 0, 1
    for row, radix in zip(packed, [p] * m + [k]):
        step = row * (slots & ((1 << width * size) - 1))
        block = word
        for c in range(1, radix):
            block = add(block, step)
            word |= block << c * size * width
        size *= radix
    stride = sum((k * x % p) << w * j for j, x in enumerate(rows[m])) * slots if m < rank else 0
    lanes = [[w * (base + e) + w - 1 for e in range(length)]
             for base, length in zip(layout.offsets, layout.N)]
    # the last sweep may run past p - 1, so it counts only the slots below p
    last = slots & ((1 << width * n * (values - (values - 1) // k * k)) - 1)
    counts: dict[Vec, int] = {}

    def sweep(word: int) -> None:
        for start in range(0, values, k):
            live = last if start + k >= values else slots
            nonzero = (word + fill) & top
            joint = [((), live)]
            for bits in lanes:
                orders, unseen = [], live
                for e, bit in enumerate(bits):
                    if fresh := (nonzero >> bit) & unseen:
                        orders.append((e, fresh))
                        unseen ^= fresh
                if unseen:
                    orders.append((len(bits), unseen))
                joint = [(key + (e,), both) for key, acc in joint for e, mask in orders
                         if (both := acc & mask)]
            for key, mask in joint:
                counts[key] = counts.get(key, 0) + mask.bit_count()
            word = add(word, stride)

    sweep(word)
    high = [row * slots for row in packed[m + 1:]]
    counter = [0] * len(high)
    for _ in range(p ** len(high) - 1):
        d = 0
        while counter[d] == p - 1:
            counter[d] = 0
            d += 1
        counter[d] += 1
        word = add(word, high[d])
        sweep(word)
    return counts


def count_points_mod_q(
    curve: CurvePresentation,
    p: int,
    v: Vec,
    level: int | Vec,
    ceiling: int = 2 ** 24,
) -> int:
    """Number of jets over the prime field whose exact order vector is v."""
    v = vec_check(v, curve.r)
    if isinstance(level, int):
        level = (level,) * curve.r
    level = vec_check(level, curve.r)
    if any(x < 0 for x in v):
        raise SingvalError(f"order vector must be nonnegative, got {v}")
    if not all(x < l for x, l in zip(v, level)):
        raise SingvalError(f"level {level} must exceed the order vector {v} componentwise")
    return order_counts_mod_q(curve, p, level, ceiling).get(v, 0)
