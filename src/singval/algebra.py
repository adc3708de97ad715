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

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .curve import (
    CurvePresentation,
    Element,
    FracIdeal,
    common_shift,
    el_add,
    el_is_exact_zero,
    el_mul,
    el_one,
    el_scale,
    el_shift,
    el_unit_monomial,
    el_zero,
    ideal_product,
    monomial_scale,
    ring_ideal,
    value_of,
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
from .valuemodule import ValueModule

_ZERO = Fraction(0)
# the conductor search climbs at most this far above the minimal orders
CONDUCTOR_CLIMB = 128
# pseudo-random transporter combinations tried by self_dual_direct
DIRECT_PROBE_COMBOS = 8


# -- exact row reduction ------------------------------------------------------


class RowSpaceQ:
    """A row space kept in reduced echelon form, over the rationals or, when
    a prime p is given, over GF(p) with entries as ints in [0, p).

    Column order is fixed by the caller; pivots are the first nonzero
    columns, so echelon rows sort by leading column and every question
    (rank, membership, residual) is a single reduction pass.  The reduced
    echelon form of a span is unique, so the rows do not depend on the
    order in which a span is added.
    """

    __slots__ = ("ncols", "p", "rows", "pivots")

    def __init__(self, ncols: int, p: int = 0):
        self.ncols = ncols
        self.p = p
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, row: Sequence) -> list:
        v = list(row)
        if len(v) != self.ncols:
            raise SingvalError(f"row has {len(v)} entries, space has {self.ncols} columns")
        p = self.p
        for pc, r in zip(self.pivots, self.rows):
            c = v[pc] % p if p else v[pc]
            if c:
                for j in range(pc, self.ncols):
                    if r[j]:  # skip zeros: Fraction arithmetic dominates the cost
                        v[j] -= c * r[j]
        return [x % p for x in v] if p else v

    def contains(self, row: Sequence) -> bool:
        return not any(self.residual(row))

    def add(self, row: Sequence) -> bool:
        """Insert a row; returns True when the rank grew."""
        v = self.residual(row)
        pc = next((j for j, c in enumerate(v) if c), None)
        if pc is None:
            return False
        p = self.p
        if p:
            inv = pow(v[pc], -1, p)
            v = [c * inv % p for c in v]
        else:
            inv = v[pc]
            v = [c / inv if c else c for c in v]
        for r in self.rows:
            c = r[pc]
            if c:
                for j in range(pc, self.ncols):
                    if v[j]:
                        r[j] -= c * v[j]
                if p:
                    r[pc:] = [x % p for x in r[pc:]]
        k = next((idx for idx, q in enumerate(self.pivots) if q > pc), len(self.pivots))
        self.rows.insert(k, v)
        self.pivots.insert(k, pc)
        return True


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
    0 <= e < N_i sits at offset_i + e.  Rows hold Fractions, or ints mod p
    when a prime p is passed."""

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
        row: list = []
        for i, x in enumerate(z):
            for e in range(self.N[i]):
                c = x.coeffs.get(e, _ZERO)
                row.append(_reduce(c, p) if p else c)
        return row

    def unit_row(self, i: int, e: int) -> list[Fraction]:
        row = [_ZERO] * self.ncols
        row[self.offsets[i] + e] = Fraction(1)
        return row

    def times(self, row: Sequence, gen: Sequence[Sequence[tuple]], p: int = 0) -> list:
        """The row of the product of row's element with gen, truncated at N.

        gen holds one list of (exponent, coefficient) pairs per branch, all
        exponents nonnegative; only the products below N are formed.
        """
        out: list = [0 if p else _ZERO] * self.ncols
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
    order, so a dependent truncated element contributes nothing new.  Mod p
    every generator coefficient below N must reduce to a nonzero residue,
    or BadReduction is raised.
    """

    __slots__ = ("layout", "space", "cuts")

    def __init__(self, curve: CurvePresentation, gens: Sequence[Element], N: Vec, p: int = 0):
        N = vec_check(N, curve.r)
        if any(n < 1 for n in N):
            raise SingvalError(f"jet precision must be positive on every branch, got {N}")
        layout = JetLayout(N)
        space = RowSpaceQ(layout.ncols, p)
        mults = [
            [[(e, _reduce(c, p, nonzero=True) if p else c) for e, c in x.coeffs.items() if e < n]
             for x, n in zip(m, N)]
            for m in curve.gens
        ]
        queue = [row for row in (layout.element_row(g, p) for g in gens) if space.add(row)]
        while queue:
            x = queue.pop()
            for m in mults:
                y = layout.times(x, m, p)
                if space.add(y):
                    queue.append(y)
        self.layout = layout
        self.space = space
        self.cuts: dict[Vec, int] | None = None  # filled by dim_at_least

    @property
    def rank(self) -> int:
        return self.space.rank

    def contains_element(self, z: Element) -> bool:
        return self.space.contains(self.layout.element_row(z))

    def dim_at_least(self, w: Vec) -> int:
        """Dimension of the subspace of the span supported on columns (i, e)
        with e >= w_i, read from the cut table; negative w_i cut nothing."""
        w = vec_check(w, self.layout.r)
        if any(x > n for x, n in zip(w, self.layout.N)):
            raise SingvalError(f"support cut {w} exceeds the jet precision {self.layout.N}")
        if self.cuts is None:
            self.cuts = _cut_dims(self.space, self.layout)
        return self.cuts[tuple(max(0, x) for x in w)]


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


def jet_span(a: FracIdeal, N: Vec) -> JetSpace:
    """Jets of the generator module of a (the monomial shift is ignored here;
    callers rebase to a common shift before comparing two ideals)."""
    return JetSpace(a.curve, a.gens, N)


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
    for i, n in enumerate(space.layout.N):
        for e in range(m[i], n):
            if not space.space.contains(space.layout.unit_row(i, e)):
                return None
    return space


def _gen_conductor(a: FracIdeal) -> Vec:
    """Minimal m with t^m * (full product ring) inside the generator module.

    Climb the diagonal by doubling steps until a band hi is certified, then
    read the minimum off the certifying span at N = hi + p.  For m <= hi,
    t^m * full lies in the module exactly when every unit (i, e) with
    m_i <= e < N_i lies in that span: a jet matching t_i^e below N differs
    from it by an element of order >= N >= hi, which the module holds.  The
    condition splits by axis, so each coordinate is the foot of its run of
    units below hi_i.
    """
    if a._cond is not None:
        return a._cond
    if a.gens in a.curve.conductors:  # found for another ideal object
        a._cond = a.curve.conductors[a.gens]
        return a._cond
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
        while e and space.space.contains(space.layout.unit_row(i, e - 1)):
            e -= 1
        out.append(e)
    a._cond = a.curve.conductors[a.gens] = tuple(out)
    return a._cond


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


def module_equal(a: FracIdeal, b: FracIdeal) -> bool:
    return contains_module(a, b) and contains_module(b, a)


def _index(a: FracIdeal, b: FracIdeal) -> int:
    """Signed length l(a/c) - l(b/c), for any c inside both.

    Past the larger certified conductor N both modules contain every
    element, so the difference of their jet ranks at N is the answer; it
    is checked again two steps higher.
    """
    a2, b2 = common_shift(a, b)
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


def normalization_ideal(curve: CurvePresentation) -> FracIdeal:
    """The full product of power series rings as a module over the curve:
    generated by the monomial band below the distinguished nonzerodivisor."""
    p = curve.z0_order
    gens = [
        el_unit_monomial(curve.r, i, e)
        for i in range(curve.r)
        for e in range(p[i])
    ]
    return FracIdeal(curve, gens)


def monomial_ideal(curve: CurvePresentation, v: Vec) -> FracIdeal:
    """The shifted full module t^v * (product of power series rings)."""
    v = vec_check(v, curve.r)
    return monomial_scale(normalization_ideal(curve), v)


def max_ideal(curve: CurvePresentation) -> FracIdeal:
    """The maximal ideal: every ring element without constant term is a
    series in the algebra generators, so they generate it as a module."""
    return FracIdeal(curve, curve.gens)


# -- colon ideals ---------------------------------------------------------------


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the given constraint matrix."""
    sp = RowSpaceQ(ncols)
    for row in rows:
        sp.add(row)
    pivot_set = set(sp.pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for p, r in zip(sp.pivots, sp.rows):
            v[p] = -r[f]
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
    """
    if a.curve is not b.curve:
        raise SingvalError("colon of ideals over different curve presentations")
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
    unknowns = [(i, e) for i in range(r) for e in range(lo[i], max(lo[i], hi[i]))]
    sol_rows: list[list[Fraction]] = []
    if unknowns:
        cols: list[list[Fraction]] = []
        for (i, e) in unknowns:
            stacked: list[Fraction] = []
            for g in b2.gens:
                w = el_mul(el_unit_monomial(r, i, e), g)
                stacked.extend(space.space.residual(space.layout.element_row(w)))
            cols.append(stacked)
        nrows = len(cols[0])
        constraint = [[cols[u][k] for u in range(len(unknowns))] for k in range(nrows)]
        sol_rows = _nullspace(constraint, len(unknowns))
    gens: list[Element] = []
    for v in sol_rows:
        z = el_zero(r)
        for coeff, (i, e) in zip(v, unknowns):
            if coeff:
                z = el_add(z, el_unit_monomial(r, i, e, coeff))
        gens.append(z)
    for i in range(r):
        for e in range(curve.z0_order[i]):
            gens.append(el_unit_monomial(r, i, hi[i] + e))
    out = FracIdeal(curve, gens, neg)
    if not contains_module(a, ideal_product(out, b)):
        raise SingvalError("internal: the computed transporter fails re-verification")
    return out


def dual(b: FracIdeal, c: FracIdeal) -> FracIdeal:
    """Dual with respect to the supplied canonical ideal: c : b."""
    return colon(c, b)


def normalize_ideal(b: FracIdeal) -> FracIdeal:
    """Scale by a monomial so the minimal value vector becomes zero."""
    return monomial_scale(b, vec_neg(b.values_offset()))


def self_dual_direct(
    b: FracIdeal, canonical: FracIdeal, seed: int = 0
) -> tuple[str, str]:
    """Module-level self-duality probe: is the dual a monomial-unit multiple?

    Returns ("yes", why) with a certified multiplier, ("no", why) when an
    invariant (normalized value set, conductor, or degree) separates b from
    its dual, or ("undetermined", why) when the invariants agree but no
    certificate was found among the transporter generators of value zero
    and DIRECT_PROBE_COMBOS pseudo-random integer combinations of them.  The counting
    criteria on the value module are the decision procedure of record; this
    probe exists to cross-check them on concrete inputs.
    """
    bs = dual(b, canonical)
    bn = normalize_ideal(b)
    sn = normalize_ideal(bs)
    vb = value_set(bn)
    vs = value_set(sn)
    if vb.gamma != vs.gamma or vb.members != vs.members:
        return ("no", "normalized value sets differ")
    if vb.deg_offset != vs.deg_offset:
        return ("no", "normalized degrees differ")
    trans = colon(sn, bn)
    zero = (0,) * b.r
    candidates = []
    for g in trans.gens:
        try:
            if vec_sub(value_of(g), trans.shift) == zero:
                candidates.append(g)
        except SingvalError:
            continue

    def certifies(z: Element) -> bool:
        prod = FracIdeal(
            b.curve,
            [el_mul(z, g) for g in bn.gens],
            vec_add(bn.shift, trans.shift),
        )
        return module_equal(prod, sn)

    for z in candidates:
        if certifies(z):
            return ("yes", "a transporter generator carries the module onto its dual")
    rng = random.Random(seed)
    combos = [tuple(1 for _ in trans.gens)]
    combos += [tuple(rng.randint(0, 5) for _ in trans.gens) for _ in range(DIRECT_PROBE_COMBOS)]
    for lam in combos:
        z = el_zero(b.r)
        for coeff, g in zip(lam, trans.gens):
            if coeff:
                z = el_add(z, el_scale(g, coeff))
        if el_is_exact_zero(z):
            continue
        try:
            if vec_sub(value_of(z), trans.shift) == zero and certifies(z):
                return ("yes", "a transporter combination carries the module onto its dual")
        except SingvalError:
            continue
    return ("undetermined", "value-set invariants agree but no multiplier was certified")


def verify_canonical(c: FracIdeal, family: Sequence[FracIdeal] | None = None) -> tuple[bool, list[str]]:
    """Check the defining property of a canonical ideal on a test family.

    Requires double-colon stability c:(c:a) = a for every family member (c
    always holds a nonzerodivisor: a generic combination of its generators
    has order vmin(c) on every branch).  The default family is the ring,
    the full module, and the shifted full modules with shifts in {0,1}^r.
    """
    curve = c.curve
    if family is None:
        family = [ring_ideal(curve), normalization_ideal(curve)] + [
            monomial_ideal(curve, v)
            for v in iter_product(range(2), repeat=curve.r)
            if any(v)
        ]
    failures = []
    for k, a in enumerate(family):
        back = colon(c, colon(c, a))
        if not module_equal(back, a):
            failures.append(f"member {k}: double colon against the candidate does not return it")
    return (not failures, failures)


# -- value sets -----------------------------------------------------------------


def value_set(b: FracIdeal, margin: int = 2) -> ValueModule:
    """Extract the normalized value set of b as a ValueModule.

    Normalizes by the minimal order vector, certifies the conductor, fills
    the membership table on [0, gamma] through jet dimension jumps, and
    verifies the clip rule on a collar of width margin + 2 before trusting
    the box.  The module's deg_offset is the degree of the normalized ideal.
    """
    if margin < 1:
        raise SingvalError("margin must be at least 1")
    bn = normalize_ideal(b)
    r = bn.r
    svec = bn.vmin  # equals bn.shift componentwise after normalization
    gamma = vec_sub(_gen_conductor(bn), svec)
    collar = margin + 2
    top = tuple(g + collar for g in gamma)
    N = vec_add(vec_add(top, svec), (2,) * r)
    space = jet_span(bn, N)
    dim_cache: dict[Vec, int] = {}

    def dim_at(v: Vec) -> int:
        w = tuple(min(max(x + s, 0), n) for x, s, n in zip(v, svec, N))
        if w not in dim_cache:
            dim_cache[w] = space.dim_at_least(w)
        return dim_cache[w]

    def jump(v: Vec, i: int) -> int:
        return dim_at(v) - dim_at(tuple(x + (1 if j == i else 0) for j, x in enumerate(v)))

    def extracted_member(v: Vec) -> bool:
        return all(jump(v, i) == 1 for i in range(r))

    members = []
    table: dict[Vec, bool] = {}
    for v in iter_product(*[range(0, t + 1) for t in top]):
        table[v] = extracted_member(v)
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _modp_jet_basis(curve: CurvePresentation, p: int, N: Vec) -> tuple[list[list[int]], JetLayout]:
    """Row basis of the curve ring's jets at N over the prime field."""
    space = JetSpace(curve, [el_one(curve.r)], N, p)
    return space.space.rows, space.layout


def _modp_precision(curve: CurvePresentation, p: int, level: int | Vec) -> Vec:
    """Truncation N = level + 1 of the GF(p) oracle, after the prime check."""
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
    with value_set; what stays independent is the use made of the span: this
    enumerates its elements, while value_set extracts jump dimensions from
    ranks and the series are built from those.  The p^rank coefficient words
    are walked once in p-ary Gray-code order: a counter steps its lowest
    digit below p - 1, and the Gray word then changes in that one digit by
    +1, so each element is the previous one plus one basis row.
    """
    N = _modp_precision(curve, p, level)
    rows, layout = _modp_jet_basis(curve, p, N)
    rank = len(rows)
    if p ** rank > ceiling:
        raise EnumerationTooLarge(
            f"{p}^{rank} vectors exceed the enumeration ceiling {ceiling}")
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    spans = [(base, base + n) for base, n in zip(layout.offsets, N)]
    vec = [0] * layout.ncols
    counter = [0] * rank
    counts = {N: 1}
    for _ in range(p ** rank - 1):
        k = 0
        while counter[k] == p - 1:
            counter[k] = 0
            k += 1
        counter[k] += 1
        for j, x in sparse[k]:
            vec[j] = (vec[j] + x) % p
        orders = []
        for lo, hi in spans:
            j = lo
            while j < hi and not vec[j]:
                j += 1
            orders.append(j - lo)
        key = tuple(orders)
        counts[key] = counts.get(key, 0) + 1
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
