"""Branchwise power series, ring and ideal presentations for curve germs.

The ambient object is a product of r formal power series lines over Q.
A BranchSeries is one coordinate: a finite sum of exact rational terms.
An element of the product is a plain tuple of r BranchSeries.

CurvePresentation holds normalized algebra generators for the local ring;
FracIdeal holds module generators inside the product, together with a
monomial shift so that modules with poles still have a nonnegative model.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import SchemaError, SingvalError, ZeroDivisor
from .lattice import Vec, vec_add, vec_check

_ZERO = Fraction(0)


class BranchSeries:
    """One branch coordinate: the finite sum of c_e t^e with exact nonzero
    Fraction c_e, stored by exponent.  coeffs is never changed after
    construction, so the hash is computed once."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: dict[int, Fraction | int] = {}):
        clean: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent must be int, got {e!r}")
            q = Fraction(c)
            if q:
                clean[e] = q
        self.coeffs = clean
        self._hash: int | None = None

    def is_exact_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self.coeffs:
            return "<0>"
        return "<" + " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())) + ">"


BS_ZERO = BranchSeries()
BS_ONE = BranchSeries({0: 1})


def bs_monomial(e: int) -> BranchSeries:
    return BranchSeries({e: 1})


def bs_mul(a: BranchSeries, b: BranchSeries) -> BranchSeries:
    out: dict[int, Fraction] = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            out[e] = out.get(e, _ZERO) + ca * cb
    return BranchSeries(out)


def bs_shift(a: BranchSeries, k: int) -> BranchSeries:
    return BranchSeries({e + k: c for e, c in a.coeffs.items()})


def bs_order(a: BranchSeries) -> int:
    if not a.coeffs:
        raise ZeroDivisor("exact zero has no order")
    return min(a.coeffs)


def bs_coeff(a: BranchSeries, e: int) -> Fraction:
    return a.coeffs.get(e, _ZERO)


# -- elements of the product of branches -------------------------------------

Element = tuple[BranchSeries, ...]


def el_one(r: int) -> Element:
    return (BS_ONE,) * r


def el_unit_monomial(r: int, i: int, e: int) -> Element:
    """t^e on branch i, zero elsewhere."""
    return tuple(bs_monomial(e) if j == i else BS_ZERO for j in range(r))


def el_mul(a: Element, b: Element) -> Element:
    return tuple(bs_mul(x, y) for x, y in zip(a, b, strict=True))


def el_shift(a: Element, k: Vec) -> Element:
    return tuple(bs_shift(x, ki) for x, ki in zip(a, k, strict=True))


def el_trunc(a: Element, n: Vec) -> Element:
    """The terms of each branch i below n_i, as an exact element."""
    return tuple(BranchSeries({e: c for e, c in x.coeffs.items() if e < ni})
                 for x, ni in zip(a, n, strict=True))


def el_is_exact_zero(a: Element) -> bool:
    return all(x.is_exact_zero() for x in a)


def el_min_orders(gens: Sequence[Element], r: int) -> Vec:
    """Componentwise minimum order over the generators; every branch must be
    seen by at least one generator."""
    mins: list[int | None] = [None] * r
    for g in gens:
        for i, x in enumerate(g):
            if x.is_exact_zero():
                continue
            o = bs_order(x)
            if mins[i] is None or o < mins[i]:
                mins[i] = o
    for i, m in enumerate(mins):
        if m is None:
            raise SchemaError(f"no generator is nonzero on branch {i}; "
                              "the module contains no nonzerodivisor")
    return tuple(mins)  # type: ignore[arg-type]


class CurvePresentation:
    """The local algebra of a reduced curve germ with r smooth branches,
    presented by finitely many exact elements of the product of branch lines.

    Generators are normalized on construction: a generator that is a unit
    must have one and the same constant term on every branch (otherwise no
    local ring contains it); the constant is subtracted, zero generators are
    dropped, and what remains has order >= 1 on every branch it touches.
    """

    __slots__ = ("r", "gens", "z0_order", "memo")

    def __init__(self, r: int, raw_gens: Sequence[Element]):
        if not isinstance(r, int) or r < 1:
            raise SchemaError(f"branch count must be a positive int, got {r!r}")
        gens: list[Element] = []
        for k, g in enumerate(raw_gens):
            if len(g) != r:
                raise SchemaError(f"generator {k} has {len(g)} components, expected {r}")
            consts = {bs_coeff(x, 0) for x in g}
            if len(consts) > 1:
                raise SchemaError(
                    f"generator {k} has different constant terms across branches; "
                    "it cannot lie in a local ring with a diagonal residue field")
            c = consts.pop()
            if c:
                g = tuple(BranchSeries({e: q for e, q in x.coeffs.items() if e != 0}) for x in g)
            if not el_is_exact_zero(g):
                gens.append(g)
        if not gens:
            raise SchemaError("the ring presentation has no nonconstant generator")
        for i, j in combinations(range(r), 2):
            if all(g[i] == g[j] for g in gens):
                raise SchemaError(f"branches {i} and {j} coincide: every generator agrees "
                                  "on them, so the curve is not reduced")
        self.r = r
        self.gens = tuple(gens)
        # order vector of a nonzerodivisor sum l^(j-1) g_j: per branch its
        # coefficient at vmin is a nonzero polynomial in l, so some l gives
        # order exactly vmin.  el_min_orders rejects a branch no generator touches.
        self.z0_order = el_min_orders(self.gens, r)
        # what algebra derives from this curve, keyed by everything it
        # depends on: conductors by generators, jet spans by generators,
        # precision and prime, colons by both modules' generators and shifts
        self.memo: dict[tuple, object] = {}


class FracIdeal:
    """A nonzero fractional ideal, stored as t^(-shift) * (span of gens).

    The generators themselves always live inside the product of power series
    rings (all orders >= 0), so jet computations can use one fixed coordinate
    system; the monomial shift carries any poles.
    """

    __slots__ = ("curve", "gens", "shift", "vmin", "_cond")

    def __init__(self, curve: CurvePresentation, gens: Sequence[Element], shift: Vec | None = None):
        self.curve = curve
        self._cond = None  # conductor cache, filled by algebra._gen_conductor
        if shift is None:
            shift = (0,) * curve.r
        self.shift = vec_check(shift, curve.r)
        kept: list[Element] = []
        for k, g in enumerate(gens):
            if len(g) != curve.r:
                raise SchemaError(f"ideal generator {k} has {len(g)} components, expected {curve.r}")
            if el_is_exact_zero(g):
                continue
            for i, x in enumerate(g):
                if not x.is_exact_zero() and bs_order(x) < 0:
                    raise SingvalError(
                        f"ideal generator {k} has a pole on branch {i}; "
                        "use the shift argument for denominators")
            kept.append(g)
        if not kept:
            raise SchemaError("a fractional ideal needs at least one nonzero generator")
        self.gens = tuple(kept)
        # minimal generator orders; also verifies every branch is reached
        self.vmin = el_min_orders(self.gens, curve.r)

    @property
    def r(self) -> int:
        return self.curve.r

    def values_offset(self) -> Vec:
        """Actual minimal values of the module are vmin - shift."""
        return tuple(v - s for v, s in zip(self.vmin, self.shift))

    def rebase(self, new_shift: Vec) -> "FracIdeal":
        """Represent the same module with a larger shift."""
        new_shift = vec_check(new_shift, self.r)
        d = tuple(n - s for n, s in zip(new_shift, self.shift))
        if any(x < 0 for x in d):
            raise SingvalError("rebase only to a componentwise larger shift")
        if all(x == 0 for x in d):
            return self
        out = FracIdeal(self.curve, [el_shift(g, d) for g in self.gens], new_shift)
        if self._cond is not None:
            out._cond = vec_add(self._cond, d)
        return out

    def __repr__(self) -> str:
        return f"FracIdeal(r={self.r}, {len(self.gens)} gens, shift={list(self.shift)})"


def ring_ideal(curve: CurvePresentation) -> FracIdeal:
    """The ring itself as a module over itself: generated by 1."""
    return FracIdeal(curve, [el_one(curve.r)])


def common_shift(a: FracIdeal, b: FracIdeal) -> tuple[FracIdeal, FracIdeal]:
    s = tuple(max(x, y) for x, y in zip(a.shift, b.shift))
    return a.rebase(s), b.rebase(s)


def ideal_product(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    gens = [el_mul(x, y) for x in a.gens for y in b.gens]
    return FracIdeal(a.curve, gens, vec_add(a.shift, b.shift))


def monomial_scale(a: FracIdeal, k: Vec) -> FracIdeal:
    """Multiply the module by the monomial vector t^k (any sign)."""
    k = vec_check(k, a.r)
    pos = tuple(max(x, 0) for x in k)
    neg = tuple(max(-x, 0) for x in k)
    gens = [el_shift(g, pos) for g in a.gens] if any(pos) else list(a.gens)
    return FracIdeal(a.curve, gens, vec_add(a.shift, neg))
