"""References for the packed verifiers in singval.poincare.

The library checks every series identity on flat tables of Kronecker-packed
ints.  This module keeps two other shapes over GrothendieckClass values.
The cross-multiplied identities are composed from whole windowed series,
built by substitution, shift and polynomial multiplication, each on the
largest box it still determines, and compared only where both sides cover
the window.  The pointwise identities (the projectivized functional
equation, the affine bridge and the support) are compared one class at a
time through poincare._agree.  Both share the series builders and the window
policy with the library, not the comparison, so each must give the same
Verdict as the library row.  The class-side L -> 1/L (gc_invert_L) and
Kronecker packing (gc_pack) live here as well: the library computes its
packed tables from the value module's lengths and needs neither.

A WindowSeries records the exact coefficient of t^v for every v in one box,
a Window; points outside the box are unknown, not zero, and reading one
raises WindowNotCovered.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from singval.errors import SingvalError
from singval.lattice import Vec, iter_box, ones, vec_add, vec_check, vec_neg, vec_sub
from singval.lefschetz import (DIGIT_BITS, GC_ONE, GC_ZERO, GrothendieckClass, _trusted,
                               gc_add, gc_int, gc_monomial, gc_mul)
from singval.poincare import (
    GC_L_MINUS_1,
    Coeff,
    _agree,
    _pair_check,
    _proj_class,
    _subsets,
    default_window,
    series_cells,
    series_poincare,
    series_proj_cells,
    series_proj_poincare,
)
from singval.valuemodule import ValueModule, Verdict, ring_like


def gc_invert_L(a: GrothendieckClass) -> GrothendieckClass:
    """Substitute L -> 1/L (exponent sign flip)."""
    return _trusted({-e: c for e, c in a._terms.items()})


def gc_pack(classes: list[GrothendieckClass]) -> tuple[int, int, list[int]]:
    """Kronecker substitution L -> 2^W (Harvey, J. Symbolic Comput. 44, 2009):
    (e0, largest |c|, [sum of c * 2^(W * (e - e0)) per class]), e0 the least
    exponent.  Int sums stay exact while every |digit| < 2^(W - 1)."""
    e0 = min((e for a in classes for e in a._terms), default=0)
    big = max((abs(c) for a in classes for c in a._terms.values()), default=0)
    return e0, big, [sum(c << DIGIT_BITS * (e - e0) for e, c in a._terms.items())
                     for a in classes]


def poly_prod_t_minus_one(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (t_i - 1) over all axes."""
    return {ind: gc_int((-1) ** (r - sum(ind))) for _, ind in _subsets(r)}


def poly_weighted_shift_minus_one(r: int, d: int) -> dict[Vec, GrothendieckClass]:
    """L^d t_1 ... t_r - 1."""
    return {ones(r): gc_monomial(d), ones(r, 0): gc_int(-1)}


def poly_prod_one_minus_L_t(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (1 - L t_i) over all axes."""
    return {ind: gc_monomial(sum(ind), sign) for sign, ind in _subsets(r)}


class EmptyResultWindow(SingvalError):
    """A window operation produced a box with some hi < lo; no point survives."""


class WindowNotCovered(SingvalError):
    """A coefficient or a comparison was asked for outside the known box."""


class Window:
    """A nonempty box [lo, hi] in Z^r, both corners included."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Iterable[int], hi: Iterable[int]):
        self.lo = vec_check(lo)
        self.hi = vec_check(hi, len(self.lo))
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise EmptyResultWindow(f"window [{self.lo}, {self.hi}] contains no point")

    def points(self) -> Iterator[Vec]:
        return iter_box(self.lo, self.hi)

    def __repr__(self) -> str:
        return f"Window({list(self.lo)}, {list(self.hi)})"


def covers(w: Window, v: Vec) -> bool:
    return len(v) == len(w.lo) and all(a <= x <= b for a, x, b in zip(w.lo, v, w.hi))


class WindowSeries:
    """Exact coefficients of a Laurent series on one window; only the
    nonzero ones are stored."""

    __slots__ = ("window", "coeffs")

    def __init__(self, window: Window, coeffs: Mapping[Vec, GrothendieckClass] = {}):
        self.window = window
        for v in coeffs:
            if not covers(window, vec_check(v)):
                raise SingvalError(f"coefficient at {v} lies outside {window}")
        self.coeffs = {v: c for v, c in coeffs.items() if not c.is_zero()}

    def coeff(self, v: Vec) -> GrothendieckClass:
        if not covers(self.window, v):
            raise WindowNotCovered(f"{v} is outside the known window {self.window}")
        return self.coeffs.get(v, GC_ZERO)


def ws_build(window: Window, coeff: Coeff) -> WindowSeries:
    """Evaluate a coefficient function at every window point."""
    return WindowSeries(window, {v: coeff(v) for v in window.points()})


def scale_vars(a: WindowSeries, d: Vec) -> WindowSeries:
    """t_i -> L^(d_i) t_i: the coefficient at v picks up L^(v . d)."""
    return WindowSeries(a.window, {
        v: gc_mul(gc_monomial(sum(x * y for x, y in zip(v, d))), c)
        for v, c in a.coeffs.items()
    })


def scale_class(a: WindowSeries, cls: GrothendieckClass) -> WindowSeries:
    return WindowSeries(a.window, {v: gc_mul(cls, c) for v, c in a.coeffs.items()})


def invert_vars(a: WindowSeries) -> WindowSeries:
    """t -> 1/t: the window negates, the coefficient at -v is the old one at v."""
    w = Window(vec_neg(a.window.hi), vec_neg(a.window.lo))
    return WindowSeries(w, {vec_neg(v): c for v, c in a.coeffs.items()})


def mul_monomial(a: WindowSeries, shift: Vec, cls: GrothendieckClass = GC_ONE) -> WindowSeries:
    """cls * t^shift * a."""
    w = Window(vec_add(a.window.lo, shift), vec_add(a.window.hi, shift))
    return WindowSeries(w, {vec_add(v, shift): gc_mul(cls, c) for v, c in a.coeffs.items()})


def mul_poly(a: WindowSeries, poly: Mapping[Vec, GrothendieckClass]) -> WindowSeries:
    """poly * a on [lo + max supp, hi + min supp], where every translate of
    the window still covers the point."""
    supp = [u for u, c in poly.items() if not c.is_zero()]
    if not supp:
        raise SingvalError("multiplication by the zero polynomial loses the window")
    lo = tuple(x + max(u[i] for u in supp) for i, x in enumerate(a.window.lo))
    hi = tuple(x + min(u[i] for u in supp) for i, x in enumerate(a.window.hi))
    if any(h < l for l, h in zip(lo, hi)):
        raise EmptyResultWindow("polynomial support is too wide for this window")
    w = Window(lo, hi)
    out = {}
    for v in w.points():
        acc = GC_ZERO
        for u in supp:
            acc = gc_add(acc, gc_mul(poly[u], a.coeff(vec_sub(v, u))))
        out[v] = acc
    return WindowSeries(w, out)


def eq_on(a: WindowSeries, b: WindowSeries, w: Window) -> Vec | None:
    """The first point of w in lex order where a and b differ, or None.
    Raises WindowNotCovered unless both sides determine all of w."""
    for side in (a, b):
        if not (covers(side.window, w.lo) and covers(side.window, w.hi)):
            raise WindowNotCovered(f"a side only knows {side.window}, need {w}")
    for v in w.points():
        if a.coeff(v) != b.coeff(v):
            return v
    return None


def series_agree(w: Window, lhs: WindowSeries, rhs: WindowSeries,
                 holds: str, fails: str) -> Verdict:
    v = eq_on(lhs, rhs, w)
    if v is None:
        return Verdict(True, holds)
    return Verdict(False, fails.format(v=v), witness=(v, lhs.coeff(v), rhs.coeff(v)))


def boxes(vm: ValueModule) -> tuple[Window, Window]:
    """The window [-2, gamma + 2] an identity is checked on, and the box
    [-3, gamma + 2] its operands are built on: one point lower on every axis,
    the reach of a multiplier with support in {0, 1}^r."""
    lo, hi = default_window(vm)
    return Window(lo, hi), Window(vec_sub(lo, ones(vm.r)), hi)


@lru_cache(maxsize=64)
def table(build: Callable[[ValueModule], Coeff], vm: ValueModule) -> dict[Vec, GrothendieckClass]:
    """build(vm) at every point of the operand box [-3, gamma + 2]; the
    references of one module pair share it."""
    coeff = build(vm)
    return {v: coeff(v) for v in boxes(vm)[1].points()}


def built(build: Callable[[ValueModule], Coeff], vm: ValueModule) -> WindowSeries:
    return WindowSeries(boxes(vm)[1], table(build, vm))


def reflected_agree(
    build: Callable[[ValueModule], Coeff],
    vm_b: ValueModule, vm_bstar: ValueModule,
    left: dict, right: dict, k: int, holds: str, fails: str,
) -> Verdict:
    w = boxes(vm_b)[0]
    r = vm_b.r
    lhs = mul_poly(scale_vars(built(build, vm_b), ones(r)), left)
    rhs = mul_monomial(mul_poly(invert_vars(built(build, vm_bstar)), right),
                       vec_sub(vm_b.gamma, ones(r)), gc_monomial(k))
    return series_agree(w, lhs, rhs, holds, fails)


def cell_poincare_bridge(vm: ValueModule) -> Verdict:
    w = boxes(vm)[0]
    lhs = mul_poly(built(series_cells, vm), poly_prod_t_minus_one(vm.r))
    rhs = mul_poly(scale_class(built(series_poincare, vm), GC_L_MINUS_1),
                   poly_weighted_shift_minus_one(vm.r, 0))
    return series_agree(w, lhs, rhs, f"bridge holds on {w.lo}..{w.hi}", "bridge mismatch")


def cell_functional_equation(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    r = d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    return reflected_agree(
        series_cells, vm_b, vm_bstar,
        {ones(r, 0): GC_ONE, ones(r): gc_int(-1)}, poly_weighted_shift_minus_one(r, d),
        m - d, f"both forms hold with factor exponent {m} - {d}", "cell-series form fails at {v}",
    )


def poincare_functional_equation(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    r = d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    detail = f"holds with factor exponent {m - d}"
    verdict = reflected_agree(
        series_poincare, vm_b, vm_bstar,
        poly_prod_t_minus_one(r), poly_prod_one_minus_L_t(r),
        m - d, detail, "functional equation fails at {v}",
    )
    if not verdict:
        return verdict
    if ring_like(vm_b) and vm_b.self_dual_by_lengths():
        detail += f"; ring-like case confirms m == delta == {m}"
    return Verdict(True, detail)


def proj_bridge_display(vm: ValueModule) -> Verdict:
    w = boxes(vm)[0]
    lhs = mul_poly(built(series_proj_poincare, vm), poly_weighted_shift_minus_one(vm.r, 0))
    rhs = mul_poly(built(series_proj_cells, vm), poly_prod_t_minus_one(vm.r))
    return series_agree(w, lhs, rhs, f"display bridge holds on {w.lo}..{w.hi}",
                        "display bridge mismatch")


# -- the pointwise rows, one class at a time ----------------------------------------


def proj_functional_equation(vm_b: ValueModule, vm_bstar: ValueModule, *, part: str) -> Verdict:
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    w = default_window(vm_b)
    d = vm_b.r
    base = vec_sub(vm_b.gamma, ones(d))
    build = series_proj_cells if part == "cells" else series_proj_poincare
    factor = gc_monomial(d - 1, 1 if part == "cells" else -((-1) ** d))
    ser_b, ser_s = table(build, vm_b), table(build, vm_bstar)

    def residual(v: Vec) -> GrothendieckClass:
        return gc_add(ser_b[vec_sub(base, v)], gc_mul(factor, gc_invert_L(ser_s[v])))

    first = residual(w[0])
    if part == "poincare":
        return _agree(w, residual, lambda v: first, "poincare residual constant",
                      "poincare residual is not constant at {v}")
    verdict = _agree(w, residual, lambda v: first,
                     "cell residual constant and equal to (L^d - 1)/(L - 1)",
                     "cell residual is not constant at {v}")
    if verdict and first != _proj_class(d):
        return Verdict(
            False, "cell residual constant differs from (L^d - 1)/(L - 1)", witness=(first,)
        )
    return verdict


def proj_affine_bridge(vm: ValueModule) -> Verdict:
    one = ones(vm.r)
    ph, pg = table(series_proj_poincare, vm), table(series_poincare, vm)
    return _agree(default_window(vm),
                  lambda v: gc_mul(ph[v], gc_monomial(vm.deg_J(vec_add(v, one)))),
                  pg.__getitem__, "affine bridge holds pointwise", "affine bridge fails at {v}")


def proj_support(vm: ValueModule) -> Verdict:
    ph = table(series_proj_poincare, vm)
    return _agree(default_window(vm), ph.__getitem__,
                  lambda v: ph[v] if vm.member(v) else GC_ZERO,
                  "support contained in the value set", "nonzero coefficient over a non-member {v}")
