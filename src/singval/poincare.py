"""Generating series of a value module and their identities.

Five series are built from a ValueModule's degree and jump data, each as
its coefficient function v -> GrothendieckClass:

* series_degrees    -- coefficient L^(deg of the v-th filtration step)
* series_cells      -- class of the step minus the next step (affine cells)
* series_poincare   -- the (L-1)-divided inclusion-exclusion series
* series_proj_cells -- classes of projectivized steps, (L^c(v) - 1)/(L - 1)
* series_proj_poincare -- alternating projectivized version

The verify_* functions re-check the structural identities tying the series
to each other and to a dual module, each as an exact pointwise comparison
on the one window [-2, gamma + 2], a product read one coefficient at a time.
They report a Verdict; they never assume an identity to build data.  Two
display-shaped identities are known to fail (see the README's deviations table): the
projectivized bridge in verify_proj_bridge_display, and the constancy clause
of the projectivized Poincare functional equation for two or more branches.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

from .errors import SingvalError
from .lattice import Vec, iter_box, ones, vec_add, vec_sub
from .lefschetz import (
    GC_ONE,
    GC_ZERO,
    GrothendieckClass,
    gc_add,
    gc_div_exact,
    gc_int,
    gc_invert_L,
    gc_monomial,
    gc_mul,
)
from .valuemodule import ValueModule, Verdict, ring_like

GC_L_MINUS_1 = GrothendieckClass({1: 1, 0: -1})
Coeff = Callable[[Vec], GrothendieckClass]
TABLES_KEPT = 64  # series tables _table keeps; a verify run reads four per module


def _subsets(r: int):
    """(sign, indicator vector) for every subset of the r axes."""
    for mask in range(1 << r):
        ind = tuple(1 if mask >> i & 1 else 0 for i in range(r))
        yield (-1) ** sum(ind), ind


# -- polynomial multipliers ----------------------------------------------------


def poly_prod_t_minus_one(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (t_i - 1) over all axes."""
    return {ind: gc_int((-1) ** (r - sum(ind))) for _, ind in _subsets(r)}


def poly_weighted_shift_minus_one(r: int, d: int) -> dict[Vec, GrothendieckClass]:
    """L^d t_1 ... t_r - 1."""
    return {ones(r): gc_monomial(d), ones(r, 0): gc_int(-1)}


def poly_prod_one_minus_L_t(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (1 - L t_i) over all axes."""
    return {ind: gc_monomial(sum(ind), sign) for sign, ind in _subsets(r)}


# -- series builders -----------------------------------------------------------


def series_degrees(vm: ValueModule) -> Coeff:
    """Coefficient at v: L raised to the degree of the v-th filtration step."""
    return lambda v: gc_monomial(vm.deg_J(v))


def series_cells(vm: ValueModule) -> Coeff:
    """Coefficient at v: class of step v minus class of step v + 1."""
    one = ones(vm.r)
    return lambda v: gc_add(gc_monomial(vm.deg_J(v)), gc_monomial(vm.deg_J(vec_add(v, one)), -1))


def series_poincare(vm: ValueModule) -> Coeff:
    """Coefficient at v: inclusion-exclusion over the axis shifts, divided
    exactly by L - 1.  Vanishes outside the value set.  Reads only vm.r and
    vm.deg_J, so any object carrying those two serves as vm."""

    def coeff(v: Vec) -> GrothendieckClass:
        acc = GC_ZERO
        for sign, ind in _subsets(vm.r):
            acc = gc_add(acc, gc_monomial(vm.deg_J(vec_add(v, ind)), sign))
        return gc_div_exact(acc)

    return coeff


def _proj_class(g: int) -> GrothendieckClass:
    """(L^g - 1)/(L - 1), the class of a projective space of dimension g - 1."""
    return gc_div_exact(gc_add(gc_monomial(g), gc_int(-1)))


def series_proj_cells(vm: ValueModule) -> Coeff:
    """Coefficient at v: (L^c(v) - 1)/(L - 1), the projectivized step class."""
    return lambda v: _proj_class(vm.c_total(v))


def series_proj_poincare(vm: ValueModule) -> Coeff:
    """Alternating sum of projectivized quotient classes along axis shifts,
    sum of sign * (L^g - 1)/(L - 1) with g = ell(v + 1) - ell(v + 1_S) over
    the subsets S of the axes.  The 2^r signs sum to 0 for r >= 1, so the
    -1 terms cancel and the sum is (sum of sign * L^g)/(L - 1): one
    inclusion-exclusion of monomials and one exact division, as in
    series_poincare."""
    one = ones(vm.r)

    def coeff(v: Vec) -> GrothendieckClass:
        top = vm.ell(vec_add(v, one))
        acc = GC_ZERO
        for sign, ind in _subsets(vm.r):
            acc = gc_add(acc, gc_monomial(top - vm.ell(vec_add(v, ind)), sign))
        return gc_div_exact(acc)

    return coeff


# -- window policy -------------------------------------------------------------


def default_window(vm: ValueModule, pad: int = 2) -> tuple[Vec, Vec]:
    """The corners of [-pad, gamma + pad], never empty for pad >= 0."""
    return ones(vm.r, -pad), vec_add(vm.gamma, ones(vm.r, pad))


@lru_cache(maxsize=TABLES_KEPT)
def _table(build: Callable[[ValueModule], Coeff], vm: ValueModule) -> dict[Vec, GrothendieckClass]:
    """build(vm) at every point of [-3, gamma + 2]: the check window one point
    lower on every axis, the reach of a multiplier with support in {0, 1}^r.
    Keyed by the module's content, so equal modules share one table; rows
    only read it, and a read outside the box raises KeyError."""
    coeff = build(vm)
    return {v: coeff(v) for v in iter_box(ones(vm.r, -3), vec_add(vm.gamma, ones(vm.r, 2)))}


def _pair_check(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict | None:
    if vm_b.r != vm_bstar.r:
        raise SingvalError("the two modules live over different branch counts")
    if vm_b.gamma != vm_bstar.gamma:
        return Verdict(
            False,
            f"conductors differ: {vm_b.gamma} vs {vm_bstar.gamma}; the modules "
            "cannot be dual to each other",
            witness=(vm_b.gamma, vm_bstar.gamma),
        )
    return None


def _agree(w: tuple[Vec, Vec], lhs: Callable[[Vec], object], rhs: Callable[[Vec], object],
           holds: str, fails: str) -> Verdict:
    """Compare lhs(v) with rhs(v) at every point of the box w = (lo, hi) in lex order.

    Fails at the first point v where they differ, with detail
    fails.format(v=v) and witness (v, lhs(v), rhs(v)).
    """
    for v in iter_box(*w):
        a, b = lhs(v), rhs(v)
        if a != b:
            return Verdict(False, fails.format(v=v), witness=(v, a, b))
    return Verdict(True, holds)


def _times(poly: dict[Vec, GrothendieckClass], coeff: Coeff, v: Vec) -> GrothendieckClass:
    """The coefficient at v of poly * S, where coeff reads S."""
    acc = GC_ZERO
    for u, c in poly.items():
        acc = gc_add(acc, gc_mul(c, coeff(vec_sub(v, u))))
    return acc


def _reflected_agree(
    build: Callable[[ValueModule], Coeff],
    vm_b: ValueModule, vm_bstar: ValueModule,
    left: dict[Vec, GrothendieckClass], right: dict[Vec, GrothendieckClass],
    k: int, holds: str, fails: str,
) -> Verdict:
    """left * S_b(L o t) == L^k t^(gamma - 1) * right * S_bstar(1/t) on the
    window, with S = build read from both modules' tables.  At x, S_b(L o t)
    has L^|x| S_b(x), so the left side at v is L^|v| times the v-th coefficient
    of (L^-|u| left_u) * S_b; t^(gamma - 1) S_bstar(1/t) has S_bstar(gamma - 1 - x)."""
    s_b, s_bstar = _table(build, vm_b), _table(build, vm_bstar)
    base = vec_sub(vm_b.gamma, ones(vm_b.r))
    left = {u: gc_mul(gc_monomial(-sum(u)), c) for u, c in left.items()}
    right = {u: gc_mul(gc_monomial(k), c) for u, c in right.items()}
    return _agree(default_window(vm_b),
                  lambda v: gc_mul(gc_monomial(sum(v)), _times(left, s_b.__getitem__, v)),
                  partial(_times, right, lambda x: s_bstar[vec_sub(base, x)]), holds, fails)


# -- identity checks -----------------------------------------------------------


def verify_cell_poincare_bridge(vm: ValueModule) -> Verdict:
    """Cross-multiplied bridge between the cell series and the Poincare
    series: prod(t_i - 1) * cells == (t_1...t_r - 1) * (L - 1) * poincare.

    The (L - 1) scale on the Poincare side restores the exact-divisor that
    its coefficients carry; without it the two sides differ already for one
    branch.
    """
    w = default_window(vm)
    right = {u: gc_mul(GC_L_MINUS_1, c) for u, c in poly_weighted_shift_minus_one(vm.r, 0).items()}
    return _agree(w, partial(_times, poly_prod_t_minus_one(vm.r),
                             _table(series_cells, vm).__getitem__),
                  partial(_times, right, _table(series_poincare, vm).__getitem__),
                  f"bridge holds on {w[0]}..{w[1]}", "bridge mismatch")


def verify_degree_duality(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    """Degree pairing between a module and its dual:

        v . d + deg_J_b(v) == ell_b(gamma) + deg_J_bstar(gamma - v)

    for every v in the window, with gamma the (shared) conductor.  Needs
    both deg offsets on the same degree scale, which value_set provides.
    """
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    gamma = vm_b.gamma
    m = vm_b.ell(gamma)
    return _agree(
        default_window(vm_b),
        lambda v: sum(v) + vm_b.deg_J(v),
        lambda v: m + vm_bstar.deg_J(vec_sub(gamma, v)),
        f"degree pairing holds with constant {m}",
        "degree pairing fails at {v}",
    )


def verify_cell_functional_equation(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    """Functional equation for the cell series under t_i -> L t_i, in
    cross-multiplied form,

        (1 - t_1...t_r) * cells_b(L^d o t)
            == (L^d t_1...t_r - 1) * L^(m-d) * t^(gamma-1) * cells_bstar(1/t),

    where m = ell_b(gamma) and d = r is the total residue degree.  Its
    degree-series form, degrees_b(L^d o t) == L^m t^gamma degrees_bstar(1/t),
    compares the same exponents as verify_degree_duality on the same window,
    so that row checks it; the detail here still names both forms.
    """
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    r = d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    return _reflected_agree(
        series_cells, vm_b, vm_bstar,
        {ones(r, 0): GC_ONE, ones(r): gc_int(-1)}, poly_weighted_shift_minus_one(r, d),
        m - d, f"both forms hold with factor exponent {m} - {d}", "cell-series form fails at {v}",
    )


def verify_poincare_functional_equation(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    """Functional equation for the Poincare series, cross-multiplied:

        prod(t_i - 1) * poincare_b(L^d o t)
            == L^(m-d) * t^(gamma-1) * prod(1 - L t_i) * poincare_bstar(1/t).

    When the module is ring-like and length-wise self-dual the factor
    exponent m - d coincides with delta - d, which the detail records.
    """
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    r = d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    detail = f"holds with factor exponent {m - d}"
    verdict = _reflected_agree(
        series_poincare, vm_b, vm_bstar,
        poly_prod_t_minus_one(r), poly_prod_one_minus_L_t(r),
        m - d, detail, "functional equation fails at {v}",
    )
    if not verdict:
        return verdict
    if ring_like(vm_b) and vm_b.self_dual_by_lengths():
        # 2m = sum(gamma), so delta = sum(gamma) - m is m itself
        detail += f"; ring-like case confirms m == delta == {m}"
    return Verdict(True, detail)


def verify_jump_duality(vm_b: ValueModule, vm_bstar: ValueModule) -> Verdict:
    """Jump counts of the dual from the module itself:

        c_bstar(v) == d - c_b(gamma - v - 1)   (total), and
        c_bstar(v, i) == 1 - c_b(gamma - v - 1_i, i)   (per axis).

    The total form is checked on the whole window first, then each axis.
    """
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    w = default_window(vm_b)
    d = vm_b.r
    verdict = _agree(
        w,
        vm_bstar.c_total,
        lambda v: d - vm_b.mirror(v)[1],
        "total and per-axis jump duality hold",
        "total jump duality fails at {v}",
    )
    for i in range(vm_b.r):
        verdict = verdict and _agree(
            w,
            lambda v: vm_bstar.c_partial(v, i),
            lambda v: 1 - vm_b.mirror(v, i)[1],
            verdict.detail,
            f"axis {i} jump duality fails at {{v}}",
        )
    return verdict


def verify_proj_functional_equation(
    vm_b: ValueModule, vm_bstar: ValueModule, *, part: str,
) -> Verdict:
    """Functional equation for the projectivized series under L -> 1/L.

    Both sides are total functions of v; their difference is required to be
    the same class at every window point (the source formalism discards the
    constant, which equals (L^d - 1)/(L - 1) on the cell side).  `part`
    picks one of two, so callers can gate on them separately:

    * cells:    proj_cells_b(gamma - 1 - v) + L^(d-1) * invert_L(proj_cells_bstar(v))
                must be constant (and equal to (L^d - 1)/(L - 1));
    * poincare: proj_poincare_b(gamma - 1 - v)
                - (-1)^r L^(d-1) * invert_L(proj_poincare_bstar(v))
                must be constant.

    The poincare part genuinely fails for r >= 2 (see the deviations table);
    it is reported honestly rather than patched.
    """
    if part not in ("cells", "poincare"):
        raise SingvalError(f"unknown part {part!r}")
    if (bad_pair := _pair_check(vm_b, vm_bstar)) is not None:
        return bad_pair
    w = default_window(vm_b)
    r = vm_b.r
    d = r
    base = vec_sub(vm_b.gamma, ones(r))
    build = series_proj_cells if part == "cells" else series_proj_poincare
    factor = gc_monomial(d - 1, 1 if part == "cells" else -((-1) ** r))
    ser_b, ser_s = _table(build, vm_b), _table(build, vm_bstar)

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


def verify_proj_bridge_display(vm: ValueModule) -> Verdict:
    """Display-shaped bridge (t_1...t_r - 1) * proj_poincare == prod(t_i - 1)
    * proj_cells.  True for one branch; fails for two or more (a known
    defect of the display; kept verbatim and reported, never used)."""
    w = default_window(vm)
    ph, pc = _table(series_proj_poincare, vm), _table(series_proj_cells, vm)
    return _agree(w, partial(_times, poly_weighted_shift_minus_one(vm.r, 0), ph.__getitem__),
                  partial(_times, poly_prod_t_minus_one(vm.r), pc.__getitem__),
                  f"display bridge holds on {w[0]}..{w[1]}", "display bridge mismatch")


def verify_proj_affine_bridge(vm: ValueModule) -> Verdict:
    """Pointwise bridge that does hold for every branch count:

        proj_poincare(v) * L^(deg_J(v + 1)) == poincare(v).
    """
    w = default_window(vm)
    one = ones(vm.r)
    ph = _table(series_proj_poincare, vm)
    pg = _table(series_poincare, vm)
    return _agree(
        w,
        lambda v: gc_mul(ph[v], gc_monomial(vm.deg_J(vec_add(v, one)))),
        pg.__getitem__,
        "affine bridge holds pointwise",
        "affine bridge fails at {v}",
    )


def verify_proj_support(vm: ValueModule) -> Verdict:
    """Nonzero projectivized Poincare coefficients only over members."""
    w = default_window(vm)
    ph = _table(series_proj_poincare, vm)
    return _agree(
        w,
        ph.__getitem__,
        lambda v: ph[v] if vm.member(v) else GC_ZERO,
        "support contained in the value set",
        "nonzero coefficient over a non-member {v}",
    )


def verify_gorenstein_tail_identity(vm: ValueModule) -> Verdict:
    """For a ring-like, length-wise self-dual module:
    delta - d == ell(gamma - 1) - 1."""
    if not ring_like(vm):
        raise SingvalError("the tail identity applies to ring-like modules only")
    if not vm.self_dual_by_lengths():
        raise SingvalError("the tail identity applies to length-wise self-dual modules only")
    if any(g < 1 for g in vm.gamma):
        # gamma - 1 must stay inside the filtration's domain; a degenerate
        # conductor (regular staircase, r >= 2) genuinely breaks the identity.
        raise SingvalError("the tail identity needs the conductor at least 1 in every axis")
    gamma = vm.gamma
    d = vm.r
    delta = sum(gamma) - vm.ell(gamma)
    lhs = delta - d
    rhs = vm.ell(vec_sub(gamma, ones(vm.r))) - 1
    if lhs != rhs:
        return Verdict(False, f"tail identity fails: {lhs} != {rhs}", witness=(lhs, rhs))
    return Verdict(True, f"delta - d == {lhs}")
