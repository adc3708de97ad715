"""Windowed generating series of a value module and their identities.

Five series are built from a ValueModule's degree and jump data:

* series_degrees    -- coefficient L^(deg of the v-th filtration step)
* series_cells      -- class of the step minus the next step (affine cells)
* series_poincare   -- the (L-1)-divided inclusion-exclusion series
* series_proj_cells -- classes of projectivized steps, (L^c(v) - 1)/(L - 1)
* series_proj_poincare -- alternating projectivized version

The verify_* functions re-check the structural identities tying the series
to each other and to a dual module, each as an exact coefficient-by-
coefficient comparison on an explicit window.  They report a Verdict; they
never assume an identity to build data.  Two display-shaped identities are
known to fail (see the README's deviations table): the projectivized bridge
in verify_proj_bridge_display, and the constancy clause of the projectivized
Poincare functional equation for two or more branches.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import SingvalError, WindowNotCovered
from .lattice import (
    Vec,
    Window,
    WindowSeries,
    ones,
    vec_add,
    vec_sub,
    ws_build,
    ws_eq_on,
    ws_invert_vars,
    ws_mul_monomial,
    ws_mul_poly,
    ws_scale_class,
    ws_scale_vars,
)
from .lefschetz import (
    GC_ONE,
    GC_ZERO,
    GrothendieckClass,
    gc_add,
    gc_div_exact,
    gc_eval_rational,
    gc_int,
    gc_invert_L,
    gc_monomial,
    gc_mul,
)
from .valuemodule import ValueModule, Verdict, ring_like

GC_L_MINUS_1 = GrothendieckClass({1: 1, 0: -1})


def _subsets(r: int):
    """(sign, indicator vector) for every subset of the r axes."""
    for mask in range(1 << r):
        ind = tuple(1 if mask >> i & 1 else 0 for i in range(r))
        yield (-1) ** sum(ind), ind


# -- polynomial multipliers ----------------------------------------------------


def poly_prod_t_minus_one(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (t_i - 1) over all axes."""
    return {ind: gc_int((-1) ** (r - sum(ind))) for _, ind in _subsets(r)}


def poly_full_shift_minus_one(r: int) -> dict[Vec, GrothendieckClass]:
    """t_1 ... t_r - 1."""
    return {ones(r): GC_ONE, ones(r, 0): gc_int(-1)}


def poly_weighted_shift_minus_one(r: int, d: int) -> dict[Vec, GrothendieckClass]:
    """L^d t_1 ... t_r - 1."""
    return {ones(r): gc_monomial(d), ones(r, 0): gc_int(-1)}


def poly_prod_one_minus_L_t(r: int) -> dict[Vec, GrothendieckClass]:
    """The product of (1 - L t_i) over all axes."""
    return {ind: gc_monomial(sum(ind), sign) for sign, ind in _subsets(r)}


# -- series builders -----------------------------------------------------------


def series_degrees(vm: ValueModule, w: Window) -> WindowSeries:
    """Coefficient at v: L raised to the degree of the v-th filtration step."""
    return ws_build(w, lambda v: gc_monomial(vm.deg_J(v)))


def series_cells(vm: ValueModule, w: Window) -> WindowSeries:
    """Coefficient at v: class of step v minus class of step v + 1."""
    one = ones(vm.r)
    return ws_build(
        w,
        lambda v: gc_add(
            gc_monomial(vm.deg_J(v)), gc_monomial(vm.deg_J(vec_add(v, one)), -1)
        ),
    )


def series_poincare(vm: ValueModule, w: Window) -> WindowSeries:
    """Coefficient at v: inclusion-exclusion over the axis shifts, divided
    exactly by L - 1.  Vanishes outside the value set."""

    def coeff(v: Vec) -> GrothendieckClass:
        acc = GC_ZERO
        for sign, ind in _subsets(vm.r):
            acc = gc_add(acc, gc_monomial(vm.deg_J(vec_add(v, ind)), sign))
        return gc_div_exact(acc, GC_L_MINUS_1)

    return ws_build(w, coeff)


def _proj_class(g: int) -> GrothendieckClass:
    """(L^g - 1)/(L - 1), the class of a projective space of dimension g - 1."""
    return gc_div_exact(gc_add(gc_monomial(g), gc_int(-1)), GC_L_MINUS_1)


def series_proj_cells(vm: ValueModule, w: Window) -> WindowSeries:
    """Coefficient at v: (L^c(v) - 1)/(L - 1), the projectivized step class."""
    return ws_build(w, lambda v: _proj_class(vm.c_total(v)))


def series_proj_poincare(vm: ValueModule, w: Window) -> WindowSeries:
    """Alternating sum of projectivized quotient classes along axis shifts."""
    one = ones(vm.r)

    def coeff(v: Vec) -> GrothendieckClass:
        top = vm.ell(vec_add(v, one))
        acc = GC_ZERO
        for sign, ind in _subsets(vm.r):
            piece = _proj_class(top - vm.ell(vec_add(v, ind)))
            acc = gc_add(acc, piece if sign > 0 else gc_mul(gc_int(-1), piece))
        return acc

    return ws_build(w, coeff)


def specialize(s: WindowSeries, q: int) -> dict[Vec, Fraction]:
    """Evaluate every coefficient at L = q (an integer >= 2); the window
    table of rationals."""
    return {v: gc_eval_rational(s.coeff(v), q) for v in s.window.points()}


# -- window policy -------------------------------------------------------------


def default_window(vm: ValueModule, pad: int = 2) -> Window:
    return Window(ones(vm.r, -pad), vec_add(vm.gamma, ones(vm.r, pad)))


def _resolve_window(vm: ValueModule, w: Window | None) -> Window:
    if w is None:
        w = default_window(vm)
    if w.r != vm.r:
        raise SingvalError(f"window rank {w.r} does not match the module rank {vm.r}")
    for i in range(vm.r):
        pts = w.hi[i] - w.lo[i] + 1
        if pts < vm.gamma[i] + 3:
            raise WindowNotCovered(
                f"axis {i} has {pts} points, the check needs at least {vm.gamma[i] + 3}; "
                "enlarge the window")
    return w


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


def _agree(w: Window, lhs: Callable[[Vec], object], rhs: Callable[[Vec], object],
           holds: str, fails: str) -> Verdict:
    """Compare lhs(v) with rhs(v) at every point of w in lex order.

    Fails at the first point v where they differ, with detail
    fails.format(v=v) and witness (v, lhs(v), rhs(v)).
    """
    for v in w.points():
        a, b = lhs(v), rhs(v)
        if a != b:
            return Verdict(False, fails.format(v=v), witness=(v, a, b))
    return Verdict(True, holds)


def _series_agree(w: Window, lhs: WindowSeries, rhs: WindowSeries,
                  holds: str, fails: str) -> Verdict:
    """_agree's verdict on two series' coefficients, compared by ws_eq_on;
    both must determine all of w."""
    v = ws_eq_on(lhs, rhs, w)
    if v is None:
        return Verdict(True, holds)
    return Verdict(False, fails.format(v=v), witness=(v, lhs.coeff(v), rhs.coeff(v)))


def _constant(w: Window, residual: Callable[[Vec], GrothendieckClass],
              holds: str, fails: str) -> Verdict:
    """Is residual the same class at every point of w?  The witness pairs
    the first differing value with the value at the first point."""
    first = residual(w.lo)
    return _agree(w, residual, lambda v: first, holds, fails)


# -- identity checks -----------------------------------------------------------


def verify_cell_poincare_bridge(vm: ValueModule, w: Window | None = None) -> Verdict:
    """Cross-multiplied bridge between the cell series and the Poincare
    series: prod(t_i - 1) * cells == (t_1...t_r - 1) * (L - 1) * poincare.

    The (L - 1) scale on the Poincare side restores the exact-divisor that
    its coefficients carry; without it the two sides differ already for one
    branch.
    """
    w = _resolve_window(vm, w)
    pad = Window(vec_sub(w.lo, ones(vm.r)), w.hi)
    lhs = ws_mul_poly(series_cells(vm, pad), poly_prod_t_minus_one(vm.r))
    rhs = ws_mul_poly(
        ws_scale_class(series_poincare(vm, pad), GC_L_MINUS_1),
        poly_full_shift_minus_one(vm.r),
    )
    return _series_agree(w, lhs, rhs, f"bridge holds on {w.lo}..{w.hi}", "bridge mismatch")


def verify_degree_duality(
    vm_b: ValueModule, vm_bstar: ValueModule, w: Window | None = None
) -> Verdict:
    """Degree pairing between a module and its dual:

        v . d + deg_J_b(v) == ell_b(gamma) + deg_J_bstar(gamma - v)

    for every v in the window, with gamma the (shared) conductor.  Needs
    both deg offsets on the same degree scale, which value_set provides.
    """
    bad_pair = _pair_check(vm_b, vm_bstar)
    if bad_pair is not None:
        return bad_pair
    w = _resolve_window(vm_b, w)
    gamma = vm_b.gamma
    m = vm_b.ell(gamma)
    return _agree(
        w,
        lambda v: sum(v) + vm_b.deg_J(v),
        lambda v: m + vm_bstar.deg_J(vec_sub(gamma, v)),
        f"degree pairing holds with constant {m}",
        "degree pairing fails at {v}",
    )


def verify_cell_functional_equation(
    vm_b: ValueModule, vm_bstar: ValueModule, w: Window | None = None
) -> Verdict:
    """Functional equation for the cell series under t_i -> L t_i.

    Checked twice: once at the degree-series level,

        degrees_b(L^d o t) == L^m t^gamma degrees_bstar(1/t),

    and once at the cell level in cross-multiplied form,

        (1 - t_1...t_r) * cells_b(L^d o t)
            == (L^d t_1...t_r - 1) * L^(m-d) * t^(gamma-1) * cells_bstar(1/t),

    where m = ell_b(gamma) and d = r is the total residue degree.
    """
    bad_pair = _pair_check(vm_b, vm_bstar)
    if bad_pair is not None:
        return bad_pair
    w = _resolve_window(vm_b, w)
    r = vm_b.r
    gamma = vm_b.gamma
    d = r
    m = vm_b.ell(gamma)

    lhs_a = ws_scale_vars(series_degrees(vm_b, w), ones(r))
    refl = Window(vec_sub(gamma, w.hi), vec_sub(gamma, w.lo))
    rhs_a = ws_mul_monomial(
        ws_invert_vars(series_degrees(vm_bstar, refl)), gamma, gc_monomial(m)
    )
    holds = f"both forms hold with factor exponent {m} - {d}"
    verdict = _series_agree(w, lhs_a, rhs_a, holds, "degree-series form fails at {v}")
    if not verdict:
        return verdict

    pad = Window(vec_sub(w.lo, ones(r)), w.hi)
    minus_full = {ones(r, 0): GC_ONE, ones(r): gc_int(-1)}
    lhs_c = ws_mul_poly(ws_scale_vars(series_cells(vm_b, pad), ones(r)), minus_full)
    refl_pad = Window(vec_sub(vec_sub(gamma, ones(r)), w.hi), vec_sub(gamma, w.lo))
    rhs_c = ws_mul_poly(
        ws_mul_monomial(
            ws_invert_vars(series_cells(vm_bstar, refl_pad)),
            vec_sub(gamma, ones(r)),
            gc_monomial(m - d),
        ),
        poly_weighted_shift_minus_one(r, d),
    )
    return _series_agree(w, lhs_c, rhs_c, holds, "cell-series form fails at {v}")


def verify_poincare_functional_equation(
    vm_b: ValueModule, vm_bstar: ValueModule, w: Window | None = None
) -> Verdict:
    """Functional equation for the Poincare series, cross-multiplied:

        prod(t_i - 1) * poincare_b(L^d o t)
            == L^(m-d) * t^(gamma-1) * prod(1 - L t_i) * poincare_bstar(1/t).

    When the module is ring-like and length-wise self-dual the factor
    exponent m - d coincides with delta - d (checked as a side assertion).
    """
    bad_pair = _pair_check(vm_b, vm_bstar)
    if bad_pair is not None:
        return bad_pair
    w = _resolve_window(vm_b, w)
    r = vm_b.r
    gamma = vm_b.gamma
    d = r
    m = vm_b.ell(gamma)

    pad = Window(vec_sub(w.lo, ones(r)), w.hi)
    lhs = ws_mul_poly(
        ws_scale_vars(series_poincare(vm_b, pad), ones(r)),
        poly_prod_t_minus_one(r),
    )
    refl_pad = Window(vec_sub(vec_sub(gamma, ones(r)), w.hi), vec_sub(gamma, w.lo))
    rhs = ws_mul_monomial(
        ws_mul_poly(
            ws_invert_vars(series_poincare(vm_bstar, refl_pad)),
            poly_prod_one_minus_L_t(r),
        ),
        vec_sub(gamma, ones(r)),
        gc_monomial(m - d),
    )
    detail = f"holds with factor exponent {m - d}"
    verdict = _series_agree(w, lhs, rhs, detail, "functional equation fails at {v}")
    if not verdict:
        return verdict
    if ring_like(vm_b) and vm_b.self_dual_by_lengths():
        delta = sum(gamma) - m
        if m != delta:
            return Verdict(
                False,
                f"ring-like self-dual module has m = {m} but delta = {delta}",
                witness=(m, delta),
            )
        detail += f"; ring-like case confirms m == delta == {delta}"
    return Verdict(True, detail)


def verify_jump_duality(
    vm_b: ValueModule, vm_bstar: ValueModule, w: Window | None = None
) -> Verdict:
    """Jump counts of the dual from the module itself:

        c_bstar(v) == d - c_b(gamma - v - 1)   (total), and
        c_bstar(v, i) == 1 - c_b(gamma - v - 1_i, i)   (per axis).

    The total form is checked on the whole window first, then each axis.
    """
    bad_pair = _pair_check(vm_b, vm_bstar)
    if bad_pair is not None:
        return bad_pair
    w = _resolve_window(vm_b, w)
    d = vm_b.r
    verdict = _agree(
        w,
        vm_bstar.c_total,
        lambda v: d - vm_b.mirror(v)[1],
        "total and per-axis jump duality hold",
        "total jump duality fails at {v}",
    )
    for i in range(vm_b.r):
        if verdict:
            verdict = _agree(
                w,
                lambda v: vm_bstar.c_partial(v, i),
                lambda v: 1 - vm_b.mirror(v, i)[1],
                verdict.detail,
                f"axis {i} jump duality fails at {{v}}",
            )
    return verdict


def verify_proj_functional_equation(
    vm_b: ValueModule, vm_bstar: ValueModule, w: Window | None = None, *, part: str,
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
    bad_pair = _pair_check(vm_b, vm_bstar)
    if bad_pair is not None:
        return bad_pair
    w = _resolve_window(vm_b, w)
    r = vm_b.r
    d = r
    base = vec_sub(vm_b.gamma, ones(r))
    reflected = Window(vec_sub(base, w.hi), vec_sub(base, w.lo))
    build = series_proj_cells if part == "cells" else series_proj_poincare
    factor = gc_monomial(d - 1, 1 if part == "cells" else -((-1) ** r))
    ser_b = build(vm_b, reflected)
    ser_s = build(vm_bstar, w)

    def residual(v: Vec) -> GrothendieckClass:
        return gc_add(ser_b.coeff(vec_sub(base, v)),
                      gc_mul(factor, gc_invert_L(ser_s.coeff(v))))

    if part == "poincare":
        return _constant(w, residual, "poincare residual constant",
                         "poincare residual is not constant at {v}")
    verdict = _constant(w, residual, "cell residual constant and equal to (L^d - 1)/(L - 1)",
                        "cell residual is not constant at {v}")
    first = residual(w.lo)
    if verdict and first != _proj_class(d):
        return Verdict(
            False, "cell residual constant differs from (L^d - 1)/(L - 1)", witness=(first,)
        )
    return verdict


def verify_proj_bridge_display(vm: ValueModule, w: Window | None = None) -> Verdict:
    """Display-shaped bridge (t_1...t_r - 1) * proj_poincare == prod(t_i - 1)
    * proj_cells.  True for one branch; fails for two or more (a known
    defect of the display; kept verbatim and reported, never used)."""
    w = _resolve_window(vm, w)
    pad = Window(vec_sub(w.lo, ones(vm.r)), w.hi)
    lhs = ws_mul_poly(series_proj_poincare(vm, pad), poly_full_shift_minus_one(vm.r))
    rhs = ws_mul_poly(series_proj_cells(vm, pad), poly_prod_t_minus_one(vm.r))
    return _series_agree(w, lhs, rhs, f"display bridge holds on {w.lo}..{w.hi}",
                         "display bridge mismatch")


def verify_proj_affine_bridge(vm: ValueModule, w: Window | None = None) -> Verdict:
    """Pointwise bridge that does hold for every branch count:

        proj_poincare(v) * L^(deg_J(v + 1)) == poincare(v).
    """
    w = _resolve_window(vm, w)
    one = ones(vm.r)
    ph = series_proj_poincare(vm, w)
    pg = series_poincare(vm, w)
    return _agree(
        w,
        lambda v: gc_mul(ph.coeff(v), gc_monomial(vm.deg_J(vec_add(v, one)))),
        pg.coeff,
        "affine bridge holds pointwise",
        "affine bridge fails at {v}",
    )


def verify_proj_support(vm: ValueModule, w: Window | None = None) -> Verdict:
    """Nonzero projectivized Poincare coefficients only over members."""
    w = _resolve_window(vm, w)
    ph = series_proj_poincare(vm, w)
    for v in w.points():
        if not ph.coeff(v).is_zero() and not vm.member(v):
            return Verdict(False, f"nonzero coefficient over a non-member {v}", witness=(v,))
    return Verdict(True, "support contained in the value set")


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
