"""Generating series of a value module and their identities.

Five series are built from a ValueModule's degree and jump data, each as
its coefficient function v -> GrothendieckClass:

* series_degrees    -- coefficient L^(deg of the v-th filtration step)
* series_cells      -- class of the step minus the next step (affine cells)
* series_poincare   -- the (L-1)-divided inclusion-exclusion series
* series_proj_cells -- classes of projectivized steps, (L^c(v) - 1)/(L - 1)
* series_proj_poincare -- alternating projectivized version

The verify_* functions re-check the structural identities tying the series
to each other and to a dual module, each exactly on the one window
[-2, gamma + 2]: series products on flat tables of packed ints that _table
reads off ell, degrees and jumps point by point.  They report a Verdict; they
never assume an identity to build data.  Two display-shaped identities are
known to fail (see the README's deviations table): the projectivized bridge
in verify_proj_bridge_display, and the constancy clause of the projectivized
Poincare functional equation for two or more branches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from typing import Callable

from .errors import EnumerationTooLarge, NotDivisible, SingvalError
from .lattice import Vec, iter_box, ones, vec_add, vec_sub
from .lefschetz import (
    DIGIT_BITS,
    GC_ZERO,
    GrothendieckClass,
    gc_add,
    gc_div_exact,
    gc_int,
    gc_monomial,
    gc_unpack,
)
from .valuemodule import ValueModule, Verdict, ring_like

GC_L_MINUS_1 = GrothendieckClass({1: 1, 0: -1})
Coeff = Callable[[Vec], GrothendieckClass]
Packed = tuple[int, list[int]]  # (e0, one int per point of a flat box, digits from L^e0 up)
TABLES_KEPT = 64  # series tables _table keeps; a verify run reads six per module
_ells = lru_cache(maxsize=TABLES_KEPT)(ValueModule.ells)  # keyed by the module's content


def _subsets(r: int):
    """(sign, indicator vector) for every subset of the r axes."""
    for mask in range(1 << r):
        ind = tuple(1 if mask >> i & 1 else 0 for i in range(r))
        yield (-1) ** sum(ind), ind


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


def _box(vm: ValueModule):
    """[-3, gamma + 2]: the window one lower per axis, a multiplier's reach."""
    return iter_box(ones(vm.r, -3), vec_add(vm.gamma, ones(vm.r, 2)))


@lru_cache(maxsize=TABLES_KEPT)
def _grid(gamma: Vec) -> tuple[list[int], ...]:
    """The flat _box in iter_box order (last axis fastest): each axis's stride,
    the flat indices of the window in lex order, and |v| at every point; then
    the strides of the flat [-3, gamma + 3] of _ells(vm, 3), and where _box sits in it."""
    strides, win, deg, wide, keep = [], [0], [0], [], [0]
    for g in gamma:
        n = g + 6
        strides, wide = [s * n for s in strides] + [1], [s * (n + 1) for s in wide] + [1]
        win = [i * n + c for i in win for c in range(1, n)]
        keep = [i * (n + 1) + c for i in keep for c in range(n)]
        deg = [d + c for d in deg for c in range(-3, g + 3)]
    return strides, win, deg, wide, keep


def _incl_excl(ell: list[int], strides: list[int]) -> list[int]:
    """K(u) = sum over the axis subsets S of (-1)^|S| B^(r + ell(u) - ell(u + 1_S)),
    B = 2^W, in r passes K(u) <- B K(u) - B^(1 - j) K(u + e_k), j the 0/1 jump
    of ell along e_k: at most 2r + 1 digits.  The & 3 only bounds the shift
    where u + e_k wraps into the next flat row, which no _box point reads."""
    w, k = DIGIT_BITS, [1] * len(ell)
    for s in strides:
        k = [(a << w) - (b << w * ((1 + la - lb) & 3))
             for a, b, la, lb in zip(k, k[s:], ell, ell[s:])]
    return k


@lru_cache(maxsize=TABLES_KEPT)
def _table(series: str, vm: ValueModule, invert: bool = False) -> Packed:
    """series_<series>(vm) on _box(vm) as packed ints (with invert, L -> 1/L
    of a projectivized one), read off _ells(vm, 3) and keyed by the module's
    content; rows only read it.  With a = ell(v), b = ell(v + 1), m the
    largest ell and Q = K/(B - 1), K from _incl_excl (its 2^r signs sum to 0):
    cells B^(m - a) - B^(m - b) and poincare Q B^(m - r - a) from L^(deg_offset - m);
    proj_cells P_(b - a) = (B^(b - a) - 1)/(B - 1) and proj_poincare
    Q/B^(r - b + a) from L^0; inverted, from L^(1 - r), P_g B^(r - g) and
    -Q/B^(b - a), K taken on -ell.  b - a is c_total(v) on the good tables
    verify sees.  Certificate: every coefficient is a partial sum of at most
    2^r signs, so |c| <= 2^(r - 1), and a row side sums at most 2^(r + 1) of
    them: 2r + 4 <= DIGIT_BITS keeps every digit below 2^(W - 1)."""
    r, w = vm.r, DIGIT_BITS
    if (need := 2 * r + 4) > w:
        raise EnumerationTooLarge(f"series table series_{series}: coefficients need {need} "
                                  f"bits per packed digit, above the bound of {w}")
    assert not invert or series.startswith("proj_"), f"no inverted series_{series} table"
    ell, (*_, strides, keep) = _ells(vm, 3), _grid(vm.gamma)
    top, m = sum(strides), ell[-1]
    ab = [(ell[i], ell[i + top]) for i in keep]
    if series == "cells":
        return vm.deg_offset - m, [(1 << w * (m - a)) - (1 << w * (m - b)) for a, b in ab]
    if series == "proj_cells":
        ps = [((1 << w * g) - 1) // ((1 << w) - 1) for g in range(r + 1)]
        if invert:
            return 1 - r, [ps[b - a] << w * (r - b + a) for a, b in ab]
        return 0, [ps[b - a] for a, b in ab]
    ks = _incl_excl([-x for x in ell] if invert else ell, strides)
    qs, rems = zip(*(divmod(ks[i], (1 << w) - 1) for i in keep))
    if any(rems):
        raise NotDivisible(f"a series_{series} entry is not divisible by L - 1")
    if series == "poincare":
        return vm.deg_offset - m, [q << w * (m - r - a) for q, (a, _) in zip(qs, ab)]
    if invert:
        return 1 - r, [-q >> w * (b - a) for q, (a, b) in zip(qs, ab)]
    return 0, [q >> w * (r - b + a) for q, (a, b) in zip(qs, ab)]


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


def _compare(vm: ValueModule, lhs: Packed, rhs: Packed, holds: str, fails: str) -> Verdict:
    """_agree for packed sides on the window, aligned at the lower e0; the
    witness decodes both at the first point that differs."""
    (ea, a), (eb, b) = lhs, rhs
    sa, sb = DIGIT_BITS * (ea - min(ea, eb)), DIGIT_BITS * (eb - min(ea, eb))
    for v, i in zip(iter_box(*default_window(vm)), _grid(vm.gamma)[1]):
        if a[i] << sa != b[i] << sb:
            return Verdict(False, fails.format(v=v),
                           witness=(v, gc_unpack(a[i], ea), gc_unpack(b[i], eb)))
    return Verdict(True, holds)


def _step(side: Packed, s: int, c: int = 0, sign: int = 1) -> Packed:
    """sign * (L^c t^u - 1) * side, t^u moving entries s flat positions on:
    exact wherever the predecessor lies in the box, as on the window."""
    e0, xs = side
    k = DIGIT_BITS * c
    prev = chain(repeat(0, s), xs)
    if sign > 0:
        return e0, [(b << k) - a for a, b in zip(xs, prev)]
    return e0, [a - (b << k) for a, b in zip(xs, prev)]


def _axes(side: Packed, vm: ValueModule, c: int = 0, sign: int = 1) -> Packed:
    """prod_i sign * (L^c t_i - 1) * side: r passes, not 2^r terms per point."""
    for s in _grid(vm.gamma)[0]:
        side = _step(side, s, c, sign)
    return side


def _reflected(
    series: str, vm_b: ValueModule, vm_bstar: ValueModule,
    left: Callable[[Packed], Packed], right: Callable[[Packed], Packed],
    k: int, holds: str, fails: str,
) -> Verdict:
    """left(S_b(L o t)) == L^k t^(gamma - 1) right(S_bstar(1/t)) on the window,
    S = series_<series>.  S_b(L o t) has L^|x| S_b(x): each entry moves up |x| + 3r >= 0
    digits.  t^(gamma - 1) S_bstar(1/t) has S_bstar(gamma - 1 - x), and
    x -> gamma - 1 - x maps the box onto itself: the flat table reversed."""
    (e0, xs), (f0, ys) = _table(series, vm_b), _table(series, vm_bstar)
    r3 = 3 * vm_b.r
    lhs = left((e0 - r3, [x << DIGIT_BITS * (d + r3) for x, d in zip(xs, _grid(vm_b.gamma)[2])]))
    return _compare(vm_b, lhs, right((f0 + k, ys[::-1])), holds, fails)


# -- identity checks -----------------------------------------------------------


def verify_cell_poincare_bridge(vm: ValueModule) -> Verdict:
    """Cross-multiplied bridge between the cell series and the Poincare
    series: prod(t_i - 1) * cells == (t_1...t_r - 1) * (L - 1) * poincare.

    The (L - 1) scale on the Poincare side restores the exact-divisor that
    its coefficients carry; without it the two sides differ already for one
    branch.
    """
    w = default_window(vm)
    rhs = _step(_step(_table("poincare", vm), 0, 1), sum(_grid(vm.gamma)[0]))
    return _compare(vm, _axes(_table("cells", vm), vm), rhs,
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
    d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    total = sum(_grid(vm_b.gamma)[0])
    return _reflected(
        "cells", vm_b, vm_bstar,
        lambda side: _step(side, total, 0, -1), lambda side: _step(side, total, d),
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
    d = vm_b.r
    m = vm_b.ell(vm_b.gamma)
    detail = f"holds with factor exponent {m - d}"
    verdict = _reflected(
        "poincare", vm_b, vm_bstar,
        lambda side: _axes(side, vm_b), lambda side: _axes(side, vm_b, 1, -1),
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
    d, cells = vm_b.r, part == "cells"
    series = "proj_cells" if cells else "proj_poincare"
    # residual(v) = S_b(gamma - 1 - v) + sign L^(d - 1) invert_L(S_bstar(v)): the
    # reflection reverses the flat table, and both terms align at the lower exponent
    sign = 1 if cells else -((-1) ** d)
    (e0, xs), (f0, ys) = _table(series, vm_b), _table(series, vm_bstar, True)
    o = min(e0, f0 + d - 1)
    sa, sb = DIGIT_BITS * (e0 - o), DIGIT_BITS * (f0 + d - 1 - o)
    res = [(x << sa) + sign * (y << sb) for x, y in zip(reversed(xs), ys)]
    first = res[_grid(vm_b.gamma)[1][0]]
    verdict = _compare(vm_b, (o, res), (o, [first] * len(res)),
                       "cell residual constant and equal to (L^d - 1)/(L - 1)" if cells
                       else "poincare residual constant",
                       f"{'cell' if cells else 'poincare'} residual is not constant at {{v}}")
    if cells and verdict and (const := gc_unpack(first, o)) != _proj_class(d):
        return Verdict(
            False, "cell residual constant differs from (L^d - 1)/(L - 1)", witness=(const,)
        )
    return verdict


def verify_proj_bridge_display(vm: ValueModule) -> Verdict:
    """Display-shaped bridge (t_1...t_r - 1) * proj_poincare == prod(t_i - 1)
    * proj_cells.  True for one branch; fails for two or more (a known
    defect of the display; kept verbatim and reported, never used)."""
    w = default_window(vm)
    return _compare(vm, _step(_table("proj_poincare", vm), sum(_grid(vm.gamma)[0])),
                    _axes(_table("proj_cells", vm), vm),
                    f"display bridge holds on {w[0]}..{w[1]}", "display bridge mismatch")


def verify_proj_affine_bridge(vm: ValueModule) -> Verdict:
    """Pointwise bridge that does hold for every branch count:

        proj_poincare(v) * L^(deg_J(v + 1)) == poincare(v).
    """
    e0, ph = _table("proj_poincare", vm)
    ell, (*_, strides, keep) = _ells(vm, 3), _grid(vm.gamma)
    top, m = sum(strides), ell[-1]  # deg_J(v + 1) = deg_offset - ell[i + top]
    lhs = (e0 + vm.deg_offset - m, [x << DIGIT_BITS * (m - ell[i + top]) for x, i in zip(ph, keep)])
    return _compare(vm, lhs, _table("poincare", vm),
                    "affine bridge holds pointwise", "affine bridge fails at {v}")


def verify_proj_support(vm: ValueModule) -> Verdict:
    """Nonzero projectivized Poincare coefficients only over members."""
    e0, ph = _table("proj_poincare", vm)
    kept = [x if not x or vm.member(v) else 0 for x, v in zip(ph, _box(vm))]
    return _compare(vm, (e0, ph), (e0, kept), "support contained in the value set",
                    "nonzero coefficient over a non-member {v}")


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
