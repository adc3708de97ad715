"""Series builders (coefficient functions of v) and the
duality/functional-equation verifiers."""

import importlib
import random
from fractions import Fraction
from math import comb

import pytest

from singval.algebra import dual, ring_ideal, value_set
from singval.cli import EXIT_INPUT, EXIT_RESOURCE, main
from singval.curve import BranchSeries, CurvePresentation
from singval.errors import EnumerationTooLarge, SingvalError
from singval import lefschetz, poincare
from singval.lattice import iter_box, vec_add
from singval.lefschetz import (GC_ONE, GC_ZERO, GrothendieckClass, gc_add, gc_div_exact,
                               gc_eval_rational, gc_int, gc_monomial, gc_mul, gc_unpack)
from singval.poincare import (
    GC_L_MINUS_1,
    _table,
    default_window,
    series_cells,
    series_degrees,
    series_poincare,
    series_proj_cells,
    series_proj_poincare,
    verify_cell_functional_equation,
    verify_cell_poincare_bridge,
    verify_degree_duality,
    verify_gorenstein_tail_identity,
    verify_jump_duality,
    verify_poincare_functional_equation,
    verify_proj_affine_bridge,
    verify_proj_bridge_display,
    verify_proj_functional_equation,
    verify_proj_support,
)
from singval.schemas import parse_value_module
from singval.valuemodule import ValueModule

import wsref
from conftest import CONCRETE, CORPUS, GORENSTEIN, ROOT, corrupt_entry
from randmod import wedge


def canonical_of(ci):
    if ci.canonical == "ring":
        return ring_ideal(ci.curve)
    return ci.ideals[ci.canonical]


def dual_table(ci, b):
    return value_set(dual(b, canonical_of(ci)))


# ------------------------------------------------------------ frozen series

def test_cusp_poincare_series(ring_vms):
    vm = ring_vms["cusp"]
    s = series_poincare(vm)
    want = {
        (-1,): GC_ZERO,
        (0,): gc_monomial(-1),
        (1,): GC_ZERO,
        (2,): gc_monomial(-2),
        (3,): gc_monomial(-3),
    }
    for v, cls in want.items():
        assert s(v) == cls, v
    assert gc_eval_rational(s((0,)), 2) == Fraction(1, 2)
    assert gc_eval_rational(s((2,)), 2) == Fraction(1, 4)
    assert gc_eval_rational(s((3,)), 2) == Fraction(1, 8)
    assert gc_eval_rational(s((1,)), 2) == 0


def test_cusp_degree_and_cell_series(ring_vms):
    vm = ring_vms["cusp"]
    a = series_degrees(vm)
    assert a((0,)) == GC_ONE
    assert a((1,)) == gc_monomial(-1)
    assert a((2,)) == gc_monomial(-1)
    assert a((3,)) == gc_monomial(-2)
    lg = series_cells(vm)
    assert lg((0,)) == gc_add(GC_ONE, gc_monomial(-1, -1))
    assert lg((1,)) == GC_ZERO
    assert lg((2,)) == gc_add(gc_monomial(-1), gc_monomial(-2, -1))


def test_cusp_projective_series(ring_vms):
    vm = ring_vms["cusp"]
    lhat = series_proj_cells(vm)
    assert lhat((0,)) == GC_ONE
    assert lhat((1,)) == GC_ZERO
    assert lhat((2,)) == GC_ONE


def test_poincare_vanishes_off_the_value_set(ideal_vms):
    for (name, iname), vm in ideal_vms.items():
        s = series_poincare(vm)
        for v in iter_box(*default_window(vm)):
            if not vm.member(v):
                assert s(v).is_zero(), (name, iname, v)


def test_evaluation_at_L_rejects_tiny_q(ring_vms, capsys):
    s = series_poincare(ring_vms["cusp"])
    with pytest.raises(SingvalError):
        gc_eval_rational(s((0,)), 1)
    assert main(["series", str(CORPUS / "cusp.json"), "--q", "1"]) == EXIT_INPUT
    assert "specialization needs q >= 2, got 1" in capsys.readouterr().err


# ---------------------------------------------------------- window policy

def test_default_window_pads_the_conductor(ring_vms):
    assert default_window(ring_vms["tacnode"]) == ((-2, -2), (4, 4))


def test_pair_check_gamma_mismatch(ring_vms):
    bad = verify_degree_duality(ring_vms["cusp"], ring_vms["e8"])
    assert not bad
    assert "conductors differ" in bad.detail


def test_pair_check_rank_mismatch(ring_vms):
    with pytest.raises(SingvalError):
        verify_degree_duality(ring_vms["cusp"], ring_vms["node"])


# ------------------------------------------------- single-module identities

def test_bridge_holds_on_corpus(ideal_vms):
    for key, vm in ideal_vms.items():
        assert verify_cell_poincare_bridge(vm), key


def test_affine_projective_bridge_holds_on_corpus(ideal_vms):
    for key, vm in ideal_vms.items():
        assert verify_proj_affine_bridge(vm), key


def test_projective_support_holds_on_corpus(ideal_vms):
    for key, vm in ideal_vms.items():
        assert verify_proj_support(vm), key


# ---------------------------------------------------------- pair identities

def test_duality_identities_hold_on_corpus(corpus, ideal_vms):
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        for iname in list(ci.ideals) + ["ring"]:
            b = ring_ideal(ci.curve) if iname == "ring" else ci.ideals[iname]
            vm_b = ideal_vms[(name, iname)]
            vm_bstar = dual_table(ci, b)
            key = (name, iname)
            assert verify_degree_duality(vm_b, vm_bstar), key
            assert verify_degree_duality(vm_bstar, vm_b), key
            assert verify_cell_functional_equation(vm_b, vm_bstar), key
            assert verify_poincare_functional_equation(vm_b, vm_bstar), key
            assert verify_jump_duality(vm_b, vm_bstar), key
            assert verify_proj_functional_equation(vm_b, vm_bstar, part="cells"), key


def test_pair_checks_reject_a_wrong_dual(ring_vms):
    # the 3-4-5 ring is not Gorenstein, so it is not its own dual even though
    # the conductors agree: every pair check must fail, at its first bad point
    vm = ring_vms["semigroup345"]
    degree = verify_degree_duality(vm, vm)
    assert not degree
    assert degree.detail == "degree pairing fails at (2,)"
    assert degree.witness == ((2,), 1, 0)
    cells = verify_cell_functional_equation(vm, vm)
    assert not cells
    # its degree-series form is the degree pairing above, checked by that row
    assert cells.detail == "cell-series form fails at (1,)"
    assert cells.witness == ((1,), gc_add(gc_monomial(-1), gc_int(-1)), GC_ZERO)
    poincare = verify_poincare_functional_equation(vm, vm)
    assert not poincare
    assert poincare.detail == "functional equation fails at (1,)"
    assert poincare.witness == ((1,), gc_monomial(-1), GC_ZERO)
    jumps = verify_jump_duality(vm, vm)
    assert not jumps
    assert jumps.detail == "total jump duality fails at (1,)"
    assert jumps.witness == ((1,), 0, 1)
    proj = verify_proj_functional_equation(vm, vm, part="cells")
    assert not proj
    assert proj.detail == "cell residual is not constant at (1,)"
    assert proj.witness == ((1,), GC_ZERO, GC_ONE)


@pytest.mark.parametrize("r", [2, 3])
def test_ring_paired_with_itself_for_several_branches(ring_vms, r):
    # the node (r = 2) and the ordinary triple point (r = 3) are Gorenstein:
    # every pair check passes except the projectivized Poincare equation,
    # whose first witness is pinned here along with the display bridge's
    vm = ring_vms["node"] if r == 2 else value_set(ring_ideal(_ordinary_point(3)))
    for verdict in [verify_degree_duality(vm, vm),
                    verify_cell_functional_equation(vm, vm),
                    verify_poincare_functional_equation(vm, vm),
                    verify_jump_duality(vm, vm),
                    verify_proj_functional_equation(vm, vm, part="cells")]:
        assert verdict, verdict.detail
    display = verify_proj_bridge_display(vm)
    assert not display
    assert display.detail == "display bridge mismatch"
    assert display.witness == ((1,) * r, gc_add(gc_int(r), gc_monomial(1, -1)),
                               gc_monomial(1, r - 1))
    proj = verify_proj_functional_equation(vm, vm, part="poincare")
    assert not proj
    bad = (-2,) * (r - 1) + (0,)
    assert proj.detail == f"poincare residual is not constant at {bad}"
    rhs = GC_L_MINUS_1 if r == 2 else gc_mul(GC_L_MINUS_1, GC_L_MINUS_1)
    assert proj.witness == (bad, GC_ZERO, rhs)


def test_degree_duality_constant_is_the_first_arguments_length(corpus, ideal_vms):
    ci = corpus["semigroup345"].curve_input
    vm_ring = ideal_vms[("semigroup345", "ring")]
    vm_can = ideal_vms[("semigroup345", "can")]
    fwd = verify_degree_duality(vm_ring, vm_can)
    rev = verify_degree_duality(vm_can, vm_ring)
    assert fwd and rev
    assert f"constant {vm_ring.ell(vm_ring.gamma)}" in fwd.detail
    assert f"constant {vm_can.ell(vm_can.gamma)}" in rev.detail


def test_poincare_fe_confirms_delta_for_ring_like(ring_vms):
    verdict = verify_poincare_functional_equation(ring_vms["e8"], ring_vms["e8"])
    assert verdict
    assert "m == delta == 4" in verdict.detail


# ------------------------------------------------------- documented defects

def with_branches(rand_mods, one):
    """The random staircases with r == 1 (one) or r >= 2, at least 40 of them."""
    mods = [vm for vm in rand_mods if (vm.r == 1) == one]
    assert len(mods) >= 40
    return mods


def test_projective_fe_series_form_fails_for_two_branches(ring_vms, rand_mods):
    # the residual comparison is not constant once r >= 2; see the README
    # deviations table for the one-coefficient witness
    for name in ["node", "tacnode"]:
        vm = ring_vms[name]
        verdict = verify_proj_functional_equation(vm, vm, part="poincare")
        assert not verdict, name
        bad, lhs, rhs = verdict.witness
        assert bad == (-2, 0)
        assert lhs.is_zero()
        assert rhs == GC_L_MINUS_1
    # and on every random table with two branches, against its profile dual
    for vm in with_branches(rand_mods, one=False):
        assert not verify_proj_functional_equation(vm, vm.dual_from_jump_profile(),
                                                   part="poincare"), vm


def test_projective_fe_series_form_holds_for_one_branch(corpus, ring_vms, rand_mods):
    vm = ring_vms["cusp"]
    assert verify_proj_functional_equation(vm, vm, part="poincare")
    ci = corpus["semigroup345"].curve_input
    vm_b = ring_vms["semigroup345"]
    vm_bstar = dual_table(ci, ring_ideal(ci.curve))
    assert verify_proj_functional_equation(vm_b, vm_bstar, part="poincare")
    for vm in with_branches(rand_mods, one=True):
        assert verify_proj_functional_equation(vm, vm.dual_from_jump_profile(),
                                               part="poincare"), vm


def test_projective_display_bridge_fails_for_two_branches(ring_vms, rand_mods):
    verdict = verify_proj_bridge_display(ring_vms["node"])
    assert not verdict
    bad, lhs, rhs = verdict.witness
    assert bad == (1, 1)
    assert lhs == gc_add(gc_int(2), gc_monomial(1, -1))
    assert rhs == gc_monomial(1)
    for vm in with_branches(rand_mods, one=False):
        assert not verify_proj_bridge_display(vm), vm


def test_projective_display_bridge_holds_for_one_branch(ring_vms, rand_mods):
    for name in ["cusp", "e8", "semigroup345"]:
        assert verify_proj_bridge_display(ring_vms[name]), name
    for vm in with_branches(rand_mods, one=True):
        assert verify_proj_bridge_display(vm), vm


def test_projective_fe_rejects_unknown_part(ring_vms):
    with pytest.raises(SingvalError):
        verify_proj_functional_equation(ring_vms["cusp"], ring_vms["cusp"], part="affine")


# ----------------------------------------------------------- tail identity

def test_tail_identity_on_gorenstein_rings(ring_vms):
    for name, residue in [("cusp", 0), ("e8", 3), ("node", -1), ("tacnode", 0)]:
        vm = ring_vms[name]
        if any(g < 1 for g in vm.gamma):
            with pytest.raises(SingvalError):
                verify_gorenstein_tail_identity(vm)
            continue
        verdict = verify_gorenstein_tail_identity(vm)
        assert verdict, name
        assert str(residue) in verdict.detail


def test_tail_identity_refuses_inapplicable_modules(ring_vms, ideal_vms):
    with pytest.raises(SingvalError):
        verify_gorenstein_tail_identity(ring_vms["semigroup345"])
    with pytest.raises(SingvalError):
        verify_gorenstein_tail_identity(ideal_vms[("semigroup345", "can")])


# ---------------------------------------------------- corruption detection

def test_single_coefficient_corruption_is_detected(ring_vms, monkeypatch):
    vm = ring_vms["e8"]
    target = (5,)
    corrupt_entry(monkeypatch, "poincare", target)
    bad = verify_cell_poincare_bridge(vm)
    assert not bad
    assert bad.witness[0] <= target
    monkeypatch.undo()
    assert verify_cell_poincare_bridge(vm)


# ------------------------------------------------------ shared series tables

TABLES = {"cells": series_cells, "poincare": series_poincare,
          "proj_cells": series_proj_cells, "proj_poincare": series_proj_poincare}
INVERTED = ("proj_cells", "proj_poincare")


def all_tables(vm):
    """The six packed tables verify reads of vm: four plain, two inverted."""
    return [_table(series, vm) for series in TABLES] + [_table(series, vm, True)
                                                         for series in INVERTED]


def test_equal_modules_share_one_table(corpus, ring_vms):
    vm = ring_vms["tacnode"]
    twin = ValueModule(vm.r, vm.gamma, vm.members, deg_offset=vm.deg_offset)
    assert twin is not vm
    for series in TABLES:
        assert _table(series, twin) is _table(series, vm)
    # a Gorenstein ring and its computed dual are equal by content
    ci = corpus["node"].curve_input
    vm_star = dual_table(ci, ring_ideal(ci.curve))
    assert vm_star is not ring_vms["node"]
    assert _table("poincare", vm_star) is _table("poincare", ring_vms["node"])


def test_degree_offset_keys_the_table(ring_vms):
    vm = ring_vms["e8"]
    shifted = ValueModule(vm.r, vm.gamma, vm.members, deg_offset=vm.deg_offset + 1)
    a, b = _table("poincare", vm), _table("poincare", shifted)
    assert a is not b
    # the packed ints are those of vm's table; the least exponent moves up by 1
    assert b == (a[0] + 1, a[1])


def int_table_modules(corpus, ideal_vms, rand_mods, families):
    """Every corpus module with its computed dual, abstract E8, the random
    staircases with their profile duals, the benchmark's ordinary 3- and
    4-fold, A-type and semigroup tables, the <9, 11> wedge, and the
    semigroup345 ring and its dual with deg_offset moved by +-10^5."""
    vms = [corpus["abstract_e8"].value_module]
    for name in CONCRETE:
        ci = corpus[name].curve_input
        for iname, b in [("ring", ring_ideal(ci.curve)), *ci.ideals.items()]:
            vms += [ideal_vms[(name, iname)], dual_table(ci, b)]
    for vm in rand_mods:
        vms.append(vm)
        try:
            vms.append(vm.dual_from_jump_profile())
        except SingvalError:
            pass
    rng = random.Random(29)
    cases = [families.ordinary_table(r, rng) for r in (3, 4)]
    cases += [families.a_type_table(k, rng) for k in (2, 3, 5, 8, 16, 24)]
    cases += [families.semigroup_table(c, rng) for c in (40, 80, 120)]
    vms += [parse_value_module(case.data) for case in cases] + [wedge((9, 11), 80)]
    base = corpus["semigroup345"].curve_input
    for m in (ideal_vms[("semigroup345", "ring")], dual_table(base, ring_ideal(base.curve))):
        vms += [ValueModule(m.r, m.gamma, m.members, deg_offset=m.deg_offset + k)
                for k in (10**5, -10**5)]
    return list(dict.fromkeys(vms))


def assert_tables_decode(vm, points):
    """At each (flat index, v) of points, the six tables of vm decode to the
    per-point builders' classes (to their L -> 1/L, inverted), no coefficient
    passes 2^(r - 1), and ell(v + 1) - ell(v) is c_total(v)."""
    one = (1,) * vm.r
    for series, build in TABLES.items():
        coeff, (e0, xs) = build(vm), _table(series, vm)
        f0, ys = _table(series, vm, True) if series in INVERTED else (None, None)
        for i, v in points:
            want = coeff(v)
            assert gc_unpack(xs[i], e0) == want, (series, vm, v)
            assert all(abs(c) <= 2 ** (vm.r - 1) for c in want._terms.values()), (series, vm, v)
            if ys is not None:
                assert gc_unpack(ys[i], f0) == wsref.gc_invert_L(want), (series, vm, v)
    for _, v in points:
        assert vm.ell(vec_add(v, one)) - vm.ell(v) == vm.c_total(v), (vm, v)


def _box_points(vm):
    return list(iter_box((-3,) * vm.r, tuple(g + 2 for g in vm.gamma)))


def test_a_table_decodes_to_its_series(corpus, ideal_vms, rand_mods, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    families = importlib.import_module("families")
    vms = int_table_modules(corpus, ideal_vms, rand_mods, families)
    assert len(vms) > 100 and {vm.r for vm in vms} == {1, 2, 3, 4}
    for vm in vms:
        box = _box_points(vm)
        grid = iter_box((-3,) * vm.r, tuple(g + 3 for g in vm.gamma))
        assert poincare._ells(vm, 3) == [vm.ell(u) for u in grid]
        assert all(len(xs) == len(box) for _, xs in all_tables(vm))
        assert_tables_decode(vm, list(enumerate(box)))
    # the ordinary 5-fold point: permuting the axes fixes its members, and
    # its tables with them, so one point per orbit decodes them all
    vm = ValueModule(5, (4,) * 5, families.ordinary_members(5))
    box = _box_points(vm)
    at = {v: i for i, v in enumerate(box)}
    for _, xs in all_tables(vm):
        assert all(x == xs[at[tuple(sorted(v))]] for x, v in zip(xs, box))
    assert_tables_decode(vm, [(i, v) for i, v in enumerate(box) if list(v) == sorted(v)])
    assert all(vm.c_total(v) == vm.ell(vec_add(v, (1,) * 5)) - vm.ell(v) for v in box)


def test_verify_tables_build_no_class(ideal_vms, rand_mods, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a GrothendieckClass was built")

    vms = [*ideal_vms.values(), *rand_mods[:10]]
    monkeypatch.setattr(lefschetz, "_trusted", refuse)
    monkeypatch.setattr(GrothendieckClass, "__init__", refuse)
    with pytest.raises(AssertionError, match="GrothendieckClass was built"):
        series_poincare(vms[0])((0,) * vms[0].r)
    for vm in vms:
        _table.cache_clear()
        poincare._ells.cache_clear()
        all_tables(vm)
        assert _table.cache_info().misses == 6


def test_a_table_past_the_digit_bound_exits_3(ring_vms, monkeypatch, capsys):
    # a coefficient is at most 2^(r - 1) in size, so the static bound asks
    # 2r + 4 bits: 8 for the r = 2 tacnode, which 6-bit digits refuse
    _table.cache_clear()
    monkeypatch.setattr(poincare, "DIGIT_BITS", 6)
    with pytest.raises(EnumerationTooLarge, match="need 8 bits .* bound of 6"):
        _table("cells", ring_vms["tacnode"])
    assert main(["verify", str(CORPUS / "tacnode.json")]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: resource ceiling: series table series_poincare: coefficients "
                   "need 8 bits per packed digit, above the bound of 6\n")
    monkeypatch.undo()
    _table.cache_clear()


def test_a_non_gorenstein_ring_and_its_dual_keep_their_own_tables(corpus, ring_vms):
    ci = corpus["semigroup345"].curve_input
    vm = ring_vms["semigroup345"]
    vm_star = dual_table(ci, ring_ideal(ci.curve))
    # same conductor, different members and degree offset; then members alone
    same_degree = ValueModule(vm.r, vm.gamma, vm_star.members, deg_offset=vm.deg_offset)
    for series in TABLES:
        assert _table(series, vm_star) != _table(series, vm)
        assert _table(series, same_degree) != _table(series, vm)


def test_rows_leave_the_shared_tables_as_they_found_them(corpus, ring_vms):
    for name, vm in ring_vms.items():
        ci = corpus[name].curve_input
        vm_star = dual_table(ci, ring_ideal(ci.curve))

        def rows():
            out = [check(vm) for check in (verify_cell_poincare_bridge, verify_proj_affine_bridge,
                                           verify_proj_support, verify_proj_bridge_display)]
            out += [check(vm, vm_star) for check in (
                verify_degree_duality, verify_cell_functional_equation,
                verify_poincare_functional_equation, verify_jump_duality)]
            out += [verify_proj_functional_equation(vm, vm_star, part=part)
                    for part in ("cells", "poincare")]
            if name in GORENSTEIN:
                out.append(verify_gorenstein_tail_identity(vm))
            return out

        def tables():
            return [(e0, list(xs)) for m in (vm, vm_star) for e0, xs in all_tables(m)]

        first, before = rows(), tables()
        assert rows() == first, name  # Verdict equality covers detail and witness
        assert tables() == before, name


# ------------------------------------- the windowed-series reference shape

def reference_pairs(corpus, ideal_vms, rand_mods):
    """(b, b*) pairs: every corpus module with its computed dual, each random
    staircase with its profile dual, and every module with a wrong partner
    (itself, and another module of the same branch count)."""
    pairs = []
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        for iname in list(ci.ideals) + ["ring"]:
            b = ring_ideal(ci.curve) if iname == "ring" else ci.ideals[iname]
            vm_b = ideal_vms[(name, iname)]
            vm_bstar = dual_table(ci, b)
            pairs += [(vm_b, vm_bstar), (vm_bstar, vm_b), (vm_b, vm_b)]
    for i, vm in enumerate(rand_mods):
        try:
            pairs.append((vm, vm.dual_from_jump_profile()))
        except SingvalError:
            pass
        others = [o for o in rand_mods[i + 1:] + rand_mods[:i] if o.r == vm.r]
        same = [o for o in others if o.gamma == vm.gamma]
        pairs += [(vm, vm), (vm, (same or others)[0])]
    return pairs


def extra_reference_pairs(corpus, monkeypatch):
    """The ordinary 3- and 4-fold tables of the benchmark, each with its
    profile dual (itself), and a module with deg_offset 10^5 with its dual
    (shifted by -10^5), with itself and with the unshifted module."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    families = importlib.import_module("families")
    pairs = []
    for r in (3, 4):
        vm = ValueModule(r, (r - 1,) * r, families.ordinary_members(r))
        pairs.append((vm, vm.dual_from_jump_profile()))
    base = corpus["semigroup345"].curve_input
    vm, vm_star = value_set(ring_ideal(base.curve)), dual_table(base, ring_ideal(base.curve))
    big = ValueModule(vm.r, vm.gamma, vm.members, deg_offset=vm.deg_offset + 10**5)
    big_star = ValueModule(vm.r, vm.gamma, vm_star.members, deg_offset=vm_star.deg_offset - 10**5)
    return pairs + [(big, big_star), (big_star, big), (big, big), (big, vm), (vm, big)]


def test_pointwise_verifiers_match_the_windowed_reference(corpus, ideal_vms, rand_mods,
                                                          monkeypatch):
    """Every packed row gives the Verdict of its class-valued reference."""
    seen = {True: 0, False: 0}

    def check(got, want):
        assert (got.ok, got.detail, got.witness) == (want.ok, want.detail, want.witness)
        seen[got.ok] += 1

    pairs = (reference_pairs(corpus, ideal_vms, rand_mods)
             + extra_reference_pairs(corpus, monkeypatch))
    for vm in dict.fromkeys(vm for pair in pairs for vm in pair):
        check(verify_cell_poincare_bridge(vm), wsref.cell_poincare_bridge(vm))
        check(verify_proj_bridge_display(vm), wsref.proj_bridge_display(vm))
        check(verify_proj_affine_bridge(vm), wsref.proj_affine_bridge(vm))
        check(verify_proj_support(vm), wsref.proj_support(vm))
    for vm_b, vm_bstar in pairs:
        check(verify_cell_functional_equation(vm_b, vm_bstar),
              wsref.cell_functional_equation(vm_b, vm_bstar))
        check(verify_poincare_functional_equation(vm_b, vm_bstar),
              wsref.poincare_functional_equation(vm_b, vm_bstar))
        for part in ("cells", "poincare"):
            check(verify_proj_functional_equation(vm_b, vm_bstar, part=part),
                  wsref.proj_functional_equation(vm_b, vm_bstar, part=part))
    assert seen[True] > 200 and seen[False] > 200, seen


# ------------------------------------ one division per projectivized coefficient

def _proj_poincare_by_pieces(vm):
    """The form with one division per subset: each projectivized quotient
    class (L^g - 1)/(L - 1) divided on its own, then the signed sum."""
    one = (1,) * vm.r

    def coeff(v):
        top = vm.ell(vec_add(v, one))
        acc = GC_ZERO
        for mask in range(1 << vm.r):
            ind = tuple(mask >> i & 1 for i in range(vm.r))
            g = top - vm.ell(vec_add(v, ind))
            piece = gc_div_exact(gc_add(gc_monomial(g), gc_int(-1)))
            acc = gc_add(acc, piece if sum(ind) % 2 == 0 else gc_mul(gc_int(-1), piece))
        return acc

    return coeff


def _one_division_modules(corpus, ideal_vms, rand_mods):
    return [*ideal_vms.values(), *rand_mods, corpus["abstract_e8"].value_module,
            value_set(ring_ideal(_ordinary_point(3)))]


def test_one_division_matches_the_division_per_subset(corpus, ideal_vms, rand_mods):
    for vm in _one_division_modules(corpus, ideal_vms, rand_mods):
        got, want = series_proj_poincare(vm), _proj_poincare_by_pieces(vm)
        for v in iter_box((-3,) * vm.r, tuple(g + 2 for g in vm.gamma)):
            assert got(v) == want(v), (vm, v)


def test_each_poincare_coefficient_divides_once(corpus, ideal_vms, rand_mods, monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return gc_div_exact(a)

    monkeypatch.setattr(poincare, "gc_div_exact", counted)
    for vm in _one_division_modules(corpus, ideal_vms, rand_mods):
        for build in (series_poincare, series_proj_poincare):
            coeff = build(vm)
            for v in iter_box((-3,) * vm.r, tuple(g + 2 for g in vm.gamma)):
                calls.clear()
                coeff(v)
                assert len(calls) == 1, (build.__name__, vm, v)


# ------------------------------------------------- closed forms at L = 1
#
# At L = 1 the Poincare series of a plane curve with r >= 2 branches is its
# Alexander polynomial, and for one branch it is the Alexander polynomial
# over 1 - t, the generating function of the value semigroup
# (Campillo-Delgado-Gusein-Zade).  The expected polynomials below come from
# those closed forms alone.

def _series(*pairs):
    return BranchSeries(dict(pairs))


def _ordinary_point(r):
    """r lines y = s x with slopes 0, 1, ..., r - 1."""
    return CurvePresentation(r, [tuple(_series((1, 1)) for _ in range(r)),
                                 tuple(_series((1, s)) for s in range(r))])


def _poincare_at_one(curve):
    """Nonzero coefficients of the ring's Poincare series at L = 1, on a
    window reaching gamma + 3."""
    vm = value_set(ring_ideal(curve))
    s = series_poincare(vm)
    at_one = {v: sum(s(v)._terms.values())
              for v in iter_box((0,) * vm.r, tuple(g + 3 for g in vm.gamma))}
    return {v: x for v, x in at_one.items() if x}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_ordinary_point_gives_the_alexander_polynomial(r):
    # (1 - t_1...t_r)^(r - 2)
    want = {(k,) * r: (-1) ** k * comb(r - 2, k) for k in range(r - 1)}
    assert _poincare_at_one(_ordinary_point(r)) == want


@pytest.mark.parametrize("k", [3, 4])
def test_a_type_gives_a_geometric_sum(k):
    # A_{2k-1}: y = x^k and y = -x^k, sum of (t_1 t_2)^i over i < k
    curve = CurvePresentation(2, [(_series((1, 1)), _series((1, 1))),
                                  (_series((k, 1)), _series((k, -1)))])
    assert _poincare_at_one(curve) == {(i, i): 1 for i in range(k)}


def test_one_branch_gives_the_semigroup_generating_function():
    # t^3, t^5: the semigroup <3, 5> up to gamma + 3 = 11
    curve = CurvePresentation(1, [(_series((3, 1)),), (_series((5, 1)),)])
    want = {(3 * a + 5 * b,): 1 for a in range(4) for b in range(3) if 3 * a + 5 * b <= 11}
    assert _poincare_at_one(curve) == want
