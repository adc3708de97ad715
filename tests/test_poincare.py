"""Series builders (coefficient functions of v) and the
duality/functional-equation verifiers."""

from fractions import Fraction
from math import comb

import pytest

from singval.algebra import dual, ring_ideal, value_set
from singval.cli import EXIT_INPUT, main
from singval.curve import BranchSeries, CurvePresentation
from singval.errors import SingvalError
from singval import poincare
from singval.lattice import iter_box, vec_add
from singval.lefschetz import (GC_ONE, GC_ZERO, gc_add, gc_div_exact, gc_eval_rational, gc_int,
                               gc_monomial, gc_mul)
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
from singval.valuemodule import ValueModule

import wsref
from conftest import CORPUS, GORENSTEIN


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

    def corrupted(vm):
        s = series_poincare(vm)
        return lambda v: gc_add(s(v), GC_ONE) if v == target else s(v)

    monkeypatch.setattr(poincare, "series_poincare", corrupted)
    bad = verify_cell_poincare_bridge(vm)
    assert not bad
    assert bad.witness[0] <= target
    monkeypatch.undo()
    assert verify_cell_poincare_bridge(vm)


# ------------------------------------------------------ shared series tables

TABLE_BUILDERS = (series_cells, series_poincare, series_proj_cells, series_proj_poincare)


def test_equal_modules_share_one_table(corpus, ring_vms):
    vm = ring_vms["tacnode"]
    twin = ValueModule(vm.r, vm.gamma, vm.members, deg_offset=vm.deg_offset)
    assert twin is not vm
    for build in TABLE_BUILDERS:
        assert _table(build, twin) is _table(build, vm)
    # a Gorenstein ring and its computed dual are equal by content
    ci = corpus["node"].curve_input
    vm_star = dual_table(ci, ring_ideal(ci.curve))
    assert vm_star is not ring_vms["node"]
    assert _table(series_poincare, vm_star) is _table(series_poincare, ring_vms["node"])


def test_degree_offset_keys_the_table(ring_vms):
    vm = ring_vms["e8"]
    shifted = ValueModule(vm.r, vm.gamma, vm.members, deg_offset=vm.deg_offset + 1)
    a, b = _table(series_poincare, vm), _table(series_poincare, shifted)
    assert a is not b
    assert b == {v: gc_mul(gc_monomial(1), c) for v, c in a.items()}


def test_a_non_gorenstein_ring_and_its_dual_keep_their_own_tables(corpus, ring_vms):
    ci = corpus["semigroup345"].curve_input
    vm = ring_vms["semigroup345"]
    vm_star = dual_table(ci, ring_ideal(ci.curve))
    # same conductor, different members and degree offset; then members alone
    same_degree = ValueModule(vm.r, vm.gamma, vm_star.members, deg_offset=vm.deg_offset)
    for build in TABLE_BUILDERS:
        assert _table(build, vm_star) != _table(build, vm)
        assert _table(build, same_degree) != _table(build, vm)


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
            return [dict(_table(build, m)) for build in TABLE_BUILDERS
                    for m in (vm, vm_star)]

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


def test_pointwise_verifiers_match_the_windowed_reference(corpus, ideal_vms, rand_mods):
    seen = {True: 0, False: 0}
    for vm_b, vm_bstar in reference_pairs(corpus, ideal_vms, rand_mods):
        for got, want in [
            (verify_cell_poincare_bridge(vm_b), wsref.cell_poincare_bridge(vm_b)),
            (verify_proj_bridge_display(vm_b), wsref.proj_bridge_display(vm_b)),
            (verify_cell_functional_equation(vm_b, vm_bstar),
             wsref.cell_functional_equation(vm_b, vm_bstar)),
            (verify_poincare_functional_equation(vm_b, vm_bstar),
             wsref.poincare_functional_equation(vm_b, vm_bstar)),
        ]:
            assert (got.ok, got.detail, got.witness) == (want.ok, want.detail, want.witness)
            seen[got.ok] += 1
    assert seen[True] > 100 and seen[False] > 100, seen


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
