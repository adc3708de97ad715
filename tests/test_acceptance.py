"""End-to-end acceptance: the eight checks the package is built against.

One test per criterion, one pass/fail line each under pytest -v.  The
functional-equation criterion is red by design: the series form of the
projectivized functional equation genuinely fails once there is more than
one branch, and it is asserted here exactly as stated instead of being
weakened to pass.  See README, section "Known deviations".
"""

from fractions import Fraction
from itertools import permutations

import pytest

from singval.algebra import (
    count_points_mod_q,
    dual,
    jet_rank_mod_q,
    lengths_report,
    value_set,
)
from singval.curve import BranchSeries, CurvePresentation, FracIdeal, ring_ideal
from singval import poincare
from singval.lattice import iter_box
from singval.lefschetz import GC_ONE, gc_add, gc_eval_rational, gc_mul
from singval.poincare import (
    GC_L_MINUS_1,
    series_poincare,
    verify_cell_functional_equation,
    verify_cell_poincare_bridge,
    verify_degree_duality,
    verify_gorenstein_tail_identity,
    verify_poincare_functional_equation,
    verify_proj_functional_equation,
)
from singval.valuemodule import ValueModule, ring_like
from singval.algebra import self_dual_direct

from conftest import CONCRETE, GORENSTEIN, chain_total, pairing_report

NON_GORENSTEIN = "semigroup345"


def _series(*pairs):
    return BranchSeries(dict(pairs))


def canonical_of(ci):
    if ci.canonical == "ring":
        return ring_ideal(ci.curve)
    return ci.ideals[ci.canonical]


def all_ideals(ci):
    yield "ring", ring_ideal(ci.curve)
    yield from ci.ideals.items()


def route_verdicts(vm):
    return {
        "counts": bool(vm.self_dual_by_counts()),
        "per-coordinate": bool(vm.self_dual_by_counts_percoord()),
        "lengths": bool(vm.self_dual_by_lengths()),
        "chain": bool(vm.self_dual_by_chain()),
        "symmetry": bool(vm.is_symmetric()),
    }


def test_gorenstein_length_dichotomy(corpus, ring_vms):
    # doubling the length inside the conductor hits the total exactly when
    # the value set is symmetric; the four Gorenstein rings do, 3-4-5 misses
    for name in GORENSTEIN:
        rep = lengths_report(ring_ideal(corpus[name].curve_input.curve), None)
        assert 2 * rep.inside == rep.total, (name, rep)
        assert rep.doubled_equals_total, name
        assert ring_vms[name].is_symmetric(), name
    rep = lengths_report(ring_ideal(corpus[NON_GORENSTEIN].curve_input.curve), None)
    assert (rep.inside, rep.total) == (1, 3)
    assert 2 * rep.inside < rep.total
    assert not rep.doubled_equals_total
    assert not ring_vms[NON_GORENSTEIN].is_symmetric()


@pytest.fixture(scope="module")
def self_duality_cases(corpus, ideal_vms):
    """(key, value module, direct verdict) for every corpus ideal, then
    b = O + O(t + t^2 + 2t^3 + t^4) over k[[t^6, t^7]]: its value set is
    self-dual, but b has no transporter of value zero onto its dual."""
    out = []
    for name in CONCRETE:
        ci = corpus[name].curve_input
        canonical = canonical_of(ci)
        for iname, b in all_ideals(ci):
            out.append(((name, iname), ideal_vms[(name, iname)],
                        self_dual_direct(b, canonical)))
    curve = CurvePresentation(1, [(_series((6, 1)),), (_series((7, 1)),)])
    b = FracIdeal(curve, [(_series((0, 1)),), (_series((1, 1), (2, 1), (3, 2), (4, 1)),)])
    out.append((("t^6, t^7", "b"), value_set(b), self_dual_direct(b, ring_ideal(curve))))
    return out


def assert_routes_follow_direct(key, routes, direct):
    """The rule of the routes row in `verify`: b isomorphic to b* makes the
    value set self-dual; differing normalized value sets or degrees make it
    not; without a transporter of value zero the value sets still agree."""
    verdict, why = direct
    assert verdict in ("yes", "no"), (key, why)
    if verdict == "yes" or why == "no transporter of value zero":
        assert all(routes.values()), (key, why, routes)
    else:
        assert why.startswith("normalized") and not any(routes.values()), (key, why, routes)


def test_self_duality_route_triangulation(self_duality_cases, ideal_vms):
    # five combinatorial routes give one verdict on every input, and the
    # certified-multiplier route agrees with them by the rule above; on the
    # corpus, where every "no" shows in the value set, it agrees outright
    for key, vm, direct in self_duality_cases:
        routes = route_verdicts(vm)
        assert len(set(routes.values())) == 1, (key, routes)
        assert_routes_follow_direct(key, routes, direct)
        if key[0] in CONCRETE:
            assert (direct[0] == "yes") == routes["counts"], (key, direct)
    assert self_duality_cases[-1][2] == ("no", "no transporter of value zero")
    assert route_verdicts(ideal_vms[("cusp", "max")]) == dict.fromkeys(
        ["counts", "per-coordinate", "lengths", "chain", "symmetry"], True
    )
    bad = ideal_vms[(NON_GORENSTEIN, "can")]
    verdict = bad.self_dual_by_counts()
    assert not verdict
    assert verdict.witness == (1,)


def test_symmetry_matches_self_duality(self_duality_cases):
    # table symmetry follows module self-duality by the same rule, including
    # the negative answer on the non-Gorenstein witness; on the corpus the
    # two decide the same question
    seen_negative = False
    for key, vm, direct in self_duality_cases:
        symmetric = bool(vm.is_symmetric())
        assert_routes_follow_direct(key, {"symmetry": symmetric}, direct)
        if key[0] in CONCRETE:
            assert symmetric == (direct[0] == "yes"), key
            seen_negative |= direct[0] == "no"
    assert seen_negative


def test_poincare_two_route_bridge_and_corruption_detection(ideal_vms, monkeypatch):
    # the cell route and the inclusion-exclusion route agree coefficient by
    # coefficient on the padded conductor box, for every corpus module
    for key, vm in ideal_vms.items():
        assert verify_cell_poincare_bridge(vm), key
    # and a single corrupted coefficient cannot slip through the comparison
    for key, target in [(("e8", "ring"), (5,)), (("node", "ring"), (1, 1))]:
        vm = ideal_vms[key]

        def tampered(vm, target=target):
            s = series_poincare(vm)
            return lambda v: gc_add(s(v), GC_ONE) if v == target else s(v)

        monkeypatch.setattr(poincare, "series_poincare", tampered)
        bad = verify_cell_poincare_bridge(vm)
        assert not bad, key
        assert bad.witness[0] <= target, key
        monkeypatch.undo()
        assert verify_cell_poincare_bridge(vm), key


def test_degree_duality_and_gorenstein_tail(corpus, ring_vms, ideal_vms):
    # pointwise degree pairing between each module and its computed dual
    for name in CONCRETE:
        ci = corpus[name].curve_input
        canonical = canonical_of(ci)
        for iname, b in all_ideals(ci):
            vm_b = ideal_vms[(name, iname)]
            vm_bstar = value_set(dual(b, canonical))
            assert verify_degree_duality(vm_b, vm_bstar), (name, iname)
            assert verify_degree_duality(vm_bstar, vm_b), (name, iname)
    # and the boundary form of the pairing on the Gorenstein rings
    residues = {"cusp": 0, "e8": 3, "node": -1, "tacnode": 0}
    for name in GORENSTEIN:
        verdict = verify_gorenstein_tail_identity(ring_vms[name])
        assert verdict, (name, verdict.detail)
        assert f"== {residues[name]}" in verdict.detail, (name, verdict.detail)


def test_functional_equation_suite(corpus, ideal_vms):
    # every functional equation, on every corpus module, both branch counts;
    # red today: the series form of the projectivized equation fails for
    # r >= 2 (README, "Known deviations")
    failures = []
    for name in CONCRETE:
        ci = corpus[name].curve_input
        canonical = canonical_of(ci)
        for iname, b in all_ideals(ci):
            vm_b = ideal_vms[(name, iname)]
            vm_bstar = value_set(dual(b, canonical))
            checks = [
                ("cell", verify_cell_functional_equation(vm_b, vm_bstar)),
                ("poincare", verify_poincare_functional_equation(vm_b, vm_bstar)),
                ("proj-cells", verify_proj_functional_equation(vm_b, vm_bstar, part="cells")),
                ("proj-series", verify_proj_functional_equation(vm_b, vm_bstar, part="poincare")),
            ]
            for label, verdict in checks:
                if not verdict:
                    failures.append(f"{name}/{iname} {label}: {verdict.detail}")
    assert not failures, (
        "functional equations that do not hold as stated "
        "(known two-branch deviation, see README 'Known deviations'):\n"
        + "\n".join(failures)
    )


def test_finite_field_specialization_counts(corpus, ring_vms):
    # naive point counts over small prime fields match the specialized
    # series: counted == (q - 1) * coeff|_{L=q} * q^rank, exactly
    level = 4
    for name, q in [("cusp", 2), ("cusp", 3), ("node", 2)]:
        curve = corpus[name].curve_input.curve
        vm = ring_vms[name]
        rank = jet_rank_mod_q(curve, q, level)
        assert q ** rank <= 2 ** 16, (name, q, rank)
        pg = series_poincare(vm)
        for v in iter_box((0,) * vm.r, (level - 1,) * vm.r):
            predicted = (
                gc_eval_rational(gc_mul(GC_L_MINUS_1, pg(v)), q)
                * Fraction(q) ** rank
            )
            assert predicted.denominator == 1, (name, q, v)
            counted = count_points_mod_q(curve, q, v, level)
            assert counted == predicted, (name, q, v, counted, predicted)


def test_staircase_combinatorial_core(ideal_vms, rand_mods):
    # jump-count combinatorics on every corpus table plus one hundred
    # randomized staircases: zero tolerated failures
    modules = list(ideal_vms.values()) + list(rand_mods)
    assert len(rand_mods) == 100
    for vm in modules:
        g = vm.gamma
        lo = (-1,) * vm.r
        hi = tuple(x + 1 for x in g)
        members = [
            w for w in iter_box((0,) * vm.r, tuple(x + 2 for x in g)) if vm.member(w)
        ]
        for v in iter_box(lo, hi):
            # chain count equals the length increment of the filtration
            assert vm.c_total(v) == vm.ell(tuple(x + 1 for x in v)) - vm.ell(v)
            for i in range(vm.r):
                vi = tuple(x + (1 if j == i else 0) for j, x in enumerate(v))
                assert vm.c_partial(v, i) == vm.ell(vi) - vm.ell(v)
                # one probe decides whether the gap set is inhabited
                direct = any(
                    w[i] == v[i] and all(w[j] > v[j] for j in range(vm.r) if j != i)
                    for w in members
                )
                assert vm.delta_nonempty(v, i) == direct
            # chain counts do not depend on the axis order
            if vm.r > 1:
                assert len({chain_total(vm, v, o) for o in permutations(range(vm.r))}) == 1
        # membership outside the box follows the clip rule
        for v in iter_box(tuple(-2 for _ in g), tuple(x + 2 for x in g)):
            clipped = all(x >= 0 for x in v) and vm.member(
                tuple(min(x, gx) for x, gx in zip(v, g))
            )
            assert vm.member(v) == clipped
        # the conductor is minimal: one step down kills a jump on that axis
        for i in range(vm.r):
            gm = tuple(x - (1 if j == i else 0) for j, x in enumerate(g))
            assert vm.c_partial(gm, i) == 0
        # ring-like tables never exceed the pairing bound
        if ring_like(vm):
            assert pairing_report(vm) == []
    # while general tables can: the canonical table of 3-4-5 does
    bad = ValueModule(1, (3,), [(0,), (1,), (3,)], deg_offset=1)
    assert pairing_report(bad) == [((1,), 2, 1)]