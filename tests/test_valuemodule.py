"""Staircase combinatorics: jumps, codimension, symmetry, self-duality."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from singval.errors import SingvalError
from singval.lattice import iter_box
from singval.poincare import verify_jump_duality
from singval.valuemodule import ValueModule, ring_like


def vm345_can():
    """The non-self-dual staircase {0, 1, 3} with conductor 3."""
    return ValueModule(1, (3,), [(0,), (1,), (3,)], deg_offset=1)


def vm_node():
    return ValueModule(2, (1, 1), [(0, 0), (1, 1)])


def vm_tacnode():
    return ValueModule(2, (2, 2), [(0, 0), (1, 1), (2, 2)])


def vm_e8():
    return ValueModule(1, (8,), [(0,), (3,), (5,), (6,), (8,)])


# -- construction -------------------------------------------------------------------


def test_rejects_member_outside_box():
    with pytest.raises(SingvalError):
        ValueModule(1, (3,), [(0,), (4,), (3,)])
    with pytest.raises(SingvalError):
        ValueModule(1, (3,), [(-1,), (0,), (3,)])


def test_rejects_missing_conductor_point():
    with pytest.raises(SingvalError):
        ValueModule(1, (3,), [(0,), (1,)])


def test_rejects_unnormalized_table():
    with pytest.raises(SingvalError):
        ValueModule(1, (3,), [(1,), (3,)])


def test_rejects_non_min_closed_table():
    with pytest.raises(SingvalError):
        ValueModule(2, (1, 1), [(0, 1), (1, 0), (1, 1)])


def test_rejects_non_minimal_conductor():
    # 2 is a member, so the honest conductor is 2, not 3
    with pytest.raises(SingvalError):
        ValueModule(1, (3,), [(0,), (2,), (3,)])


def test_rejects_module_not_closed_over_ambient():
    ring = vm_tacnode()
    # (1,1) + (0,0) = (1,1) is missing, so this is not a module over the ring
    with pytest.raises(SingvalError):
        ValueModule(2, (2, 2), [(0, 0), (2, 2)], ambient=ring)
    # a module conductor beyond the ambient one is impossible for 0-containing sets
    with pytest.raises(SingvalError):
        ValueModule(2, (3, 3), [(0, 0), (1, 1), (3, 3)], ambient=ring)
    # the ring is a module over itself
    ValueModule(2, (2, 2), [(0, 0), (1, 1), (2, 2)], ambient=ring)


# -- membership and jumps -------------------------------------------------------------


def test_membership_clips_into_the_box():
    vm = vm345_can()
    assert vm.member((0,)) and vm.member((1,)) and not vm.member((2,))
    assert vm.member((3,)) and vm.member((17,))
    assert not vm.member((-1,))


def test_c_partial_matches_its_witness_definition():
    vm = vm_tacnode()
    for v in iter_box((-1, -1), (3, 3)):
        for i in range(2):
            direct = any(
                w[i] == v[i] and all(w[j] >= v[j] for j in range(2) if j != i)
                for w in iter_box((0, 0), (4, 4))
                if vm.member(w)
            ) if v[i] >= 0 else False
            if v[i] >= vm.gamma[i]:
                direct = True
            assert vm.c_partial(v, i) == (1 if direct else 0), (v, i)


def test_c_total_chain_order_independence(rand_mods):
    for vm in rand_mods:
        if vm.r == 1:
            continue
        for v in [(0, 0), (1, 2), (-1, 3), vm.gamma]:
            vals = {vm.c_total(v, order=p) for p in permutations(range(vm.r))}
            assert len(vals) == 1, (vm, v)


def test_c_total_rejects_non_permutations():
    with pytest.raises(SingvalError):
        vm_node().c_total((0, 0), order=(0, 0))


def test_ell_is_the_chain_sum_of_jumps(rand_mods):
    for vm in rand_mods[:30]:
        hi = tuple(g + 2 for g in vm.gamma)
        for v in iter_box((0,) * vm.r, hi):
            assert vm.c_total(v) == vm.ell(tuple(x + 1 for x in v)) - vm.ell(v)
            for i in range(vm.r):
                up = tuple(x + (1 if j == i else 0) for j, x in enumerate(v))
                assert vm.ell(up) - vm.ell(v) == vm.c_partial(v, i)


def test_ell_saturates_below_zero_and_grows_above_gamma():
    vm = vm345_can()
    assert vm.ell((-3,)) == vm.ell((0,)) == 0
    assert vm.ell((3,)) == 2           # members 0, 1 below the conductor
    assert vm.ell((4,)) == 3           # everything at or above gamma is in
    assert vm.deg_J((0,)) == 1 and vm.deg_J((4,)) == -2


def test_gap_probe_matches_direct_scan(rand_mods):
    """One jump query decides whether a member sits at n_i strictly above n."""
    for vm in rand_mods[:25]:
        hi = tuple(g + 1 for g in vm.gamma)
        pts = [w for w in iter_box((0,) * vm.r, tuple(g + 2 for g in vm.gamma))
               if vm.member(w)]
        for n in iter_box((-1,) * vm.r, hi):
            for i in range(vm.r):
                direct = any(
                    w[i] == n[i] and all(w[j] > n[j] for j in range(vm.r) if j != i)
                    for w in pts
                )
                assert vm.delta_nonempty(n, i) == direct, (vm, n, i)


def test_jump_vanishes_just_below_the_conductor(rand_mods):
    for vm in rand_mods:
        g = vm.gamma
        for i in range(vm.r):
            if g[i] == 0:
                continue
            probe = tuple(x - 1 if j == i else x for j, x in enumerate(g))
            assert vm.c_partial(probe, i) == 0


# -- symmetry and self-duality ---------------------------------------------------------


def test_symmetry_verdicts_on_known_staircases():
    assert vm_e8().is_symmetric()
    assert vm_node().is_symmetric()
    assert vm_tacnode().is_symmetric()
    v = vm345_can().is_symmetric()
    assert not v


def test_self_duality_routes_agree_on_known_staircases():
    for vm, expected in [
        (vm_e8(), True),
        (vm_node(), True),
        (vm_tacnode(), True),
        (vm345_can(), False),
        # the dual partner of {0,1,3} is itself non-self-dual
        (ValueModule(1, (3,), [(0,), (3,)]), False),
    ]:
        assert bool(vm.self_dual_by_counts()) is expected
        assert bool(vm.self_dual_by_counts_percoord()) is expected
        assert bool(vm.self_dual_by_lengths()) is expected
        assert bool(vm.self_dual_by_chain()) is expected
        assert bool(vm.is_symmetric()) is expected


def test_count_pairing_counterexample_sits_at_one():
    vm = vm345_can()
    verdict = vm.self_dual_by_counts()
    assert not verdict
    assert verdict.witness == (1,)
    # the pointwise pairing genuinely exceeds the branch total there
    assert vm.c_total((1,)) + vm.c_total((1,)) == 2 > vm.r


def test_pairing_report_empty_for_ring_like_and_self_dual(rand_mods):
    for vm in rand_mods:
        rep = vm.pairing_report()
        if ring_like(vm) or vm.self_dual_by_counts():
            assert rep == [], vm
    assert vm345_can().pairing_report() == [((1,), 2, 1)]


def test_doubled_length_bound_fails_without_self_duality():
    vm = vm345_can()
    assert 2 * vm.ell(vm.gamma) == 4 > 3 == sum(vm.gamma)


def test_chain_criterion_is_order_insensitive(rand_mods):
    for vm in rand_mods[:40]:
        default = bool(vm.self_dual_by_chain())
        reversed_order = [i for i in reversed(range(vm.r)) for _ in range(vm.gamma[i])]
        assert bool(vm.self_dual_by_chain(order=reversed_order)) is default
    with pytest.raises(SingvalError):
        vm_node().self_dual_by_chain(order=[0, 0])


# -- duals ------------------------------------------------------------------------------


def test_profile_dual_of_the_345_module():
    vm = vm345_can()
    d = vm.dual_from_jump_profile()
    assert sorted(d.members) == [(0,), (3,)]
    assert d.deg_offset == vm.deg_offset + 3 - 2 * vm.ell((3,)) == 0


def test_profile_dual_is_an_involution(rand_mods):
    for vm in rand_mods:
        d = vm.dual_from_jump_profile()
        assert d.dual_from_jump_profile() == vm


def _gap_set_dual_members(vm):
    """Reference membership table for the dual, via mirrored gap sets: v is
    a member when nothing of vm sits exactly at gamma - v - 1."""
    g = vm.gamma
    out = set()
    for v in iter_box((0,) * vm.r, g):
        n = tuple(gx - 1 - x for gx, x in zip(g, v))
        if not vm.delta_any(n):
            out.add(v)
    return frozenset(out)


def test_profile_dual_matches_gap_set_candidate(rand_mods):
    for vm in rand_mods:
        assert _gap_set_dual_members(vm) == vm.dual_from_jump_profile().members


def test_profile_dual_passes_jump_duality(rand_mods):
    for vm in rand_mods:
        assert verify_jump_duality(vm, vm.dual_from_jump_profile()), vm


def test_self_dual_iff_profile_dual_equals_module(rand_mods):
    for vm in rand_mods:
        same = vm.dual_from_jump_profile().members == vm.members
        assert bool(vm.self_dual_by_counts()) is same, vm


# -- goodness ---------------------------------------------------------------------------


def test_goodness_rejects_the_incomplete_table():
    vm = ValueModule(2, (2, 2), [(0, 0), (0, 1), (2, 2)])
    verdict = vm.is_good()
    assert not verdict
    assert verdict.witness == ((0, 0), (0, 1), 0)


def test_goodness_accepts_known_value_sets(rand_mods):
    assert vm_node().is_good()
    assert vm_tacnode().is_good()
    assert vm345_can().is_good()
    for vm in rand_mods[:20]:
        assert vm.is_good()


# -- randomized one-branch tables, direct definition ------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 5), max_size=4))
def test_r1_counts_match_set_definitions(interior):
    gamma = 7
    members = sorted({0, gamma} | {x for x in interior})
    vm = ValueModule(1, (gamma,), [(v,) for v in members])
    mem = set(members)
    for v in range(-2, gamma + 3):
        expected = 1 if (v >= 0 and min(v, gamma) in mem) else 0
        assert vm.c_total((v,)) == expected
        assert vm.ell((v,)) == sum(
            1 for w in range(max(v, 0)) if min(w, gamma) in mem)
