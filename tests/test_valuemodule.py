"""Staircase combinatorics: jumps, codimension, symmetry, self-duality."""

import ast
import importlib
import random
import re
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from singval.algebra import dual, value_set
from singval.curve import ring_ideal
from singval.errors import SingvalError
from singval.lattice import iter_box
from singval.poincare import verify_jump_duality
from singval.schemas import parse_value_module
from singval.valuemodule import ValueModule, ring_like

from conftest import ROOT, chain_total, pairing_report
from randmod import wedge


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


class _Int(int):
    pass


QUERIES = {
    "member": lambda vm, v: vm.member(v),
    "c_partial": lambda vm, v: vm.c_partial(v, 1),
    "c_total": lambda vm, v: vm.c_total(v),
    "ell": lambda vm, v: vm.ell(v),
    "deg_J": lambda vm, v: vm.deg_J(v),
    "delta_any": lambda vm, v: vm.delta_any(v),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_queries_check_the_point_they_are_given(query):
    ask, vm = QUERIES[query], vm_tacnode()
    for v in iter_box((-1, -1), (3, 3)):
        assert ask(vm, list(v)) == ask(vm, tuple(_Int(x) for x in v)) == ask(vm, v)
    for bad in [(True, 0), (1, False), (1.0, 0), (0, 0.5), ("1", 0)]:
        with pytest.raises(TypeError):
            ask(vm, bad)
    for bad in [(), (0,), (1, 1, 1)]:
        with pytest.raises(SingvalError):
            ask(vm, bad)


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
            vals = {chain_total(vm, v, p) for p in permutations(range(vm.r))}
            assert len(vals) == 1, (vm, v)


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


# -- the box tables against the query-time definitions -------------------------------


def scan_c_partial(vm, v, i):
    """Reference jump: scan the members for w with w_i = v_i and w_j >= v_j
    off axis i, v clipped into the box, as c_partial did before its table."""
    if v[i] < 0:
        return 0
    if v[i] >= vm.gamma[i]:
        return 1
    need = tuple(min(max(x, 0), g) for x, g in zip(v, vm.gamma))
    return int(any(w[i] == v[i] and all(w[j] >= need[j] for j in range(vm.r) if j != i)
                   for w in vm.members))


def walk_ell(vm, v):
    """Reference codimension: walk the staircase from 0 up to max(v, 0),
    raising coordinate 0 first, as ell did before its table."""
    u = [max(x, 0) for x in v]
    total, cur = 0, [0] * vm.r
    for i in range(vm.r):
        for k in range(u[i]):
            cur[i] = k
            total += scan_c_partial(vm, tuple(cur), i)
        cur[i] = u[i]
    return total


def test_tables_match_the_member_scan_and_the_staircase_walk(corpus, ideal_vms, rand_mods):
    modules = [ValueModule(2, (2, 2), [(0, 0), (0, 1), (2, 2)])]  # fails is_good
    for (name, iname), vm in ideal_vms.items():
        ci = corpus[name].curve_input
        b = ring_ideal(ci.curve) if iname == "ring" else ci.ideals[iname]
        canonical = ring_ideal(ci.curve) if ci.canonical == "ring" else ci.ideals[ci.canonical]
        modules += [vm, value_set(dual(b, canonical))]
    for vm in rand_mods:
        modules += [vm, vm.dual_from_jump_profile()]
    for vm in modules:
        for v in iter_box((-2,) * vm.r, tuple(g + 2 for g in vm.gamma)):
            for i in range(vm.r):
                assert vm.c_partial(v, i) == scan_c_partial(vm, v, i), (vm, v, i)
            up = tuple(x + 1 for x in v)
            chain = sum(scan_c_partial(vm, up[:i] + v[i:], i) for i in range(vm.r))
            assert vm.c_total(v) == chain, (vm, v)
            assert vm.ell(v) == walk_ell(vm, v), (vm, v)


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
        rep = pairing_report(vm)
        if ring_like(vm) or vm.self_dual_by_counts():
            assert rep == [], vm
    assert pairing_report(vm345_can()) == [((1,), 2, 1)]


def test_doubled_length_bound_fails_without_self_duality():
    vm = vm345_can()
    assert 2 * vm.ell(vm.gamma) == 4 > 3 == sum(vm.gamma)


def chain_pairing_holds(vm, order):
    """The chain criterion along the saturated chain from 0 to gamma that
    raises coordinate order[k] at step k."""
    cur = [0] * vm.r
    for i in order:
        v = tuple(cur)
        if vm.c_partial(v, i) + vm.mirror(v, i)[1] != 1:
            return False
        cur[i] += 1
    return True


def test_chain_criterion_is_order_insensitive(rand_mods):
    for vm in rand_mods[:40]:
        default = bool(vm.self_dual_by_chain())
        forward_order = [i for i in range(vm.r) for _ in range(vm.gamma[i])]
        reversed_order = [i for i in reversed(range(vm.r)) for _ in range(vm.gamma[i])]
        assert chain_pairing_holds(vm, forward_order) is default
        assert chain_pairing_holds(vm, reversed_order) is default


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


def _reference_min_closed(members):
    """The pair scan _validate ran before it read the jump table: the first
    members a, b whose componentwise min m is missing, as (a, b, m)."""
    mem = frozenset(members)
    for a in mem:
        for b in mem:
            m = tuple(min(x, y) for x, y in zip(a, b))
            if m not in mem:
                return a, b, m
    return None


def _completes(pts, v, w, i):
    """Is some u in pts strictly above v and w at coordinate i, equal to
    their min where they differ and at least their value where they agree?"""
    return any(
        u[i] > v[i]
        and all(u[j] == min(v[j], w[j]) if v[j] != w[j] else u[j] >= v[j]
                for j in range(len(v)) if j != i)
        for u in pts
    )


def _window_members(vm):
    return [v for v in iter_box((0,) * vm.r, tuple(g + 2 for g in vm.gamma)) if vm.member(v)]


def _reference_is_good(vm):
    """The O(n^3) member scan is_good ran before it read the jump table:
    the first uncompletable (v, w, i) over the members of [0, gamma + 2]."""
    pts = _window_members(vm)
    for v in pts:
        for w in pts:
            if v == w:
                continue
            for i in range(vm.r):
                if v[i] == w[i] and v[i] <= vm.gamma[i] and not _completes(pts, v, w, i):
                    return v, w, i
    return None


def _random_table(rng, r, cap):
    """(gamma, members) with gamma a member and minimal (no gamma - 1_i is a
    member) and every axis normalized; closed under min half the time."""
    gamma = tuple(rng.randint(1, cap) for _ in range(r))
    below = {tuple(g - (k == i) for k, g in enumerate(gamma)) for i in range(r)}
    box = [v for v in iter_box((0,) * r, gamma) if v not in below]
    density = rng.random()
    pts = {v for v in box if rng.random() < density} | {gamma}
    pts |= {rng.choice([v for v in box if v[i] == 0]) for i in range(r)}
    if rng.random() < 0.5:
        todo = list(pts)
        while todo:
            a = todo.pop()
            for b in list(pts):
                if (m := tuple(map(min, a, b))) not in pts:
                    pts.add(m)
                    todo.append(m)
    return gamma, sorted(pts)


def test_jump_table_axioms_match_the_member_scans():
    rng = random.Random(20261021)
    seen = Counter()
    for r, n, cap in ((2, 150, 4), (3, 100, 2), (4, 40, 1)):
        for _ in range(n):
            gamma, members = _random_table(rng, r, cap)
            closed = _reference_min_closed(members) is None
            try:
                vm = ValueModule(r, gamma, members)
            except SingvalError as exc:
                # the refusal names a missing point and members whose min it is
                found = re.fullmatch(r"not min-closed: (\(.*?\)) is the componentwise min "
                                     r"of the members (.*) but is not one", str(exc))
                assert found, exc
                point, named = ast.literal_eval(found[1]), ast.literal_eval(f"[{found[2]}]")
                assert point not in members and set(named) <= set(members), exc
                assert tuple(map(min, *named)) == point, exc
                assert not closed, (gamma, members)
                seen[r, "not min-closed"] += 1
                continue
            assert closed, (gamma, members)
            good = vm.is_good()
            assert bool(good) is (_reference_is_good(vm) is None), (gamma, members)
            seen[r, "good" if good else "not good"] += 1
            if not good:
                m, w, i = good.witness
                assert m != w and m[i] == w[i] and {m, w} <= vm.members, good
                assert not _completes(_window_members(vm), m, w, i), good
    for r in (2, 3, 4):
        assert all(seen[r, kind] for kind in ("good", "not good", "not min-closed")), seen


def _reference_ring_like(vm):
    """The scan ring_like ran before it was cached: every ordered pair of
    members, each clipped sum through vm.member."""
    z = (0,) * vm.r
    if z not in vm.members:
        return False
    for a in vm.members:
        for b in vm.members:
            if not vm.member(tuple(x + y for x, y in zip(a, b))):
                return False
    return True


def test_ring_like_matches_the_ordered_pair_scan(corpus, ideal_vms, rand_mods):
    big = wedge((9, 11), 80)
    assert len(big.members) == 1601
    vms = [*ideal_vms.values(), *rand_mods, corpus["abstract_e8"].value_module, big]
    seen = Counter(ring_like(vm) for vm in vms)
    assert all(ring_like(vm) is _reference_ring_like(vm) for vm in vms)
    assert ring_like(big) and seen[True] > 10 and seen[False] > 10, seen


def test_ring_like_scans_each_module_once():
    vm = wedge((3, 5), 8)
    twin = ValueModule(vm.r, vm.gamma, vm.members)
    ring_like.cache_clear()
    assert ring_like(vm) and ring_like(twin) and ring_like(vm)
    assert (ring_like.cache_info().misses, ring_like.cache_info().hits) == (1, 2)


def test_the_ordinary_5_fold_table_parses_quickly(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    fam = importlib.import_module("families")
    doc = fam.ordinary_table(5, random.Random(5)).data
    start = time.perf_counter()
    vm = parse_value_module(doc)
    assert time.perf_counter() - start < 5.0
    assert vm.gamma == (4,) * 5 and len(vm.members) == 95


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
