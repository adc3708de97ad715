"""Finite-dimensional linear algebra over the ring: quotients, colons, duals,
value tables and finite-field point counts, all against frozen corpus facts."""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from singval import algebra
from singval.algebra import (
    CONDUCTOR_CLIMB,
    JetLayout,
    JetSpace,
    LengthsReport,
    RowSpaceQ,
    _band_contained,
    _gen_conductor,
    _modp_jet_basis,
    colon,
    contains_module,
    count_points_mod_q,
    degree,
    dim_quotient,
    dual,
    gorenstein_by_lengths,
    jet_rank_mod_q,
    lengths_report,
    max_ideal,
    module_equal,
    monomial_ideal,
    normalization_ideal,
    order_counts_mod_q,
    self_dual_direct,
    value_set,
    verify_canonical,
)
from singval.cli import EXIT_INPUT, main
from singval.curve import (
    BranchSeries,
    CurvePresentation,
    FracIdeal,
    el_mul,
    el_trunc,
    ideal_product,
    ideal_sum,
    ring_ideal,
)
from singval.errors import (
    BadReduction,
    EnumerationTooLarge,
    NotContained,
    SingvalError,
)
from singval.lattice import vec_check, vec_sub


def series(*pairs):
    return BranchSeries(dict(pairs))


# ---------------------------------------------------------------- conductors

CONDUCTORS = {
    "cusp": (2,),
    "e8": (8,),
    "semigroup345": (3,),
    "node": (1, 1),
    "tacnode": (2, 2),
}


def conductor(b):
    """Certified conductor in value coordinates, the shift taken off."""
    return vec_sub(_gen_conductor(b), b.shift)


def test_ring_conductors(curves):
    for name, want in CONDUCTORS.items():
        assert conductor(ring_ideal(curves[name])) == want, name


def test_ideal_conductor(corpus):
    b = corpus["e8"].curve_input.ideals["nonprincipal"]
    assert conductor(b) == (6,)


def _reference_conductor(a):
    """The bisection the one-span scan replaced: climb the diagonal by
    doubling steps, then shrink each coordinate by binary search, with a
    fresh band check (and jet span) per probe."""
    base = a.vmin
    k = 0
    while _band_contained(a, tuple(x + k for x in base)) is None:
        k = 2 * k if k else 1
        assert k <= CONDUCTOR_CLIMB
    hi = [x + k for x in base]
    for i in range(a.r):
        lo, up = base[i], hi[i]
        while lo < up:
            mid = (lo + up) // 2
            probe = tuple(mid if j == i else hi[j] for j in range(a.r))
            if _band_contained(a, probe) is not None:
                up = mid
            else:
                lo = mid + 1
        hi[i] = lo
    return tuple(hi)


def family_curves():
    """One member of each concrete benchmark family, higher terms included:
    t^p, t^q branches (t^9, t^11 has conductor 80), A_{2k-1}, the ordinary
    triple point and two glued cusps."""
    out = {}
    for p, q in [(2, 3), (3, 4), (2, 5), (3, 5), (2, 7), (4, 5), (3, 7), (5, 6), (5, 7),
                 (9, 11)]:
        out[f"t{p}_t{q}"] = CurvePresentation(1, [
            (series((p, 1), (p + 1, 2)),), (series((q, 1), (q + 1, -3), (q + 2, 5)),)])
    for k in (2, 4, 6, 8):
        out[f"A{2 * k - 1}"] = CurvePresentation(2, [
            (series((1, 1)), series((1, 1))),
            (series((k, 1), (k + 1, 3)), series((k, -1), (k + 1, -2)))])
    out["ordinary3"] = triple_point()
    out["glued_cusps"] = CurvePresentation(2, [
        (series((2, 1)), series((3, 1), (4, 5))), (series((3, 1), (4, -4)), series((2, 1)))])
    return out


def test_conductor_scan_matches_the_bisection(corpus):
    cases = list(corpus_ideals(corpus)) + list(corpus_duals(corpus))
    cases += [(name, "ring", ring_ideal(curve)) for name, curve in family_curves().items()]
    for name, iname, b in cases:
        assert _gen_conductor(b) == _reference_conductor(b), (name, iname)


def test_conductor_builds_one_span_per_climb_step(monkeypatch):
    built, checked = [], []
    span, band = algebra.jet_span, algebra._band_contained
    monkeypatch.setattr(algebra, "jet_span", lambda a, N: built.append(N) or span(a, N))
    monkeypatch.setattr(algebra, "_band_contained", lambda a, m: checked.append(m) or band(a, m))
    assert conductor(ring_ideal(family_curves()["t9_t11"])) == (80,)
    # the climb 9, 10, 11, 13, ..., 137 certifies at its ninth step
    assert len(checked) == len(built) == 9


# ---------------------------------------------------------------- membership

def member(a, z):
    """Is the element z in a?  Asked as containment of the principal ideal."""
    return contains_module(a, FracIdeal(a.curve, [z]))


def test_exact_member_cusp(curves):
    ring = ring_ideal(curves["cusp"])
    t = lambda e: (series((e, 1)),)
    assert member(ring, t(0))
    assert member(ring, t(2))
    assert member(ring, t(5))
    assert not member(ring, t(1))
    # linear combinations, not just monomials
    assert member(ring, (series((2, 1), (3, -4), (7, Fraction(1, 3))),))


def test_exact_member_node(curves):
    ring = ring_ideal(curves["node"])
    assert member(ring, (series((1, 1)), series((1, -2))))
    # branch values must agree at order zero
    assert not member(ring, (series((0, 1)), series((0, 2))))
    assert member(ring, (series((0, 3)), series((0, 3))))


def test_containment_chain(curves):
    for curve in curves.values():
        ring = ring_ideal(curve)
        nm = normalization_ideal(curve)
        m = max_ideal(curve)
        assert contains_module(nm, ring)
        assert contains_module(ring, m)
        assert not contains_module(m, ring)
        assert not contains_module(ring, nm)
        assert module_equal(ring, ring)
        assert not module_equal(ring, nm)


def test_named_ideals_match_constructions(corpus):
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        assert module_equal(ci.ideals["max"], max_ideal(ci.curve)), name
        if "normalization" in ci.ideals:
            got = module_equal(ci.ideals["normalization"], normalization_ideal(ci.curve))
            assert got, name


# ----------------------------------------------------------------- quotients

DELTAS = {"cusp": 1, "e8": 4, "semigroup345": 2, "node": 1, "tacnode": 2}


def test_delta_invariants(curves):
    for name, want in DELTAS.items():
        curve = curves[name]
        assert dim_quotient(normalization_ideal(curve), ring_ideal(curve)) == want


def test_dim_quotient_requires_containment(curves):
    curve = curves["cusp"]
    with pytest.raises(NotContained):
        dim_quotient(ring_ideal(curve), normalization_ideal(curve))


def test_degree_of_normalization_is_delta(curves):
    for name, want in DELTAS.items():
        assert degree(normalization_ideal(curves[name])) == want, name


def test_degree_of_max_ideal(curves):
    # dim((m + O)/O) = 0 and dim(O/m) = 1, so the degree is -1
    assert degree(max_ideal(curves["cusp"])) == -1
    assert degree(max_ideal(curves["node"])) == -1


def test_ring_types(curves):
    # dim of (O : m)/O, the Cohen-Macaulay type
    for name, want in [("cusp", 1), ("node", 1), ("semigroup345", 2)]:
        curve = curves[name]
        ring = ring_ideal(curve)
        typ = dim_quotient(colon(ring, max_ideal(curve)), ring)
        assert typ == want, name


# -------------------------------------------------------------------- colons

def test_colon_ring_by_normalization_is_conductor(curves):
    # O : Obar is the largest common ideal, a monomial module at the conductor
    for name, c in CONDUCTORS.items():
        curve = curves[name]
        got = colon(ring_ideal(curve), normalization_ideal(curve))
        assert module_equal(got, monomial_ideal(curve, c)), name


def test_colon_ring_by_max_ideal_cusp(curves):
    curve = curves["cusp"]
    got = colon(ring_ideal(curve), max_ideal(curve))
    assert module_equal(got, normalization_ideal(curve))


def test_colon_is_contained_in_first_argument_quotient(curves):
    curve = curves["tacnode"]
    ring = ring_ideal(curve)
    c = colon(ring, normalization_ideal(curve))
    assert contains_module(ring, c)
    assert contains_module(normalization_ideal(curve), c)


# ------------------------------------------------------------------- lengths

RING_LENGTHS = {
    "cusp": (1, 2, 1),
    "e8": (4, 8, 4),
    "semigroup345": (1, 3, 2),
    "node": (1, 2, 1),
    "tacnode": (2, 4, 2),
}


def test_ring_length_reports(corpus):
    for name, (inside, total, outside) in RING_LENGTHS.items():
        ci = corpus[name].curve_input
        canonical = None
        if ci.canonical == "ring":
            canonical = ring_ideal(ci.curve)
        elif ci.canonical is not None:
            canonical = ci.ideals[ci.canonical]
        rep = lengths_report(ring_ideal(ci.curve), canonical)
        assert isinstance(rep, LengthsReport)
        assert (rep.inside, rep.total, rep.outside) == (inside, total, outside), name
        assert rep.doubled_equals_total == (2 * inside == total)
        assert rep.doubled_leq_total == (2 * inside <= total)
        assert rep.dual_match is True, name


def test_canonical_ideal_length_report(corpus):
    # the module where doubling the inside length overshoots the total
    ci = corpus["semigroup345"].curve_input
    can = ci.ideals["can"]
    rep = lengths_report(can, can)
    assert (rep.inside, rep.total, rep.outside) == (2, 3, 1)
    assert not rep.doubled_equals_total
    assert not rep.doubled_leq_total
    assert rep.dual_match is True


def test_gorenstein_by_lengths(curves):
    for name in ["cusp", "e8", "node", "tacnode"]:
        assert gorenstein_by_lengths(curves[name]), name
    assert not gorenstein_by_lengths(curves["semigroup345"])


# --------------------------------------------------------------------- duals

def test_dual_swaps_ring_and_canonical(corpus):
    ci = corpus["semigroup345"].curve_input
    can = ci.ideals["can"]
    ring = ring_ideal(ci.curve)
    assert module_equal(dual(ring, can), can)
    assert module_equal(dual(can, can), ring)


def test_dual_of_max_ideal_cusp(corpus):
    ci = corpus["cusp"].curve_input
    ring = ring_ideal(ci.curve)
    got = dual(max_ideal(ci.curve), ring)
    assert module_equal(got, normalization_ideal(ci.curve))


def test_dual_is_involutive_on_corpus_ideals(corpus):
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        if ci.canonical == "ring":
            canonical = ring_ideal(ci.curve)
        else:
            canonical = ci.ideals[ci.canonical]
        for iname, b in ci.ideals.items():
            bb = dual(dual(b, canonical), canonical)
            assert module_equal(bb, b), (name, iname)


def test_verify_canonical_positive(corpus):
    for name in ["cusp", "e8", "node", "tacnode"]:
        ci = corpus[name].curve_input
        ok, failures = verify_canonical(ring_ideal(ci.curve), list(ci.ideals.values()))
        assert ok, (name, failures)
    ci = corpus["semigroup345"].curve_input
    ok, failures = verify_canonical(ci.ideals["can"], list(ci.ideals.values()))
    assert ok, failures


def test_verify_canonical_negative(corpus):
    # a non-Gorenstein ring is not its own canonical module
    ci = corpus["semigroup345"].curve_input
    ok, failures = verify_canonical(ring_ideal(ci.curve), list(ci.ideals.values()))
    assert not ok
    assert failures


# ------------------------------------------------------------- self-duality

def test_self_dual_direct_verdicts(corpus):
    cases = [
        ("cusp", "ring", "yes"),
        ("cusp", "max", "yes"),
        ("cusp", "normalization", "yes"),
        ("e8", "ring", "yes"),
        ("node", "ring", "yes"),
        ("node", "max", "yes"),
        ("tacnode", "max", "yes"),
        ("semigroup345", "ring", "no"),
        ("semigroup345", "can", "no"),
        ("semigroup345", "normalization", "yes"),
    ]
    for name, iname, want in cases:
        ci = corpus[name].curve_input
        if ci.canonical == "ring":
            canonical = ring_ideal(ci.curve)
        else:
            canonical = ci.ideals[ci.canonical]
        b = ring_ideal(ci.curve) if iname == "ring" else ci.ideals[iname]
        verdict, why = self_dual_direct(b, canonical)
        assert verdict == want, (name, iname, verdict, why)


def test_self_dual_direct_is_deterministic(corpus):
    ci = corpus["semigroup345"].curve_input
    can = ci.ideals["can"]
    first = self_dual_direct(ring_ideal(ci.curve), can, seed=7)
    second = self_dual_direct(ring_ideal(ci.curve), can, seed=7)
    assert first == second


# ------------------------------------------------------------- value tables

RING_MEMBERS = {
    "cusp": {(0,), (2,)},
    "e8": {(0,), (3,), (5,), (6,), (8,)},
    "semigroup345": {(0,), (3,)},
    "node": {(0, 0), (1, 1)},
    "tacnode": {(0, 0), (1, 1), (2, 2)},
}


def test_ring_value_tables(ring_vms, curves):
    for name, want in RING_MEMBERS.items():
        vm = ring_vms[name]
        assert set(vm.members) == want, name
        assert vm.gamma == CONDUCTORS[name]
        assert vm.deg_offset == 0
        assert vm.is_good()


def test_value_table_of_shifted_ideal(corpus):
    # values are reported relative to the minimum, the offset keeps the shift
    b = corpus["e8"].curve_input.ideals["nonprincipal"]
    assert b.values_offset() == (3,)
    vm = value_set(b)
    assert set(vm.members) == {(0,), (1,), (3,)}
    assert vm.gamma == (3,)


def test_value_table_degree_offsets(corpus):
    ci = corpus["cusp"].curve_input
    assert value_set(max_ideal(ci.curve)).deg_offset == 1
    assert value_set(normalization_ideal(ci.curve)).deg_offset == 1
    ci = corpus["semigroup345"].curve_input
    assert value_set(ci.ideals["can"]).deg_offset == 1


# ------------------------------------------------------------- finite fields

def test_jet_ranks(curves):
    assert jet_rank_mod_q(curves["cusp"], 2, 4) == 4
    assert jet_rank_mod_q(curves["cusp"], 3, 4) == 4
    assert jet_rank_mod_q(curves["node"], 2, 3) == 7
    assert jet_rank_mod_q(curves["node"], 2, 4) == 9
    assert jet_rank_mod_q(curves["tacnode"], 2, 3) == 6


COUNTS = {
    ("cusp", 2, 4): {(0,): 8, (1,): 0, (2,): 4, (3,): 2},
    ("cusp", 3, 4): {(0,): 54, (1,): 0, (2,): 18, (3,): 6},
    ("node", 2, 3): {(0, 0): 64, (1, 1): 16, (1, 2): 8, (2, 1): 8, (2, 2): 4, (0, 1): 0},
    ("tacnode", 2, 3): {(0, 0): 32, (1, 1): 16},
}


def test_point_counts(curves):
    for (name, q, level), table in COUNTS.items():
        for v, want in table.items():
            got = count_points_mod_q(curves[name], q, v, level)
            assert got == want, (name, q, v)


def triple_point():
    """An ordinary triple point: three lines with slopes 0, 1, 2, distinct mod 3."""
    return CurvePresentation(3, [(series((1, 1)), series((1, 1)), series((1, 1))),
                                 (series(), series((1, 1)), series((1, 2)))])


def _naive_order_counts(curve, p, level):
    """Reference histogram: every coefficient word is rebuilt from all basis
    rows, with no Gray-code walk and no running vector."""
    N = (level + 1,) * curve.r
    rows, layout = _modp_jet_basis(curve, p, N)
    counts = {}
    for combo in product(range(p), repeat=len(rows)):
        vec = [0] * layout.ncols
        for c, row in zip(combo, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        vec[j] = (vec[j] + c * x) % p
        key = tuple(next((e for e in range(n) if vec[base + e]), n)
                    for base, n in zip(layout.offsets, N))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _check_against_naive(curve, p, level):
    rank = jet_rank_mod_q(curve, p, level)
    got = order_counts_mod_q(curve, p, level)
    assert sum(got.values()) == p ** rank
    assert got == _naive_order_counts(curve, p, level)


def test_order_counts_match_the_naive_enumeration(curves):
    # the highest level with p^rank <= 2^12, for every corpus curve and prime
    for curve in curves.values():
        for p in (2, 3, 5):
            level = 1
            while p ** jet_rank_mod_q(curve, p, level + 1) <= 2 ** 12:
                level += 1
            _check_against_naive(curve, p, level)
    triple = triple_point()
    assert jet_rank_mod_q(triple, 3, 2) == 6
    _check_against_naive(triple, 3, 2)


def test_count_rejects_composite_modulus(curves):
    with pytest.raises(SingvalError):
        count_points_mod_q(curves["cusp"], 4, (0,), 3)
    with pytest.raises(SingvalError):
        jet_rank_mod_q(curves["cusp"], 6, 3)


def test_count_respects_enumeration_ceiling(curves):
    with pytest.raises(EnumerationTooLarge):
        count_points_mod_q(curves["node"], 2, (0, 0), 4, ceiling=100)
    # the default ceiling stops 2^61 vectors before any is enumerated
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match="2\\^61 vectors"):
        order_counts_mod_q(curves["node"], 2, 30)
    assert time.perf_counter() - start < 5


def half_coefficient():
    """t^2 + t^3/2: no reduction mod 2."""
    return CurvePresentation(1, [(series((2, 1), (3, Fraction(1, 2))),)])


def vanishing_leading_coefficient():
    """3t^2 + t^5: the leading term vanishes mod 3."""
    return CurvePresentation(1, [(series((2, 3), (5, 1)),)])


def test_bad_reduction_detected():
    with pytest.raises(BadReduction, match="denominator divisible by 2"):
        jet_rank_mod_q(half_coefficient(), 2, 4)


def test_reduction_rejects_vanishing_leading_coefficient():
    with pytest.raises(BadReduction, match="vanishes mod 3"):
        jet_rank_mod_q(vanishing_leading_coefficient(), 3, 4)


# Reference GF(p) basis with its own generator reduction, row reduction and
# closure, sharing no code with RowSpaceQ and JetSpace.

def _reference_gen_coeffs(curve, p, N):
    out = []
    for g in curve.gens:
        comps = []
        for i, x in enumerate(g):
            red = {}
            for e, c in x.coeffs.items():
                if e >= N[i]:
                    continue
                if c.denominator % p == 0:
                    raise BadReduction(f"coefficient {c} has denominator divisible by {p}")
                num = c.numerator % p
                den = pow(c.denominator % p, p - 2, p)
                v = (num * den) % p
                if v == 0:
                    raise BadReduction(
                        f"nonzero coefficient {c} vanishes mod {p}; the reduction would "
                        "change the curve")
                red[e] = v
            comps.append(red)
        out.append(comps)
    return out


def _reference_rref_add(rows, pivots, vec, p):
    v = vec[:]
    n = len(v)
    for pc, r in zip(pivots, rows):
        c = v[pc]
        if c:
            for j in range(pc, n):
                v[j] = (v[j] - c * r[j]) % p
    piv = next((j for j, c in enumerate(v) if c), None)
    if piv is None:
        return False
    inv = pow(v[piv], p - 2, p)
    v = [(c * inv) % p for c in v]
    for r in rows:
        c = r[piv]
        if c:
            for j in range(piv, n):
                r[j] = (r[j] - c * v[j]) % p
    k = next((idx for idx, q in enumerate(pivots) if q > piv), len(pivots))
    rows.insert(k, v)
    pivots.insert(k, piv)
    return True


def _reference_modp_basis(curve, p, N):
    layout = JetLayout(N)
    gens = _reference_gen_coeffs(curve, p, N)
    offsets = layout.offsets

    def mul_gen(row, g):
        out = [0] * layout.ncols
        for i in range(curve.r):
            base = offsets[i]
            comp = g[i]
            for e, c in comp.items():
                for k in range(N[i] - e):
                    a = row[base + k]
                    if a:
                        out[base + e + k] = (out[base + e + k] + c * a) % p
        return out

    one = [0] * layout.ncols
    for i in range(curve.r):
        one[offsets[i]] = 1
    rows = []
    pivots = []
    queue = []
    if _reference_rref_add(rows, pivots, one, p):
        queue.append(one)
    while queue:
        x = queue.pop()
        for g in gens:
            y = mul_gen(x, g)
            if _reference_rref_add(rows, pivots, y, p):
                queue.append(y)
    return rows, layout


def _basis_or_error(build, curve, p, N):
    try:
        return build(curve, p, N)
    except BadReduction as exc:
        return "BadReduction", str(exc)


def test_modp_basis_matches_the_reference(curves):
    inputs = dict(curves, triple=triple_point(), half=half_coefficient(),
                  vanishing=vanishing_leading_coefficient())
    rejected = set()
    for name, curve in inputs.items():
        for p in (2, 3, 5):
            for level in range(1, 6):
                N = (level + 1,) * curve.r
                got = _basis_or_error(_modp_jet_basis, curve, p, N)
                assert got == _basis_or_error(_reference_modp_basis, curve, p, N), (name, p, level)
                if got[0] == "BadReduction":
                    rejected.add((name, p))
    # the triple point's slope 2 vanishes mod 2
    assert rejected == {("half", 2), ("vanishing", 3), ("triple", 2)}


coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_times_is_the_truncated_product(curves, data):
    # the closure's product of a jet row with a generator, against the
    # product of exact elements truncated afterwards; the corpus generators
    # are monomials on each branch, so a random multiplier joins them
    def element(r):
        return tuple(BranchSeries(data.draw(st.dictionaries(st.integers(0, 11), coefficients,
                                                            max_size=6)))
                     for _ in range(r))

    for name, curve in curves.items():
        N = tuple(data.draw(st.lists(st.integers(1, 9), min_size=curve.r, max_size=curve.r)))
        x = element(curve.r)
        layout = JetLayout(N)
        row = layout.element_row(x)
        for m in curve.gens + (element(curve.r),):
            gen = [list(s.coeffs.items()) for s in m]
            want = layout.element_row(el_trunc(el_mul(x, m), N))
            assert layout.times(row, gen) == want, (name, N, x, m)


def test_reduction_rejects_branches_that_coincide_mod_p(tmp_path, capsys):
    # A7 as (t, t^4), (t, -t^4): mod 2 the two branches are one, the ring
    # jets lose rank, and every count would be off
    curve = CurvePresentation(2, [(series((1, 1)), series((1, 1))),
                                  (series((4, 1)), series((4, -1)))])
    with pytest.raises(BadReduction, match="rank 6 mod 2 but 8 over Q"):
        jet_rank_mod_q(curve, 2, 5)
    path = tmp_path / "a7.json"
    path.write_text(json.dumps({
        "field": "rational",
        "branches": 2,
        "ring_generators": [[[[1, 1, 1]], [[1, 1, 1]]], [[[4, 1, 1]], [[4, -1, 1]]]],
    }))
    assert main(["count", str(path), "--q", "2", "--level", "5"]) == EXIT_INPUT
    assert "rank 6 mod 2 but 8 over Q" in capsys.readouterr().err


# --------------------------------------------------------------- consistency

def test_length_report_is_additive(corpus, ideal_vms):
    # b : Obar sits inside b sits inside bObar, so the lengths must add up;
    # the value module reads the inside as l(gamma) and the total as |gamma|
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        for iname, b in list(ci.ideals.items()) + [("ring", ring_ideal(ci.curve))]:
            rep = lengths_report(b, None)
            assert rep.total == rep.inside + rep.outside, (name, iname)
            vm = ideal_vms[(name, iname)]
            assert (rep.inside, rep.total) == (vm.ell(vm.gamma), sum(vm.gamma)), (name, iname)


def corpus_ideals(corpus):
    """(curve name, ideal name, ideal) for the ring, the normalization, the
    maximal ideal and every named ideal of every concrete corpus curve."""
    for name, inp in corpus.items():
        if inp.mode != "concrete":
            continue
        ci = inp.curve_input
        curve = ci.curve
        yield name, "ring", ring_ideal(curve)
        yield name, "normalization()", normalization_ideal(curve)
        yield name, "max()", max_ideal(curve)
        for iname, b in ci.ideals.items():
            yield name, iname, b


def corpus_duals(corpus):
    """(curve name, "dual of " ideal name, dual) against the file's canonical
    ideal, for every ideal corpus_ideals yields on a curve that names one."""
    canonicals = {}
    for name, iname, b in corpus_ideals(corpus):
        ci = corpus[name].curve_input
        if ci.canonical is None:
            continue
        if name not in canonicals:
            canonicals[name] = (ring_ideal(ci.curve) if ci.canonical == "ring"
                                else ci.ideals[ci.canonical])
        yield name, f"dual of {iname}", dual(b, canonicals[name])


def test_degree_is_the_index_against_the_ring(corpus):
    # deg b = l((b + O)/O) - l((b + O)/b), computed through the sum ideal
    for name, iname, b in corpus_ideals(corpus):
        o = ring_ideal(b.curve)
        s = ideal_sum(b, o)
        assert degree(b) == dim_quotient(s, o) - dim_quotient(s, b), (name, iname)


def test_length_report_total_is_the_full_quotient(corpus):
    # each length asked for directly along b : Obar <= b <= b*Obar
    for name, iname, b in list(corpus_ideals(corpus)) + list(corpus_duals(corpus)):
        nm = normalization_ideal(b.curve)
        trace, full = colon(b, nm), ideal_product(b, nm)
        rep = lengths_report(b)
        assert rep.total == dim_quotient(full, trace), (name, iname)
        assert rep.inside == dim_quotient(b, trace), (name, iname)
        assert rep.outside == dim_quotient(full, b), (name, iname)


def test_single_branch_gap_count_matches_quotient(corpus, ideal_vms):
    # one branch: dim of bObar/b is the number of non-values below the conductor
    for (name, iname), vm in ideal_vms.items():
        if vm.r != 1:
            continue
        ci = corpus[name].curve_input
        b = ring_ideal(ci.curve) if iname == "ring" else ci.ideals[iname]
        rep = lengths_report(b, None)
        assert rep.outside == vm.gamma[0] - vm.ell(vm.gamma), (name, iname)


# ---------------------------------------------------------------- cut table

def _reference_dim_at_least(space, w):
    """The projection-rank dim_at_least the cut table replaced: the rank of
    the span minus the rank of its projection onto the columns below w,
    ranked afresh in the span's own field."""
    w = vec_check(w, space.layout.r)
    if any(x > n for x, n in zip(w, space.layout.N)):
        raise SingvalError(f"support cut {w} exceeds the jet precision {space.layout.N}")
    low_cols = [
        space.layout.offsets[i] + e
        for i in range(space.layout.r)
        for e in range(max(0, min(w[i], space.layout.N[i])))
    ]
    proj = [[row[j] for j in low_cols] for row in space.space.rows]
    sp = RowSpaceQ(len(low_cols), space.space.p)
    for row in proj:
        sp.add(row)
    return space.space.rank - sp.rank


def test_cut_table_matches_the_projection_rank(corpus):
    rng = random.Random(20261018)
    spans = [(name, iname, b.curve, b.gens) for name, iname, b in corpus_ideals(corpus)]
    triple = triple_point()
    spans.append(("triple", "ring", triple, ring_ideal(triple).gens))
    checked = 0
    for name, iname, curve, gens in spans:
        ragged = tuple(rng.randint(1, 6) for _ in range(curve.r))
        for p in (0, 2, 3, 5):
            if (name, p) == ("triple", 2):
                continue  # the slope 2 vanishes mod 2
            for N in ((1,) * curve.r, (3,) * curve.r, ragged):
                space = JetSpace(curve, gens, N, p)
                for w in product(*[range(-1, n + 1) for n in N]):
                    want = _reference_dim_at_least(space, w)
                    assert space.dim_at_least(w) == want, (name, iname, p, N, w)
                    checked += 1
                with pytest.raises(SingvalError, match="exceeds the jet precision"):
                    space.dim_at_least(tuple(n + (i == 0) for i, n in enumerate(N)))
    assert checked > 4000
