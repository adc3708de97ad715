"""Branch series, elements, ring presentations and fractional ideals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from singval.curve import (
    BS_ONE,
    BS_ZERO,
    BranchSeries,
    CurvePresentation,
    FracIdeal,
    bs_coeff,
    bs_monomial,
    bs_mul,
    bs_order,
    bs_shift,
    el_is_exact_zero,
    el_mul,
    el_shift,
    el_trunc,
    el_unit_monomial,
    common_shift,
    ideal_product,
    monomial_scale,
    ring_ideal,
)
from singval.errors import SchemaError, SingvalError, ZeroDivisor


def series(*pairs):
    return BranchSeries(dict(pairs))


# -- branch series ---------------------------------------------------------------


def test_series_drops_zero_and_truncated_coefficients():
    a = series((0, 1), (3, 0), (5, 2))
    assert a.coeffs == {0: Fraction(1), 5: Fraction(2)}
    assert el_trunc((a,), (4,))[0].coeffs == {0: Fraction(1)}
    assert not a.is_exact_zero()
    assert BranchSeries().is_exact_zero()
    assert BranchSeries({4: 0}).is_exact_zero()
    # terms that cancel leave no zero behind: (1 + t)(1 - t) = 1 - t^2
    assert bs_mul(series((0, 1), (1, 1)), series((0, 1), (1, -1))).coeffs == {
        0: Fraction(1), 2: Fraction(-1)}
    assert bs_mul(series((2, 1)), BS_ZERO).is_exact_zero()


def test_shift_allows_negative_exponents():
    a = bs_shift(series((2, 1)), -3)
    assert a.coeffs == {-1: Fraction(1)}


def test_order_and_coeff_report_unknowns():
    assert bs_order(series((4, 5))) == 4
    with pytest.raises(ZeroDivisor):
        bs_order(BS_ZERO)
    assert bs_coeff(series((1, 2)), 3) == 0
    assert bs_coeff(series((1, 2)), 1) == 2


small_series = st.builds(
    BranchSeries,
    st.dictionaries(st.integers(0, 6), st.integers(-4, 4), max_size=4),
)


def _plus(a, b):
    return BranchSeries({e: a.coeffs.get(e, 0) + b.coeffs.get(e, 0)
                         for e in a.coeffs.keys() | b.coeffs.keys()})


@given(small_series, small_series, small_series)
def test_mul_distributes_over_add(a, b, c):
    lhs = bs_mul(a, _plus(b, c))
    rhs = _plus(bs_mul(a, b), bs_mul(a, c))
    assert lhs.coeffs == rhs.coeffs


@given(small_series, small_series, st.integers(0, 8), st.integers(0, 8))
def test_trunc_then_trunc_is_idempotent(a, b, m, n):
    once = el_trunc((a, b), (m, n))
    assert el_trunc(once, (m, n)) == once
    for x, y, k in zip(once, (a, b), (m, n)):
        assert x.coeffs == {e: c for e, c in y.coeffs.items() if e < k}


# -- elements ---------------------------------------------------------------------


def test_el_shift_moves_every_branch_independently():
    x = el_shift((bs_monomial(2), bs_monomial(3)), (-2, 1))
    assert tuple(bs_order(y) for y in x) == (0, 4)


def test_el_unit_monomial_places_one_branch():
    x = el_unit_monomial(3, 1, 4)
    assert x[0].is_exact_zero() and x[2].is_exact_zero()
    assert x[1].coeffs == {4: Fraction(1)}
    assert not el_is_exact_zero(x)
    assert el_is_exact_zero((BS_ZERO,) * 3)


def test_el_mul_is_componentwise():
    x = (bs_monomial(1), series((0, 1), (2, 1)))
    y = (bs_monomial(2), bs_monomial(1))
    assert el_mul(x, y) == (bs_monomial(3), series((1, 1), (3, 1)))


# -- presentations ------------------------------------------------------------------


def cusp_curve():
    return CurvePresentation(1, [(bs_monomial(2),), (bs_monomial(3),)])


def node_curve():
    return CurvePresentation(2, [
        (bs_monomial(1), BS_ZERO),
        (BS_ZERO, bs_monomial(1)),
    ])


def test_presentation_strips_constants_and_finds_a_nonzerodivisor():
    # generators are given with matching constant terms, which get removed
    c = CurvePresentation(1, [(series((0, 5), (2, 1)),), (series((0, 5), (3, 1)),)])
    assert [g[0].coeffs for g in c.gens] == [{2: Fraction(1)}, {3: Fraction(1)}]
    assert all(o >= 1 for o in c.z0_order)


def test_presentation_rejects_mismatched_constants():
    with pytest.raises(SchemaError):
        CurvePresentation(2, [(series((0, 1)), series((0, 2)))])


def test_presentation_rejects_untouched_branches():
    with pytest.raises(SchemaError):
        CurvePresentation(2, [(bs_monomial(1), BS_ZERO)])


def test_node_nonzerodivisor_mixes_the_branches():
    c = node_curve()
    assert c.z0_order == (1, 1)


# -- fractional ideals ---------------------------------------------------------------


def test_ideal_keeps_generators_in_the_positive_chart():
    c = cusp_curve()
    # denominators go through the shift: t^-3 (t^2 + t^3) has value -1
    b = FracIdeal(c, [(series((2, 1), (3, 1)),)], shift=(3,))
    assert b.vmin == (2,)
    assert b.values_offset() == (-1,)
    # a generator with a literal pole is rejected
    with pytest.raises(SingvalError):
        FracIdeal(c, [(series((-1, 1),),)])


def test_ring_ideal_has_value_offset_zero():
    b = ring_ideal(cusp_curve())
    assert b.values_offset() == (0,)
    assert b.vmin == b.shift


def test_rebase_preserves_the_module():
    c = cusp_curve()
    b = FracIdeal(c, [(bs_monomial(2),), (bs_monomial(3),)])
    moved = b.rebase((5,))
    assert moved.shift == (5,)
    assert moved.values_offset() == b.values_offset()


def test_ideal_sum_and_product_offsets():
    c = cusp_curve()
    ring = ring_ideal(c)
    m = FracIdeal(c, [(bs_monomial(2),), (bs_monomial(3),)])
    a, b = common_shift(ring, m)
    assert FracIdeal(c, list(a.gens) + list(b.gens), a.shift).values_offset() == (0,)
    assert ideal_product(m, m).values_offset() == (4,)
    assert monomial_scale(m, (-2,)).values_offset() == (0,)


def test_ideal_requires_a_nonzero_generator():
    c = cusp_curve()
    with pytest.raises(SingvalError):
        FracIdeal(c, [(BS_ZERO,)])


def test_generators_touch_every_branch():
    c = node_curve()
    with pytest.raises(SingvalError):
        FracIdeal(c, [(bs_monomial(1), BS_ZERO)])
