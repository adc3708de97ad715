"""Unit and property tests for exact Z[L, 1/L] arithmetic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from singval.errors import NotDivisible, SingvalError
from singval.lefschetz import (
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
    gc_to_json,
    gc_to_text,
)

classes = st.builds(
    GrothendieckClass,
    st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6),
)
nonzero_classes = classes.filter(lambda a: not a.is_zero())


def test_canonical_form_drops_zeros():
    a = GrothendieckClass({3: 0, 1: 2, 0: -1})
    assert a.terms == {1: 2, 0: -1}
    assert GrothendieckClass({5: 1, -5: -1}) != GC_ZERO
    assert GrothendieckClass() == GC_ZERO == 0


def test_merges_repeated_exponents():
    a = GrothendieckClass([(2, 1), (2, -1), (0, 3)])
    assert a == gc_int(3)


def test_int_comparison_and_hash():
    assert gc_int(7) == 7
    assert gc_monomial(1) != 1
    assert hash(GrothendieckClass({1: 2})) == hash(gc_monomial(1, 2))


def test_exponent_cap():
    with pytest.raises(SingvalError):
        GrothendieckClass({10**7: 1})


@given(classes, classes)
def test_add_commutes(a, b):
    assert gc_add(a, b) == gc_add(b, a)


@given(classes, classes, classes)
def test_mul_distributes(a, b, c):
    assert gc_mul(a, gc_add(b, c)) == gc_add(gc_mul(a, b), gc_mul(a, c))


@given(classes, classes, classes)
def test_mul_associates(a, b, c):
    assert gc_mul(gc_mul(a, b), c) == gc_mul(a, gc_mul(b, c))


@given(classes, nonzero_classes)
def test_div_undoes_mul(a, b):
    assert gc_div_exact(gc_mul(a, b), b) == a


@given(classes)
def test_invert_is_involution(a):
    assert gc_invert_L(gc_invert_L(a)) == a


@given(classes, classes)
def test_invert_is_a_ring_map(a, b):
    assert gc_invert_L(gc_mul(a, b)) == gc_mul(gc_invert_L(a), gc_invert_L(b))


@given(classes, classes, st.integers(2, 11))
def test_eval_is_a_ring_map(a, b, q):
    assert gc_eval_rational(gc_mul(a, b), q) == gc_eval_rational(a, q) * gc_eval_rational(b, q)


def test_eval_rational_exact():
    a = GrothendieckClass({2: 3, -1: -1, 0: 7})
    assert gc_eval_rational(a, 2) == 3 * 4 - Fraction(1, 2) + 7
    with pytest.raises(SingvalError):
        gc_eval_rational(a, 1)


def test_cyclotomic_quotient():
    num = gc_add(gc_monomial(5), gc_int(-1))
    den = gc_add(gc_monomial(1), gc_int(-1))
    assert gc_div_exact(num, den) == GrothendieckClass({i: 1 for i in range(5)})


def test_division_failures():
    L = gc_monomial(1)
    with pytest.raises(NotDivisible):
        gc_div_exact(gc_add(L, GC_ONE), gc_add(L, gc_int(-1)))
    with pytest.raises(NotDivisible):
        gc_div_exact(gc_add(L, GC_ONE), gc_int(2))
    # 1/(L+1) is a power series, not a Laurent polynomial
    with pytest.raises(NotDivisible):
        gc_div_exact(GC_ONE, gc_add(L, GC_ONE))
    with pytest.raises(NotDivisible):
        gc_div_exact(GC_ONE, GC_ZERO)
    assert gc_div_exact(GC_ZERO, L) == GC_ZERO


def test_negative_exponent_division():
    # (L - L^-1) / (L + 1) = 1 - L^-1
    num = GrothendieckClass({1: 1, -1: -1})
    den = GrothendieckClass({1: 1, 0: 1})
    assert gc_div_exact(num, den) == GrothendieckClass({0: 1, -1: -1})


def test_text_form():
    assert gc_to_text(GC_ZERO) == "0"
    assert gc_to_text(gc_int(-4)) == "-4"
    a = GrothendieckClass({2: 3, -1: -1, 0: 7})
    assert gc_to_text(a) == "3*L^2 + 7 - L^-1"
    assert gc_to_text(gc_monomial(1)) == "L"
    assert str(gc_monomial(-2, -1)) == "-L^-2"


@given(classes)
def test_json_round_trip(a):
    data = json.loads(json.dumps(gc_to_json(a)))
    exps = [e for e, _ in data]
    assert exps == sorted(exps, reverse=True) and len(set(exps)) == len(exps)
    assert GrothendieckClass({e: int(c) for e, c in data}) == a


def test_json_coefficients_are_strings():
    assert gc_to_json(GC_ZERO) == []
    a = GrothendieckClass({2: 3, -1: -1, 0: 7})
    assert gc_to_json(a) == [[2, "3"], [0, "7"], [-1, "-1"]]


def test_big_coefficients_survive_json():
    a = GrothendieckClass({0: 10**30})
    assert json.loads(json.dumps(gc_to_json(a))) == [[0, str(10**30)]]


def test_operator_sugar():
    L = gc_monomial(1)
    assert L + 1 == GrothendieckClass({1: 1, 0: 1})
    assert 1 - L == GrothendieckClass({0: 1, 1: -1})
    assert (L + 1) * (L - 1) == GrothendieckClass({2: 1, 0: -1})
    assert -L == gc_monomial(1, -1)
    assert 2 * L == gc_monomial(1, 2)
