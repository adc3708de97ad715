"""Unit and property tests for exact Z[L, 1/L] arithmetic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from singval.errors import NotDivisible, SingvalError
from singval.lefschetz import (
    GC_ONE,
    GC_ZERO,
    MAX_EXPONENT,
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
L_MINUS_1 = GrothendieckClass({1: 1, 0: -1})


def _reference_div_exact(a: GrothendieckClass, b: GrothendieckClass) -> GrothendieckClass:
    """Exact quotient a / b in Z[L, 1/L].

    Long division by descending exponent over Q; raises NotDivisible if a
    remainder survives, any quotient coefficient is non-integral, or the
    quotient would need exponents below min(a) - min(b) (i.e. the
    division does not terminate inside Laurent polynomials).
    """
    if b.is_zero():
        raise NotDivisible("division by zero class")
    if a.is_zero():
        return GC_ZERO
    lead_e = max(b._terms)
    lead_c = b._terms[lead_e]
    floor_e = min(a._terms) - min(b._terms)
    rem: dict[int, Fraction] = {e: Fraction(c) for e, c in a._terms.items()}
    quo: dict[int, Fraction] = {}
    while rem:
        e = max(rem)
        qe = e - lead_e
        if qe < floor_e:
            raise NotDivisible(f"{a} is not divisible by {b}")
        qc = rem[e] / lead_c
        quo[qe] = qc
        for be, bc in b._terms.items():
            k = qe + be
            s = rem.get(k, Fraction(0)) - qc * bc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    out: dict[int, int] = {}
    for e, c in quo.items():
        if c.denominator != 1:
            raise NotDivisible(f"{a} is not divisible by {b} over Z")
        if c.numerator:
            out[e] = c.numerator
    return GrothendieckClass(out)


def test_canonical_form_drops_zeros():
    a = GrothendieckClass({3: 0, 1: 2, 0: -1})
    assert a == GrothendieckClass({1: 2, 0: -1})
    assert max(a._terms) == 1 and a._terms.get(3, 0) == 0
    assert GrothendieckClass({5: 1, -5: -1}) != GC_ZERO
    assert GrothendieckClass() == GC_ZERO == gc_int(0)
    # sums and products that cancel leave no zero coefficient behind
    cancelled = gc_add(gc_monomial(2, 3), gc_monomial(2, -3))
    assert cancelled == GC_ZERO and cancelled.is_zero()
    L = gc_monomial(1)
    assert gc_mul(gc_add(L, GC_ONE), gc_add(L, gc_int(-1))) == GrothendieckClass({2: 1, 0: -1})


def test_int_comparison_and_hash():
    # an int that compared equal would have to hash like the int
    assert gc_int(7) != 7 and GC_ZERO != 0
    assert gc_monomial(1) != 1
    assert hash(GrothendieckClass({1: 2})) == hash(gc_monomial(1, 2))


@given(classes, classes)
def test_equal_classes_hash_equal(a, b):
    pairs = [
        (gc_add(a, b), gc_add(b, a)),
        (gc_mul(a, b), gc_mul(b, a)),
        # the same class built from its coefficients by increasing exponent
        (a, GrothendieckClass({e: a._terms.get(e, 0)
                               for e in range(min(a._terms), max(a._terms) + 1)}
                              if a else {})),
        (a, b),
    ]
    for x, y in pairs:
        if x == y:
            assert hash(x) == hash(y)


def test_exponent_cap():
    with pytest.raises(SingvalError):
        GrothendieckClass({10**7: 1})


# -- the gc_* results skip the public constructor's checks ---------------------


def _as_if_checked(x: GrothendieckClass) -> None:
    """x is what the public constructor makes of x's own terms: equal, with
    the same hash and the same canonical term order."""
    y = GrothendieckClass(dict(x._terms))
    assert x == y and hash(x) == hash(y)
    assert list(x._terms.items()) == list(y._terms.items())
    assert all(type(e) is int and type(c) is int and c for e, c in x._terms.items())


@given(classes, classes)
def test_trusted_results_are_canonical(a, b):
    for x in (gc_add(a, b), gc_add(a, gc_mul(gc_int(-1), a)), gc_mul(a, b), gc_invert_L(a),
              gc_div_exact(gc_mul(a, L_MINUS_1)), gc_div_exact(gc_mul(gc_mul(a, b), L_MINUS_1))):
        _as_if_checked(x)


def test_trusted_results_keep_the_exponent_cap():
    top, bottom = gc_monomial(MAX_EXPONENT), gc_monomial(-MAX_EXPONENT)
    _as_if_checked(gc_mul(top, gc_monomial(-1)))
    _as_if_checked(gc_invert_L(gc_add(top, bottom)))
    for a, b in [(top, gc_monomial(1)), (bottom, gc_monomial(-1)),
                 (gc_add(top, GC_ONE), gc_add(gc_monomial(3), gc_monomial(-2))),
                 (gc_add(GC_ONE, bottom), gc_add(gc_monomial(-1), gc_monomial(-2))),
                 (gc_add(top, bottom), gc_add(gc_monomial(1), gc_monomial(-1)))]:
        with pytest.raises(SingvalError, match="safety cap"):
            gc_mul(a, b)


class _Int(int):
    pass


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
def test_public_constructors_refuse_bool_and_float(bad):
    for make in (lambda: GrothendieckClass({bad: 1}), lambda: GrothendieckClass({1: bad}),
                 lambda: gc_int(bad), lambda: gc_monomial(bad), lambda: gc_monomial(1, bad)):
        with pytest.raises(TypeError):
            make()


def test_public_constructors_accept_int_subclasses():
    assert GrothendieckClass({_Int(2): _Int(3)}) == gc_monomial(2, 3)
    assert gc_int(_Int(-4)) == gc_int(-4) and gc_monomial(_Int(1), _Int(5)) == gc_monomial(1, 5)
    with pytest.raises(SingvalError, match="safety cap"):
        GrothendieckClass({_Int(MAX_EXPONENT + 1): 0})


@given(classes, classes)
def test_add_commutes(a, b):
    assert gc_add(a, b) == gc_add(b, a)


@given(classes, classes, classes)
def test_mul_distributes(a, b, c):
    assert gc_mul(a, gc_add(b, c)) == gc_add(gc_mul(a, b), gc_mul(a, c))


@given(classes, classes, classes)
def test_mul_associates(a, b, c):
    assert gc_mul(gc_mul(a, b), c) == gc_mul(a, gc_mul(b, c))


@given(classes)
def test_div_undoes_mul(a):
    assert gc_div_exact(gc_mul(a, L_MINUS_1)) == a


@given(classes, classes, st.sampled_from(["product", "perturbed", "random"]))
def test_div_matches_the_fraction_reference(q, noise, kind):
    # exact multiples of L - 1, multiples off by a few terms, and unrelated
    # classes: the division by L - 1 agrees with the rational long division
    a = noise if kind == "random" else gc_mul(q, L_MINUS_1)
    if kind == "perturbed":
        a = gc_add(a, noise)
    try:
        want = _reference_div_exact(a, L_MINUS_1)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            gc_div_exact(a)
    else:
        assert gc_div_exact(a) == want


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
    assert gc_div_exact(num) == GrothendieckClass({i: 1 for i in range(5)})


def test_division_failures():
    L = gc_monomial(1)
    with pytest.raises(NotDivisible):
        gc_div_exact(gc_add(L, GC_ONE))
    assert gc_div_exact(GC_ZERO) == GC_ZERO


def test_negative_exponent_division():
    # (1 - L^-2) / (L - 1) = L^-1 + L^-2
    num = GrothendieckClass({0: 1, -2: -1})
    assert gc_div_exact(num) == GrothendieckClass({-1: 1, -2: 1})


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
