"""Tests for lattice boxes, the JSON form of a series on a window, and the
windows, windowed coefficient tables and composition in wsref.py that the
pointwise identity checks are compared against."""

import pytest
from hypothesis import given, strategies as st

from singval.cli import ws_to_json
from singval.errors import SingvalError
from singval.lattice import iter_box
from singval.lefschetz import GC_ONE, GC_ZERO, gc_int, gc_monomial

from wsref import (EmptyResultWindow, Window, WindowNotCovered, WindowSeries, covers, eq_on,
                   invert_vars, mul_monomial, mul_poly, scale_vars, ws_build)


def corners(w):
    return w.lo, w.hi


def test_iter_box_lex_order():
    pts = list(iter_box((0, 0), (1, 2)))
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(iter_box((2,), (1,))) == []
    assert list(iter_box((3,), (3,))) == [(3,)]
    with pytest.raises(SingvalError):
        iter_box((0, 0), (1,))


def test_window_validation():
    w = Window((0, -1), (2, 1))
    pts = list(w.points())
    assert (pts[0], pts[-1], len(pts)) == ((0, -1), (2, 1), 9)
    assert covers(w, (1, 0)) and covers(w, (0, -1)) and covers(w, (2, 1))
    assert not covers(w, (3, 0)) and not covers(w, (1,))
    with pytest.raises(EmptyResultWindow):
        Window((0, 2), (3, 1))
    with pytest.raises(SingvalError):
        Window((0,), (1, 2))


def test_series_coeff_and_unknown_points():
    w = Window((0,), (3,))
    s = WindowSeries(w, {(1,): gc_int(5), (2,): GC_ZERO})
    assert s.coeff((1,)) == gc_int(5)
    assert s.coeff((0,)) == GC_ZERO
    assert (2,) not in s.coeffs  # zeros are not stored
    with pytest.raises(WindowNotCovered):
        s.coeff((4,))
    with pytest.raises(SingvalError):
        WindowSeries(w, {(9,): GC_ONE})


def test_scale_vars():
    w = Window((0, 0), (2, 2))
    s = ws_build(w, lambda v: GC_ONE)
    t = scale_vars(s, (1, 3))
    assert t.coeff((2, 1)) == gc_monomial(5)
    assert t.coeff((0, 0)) == GC_ONE


def test_invert_vars():
    s = ws_build(Window((1, 0), (2, 3)), lambda v: gc_int(10 * v[0] + v[1]))
    t = invert_vars(s)
    assert corners(t.window) == ((-2, -3), (-1, 0))
    assert t.coeff((-2, -3)) == gc_int(23)
    u = invert_vars(t)
    assert eq_on(s, u, s.window) is None


def test_mul_monomial():
    s = ws_build(Window((0,), (2,)), lambda v: gc_int(v[0] + 1))
    t = mul_monomial(s, (5,), gc_monomial(1))
    assert corners(t.window) == ((5,), (7,))
    assert t.coeff((6,)) == gc_monomial(1, 2)


def test_mul_poly_matches_monomial_route():
    s = ws_build(Window((0, 0), (3, 3)), lambda v: gc_int(v[0] * v[1] + 1))
    a = mul_poly(s, {(1, 2): gc_monomial(1, 3)})
    b = mul_monomial(s, (1, 2), gc_monomial(1, 3))
    assert corners(a.window) == corners(b.window)
    assert eq_on(a, b, a.window) is None


def test_mul_poly_window_shrinks():
    s = ws_build(Window((0,), (5,)), lambda v: gc_int(1))
    # (t - 1) * (1 + t + ... ) telescopes to 0 inside the window
    t = mul_poly(s, {(1,): GC_ONE, (0,): gc_int(-1)})
    assert corners(t.window) == ((1,), (5,))
    for v in t.window.points():
        assert t.coeff(v) == GC_ZERO
    with pytest.raises(EmptyResultWindow):
        mul_poly(ws_build(Window((0,), (1,)), lambda v: GC_ONE), {(0,): GC_ONE, (3,): GC_ONE})
    with pytest.raises(SingvalError):
        mul_poly(s, {(0,): GC_ZERO})


def test_mul_poly_geometric_series():
    # (1 - t) * sum t^v = 1 on [0, hi] when the series window starts at 0
    s = ws_build(Window((-1,), (6,)), lambda v: gc_int(1 if v[0] >= 0 else 0))
    t = mul_poly(s, {(0,): GC_ONE, (1,): gc_int(-1)})
    assert corners(t.window) == ((0,), (6,))
    assert t.coeff((0,)) == GC_ONE
    for k in range(1, 7):
        assert t.coeff((k,)) == GC_ZERO


def test_eq_on_reports_first_lex_mismatch():
    w = Window((0, 0), (2, 2))
    a = ws_build(w, lambda v: gc_int(1))
    b = ws_build(w, lambda v: gc_int(0 if v == (1, 0) or v == (0, 2) else 1))
    assert eq_on(a, b, w) == (0, 2)
    with pytest.raises(WindowNotCovered):
        eq_on(a, b, Window((0, 0), (3, 2)))


@given(st.integers(-3, 3), st.integers(0, 4), st.integers(-2, 2))
def test_shift_then_unshift(lo, width, k):
    w = Window((lo,), (lo + width,))
    s = ws_build(w, lambda v: gc_int(v[0] ** 2))
    t = mul_monomial(mul_monomial(s, (k,)), (-k,))
    assert corners(t.window) == corners(w)
    assert eq_on(s, t, w) is None


def test_json_lists_every_point_in_order():
    lo, hi = (0, 0), (1, 1)
    data = ws_to_json(lo, hi, {v: gc_int(2) if v == (1, 0) else GC_ZERO for v in iter_box(lo, hi)})
    assert [tuple(c["point"]) for c in data["coefficients"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert data["coefficients"][2]["class"] == [[0, "2"]]
    assert data["coefficients"][0]["class"] == []
