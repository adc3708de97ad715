"""Finite windows of multivariate Laurent series with coefficients in Z[L, 1/L].

A WindowSeries records, for every lattice point v in a box [lo, hi] of Z^r,
the exact coefficient of t^v (a GrothendieckClass).  Points outside the box
are unknown, not zero; every operation tracks the largest box on which the
result is still fully determined, and comparisons demand full coverage.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .errors import EmptyResultWindow, SingvalError, WindowNotCovered
from .lefschetz import GC_ONE, GC_ZERO, GrothendieckClass, gc_add, gc_mul, gc_to_json

Vec = tuple[int, ...]


def vec_check(v: Iterable[int], r: int | None = None) -> Vec:
    t = tuple(v)
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"lattice point entries must be int, got {x!r}")
    if r is not None and len(t) != r:
        raise SingvalError(f"expected a point of Z^{r}, got length {len(t)}")
    return t


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vec_min(a: Vec, b: Vec) -> Vec:
    return tuple(min(x, y) for x, y in zip(a, b, strict=True))


def vec_max(a: Vec, b: Vec) -> Vec:
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def vec_leq(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def ones(r: int, k: int = 1) -> Vec:
    return (k,) * r


def iter_box(lo: Vec, hi: Vec) -> Iterator[Vec]:
    """All lattice points of [lo, hi], lexicographic order. Empty if any hi < lo."""
    if len(lo) != len(hi):
        raise SingvalError("box corners have different dimensions")
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


class Window:
    """A nonempty box [lo, hi] in Z^r, both corners included."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Iterable[int], hi: Iterable[int]):
        self.lo = vec_check(lo)
        self.hi = vec_check(hi, len(self.lo))
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise EmptyResultWindow(f"window [{self.lo}, {self.hi}] contains no point")

    @property
    def r(self) -> int:
        return len(self.lo)

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, tuple) or len(v) != len(self.lo):
            return False
        return vec_leq(self.lo, v) and vec_leq(v, self.hi)

    def covers(self, other: "Window") -> bool:
        return vec_leq(self.lo, other.lo) and vec_leq(other.hi, self.hi)

    def points(self) -> Iterator[Vec]:
        return iter_box(self.lo, self.hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Window({list(self.lo)}, {list(self.hi)})"


class WindowSeries:
    """Exact coefficients of a Laurent series on one window.

    coeffs holds only the nonzero ones; coeff() answers for any point of the
    window and refuses points outside it (they are unknown, not zero).
    """

    __slots__ = ("window", "coeffs")

    def __init__(self, window: Window, coeffs: Mapping[Vec, GrothendieckClass] = {}):
        self.window = window
        clean: dict[Vec, GrothendieckClass] = {}
        for v, c in coeffs.items():
            v = vec_check(v, window.r)
            if v not in window:
                raise SingvalError(f"coefficient at {v} lies outside {window}")
            if not isinstance(c, GrothendieckClass):
                raise TypeError("coefficients must be GrothendieckClass")
            if not c.is_zero():
                clean[v] = c
        self.coeffs = clean

    @property
    def r(self) -> int:
        return self.window.r

    def coeff(self, v: Vec) -> GrothendieckClass:
        v = vec_check(v, self.window.r)
        if v not in self.window:
            raise WindowNotCovered(f"{v} is outside the known window {self.window}")
        return self.coeffs.get(v, GC_ZERO)

    def __repr__(self) -> str:
        return f"WindowSeries({self.window!r}, {len(self.coeffs)} nonzero)"


def ws_build(window: Window, fn: Callable[[Vec], GrothendieckClass]) -> WindowSeries:
    """Evaluate fn at every window point."""
    return WindowSeries(window, {v: fn(v) for v in window.points()})


def ws_scale_vars(a: WindowSeries, d: Vec) -> WindowSeries:
    """Substitute t_i -> L^{d_i} t_i: coefficient at v picks up L^{v.d}."""
    d = vec_check(d, a.window.r)
    return WindowSeries(
        a.window,
        {v: gc_mul(GrothendieckClass({vec_dot(v, d): 1}), c) for v, c in a.coeffs.items()},
    )


def ws_scale_class(a: WindowSeries, cls: GrothendieckClass) -> WindowSeries:
    """Multiply every coefficient by a fixed class; window unchanged."""
    return WindowSeries(a.window, {v: gc_mul(cls, c) for v, c in a.coeffs.items()})


def ws_invert_vars(a: WindowSeries) -> WindowSeries:
    """Substitute t -> 1/t: window negates, coefficient at -v is the old one at v."""
    w = Window(vec_neg(a.window.hi), vec_neg(a.window.lo))
    return WindowSeries(w, {vec_neg(v): c for v, c in a.coeffs.items()})


def ws_mul_monomial(a: WindowSeries, shift: Vec, cls: GrothendieckClass = GC_ONE) -> WindowSeries:
    """Multiply by cls * t^shift."""
    shift = vec_check(shift, a.window.r)
    w = Window(vec_add(a.window.lo, shift), vec_add(a.window.hi, shift))
    return WindowSeries(w, {vec_add(v, shift): gc_mul(cls, c) for v, c in a.coeffs.items()})


def ws_mul_poly(a: WindowSeries, poly: Mapping[Vec, GrothendieckClass]) -> WindowSeries:
    """Multiply by a Laurent polynomial in t with class coefficients.

    The result is fully determined only where every translate of the window
    still covers the point: on [lo + max supp, hi + min supp].  Raises
    EmptyResultWindow when that box is empty.
    """
    supp = [vec_check(u, a.window.r) for u, c in poly.items() if not c.is_zero()]
    if not supp:
        raise SingvalError("multiplication by the zero polynomial loses the window")
    mn = supp[0]
    mx = supp[0]
    for u in supp[1:]:
        mn = vec_min(mn, u)
        mx = vec_max(mx, u)
    lo = vec_add(a.window.lo, mx)
    hi = vec_add(a.window.hi, mn)
    if any(h < l for l, h in zip(lo, hi)):
        raise EmptyResultWindow("polynomial support is too wide for this window")
    w = Window(lo, hi)
    out: dict[Vec, GrothendieckClass] = {}
    for v in w.points():
        acc = GC_ZERO
        for u in supp:
            acc = gc_add(acc, gc_mul(poly[u], a.coeff(vec_sub(v, u))))
        out[v] = acc
    return WindowSeries(w, out)


def ws_require_cover(a: WindowSeries, b: WindowSeries, window: Window) -> None:
    """Raise WindowNotCovered unless both sides determine the whole window."""
    if not a.window.covers(window):
        raise WindowNotCovered(f"left side only knows {a.window}, need {window}")
    if not b.window.covers(window):
        raise WindowNotCovered(f"right side only knows {b.window}, need {window}")


def ws_eq_on(a: WindowSeries, b: WindowSeries, window: Window) -> Vec | None:
    """Compare on every point of the given window (lex order).

    Returns None when equal, else the first point of disagreement.  Raises
    WindowNotCovered if either side does not determine the whole window.
    """
    ws_require_cover(a, b, window)
    for v in window.points():
        if a.coeff(v) != b.coeff(v):
            return v
    return None


def ws_to_json(a: WindowSeries) -> dict:
    """Emit every window point (zeros included) in lex order."""
    return {
        "window": {"lo": list(a.window.lo), "hi": list(a.window.hi)},
        "coefficients": [
            {"point": list(v), "class": gc_to_json(a.coeff(v))} for v in a.window.points()
        ],
    }
