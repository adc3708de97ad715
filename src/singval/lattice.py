"""Lattice windows and windowed coefficient tables over Z[L, 1/L].

A WindowSeries records, for every lattice point v in a box [lo, hi] of Z^r,
the exact coefficient of t^v (a GrothendieckClass).  Points outside the box
are unknown, not zero: looking one up raises WindowNotCovered.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .errors import EmptyResultWindow, SingvalError, WindowNotCovered
from .lefschetz import GC_ZERO, GrothendieckClass, gc_to_json

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


def vec_max(a: Vec, b: Vec) -> Vec:
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def vec_leq(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))


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


def ws_to_json(a: WindowSeries) -> dict:
    """Emit every window point (zeros included) in lex order."""
    return {
        "window": {"lo": list(a.window.lo), "hi": list(a.window.hi)},
        "coefficients": [
            {"point": list(v), "class": gc_to_json(a.coeff(v))} for v in a.window.points()
        ],
    }
