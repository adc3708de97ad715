"""Lattice points of Z^r and the boxes [lo, hi] they are read on."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .errors import EmptyResultWindow, SingvalError

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

    def points(self) -> Iterator[Vec]:
        return iter_box(self.lo, self.hi)

    def __repr__(self) -> str:
        return f"Window({list(self.lo)}, {list(self.hi)})"
