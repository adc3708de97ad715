"""Lattice points of Z^r and the boxes [lo, hi] they are read on."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .errors import SingvalError

Vec = tuple[int, ...]


def vec_check(v: Iterable[int], r: int | None = None) -> Vec:
    t = tuple(v)
    for x in t:
        if not (type(x) is int or (isinstance(x, int) and not isinstance(x, bool))):
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
