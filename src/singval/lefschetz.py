"""Exact arithmetic in Z[L, 1/L], Laurent polynomials in the Lefschetz symbol L.

A class is stored as a map from exponent to nonzero integer coefficient.
Values are immutable and hashable, and every operation is exact over Z;
division raises NotDivisible instead of ever returning an approximation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDivisible, SingvalError

# hard cap on |exponent| so runaway loops fail loudly instead of eating RAM
MAX_EXPONENT = 10**6


class GrothendieckClass:
    """An element of Z[L, 1/L] in canonical form: nonzero int coefficients
    by decreasing exponent, each |exponent| at most MAX_EXPONENT.  The
    constructor checks every term it is given; the gc_* results, whose terms
    are ints by construction, come from _trusted, which keeps form and cap."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] = {}):
        for e, c in terms.items():
            if not (type(e) is int or (isinstance(e, int) and not isinstance(e, bool))):
                raise TypeError(f"exponent must be int, got {type(e).__name__}")
            if abs(e) > MAX_EXPONENT:
                raise SingvalError(f"exponent {e} exceeds the safety cap {MAX_EXPONENT}")
            if not (type(c) is int or (isinstance(c, int) and not isinstance(c, bool))):
                raise TypeError(f"coefficient must be int, got {type(c).__name__}")
        self._terms = dict(sorted(((e, c) for e, c in terms.items() if c), reverse=True))

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothendieckClass):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    # -- text form ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"GrothendieckClass({self._terms!r})"

    def __str__(self) -> str:
        return gc_to_text(self)


def _trusted(terms: dict[int, int]) -> GrothendieckClass:
    """A class from int terms computed out of existing classes.  Drops zero
    coefficients, sorts, and checks the cap on the two extreme exponents
    only: after the sort every other exponent lies between them."""
    out = object.__new__(GrothendieckClass)
    out._terms = t = dict(sorted(((e, c) for e, c in terms.items() if c), reverse=True))
    if t:
        for e in (next(iter(t)), next(reversed(t))):
            if abs(e) > MAX_EXPONENT:
                raise SingvalError(f"exponent {e} exceeds the safety cap {MAX_EXPONENT}")
    return out


GC_ZERO = GrothendieckClass()
GC_ONE = GrothendieckClass({0: 1})


def gc_int(n: int) -> GrothendieckClass:
    return GrothendieckClass({0: n})


def gc_monomial(e: int, c: int = 1) -> GrothendieckClass:
    """c * L^e"""
    return GrothendieckClass({e: c})


def gc_add(a: GrothendieckClass, b: GrothendieckClass) -> GrothendieckClass:
    out = dict(a._terms)
    for e, c in b._terms.items():
        out[e] = out.get(e, 0) + c
    return _trusted(out)


def gc_mul(a: GrothendieckClass, b: GrothendieckClass) -> GrothendieckClass:
    out: dict[int, int] = {}
    for ea, ca in a._terms.items():
        for eb, cb in b._terms.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return _trusted(out)


def gc_div_exact(a: GrothendieckClass) -> GrothendieckClass:
    """Exact quotient a / (L - 1) in Z[L, 1/L], the one division the series need.

    If a = q*(L - 1), the coefficient of q at L^e is minus the sum of a's
    coefficients up to e, for e from min(a) to max(a) - 1.  Raises
    NotDivisible unless a's coefficients sum to 0.
    """
    if sum(a._terms.values()):
        raise NotDivisible(f"{a} is not divisible by L - 1")
    if not a:  # common outside a value set; spares building another zero
        return a
    up = list(reversed(a._terms.items()))
    quo: dict[int, int] = {}
    run = 0
    for (e, c), (nxt, _) in zip(up, up[1:]):
        run -= c
        quo.update(dict.fromkeys(range(e, nxt), run))
    return _trusted(quo)


def gc_invert_L(a: GrothendieckClass) -> GrothendieckClass:
    """Substitute L -> 1/L (exponent sign flip)."""
    return _trusted({-e: c for e, c in a._terms.items()})


def gc_eval_rational(a: GrothendieckClass, q: int) -> Fraction:
    """Evaluate at L = q for an integer q >= 2, exactly."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise SingvalError(f"evaluation point must be an integer >= 2, got {q!r}")
    total = Fraction(0)
    for e, c in a._terms.items():
        total += c * Fraction(q) ** e
    return total


# -- text and JSON forms ----------------------------------------------------


def _term_text(e: int, c: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        pw = "L" if e == 1 else f"L^{e}"
        body = pw if mag == 1 else f"{mag}*{pw}"
    if first:
        return f"{sign}{body}"
    return f" {sign} {body}"


def gc_to_text(a: GrothendieckClass) -> str:
    """Readable form, terms by decreasing exponent, e.g. '3*L^2 - L^-1 + 7'."""
    if a.is_zero():
        return "0"
    parts = []
    for i, (e, c) in enumerate(a._terms.items()):
        parts.append(_term_text(e, c, i == 0))
    return "".join(parts)


def gc_to_json(a: GrothendieckClass) -> list[list]:
    """JSON form: [[exponent, coefficient-as-string], ...], decreasing exponent.

    Coefficients go through str so arbitrarily large integers survive JSON
    readers that parse numbers as doubles.
    """
    return [[e, str(c)] for e, c in a._terms.items()]
