"""JSON input formats: concrete curve presentations and abstract value modules.

Concrete mode describes a curve by its algebra generators as tuples of
sparse rational series, plus named fractional ideals and an optional
canonical-ideal reference:

    {
      "field": "rational",
      "branches": 2,
      "ring_generators": [ [[[1, 1, 1]], [[1, 1, 1]]], ... ],
      "ideals": { "max": [ ...generators... ] },
      "canonical": "ring"
    }

A generator is a length-r list of series; a series is a list of
[exponent, numerator, denominator] integer triples.  Abstract mode skips
the curve and gives the value module directly:

    { "mode": "value-module", "r": 1, "gamma": [2], "members": [[0], [2]],
      "deg_offset": 0, "ambient": { ... } }

Parse errors carry the JSON path of the offending field.  The formats are
read only; nothing writes them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .curve import BranchSeries, CurvePresentation, Element, FracIdeal
from .errors import RESOURCE_ERRORS, SchemaError, SingvalError
from .valuemodule import ValueModule


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _as_int(x: object, path: str) -> int:
    _expect(isinstance(x, int) and not isinstance(x, bool), path, f"expected an integer, got {x!r}")
    return x


def _parse_series(data: object, path: str) -> BranchSeries:
    _expect(isinstance(data, list), path, "expected a list of [exponent, num, den] triples")
    coeffs: dict[int, Fraction] = {}
    for k, triple in enumerate(data):
        p = f"{path}[{k}]"
        _expect(isinstance(triple, list) and len(triple) == 3, p, "expected [exponent, num, den]")
        e = _as_int(triple[0], f"{p}[0]")
        num = _as_int(triple[1], f"{p}[1]")
        den = _as_int(triple[2], f"{p}[2]")
        _expect(den != 0, f"{p}[2]", "denominator must be nonzero")
        _expect(e not in coeffs, p, f"duplicate exponent {e}")
        coeffs[e] = Fraction(num, den)
    return BranchSeries(coeffs)


def _parse_generator(data: object, r: int, path: str) -> Element:
    _expect(isinstance(data, list) and len(data) == r, path, f"expected a length-{r} list of series")
    return tuple(_parse_series(s, f"{path}[{i}]") for i, s in enumerate(data))


@dataclass(frozen=True)
class CurveInput:
    curve: CurvePresentation
    ideals: dict[str, FracIdeal]
    canonical: str | None  # ideal name, or "ring"


def parse_curve_input(data: object) -> CurveInput:
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    field = data.get("field")
    _expect(field == "rational", "$.field", f'only "rational" is supported, got {field!r}')
    r = _as_int(data.get("branches"), "$.branches")
    _expect(r >= 1, "$.branches", "need at least one branch")
    raw_gens = data.get("ring_generators")
    _expect(isinstance(raw_gens, list) and raw_gens, "$.ring_generators",
            "expected a nonempty list of generators")
    gens = [
        _parse_generator(g, r, f"$.ring_generators[{i}]") for i, g in enumerate(raw_gens)
    ]
    try:
        curve = CurvePresentation(r, gens)
    except SingvalError as exc:
        raise SchemaError(f"$.ring_generators: {exc}") from exc
    ideals: dict[str, FracIdeal] = {}
    raw_ideals = data.get("ideals", {})
    _expect(isinstance(raw_ideals, dict), "$.ideals", "expected an object of named ideals")
    for name, raw in raw_ideals.items():
        p = f"$.ideals.{name}"
        _expect(isinstance(raw, list) and raw, p, "expected a nonempty list of generators")
        igens = [_parse_generator(g, r, f"{p}[{i}]") for i, g in enumerate(raw)]
        try:
            ideals[name] = FracIdeal(curve, igens)
        except SingvalError as exc:
            raise SchemaError(f"{p}: {exc}") from exc
    canonical = data.get("canonical")
    if canonical is not None:
        _expect(isinstance(canonical, str), "$.canonical", "expected an ideal name or \"ring\"")
        _expect(canonical == "ring" or canonical in ideals, "$.canonical",
                f"unknown ideal {canonical!r}")
    return CurveInput(curve, ideals, canonical)


def parse_value_module(data: object, path: str = "$") -> ValueModule:
    _expect(isinstance(data, dict), path, "expected a JSON object")
    _expect(data.get("mode") == "value-module", f"{path}.mode",
            'expected "value-module"')
    r = _as_int(data.get("r"), f"{path}.r")
    _expect(r >= 1, f"{path}.r", "need at least one axis")

    def vec_field(key: str, required: bool = True) -> tuple[int, ...] | None:
        raw = data.get(key)
        if raw is None and not required:
            return None
        p = f"{path}.{key}"
        _expect(isinstance(raw, list) and len(raw) == r, p, f"expected a length-{r} integer list")
        return tuple(_as_int(x, f"{p}[{i}]") for i, x in enumerate(raw))

    gamma = vec_field("gamma")
    raw_members = data.get("members")
    p = f"{path}.members"
    _expect(isinstance(raw_members, list), p, "expected a list of lattice points")
    members = []
    for i, raw in enumerate(raw_members):
        _expect(isinstance(raw, list) and len(raw) == r, f"{p}[{i}]",
                f"expected a length-{r} integer list")
        members.append(tuple(_as_int(x, f"{p}[{i}][{j}]") for j, x in enumerate(raw)))
    weights = vec_field("weights", required=False)
    # every branch has residue degree 1; older files may still say so
    _expect(weights is None or all(d == 1 for d in weights), f"{path}.weights",
            f"only residue degree 1 is supported, got {list(weights or ())}")
    deg_offset = _as_int(data.get("deg_offset", 0), f"{path}.deg_offset")
    ambient = None
    if data.get("ambient") is not None:
        ambient = parse_value_module(data["ambient"], f"{path}.ambient")
    try:
        vm = ValueModule(r, gamma, members, deg_offset=deg_offset, ambient=ambient)
    except RESOURCE_ERRORS:
        raise
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    good = vm.is_good()
    if not good:
        # min-closed tables that are not value sets break the jump
        # combinatorics; refuse them at the door with the witness
        raise SchemaError(f"{path}.members: not a value-set table: {good.detail}")
    return vm


@dataclass(frozen=True)
class InputBundle:
    mode: str  # "concrete" | "abstract"
    curve_input: CurveInput | None
    value_module: ValueModule | None


def parse_input(data: object) -> InputBundle:
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    if data.get("mode") == "value-module":
        return InputBundle("abstract", None, parse_value_module(data))
    return InputBundle("concrete", parse_curve_input(data), None)


def load_input(path: str | Path, concrete: bool = False) -> InputBundle:
    """The parsed file.  With concrete, an abstract file is refused before
    its table is parsed, so its well-formedness gate never runs."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if concrete and isinstance(data, dict) and data.get("mode") == "value-module":
        raise SchemaError("this command needs a concrete curve file, "
                          "got an abstract value-module file")
    return parse_input(data)

