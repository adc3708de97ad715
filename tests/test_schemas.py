"""Input parsing and validation diagnostics."""

import json

import pytest

from singval.schemas import (
    load_input,
    parse_curve_input,
    parse_input,
    parse_value_module,
)
from singval.errors import SchemaError


def minimal_concrete():
    return {
        "field": "rational",
        "branches": 1,
        "ring_generators": [[[[2, 1, 1]]], [[[3, 1, 1]]]],
        "ideals": {"max": [[[[2, 1, 1]]], [[[3, 1, 1]]]]},
        "canonical": "ring",
    }


def minimal_abstract():
    return {
        "mode": "value-module",
        "r": 1,
        "gamma": [2],
        "members": [[0], [2]],
    }


# ----------------------------------------------------------------- modes

def test_ambient_is_parsed():
    inner = minimal_abstract()
    outer = {
        "mode": "value-module",
        "r": 1,
        "gamma": [2],
        "members": [[0], [2]],
        "ambient": inner,
    }
    vm = parse_value_module(outer)
    assert vm.ambient is not None
    assert vm.ambient == parse_value_module(inner)


def test_corpus_files_load_with_expected_modes(corpus):
    assert corpus["abstract_e8"].mode == "abstract"
    assert corpus["abstract_e8"].value_module is not None
    for name in ["cusp", "e8", "semigroup345", "node", "tacnode"]:
        assert corpus[name].mode == "concrete"
        assert corpus[name].curve_input is not None


# ----------------------------------------------------------------- diagnostics

def test_rejects_non_object_input():
    with pytest.raises(SchemaError):
        parse_input([1, 2, 3])


def test_rejects_unknown_field():
    data = minimal_concrete()
    data["field"] = "complex"
    with pytest.raises(SchemaError, match="field"):
        parse_curve_input(data)


def test_rejects_missing_generators():
    data = minimal_concrete()
    data["ring_generators"] = []
    with pytest.raises(SchemaError, match="ring_generators"):
        parse_curve_input(data)


def test_rejects_wrong_length_generator():
    data = minimal_concrete()
    data["branches"] = 2
    with pytest.raises(SchemaError, match="length-2"):
        parse_curve_input(data)


def test_rejects_malformed_series_triple():
    data = minimal_concrete()
    data["ring_generators"][0] = [[[2, 1]]]
    with pytest.raises(SchemaError, match="exponent, num, den"):
        parse_curve_input(data)


def test_rejects_zero_denominator():
    data = minimal_concrete()
    data["ring_generators"][0] = [[[2, 1, 0]]]
    with pytest.raises(SchemaError, match="denominator"):
        parse_curve_input(data)


def test_rejects_duplicate_exponent():
    data = minimal_concrete()
    data["ring_generators"][0] = [[[2, 1, 1], [2, 3, 1]]]
    with pytest.raises(SchemaError, match="duplicate exponent"):
        parse_curve_input(data)


def test_rejects_unknown_canonical_name():
    data = minimal_concrete()
    data["canonical"] = "mystery"
    with pytest.raises(SchemaError, match="unknown ideal"):
        parse_curve_input(data)


def test_rejects_pole_in_ideal_generator():
    data = minimal_concrete()
    data["ideals"]["bad"] = [[[[-1, 1, 1]]]]
    with pytest.raises(SchemaError, match="pole"):
        parse_curve_input(data)


def test_rejects_degenerate_ring():
    # a lone unit presents no singularity; the presentation must refuse it
    data = minimal_concrete()
    data["ring_generators"] = [[[[0, 1, 1]]]]
    data["ideals"] = {}
    del data["canonical"]
    with pytest.raises(SchemaError):
        parse_curve_input(data)


def test_rejects_missing_members():
    data = minimal_abstract()
    del data["members"]
    with pytest.raises(SchemaError, match="members"):
        parse_value_module(data)


def test_rejects_wrong_gamma_length():
    data = minimal_abstract()
    data["gamma"] = [2, 2]
    with pytest.raises(SchemaError, match="gamma"):
        parse_value_module(data)


def test_rejects_member_outside_box():
    data = minimal_abstract()
    data["members"].append([5])
    with pytest.raises(SchemaError):
        parse_value_module(data)


def test_rejects_table_that_is_not_a_value_set():
    data = {
        "mode": "value-module",
        "r": 2,
        "gamma": [2, 2],
        "members": [[0, 0], [0, 1], [2, 2]],
    }
    with pytest.raises(SchemaError, match="not a value-set table"):
        parse_value_module(data)


def test_weighted_tables_are_rejected():
    data = {
        "mode": "value-module",
        "r": 2,
        "gamma": [2, 2],
        "members": [[0, 0], [0, 1], [2, 2]],
        "weights": [2, 2],
    }
    with pytest.raises(SchemaError, match=r"\$\.weights"):
        parse_value_module(data)
    # unit residue degrees, as older files wrote them, still load
    ring = {"mode": "value-module", "r": 1, "gamma": [2], "members": [[0], [2]]}
    assert parse_value_module({**ring, "weights": [1]}) == parse_value_module(ring)


# ------------------------------------------------------------------ file layer

def test_load_input_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_input(tmp_path / "nope.json")


def test_load_input_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_input(p)


def test_load_input_dispatches_on_mode(tmp_path):
    p = tmp_path / "abs.json"
    p.write_text(json.dumps(minimal_abstract()), encoding="utf-8")
    bundle = load_input(p)
    assert bundle.mode == "abstract"
    assert bundle.curve_input is None
    assert set(bundle.value_module.members) == {(0,), (2,)}