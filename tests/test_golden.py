"""Byte-exact regression against recorded command outputs."""

import contextlib
import io

import pytest

from singval.cli import main

from conftest import ROOT

GOLDEN = ROOT / "tests" / "golden"

MANIFEST = {
    "info_cusp.txt": ["info", "corpus/cusp.json"],
    "info_e8.txt": ["info", "corpus/e8.json"],
    "info_semigroup345.txt": ["info", "corpus/semigroup345.json"],
    "info_node.txt": ["info", "corpus/node.json"],
    "info_tacnode.txt": ["info", "corpus/tacnode.json"],
    "series_cusp_text.txt": ["series", "corpus/cusp.json", "--which", "pg,lg",
                             "--margin", "1", "--q", "2"],
    "series_cusp_json.txt": ["series", "corpus/cusp.json", "--which", "pg,lg",
                             "--format", "json"],
    "series_node_json.txt": ["series", "corpus/node.json", "--which", "pg,lhat",
                             "--format", "json"],
    "series_abstract_e8_all_q2_json.txt": ["series", "corpus/abstract_e8.json", "--which",
                                           "a,lg,pg,lhat,phat", "--q", "2", "--format", "json"],
    "series_node_all_q3.txt": ["series", "corpus/node.json", "--which", "a,lg,pg,lhat,phat",
                               "--q", "3"],
    "ideal_info_345_can.txt": ["ideal-info", "corpus/semigroup345.json",
                               "--ideal", "can"],
    "verify_345_all.txt": ["verify", "corpus/semigroup345.json", "--all-ideals"],
    "verify_node_all.txt": ["verify", "corpus/node.json", "--all-ideals"],
    "verify_abstract.txt": ["verify", "corpus/abstract_e8.json"],
    "verify_tacnode_all.txt": ["verify", "corpus/tacnode.json", "--all-ideals"],
    "count_cusp.txt": ["count", "corpus/cusp.json", "--q", "2", "--level", "4"],
    "count_node.txt": ["count", "corpus/node.json", "--q", "3", "--level", "3"],
    "count_tacnode_q5_l3.txt": ["count", "corpus/tacnode.json", "--q", "5", "--level", "3"],
    "count_node_q5_l3_json.txt": ["count", "corpus/node.json", "--q", "5", "--level", "3",
                                  "--format", "json"],
    "count_e8_q3_l5.txt": ["count", "corpus/e8.json", "--q", "3", "--level", "5"],
    "count_345_q2_l7_json.txt": ["count", "corpus/semigroup345.json", "--q", "2",
                                 "--level", "7", "--format", "json"],
}


@pytest.mark.parametrize("fname", sorted(MANIFEST))
def test_golden_output(fname, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = (GOLDEN / fname).read_text(encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(MANIFEST[fname])
    assert code == 0
    assert buf.getvalue() == want


def test_manifest_matches_directory():
    assert {p.name for p in GOLDEN.glob("*.txt")} == set(MANIFEST)