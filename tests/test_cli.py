"""Command-line entry points: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from singval import algebra
from singval.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY, main

from conftest import CORPUS, ROOT


def corpus_file(name):
    return str(CORPUS / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- happy path

def test_info_text(capsys):
    code, out, err = run(capsys, "info", corpus_file("cusp"))
    assert code == EXIT_OK and not err
    assert "branches: 1" in out
    assert "delta: 1" in out
    assert "conductor: [2]" in out
    assert "gorenstein by lengths: yes" in out
    assert "gorenstein by symmetry: yes" in out


def test_info_non_gorenstein(capsys):
    code, out, _ = run(capsys, "info", corpus_file("semigroup345"))
    assert code == EXIT_OK
    assert "type: 2" in out
    assert "gorenstein by lengths: no" in out
    assert "verdicts agree: yes" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", corpus_file("node"), "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["branches"] == 2
    assert data["delta"] == 1
    assert data["conductor"] == [1, 1]
    assert data["gorenstein_by_lengths"] is True


def test_ideal_info_text(capsys):
    code, out, _ = run(
        capsys, "ideal-info", corpus_file("semigroup345"), "--ideal", "can"
    )
    assert code == EXIT_OK
    assert "degree: 1" in out
    assert "self-dual direct: no" in out
    assert "routes agree: yes" in out


def test_series_text_with_specialization(capsys):
    code, out, _ = run(
        capsys, "series", corpus_file("cusp"), "--which", "pg",
        "--margin", "1", "--q", "2",
    )
    assert code == EXIT_OK
    assert "L^-1" in out
    assert "1/2" in out
    assert "1/8" in out


def test_series_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "series", corpus_file("node"), "--which", "pg,lg",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert set(data["series"]) == {"pg", "lg"}
    assert data["ideal"] == "ring"


def test_series_on_abstract_table(capsys):
    code, out, _ = run(capsys, "series", corpus_file("abstract_e8"), "--which", "pg")
    assert code == EXIT_OK
    assert "pg" in out


def test_verify_corpus_all_ideals(capsys):
    for name in ["cusp", "e8", "semigroup345", "node", "tacnode"]:
        code, out, _ = run(capsys, "verify", corpus_file(name), "--all-ideals")
        assert code == EXIT_OK, name
        assert "result: pass" in out, name
        assert "0 failed" in out, name


def test_verify_abstract(capsys):
    code, out, _ = run(capsys, "verify", corpus_file("abstract_e8"))
    assert code == EXIT_OK
    assert "result: pass" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", corpus_file("cusp"), "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["result"] == "pass"
    assert data["counts"]["fail"] == 0
    assert all(row["status"] in {"pass", "fail", "skip", "defect"} for row in data["rows"])
    assert data["counts"]["pass"] > 0


def test_count_text(capsys):
    code, out, _ = run(
        capsys, "count", corpus_file("cusp"), "--q", "2", "--level", "4"
    )
    assert code == EXIT_OK
    assert "agreement: yes" in out
    assert "counted=8" in out


# ------------------------------------------------------------------ exit codes

def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "info", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT
    assert "cannot read" in err


def test_malformed_json_is_input_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "info", str(p))
    assert code == EXIT_INPUT
    assert "invalid JSON" in err


def test_unknown_ideal_is_input_error(capsys):
    code, _, err = run(
        capsys, "ideal-info", corpus_file("cusp"), "--ideal", "mystery"
    )
    assert code == EXIT_INPUT
    assert "mystery" in err and "max" in err


def test_abstract_file_rejected_where_a_curve_is_needed(capsys):
    code, _, err = run(capsys, "info", corpus_file("abstract_e8"))
    assert code == EXIT_INPUT
    code, _, err = run(
        capsys, "count", corpus_file("abstract_e8"), "--q", "2", "--level", "3"
    )
    assert code == EXIT_INPUT


def test_bad_margin_is_input_error(capsys):
    code, _, err = run(capsys, "series", corpus_file("cusp"), "--margin", "0")
    assert code == EXIT_INPUT
    assert "margin" in err


def test_composite_q_is_input_error(capsys):
    code, _, err = run(
        capsys, "count", corpus_file("cusp"), "--q", "4", "--level", "3"
    )
    assert code == EXIT_INPUT


def test_unknown_series_key_is_input_error(capsys):
    code, _, err = run(capsys, "series", corpus_file("cusp"), "--which", "pg,bogus")
    assert code == EXIT_INPUT
    assert "bogus" in err


def test_non_gorenstein_ring_cannot_be_canonical(capsys):
    code, _, err = run(
        capsys, "verify", corpus_file("semigroup345"), "--canonical", "ring"
    )
    assert code == EXIT_INPUT
    assert "Gorenstein" in err


def test_wrong_canonical_fails_verification(capsys):
    # the maximal ideal of the cusp is not a canonical module
    code, out, _ = run(
        capsys, "verify", corpus_file("cusp"), "--canonical", "max"
    )
    assert code == EXIT_VERIFY
    assert "result: fail" in out


def test_enumeration_ceiling_is_resource_error(capsys):
    code, _, err = run(
        capsys, "count", corpus_file("node"), "--q", "2", "--level", "4",
        "--ceiling", "100",
    )
    assert code == EXIT_RESOURCE
    assert "ceiling" in err or "enumerat" in err.lower()


def test_field_above_the_ceiling_is_refused_before_the_prime_check(capsys):
    # 10^18 + 3 is prime, so trial division would run to 10^9; the span
    # holds the constants, so it has at least q elements anyway
    start = time.perf_counter()
    code, _, err = run(
        capsys, "count", corpus_file("cusp"), "--q", "1000000000000000003", "--level", "2",
    )
    assert time.perf_counter() - start < 5
    assert code == EXIT_RESOURCE
    assert "q = 1000000000000000003 exceeds the enumeration ceiling 16777216" in err
    # a composite q above the ceiling is a spent resource too
    code, _, _ = run(capsys, "count", corpus_file("cusp"), "--q", "12", "--level", "2",
                     "--ceiling", "11")
    assert code == EXIT_RESOURCE


def test_ceiling_or_level_below_one_is_input_error(capsys):
    # no enumeration fits under a ceiling of 0: bad input, not a spent resource
    code, _, err = run(
        capsys, "count", corpus_file("node"), "--q", "2", "--level", "4",
        "--ceiling", "0",
    )
    assert code == EXIT_INPUT
    assert "ceiling must be at least 1, got 0" in err
    code, _, err = run(capsys, "count", corpus_file("node"), "--q", "2", "--level", "0")
    assert code == EXIT_INPUT
    assert "level must be at least 1, got 0" in err


def test_count_enumerates_the_span_once(capsys, monkeypatch):
    # one basis for the rank check and one for the histogram, however many
    # order vectors the window holds (3^2 here)
    builds = []
    real = algebra._modp_jet_basis

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "_modp_jet_basis", counted)
    code, out, _ = run(capsys, "count", corpus_file("node"), "--q", "3", "--level", "3")
    assert code == EXIT_OK
    assert out.count("counted=") == 9
    assert len(builds) <= 2


TRACED_COUNT = """
import json
import layers
from singval import cli
recorder = layers.Recorder()
recorder.install()
code = cli.main(["count", "corpus/node.json", "--q", "3", "--level", "3"])
print(json.dumps({"code": code, "counts": recorder.finish()["counts"]}))
"""


def test_trace_harness_installs():
    # perfbench/layers.py rebinds singval names from outside; a rename it
    # does not know about breaks the trace.  A subprocess keeps the
    # rebinding out of the other tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", TRACED_COUNT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == EXIT_OK
    counts = result["counts"]
    assert counts.get("algebra.oracle.basis_builds", 0) >= 1
    assert counts.get("algebra.jets.builds", 0) >= 1


def curve_file(tmp_path, r, gens):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"field": "rational", "branches": r, "ring_generators": gens}))
    return str(path)


def test_conductor_above_the_old_climb_is_found(capsys, tmp_path):
    # t^9, t^11: conductor (9 - 1)(11 - 1) = 80 and delta half of it
    path = curve_file(tmp_path, 1, [[[[9, 1, 1]]], [[[11, 1, 1]]]])
    code, out, _ = run(capsys, "info", path, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["conductor"], data["delta"]) == ([80], 40)


def test_coinciding_branches_hit_the_climb_ceiling(capsys, tmp_path):
    # (t, t), (t^3, t^3): both branches are one curve, so no conductor exists
    path = curve_file(tmp_path, 2, [[[[1, 1, 1]], [[1, 1, 1]]], [[[3, 1, 1]], [[3, 1, 1]]]])
    code, _, err = run(capsys, "info", path)
    assert code == EXIT_RESOURCE
    assert "climb ceiling of 128" in err


# ---------------------------------------------------------------- determinism

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_is_deterministic(capsys, fmt):
    argv_sets = [
        ["info", corpus_file("tacnode"), "--format", fmt],
        ["ideal-info", corpus_file("semigroup345"), "--ideal", "can", "--format", fmt],
        ["series", corpus_file("node"), "--which", "pg,lhat", "--format", fmt],
        ["verify", corpus_file("e8"), "--all-ideals", "--format", fmt],
    ]
    for argv in argv_sets:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv