"""Command-line entry points: exit codes, formats, determinism."""

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from singval import algebra, cli, poincare
from singval.cli import (COMMANDS, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY,
                         _build_parser, main)
from singval.valuemodule import ValueModule

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


def test_abstract_file_rejected_where_a_curve_is_needed(capsys, monkeypatch):
    # refused before the table is parsed, so its well-formedness gate never runs
    gated = []
    monkeypatch.setattr(ValueModule, "is_good", lambda vm: gated.append(vm))
    for argv in (["info"], ["ideal-info"], ["count", "--q", "2", "--level", "3"]):
        code, _, err = run(capsys, argv[0], corpus_file("abstract_e8"), *argv[1:])
        assert code == EXIT_INPUT
        assert "this command needs a concrete curve file" in err
    assert not gated


def test_bad_margin_is_input_error(capsys):
    code, _, err = run(capsys, "series", corpus_file("cusp"), "--margin", "0")
    assert code == EXIT_INPUT
    assert "margin" in err


@pytest.mark.parametrize("argv", [["info"], ["ideal-info"], ["verify"],
                                  ["count", "--q", "2", "--level", "3"]])
def test_margin_is_a_series_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], corpus_file("cusp"), *argv[1:], "--margin", "2"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --margin" in capsys.readouterr().err


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


def test_unit_ideal_is_not_canonical_on_a_non_gorenstein_ring(capsys, tmp_path):
    # O has type 2 over k[[t^3, t^4, t^5]]; double colons against it are
    # stable on every t^v * Obar and on O itself, so only the type sees it
    doc = json.loads((CORPUS / "semigroup345.json").read_text(encoding="utf-8"))
    doc["ideals"]["fake"] = [[[[0, 1, 1]]]]
    path = tmp_path / "semigroup345_fake.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--canonical", "fake")
    assert code == EXIT_VERIFY
    first = out.splitlines()[0].split()
    assert first[:4] == ["canonical", "(fake):", "type", "FAIL"]
    assert " ".join(first[4:]) == "type 2; a canonical ideal has type 1"
    # the rejected canonical stops the dual-based rows instead of failing each
    rows = out.splitlines()[:-1]
    col = rows[0].index("  FAIL  ") + 2
    table = {row[:col].strip(): (row[col:col + 6].strip(), row[col + 8:]) for row in rows}
    assert [name for name, (status, _) in table.items() if status == "FAIL"] == [
        "canonical (fake): type"]
    assert not any("dual construction" in name for name in table)
    assert table["ring: duality checks"] == (
        "SKIP", "canonical ideal 'fake' rejected: type 2; a canonical ideal has type 1")
    assert table["ring: self-duality routes agree"][1].endswith("direct=skipped")


def test_plane_curves_are_gorenstein(capsys, tmp_path, monkeypatch):
    # Kunz (one branch) and Delgado (several): a plane curve's ring is
    # Gorenstein and its value semigroup symmetric, and for one branch that
    # symmetry is conductor = 2 delta
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    fam = importlib.import_module("families")
    docs = {}
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if len(doc.get("ring_generators", [])) == 2:
            docs[path.stem] = doc
    assert sorted(docs) == ["cusp", "e8", "node", "tacnode"]
    rng = random.Random(5)
    for case in [fam.monomial_branch(3, 4, rng), fam.a_type(3, rng),
                 fam.ordinary_point(3, rng), fam.glued_cusps(rng)]:
        assert len(case.data["ring_generators"]) == 2
        docs[case.name] = case.data
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "info", str(path), "--format", "json")
        assert code == EXIT_OK, name
        info = json.loads(out)
        assert info["gorenstein_by_lengths"] and info["gorenstein_by_symmetry"], name
        assert info["type"] == 1, name  # ideal_type of the ring
        if info["branches"] == 1:
            assert info["conductor"] == [2 * info["delta"]], name


def test_enumeration_ceiling_is_resource_error(capsys):
    code, _, err = run(
        capsys, "count", corpus_file("node"), "--q", "2", "--level", "4",
        "--ceiling", "100",
    )
    assert code == EXIT_RESOURCE
    assert "ceiling" in err or "enumerat" in err.lower()


def test_oversized_enumeration_is_refused_before_the_series(capsys):
    # the span has rank 801; the Poincare series on [0, 399]^2 alone takes
    # over a minute, so the ceiling check has to come first
    start = time.perf_counter()
    code, _, err = run(capsys, "count", corpus_file("node"), "--q", "2", "--level", "400")
    assert time.perf_counter() - start < 10
    assert code == EXIT_RESOURCE
    assert "2^801 vectors exceed the enumeration ceiling 16777216" in err


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
    # the rank check and the histogram share one GF(p) span, and the rank
    # check and the series lengths one Q span, however many order vectors
    # the window holds (3^2 here); no value set and no conductor climb
    argv = ("count", corpus_file("node"), "--q", "3", "--level", "3")
    _, want, _ = run(capsys, *argv)
    builds, probes = [], []
    real = algebra.JetSpace.__init__

    def counted(self, curve, gens, N, p=0):
        builds.append(p)
        real(self, curve, gens, N, p)

    def no_value_set(b):
        raise AssertionError("count built a value set")

    monkeypatch.setattr(algebra.JetSpace, "__init__", counted)
    monkeypatch.setattr(algebra, "_band_contained", lambda a, m: probes.append(m))
    monkeypatch.setattr(cli, "value_set", no_value_set)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == want
    assert out.count("counted=") == 9
    assert sorted(builds) == [0, 3]
    assert probes == []


def test_large_prime_is_tested_at_once(capsys):
    # 10^18 + 3 is prime; trial division would run to 10^9.  With the
    # ceiling raised past q the span (rank 2) is refused by q^2 instead.
    start = time.perf_counter()
    code, _, err = run(capsys, "count", corpus_file("cusp"), "--q", "1000000000000000003",
                       "--level", "2", "--ceiling", "10000000000000000000")
    assert time.perf_counter() - start < 5
    assert code == EXIT_RESOURCE
    assert "1000000000000000003^2 vectors exceed" in err
    # no primality test is exact from 3317044064679887385961981 on
    q = str(algebra.PRIME_TEST_LIMIT + 2)
    code, _, err = run(capsys, "count", corpus_file("cusp"), "--q", q, "--level", "2",
                       "--ceiling", "1" + "0" * 30)
    assert code == EXIT_RESOURCE
    assert f"q = {q} is at or above 3317044064679887385961981" in err


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(algebra._is_prime(n) == trial(n) for n in range(-2, 5000))
    # composites that are strong pseudoprimes to every base up to 7 and 37
    assert not algebra._is_prime(3215031751)
    assert not algebra._is_prime(318665857834031151167461)
    assert algebra._is_prime(2 ** 61 - 1) and algebra._is_prime(10 ** 18 + 3)


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


def test_coinciding_branches_are_refused_at_load(capsys, tmp_path):
    # (t, t), (t^3, t^3): both branches are one curve, so the ring is not
    # reduced and has no conductor; every command refuses the file as input
    for gens, pair in [
        ([[[[1, 1, 1]], [[1, 1, 1]]], [[[3, 1, 1]], [[3, 1, 1]]]], "0 and 1"),
        ([[[[1, 1, 1]], [[2, 1, 1]], [[1, 1, 1]]], [[[3, 1, 1]], [[3, 1, 1]], [[3, 1, 1]]]],
         "0 and 2"),
    ]:
        path = curve_file(tmp_path, len(gens[0]), gens)
        for argv in (["info"], ["ideal-info"], ["series"], ["verify"],
                     ["count", "--q", "2", "--level", "16"]):
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert code == EXIT_INPUT, argv
            assert not out
            assert f"branches {pair} coincide" in err


def test_verify_without_a_canonical_exits_at_the_climb_ceiling(capsys, tmp_path):
    # no canonical ideal, so value_set is the first to climb; a resource
    # ceiling exits 3 as it does for info, not as a FAIL row.  t^13, t^15
    # has conductor 12 * 14 = 168, above the climb ceiling
    path = curve_file(tmp_path, 1, [[[[13, 1, 1]]], [[[15, 1, 1]]]])
    code, out, err = run(capsys, "verify", path)
    assert code == EXIT_RESOURCE
    assert "climb ceiling of 128" in err
    assert not out


def test_verify_builds_each_series_once_per_module(capsys, monkeypatch):
    # verify reads its packed tables off each module's ell grid, and calls no
    # per-point series builder
    built = Counter()
    for name in ("series_degrees", "series_cells", "series_poincare",
                 "series_proj_cells", "series_proj_poincare"):
        def counting(vm, real=getattr(poincare, name), name=name):
            built[name, vm] += 1
            return real(vm)
        monkeypatch.setattr(poincare, name, counting)
    asked, table = Counter(), poincare._table

    def asking(series, vm, invert=False):
        asked[series, invert, vm] += 1
        return table(series, vm, invert)

    monkeypatch.setattr(poincare, "_table", asking)
    table.cache_clear()
    poincare._ells.cache_clear()
    code, _, _ = run(capsys, "verify", corpus_file("node"), "--all-ideals")
    assert code == EXIT_OK and not built
    # one build per (series, module), and one ell grid per module
    assert asked and table.cache_info().misses == len(asked), asked
    assert poincare._ells.cache_info().misses == len({vm for _, _, vm in asked})


def test_verify_passes_the_ordinary_5_fold_table_within_30_s(capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    families = importlib.import_module("families")
    path = tmp_path / "ordinary5.json"
    path.write_text(json.dumps(families.ordinary_table(5, random.Random(5)).data))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 30
    assert code == EXIT_OK and out.splitlines()[-1].startswith("result: pass (")


@pytest.mark.parametrize("command", ["series", "verify"])
def test_an_oversized_value_module_box_is_a_resource_error(capsys, tmp_path, command):
    # members {0, gamma} pass every construction check, but the box [0, gamma]
    # holds 10001^2 points, which the module would tabulate in full
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"mode": "value-module", "r": 2, "gamma": [10000, 10000],
                                "members": [[0, 0], [10000, 10000]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 5
    assert code == EXIT_RESOURCE and not out
    assert "100020001 points" in err and "ceiling of 262144" in err


def test_count_needs_no_conductor(capsys, tmp_path):
    # t^13, t^15: conductor 12 * 14 = 168 lies above the climb ceiling, which
    # count never meets, since its lengths come from the span at level + 1
    path = curve_file(tmp_path, 1, [[[[13, 1, 1]]], [[[15, 1, 1]]]])
    code, out, _ = run(capsys, "count", path, "--q", "2", "--level", "16")
    assert code == EXIT_OK
    assert out.endswith("agreement: yes\n")
    hit = [line.split()[0] for line in out.splitlines()
           if line.startswith("v=") and "counted=0 " not in line]
    assert hit == ["v=[0]", "v=[13]", "v=[15]"]
    code, _, err = run(capsys, "info", path)
    assert code == EXIT_RESOURCE
    assert "climb ceiling of 128" in err


def test_direct_no_stays_out_of_the_routes_agreement(capsys, tmp_path):
    # k[[t^6, t^7]], b = O + O (t + t^2 + 2t^3 + t^4): the value set of b is
    # self-dual, but b is not isomorphic to its dual, and the value-set
    # routes cannot see that, so the row stays PASS
    path = tmp_path / "t6_t7.json"
    path.write_text(json.dumps({
        "field": "rational", "branches": 1, "canonical": "ring",
        "ring_generators": [[[[6, 1, 1]]], [[[7, 1, 1]]]],
        "ideals": {"b": [[[[0, 1, 1]]], [[[1, 1, 1], [2, 1, 1], [3, 2, 1], [4, 1, 1]]]]},
    }))
    code, out, _ = run(capsys, "verify", str(path), "--all-ideals")
    assert code == EXIT_OK
    row = next(line for line in out.splitlines()
               if line.startswith("b: self-duality routes agree"))
    assert row.split()[4] == "PASS" and row.endswith(" direct=no"), row
    code, out, _ = run(capsys, "ideal-info", str(path), "--ideal", "b")
    assert code == EXIT_OK
    assert "self-dual direct: no (no transporter of value zero)" in out
    assert "routes agree: yes" in out


@pytest.mark.parametrize("command", ["ideal-info", "verify"])
def test_seed_is_not_an_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, corpus_file("cusp"), "--seed", "1"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


# ----------------------------------------------------------------- the parser

def parsed(parser, argv):
    """(stdout, stderr, namespace or exit code) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_reads_as_the_full_one(command):
    # help, a missing file, a bad choice, an unknown option, a stray
    # argument and a good command line, each with text and exit code
    for argv in ([command, "--help"], [command], [command, "f.json", "--format", "xml"],
                 [command, "f.json", "--bogus"], [command, "f.json", "extra"],
                 [command, "f.json", "--q", "3", "--level", "2"]):
        lazy, full = parsed(_build_parser(command), argv), parsed(_build_parser(), argv)
        assert lazy == full, argv
        assert lazy[2] in (0, 2) or lazy[2]["func"].__name__.endswith(
            command.replace("-", "_")), argv


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: built.append(only)
                        or _build_parser(only))
    assert run(capsys, "info", corpus_file("cusp"))[0] == EXIT_OK
    for argv, stream in ((["--help"], "out"), (["bogus"], "err"), ([], "err")):
        with pytest.raises(SystemExit):
            main(argv)
        text = getattr(capsys.readouterr(), stream)
        assert all(name in text for name in COMMANDS), argv
    assert built == ["info", None, None, None]


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