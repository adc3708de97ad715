"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run singval from this checkout's src directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import families as fam  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from singval import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def singval(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _ops_and_files(workload: str, seed: int, workdir: Path) -> tuple[list, dict]:
    workdir.mkdir()
    ops = workloads.build(workload, seed, ROOT, workdir)
    argvs = [[a.replace(str(workdir.relative_to(ROOT)), "<work>") for a in op.argv]
             for op in ops]
    files = {p.name: p.read_text() for p in workdir.iterdir()}
    return argvs, files


@pytest.fixture
def workdir():
    d = ROOT / ".perfbench_work" / "test"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)
    with contextlib.suppress(OSError):
        d.parent.rmdir()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload, workdir):
    first = _ops_and_files(workload, 7, workdir / "a")
    assert first == _ops_and_files(workload, 7, workdir / "b")
    assert first[1] != _ops_and_files(workload, 8, workdir / "c")[1]


SMALLEST_CURVES = [
    fam.monomial_branch(2, 3, random.Random(1)),
    fam.a_type(1, random.Random(1)),
    fam.ordinary_point(2, random.Random(1)),
    fam.glued_cusps(random.Random(1)),
]


@pytest.mark.parametrize("case", SMALLEST_CURVES, ids=lambda c: c.name)
def test_closed_form_facts_match_info_on_the_smallest_member(case, workdir):
    path = workdir / "case.json"
    path.write_text(json.dumps(case.data))
    code, out = singval(["info", str(path), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    f = case.facts
    assert obj["conductor"] == list(f.gamma)
    assert obj["delta"] == f.delta
    if f.members is not None:
        assert sorted(map(tuple, obj["members"])) == sorted(f.members)
    assert obj["gorenstein_by_lengths"] is f.gorenstein
    assert workloads.check_info(f)(out, code) is None


SMALLEST_TABLES = [
    fam.ordinary_table(2, random.Random(1)),
    fam.a_type_table(1, random.Random(1)),
    fam.semigroup_table(40, random.Random(1)),
]


@pytest.mark.parametrize("case", SMALLEST_TABLES, ids=lambda c: c.name)
def test_closed_form_tables_pass_their_checks(case, workdir):
    path = workdir / "case.json"
    path.write_text(json.dumps(case.data))
    code, out = singval(["series", str(path), "--which", "pg", "--q", "2", "--format", "json"])
    assert workloads.check_series(case.facts)(out, code) is None
    assert workloads.check_verify(*reversed(singval(["verify", str(path)]))) is None


def test_checks_reject_wrong_answers(workdir):
    case = fam.monomial_branch(2, 5, random.Random(1))
    path = workdir / "case.json"
    path.write_text(json.dumps(case.data))
    wrong = fam.monomial_branch(2, 3, random.Random(1)).facts
    code, out = singval(["info", str(path), "--format", "json"])
    assert workloads.check_info(wrong)(out, code)
    code, out = singval(["series", str(path), "--q", "2", "--format", "json"])
    assert workloads.check_series(wrong)(out, code)
    assert workloads.check_verify("result: fail (1 failed)", 1)


def test_facts_from_semigroup_arithmetic():
    assert fam.semigroup_conductor((3, 5)) == 8
    assert fam.semigroup_members((3, 5), 8) == [0, 3, 5, 6, 8]
    assert fam.ordinary_members(3) >= {(0, 0, 0), (1, 1, 2), (2, 2, 2)}
    assert (1, 2, 2) not in fam.ordinary_members(3)
    for c in (40, 70, 120):
        f = fam.semigroup_table(c, random.Random(c)).facts
        assert f.gamma == (c,) and (c - 1,) not in f.members and len(f.members) == 10


def _fake_run(wall: float, index: int = 0, speed: float = 1.0) -> run.OpRun:
    """A run on a host `speed` times slower than the reference host."""
    return run.OpRun(("info",), 0, wall * speed, 0.1 * speed, 20000, b"x", None,
                     {"counts": {}, "incl": {}, "ticks": {"curve": 1}, "cpu_s": wall,
                      "jets_distinct": 0},
                     index, run.KERNEL_REF_S * speed, run.START_REF_S * speed)


def test_printed_metric_names_are_the_declared_ones():
    runs = [_fake_run(0.01 * (i + 1), i) for i in range(40)]
    for values in run.end_to_end(runs, 40):
        assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    metrics = run.layer_metrics(runs, runs)[0]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {u for _, u in metrics.values()} <= {m["unit"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_times_are_scaled_to_the_reference_host():
    # two passes over 40 ops, the second on a host half as fast again
    runs = [_fake_run(0.01 * (i + 1), i, speed) for speed in (1.0, 1.5) for i in range(40)]
    values, raw = run.end_to_end(runs, 40)
    assert values["wall_s"] == pytest.approx(sum(0.01 * (i + 1) for i in range(40)))
    assert values["op_p50_s"] == pytest.approx(0.205, rel=1e-3)
    assert values["setup_s"] == pytest.approx(0.1)
    assert raw["wall_s"] > values["wall_s"] and raw["setup_s"] > values["setup_s"]
    assert run.local_medians([5, 1, 2, 9, 3], window=1) == [2, 2, 2, 3, 3]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail_quantile(40) == 0.75
    walls = [0.01 * (i + 1) for i in range(40)]
    tail = run.hd_quantile(walls, run.tail_quantile(40))
    assert sum(w > tail for w in walls) == 10


def test_harrell_davis_quantiles():
    assert run.hd_quantile([0.3] * 40, 0.75) == pytest.approx(0.3)
    evenly = [float(i) for i in range(41)]
    assert run.hd_quantile(evenly, 0.5) == pytest.approx(20.0)
    # an op at the middle slowing by 0.9 moves the plain median by 0.45, and
    # the estimate by its weight, about a quarter of that
    gap = [1.0] * 20 + [2.0] * 20
    slower = gap[:19] + [1.9] + gap[20:]
    assert run.hd_quantile(gap, 0.5) == pytest.approx(1.5)
    assert 0 < run.hd_quantile(slower, 0.5) - run.hd_quantile(gap, 0.5) < 0.15


def test_op_outputs_are_identical_traced_and_untraced(workdir):
    sp = run.Spawner(ROOT, workdir)
    ops = []
    for workload in ("curves", "tables", "oracle"):
        sub = workdir / workload
        sub.mkdir()
        built = workloads.build(workload, 3, ROOT, sub)
        ops += built[:2]
    for op in ops:
        plain, traced = sp.op(op.argv, trace=False), sp.op(op.argv, trace=True)
        assert plain.failure is None and op.check(plain.out.decode(), plain.code) is None
        assert traced.out == plain.out and traced.code == plain.code
        assert traced.layers["counts"]["cli.cmd.calls"] == 1


def test_tracer_sees_calls_made_through_imported_names(workdir):
    sp = run.Spawner(ROOT, workdir)
    path = workdir / "cusp.json"
    path.write_text(json.dumps(fam.monomial_branch(2, 3, random.Random(1)).data))
    rec = sp.op(("info", str(path.relative_to(ROOT))), trace=True).layers
    counts = rec["counts"]
    assert counts["algebra.value_set.calls"] == 1  # cli imports value_set by name
    assert counts["schemas.load.calls"] == 1
    assert counts["algebra.jets.builds"] >= rec["jets_distinct"] > 0
    assert counts["algebra.rowspace.adds"] >= counts["algebra.rowspace.useful_adds"] > 0
    assert counts["algebra.conductor.probes"] > 0 and counts["curve.el_mul_calls"] > 0


def test_benchmark_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
