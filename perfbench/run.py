"""The singval benchmark: cold CLI runs, one op at a time.

    python3 perfbench/run.py --workload curves|tables|oracle|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a singval checkout; it imports singval from ./src
and nothing else.  Each op is one `singval` CLI invocation in a fresh
interpreter, and the next op starts only when the previous one has ended
(a closed loop with one client).  No cache carries over from one op to the
next, as for any CLI user.  Inputs come from the seed (workloads.py), and
every op's output is checked against facts known in closed form.

With --trace 0 the benchmark makes one full pass over the op list and then
goes on through the list, op by op, until S seconds have passed since it
started.  Each op is timed in its own process around
singval.cli.main(argv), so start-up is excluded, and every op's time is
the median over its repetitions.  It prints the end-to-end metrics:

  wall_s       one pass: the sum of the per-op times
  op_p50_s     median per-op time
  op_tail_s    the per-op time with ten ops of the pass above it: p75 for
               the 40 ops of every workload
  setup_s      fresh interpreter start, from the spawn, plus the time of
               `import json, sys, singval.cli` (median over every op run)
  peak_rss_mb  largest max-RSS of any op process, read from wait4
  op_fail_ratio  failed ops over ops attempted (printed; the JSON carries
               it as `failed` and `attempted`)

Both quantiles are Harrell-Davis estimates: a mean of all the sorted per-op
times, weighted by a Beta density centred on the quantile.  The plain order
statistic jumps by the gap between two ops whenever their times swap
places; this estimate moves smoothly with every op's time.

Times are given at the speed of a reference host.  The host this runs on
is shared, and its speed drifts by a third within seconds.  So every op
process also reports how long its bare interpreter took to start and how
long a fixed pure-Python kernel (calib.py) took, run before singval is
imported.  The kernel is interpreter work on a small heap; the bare start
is mostly system work, page faults and memory traffic; singval's ops do
both, and over six seeds of every workload their times followed the
geometric mean of the two more closely than either alone.  So an op's
time is scaled by the geometric mean of KERNEL_REF_S over the median
kernel time and START_REF_S over the median bare start, both taken over
the op processes around it, and its set-up time by START_REF_S over the
median bare start alone.  Neither reference runs singval code, so a change
to singval moves the scaled times exactly as it moves the raw ones.  The
raw medians are printed too.

With --trace 1 it makes one untraced and one traced pass and prints the
per-layer metrics of layers.py, summed over the traced pass, and
trace.overhead_ratio (traced wall_s over untraced wall_s).  The op outputs
of the two passes must be byte-identical.

Both modes first run the known-defect probes, untimed, and print what they
observe next to the correct outcome.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With `--workload
all` every workload runs in turn, S seconds each, and the metric names in
that object carry the workload's name as a prefix (`curves.wall_s`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "opchild.py"
OP_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 10  # a probe must not eat the run's time once its defect is fixed
TAIL_BEYOND = 10  # samples above the reported tail percentile
# The reference host: calib.py's kernel takes KERNEL_REF_S and a bare
# interpreter starts in START_REF_S.  These are medians of a calm run on a
# 2-core x86-64 VM; they only fix the scale of the reported times.
KERNEL_REF_S = 0.010
START_REF_S = 0.045
CALIB_WINDOW = 3  # op processes on each side of an op that set its scale


@dataclass
class OpRun:
    argv: tuple[str, ...]
    code: int
    wall_s: float
    setup_s: float
    rss_kb: int
    out: bytes
    failure: str | None
    layers: dict | None = None
    index: int = 0  # position of the op in the op list
    # the op process's kernel time and bare start-up; a run without a report
    # has no time of its own and takes the reference host's
    kernel_s: float = KERNEL_REF_S
    bare_s: float = START_REF_S


class Spawner:
    """Starts op processes with singval importable from ROOT/src only."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, args: list[str], timeout: float) -> tuple[int, int, bool, float]:
        """Run python ARGS to completion: (exit code, max RSS in KiB, timed out,
        monotonic spawn time)."""
        out, err = self.workdir / "op.out", self.workdir / "op.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        t0 = time.monotonic()
        pid = os.posix_spawn(self.python, [self.python, *args], self.env, file_actions=actions)
        reaped = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:  # interrupted: leave no op process behind
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss, not ready, t0

    def op(self, argv: tuple[str, ...], trace: bool, timeout: float = OP_TIMEOUT_S) -> OpRun:
        report = self.workdir / "op.json"
        report.unlink(missing_ok=True)
        code, rss, timed_out, t0 = self.spawn(
            [str(CHILD), str(report), "1" if trace else "0", *argv], timeout)
        out = (self.workdir / "op.out").read_bytes()
        failure = None
        try:
            rep = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            rep = {"elapsed": 0.0, "started": t0 + START_REF_S, "import": 0.0,
                   "kernel": KERNEL_REF_S, "code": code}
            failure = (f"timed out after {timeout} s" if timed_out else
                       f"no report, exit {code}: "
                       + (self.workdir / "op.err").read_text(errors="replace")[-300:])
        bare = rep["started"] - t0
        return OpRun(argv, rep["code"], rep["elapsed"], bare + rep["import"], rss, out,
                     failure, rep.get("layers"), kernel_s=rep["kernel"], bare_s=bare)


def run_op(sp: Spawner, op: workloads.Op, index: int, trace: bool) -> OpRun:
    run = sp.op(op.argv, trace)
    if run.failure is None:
        run.failure = op.check(run.out.decode("utf-8", errors="replace"), run.code)
    run.index = index
    return run


def run_pass(sp: Spawner, ops: list[workloads.Op], trace: bool) -> list[OpRun]:
    return [run_op(sp, op, i, trace) for i, op in enumerate(ops)]


def run_until(sp: Spawner, ops: list[workloads.Op], deadline: float) -> list[OpRun]:
    """One full pass, then on through the op list until the deadline."""
    runs: list[OpRun] = []
    while len(runs) < len(ops) or time.monotonic() < deadline:
        i = len(runs) % len(ops)
        runs.append(run_op(sp, ops[i], i, trace=False))
    return runs


def tail_quantile(n: int) -> float:
    """The quantile of n per-op times with TAIL_BEYOND of them above it."""
    return max(1, n - TAIL_BEYOND) / n


def hd_quantile(values: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: the sorted values weighted
    by the mass that Beta(p(n+1), (1-p)(n+1)) puts on [i/n, (i+1)/n],
    integrated with Simpson's rule in `steps` parts."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1

    def density(t: float) -> float:  # up to a constant factor
        return t ** a * (1 - t) ** b

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + 1 / n))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def local_medians(values: list[float], window: int = CALIB_WINDOW) -> list[float]:
    """For each position, the median of the 2 * window + 1 values around it
    (fewer where the list is shorter)."""
    width = min(len(values), 2 * window + 1)
    out = []
    for i in range(len(values)):
        lo = min(max(0, i - window), len(values) - width)
        out.append(statistics.median(values[lo:lo + width]))
    return out


def scaled(runs: list[OpRun]) -> tuple[list[float], list[float]]:
    """Op times and set-up times of runs in the order they ran, at the
    reference host's speed."""
    kernel = local_medians([r.kernel_s for r in runs])
    bare = local_medians([r.bare_s for r in runs])
    return ([r.wall_s * math.sqrt(KERNEL_REF_S / k * START_REF_S / b)
             for r, k, b in zip(runs, kernel, bare)],
            [r.setup_s * START_REF_S / b for r, b in zip(runs, bare)])


def summary(runs: list[OpRun], walls: list[float], setups: list[float], n: int) -> dict:
    per_op: list[list[float]] = [[] for _ in range(n)]
    for r, w in zip(runs, walls):
        per_op[r.index].append(w)
    times = sorted(statistics.median(t) for t in per_op)
    return {
        "wall_s": sum(times),
        "op_p50_s": hd_quantile(times, 0.5),
        "op_tail_s": hd_quantile(times, tail_quantile(n)),
        "peak_rss_mb": max(r.rss_kb for r in runs) / 1024,
        "setup_s": statistics.median(setups),
    }


def end_to_end(runs: list[OpRun], n: int) -> tuple[dict, dict]:
    """The metrics at the reference host's speed, and the same medians raw."""
    return (summary(runs, *scaled(runs), n),
            summary(runs, [r.wall_s for r in runs], [r.setup_s for r in runs], n))


UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


# -- per-layer metrics ---------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced: list[OpRun], untraced: list[OpRun]) -> tuple[dict, dict, dict]:
    """Per-layer metrics summed over the traced pass, as {name: (value, unit)},
    with the raw counter totals and sampled self times behind them.

    Names ending in incl_s, load_s or build_s are inclusive span times, and
    names ending in self_s are sampled self time.  The less obvious counts:
    lefschetz.calls      gc_* calls plus GrothendieckClass constructions
    lattice.calls        ws_* and iter_box calls; lattice.points counts the
                         points of every box iter_box was asked to walk
    algebra.jets.distinct_ratio  distinct (curve, generators, precision)
                         per op process over JetSpace builds
    algebra.conductor.searches   _gen_conductor calls without a cached
                         conductor; probes are _band_contained calls
    algebra.colon.unknowns       columns of the colon linear systems
    algebra.oracle.calls count_points_mod_q calls; basis_builds include the
                         jet_rank_mod_q ones; enumerated sums p^rank and
                         hit_ratio is points counted over points enumerated
    valuemodule.queries  c_partial, c_total, ell, deg_J and member calls;
                         routes_incl_s covers the five self-duality routes
    """
    counts: dict[str, float] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    distinct = 0
    for run in traced:
        rec = run.layers or {}
        for k, v in rec.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
        for k, v in rec.get("incl", {}).items():
            incl[k] = incl.get(k, 0.0) + v
        ticks = rec.get("ticks", {})
        total = sum(ticks.values())
        for k, v in ticks.items():
            self_s[k] = self_s.get(k, 0.0) + rec["cpu_s"] * v / total
        distinct += rec.get("jets_distinct", 0)
    c, t, s = counts.get, incl.get, self_s.get
    count, secs, ratio = "count", "s", "ratio"
    return {
        "schemas.load_s": (t("schemas.load", 0.0), secs),
        "lefschetz.calls": (c("lefschetz.calls", 0), count),
        "lefschetz.div_exact_calls": (c("lefschetz.div_exact_calls", 0), count),
        "lefschetz.self_s": (s("lefschetz", 0.0), secs),
        "lattice.calls": (c("lattice.calls", 0), count),
        "lattice.points": (c("lattice.points", 0), count),
        "lattice.self_s": (s("lattice", 0.0), secs),
        "curve.el_mul_calls": (c("curve.el_mul_calls", 0), count),
        "curve.el_trunc_calls": (c("curve.el_trunc_calls", 0), count),
        "curve.self_s": (s("curve", 0.0), secs),
        "algebra.rowspace.adds": (c("algebra.rowspace.adds", 0), count),
        "algebra.rowspace.residuals": (c("algebra.rowspace.residuals", 0), count),
        "algebra.rowspace.useful_ratio": (_ratio(c("algebra.rowspace.useful_adds", 0),
                                                 c("algebra.rowspace.adds", 0)), ratio),
        "algebra.rowspace.self_s": (s("algebra.rowspace", 0.0), secs),
        "algebra.jets.builds": (c("algebra.jets.builds", 0), count),
        "algebra.jets.distinct_ratio": (_ratio(distinct, c("algebra.jets.builds", 0)), ratio),
        "algebra.jets.cols": (c("algebra.jets.cols", 0), count),
        "algebra.jets.incl_s": (t("algebra.jets", 0.0), secs),
        "algebra.dim_at_least.calls": (c("algebra.dim_at_least.calls", 0), count),
        "algebra.dim_at_least.incl_s": (t("algebra.dim_at_least", 0.0), secs),
        "algebra.conductor.searches": (c("algebra.conductor.searches", 0), count),
        "algebra.conductor.probes": (c("algebra.conductor.probes", 0), count),
        "algebra.conductor.incl_s": (t("algebra.conductor", 0.0), secs),
        "algebra.value_set.calls": (c("algebra.value_set.calls", 0), count),
        "algebra.value_set.incl_s": (t("algebra.value_set", 0.0), secs),
        "algebra.colon.calls": (c("algebra.colon.calls", 0), count),
        "algebra.colon.unknowns": (c("algebra.colon.unknowns", 0), count),
        "algebra.colon.incl_s": (t("algebra.colon", 0.0), secs),
        "algebra.dim_quotient.incl_s": (t("algebra.dim_quotient", 0.0), secs),
        "algebra.canonical.incl_s": (t("algebra.canonical", 0.0), secs),
        "algebra.oracle.calls": (c("algebra.oracle.calls", 0), count),
        "algebra.oracle.basis_builds": (c("algebra.oracle.basis_builds", 0), count),
        "algebra.oracle.enumerated": (c("algebra.oracle.enumerated", 0), count),
        "algebra.oracle.hit_ratio": (_ratio(c("algebra.oracle.hits", 0),
                                            c("algebra.oracle.enumerated", 0)), ratio),
        "algebra.oracle.incl_s": (t("algebra.oracle", 0.0), secs),
        "valuemodule.builds": (c("valuemodule.builds", 0), count),
        "valuemodule.build_s": (t("valuemodule.build", 0.0), secs),
        "valuemodule.queries": (c("valuemodule.queries", 0), count),
        "valuemodule.query_self_s": (s("valuemodule.query", 0.0), secs),
        "valuemodule.routes_incl_s": (t("valuemodule.routes", 0.0), secs),
        "poincare.series.calls": (c("poincare.series.calls", 0), count),
        "poincare.series.incl_s": (t("poincare.series", 0.0), secs),
        "poincare.verify.calls": (c("poincare.verify.calls", 0), count),
        "poincare.verify.incl_s": (t("poincare.verify", 0.0), secs),
        "cli.cmd_incl_s": (t("cli.cmd", 0.0), secs),
        "cli.out_bytes": (sum(len(r.out) for r in traced), "bytes"),
        "trace.overhead_ratio": (_ratio(sum(scaled(traced)[0]), sum(scaled(untraced)[0])),
                                 ratio),
    }, counts, self_s


def design_checks(workload: str, traced: list[OpRun], counts: dict, self_s: dict,
                  metrics: dict) -> list[str]:
    """What the trace says about the workload's reason to exist."""
    algebra_calls = sum(v for k, v in counts.items()
                        if k.startswith("algebra.") and k.endswith((".calls", ".builds")))
    wall = sum(r.wall_s for r in traced)
    oracle_share = _ratio(metrics["algebra.oracle.incl_s"][0], wall)
    total_self = sum(self_s.values())
    jet_share = _ratio(sum(self_s.get(k, 0.0) for k in
                           ("algebra.rowspace", "algebra.jets", "curve")), total_self)
    lines = [
        f"  algebra calls: {algebra_calls:.0f}",
        f"  algebra.oracle.incl_s share of traced wall time: {oracle_share:.1%}",
        f"  algebra.rowspace + algebra.jets + curve share of self time: {jet_share:.1%}",
    ]
    verdict = {"tables": algebra_calls == 0, "oracle": oracle_share > 0.5,
               "curves": jet_share > 0.5}[workload]
    lines.append(f"  design of {workload}: {'confirmed' if verdict else 'NOT confirmed'}")
    return lines


# -- entry point -----------------------------------------------------------------------


def run_probes(sp: Spawner, root: Path) -> None:
    for i, probe in enumerate(workloads.probes(root, sp.workdir)):
        run = sp.op(probe.argv, trace=False, timeout=PROBE_TIMEOUT_S)
        err = (sp.workdir / "op.err").read_text(errors="replace").strip().splitlines()
        if run.failure and "timed out" in run.failure:
            err = [run.failure]
        lines = err or [x for x in run.out.decode(errors="replace").splitlines()
                        if "MISMATCH" in x or "match\": false" in x]
        seen = f"exit {run.code}" + (f" ({lines[-1].strip()[:110]})" if lines else "")
        state = "fixed" if run.code == probe.correct_code else "still present"
        print(f"known defect ({'ab'[i]}) {probe.name}: {state}")
        print(f"  observed: {seen}")
        print(f"  correct:  {probe.correct}")


def warm_up(sp: Spawner, root: Path) -> None:
    """One untimed start that compiles bytecode and proves which singval runs."""
    report = sp.workdir / "op.json"
    code, *_ = sp.spawn([str(CHILD), str(report), "0", "--help"], 60)
    try:
        module = Path(json.loads(report.read_text(encoding="utf-8"))["module"]).resolve()
    except (OSError, ValueError, KeyError):
        module = None
    if code != 0 or module is None or (root / "src") not in module.parents:
        err = (sp.workdir / "op.err").read_text(errors="replace").strip()[-400:]
        raise SystemExit(f"cannot run singval from {root / 'src'} (exit {code}): {err}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> tuple[list[OpRun], dict]:
    """Run one workload, print its report, and return its op runs and its
    metrics as {name: (value, unit)}."""
    started = time.monotonic()
    workdir = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sp = Spawner(root, workdir)
        warm_up(sp, root)
        ops = workloads.build(workload, seed, root, workdir)
        run_probes(sp, root)
        if trace:
            untraced = run_pass(sp, ops, trace=False)
            traced = run_pass(sp, ops, trace=True)
            for u, t in zip(untraced, traced):
                if t.failure is None and (u.out != t.out or u.code != t.code):
                    t.failure = "traced output differs from the untraced output"
            runs = untraced + traced
            metrics, counts, self_s = layer_metrics(traced, untraced)
        else:
            runs = run_until(sp, ops, started + seconds)
            values, raw = end_to_end(runs, len(ops))
            metrics = {k: (v, UNITS[k]) for k, v in values.items()}
        took = time.monotonic() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = [r for r in runs if r.failure]
    n = len(ops)
    passes = ("an untraced and a traced pass" if trace
              else f"{len(runs)} op runs ({len(runs) / n:.2f} passes)")
    print(f"workload {workload}, seed {seed}: {n} ops per pass, "
          f"{passes} in {took:.1f} s, closed loop, one client")
    if trace:
        for line in design_checks(workload, traced, counts, self_s, metrics):
            print(line)
    else:
        print(f"  op_tail_s is p{100 * tail_quantile(n):.0f}: "
              f"{TAIL_BEYOND} of the {n} per-op times of a pass lie above it")
        print(f"  setup_s is the median of {len(runs)} interpreter starts")
        kernel = statistics.median(r.kernel_s for r in runs)
        bare = statistics.median(r.bare_s for r in runs)
        print(f"  host speed: kernel {kernel:.5f} s (reference {KERNEL_REF_S} s), bare start "
              f"{bare:.5f} s (reference {START_REF_S} s); raw medians: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  {'op_fail_ratio':<32} {len(failed) / len(runs):.6g} ratio "
          f"({len(failed)} of {len(runs)})")
    for r in failed[:10]:
        print(f"  FAILED singval {' '.join(r.argv)}: {r.failure}")
    return runs, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*sorted(workloads.WORKLOADS), "all"], required=True,
                    help="`all` runs every workload in turn, each for SECONDS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its op process and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = HERE.parent
    if not (root / "src" / "singval").is_dir() or not (root / "corpus").is_dir():
        print(f"no singval source tree at {root}", file=sys.stderr)
        return 2
    os.chdir(root)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs: list[OpRun] = []
    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        got, values = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        runs += got
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    failed = sum(1 for r in runs if r.failure)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
