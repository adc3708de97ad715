"""Per-layer counters and timers for one singval op, installed from outside.

`Recorder.install` rebinds each layer's entry functions wherever singval
holds them: in every module namespace (the CLI imports most of them by
name), on the classes that define the methods, and in module-level tables
such as the CLI's series table.  Entry functions get a span: a call
count and, for the outermost active call, its inclusive wall time.  Hot
leaf functions (gc_*, el_*, row-space and value-module queries) get a call
count only, because timing each call would distort the time it measures.

Self time comes from a sampler instead: a CPU-time timer interrupts the op
every millisecond and charges the tick to the innermost singval frame on
the stack.  A layer's self time is its share of the ticks times the op's
CPU time.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import Counter
from functools import wraps
from pathlib import Path

SAMPLE_INTERVAL_S = 0.001

ROUTES = ("self_dual_by_counts", "self_dual_by_counts_percoord",
          "self_dual_by_lengths", "self_dual_by_chain", "is_symmetric")
QUERIES = ("c_partial", "c_total", "ell", "deg_J", "member")
SERIES = ("series_degrees", "series_cells", "series_poincare",
          "series_proj_cells", "series_proj_poincare")


class Recorder:
    """Counts, inclusive times and sampled self time for one process."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.incl: Counter[str] = Counter()
        self.ticks: Counter[str] = Counter()
        self._active: Counter[str] = Counter()
        self._jet_keys: set = set()
        self._last_basis = (0, 0)  # (p, rank) of the latest GF(p) jet basis
        self._layer_of: dict = {}  # code object -> layer charged for its ticks
        self._files: dict[Path, str] = {}  # singval source file -> module name
        self._cpu0 = 0.0

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name, calls=None, on_call=None, on_return=None):
        counts, incl, active, clock = self.counts, self.incl, self._active, time.perf_counter
        calls = calls or f"{name}.calls"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if on_call is not None:
                on_call(args)
            outer = not active[name]
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                if outer:
                    incl[name] += clock() - t0
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _count(self, fn, *names):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for name in names:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for counts that need arguments or results ---------------------------

    def _jet_build(self, args):
        _self, curve, gens, N = args[:4]
        self.counts["algebra.jets.cols"] += sum(N)
        self._jet_keys.add((id(curve), tuple(gens), tuple(N)))

    def _conductor_search(self, args):
        if args[0]._cond is None:
            self.counts["algebra.conductor.searches"] += 1

    def _colon_unknowns(self, args):
        self.counts["algebra.colon.unknowns"] += args[1]

    def _basis_built(self, args, result):
        self._last_basis = (args[1], len(result[0]))

    def _points_counted(self, args, result):
        p, rank = self._last_basis
        self.counts["algebra.oracle.enumerated"] += p ** rank
        self.counts["algebra.oracle.hits"] += result

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        from singval import (algebra, cli, curve, lattice, lefschetz, poincare,
                             schemas, valuemodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "singval" or name.startswith("singval.")]
        self._files = {Path(m.__file__).resolve(): m.__name__.rsplit(".", 1)[-1]
                       for m in modules if getattr(m, "__file__", None)}

        def rebind(fn, wrapper):
            for m in modules:
                for key, val in list(vars(m).items()):
                    if key.startswith("__"):
                        continue
                    if val is fn:
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is fn:
                                val[k] = wrapper

        def method(cls, name, make):
            setattr(cls, name, make(cls.__dict__[name]))

        rebind(schemas.load_input, self._span(schemas.load_input, "schemas.load"))

        for name, fn in list(vars(lefschetz).items()):
            if name.startswith("gc_") and callable(fn) and fn.__module__ == lefschetz.__name__:
                extra = ("lefschetz.div_exact_calls",) if name == "gc_div_exact" else ()
                rebind(fn, self._count(fn, "lefschetz.calls", *extra))
        method(lefschetz.GrothendieckClass, "__init__",
               lambda f: self._count(f, "lefschetz.calls"))

        counts = self.counts
        for name, fn in list(vars(lattice).items()):
            if name.startswith("ws_") and callable(fn) and fn.__module__ == lattice.__name__:
                rebind(fn, self._count(fn, "lattice.calls"))
        box = lattice.iter_box

        @wraps(box)
        def iter_box(lo, hi):
            counts["lattice.calls"] += 1
            n = 1
            for a, b in zip(lo, hi):
                n *= max(0, b - a + 1)
            counts["lattice.points"] += n
            return box(lo, hi)

        rebind(box, iter_box)

        rebind(curve.el_mul, self._count(curve.el_mul, "curve.el_mul_calls"))
        rebind(curve.el_trunc, self._count(curve.el_trunc, "curve.el_trunc_calls"))

        rs_add = algebra.RowSpaceQ.add

        def add(space, row):
            counts["algebra.rowspace.adds"] += 1
            grew = rs_add(space, row)
            if grew:
                counts["algebra.rowspace.useful_adds"] += 1
            return grew

        algebra.RowSpaceQ.add = add
        method(algebra.RowSpaceQ, "residual",
               lambda f: self._count(f, "algebra.rowspace.residuals"))
        method(algebra.JetSpace, "__init__",
               lambda f: self._span(f, "algebra.jets", calls="algebra.jets.builds",
                                    on_call=self._jet_build))
        method(algebra.JetSpace, "dim_at_least",
               lambda f: self._span(f, "algebra.dim_at_least"))
        spans = [
            ("_gen_conductor", "algebra.conductor", {"calls": "algebra.conductor.calls",
                                                     "on_call": self._conductor_search}),
            ("value_set", "algebra.value_set", {}),
            ("colon", "algebra.colon", {}),
            ("_nullspace", "algebra.nullspace", {"on_call": self._colon_unknowns}),
            ("dim_quotient", "algebra.dim_quotient", {}),
            ("verify_canonical", "algebra.canonical", {}),
            ("self_dual_direct", "algebra.canonical", {}),
            ("count_points_mod_q", "algebra.oracle", {"on_return": self._points_counted}),
            ("jet_rank_mod_q", "algebra.oracle", {"calls": "algebra.oracle.rank_calls"}),
            ("_modp_jet_basis", "algebra.oracle.basis", {"calls": "algebra.oracle.basis_builds",
                                                         "on_return": self._basis_built}),
        ]
        for name, span, kw in spans:
            fn = getattr(algebra, name)
            rebind(fn, self._span(fn, span, **kw))
        rebind(algebra._band_contained,
               self._count(algebra._band_contained, "algebra.conductor.probes"))

        vm = valuemodule.ValueModule
        method(vm, "__init__", lambda f: self._span(f, "valuemodule.build",
                                                    calls="valuemodule.builds"))
        for name in QUERIES:
            method(vm, name, lambda f: self._count(f, "valuemodule.queries"))
        for name in ROUTES:
            method(vm, name, lambda f: self._span(f, "valuemodule.routes"))

        for name, fn in list(vars(poincare).items()):
            if callable(fn) and getattr(fn, "__module__", None) == poincare.__name__:
                if name in SERIES:
                    rebind(fn, self._span(fn, "poincare.series"))
                elif name.startswith("verify_"):
                    rebind(fn, self._span(fn, "poincare.verify"))

        for name, fn in list(vars(cli).items()):
            if name.startswith("cmd_") and callable(fn):
                rebind(fn, self._span(fn, "cli.cmd"))

    # -- sampling -----------------------------------------------------------------------

    def _classify(self, code) -> str:
        module = self._files.get(Path(code.co_filename).resolve())
        if module is None:
            return ""
        qual = code.co_qualname
        if module == "algebra":
            if qual.startswith(("RowSpaceQ.", "_rank_of", "_nullspace")):
                return "algebra.rowspace"
            if qual.startswith(("JetSpace.", "JetLayout.", "jet_span")):
                return "algebra.jets"
            if qual.startswith(("_modp", "count_points_mod_q", "jet_rank_mod_q")):
                return "algebra.oracle"
            return "algebra.other"
        if module == "valuemodule":
            if qual.split(".<locals>")[0] in {f"ValueModule.{q}" for q in QUERIES}:
                return "valuemodule.query"
            return "valuemodule.other"
        return module

    def _tick(self, signum, frame) -> None:
        layer_of = self._layer_of
        while frame is not None:
            code = frame.f_code
            layer = layer_of.get(code)
            if layer is None:
                layer = layer_of[code] = self._classify(code)
            if layer:
                self.ticks[layer] += 1
                return
            frame = frame.f_back
        self.ticks["outside"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def finish(self) -> dict:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return {
            "counts": dict(self.counts),
            "incl": dict(self.incl),
            "ticks": dict(self.ticks),
            "cpu_s": time.process_time() - self._cpu0,
            "jets_distinct": len(self._jet_keys),
        }
