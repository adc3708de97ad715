"""Command-line driver.

Five subcommands over a single JSON input format (concrete curve files or
abstract value-module files):

* ``info``        curve invariants and the two Gorenstein verdicts;
* ``ideal-info``  value set, lengths and self-duality report for one ideal;
* ``series``      coefficient tables of the motivic series on a window;
* ``verify``      every applicable identity check as a pass/fail table;
* ``count``       finite-field cylinder counts against the L = q prediction.

Exit codes: 0 all pass, 1 verification failure, 2 input error, 3 resource
ceiling.  Output is deterministic: fixed row order, fixed seed, sorted JSON
keys, exact rational arithmetic throughout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Sequence, TextIO

from .algebra import (
    colon,
    dim_quotient,
    dual,
    gorenstein_by_lengths,
    jet_rank_mod_q,
    lengths_report,
    max_ideal,
    order_counts_mod_q,
    self_dual_direct,
    value_set,
    verify_canonical,
)
from .curve import FracIdeal, ring_ideal
from .errors import BoundSearchExceeded, EnumerationTooLarge, SchemaError, SingvalError
from .lattice import Window, ones, ws_to_json
from .lefschetz import gc_eval_rational, gc_mul, gc_to_text
from .poincare import (
    GC_L_MINUS_1,
    default_window,
    series_cells,
    series_degrees,
    series_poincare,
    series_proj_cells,
    series_proj_poincare,
    specialize,
    verify_cell_functional_equation,
    verify_cell_poincare_bridge,
    verify_degree_duality,
    verify_gorenstein_tail_identity,
    verify_jump_duality,
    verify_poincare_functional_equation,
    verify_proj_affine_bridge,
    verify_proj_bridge_display,
    verify_proj_functional_equation,
    verify_proj_support,
)
from .schemas import CurveInput, InputBundle, load_input
from .valuemodule import ValueModule, Verdict, ring_like

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

SERIES_BUILDERS: dict[str, Callable[[ValueModule, Window], object]] = {
    "a": series_degrees,
    "lg": series_cells,
    "pg": series_poincare,
    "lhat": series_proj_cells,
    "phat": series_proj_poincare,
}


def _fmt_vec(v: Sequence[int]) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _emit(out: TextIO, fmt: str, lines: list[str], obj: dict) -> None:
    if fmt == "json":
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(lines) + "\n")


def _concrete(bundle: InputBundle) -> CurveInput:
    if bundle.curve_input is None:
        raise SchemaError("this command needs a concrete curve file, "
                          "got an abstract value-module file")
    return bundle.curve_input


def _resolve_ideal(ci: CurveInput, name: str) -> FracIdeal:
    if name in ci.ideals:
        return ci.ideals[name]
    if name == "ring":
        return ring_ideal(ci.curve)
    known = ", ".join(sorted(ci.ideals) + ["ring"])
    raise SchemaError(f"unknown ideal {name!r}; available: {known}")


def _resolve_canonical(
    ci: CurveInput, override: str | None
) -> tuple[FracIdeal | None, str | None]:
    """The canonical ideal named by the file or the override, if any.

    A "ring" reference asserts the ring is Gorenstein; the length test
    gates that assertion before the ideal is used anywhere.
    """
    name = override if override is not None else ci.canonical
    if name is None:
        return None, None
    if name not in ci.ideals:
        if name != "ring":
            raise SchemaError(f"canonical ideal {name!r} not present in the file")
        if not gorenstein_by_lengths(ci.curve):
            raise SchemaError('canonical reference "ring" rejected: '
                              "the ring fails the Gorenstein length test")
        return ring_ideal(ci.curve), "ring"
    return ci.ideals[name], name


def _self_dual_routes(
    vm: ValueModule,
    b: FracIdeal | None = None,
    canonical: FracIdeal | None = None,
    seed: int = 0,
) -> tuple[list[tuple[str, bool]], tuple[str, str], bool]:
    """All self-duality verdicts plus their agreement.

    The direct route participates in the agreement only when it reaches a
    definite yes/no; "undetermined" and "skipped" are excluded.
    """
    routes = [
        ("counts", bool(vm.self_dual_by_counts())),
        ("per-coordinate", bool(vm.self_dual_by_counts_percoord())),
        ("lengths", bool(vm.self_dual_by_lengths())),
        ("chain", bool(vm.self_dual_by_chain())),
        ("symmetry", bool(vm.is_symmetric())),
    ]
    if b is not None and canonical is not None:
        direct = self_dual_direct(b, canonical, seed=seed)
    else:
        direct = ("skipped", "no canonical ideal available")
    verdicts = [v for _, v in routes]
    if direct[0] in ("yes", "no"):
        verdicts.append(direct[0] == "yes")
    return routes, direct, len(set(verdicts)) == 1


def _routes_check(
    vm: ValueModule,
    b: FracIdeal | None = None,
    canonical: FracIdeal | None = None,
    seed: int = 0,
) -> Verdict:
    routes, direct, agree = _self_dual_routes(vm, b, canonical, seed=seed)
    detail = " ".join(f"{n}={_yesno(v)}" for n, v in routes)
    return Verdict(agree, detail + f" direct={direct[0]}")


# -- info ---------------------------------------------------------------------------


def cmd_info(args: argparse.Namespace, out: TextIO) -> int:
    ci = _concrete(load_input(args.file))
    curve = ci.curve
    ring = ring_ideal(curve)
    vm = value_set(ring, margin=args.margin)
    rep = lengths_report(ring)
    delta = rep.outside  # the length of ring * normalization over the ring
    rho = dim_quotient(colon(ring, max_ideal(curve)), ring)
    by_lengths = rep.doubled_equals_total
    by_symmetry = bool(vm.is_symmetric())
    members = vm.members_sorted()
    obj = {
        "file": args.file,
        "branches": curve.r,
        "branch_degrees": [1] * curve.r,
        "delta": delta,
        "conductor": list(vm.gamma),
        "type": rho,
        "members": [list(v) for v in members],
        "gorenstein_by_lengths": by_lengths,
        "gorenstein_by_symmetry": by_symmetry,
        "agreement": by_lengths == by_symmetry,
    }
    lines = [
        f"file: {args.file}",
        f"branches: {curve.r}",
        f"branch degrees: {_fmt_vec([1] * curve.r)}",
        f"delta: {delta}",
        f"conductor: {_fmt_vec(vm.gamma)}",
        f"type: {rho}",
        "value set (to conductor): " + ", ".join(_fmt_vec(v) for v in members),
        f"gorenstein by lengths: {_yesno(by_lengths)}",
        f"gorenstein by symmetry: {_yesno(by_symmetry)}",
        f"verdicts agree: {_yesno(by_lengths == by_symmetry)}",
    ]
    _emit(out, args.format, lines, obj)
    return EXIT_OK


# -- ideal-info ---------------------------------------------------------------------


def cmd_ideal_info(args: argparse.Namespace, out: TextIO) -> int:
    ci = _concrete(load_input(args.file))
    b = _resolve_ideal(ci, args.ideal)
    canonical, cname = _resolve_canonical(ci, args.canonical)
    vm = value_set(b, margin=args.margin)
    rep = lengths_report(b, canonical)
    routes, direct, agree = _self_dual_routes(vm, b, canonical, seed=args.seed)
    members = vm.members_sorted()
    obj = {
        "file": args.file,
        "ideal": args.ideal,
        "canonical": cname,
        "conductor": list(vm.gamma),
        "value_offset": list(b.values_offset()),
        "degree": vm.deg_offset,
        "members": [list(v) for v in members],
        "lengths": {"inside": rep.inside, "total": rep.total, "outside": rep.outside},
        "doubled_equals_total": rep.doubled_equals_total,
        "doubled_leq_total": rep.doubled_leq_total,
        "dual_length_match": rep.dual_match,
        "self_dual": {name: verdict for name, verdict in routes},
        "self_dual_direct": {"verdict": direct[0], "why": direct[1]},
        "routes_agree": agree,
    }
    lines = [
        f"file: {args.file}",
        f"ideal: {args.ideal}",
        f"canonical: {cname if cname is not None else 'none'}",
        f"conductor: {_fmt_vec(vm.gamma)}",
        f"value offset: {_fmt_vec(b.values_offset())}",
        f"degree: {vm.deg_offset}",
        "members: " + ", ".join(_fmt_vec(v) for v in members),
        f"lengths: inside={rep.inside} total={rep.total} outside={rep.outside}",
        f"doubled inside == total: {_yesno(rep.doubled_equals_total)}",
        f"doubled inside <= total: {_yesno(rep.doubled_leq_total)}",
        "dual length match: "
        + ("skipped" if rep.dual_match is None else _yesno(rep.dual_match)),
    ]
    for name, verdict in routes:
        lines.append(f"self-dual by {name}: {_yesno(verdict)}")
    lines.append(f"self-dual direct: {direct[0]} ({direct[1]})")
    lines.append(f"routes agree: {_yesno(agree)}")
    _emit(out, args.format, lines, obj)
    return EXIT_OK


# -- series -------------------------------------------------------------------------


def cmd_series(args: argparse.Namespace, out: TextIO) -> int:
    bundle = load_input(args.file)
    if bundle.curve_input is not None:
        ideal_name = args.ideal if args.ideal is not None else "ring"
        b = _resolve_ideal(bundle.curve_input, ideal_name)
        vm = value_set(b, margin=args.margin)
    else:
        if args.ideal is not None:
            raise SchemaError("abstract value-module files carry no ideals; "
                              "drop --ideal")
        ideal_name = None
        vm = bundle.value_module
    which: list[str] = []
    for key in args.which.split(","):
        key = key.strip()
        if not key:
            continue
        if key not in SERIES_BUILDERS:
            known = ", ".join(sorted(SERIES_BUILDERS))
            raise SchemaError(f"unknown series {key!r}; available: {known}")
        if key not in which:
            which.append(key)
    if not which:
        raise SchemaError("no series requested")

    w = default_window(vm, args.margin)
    built = {key: SERIES_BUILDERS[key](vm, w) for key in which}
    obj: dict = {
        "file": args.file,
        "ideal": ideal_name,
        "window": {"lo": list(w.lo), "hi": list(w.hi)},
        "series": {key: ws_to_json(s) for key, s in built.items()},
    }
    lines = [
        f"file: {args.file}",
        f"ideal: {ideal_name if ideal_name is not None else 'none (abstract input)'}",
        f"window: {_fmt_vec(w.lo)} .. {_fmt_vec(w.hi)}",
    ]
    if args.q is not None:
        obj["q"] = args.q
        obj["specialized"] = {
            key: [[list(v), str(val)] for v, val in sorted(specialize(s, args.q).items())]
            for key, s in built.items()
        }
    for key in which:
        s = built[key]
        lines.append(f"series {key}:")
        values = specialize(s, args.q) if args.q is not None else None
        for v in w.points():
            row = f"  {_fmt_vec(v)}  {gc_to_text(s.coeff(v))}"
            if values is not None:
                row += f"  (at q={args.q}: {values[v]})"
            lines.append(row)
    _emit(out, args.format, lines, obj)
    return EXIT_OK


# -- verify -------------------------------------------------------------------------


Row = tuple[str, str, str]


def _row(rows: list[Row], name: str, fn: Callable[[], object],
         defect_when_false: bool = False, on_error: str = "FAIL") -> None:
    """Run one check and append its table row.

    A false verdict normally fails the table; display-shaped identities
    known to be false are recorded as DEFECT instead so they stay visible
    without gating the exit code.
    """
    try:
        verdict = fn()
    except SingvalError as exc:
        rows.append((name, on_error, str(exc)))
        return
    ok = bool(verdict)
    detail = getattr(verdict, "detail", "")
    if ok:
        rows.append((name, "PASS", detail))
    elif defect_when_false:
        rows.append((name, "DEFECT", detail))
    else:
        rows.append((name, "FAIL", detail))


def _verify_module_rows(
    rows: list[Row], label: str, vm: ValueModule, on_error: str
) -> None:
    """The checks that need nothing beyond the value module itself."""
    _row(rows, f"{label}: cell/poincare bridge",
         lambda: verify_cell_poincare_bridge(vm), on_error=on_error)
    _row(rows, f"{label}: projective affine bridge",
         lambda: verify_proj_affine_bridge(vm), on_error=on_error)
    _row(rows, f"{label}: projective support",
         lambda: verify_proj_support(vm), on_error=on_error)
    _row(rows, f"{label}: display bridge (projective)",
         lambda: verify_proj_bridge_display(vm),
         defect_when_false=vm.r >= 2, on_error=on_error)
    try:
        applicable = (ring_like(vm) and bool(vm.self_dual_by_lengths())
                      and all(g >= 1 for g in vm.gamma))
    except SingvalError as exc:
        rows.append((f"{label}: tail identity", "SKIP", str(exc)))
    else:
        if applicable:
            _row(rows, f"{label}: tail identity",
                 lambda: verify_gorenstein_tail_identity(vm), on_error=on_error)
        else:
            rows.append((f"{label}: tail identity", "SKIP",
                         "needs a ring-like, length-wise self-dual module "
                         "with conductor at least 1 per axis"))


def _verify_pair_rows(
    rows: list[Row], label: str, vm: ValueModule, vm_star: ValueModule,
    dual_label: str, on_error: str,
) -> None:
    """The checks that pair a module with its dual."""
    _row(rows, f"{label}: degree duality ({dual_label})",
         lambda: verify_degree_duality(vm, vm_star), on_error=on_error)
    _row(rows, f"{label}: degree duality, reversed ({dual_label})",
         lambda: verify_degree_duality(vm_star, vm), on_error=on_error)
    _row(rows, f"{label}: cell functional equation ({dual_label})",
         lambda: verify_cell_functional_equation(vm, vm_star), on_error=on_error)
    _row(rows, f"{label}: poincare functional equation ({dual_label})",
         lambda: verify_poincare_functional_equation(vm, vm_star), on_error=on_error)
    _row(rows, f"{label}: jump duality ({dual_label})",
         lambda: verify_jump_duality(vm, vm_star), on_error=on_error)
    _row(rows, f"{label}: projective functional equation, cells ({dual_label})",
         lambda: verify_proj_functional_equation(vm, vm_star, part="cells"),
         on_error=on_error)
    _row(rows, f"{label}: projective functional equation, poincare ({dual_label})",
         lambda: verify_proj_functional_equation(vm, vm_star, part="poincare"),
         defect_when_false=vm.r >= 2, on_error=on_error)


def _verify_ideal(
    rows: list[Row], ci: CurveInput, name: str,
    canonical: FracIdeal | None, margin: int, seed: int,
) -> None:
    b = _resolve_ideal(ci, name)
    try:
        vm = value_set(b, margin=margin)
    except SingvalError as exc:
        rows.append((f"{name}: value table extraction", "FAIL", str(exc)))
        return
    rows.append((f"{name}: value table extraction", "PASS",
                 f"conductor {_fmt_vec(vm.gamma)}, {len(vm.members)} members"))
    _verify_module_rows(rows, name, vm, on_error="FAIL")
    _row(rows, f"{name}: self-duality routes agree",
         lambda: _routes_check(vm, b, canonical, seed))

    if canonical is None:
        rows.append((f"{name}: duality checks", "SKIP", "no canonical ideal"))
        return
    try:
        rep = lengths_report(b, canonical)
        vm_star = value_set(dual(b, canonical), margin=margin)
    except SingvalError as exc:
        rows.append((f"{name}: dual construction", "FAIL", str(exc)))
        return
    rows.append((f"{name}: dual construction", "PASS",
                 f"dual conductor {_fmt_vec(vm_star.gamma)}"))
    if rep.dual_match is None:
        rows.append((f"{name}: dual length match", "SKIP", "no canonical ideal"))
    else:
        rows.append((f"{name}: dual length match",
                     "PASS" if rep.dual_match else "FAIL",
                     f"inside={rep.inside} total={rep.total} outside={rep.outside}"))
    _verify_pair_rows(rows, name, vm, vm_star, "computed dual", on_error="FAIL")


def _verify_abstract(rows: list[Row], vm: ValueModule) -> None:
    rows.append(("module: value module well-formed", "PASS",
                 f"conductor {_fmt_vec(vm.gamma)}, {len(vm.members)} members"))
    _verify_module_rows(rows, "module", vm, on_error="SKIP")
    _row(rows, "module: self-duality routes agree", lambda: _routes_check(vm),
         on_error="SKIP")
    try:
        vm_star = vm.dual_from_jump_profile()
    except SingvalError as exc:
        rows.append(("module: profile dual construction", "SKIP", str(exc)))
        rows.append(("module: duality checks", "SKIP",
                     "degree-level data needs a concrete curve"))
        return
    rows.append(("module: profile dual construction", "PASS",
                 f"{len(vm_star.members)} members"))
    _verify_pair_rows(rows, "module", vm, vm_star, "profile dual", on_error="SKIP")
    rows.append(("module: canonical ideal checks", "SKIP",
                 "degree-level data needs a concrete curve"))


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    bundle = load_input(args.file)
    rows: list[Row] = []
    if bundle.curve_input is None:
        _verify_abstract(rows, bundle.value_module)
    else:
        ci = bundle.curve_input
        canonical, cname = _resolve_canonical(ci, args.canonical)
        if canonical is not None:
            def canonical_check():
                ok, failures = verify_canonical(canonical)
                return Verdict(ok, "; ".join(failures) if failures else
                               "double-colon stability over the probe family")
            _row(rows, f"canonical ({cname}): stability", canonical_check)
        else:
            rows.append(("canonical: stability", "SKIP", "no canonical ideal"))
        targets = ["ring"]
        if args.all_ideals:
            targets += sorted(ci.ideals)
        for name in targets:
            _verify_ideal(rows, ci, name, canonical, args.margin, args.seed)

    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "DEFECT": 0}
    for _, status, _ in rows:
        counts[status] += 1
    result = "fail" if counts["FAIL"] else "pass"
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{width}}  {status:<6}  {detail}".rstrip()
             for name, status, detail in rows]
    lines.append(
        f"result: {result} ({counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped, {counts['DEFECT']} known-defect)")
    obj = {
        "file": args.file,
        "rows": [{"check": name, "status": status.lower(), "detail": detail}
                 for name, status, detail in rows],
        "counts": {k.lower(): v for k, v in counts.items()},
        "result": result,
    }
    _emit(out, args.format, lines, obj)
    return EXIT_OK if result == "pass" else EXIT_VERIFY


# -- count --------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace, out: TextIO) -> int:
    curve = _concrete(load_input(args.file)).curve
    vm = value_set(ring_ideal(curve), margin=args.margin)
    w = Window((0,) * curve.r, (args.level - 1,) * curve.r)
    pg = series_poincare(vm, w)
    rank = jet_rank_mod_q(curve, args.q, args.level)
    counts = order_counts_mod_q(curve, args.q, args.level, ceiling=args.ceiling)
    scale = Fraction(args.q) ** rank
    table = []
    all_ok = True
    for v in w.points():
        counted = counts.get(v, 0)
        predicted = gc_eval_rational(gc_mul(GC_L_MINUS_1, pg.coeff(v)), args.q) * scale
        ok = predicted.denominator == 1 and predicted == counted
        all_ok = all_ok and ok
        table.append((v, counted, predicted, ok))
    obj = {
        "file": args.file,
        "q": args.q,
        "level": args.level,
        "jet_rank": rank,
        "rows": [{"v": list(v), "counted": c, "predicted": str(p), "match": ok}
                 for v, c, p, ok in table],
        "agreement": all_ok,
    }
    lines = [f"file: {args.file}",
             f"q: {args.q}  level: {args.level}  jet rank: {rank}"]
    for v, c, p, ok in table:
        lines.append(f"v={_fmt_vec(v)}  counted={c}  predicted={p}  "
                     f"{'ok' if ok else 'MISMATCH'}")
    lines.append(f"agreement: {_yesno(all_ok)}")
    _emit(out, args.format, lines, obj)
    return EXIT_OK if all_ok else EXIT_VERIFY


# -- argument plumbing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="singval",
        description="Value semigroups, duality and motivic series of curve "
                    "singularities, over exact rational arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("file", help="input JSON file")
        sp.add_argument("--margin", type=int, default=2,
                        help="window margin around the conductor box (default 2)")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    sp = sub.add_parser("info", help="curve invariants and Gorenstein verdicts")
    common(sp)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("ideal-info",
                        help="value set, lengths and self-duality for one ideal")
    common(sp)
    sp.add_argument("--ideal", default="ring", help='ideal name (default "ring")')
    sp.add_argument("--canonical", default=None,
                    help="override the file's canonical ideal reference")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the direct self-duality probe (default 0)")
    sp.set_defaults(func=cmd_ideal_info)

    sp = sub.add_parser("series", help="emit motivic series coefficient tables")
    common(sp)
    sp.add_argument("--ideal", default=None,
                    help='ideal name (default "ring"; concrete files only)')
    sp.add_argument("--which", default="pg,lg,phat,lhat",
                    help="comma list from a,lg,pg,lhat,phat (default pg,lg,phat,lhat)")
    sp.add_argument("--q", type=int, default=None,
                    help="also evaluate every coefficient at L = q")
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("verify", help="run every applicable identity check")
    common(sp)
    sp.add_argument("--all-ideals", action="store_true",
                    help="check every ideal in the file, not just the ring")
    sp.add_argument("--canonical", default=None,
                    help="override the file's canonical ideal reference")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the direct self-duality probe (default 0)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("count",
                        help="finite-field cylinder counts vs the L = q prediction")
    common(sp)
    sp.add_argument("--q", type=int, required=True, help="prime field size")
    sp.add_argument("--level", type=int, required=True,
                    help="count order vectors v in [0, level - 1]^r")
    sp.add_argument("--ceiling", type=int, default=2 ** 24,
                    help="enumeration ceiling on field points (default 2^24)")
    sp.set_defaults(func=cmd_count)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.margin < 1:
            raise SchemaError(f"margin must be at least 1, got {args.margin}")
        if getattr(args, "q", None) is not None and args.q < 2:
            raise SchemaError(f"specialization needs q >= 2, got {args.q}")
        if args.command == "count":
            if args.level < 1:
                raise SchemaError(f"level must be at least 1, got {args.level}")
            if args.ceiling < 1:
                raise SchemaError(f"enumeration ceiling must be at least 1, got {args.ceiling}")
            if args.q > args.ceiling:
                # the ring's jets hold 1, so the span has at least q elements
                raise EnumerationTooLarge(
                    f"q = {args.q} exceeds the enumeration ceiling {args.ceiling}")
        return args.func(args, sys.stdout)
    except (EnumerationTooLarge, BoundSearchExceeded) as exc:
        print(f"error: resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SingvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
