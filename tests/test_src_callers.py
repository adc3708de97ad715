"""Every function and class in src/ has a caller in src/.

Code that only its own unit test reaches is dead weight: the test pins it,
so it never gets deleted.  This scans the source with ast and counts a
definition as called when its name occurs (as a name or an attribute)
anywhere in src/ outside its own body.  Dunder methods are called by the
language and are skipped.
"""

import ast

from conftest import ROOT

SRC = ROOT / "src" / "singval"

# Reached from outside src/ on purpose; each entry says from where.
EXCEPTIONS = {
    "algebra.count_points_mod_q": "perfbench/layers.py binds it (algebra.oracle span)",
    "algebra.JetSpace.dim_at_least": "perfbench/layers.py binds it (algebra.dim_at_least span)",
    "curve.el_trunc": "perfbench/layers.py binds it (curve.el_trunc_calls)",
}


def definitions_and_names():
    defs, names = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, path.stem)]
        while scopes:
            scope, qual = scopes.pop()
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((path.stem, f"{qual}.{node.name}", node))
                    if isinstance(node, ast.ClassDef):
                        scopes.append((node, f"{qual}.{node.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((path.stem, node.attr, node.lineno))
    return defs, names


def test_every_src_definition_has_a_caller_in_src():
    defs, names = definitions_and_names()
    uncalled = set()
    for module, qual, node in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if not any(name == node.name
                   and (where != module or not node.lineno <= line <= node.end_lineno)
                   for where, name, line in names):
            uncalled.add(qual)
    assert uncalled == set(EXCEPTIONS)


# Names defined more than once in src/.  The check above counts a definition
# as called when any equal name is used, so one definition can hide behind
# another; the callers of each were found by reading the code.
SHARED_NAMES = {
    "_reduce": {
        "algebra._reduce": "JetLayout.element_row and JetSpace.__init__: _reduce(c, p)",
        "algebra.RowSpaceQ._reduce": "RowSpaceQ.residual, contains and add: self._reduce(row)",
    },
    "copy": {
        "algebra.JetSpace.copy": "algebra._colon: _jets(...).copy()",
        "algebra.RowSpaceQ.copy": "JetSpace.copy: self.space.copy()",
    },
    "r": {
        "algebra.JetLayout.r": "algebra._cut_dims: layout.r",
        "curve.FracIdeal.r": "algebra.value_set: bn.r, and most ideal code",
    },
    "rank": {
        "algebra.JetSpace.rank": "algebra._trace_lengths and jet_rank_mod_q: jet_span(...).rank",
        "algebra.RowSpaceQ.rank": "JetSpace.rank and algebra._cut_dims: sp.rank",
    },
}


def test_every_shared_name_is_pinned_with_its_callers():
    defs, _ = definitions_and_names()
    by_name = {}
    for _, qual, node in defs:
        if not (node.name.startswith("__") and node.name.endswith("__")):
            by_name.setdefault(node.name, set()).add(qual)
    shared = {name: quals for name, quals in by_name.items() if len(quals) > 1}
    assert shared == {name: set(callers) for name, callers in SHARED_NAMES.items()}


# Parameters with a default that no call in src/ passes; each entry says who does.
UNPASSED = {
    "cli.main(argv)": "the tests and perfbench/opchild.py pass an argument list",
    "algebra.count_points_mod_q(ceiling)": "perfbench/layers.py binds it (algebra.oracle span)",
}


def defaulted_parameters():
    """(label, callable name, positional index or None, parameter name) for
    every parameter with a default.  The positional index counts the
    arguments a call site writes, so a method's self is not one of them;
    __init__ is called by its class name."""
    defs, _ = definitions_and_names()
    classes = {qual: node.name for _, qual, node in defs if isinstance(node, ast.ClassDef)}
    out = []
    for _, qual, node in defs:
        if isinstance(node, ast.ClassDef):
            continue
        owner = qual.rsplit(".", 1)[0]
        method = owner in classes and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        name = classes[owner] if method and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for k, arg in enumerate(positional[first:], start=first):
            out.append((f"{qual}({arg.arg})", name, k - (1 if method else 0), arg.arg))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                out.append((f"{qual}({arg.arg})", name, None, arg.arg))
    return out


def passes(call, index, param):
    """Does this call site pass the parameter, by keyword or by position?"""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index


def test_every_defaulted_parameter_is_passed_in_src():
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {label for label, name, index, param in defaulted_parameters()
                if not any(passes(c, index, param) for c in calls.get(name, []))}
    assert unpassed == set(UNPASSED)
