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
    "valuemodule.ValueModule.pairing_report": "a library call the README documents",
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
