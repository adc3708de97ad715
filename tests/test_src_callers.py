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
