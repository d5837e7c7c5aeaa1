"""No module of src/rvopt imports a name it never uses.

A statement marked ``# noqa: F401`` is exempt: those imports stay for the
benchmark tracer's sites, which test_tracing_sites.py ties them to.  A name
counts as used when the module reads it, in code or in a string
annotation, or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rvopt"


def read_names(tree) -> set:
    """Names the module reads: every Name node, the names inside string
    annotations, and the entries of a literal ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
            notes += [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [((alias.asname or alias.name).split(".")[0], node.lineno)
                     for alias in node.names]
    used = read_names(tree)
    return [f"{path.name}:{line} {name}" for name, line in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from dataclasses import dataclass, field\n"
                      "import numpy as np\n"
                      "from .simplex import solve_lp  # noqa: F401\n\n"
                      "def f(x) -> \"np.ndarray\":\n"
                      "    return dataclass\n")
    assert unused_imports(module) == ["module.py:1 field"]
