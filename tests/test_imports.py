"""No module of src/rvopt imports a name it never uses, and no public
function, class or method goes unused by the rest of the library.

A statement marked ``# noqa: F401`` is exempt: those imports stay for the
benchmark tracer's sites, which test_tracing_sites.py ties them to.  A name
counts as used when the module reads it, in code or in a string
annotation, or lists it in ``__all__``.

A public definition counts as used when code in src/rvopt outside
``__init__.py`` names it, as a variable or an attribute.  Import lines do
not count, so neither the package's re-exports nor the tracer's pins keep a
name alive; the few that stay unused are listed in ``UNUSED_BY_THE_LIBRARY``
with the reason each one stays.
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


# Public names that no src/rvopt code names, each with the reason it stays.
UNUSED_BY_THE_LIBRARY = {
    "estimate_order_lipschitz": "bench/tracing.py wraps it in rvopt.reporting",
    "linear_preimage": "bench/tracing.py wraps Cone.linear_preimage",
    "upper_subgradient_candidate": "bench/tracing.py wraps it in rvopt.reporting",
    "check_upper_subgradient": "bench/tracing.py wraps it in rvopt.reporting",
    "sampled_cone_directions": "bench/tracing.py wraps it in rvopt.certificates",
    "solve_lp": "bench/tracing.py wraps it in rvopt.certificates and rvopt.problem",
    "load_problem": "I/O API: reads and validates a problem file",
    "save_problem": "I/O API: bench/cases.py writes its problem files with it",
    "replay_certificate": "verification API: re-validates a stored certificate",
    "strictly_dominates": "verification API: checks a dominating witness",
}


def unused_definitions(paths) -> list:
    """Public top-level functions and classes, and public methods of public
    classes, that no module of ``paths`` other than ``__init__.py`` names."""
    defined, named = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined.append(node.name)
                if isinstance(node, ast.ClassDef):
                    defined += [item.name for item in node.body
                                if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return sorted(set(defined) - named)


def test_every_public_definition_is_used():
    assert unused_definitions(sorted(SRC.glob("*.py"))) == sorted(UNUSED_BY_THE_LIBRARY)


def test_the_scan_sees_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .module import Kept, dead\n")
    (tmp_path / "module.py").write_text("class Kept:\n"
                                        "    def used(self):\n"
                                        "        return self.used\n\n"
                                        "    def unused(self):\n"
                                        "        return dead\n\n"
                                        "def dead():\n"
                                        "    return Kept\n\n"
                                        "def _private():\n"
                                        "    pass\n")
    assert unused_definitions(sorted(tmp_path.glob("*.py"))) == ["unused"]
