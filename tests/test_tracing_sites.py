"""The benchmark's tracer wraps names that must exist in the library.

``bench/tracing.py`` looks every site up by attribute name, so renaming or
deleting a traced function breaks ``bench/run.py --trace 1``.  Installing
and uninstalling the tracer here makes that a test failure.  Names a module
imports only for the tracer carry ``# noqa: F401``; each must be a site on
that module, so the tracer-only imports form one checked list.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _layer, _count in tracing.SITES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def tracer_only_imports():
    """(module, name) for every name imported under ``# noqa: F401`` in
    src/rvopt."""
    found = []
    for path in sorted((ROOT / "src" / "rvopt").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                found += [(f"rvopt.{path.stem}", alias.name) for alias in node.names]
    return found


def test_tracer_only_imports_are_sites():
    tracing = load_tracing()
    sites = {(owner.__name__, attr) for owner, attr, _layer, _count in tracing.SITES}
    for module, name in tracer_only_imports():
        assert (module, name) in sites, (module, name)
