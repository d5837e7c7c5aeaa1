"""The benchmark's tracer wraps names that must exist in the library.

``bench/tracing.py`` looks every site up by attribute name, so renaming or
deleting a traced function breaks ``bench/run.py --trace 1``.  Installing
and uninstalling the tracer here makes that a test failure.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
