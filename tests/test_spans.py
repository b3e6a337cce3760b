"""The benchmark's tracer finds what it wraps by name.

A traced name that leaves the package drops its metrics without an error,
so every entry of ``perfbench/spans.py``'s TARGETS must still resolve.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# leading parameters the tracer's hooks or the benchmark's metrics rely on
SIGNATURES = {
    "cli.main": ["argv"],
    "cli._emit_table": ["headers", "rows", "fmt", "stream"],
    "cli._max_annihilated_with_witness": ["field", "genmat", "r"],
    "weights.oracle_dr": ["field", "genmat", "r"],
    "optimizer.best_union": ["params", "K"],
}


def _resolve(module, path):
    package = importlib.import_module(f"{spans.PACKAGE}.{module}")
    _owner, _attr, original = spans._lookup(package, path)
    return original


@pytest.mark.parametrize("module,path,kind", spans.TARGETS,
                         ids=[f"{m}.{p}" for m, p, _k in spans.TARGETS])
def test_trace_target_resolves(module, path, kind):
    target = _resolve(module, path)
    assert callable(target)
    if kind == "gen":
        assert inspect.isgeneratorfunction(target)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_trace_target_signature(name):
    module, path = name.split(".", 1)
    params = list(inspect.signature(_resolve(module, path)).parameters)
    assert params[:len(SIGNATURES[name])] == SIGNATURES[name]
