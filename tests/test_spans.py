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


def test_tracer_hooks_run(capsys):
    # the hooks read package attributes (_MaskCache.cache, genmat.k,
    # SchubertUnion._ideal) that a rename would break only at trace time
    from schubert_unions import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["weights", "--l", "2", "--m", "4", "--q", "2",
                         "--oracle", "--r-range", "1:2"]) == 0
        assert cli.main(["experiment", "Q4", "--l", "2", "--m", "4", "--q", "2"]) == 0
        assert cli.main(["genmatrix", "--l", "2", "--m", "5", "--q", "2",
                         "--union", "[[2,5]]"]) == 0
        assert cli.main(["weights", "--l", "2", "--m", "5", "--q", "2",
                         "--union", "[[1,5],[2,3]]"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.header()["counts"]
    assert counts["weights.oracle_dr.subspaces_budgeted"] == 63 + 651
    assert counts["weights._MaskCache.mask.calls"] > 0
    assert counts["weights._MaskCache.mask.hits"] > 0
    arrays = (tracer.span_name, tracer.span_start, tracer.span_end,
              tracer.span_parent, tracer.span_job)
    metrics = spans.layer_metrics(tracer.header(wall_traced=1.0, wall_plain=1.0), arrays)
    assert metrics["weights.oracle_dr.calls"] == 2
    # Q4 reads each r = 1..5 of C(2,4) through the traced adapter, whose
    # total_s the benchmark reports
    adapter = tracer.names.index("cli._max_annihilated_with_witness")
    assert tracer.span_name.count(adapter) == 5
    assert 0 < metrics["weights._MaskCache.mask.hit_ratio"] < 1
    assert metrics["grassgrid.SchubertUnion.ideal.calls"] > 0
    # the --union job bounds its sub-unions in one traced call
    bound = tracer.names.index("weights.relative_bound")
    assert tracer.span_name.count(bound) == 1
