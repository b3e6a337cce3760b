"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/smoke.py

Runs each workload's light jobs untraced and traced, in a child process as
the benchmark is meant to run, and checks that every metric named in
BENCHMARK.json is reported and that no job failed.  It also checks that the
correctness gate rejects wrong output and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
from run import UNITS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _moves in spans.LAYER_METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_workload(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_gate_rejects_wrong_output():
    refs = check.load_references()
    job = next(j for j in jobs.generate("grid", 0) if j.key in refs)
    assert check.verify(job, 0, b"wrong\n", None, refs, None) is not None
    dual = jobs.Job("l2", ("dual", "--l", "2", "--m", "7", "--union", "[[3,5]]",
                           "--format", "json"))
    right = (b'{"l": 2, "m": 7, "maxima": [[3, 5]], "dual_maxima": [[2, 7], [3, 4]],'
             b' "span_primal": 9, "span_dual": 12}\n')
    assert check.verify(dual, 0, right, None, {}, None) is None
    wrong = right.replace(b"[3, 4]", b"[4, 5]")
    assert check.verify(dual, 0, wrong, None, {}, None) is not None
    assert check.verify(dual, 3, b"", None, {}, None) is not None


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
