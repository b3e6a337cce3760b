"""Benchmark of the schubert-unions CLI: seeded workloads, closed loop.

    python3 perfbench/run.py --workload {grid,codes,oracle,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One process, one client: each job is one call of
``schubert_unions.cli.main(argv)`` with stdout captured, and the next job
starts when the previous one returns.  The seeded batch (perfbench/jobs.py)
runs whole, pass after pass, while another pass still fits in ``--seconds``.

Times are scaled to a reference machine speed with the probe in
perfbench/probe.py, read between jobs; the raw wall times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the batch once
untraced and once traced, prints the per-layer metrics and writes the spans
to .perfbench_out/.  Either way every job's output goes through the
correctness gate (perfbench/check.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every job was correct, 1 when some job failed, 2 when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PACKAGE = "schubert_unions"
GUARD_ENV = "SCHUBERT_UNIONS_GUARD"   # read by the CLI; jobs rely on its default

SETUP_REPEATS = 3      # set-ups timed after every pass
TAIL_BEYOND = 10       # jobs the tail percentile must leave above it
PROBE_WINDOW = 1.0     # seconds of probe readings around a job that set its scale
FAST_PHASE = 1.15      # readings up to this over the run's 5th percentile are fast

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import jobs as joblib  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The package under test cannot be imported from the checkout."""


def import_package():
    """Import the package afresh from the checkout's src/; returns it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    try:
        package = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload, seed, tiny):
    """A fresh import of the package plus job generation, and its wall time."""
    joblib.all_ideals.cache_clear()
    t0 = time.perf_counter()
    package = import_package()
    batch = joblib.generate(workload, seed, tiny)
    return time.perf_counter() - t0, package, batch


def execute(main, argv, sampler=None):
    """Run one CLI call; returns (seconds, exit code, stdout bytes, error).

    With a sampler, its readings during the call are taken off the time.
    """
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    rc, error, stolen = None, None, 0.0
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    try:
        rc = main(list(argv))
    except SystemExit as exc:          # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:           # a traceback: the job failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        out.flush()
        if sampler is not None:
            stolen = sampler.stop()
        dt = time.perf_counter() - t0 - stolen
        sys.stdout, sys.stderr = saved
    return dt, rc, buf.getvalue(), error


class Results:
    """Every execution's time and outcome, keyed by position in the batch."""

    def __init__(self, batch):
        self.batch = batch
        self.samples = []        # (job index, wall s, reference s, probe reading)
        self.first = {}          # job index -> (rc, stdout, error) of its first run
        self.mismatch = set()    # jobs whose output differed between runs

    def record(self, i, dt, ref_dt, local, rc, out, error):
        self.samples.append((i, dt, ref_dt, local))
        if self.first.setdefault(i, (rc, out, error)) != (rc, out, error):
            self.mismatch.add(i)


def run_batch(package, results, tracer=None, sampler=None):
    """One pass over the batch.

    Every job starts on a freshly collected heap, so it is not billed for
    collecting the garbage of the jobs before it.  With a sampler, the probe
    is read between jobs and during them, and each job's time at reference
    speed uses the readings from PROBE_WINDOW seconds before it starts to
    PROBE_WINDOW seconds after it ends.
    """
    main = package.cli.main
    clock = time.perf_counter
    if sampler is not None:
        sampler.read()
    runs = []
    for i, job in enumerate(results.batch):
        if tracer is not None:
            tracer.job = i
        gc.collect()
        t_start = clock()
        runs.append((i, t_start, *execute(main, job.argv, sampler)))
        if sampler is not None:
            sampler.read()
    for i, t_start, dt, rc, out, error in runs:
        ref_dt = local = None
        if sampler is not None:
            local = sampler.local(t_start, t_start + dt, PROBE_WINDOW)
            ref_dt = dt * probe.REFERENCE_S / local
        results.record(i, dt, ref_dt, local, rc, out, error)


def judge(results, package):
    """Failed executions and a reason per bad job, after the timed runs."""
    refs = check.load_references()
    bad = {}
    for i, (rc, out, error) in sorted(results.first.items()):
        reason = check.verify(results.batch[i], rc, out, error, refs, package)
        if reason is None and i in results.mismatch:
            reason = "output changed between runs of the same job"
        if reason is not None:
            bad[i] = reason
    failed = sum(1 for sample in results.samples if sample[0] in bad)
    return failed, bad


def percentile(sorted_values, p):
    """Inclusive linear interpolation; a failed job (inf) misses any limit."""
    h = (len(sorted_values) - 1) * p / 100
    lo = int(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if b == float("inf"):
        return b if h > lo or a == b else a
    return a + (b - a) * (h - lo)


def tail_percentile(batch_size):
    """Highest whole percentile that leaves TAIL_BEYOND jobs above it."""
    return max(50, int(100 * (1 - TAIL_BEYOND / batch_size)))


def job_times(results, bad, column):
    """Per job, the median of the chosen time over its fast-phase runs.

    A run is in the fast phase when its probe reading is within FAST_PHASE of
    the run's fastest readings; the scaling to reference speed is then close
    to one, whatever the job's own sensitivity to the machine's phases.  A
    job that never ran in the fast phase uses all its runs; a failed job
    scores infinity.
    """
    readings = sorted(sample[3] for sample in results.samples)
    limit = FAST_PHASE * readings[len(readings) // 20]
    per_job = [([], []) for _ in results.batch]
    for sample in results.samples:
        fast, every = per_job[sample[0]]
        every.append(sample[column])
        if sample[3] <= limit:
            fast.append(sample[column])
    return [float("inf") if i in bad else statistics.median(fast or every)
            for i, (fast, every) in enumerate(per_job)]


def summarize(times):
    """jobs_per_s, job_s_p50 and job_s_tail over per-job times."""
    ok = [t for t in times if t != float("inf")]
    ordered = sorted(times)
    return (len(ok) / sum(ok) if ok else 0.0,
            percentile(ordered, 50),
            percentile(ordered, tail_percentile(len(times))))


def family_shares(results):
    """Each job family's share of the raw job time, as printable text."""
    totals = {}
    for sample in results.samples:
        family = results.batch[sample[0]].family
        totals[family] = totals.get(family, 0.0) + sample[1]
    whole = sum(totals.values())
    return ", ".join(f"{family} {t / whole:.0%}" for family, t in sorted(totals.items()))


def measure(workload, seed, seconds, tiny):
    """End-to-end metrics over repeated passes of the batch.

    A job's time is the median of its wall time at reference speed over its
    fast-phase passes (see job_times); jobs_per_s is the batch size over
    the sum of those times.  The set-up is timed again after every pass,
    bracketed by probe readings, and setup_s is the median at reference
    speed.
    """
    _t_setup, package, batch = set_up(workload, seed, tiny)
    results = Results(batch)
    setups = []
    passes = []
    sampler = probe.Sampler()
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            run_batch(package, results, sampler=sampler)
            passes.append(time.perf_counter() - t0)
            for _ in range(SETUP_REPEATS):
                sampler.read()
                t0 = time.perf_counter()
                t_setup = set_up(workload, seed, tiny)[0]
                sampler.read()
                setups.append(t_setup * probe.REFERENCE_S
                              / sampler.local(t0, t0 + t_setup, 0))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(passes) > seconds:
                break
    finally:
        sampler.close()
    failed, bad = judge(results, package)
    jobs_per_s, p50, tail = summarize(job_times(results, bad, 2))
    raw = summarize(job_times(results, bad, 1))
    p = tail_percentile(len(batch))
    attempted = len(results.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s,
        "job_s_p50": p50,
        "job_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        f"workload {workload}, seed {seed}: {len(passes)} passes of {len(batch)} jobs"
        f" in {sum(passes):.2f} s; times at reference speed (raw wall times of the same"
        f" runs in brackets)",
        f"  setup_s      {metrics['setup_s']:.6f} s    median of {len(setups)} set-ups",
        f"  jobs_per_s   {jobs_per_s:.4f} 1/s  [{raw[0]:.4f}]",
        f"  job_s_p50    {p50:.6f} s    [{raw[1]:.6f}]",
        f"  job_s_tail   {tail:.6f} s    [{raw[2]:.6f}]  p{p} of {len(batch)} job times",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB",
        f"  fail_ratio   {failed / attempted:.4f}    {failed} of {attempted} runs failed",
        "  family shares of raw job time: " + family_shares(results),
    ]
    return metrics, attempted, failed, bad, lines


def measure_traced(workload, seed, tiny):
    """Per-layer metrics: one untraced pass, then one traced pass."""
    _t_setup, package, batch = set_up(workload, seed, tiny)
    plain, traced = Results(batch), Results(batch)
    t0 = time.perf_counter()
    run_batch(package, plain)
    wall_plain = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    run_batch(package, traced, tracer)
    wall_traced = time.perf_counter() - t0
    tracer.uninstall()
    failed_plain, bad = judge(plain, package)
    failed_traced, bad_traced = judge(traced, package)
    bad.update(bad_traced)
    meta = {"workload": workload, "seed": seed, "wall_plain": wall_plain,
            "wall_traced": wall_traced, "jobs": [job.key for job in batch]}
    path = OUT_DIR / f"trace-{workload}-{seed}.bin"
    tracer.write(path, **meta)
    arrays = (tracer.span_name, tracer.span_start, tracer.span_end,
              tracer.span_parent, tracer.span_job)
    metrics = spans.layer_metrics(tracer.header(**meta), arrays)
    lines = [
        f"workload {workload}, seed {seed}: {len(batch)} jobs untraced in {wall_plain:.2f} s,"
        f" traced in {wall_traced:.2f} s; {len(tracer.span_start)} spans written to"
        f" {path.relative_to(ROOT)}",
        spans.format_table(metrics),
    ]
    attempted = len(plain.samples) + len(traced.samples)
    return metrics, attempted, failed_plain + failed_traced, bad, lines


def run_workload(workload, seed, seconds, traced, tiny):
    if traced:
        metrics, attempted, failed, bad, lines = measure_traced(workload, seed, tiny)
        units = {name: unit for name, unit, _b, _m in spans.LAYER_METRICS}
    else:
        metrics, attempted, failed, bad, lines = measure(workload, seed, seconds, tiny)
        units = UNITS
    batch = joblib.generate(workload, seed, tiny)
    for i, reason in sorted(bad.items()):
        lines.append(f"  FAILED {batch[i].key}: {reason}")
    return {name: (value, units[name]) for name, value in metrics.items()}, \
        attempted, failed, lines


def result_line(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="light jobs only; for the smoke test")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(GUARD_ENV, None)
    workloads = joblib.WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            metrics, a, f, lines = run_workload(workload, args.seed, args.seconds,
                                                args.trace == 1, args.tiny)
            print("\n".join(lines), flush=True)
            prefix = f"{workload}." if args.workload == "all" else ""
            merged.update({prefix + name: v for name, v in metrics.items()})
            attempted += a
            failed += f
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(merged, attempted, failed), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
