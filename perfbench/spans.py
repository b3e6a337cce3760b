"""Traced run: spans and counters around the package's layer entry points.

The tracer wraps functions from outside, by replacing module and class
attributes at every place the package binds them (``point_leq``, for one,
is imported by name into ``weights`` and ``duality``).  A wrapped call
records a span: name, start, end, parent span and job.  Spans stay in
memory in flat arrays and are written once, at the end of the run.
Functions called millions of times only count their calls.

Self time is a span's duration minus the time its child spans cover.  A
generator's span covers only the time spent inside it, summed over its
resumptions, and its parent is the span that created it.

Print a written trace as a per-layer table with

    python3 perfbench/spans.py .perfbench_out/trace-<workload>-<seed>.bin
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "schubert_unions"
LAYERS = ("gf", "pluecker", "grassgrid", "optimizer", "duality", "twodim", "weights", "cli")

# (module, attribute path, kind): "span", "gen" (a generator function) or
# "count" (counter only).  Entries not named in LAYER_METRICS are wrapped so
# that their time is booked to their own layer rather than their caller's.
TARGETS = (
    ("gf", "Field.__init__", "span"),
    ("gf", "Field.add", "count"),
    ("gf", "Field.neg", "count"),
    ("gf", "Field.mul", "count"),
    ("gf", "Field.dot", "count"),
    ("gf", "det", "span"),
    ("gf", "row_reduce", "span"),
    ("pluecker", "pluecker_vector", "span"),
    ("pluecker", "enumerate_points", "gen"),
    ("pluecker", "generator_matrix", "span"),
    ("pluecker", "write_text", "span"),
    ("pluecker", "write_binary", "span"),
    ("grassgrid", "SchubertUnion.ideal", "span"),
    ("grassgrid", "SchubertUnion.point_count", "span"),
    ("grassgrid", "point_leq", "count"),
    ("grassgrid", "canonicalize", "span"),
    ("grassgrid", "enumerate_ideals", "gen"),
    ("optimizer", "best_union", "span"),
    ("optimizer", "bound_table", "span"),
    ("optimizer", "exhaustive_bound_table", "span"),
    ("optimizer", "krull_dK", "span"),
    ("duality", "dual_union", "span"),
    ("duality", "dual_union_explicit", "span"),
    ("twodim", "union_to_mset", "span"),
    ("twodim", "union_to_sigma", "span"),
    ("weights", "weight_table", "span"),
    ("weights", "union_code_params", "span"),
    ("weights", "relative_bound", "span"),
    ("weights", "enumerate_subideals", "gen"),
    ("weights", "oracle_dr", "span"),
    ("weights", "_MaskCache.mask", "count"),
    ("cli", "main", "span"),
    ("cli", "_emit_table", "span"),
    ("cli", "_max_annihilated_with_witness", "span"),
)

_GF_CODES = "codes: jobs_per_s, job_s_tail; oracle: q>2 share; grid: no change"
_PLUECKER = "codes: jobs_per_s; oracle: slight; grid: no change"
_GRASSGRID = "grid: job_s_tail, jobs_per_s"
_OPTIMIZER = "grid: job_s_tail"
_DUALITY = "grid: job_s_p50"
_WEIGHTS = "oracle: jobs_per_s, job_s_tail; grid, codes: no change"
_CLI = "grid: job_s_p50 (large tables); oracle: experiment Q4"

# (name, unit, better, which end-to-end metric it should move, where)
LAYER_METRICS = (
    ("gf.det.calls", "count", "lower", _GF_CODES),
    ("gf.det.self_s", "s", "lower", _GF_CODES),
    ("gf.Field.add.calls", "count", "lower", _GF_CODES),
    ("gf.Field.neg.calls", "count", "lower", _GF_CODES),
    ("gf.Field.mul.calls", "count", "lower", _GF_CODES),
    ("gf.Field.dot.calls", "count", "lower", _GF_CODES),
    ("gf.row_reduce.total_s", "s", "lower", _GF_CODES),
    ("gf.Field.__init__.total_s", "s", "lower", _GF_CODES),
    ("pluecker.pluecker_vector.calls", "count", "lower", _PLUECKER),
    ("pluecker.pluecker_vector.self_s", "s", "lower", _PLUECKER),
    ("pluecker.enumerate_points.yielded", "count", "lower", _PLUECKER),
    ("pluecker.generator_matrix.total_s", "s", "lower", _PLUECKER),
    ("pluecker.write_text.total_s", "s", "lower", _PLUECKER),
    ("pluecker.write_binary.total_s", "s", "lower", _PLUECKER),
    ("grassgrid.SchubertUnion.ideal.calls", "count", "lower", _GRASSGRID),
    ("grassgrid.SchubertUnion.ideal.total_s", "s", "lower", _GRASSGRID),
    ("grassgrid.SchubertUnion.ideal.cache_hit_ratio", "ratio", "higher", _GRASSGRID),
    ("grassgrid.point_leq.calls", "count", "lower", _GRASSGRID),
    ("grassgrid.SchubertUnion.point_count.total_s", "s", "lower", _GRASSGRID),
    ("grassgrid.canonicalize.calls", "count", "lower", _GRASSGRID),
    ("grassgrid.canonicalize.total_s", "s", "lower", _GRASSGRID),
    ("grassgrid.enumerate_ideals.total_s", "s", "lower", _GRASSGRID),
    ("grassgrid.enumerate_ideals.yielded", "count", "lower", _GRASSGRID),
    ("optimizer.best_union.calls", "count", "lower", _OPTIMIZER),
    ("optimizer.best_union.total_s", "s", "lower", _OPTIMIZER),
    ("optimizer.bound_table.total_s", "s", "lower", _OPTIMIZER),
    ("optimizer.exhaustive_bound_table.total_s", "s", "lower", _OPTIMIZER),
    ("duality.dual_union.calls", "count", "lower", _DUALITY),
    ("duality.dual_union.total_s", "s", "lower", _DUALITY),
    ("duality.dual_union_explicit.total_s", "s", "lower", _DUALITY),
    ("twodim.union_to_mset.total_s", "s", "lower", _DUALITY),
    ("weights.oracle_dr.calls", "count", "lower", _WEIGHTS),
    ("weights.oracle_dr.total_s", "s", "lower", _WEIGHTS),
    ("weights.oracle_dr.subspaces_budgeted", "count", "lower", _WEIGHTS),
    ("weights._MaskCache.mask.calls", "count", "lower", _WEIGHTS),
    ("weights._MaskCache.mask.hit_ratio", "ratio", "higher", _WEIGHTS),
    ("weights.relative_bound.total_s", "s", "lower", _WEIGHTS),
    ("weights.enumerate_subideals.yielded", "count", "lower", _WEIGHTS),
    ("cli.main.self_s", "s", "lower", _CLI),
    ("cli._emit_table.total_s", "s", "lower", _CLI),
    ("cli._max_annihilated_with_witness.total_s", "s", "lower", _CLI),
) + tuple(
    (f"layer.{layer}.self_share", "ratio", "lower",
     "share of traced job time spent in the layer's own code")
    for layer in LAYERS
) + (
    ("trace.overhead_ratio", "ratio", "lower", "traced over untraced wall time"),
)


# wrapped functions whose calls are tested for a cache hit, and the metric
HIT_RATIOS = {
    "grassgrid.SchubertUnion.ideal": "cache_hit_ratio",
    "weights._MaskCache.mask": "hit_ratio",
}


def gaussian_binomial(n, r, q):
    """Number of r-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _lookup(module, path):
    owner = module
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    return owner, attr, getattr(owner, attr, None) if owner is not None else None


class Tracer:
    """Wraps the TARGETS of an imported package and records spans and counts."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.active = {}       # generator span -> seconds spent inside it
        self.counts = {}       # counter name -> one-element list
        self.stack = [-1]
        self.job = -1
        self.wrapped = []      # wrapped target names, in TARGETS order
        self._undo = []

    def counter(self, name):
        return self.counts.setdefault(name, [0])

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self.stack
        clock, tracer = time.perf_counter, self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _gen(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self.stack
        active, yielded = self.active, self.counter(name + ".yielded")
        clock, tracer = time.perf_counter, self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            active[sid] = 0.0   # until the generator is first resumed
            starts.append(clock())
            return traced(sid, fn(*args, **kwargs))

        def traced(sid, gen):
            inside = 0.0
            try:
                while True:
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = t1 = clock()
                        inside += t1 - t0
                        stack.pop()
                    yielded[0] += 1
                    yield item
            finally:
                active[sid] = inside
                gen.close()

        return wrapper

    def _count(self, fn, calls, hit=None, hits=None):
        if hit is None:
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
        else:
            def wrapper(*args):
                calls[0] += 1
                if hit(args):
                    hits[0] += 1
                return fn(*args)
        return wrapper

    def _wrapper(self, name, kind, fn):
        if kind == "gen":
            return self._gen(name, fn)
        if kind == "count":
            calls = self.counter(name + ".calls")
            if name == "weights._MaskCache.mask":
                return self._count(fn, calls, lambda a: a[1] in a[0].cache,
                                   self.counter(name + ".hits"))
            return self._count(fn, calls)
        if name == "grassgrid.SchubertUnion.ideal":
            hits = self.counter(name + ".hits")

            def before(args, kwargs):
                if args[0]._ideal is not None:
                    hits[0] += 1
            return self._span(name, fn, before=before)
        if name == "weights.oracle_dr":
            budgeted = self.counter(name + ".subspaces_budgeted")

            def after(args, kwargs):
                field, genmat, r = args[:3]
                budgeted[0] += gaussian_binomial(genmat.k, r, field.q)
            return self._span(name, fn, after=after)
        return self._span(name, fn)

    def install(self):
        """Wrap every target of the imported package, at every binding site."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, path, kind in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr, original = _lookup(module, path) if module else (None, None, None)
            if original is None:
                continue  # gone from the package: its metrics are absent
            name = f"{module_name}.{path}"
            wrapper = self._wrapper(name, kind, original)
            self.wrapped.append(name)
            if owner is not module:  # a method: patch the class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def header(self, **meta):
        return {
            "names": self.names,
            "wrapped": self.wrapped,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "active": {str(k): v for k, v in self.active.items()},
            "spans": len(self.span_start),
            **meta,
        }

    def write(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.header(**meta)).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(fh)


def read(path):
    """Header and span arrays of a written trace."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "d", "d", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def layer_metrics(header, arrays):
    """name -> value for every LAYER_METRICS entry whose function exists."""
    names, counts, active = header["names"], header["counts"], header["active"]
    span_name, start, end, parent, _job = arrays
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    for sid, inside in active.items():
        dur[int(sid)] = inside
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    root = 0.0
    for i in range(n):
        nid = span_name[i]
        calls[nid] += 1
        self_s[nid] += dur[i] - child[i]
        p = parent[i]
        while p >= 0 and span_name[p] != nid:
            p = parent[p]
        if p < 0:             # not nested in a span of the same function
            total[nid] += dur[i]
        if parent[i] < 0:
            root += dur[i]
    stats = {}
    for nid, name in enumerate(names):
        stats[f"{name}.calls"] = calls[nid]
        stats[f"{name}.total_s"] = total[nid]
        stats[f"{name}.self_s"] = self_s[nid]
    wrapped = set(header["wrapped"])
    for name in wrapped:
        for key in ("calls", "yielded", "subspaces_budgeted"):
            stats.setdefault(f"{name}.{key}", counts.get(f"{name}.{key}", 0))
        if name in HIT_RATIOS:
            hits, n_calls = counts.get(f"{name}.hits", 0), stats[f"{name}.calls"]
            stats[f"{name}.{HIT_RATIOS[name]}"] = hits / n_calls if n_calls else 0.0
    for layer in LAYERS:
        own = sum(self_s[nid] for nid, name in enumerate(names)
                  if name.split(".")[0] == layer)
        stats[f"layer.{layer}.self_share"] = own / root if root else 0.0
    stats["trace.overhead_ratio"] = header["wall_traced"] / header["wall_plain"]
    out = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        func = name.rsplit(".", 1)[0]
        if name.startswith(("layer.", "trace.")) or func in wrapped:
            out[name] = stats[name]
    return out


def format_table(values):
    lines = [f"{'metric':<48} {'value':>14}  {'unit':<6} should move"]
    for name, unit, _better, moves in LAYER_METRICS:
        if name in values:
            v = values[name]
            shown = f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6f}"
            lines.append(f"{name:<48} {shown}  {unit:<6} {moves}")
        else:
            lines.append(f"{name:<48} {'absent':>14}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 1:
        print("usage: python3 perfbench/spans.py TRACE_FILE", file=sys.stderr)
        return 2
    header, arrays = read(Path(argv[0]))
    print(f"workload {header['workload']}, seed {header['seed']}: "
          f"{header['spans']} spans over {len(header['jobs'])} jobs")
    print(format_table(layer_metrics(header, arrays)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
