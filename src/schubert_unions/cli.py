"""Command-line surface: tables, duals, encodings, bounds, codes, experiments.

Exit codes: 0 success, 2 invalid arguments, 3 resource guard exceeded, 1 when
the output cannot be written (one error line) or the reader closes stdout
before the output ends (no message).
Every command is deterministic: identical flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import stat
import sys

from . import duality, gf, optimizer, pluecker, twodim, weights
from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    Poly,
    SchubertUnion,
    TooLarge,
)
from .weights import BudgetExceeded

GUARD_ENV = "SCHUBERT_UNIONS_GUARD"
FORMATS = ("markdown", "csv", "json")


def _emit_table(headers, rows, fmt, stream):
    """Rows as a table; JSON carries a polynomial as its coefficient list."""
    if fmt == "json":
        stream.write(json.dumps([dict(zip(headers, r)) for r in rows], default=Poly.to_list))
        stream.write("\n")
    elif fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)
    else:
        # every cell stringified once, for the widths and the lines alike
        cells = [list(map(str, r)) for r in (headers, *rows)]
        widths = [max(map(len, col)) for col in zip(*cells)]
        def line(texts):
            return "| " + " | ".join(t.ljust(w) for t, w in zip(texts, widths)) + " |\n"
        stream.write(line(cells[0]))
        stream.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
        stream.writelines(map(line, cells[1:]))


def _parse_union(params, text) -> SchubertUnion:
    try:
        maxima = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"--union {text} is not valid JSON: {exc}") from None
    if not isinstance(maxima, list) or not all(isinstance(a, list) for a in maxima):
        raise ValueError(f"--union must be a JSON list of points such as [[3,5]],"
                         f" got {text}")
    return SchubertUnion(params, tuple(tuple(a) for a in maxima))


def _mset_str(elements):
    return "{" + ",".join(map(str, elements)) + "}" if elements else "∅"


def cmd_enumerate(params, args, out):
    grid, groups = optimizer.union_table(params, args.guard)
    texts = ["(" + ",".join(map(str, a)) + ")" for a in grid]
    table = []
    for span, g, maximal, group in groups:
        # one text per g_U; JSON writes the Poly as its coefficient list
        points = g if args.format == "json" else str(g)
        for maxima in group:
            # the largest cell dimension sits at a maximum: Krull is deg g_U
            row = [" ∪ ".join([texts[i] for i in maxima]) or "∅", span, g.degree,
                   points, "Yes" if maximal else "No"]
            if params.l == 2:
                row.insert(3, _mset_str(twodim.column_heights([grid[i] for i in maxima])))
            table.append(row)
    headers = ["U", "Span", "Krull", "M_U", "Points", "Maximal"] if params.l == 2 \
        else ["U", "Span", "Krull", "Points", "Maximal"]
    _emit_table(headers, table, args.format, out)


def cmd_dual(params, args, out):
    u = _parse_union(params, args.union)
    # one dual, folded from the maxima, for every format: G_U is never built
    dual = duality.dual_union_explicit(u)
    # the spans of a union and its dual add up to k: no point set for the dual
    span = u.span()
    if args.format == "json":
        out.write(json.dumps({"l": params.l, "m": params.m, "maxima": u.maxima,
                              "dual_maxima": dual.maxima, "span_primal": span,
                              "span_dual": params.k - span}) + "\n")
    else:
        rows = [(u.label(), dual.label(), dual.label(), span, params.k - span)]
        _emit_table(["U", "Dual", "Dual (explicit)", "Span", "Dual span"],
                    rows, args.format, out)


def cmd_encode(params, args, out):
    u = _parse_union(params, args.union)
    ms = twodim.union_to_mset(u)
    # the complement is the dual's M-set: the dual is built from its maxima
    dual_ms = twodim.mset_complement(ms)
    dual = twodim.mset_to_union(dual_ms)
    rows = [
        ("M_U", _mset_str(ms.elements)),
        ("sigma_U", "<".join(map(str, twodim.union_to_sigma(u).seq()))
         if u.maxima else "-"),
        ("M_dual", _mset_str(dual_ms.elements)),
        ("sigma_dual", "<".join(map(str, twodim.union_to_sigma(dual).seq()))
         if dual.maxima else "-"),
        ("dual", dual.label()),
    ]
    _emit_table(["field", "value"], rows, args.format, out)


def cmd_bounds(params, args, out):
    table = optimizer.bound_table(params, args.guard)
    headers = ["r", "J_r", "D_r", "E_r"]
    if params.l == 2:
        headers.append("Direction")
    rows = []
    for row in table.rows:
        cells = [row.r, row.J, row.D, "-" if row.E is None else row.E]
        if params.l == 2:
            cells.append(row.direction or "-")
        rows.append(tuple(cells))
    _emit_table(headers, rows, args.format, out)


def cmd_directions(params, args, out):
    dirs = optimizer.directions(params)
    if args.format == "json":
        out.write(json.dumps({"l": 2, "m": params.m, "directions": dirs}) + "\n")
    else:
        headers = ["Codim"] + [str(r) for r in range(params.k + 1)]
        rows = [tuple(["Direction"] + dirs)]
        _emit_table(headers, rows, args.format, out)


def cmd_krull(params, args, out):
    ks = [args.K] if args.K is not None else range(params.k + 1)
    rows = []
    for K in ks:
        d = optimizer.krull_dK(params, K)
        rows.append((K, d, optimizer.krull_C(params, d)))
    _emit_table(["K", "d(K)", "C(d(K))"], rows, args.format, out)


def cmd_genmatrix(params, args, out):
    if args.q is None:
        raise ValueError("genmatrix needs --q")
    field = gf.Field(args.q)
    union = _parse_union(params, args.union) if args.union else None
    genmat = pluecker.generator_matrix(field, params, union, args.point_guard)
    (pluecker.write_binary if args.binary else pluecker.write_text)(genmat, out)


def _parse_r_range(text, k):
    if text is None:
        return range(1, k + 1)
    a, sep, b = text.partition(":")
    try:
        wanted = range(int(a), int(b if sep else a) + 1)
    except ValueError:
        raise ValueError(f"--r-range {text} is not of the form a or a:b"
                         f" with integers a, b") from None
    if not wanted or wanted[0] < 1 or wanted[-1] > k:
        raise ValueError(f"--r-range {text} is not a range inside 1..{k}")
    return wanted


def _oracle_matrix(params, q, rs, budget, point_guard):
    """The full code's generator matrix over GF(q), once the oracle sweeps at
    every r in `rs` are checked against the budget.

    The field comes first, so a bad q is refused (exit 2) before the budget
    (exit 3), and no point is walked for a refused sweep.
    """
    field = gf.Field(q)
    weights.check_oracle_budget(params.k, q, rs, budget)
    return pluecker.generator_matrix(field, params, None, point_guard)


def cmd_weights(params, args, out):
    if args.q is not None:
        gf.prime_power(args.q)
    if args.union:
        if args.oracle:
            raise ValueError("--oracle does not apply to --union")
        if args.q is None:
            raise ValueError("--union needs --q")
        u = _parse_union(params, args.union)
        wanted = _parse_r_range(args.r_range, u.span())
        result = weights.union_code_params(u, args.q, args.guard)
        records = [rec for rec in result["records"] if rec.r in wanted]
        head = {key: result[key] for key in ("n", "k", "d1")}
    else:
        wanted = _parse_r_range(args.r_range, params.k)
        head = None
        if not args.oracle:
            records = [rec for rec in weights.weight_table(params, args.q, args.guard)
                       if rec.r in wanted]
        elif args.q is None:
            raise ValueError("--oracle needs --q")
        else:
            genmat = _oracle_matrix(params, args.q, wanted, args.oracle_budget,
                                    args.point_guard)
            records = [weights.WeightRecord(
                r, weights.oracle_dr(genmat.field, genmat, r, args.oracle_budget),
                source="Oracle") for r in wanted]
    if args.format == "json":
        dicts = [rec.as_dict() for rec in records]
        out.write(json.dumps(dicts if head is None else {**head, "records": dicts}) + "\n")
        return
    if head is not None:
        out.write(" ".join(f"{key}={value}" for key, value in head.items()) + "\n")
    rows = [(rec.r,
             rec.value if rec.value is not None else "-",
             rec.lower if rec.value is None else "-",
             rec.upper if rec.value is None else "-",
             rec.source) for rec in records]
    _emit_table(["r", "d_r", "lower", "upper", "source"], rows, args.format, out)


# ---------------------------------------------------------------------------
# experiments


def _reciprocity(seq, delta):
    """Verdict and the r whose entry seq[r-1] is not q^delta * seq[k-r](1/q)."""
    bad = [r for r, (p, partner) in enumerate(zip(seq, reversed(seq)), start=1)
           if partner.degree > delta or p != partner.reversed_within(delta)]
    return ("affirmative" if not bad else f"negative (witness r={bad})"), bad


def experiment_q3(params):
    table = weights.delta_table(params)
    if any(rec.value is None for rec in table):
        return "undetermined (middle weights open)", []
    return _reciprocity([rec.value for rec in table], params.delta)


def experiment_q8(params, guard):
    table = optimizer.exhaustive_bound_table(params, guard)
    k = params.k
    # every maximiser of span K has g_U = J and h_U = D of row k - K; its dual
    # has span k - K and q^delta * h_U(1/q) points (duality.dual_point_count)
    witnesses = [K for K in range(k + 1)
                 if table.row(k - K).D.reversed_within(params.delta) != table.row(K).J]
    if not witnesses:
        return "affirmative", []
    return f"negative (witness K={witnesses[0]})", witnesses


def experiment_q9(params, guard):
    table = optimizer.bound_table(params, guard)
    return _reciprocity([table.row(r).E for r in range(1, params.k + 1)], params.delta)


def experiment_q4(params, q, budget, point_guard):
    """For each r: does a dual of some maximizing section attain H_{k-r}?"""
    genmat = _oracle_matrix(params, q, range(1, params.k), budget, point_guard)
    k = genmat.k
    found = {r: _max_annihilated_with_witness(genmat.field, genmat, r) for r in range(1, k)}
    # the full code's columns are the Pluecker vectors of all points
    results = [(r, best, genmat.oracle.dual_section(rows), found[k - r][0])
               for r, (best, rows) in found.items()]
    ok = all(dc == target for _r, _h, dc, target in results)
    return ("affirmative (for the sections found)" if ok else "negative"), results


# its own function because perfbench/spans.py traces it and
# tests/test_spans.py pins its signature; it goes with ROADMAP item 3
def _max_annihilated_with_witness(field, genmat, r):
    """(H_r, a maximizing basis of functionals) for the full code's matrix."""
    return genmat.oracle.sweep(r)


def cmd_experiment(params, args, out):
    if args.question == "Q3":
        verdict, detail = experiment_q3(params)
    elif args.question == "Q8":
        verdict, detail = experiment_q8(params, args.guard)
    elif args.question == "Q9":
        verdict, detail = experiment_q9(params, args.guard)
    elif args.q is None:
        raise ValueError("Q4 needs --q")
    else:
        verdict, detail = experiment_q4(params, args.q, args.oracle_budget,
                                        args.point_guard)
    if args.format == "json":
        out.write(json.dumps({"question": args.question, "l": args.l,
                              "m": args.m, "verdict": verdict,
                              "detail": detail}) + "\n")
    else:
        out.write(f"{args.question} for ({args.l},{args.m}): {verdict}\n")
        if args.question == "Q4":
            for r, hr, dual_count, target in detail:
                out.write(f"  r={r}: H_r={hr}, dual section={dual_count},"
                          f" H_(k-r)={target}\n")


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schubert-unions",
        description="Schubert unions in G(l,m): tables, duality, codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, flags):
        """A subcommand that runs `handler(params, args, out)`, with --l, --m,
        --out, --config and those of --q, --format and --guard that `flags`
        maps to their help text (None for none)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        if "--q" in flags:
            p.add_argument("--q", type=int, default=None, help=flags["--q"])
        if "--format" in flags:
            p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", default=None)
        if "--guard" in flags:
            p.add_argument("--guard", type=int, default=None, help=flags["--guard"])
        p.add_argument("--config", default=None)
        return p

    command("enumerate", cmd_enumerate, "all Schubert unions with their data",
            {"--format": None, "--guard": None})
    p = command("dual", cmd_dual, "dual of a union", {"--format": None})
    p.add_argument("--union", required=True, help='maxima as JSON, e.g. "[[3,5]]"')
    p = command("encode", cmd_encode, "M_U / sigma_U encodings (l=2)", {"--format": None})
    p.add_argument("--union", required=True)
    command("bounds", cmd_bounds, "J_r / D_r / E_r table",
            {"--format": None, "--guard": "ideal guard; read for l >= 3 only"})
    command("directions", cmd_directions, "L/R/LR table (l=2)", {"--format": None})
    p = command("krull", cmd_krull, "maximal Krull dimension d(K)", {"--format": None})
    p.add_argument("--K", type=int, default=None)
    # text, or --binary: no --format
    p = command("genmatrix", cmd_genmatrix, "generator matrix export", {"--q": None})
    p.add_argument("--union", default=None)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--point-guard", type=int, default=None)
    p = command("weights", cmd_weights, "weight hierarchy records",
                {"--q": None, "--format": None,
                 "--guard": "ideal guard; read with --union, and at l >= 3 without --oracle"})
    p.add_argument("--union", default=None)
    p.add_argument("--r-range", default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--oracle-budget", type=int, default=None, help="read with --oracle only")
    p.add_argument("--point-guard", type=int, default=None, help="read with --oracle only")
    p = command("experiment", cmd_experiment, "run a question check",
                {"--q": "read by Q4 only", "--format": None,
                 "--guard": "ideal guard; read by Q8, and by Q9 at l >= 3"})
    p.add_argument("question", choices=("Q3", "Q4", "Q8", "Q9"))
    p.add_argument("--oracle-budget", type=int, default=None, help="read by Q4 only")
    p.add_argument("--point-guard", type=int, default=None, help="read by Q4 only")
    return parser


@functools.cache
def _parser():
    """The parser, built on the first main call and kept for the process."""
    return build_parser()


def _resolve_defaults(args):
    """Each setting from its flag, else the config file, else the default."""
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ValueError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError(f"config {args.config} does not hold a JSON object")
    limits = {"guard": os.environ.get(GUARD_ENV, DEFAULT_IDEAL_GUARD),
              "oracle_budget": weights.DEFAULT_ORACLE_BUDGET,
              "point_guard": pluecker.DEFAULT_POINT_GUARD}
    # a command without a limit's flag has no such attribute: 0 skips it
    for name, default in limits.items():
        value = getattr(args, name, 0)
        if value is None:
            value = config.get(name, default)
            integral = type(value) is int or type(value) is float and value.is_integer()
            if name in config and not integral:
                raise ValueError(f"config {args.config}: {name} must be an integer,"
                                 f" got {json.dumps(value)}")
            try:
                value = int(value)
            except ValueError:
                # only the environment variable can fail here: config values were checked
                raise ValueError(f"{GUARD_ENV} must be an integer,"
                                 f" got {json.dumps(value)}") from None
            setattr(args, name, value)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if getattr(args, "format", 0) is None:
        args.format = config.get("format", "markdown")
        if args.format not in FORMATS:
            raise ValueError(f"config {args.config}: format must be one of"
                             f" {', '.join(FORMATS)}, got {json.dumps(args.format)}")


def _open_out(path, mode):
    """`path` opened for writing without truncating it, so that a refused
    command (exit 2 or 3) leaves the file as it was (see `_cut`)."""
    try:
        return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _cut(path, out):
    """Cut a regular `--out` file at the length written to it, after a run
    that succeeds or whose write fails; a device such as /dev/null is left
    alone, since ftruncate fails on it."""
    if path:
        fd = out.fileno()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _drop_stdout():
    """Send what stdout still buffers to devnull, so that the flush at exit
    neither fails nor reports."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def main(argv=None):
    args = _parser().parse_args(argv)
    # table integers print whole whatever PYTHONINTMAXSTRDIGITS says; the
    # limit exists from Python 3.10.7 on (0: none), and the caller's comes back
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _resolve_defaults(args)
        binary = getattr(args, "binary", False)
        stream = sys.stdout.buffer if binary else sys.stdout
        with (_open_out(args.out, "wb" if binary else "w") if args.out
              else contextlib.nullcontext(stream)) as out:
            try:
                args.handler(GrassParams(args.l, args.m), args, out)
                out.flush()  # a reader that left shows up here, not at exit
            except OSError:
                _cut(args.out, out)
                raise
            _cut(args.out, out)
        return 0
    except BrokenPipeError:
        # the reader closed stdout (`| head`): no message
        _drop_stdout()
        return 1
    except OSError as exc:
        # a failed write: the disk is full, or the device refuses
        if not args.out:
            _drop_stdout()
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except (TooLarge, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
