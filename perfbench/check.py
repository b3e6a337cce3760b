"""Correctness gate: pinned output digests and output invariants.

Every job whose command line appears in ``references.json`` must reproduce
the recorded exit code and the sha256 of its stdout; ``record.py`` writes
that file from the package as it stands.  A job with no recorded digest
(a seed that was not recorded) is checked against invariants that hold
whatever the implementation:

* span(U) + span(dual U) = k, and the dual is the reversed complement;
* the J_r of a bounds table satisfy J_r(1) = span = k - r, D_r = n - J_r and
  E_r = D_r - D_{r-1}; for l = 2 and m <= 10 they equal the lex-largest point
  counts found by enumerating every union;
* a generator matrix has span(U) rows, g_U(q) columns, entries in GF(q),
  rank span(U), and sampled columns satisfy the Pluecker relations;
* d_r strictly increases with r, d_k = n, and an oracle's d_1 equals
  ``min_weight_bruteforce`` where that sweep is cheap;
* d(K) of the krull table is the largest d whose cheapest cycle fits in K.

Grid and field arithmetic here is the benchmark's own.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
from math import comb
from pathlib import Path

import jobs as joblib

REFERENCES = Path(__file__).resolve().parent / "references.json"
MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}  # GF(q) encoding, as documented
PLUECKER_SAMPLE = 512  # generator-matrix columns checked against the Pluecker relations


def digest(rc, out: bytes) -> str:
    return f"{rc}:{hashlib.sha256(out).hexdigest()}"


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())


def verify(job, rc, out, error, refs, package):
    """None when the job's result is correct, else a one-line reason."""
    if error is not None:
        return f"raised {error}"
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}"
    ref = refs.get(job.key)
    if ref is not None:
        return None if ref == digest(rc, out) else "stdout differs from the reference"
    if rc != 0:
        return None if not out else "a refused job wrote to stdout"
    check = INVARIANTS.get(job.argv[0])
    if check is None:
        return "no reference digest and no invariant for this command"
    try:
        return check(Args(job.argv), out, package)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


class Args:
    """The few flags the invariants need, read from the job's argv."""

    def __init__(self, argv):
        flags = {}
        i = 1
        while i < len(argv):
            if argv[i] in ("--binary", "--oracle"):
                flags[argv[i][2:]] = True
                i += 1
            elif argv[i].startswith("--"):
                flags[argv[i][2:]] = argv[i + 1]
                i += 2
            else:
                i += 1
        self.l = int(flags["l"])
        self.m = int(flags["m"])
        self.q = int(flags["q"]) if "q" in flags else None
        self.fmt = flags.get("format", "markdown")
        self.union = ([tuple(a) for a in json.loads(flags["union"])]
                      if "union" in flags else None)
        self.binary = flags.get("binary", False)
        self.r_range = flags.get("r-range")
        self.k = comb(self.m, self.l)

    def ideal(self):
        if self.union is None:
            return set(joblib.grid(self.l, self.m))
        return joblib.ideal(self.l, self.m, self.union)


# -- parsing -----------------------------------------------------------------


def table(text, fmt):
    """Rows of a CLI table as dicts keyed by header."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
    else:
        lines = text.splitlines()
        rows = [[c.strip() for c in line.strip().strip("|").split("|")]
                for i, line in enumerate(lines) if i != 1]
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def poly(value):
    """Coefficients, lowest degree first, from 'q^5+2q^4+1' or a JSON list."""
    if isinstance(value, list):
        coeffs = list(value)
    else:
        s = value.replace(" ", "")
        terms = {}
        for piece in s.replace("-", "+-").split("+"):
            if not piece or piece == "0":
                continue
            sign = -1 if piece.startswith("-") else 1
            piece = piece.lstrip("-")
            if "q" in piece:
                c, _, e = piece.partition("q")
                exp = int(e[1:]) if e else 1
                coeff = int(c) if c else 1
            else:
                exp, coeff = 0, int(piece)
            terms[exp] = terms.get(exp, 0) + sign * coeff
        coeffs = [terms.get(i, 0) for i in range(max(terms) + 1)] if terms else []
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def psub(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return poly([x - y for x, y in zip(a, b)])


def lex_key(p):
    return (len(p), tuple(reversed(p)))


def count_poly(points):
    counts = {}
    for a in points:
        counts[joblib.cell_dim(a)] = counts.get(joblib.cell_dim(a), 0) + 1
    return poly([counts.get(i, 0) for i in range(max(counts, default=-1) + 1)])


def label_maxima(text):
    """Maxima from a label such as '(1,7) ∪ (3,5)'; '∅' is the empty union."""
    if text in ("∅", ""):
        return []
    return sorted(tuple(int(x) for x in part.strip()[1:-1].split(","))
                  for part in text.split("∪"))


def mset(text):
    return [] if text == "∅" else [int(x) for x in text.strip("{}").split(",")]


def rev_complement(a):
    """The dual's ideal: the reversed complement of G_U."""
    g = a.ideal()
    return {tuple(a.m + 1 - x for x in reversed(p))
            for p in joblib.grid(a.l, a.m) if p not in g}


# -- invariants by command ---------------------------------------------------


def check_bounds(a, text, package):
    rows = table(text, a.fmt)
    if [int(r["r"]) for r in rows] != list(range(a.k + 1)):
        return "rows are not r = 0..k"
    n = count_poly(joblib.grid(a.l, a.m))
    prev_d = ()
    for row in rows:
        r = int(row["r"])
        j, d = poly(row["J_r"]), poly(row["D_r"])
        if sum(j) != a.k - r or any(c < 0 for c in j):
            return f"J_{r}(1) is not the span k-r"
        if (r == 0 and j != n) or d != psub(n, j):
            return f"D_{r} is not n - J_{r}"
        if r > 0 and poly(row["E_r"]) != psub(d, prev_d):
            return f"E_{r} is not D_{r} - D_{r - 1}"
        if a.l == 2 and row["Direction"] not in ("L", "R", "LR"):
            return f"bad direction at r={r}"
        prev_d = d
    if a.l == 2 and a.m <= 10:
        best = {}
        for pts in joblib.all_ideals(2, a.m):
            g = count_poly(pts)
            if lex_key(g) > lex_key(best.get(len(pts), ())):
                best[len(pts)] = g
        for row in rows:
            r = int(row["r"])
            if poly(row["J_r"]) != best.get(a.k - r, ()):
                return f"J_{r} differs from the exhaustive maximum"
    return None


def check_directions(a, text, package):
    if a.fmt == "json":
        dirs = json.loads(text)["directions"]
    else:
        row = table(text, a.fmt)[0]
        dirs = [row[str(r)] for r in range(a.k + 1)]
    if len(dirs) != a.k + 1 or any(d not in ("L", "R", "LR") for d in dirs):
        return "directions are not one of L/R/LR per codimension 0..k"
    if dirs[0] != "LR" or dirs[-1] != "LR":
        return "the full and the empty union must tie"
    return None


def check_dual(a, text, package):
    if a.fmt == "json":
        data = json.loads(text)
        primal = sorted(tuple(x) for x in data["maxima"])
        dual = sorted(tuple(x) for x in data["dual_maxima"])
        spans = (data["span_primal"], data["span_dual"])
    else:
        row = table(text, a.fmt)[0]
        primal, dual = label_maxima(row["U"]), label_maxima(row["Dual"])
        if label_maxima(row["Dual (explicit)"]) != dual:
            return "the two dual constructions disagree"
        spans = (int(row["Span"]), int(row["Dual span"]))
    if primal != sorted(a.union):
        return "the union was echoed wrongly"
    if joblib.ideal(a.l, a.m, dual) != rev_complement(a):
        return "the dual is not the reversed complement"
    if spans != (len(a.ideal()), a.k - len(a.ideal())):
        return "span(U) + span(dual U) is not k"
    return None


def check_encode(a, text, package):
    values = {row["field"]: row["value"] for row in table(text, a.fmt)}
    heights = {}
    for x, _y in a.ideal():
        heights[x] = heights.get(x, 0) + 1
    m_u = sorted(heights.values())
    if mset(values["M_U"]) != m_u:
        return "M_U is not the column heights of G_U"
    if mset(values["M_dual"]) != [h for h in range(1, a.m) if h not in m_u]:
        return "M_dual is not the complement of M_U"
    dual = label_maxima(values["dual"])
    if joblib.ideal(2, a.m, dual) != rev_complement(a):
        return "the dual is not the reversed complement"
    for key, mx in (("sigma_U", sorted(a.union)), ("sigma_dual", dual)):
        seq = [x for x, _ in mx] + [y for _, y in reversed(mx)]
        if values[key] != ("<".join(map(str, seq)) if mx else "-"):
            return f"{key} is not the corner sequence"
    return None


def check_krull(a, text, package):
    cheapest = {-1: 0}
    for x, y in joblib.grid(2, a.m):
        d, size = x + y - 3, x * y - x * (x + 1) // 2
        cheapest[d] = min(cheapest.get(d, size), size)
    for row in table(text, a.fmt):
        K, d, c = int(row["K"]), int(row["d(K)"]), int(row["C(d(K))"])
        want = max(e for e, size in cheapest.items() if size <= K)
        if (d, c) != (want, cheapest[want]):
            return f"d({K}) is not the largest Krull dimension within span {K}"
    return None


def check_genmatrix(a, out, package):
    q, rows = a.q, len(a.ideal())
    if a.binary:
        head, _, body = out.partition(b"\n")
        header = json.loads(head)
        n = header["n"]
        want = {"q": q, "l": a.l, "m": a.m, "rows": rows, "n": n,
                "union": None if a.union is None else [list(x) for x in sorted(a.union)]}
        if header != want or len(body) != rows * n:
            return "binary header or length is inconsistent"
        columns = [tuple(body[i * n + j] for i in range(rows)) for j in range(n)]
    else:
        columns = [tuple(map(int, line.split())) for line in out.decode().splitlines()]
    if len(columns) != joblib.point_count(a.ideal(), q):
        return "the number of columns is not g_U(q)"
    if any(len(c) != rows or max(c, default=0) >= q for c in columns):
        return "a column has the wrong length or an entry outside GF(q)"
    if gf_rank(q, columns, rows) != rows:
        return "the generator matrix does not have rank span(U)"
    points = sorted(a.ideal())
    step = -(-len(columns) // PLUECKER_SAMPLE)
    if not all(pluecker_relations_hold(q, a.l, a.m, points, col) for col in columns[::step]):
        return "a column violates the Pluecker relations"
    return None


def _records(text, fmt, union):
    if fmt == "json":
        data = json.loads(text)
        head = data if union else None
        recs = data["records"] if union else data
        return head, {r["r"]: r.get("value") for r in recs}
    head = None
    if union:
        first, _, text = text.partition("\n")
        head = {k: int(v) for k, v in (kv.split("=") for kv in first.split())}
    out = {}
    for row in table(text, fmt):
        value = row["d_r"]
        out[int(row["r"])] = None if value == "-" else int(value)
    return head, out


def check_weights(a, text, package):
    if a.union is not None:
        head, values = _records(text, a.fmt, True)
        n = joblib.point_count(a.ideal(), a.q)
        if (head["n"], head["k"]) != (n, len(a.ideal())):
            return "n or k is not g_U(q) or span(U)"
        k = head["k"]
    else:
        _, values = _records(text, a.fmt, False)
        n, k = joblib.point_count(joblib.grid(a.l, a.m), a.q), a.k
        lo, _, hi = a.r_range.partition(":")
        if sorted(values) != list(range(int(lo), int(hi or lo) + 1)):
            return "the records do not cover the requested r-range"
    known = sorted((r, v) for r, v in values.items() if v is not None)
    if any(v2 <= v1 for (r1, v1), (r2, v2) in zip(known, known[1:]) if r2 == r1 + 1):
        return "d_r does not strictly increase"
    if any(v > n for _, v in known) or values.get(k, n) != n:
        return "d_k is not n"
    if a.union is None and 1 in values and a.q ** a.k <= 4096:
        field = package.Field(a.q)
        genmat = package.generator_matrix(field, package.GrassParams(a.l, a.m))
        if values[1] != package.min_weight_bruteforce(field, genmat):
            return "oracle d_1 differs from the minimum-weight sweep"
    return None


def _text(check):
    return lambda a, out, package: check(a, out.decode("utf-8"), package)


INVARIANTS = {
    "bounds": _text(check_bounds),
    "directions": _text(check_directions),
    "dual": _text(check_dual),
    "encode": _text(check_encode),
    "krull": _text(check_krull),
    "genmatrix": check_genmatrix,
    "weights": _text(check_weights),
}


# -- GF(q) -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gf_tables(q):
    p = next(r for r in (2, 3, 5, 7) if q % r == 0)
    e = len(MODULI.get(q, (0, 1))) - 1

    def digits(a):
        return [(a // p ** i) % p for i in range(e)]

    def value(ds):
        return sum(c * p ** i for i, c in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        modulus = MODULI.get(q, (0, 1))
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            for j in range(e + 1):
                prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
        return value(prod[:e])

    add = [[value([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
           for a in range(q)]
    mult = [[mul(a, b) for b in range(q)] for a in range(q)]
    neg = [value([(-x) % p for x in digits(a)]) for a in range(q)]
    inv = [0] + [next(b for b in range(1, q) if mult[a][b] == 1) for a in range(1, q)]
    return add, mult, neg, inv


def pluecker_relations_hold(q, l, m, points, column):
    """Whether a column, zero off ``points``, satisfies every three-or-more-term
    Grassmann-Pluecker relation  sum_k (-1)^k p(I + j_k) p(J - j_k) = 0."""
    add, mul, neg, _inv = gf_tables(q)
    coord = dict(zip(points, column))

    def p(indices):
        if len(set(indices)) < len(indices):
            return 0
        inversions = sum(1 for x, y in itertools.combinations(indices, 2) if x > y)
        value = coord.get(tuple(sorted(indices)), 0)
        return neg[value] if inversions % 2 else value

    for head in itertools.combinations(range(1, m + 1), l - 1):
        for js in itertools.combinations(range(1, m + 1), l + 1):
            acc = 0
            for k, j in enumerate(js):
                term = mul[p(head + (j,))][p(js[:k] + js[k + 1:])]
                acc = add[acc][neg[term] if k % 2 else term]
            if acc:
                return False
    return True


def gf_rank(q, columns, rows):
    """Rank of the column set, stopping once it reaches ``rows``."""
    add, mul, neg, inv = gf_tables(q)
    basis = []   # (pivot, vector with 1 at the pivot and 0 at earlier pivots)
    for col in sorted(columns, key=lambda c: sum(1 for x in c if x)):
        v = list(col)
        for piv, b in basis:
            c = v[piv]
            if c:
                v = [add[x][neg[mul[c][y]]] for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            s = inv[v[piv]]
            basis.append((piv, [mul[s][x] for x in v]))
            if len(basis) == rows:
                break
    return len(basis)
