"""Higher weights of Grassmann and Schubert-union codes.

Closed formulas cover the head of the hierarchy (d_r a sum of consecutive
powers of q starting at q^delta) and the tail (d_{k-a} = n - |P^{a-1}|),
plus the one remaining value for C(2,5).  Between those ranges the module
reports the interval [Griesmer lower bound, D_r], with D_r = n - J_r the
Schubert-union bound.  A brute-force oracle sweeps all codimension-r
subspaces in reduced echelon form and is exact wherever it is affordable.
A row of the sweep is an integer, the functional's base-q code
sum_j h_j q^j.  Its zero set comes from value masks of the two halves of
the message coordinates (code % q^s and code // q^s, s = k // 2), the same
path for every q: q ANDs of column bitmasks instead of one dot product per
column.  An echelon level is the product of its lo and hi codes; level 0
is streamed, and each deeper level is built on the first descent into it
and kept for its pivot set only.  The sweep ends at the first leaf that
reaches a proven ceiling, the smaller of a projective cap (the killed
columns lie in a (k-r)-dimensional annihilator) and a generalized Griesmer
cap (d_r >= sum of ceil(d_1/q^i), i < r), so its best count and witness are
those of the full sweep.  A generator matrix holds one _MaskCache, built on
first use, which sweeps each r at most once: d_1 is read from its r = 1
sweep, and experiment Q4's sections come from its masks.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from operator import and_, itemgetter

from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    Poly,
    TooLarge,
    _span_maxima,
    cell_dimension,
    count_text,
    down_sets,
    gaussian_binomial,
    grand_total,
)
from .optimizer import bound_table
from .twodim import EmptyUnion, _require_l2

DEFAULT_ORACLE_BUDGET = 2 * 10 ** 7


class BudgetExceeded(RuntimeError):
    """The subspace sweep would be larger than the oracle budget."""


@dataclass(frozen=True)
class WeightRecord:
    """One row of a weight table; value is set when d_r is known exactly."""

    r: int
    value: object = None
    lower: object = None
    upper: object = None
    source: str = ""

    def as_dict(self):
        def enc(v):
            return v.to_list() if isinstance(v, Poly) else v
        out = {"r": self.r, "source": self.source}
        if self.value is not None:
            out["value"] = enc(self.value)
        else:
            out["lower"] = enc(self.lower)
            out["upper"] = enc(self.upper)
        return out


def nogin_s(params) -> int:
    """Length of the known head of the hierarchy: max(l, m-l) + 1."""
    return max(params.l, params.m - params.l) + 1


def nogin_weights(params):
    """(r, d_r) with d_r = q^delta + ... + q^{delta-r+1}, r = 1..s.

    Nogin's head is the Griesmer bound at d_1 = q^delta.
    """
    return [(r, griesmer_lower_poly(params, r)) for r in range(1, nogin_s(params) + 1)]


def top_weights(params):
    """(r, d_r) for the tail: d_k = n and d_{k-a} = n - (1+q+...+q^{a-1})."""
    k, n = params.k, grand_total(params)
    return sorted((k - a, n - Poly((1,) * a))
                  for a in range(nogin_s(params) + 1) if k - a >= 1)


def d5_c25() -> Poly:
    """The middle weight of C(2,5): n - (q^3 + 2q^2 + q + 1)."""
    n = grand_total(GrassParams(2, 5))
    return n - Poly((1, 1, 2, 1))


def known_dr(params):
    """dict r -> (Poly, source) for every r where d_r is known exactly."""
    out = {}
    for r, p in nogin_weights(params):
        out[r] = (p, "NoginFormula")
    for r, p in top_weights(params):
        if r in out:
            assert out[r][0] == p, f"head/tail disagree at r={r}"
        else:
            out[r] = (p, "TopFormula")
    if (params.l, params.m) == (2, 5):
        out[5] = (d5_c25(), "D5Formula")
    return out


def delta_table(params):
    """WeightRecords of the gaps Delta_r = d_r - d_{r-1}; value None when unknown.

    Complete for (2,3), (2,4) and (2,5); elsewhere the middle range is open.
    """
    known = known_dr(params)
    known[0] = (Poly.zero(), "")
    records = []
    for r in range(1, params.k + 1):
        if r in known and r - 1 in known:
            records.append(WeightRecord(r, known[r][0] - known[r - 1][0],
                                        source=known[r][1]))
        else:
            records.append(WeightRecord(r, None, source=""))
    return records


def griesmer_lower(d1, r, q) -> int:
    """Griesmer bound: sum of ceil(d1/q^i) for i = 0..r-1."""
    return sum(-(-d1 // q ** i) for i in range(r))


def griesmer_lower_poly(params, r) -> Poly:
    """Griesmer bound for C(l,m) as a polynomial (exact for integer q >= 2).

    The sum of ceil(q^delta / q^i) over i < r, written directly: coefficient
    1 at each degree from max(delta - r + 1, 0) to delta, plus
    max(r - delta - 1, 0) more at degree 0, one per i > delta.
    """
    delta = params.delta
    low = max(delta - r + 1, 0)
    coeffs = [0] * low + [1] * (delta + 1 - low)
    coeffs[0] += max(r - delta - 1, 0)
    return Poly(coeffs)


def weight_table(params, q=None, guard=DEFAULT_IDEAL_GUARD):
    """WeightRecords for C(l,m), r = 1..k; intervals where d_r is open.

    Symbolic rows when q is None, evaluated integers otherwise.
    """
    # the guarded table first: the tail formulas need the whole grid's g
    table = bound_table(params, guard)
    known = known_dr(params)
    records = []
    for r in range(1, params.k + 1):
        if r in known:
            p, source = known[r]
            records.append(WeightRecord(r, p if q is None else p(q), source=source))
        else:
            lo = griesmer_lower_poly(params, r)
            hi = table.row(r).D
            records.append(WeightRecord(
                r, None,
                lower=lo if q is None else lo(q),
                upper=hi if q is None else hi(q),
                source="Griesmer/SchubertBound"))
    return records


# ---------------------------------------------------------------------------
# brute-force oracle: sweep codimension-r subspaces in reduced echelon form


def _value_tables(field, rows, n):
    """Entry [h][v]: bitmask of the n columns c with sum_j h_j c_j = v.

    rows[j] holds the j-th entries of the columns as bytes, last column
    first, so that column i is bit i of a binary numeral; h is read as
    base-q digits, lowest first.  Extending every h by a * e_j splits its
    value masks by the columns' j-th entry: q^2 ANDs per entry.
    """
    q, add, mul = field.q, field._add, field._mul
    # byte v -> "1", every other byte -> "0"
    indicators = [b"0" * v + b"1" + b"0" * (255 - v) for v in range(q)]
    table = [[(1 << n) - 1] + [0] * (q - 1)]
    for row in rows:
        parts = [(b, part) for b, ind in enumerate(indicators)
                 if (part := int(row.translate(ind) or b"0", 2))]
        size = len(table)
        for a in range(1, q):
            times_a = mul[a]
            for h in range(size):
                new = [0] * q
                for u, mask in enumerate(table[h]):
                    if mask:
                        plus_u = add[u]
                        for b, part in parts:
                            new[plus_u[times_a[b]]] |= mask & part
                table.append(new)
    return table


class _MaskCache:
    """The oracle's state for one matrix: zero-set masks, caps and sweeps.

    A functional h is coded as the integer sum_j h_j q^j.  With the k
    coordinates split at s = k // 2, code % q^s and code // q^s index the
    value tables of the two halves, and h_lo + h_hi kills column c exactly
    when h_lo . c = -(h_hi . c): a row costs q ANDs of two value-table
    entries (hi stored at -v; the q masks of lo[h] are disjoint, so their
    sum is their OR).  The columns are bytes, as GeneratorMatrix holds them:
    the value tables read the rows as strided slices of their join, and the
    projective classes strip the columns as they are.  `sweep` keeps each
    r's (best, witness), which its callers share and do not mutate.
    """

    def __init__(self, field, columns, k):
        s = self.split = k // 2
        self.field, self.columns, self.k, self.n = field, columns, k, len(columns)
        q, mul, inv = field.q, field._mul, field._inv
        # the matrix rows, last column first: strided slices of one join
        data = b"".join(reversed(columns))
        rows = [data[j::k] for j in range(k)]
        self.lo = _value_tables(field, rows[:s], self.n)
        self.hi = [[masks[u] for u in field._neg]
                   for masks in _value_tables(field, rows[s:], self.n)]
        self.place = [q ** j for j in range(k - s)]
        self.cache = {}
        # columns by projective point: each nonzero column from its lead on,
        # scaled to lead with 1 by one translate; zero columns kept apart
        pad = bytes(256 - q)
        scale = [b""] + [bytes(mul[inv[a]]) + pad for a in range(1, q)]
        tails = list(filter(None, map(bytes.lstrip, columns, itertools.repeat(b"\0"))))
        self.zeros = self.n - len(tails)
        points = collections.Counter(map(bytes.translate, tails,
                                         map(scale.__getitem__, map(itemgetter(0), tails))))
        self.classes = sorted(points.values(), reverse=True)
        self.swept = {}

    def mask(self, row):
        """Zero-set mask of a row of field elements, memoized by the row as
        bytes, so a tuple and bytes of one functional share an entry; the
        sweep reads the tables through codes instead (_level)."""
        row = bytes(row)
        got = self.cache.get(row)
        if got is None:
            s, place = self.split, self.place
            a = self.lo[sum(x * p for x, p in zip(row[:s], place))]
            b = self.hi[sum(x * p for x, p in zip(row[s:], place))]
            got = self.cache[row] = sum(map(and_, a, b))
        return got

    def sweep(self, r):
        """(best, witness) of the r-sweep (_sweep), run at most once per r."""
        if r not in self.swept:
            self.swept[r] = _sweep(self, r)
        return self.swept[r]

    def ceiling(self, r, first):
        """A proven bound on the columns an r-dimensional space can kill.

        Projective cap: the killed columns lie in the annihilator, a
        (k-r)-dimensional space with theta = (q^(k-r) - 1)/(q - 1) points,
        so at most the zero columns and the theta largest classes.  Griesmer
        cap: an r-dimensional subcode punctured to its support is a
        [d_r, r, >= d_1] code, so d_r >= griesmer_lower(d_1, r, q).  d_1 is
        read from the r = 1 sweep, run only when the first leaf misses the
        projective cap and shared with any r = 1 request.
        """
        q = self.field.q
        cap = self.zeros + sum(self.classes[:(q ** (self.k - r) - 1) // (q - 1)])
        if r == 1 or first == cap:
            return cap
        d1 = self.n - self.sweep(1)[0]
        return min(cap, self.n - griesmer_lower(d1, r, q))

    def dual_section(self, rows):
        """How many columns the section cut out by rows annihilates.

        The section is the AND of the rows' masks.  A set of columns and its
        span have one annihilator, so the dual is the AND of the section's
        columns' masks, each column read as a functional.
        """
        section = dual = (1 << self.n) - 1
        for row in rows:   # as bytes, the memo's key, like the columns
            section &= self.mask(bytes(row))
        for i, col in enumerate(self.columns):
            if section >> i & 1:
                dual &= self.mask(col)
        return dual.bit_count()


def _codes(q, start, steps):
    """start + sum_j v_j steps[j] over every digit tuple v, in
    itertools.product order (the last step varies fastest)."""
    codes = [start]
    for step in steps:
        codes = [c + d for c in codes for d in range(0, q * step, step)]
    return codes


def _level(cache, pivots, i):
    """(code, zero-set mask) of each row of level i of a reduced echelon
    basis, in itertools.product order over the row's free coordinates.

    The row is 1 at pivots[i] and free after it, except at the later
    pivots.  Its lo and hi parts vary independently and the hi coordinates
    come last, so the level is the lo codes times the hi codes, hi fastest.
    """
    q, k = cache.field.q, cache.k
    top, lead = q ** cache.split, q ** pivots[i]
    free = [q ** j for j in range(pivots[i] + 1, k) if j not in pivots]
    lo_codes = _codes(q, lead if lead < top else 0, [p for p in free if p < top])
    hi_codes = _codes(q, lead if lead >= top else 0, [p for p in free if p >= top])
    lo, hi = cache.lo, cache.hi
    his = [(b, hi[b // top]) for b in hi_codes]
    for a in lo_codes:
        masks = lo[a]
        for b, other in his:
            yield a + b, sum(map(and_, masks, other))


def _sweep(cache, r):
    """(best, witness): the most columns killed by an r-dimensional space of
    functionals and the reduced echelon basis of the first such space in
    sweep order; a partial intersection that cannot beat the best count
    prunes its branch, and the sweep stops at the first leaf whose count
    reaches cache.ceiling(r, its count), a proven bound on every count.

    Level 0 is read once per pivot set, so it is streamed; a deeper level
    is built on the first descent into it and kept for its pivot set only.
    """
    q = cache.field.q
    full = (1 << cache.n) - 1
    places = [q ** j for j in range(cache.k)]
    best, witness, cap = -1, None, None
    path = [0] * r

    def rec(i, acc):
        """True once best reaches the cap."""
        nonlocal best, witness, cap
        rows = levels[i]
        if rows is None:
            rows = levels[i] = list(_level(cache, pivots, i))
        last = i == r - 1
        for code, mask in rows:
            sub = acc & mask
            count = sub.bit_count()
            if count <= best:
                continue
            path[i] = code
            if last:
                best = count
                witness = [tuple(c // p % q for p in places) for c in path]
                if cap is None:
                    cap = cache.ceiling(r, best)
                assert best <= cap, f"r={r}: {best} columns killed, cap {cap}"
                if best == cap:
                    return True
            elif rec(i + 1, sub):
                return True
        return False

    for pivots in itertools.combinations(range(cache.k), r):
        levels = [_level(cache, pivots, 0)] + [None] * (r - 1)
        if rec(0, full):
            break
    return best, witness


def check_oracle_budget(k, q, rs, budget):
    """Raise BudgetExceeded unless every r-sweep of GF(q)^k fits the budget."""
    for r in rs:
        count = gaussian_binomial(k, r, q)
        if count > budget:
            raise BudgetExceeded(
                f"r={r} sweep needs {count_text(count)} subspaces, budget is {budget}")


def oracle_dr(field, genmat, r, budget=DEFAULT_ORACLE_BUDGET) -> int:
    """Exact d_r of the code with the given generator matrix, by exhaustion
    on the matrix's oracle state (`GeneratorMatrix.oracle`)."""
    k = genmat.k
    if not 1 <= r <= k:
        raise ValueError(f"r={r} out of range 1..{k}")
    check_oracle_budget(k, field.q, [r], budget)
    if r == k:
        # one subspace, killing the zero columns: no q^(k/2)-mask value tables
        return sum(1 for col in genmat.columns if any(col))
    return genmat.n - genmat.oracle.sweep(r)[0]


def min_weight_bruteforce(field, genmat) -> int:
    """Minimum nonzero codeword weight via a full message-space sweep."""
    messages = itertools.product(field.elements(), repeat=genmat.k)
    return min((sum(1 for col in genmat.columns if field.dot(msg, col) != 0)
                for msg in messages if any(msg)), default=None)


# ---------------------------------------------------------------------------
# Schubert-union codes (l = 2)


def _guarded_ground(union, guard):
    """G_U sorted lexicographically, once its size, counted from the maxima,
    is checked against the guard."""
    span = union.span()
    if span > guard:
        raise TooLarge(f"union has {span} points, guard is {guard}")
    return sorted(union.ideal())


def enumerate_subideals(union, guard=DEFAULT_IDEAL_GUARD):
    """Yield every downward-closed subset of G_U (as frozensets of points)."""
    yield from down_sets(_guarded_ground(union, guard))


def relative_bound(union, q, guard=DEFAULT_IDEAL_GUARD):
    """dict r -> M_r, the most F_q-points of a sub-union of span deficit r (walk codes, base q)."""
    best = _span_maxima(_guarded_ground(union, guard), q)
    return {r: best[-1 - r] for r in range(len(best))}


def union_code_params(union, q, guard=DEFAULT_IDEAL_GUARD):
    """Parameters and known weights of the code built on a union's points.

    d_1 is q to the smallest Krull dimension among the component cycles.
    The tail r >= K - B + 1 (B the largest corner coordinate) is exact via
    the projective space inside the union; elsewhere d_r is exact precisely
    when the Griesmer bound meets the coordinate-section upper bound
    n_U - M_r, and an interval is reported otherwise.  The one sub-union
    walk gives K and n_U too: M runs over r = 0..K, and M_0 = n_U.
    """
    _require_l2(union.params)
    if not union.maxima:
        raise EmptyUnion("no code on the empty union")
    m_r = relative_bound(union, q, guard)
    K, n_u = len(m_r) - 1, m_r[0]
    deltas = [cell_dimension(a, 2) for a in union.maxima]
    dmin = min(deltas)
    d1 = q ** dmin
    b1 = max(a[1] for a in union.maxima)
    records = []
    for r in range(1, K + 1):
        a = K - r
        lo = griesmer_lower(d1, r, q)
        hi = n_u - m_r[r]
        if a <= b1 - 1:
            value = n_u - sum(q ** i for i in range(a))
            assert lo <= value <= hi, f"tail value escapes bounds at r={r}"
            records.append(WeightRecord(r, value, source="TopFormula"))
        elif lo == hi:
            source = "NoginFormula" if r <= dmin + 1 else "SchubertBound"
            records.append(WeightRecord(r, lo, source=source))
        else:
            records.append(WeightRecord(r, None, lower=lo, upper=hi,
                                        source="Griesmer/SchubertBound"))
    return {
        "n": n_u,
        "k": K,
        "d1": d1,
        "component_krull": sorted(deltas),
        "records": records,
    }
