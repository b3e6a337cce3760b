"""Higher weights of Grassmann and Schubert-union codes.

Closed formulas cover the head of the hierarchy (d_r a sum of consecutive
powers of q starting at q^delta) and the tail (d_{k-a} = n - |P^{a-1}|),
plus the one remaining value for C(2,5).  Between those ranges the module
reports the interval [Griesmer lower bound, D_r], with D_r = n - J_r the
Schubert-union bound.  A brute-force oracle sweeps all codimension-r
subspaces in reduced echelon form and is exact wherever it is affordable.
A functional's zero set comes from value masks of the two halves of the
message coordinates, the same path for every q: q ANDs of column bitmasks
instead of one dot product per column.  The sweep ends at the first leaf
that reaches a proven ceiling, the smaller of a projective cap (the killed
columns lie in a (k-r)-dimensional annihilator) and a generalized Griesmer
cap (d_r >= sum of ceil(d_1/q^i), i < r), so its best count and witness are
those of the full sweep.  One _MaskCache per matrix holds the masks, the
projective classes and d_1; experiment Q4's sections come from its masks.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    Poly,
    TooLarge,
    cell_dimension,
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
    """(r, d_r) with d_r = q^delta + ... + q^{delta-r+1}, r = 1..s."""
    delta = params.delta
    out = []
    acc = Poly.zero()
    for r in range(1, nogin_s(params) + 1):
        acc = acc + Poly.monomial(delta - r + 1)
        out.append((r, acc))
    return out


def top_weights(params):
    """(r, d_r) for the tail: d_k = n and d_{k-a} = n - (1+q+...+q^{a-1})."""
    k = params.k
    n = grand_total(params)
    out = []
    acc = Poly.zero()
    for a in range(0, nogin_s(params) + 1):
        r = k - a
        if r < 1:
            break
        out.append((r, n - acc))
        acc = acc + Poly.monomial(a)
    return sorted(out)


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
    acc = 0
    for i in range(r):
        acc += -(-d1 // q ** i)
    return acc


def griesmer_lower_poly(params, r) -> Poly:
    """Griesmer bound for C(l,m) as a polynomial (exact for integer q >= 2)."""
    delta = params.delta
    p = Poly.zero()
    for i in range(r):
        p = p + (Poly.monomial(delta - i) if i <= delta else Poly.one())
    return p


def weight_table(params, q=None, guard=DEFAULT_IDEAL_GUARD):
    """WeightRecords for C(l,m), r = 1..k; intervals where d_r is open.

    Symbolic rows when q is None, evaluated integers otherwise.
    """
    known = known_dr(params)
    table = bound_table(params, guard)
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


def _value_tables(field, columns, coords):
    """Entry [h][v]: bitmask of the columns c with sum_j h_j c[coords[j]] = v.

    h is read as base-q digits, lowest first.  Extending every h by a * e_j
    splits its value masks by the columns' j-th entry: q^2 ANDs per entry.
    """
    q, add, mul = field.q, field._add, field._mul
    table = [[(1 << len(columns)) - 1] + [0] * (q - 1)]
    for j in coords:
        parts = [0] * q
        for ci, col in enumerate(columns):
            parts[col[j]] |= 1 << ci
        size = len(table)
        for a in range(1, q):
            times_a = mul[a]
            for h in range(size):
                new = [0] * q
                for u, mask in enumerate(table[h]):
                    if mask:
                        plus_u = add[u]
                        for b, part in enumerate(parts):
                            new[plus_u[times_a[b]]] |= mask & part
                table.append(new)
    return table


class _MaskCache:
    """The oracle's state for one matrix: zero-set masks, caps and d_1.

    With the k coordinates split at k // 2, h_lo + h_hi kills column c
    exactly when h_lo . c = -(h_hi . c): a new row costs q ANDs of two
    value-table entries (hi stored at -v; the q masks of lo[h] are
    disjoint, so their sum is their OR).  Echelon rows recur across pivot
    sets, so each row's mask is memoized.
    """

    def __init__(self, field, columns, k):
        s = self.split = k // 2
        self.field, self.columns, self.k, self.n = field, columns, k, len(columns)
        self.lo = _value_tables(field, columns, range(s))
        self.hi = [[masks[u] for u in field._neg]
                   for masks in _value_tables(field, columns, range(s, k))]
        self.place = [field.q ** j for j in range(k - s)]
        self.cache = {}
        # columns by projective point: scaled to lead with 1, zeros kept apart
        points = collections.Counter()
        for col in columns:
            scale = field._mul[field._inv[next((x for x in col if x), 0)]]
            points[tuple(scale[x] for x in col)] += 1
        self.zeros = points.pop((0,) * k, 0)
        self.classes = sorted(points.values(), reverse=True)
        self.d1 = None

    def mask(self, row):
        got = self.cache.get(row)
        if got is None:
            s, place = self.split, self.place
            a = self.lo[sum(x * p for x, p in zip(row[:s], place))]
            b = self.hi[sum(x * p for x, p in zip(row[s:], place))]
            got = self.cache[row] = sum(x & y for x, y in zip(a, b))
        return got

    def ceiling(self, r, first):
        """A proven bound on the columns an r-dimensional space can kill.

        Projective cap: the killed columns lie in the annihilator, a
        (k-r)-dimensional space with theta = (q^(k-r) - 1)/(q - 1) points,
        so at most the zero columns and the theta largest classes.  Griesmer
        cap: an r-dimensional subcode punctured to its support is a
        [d_r, r, >= d_1] code, so d_r >= griesmer_lower(d_1, r, q).  d_1
        costs one r = 1 sweep, run only when the first leaf misses the
        projective cap, and at most once per object.
        """
        q = self.field.q
        cap = self.zeros + sum(self.classes[:(q ** (self.k - r) - 1) // (q - 1)])
        if r == 1 or first == cap:
            return cap
        if self.d1 is None:
            self.d1 = self.n - _sweep(self, 1)[0]
        return min(cap, self.n - griesmer_lower(self.d1, r, q))

    def dual_section(self, rows):
        """How many columns the section cut out by rows annihilates.

        The section is the AND of the rows' masks.  A set of columns and its
        span have one annihilator, so the dual is the AND of the section's
        columns' masks, each column read as a functional.
        """
        section = dual = (1 << self.n) - 1
        for row in rows:
            section &= self.mask(row)
        for i, col in enumerate(self.columns):
            if section >> i & 1:
                dual &= self.mask(col)
        return dual.bit_count()


def _echelon_rows(field, k, pivots, i):
    """Rows of level i of a reduced echelon basis, in itertools.product order."""
    pivot = pivots[i]
    free = [j for j in range(pivot + 1, k) if j not in pivots]
    rows = []
    for values in itertools.product(field.elements(), repeat=len(free)):
        row = [0] * k
        row[pivot] = 1
        for j, v in zip(free, values):
            row[j] = v
        rows.append(tuple(row))
    return rows


def _sweep(cache, r):
    """(best, witness) of the r-sweep; stops at the first leaf whose count
    reaches cache.ceiling(r, its count), a proven bound on every count."""
    field, k = cache.field, cache.k
    full = (1 << cache.n) - 1
    best, witness, cap = -1, None, None
    path = [None] * r
    for pivots in itertools.combinations(range(k), r):
        levels = [[(row, cache.mask(row)) for row in _echelon_rows(field, k, pivots, i)]
                  for i in range(r)]

        def rec(i, acc):
            """True once best reaches the cap."""
            nonlocal best, witness, cap
            last = i == r - 1
            for row, mask in levels[i]:
                sub = acc & mask
                count = sub.bit_count()
                if count <= best:
                    continue
                path[i] = row
                if last:
                    best, witness = count, list(path)
                    if cap is None:
                        cap = cache.ceiling(r, best)
                    assert best <= cap, f"r={r}: {best} columns killed, cap {cap}"
                    if best == cap:
                        return True
                elif rec(i + 1, sub):
                    return True
            return False

        if rec(0, full):
            break
    return best, witness


def _max_annihilated(field, columns, k, r):
    """(best, witness): the most columns killed by an r-dimensional space of
    functionals, 1 <= r <= k, and the reduced echelon basis of the first
    such space in sweep order.

    Subspaces are enumerated once each through their reduced echelon basis;
    a partial intersection that cannot beat the best count prunes its branch.
    The sweep ends at the first leaf that reaches _MaskCache.ceiling.
    """
    if r == k:
        # the whole dual space kills only zero columns; the value tables
        # would cost q^(k/2) masks for this one-subspace sweep
        identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        return sum(1 for col in columns if not any(col)), identity
    return _sweep(_MaskCache(field, columns, k), r)


def check_oracle_budget(k, q, rs, budget):
    """Raise BudgetExceeded unless every r-sweep of GF(q)^k fits the budget."""
    for r in rs:
        count = gaussian_binomial(k, r, q)
        if count > budget:
            raise BudgetExceeded(
                f"r={r} sweep needs {count} subspaces, budget is {budget}")


def oracle_dr(field, genmat, r, budget=DEFAULT_ORACLE_BUDGET) -> int:
    """Exact d_r of the code with the given generator matrix, by exhaustion."""
    k = genmat.k
    if not 1 <= r <= k:
        raise ValueError(f"r={r} out of range 1..{k}")
    check_oracle_budget(k, field.q, [r], budget)
    best, _witness = _max_annihilated(field, genmat.columns, k, r)
    return genmat.n - best


def min_weight_bruteforce(field, genmat) -> int:
    """Minimum nonzero codeword weight via a full message-space sweep."""
    k, cols = genmat.k, genmat.columns
    best = None
    for msg in itertools.product(field.elements(), repeat=k):
        if not any(msg):
            continue
        w = sum(1 for col in cols if field.dot(msg, col) != 0)
        if best is None or w < best:
            best = w
    return best


# ---------------------------------------------------------------------------
# Schubert-union codes (l = 2)


def enumerate_subideals(union, guard=DEFAULT_IDEAL_GUARD):
    """Yield every downward-closed subset of G_U (as frozensets of points)."""
    ground = sorted(union.ideal())
    if len(ground) > guard:
        raise TooLarge(f"union has {len(ground)} points, guard is {guard}")
    yield from down_sets(ground)


def relative_bound(union, q, guard=DEFAULT_IDEAL_GUARD):
    """dict r -> M_r: the most points a sub-union of spanning deficit r can have."""
    l = union.params.l
    K = union.span()
    best = {}
    for sub in enumerate_subideals(union, guard):
        r = K - len(sub)
        pts = sum(q ** cell_dimension(a, l) for a in sub)
        if pts > best.get(r, -1):
            best[r] = pts
    return best


def union_code_params(union, field, guard=DEFAULT_IDEAL_GUARD):
    """Parameters and known weights of the code built on a union's points.

    d_1 is q to the smallest Krull dimension among the component cycles.
    The tail r >= K - B + 1 (B the largest corner coordinate) is exact via
    the projective space inside the union; elsewhere d_r is exact precisely
    when the Griesmer bound meets the coordinate-section upper bound
    n_U - M_r, and an interval is reported otherwise.
    """
    _require_l2(union.params)
    if not union.maxima:
        raise EmptyUnion("no code on the empty union")
    q = field.q
    K = union.span()
    n_u = union.point_count()(q)
    deltas = [cell_dimension(a, 2) for a in union.maxima]
    dmin = min(deltas)
    d1 = q ** dmin
    b1 = max(a[1] for a in union.maxima)
    m_r = relative_bound(union, q, guard)
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
