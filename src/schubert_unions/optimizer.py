"""Maximal Schubert unions per spanning dimension, and Krull dimension d(K).

For l = 2 the lexicographic maximum of g_U over unions of spanning dimension
K is attained by one of two candidates: fill columns from the left, or fill
rows from the bottom.  The per-codimension maxima J_r give the upper bound
table D_r = n - J_r, E_r = D_r - D_{r-1} for the weight hierarchy.  The
largest Krull dimension reachable with span K is the largest d with
C(d) <= K for an explicit piecewise quadratic C.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    Poly,
    SchubertUnion,
    _code_base,
    _decode,
    _grid_base,
    _guarded_grid,
    _picked,
    _span_maxima,
    _walk,
)
from .twodim import MSet, _require_l2, mset_to_union


def _column_fill(m):
    """Cells of G(2,m) column by column from the left, each bottom up."""
    return [(x, y) for x in range(1, m) for y in range(x + 1, m + 1)]


def _row_fill(m):
    """Cells of G(2,m) row by row from the bottom, each left to right."""
    return [(x, y) for y in range(2, m + 1) for x in range(1, y)]


def _require_span(params, K):
    _require_l2(params)
    if not (0 <= K <= params.k):
        raise ValueError(f"K={K} out of range 0..{params.k}")


def _first_cells(params, K, fill):
    _require_span(params, K)
    cols = [x for x, _y in fill(params.m)[:K]]
    return mset_to_union(MSet(params.m, tuple(sorted(map(cols.count, set(cols))))))


def left_candidate(params, K) -> SchubertUnion:
    """Fill whole columns left to right, then the next column bottom up."""
    return _first_cells(params, K, _column_fill)


def right_candidate(params, K) -> SchubertUnion:
    """Fill whole rows bottom to top, then the next row left to right."""
    return _first_cells(params, K, _row_fill)


def best_union(params, K):
    """Winner among the two candidates and its direction 'L', 'R' or 'LR'.

    The direction is read off the candidates' codes (`directions`), and only
    the winner is built.  On a tie ('LR') the polynomials agree; the left
    union is returned.  Use left_candidate() and right_candidate() when both
    unions are wanted.
    """
    _require_span(params, K)
    direction = directions(params)[params.k - K]
    return (right_candidate if direction == "R" else left_candidate)(params, K), direction


def _direction(g_left, g_right) -> str:
    """'L', 'R' or 'LR': which candidate's g is larger.

    Takes two codes of one base (`_running_codes`); their int order is the
    lex order of the polynomials.
    """
    if g_left > g_right:
        return "L"
    if g_left < g_right:
        return "R"
    return "LR"


def _l2_base(m):
    """The code base of G(2,m): its largest cell count, on the middle diagonal, is m // 2."""
    return _code_base(m // 2)


def _running_codes(m, fill, base):
    """g(base) of the first K cells of a fill order of G(2,m), for K = 0..k.

    With `base` from `_l2_base`, `_decode(code, base)` is g.
    """
    cells = [base ** d for d in range(2 * m - 3)]
    g = 0
    out = [g]
    for x, y in fill(m):
        g += cells[x + y - 3]
        out.append(g)
    return out


def _l2_best(m, base):
    """(code of the larger g, direction) of the two candidates, for K = 0..k."""
    for g_left, g_right in zip(_running_codes(m, _column_fill, base),
                               _running_codes(m, _row_fill, base)):
        direction = _direction(g_left, g_right)
        yield (g_right if direction == "R" else g_left), direction


def directions(params):
    """The l=2 direction row: 'L', 'R' or 'LR' for r = 0..k, no polynomial built."""
    _require_l2(params)
    return [direction for _g, direction in _l2_best(params.m, _l2_base(params.m))][::-1]


@dataclass(frozen=True)
class BoundRow:
    r: int
    J: Poly
    D: Poly
    E: Poly | None
    direction: str | None


@dataclass(frozen=True)
class BoundTable:
    params: GrassParams
    rows: tuple

    def row(self, r) -> BoundRow:
        return self.rows[r]

    def E_exponent_list(self):
        """Exponents of the E_r, None where an E_r is not a monomial."""
        out = []
        for row in self.rows[1:]:
            c = row.E.coeffs
            mono = sum(1 for x in c if x) == 1 and c[-1] == 1
            out.append(row.E.degree if mono else None)
        return out


def _table_from_codes(params, base, best, direction_row):
    """The table from the largest code of each span K = 0..k, in `base`.

    `best[k]` is the code of the whole grid, n(base).  J_r is `best[k - r]`;
    D_r = n - J_r has no borrows, since each coefficient of J_r is at most
    n's, and E_r = D_r - D_{r-1} = J_{r-1} - J_r is decoded signed.  Each
    printed polynomial is decoded once, and no Poly arithmetic is done.
    """
    k = params.k
    n = best[k]
    rows = []
    prev_J = None
    for r, direction in enumerate(direction_row):
        J = best[k - r]
        E = None if r == 0 else _decode(prev_J - J, base, signed=True)
        rows.append(BoundRow(r, _decode(J, base), _decode(n - J, base), E, direction))
        prev_J = J
    return BoundTable(params, tuple(rows))


def bound_table(params, guard=DEFAULT_IDEAL_GUARD) -> BoundTable:
    """J_r / D_r / E_r for r = 0..k.

    For l = 2 each spanning dimension is settled by the two candidates and
    the direction is recorded.  Their codes for every K come from one pass
    over each candidate's fill order, adding one cell at a time: O(k) integer
    steps and no unions built.  Otherwise every ideal is enumerated
    (guarded).
    """
    if params.l == 2:
        base = _l2_base(params.m)
        best, direction_row = zip(*_l2_best(params.m, base))
        return _table_from_codes(params, base, best, direction_row[::-1])
    return exhaustive_bound_table(params, guard)


def union_table(params, guard=DEFAULT_IDEAL_GUARD):
    """The grid, and every order ideal in table order, grouped by g_U.

    A group is (span, g_U, whether g_U is its span's largest, the maxima of
    its ideals as grid indices).  Ideals sort by span, g_U and maxima, all as
    integers (codes as in `grassgrid._walk`); g_U(1) is the span, so ideals
    with equal codes are adjacent and one Poly is decoded per group.
    """
    grid = _guarded_grid(params, guard)
    base = _grid_base(grid)
    indices = range(len(grid))
    rows = sorted([(ideal.bit_count(), g, _picked(indices, maxima))
                   for _addable, ideal, maxima, g in _walk(grid, base)])
    runs = [(K, g, [maxima for _K, _g, maxima in run])
            for (K, g), run in itertools.groupby(rows, key=operator.itemgetter(0, 1))]
    best = [0] * (len(grid) + 1)
    for K, g, _run in runs:
        best[K] = g
    return grid, [(K, _decode(g, base), g == best[K], run) for K, g, run in runs]


def exhaustive_bound_table(params, guard=DEFAULT_IDEAL_GUARD) -> BoundTable:
    """J_r / D_r / E_r by sweeping every order ideal; any l, guarded.

    The walk's g codes are compared as integers, which is the lex order of
    the polynomials (see `grassgrid._walk`); the table is read from the
    largest code of each span.
    """
    grid = _guarded_grid(params, guard)
    base = _grid_base(grid)
    return _table_from_codes(params, base, _span_maxima(grid, base),
                             [None] * (len(grid) + 1))


def cardinality(point) -> int:
    """|G_{(x,y)}| = xy - x(x+1)/2 for l = 2."""
    x, y = point
    return x * y - x * (x + 1) // 2


def krull_C(params, d):
    """Least spanning dimension of an l=2 union of Krull dimension d.

    C(-1) = 0; otherwise the minimum of the cardinalities at the two ends
    of the diagonal x+y-3 = d, which is d+1 for d <= m-2; infinity for d
    above 2m-4.
    """
    _require_l2(params)
    m = params.m
    if d < -1:
        raise ValueError(f"d={d} below -1")
    if d == -1:
        return 0
    if d > 2 * m - 4:
        return float("inf")
    # the diagonal runs inside 1 <= x < y <= m from x = left to x = right
    left, right = max(1, d + 3 - m), (d + 2) // 2
    return min(cardinality((left, d + 3 - left)), cardinality((right, d + 3 - right)))


def krull_dK(params, K) -> int:
    """Largest Krull dimension among l=2 unions of spanning dimension <= K.

    The largest d with C(d) <= K, by bisection: C is nondecreasing, with
    C(-1) = 0 <= K and C(2m-3) infinite.
    """
    _require_span(params, K)
    lo, hi = -1, 2 * params.m - 3
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if krull_C(params, mid) <= K:
            lo = mid
        else:
            hi = mid
    return lo


def admissible(params, point) -> bool:
    """Whether (a,b) can start an optimal grid: c(a,b) < C(a+b-3+1)."""
    _require_l2(params)
    return cardinality(point) < krull_C(params, point[0] + point[1] - 3 + 1)


def threshold_report(params):
    """Predicted fill direction per spanning dimension from d(K).

    5*d(K) > 6m-5 forces filling rows from the bottom (direction R);
    5*d(K) <= 6m-25 forces filling columns from the left (direction L);
    in between the regime is undetermined.  Exact integer arithmetic for
    the printed 1.2m-1 / 1.2m-5 thresholds.
    """
    _require_l2(params)
    m = params.m
    out = []
    for K in range(params.k + 1):
        d = krull_dK(params, K)
        if 5 * d > 6 * m - 5:
            regime = "right"
        elif 5 * d <= 6 * m - 25:
            regime = "left"
        else:
            regime = "undetermined"
        out.append({"K": K, "d": d, "regime": regime})
    return out
