"""Maximal Schubert unions per spanning dimension, and Krull dimension d(K).

For l = 2 the lexicographic maximum of g_U over unions of spanning dimension
K is attained by one of two candidates: fill columns from the left, or fill
rows from the bottom.  The per-codimension maxima J_r give the upper bound
table D_r = n - J_r, E_r = D_r - D_{r-1} for the weight hierarchy.  The
largest Krull dimension reachable with span K is the largest d with
C(d) <= K for an explicit piecewise quadratic C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grassgrid import (
    DEFAULT_IDEAL_GUARD,
    GrassParams,
    Poly,
    SchubertUnion,
    canonicalize,
    enumerate_ideals,
    grand_total,
)
from .twodim import _require_l2


def _column_fill(m):
    """Cells of G(2,m) column by column from the left, each bottom up."""
    return [(x, y) for x in range(1, m) for y in range(x + 1, m + 1)]


def _row_fill(m):
    """Cells of G(2,m) row by row from the bottom, each left to right."""
    return [(x, y) for y in range(2, m + 1) for x in range(1, y)]


def _first_cells(params, K, fill):
    _require_l2(params)
    if not (0 <= K <= params.k):
        raise ValueError(f"K={K} out of range 0..{params.k}")
    return canonicalize(params, fill(params.m)[:K])


def left_candidate(params, K) -> SchubertUnion:
    """Fill whole columns left to right, then the next column bottom up."""
    return _first_cells(params, K, _column_fill)


def right_candidate(params, K) -> SchubertUnion:
    """Fill whole rows bottom to top, then the next row left to right."""
    return _first_cells(params, K, _row_fill)


def best_union(params, K):
    """Winner among the two candidates and its direction 'L', 'R' or 'LR'.

    On a tie ('LR') the polynomials agree; the left union is returned.
    Use left_candidate() and right_candidate() when both unions are wanted.
    """
    left, right = left_candidate(params, K), right_candidate(params, K)
    direction = _direction(left.point_count(), right.point_count())
    return (right if direction == "R" else left), direction


def _direction(g_left: Poly, g_right: Poly) -> str:
    """'L', 'R' or 'LR': which candidate's g is lex-larger (Poly order)."""
    if g_left > g_right:
        return "L"
    if g_left < g_right:
        return "R"
    return "LR"


def _running_counts(m, fill):
    """g of the first K cells of a fill order of G(2,m), for K = 0..k."""
    counts = [0] * (2 * m - 3)
    out = [Poly()]
    for x, y in fill(m):
        counts[x + y - 3] += 1
        out.append(Poly(counts))
    return out


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


def _table_from_best(params, best_by_span):
    k = params.k
    n = grand_total(params)
    rows = []
    prev_D = Poly.zero()
    for r in range(0, k + 1):
        J, direction = best_by_span[k - r]
        D = n - J
        E = None if r == 0 else D - prev_D
        rows.append(BoundRow(r, J, D, E, direction))
        prev_D = D
    return BoundTable(params, tuple(rows))


def bound_table(params, guard=DEFAULT_IDEAL_GUARD) -> BoundTable:
    """J_r / D_r / E_r for r = 0..k.

    For l = 2 each spanning dimension is settled by the two candidates and
    the direction is recorded.  Their g for every K comes from one pass
    over each candidate's fill order, adding one cell at a time: O(k)
    polynomial steps and no unions built.  Otherwise every ideal is
    enumerated (guarded).
    """
    if params.l == 2:
        m = params.m
        best_by_span = {}
        for K, (g_left, g_right) in enumerate(zip(_running_counts(m, _column_fill),
                                                  _running_counts(m, _row_fill))):
            direction = _direction(g_left, g_right)
            best_by_span[K] = (g_right if direction == "R" else g_left, direction)
        return _table_from_best(params, best_by_span)
    return exhaustive_bound_table(params, guard)


def optimal_unions(params, guard=DEFAULT_IDEAL_GUARD):
    """span -> (lex-max g_U, set of unions attaining it), over every order ideal."""
    best = {}
    for u in enumerate_ideals(params, guard):
        K = u.span()
        g = u.point_count()
        have = best.get(K)
        if have is None or g > have[0]:
            best[K] = (g, {u})
        elif g == have[0]:
            have[1].add(u)
    return best


def exhaustive_bound_table(params, guard=DEFAULT_IDEAL_GUARD) -> BoundTable:
    """J_r / D_r / E_r by sweeping every order ideal; any l, guarded."""
    best = optimal_unions(params, guard)
    return _table_from_best(params, {K: (g, None) for K, (g, _us) in best.items()})


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
    """Largest Krull dimension among l=2 unions of spanning dimension <= K."""
    _require_l2(params)
    if not (0 <= K <= params.k):
        raise ValueError(f"K={K} out of range 0..{params.k}")
    d = -1
    while krull_C(params, d + 1) <= K:
        d += 1
    return d


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
