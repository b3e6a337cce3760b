import pytest

from schubert_unions.grassgrid import (
    GrassParams,
    Poly,
    SchubertUnion,
    enumerate_ideals,
)
from schubert_unions.optimizer import (
    admissible,
    best_union,
    bound_table,
    cardinality,
    exhaustive_bound_table,
    krull_C,
    krull_dK,
    left_candidate,
    right_candidate,
    threshold_report,
)

from schubert_unions.optimizer import _column_fill, _row_fill, _running_counts

from table_fixtures import DIRECTIONS, E_EXPONENTS


def test_candidate_edges():
    for m in (5, 7):
        p = GrassParams(2, m)
        assert left_candidate(p, 0) == SchubertUnion.empty(p)
        assert right_candidate(p, 0) == SchubertUnion.empty(p)
        assert left_candidate(p, p.k) == SchubertUnion.full(p)
        assert right_candidate(p, p.k) == SchubertUnion.full(p)


def test_candidate_fill_g27():
    p = GrassParams(2, 7)
    left = left_candidate(p, 9)
    # column 1 holds six cells, the next three go to column 2 bottom-up
    assert left.ideal() == {(1, y) for y in range(2, 8)} | {(2, 3), (2, 4), (2, 5)}
    right = right_candidate(p, 9)
    # rows y=2,3,4 hold 1+2+3 cells, the next three go to row y=5
    assert right.ideal() == {(x, y) for y in (2, 3, 4) for x in range(1, y)} | \
        {(1, 5), (2, 5), (3, 5)}


def test_candidate_shapes():
    # left unions look like S_(x,m) u S_(x+1,y); right like S_(x,x+1) u S_(a,x+2)
    for m in (5, 6, 7, 8):
        p = GrassParams(2, m)
        for K in range(1, p.k + 1):
            lm = left_candidate(p, K).maxima
            assert len(lm) <= 2
            if len(lm) == 2:
                assert lm[0][1] == m and lm[1][0] == lm[0][0] + 1
            rm = right_candidate(p, K).maxima
            assert len(rm) <= 2
            if len(rm) == 2:
                assert rm[1][1] == rm[1][0] + 1 and rm[0][1] == rm[1][1] + 1


def test_candidates_are_valid_spans():
    p = GrassParams(2, 8)
    for K in range(p.k + 1):
        lu, ru = left_candidate(p, K), right_candidate(p, K)
        assert lu.span() == K and ru.span() == K


def test_lex_compare():
    # Poly's own ordering is the lexicographic comparison the optimizer uses
    assert Poly.parse("q^5") > Poly.parse("3q^4+2q^3")
    assert Poly.parse("2q^4+q") > Poly.parse("q^4+3q^3")
    assert Poly.parse("q^4+2q^3+2q^2+q+1") > Poly.parse("q^4+q^3+2q^2+q+1")
    assert Poly.parse("q^4+q^3+2q^2+q+1") < Poly.parse("q^4+2q^3+2q^2+q+1")
    assert Poly.parse("q+1") == Poly.parse("q+1")
    assert not Poly.parse("q+1") < Poly.parse("q+1")
    assert not Poly.parse("q+1") > Poly.parse("q+1")


def test_best_union_direction_spots():
    p7 = GrassParams(2, 7)
    assert best_union(p7, p7.k - 4)[1] == "R"
    p10 = GrassParams(2, 10)
    assert best_union(p10, p10.k - 21)[1] == "L"
    assert best_union(p10, p10.k - 22)[1] == "R"
    p9 = GrassParams(2, 9)
    assert best_union(p9, p9.k - 18)[1] == "LR"


def test_direction_tables():
    for (l, m), expect in DIRECTIONS.items():
        p = GrassParams(l, m)
        got = [best_union(p, p.k - r)[1] for r in range(p.k + 1)]
        assert got == expect, (l, m)


@pytest.mark.parametrize("m", range(3, 31))
def test_running_counts_match_candidates(m):
    # the l=2 table adds one cell at a time; the candidate unions are the reference
    p = GrassParams(2, m)
    left = _running_counts(m, _column_fill)
    right = _running_counts(m, _row_fill)
    assert len(left) == len(right) == p.k + 1
    table = bound_table(p)
    for K in range(p.k + 1):
        lu, ru = left_candidate(p, K), right_candidate(p, K)
        assert (left[K], right[K]) == (lu.point_count(), ru.point_count())
        assert table.row(p.k - K).J == max(left[K], right[K])


def test_bound_table_er_sequences():
    for (l, m), exponents in E_EXPONENTS.items():
        table = bound_table(GrassParams(l, m))
        got = table.E_exponent_list()
        assert got == exponents, (l, m)


def test_bound_table_210_witnesses():
    table = bound_table(GrassParams(2, 10))
    assert table.row(22).E == Poly.parse("q^9+q^8-q^6")
    assert table.row(24).E == Poly.parse("q^6")


def test_bound_table_monotone_and_edges():
    for params in (GrassParams(2, 7), GrassParams(3, 6)):
        table = bound_table(params)
        n = SchubertUnion.full(params).point_count()
        assert table.row(0).J == n
        assert table.row(params.k).J == Poly.zero()
        for r in range(params.k):
            assert table.row(r).J >= table.row(r + 1).J
            if r >= 1:
                assert table.row(r).E == table.row(r).D - table.row(r - 1).D


def test_bound_table_matches_exhaustive():
    for params in [GrassParams(2, m) for m in range(3, 9)] + [GrassParams(3, 6)]:
        fast = bound_table(params)
        slow = exhaustive_bound_table(params)
        for r in range(params.k + 1):
            assert fast.row(r).J == slow.row(r).J, (params, r)


def test_two_cycle_optimality():
    # some lex-maximal union with at most two maxima exists for every K
    for m in range(3, 9):
        params = GrassParams(2, m)
        best = {}
        for u in enumerate_ideals(params):
            K = u.span()
            g = u.point_count()
            have = best.get(K)
            if have is None or g > have[0]:
                best[K] = (g, {u})
            elif g == have[0]:
                have[1].add(u)
        for K, (_g, opt) in best.items():
            assert any(len(u.maxima) <= 2 for u in opt), (m, K)


def test_admissible_examples():
    p11 = GrassParams(2, 11)
    assert admissible(p11, (4, 9))
    # d <= m-3: only (1, d+2) admissible, plus (2,3) when d = 2
    for m in (7, 9, 11):
        p = GrassParams(2, m)
        for d in range(0, m - 2):
            points = [(x, d + 3 - x) for x in range(1, (d + 3 + 1) // 2)
                      if x < d + 3 - x <= m]
            adm = [pt for pt in points if admissible(p, pt)]
            expect = [(1, d + 2)] if d != 2 else [(1, 4), (2, 3)]
            assert adm == expect, (m, d)


def test_admissible_top_row_thresholds():
    # top-row points (x, m), m = 12: admissible only when x >= m-3, or
    # x <= m/5 + 2 for x+m odd, x <= m/5 + 1 for x+m even
    m = 12
    p = GrassParams(2, m)
    for x in range(1, m):
        if admissible(p, (x, m)):
            bound = m / 5 + (2 if (x + m) % 2 else 1)
            assert x >= m - 3 or x <= bound, x
        d = x + m - 3
        assert admissible(p, (x, m)) == \
            (cardinality((x, m)) < krull_C(p, d + 1))


def test_krull_C_formulas():
    p = GrassParams(2, 8)
    assert krull_C(p, -1) == 0
    for d in range(0, 7):
        assert krull_C(p, d) == d + 1
    # spot values of the two closed forms
    m = 8
    for d in range(m - 2, 2 * m - 4 + 1):
        x = d - m + 3
        c1 = x * m - x * (x + 1) // 2
        c2 = (d * d + 6 * d + 8) // 8 if d % 2 == 0 else (d * d + 8 * d + 7) // 8
        assert krull_C(p, d) == min(c1, c2)
    assert krull_C(p, 2 * m - 4 + 1) == float("inf")


def test_krull_dK_examples():
    assert krull_dK(GrassParams(2, 5), 1) == 0
    assert krull_dK(GrassParams(2, 5), 7) == 4
    assert krull_dK(GrassParams(2, 5), 0) == -1
    assert krull_dK(GrassParams(2, 5), 10) == 6


def test_krull_dK_exhaustive():
    for m in range(3, 9):
        params = GrassParams(2, m)
        best = {}
        for u in enumerate_ideals(params):
            K = u.span()
            best[K] = max(best.get(K, -1), u.krull())
        running = -1
        for K in range(params.k + 1):
            running = max(running, best[K])
            assert krull_dK(params, K) == running, (m, K)


def test_threshold_report_consistency():
    for m in (7, 9, 10):
        params = GrassParams(2, m)
        report = threshold_report(params)
        for row in report:
            direction = best_union(params, row["K"])[1]
            if row["regime"] == "right":
                assert direction in ("R", "LR"), row
            elif row["regime"] == "left":
                assert direction in ("L", "LR"), row


def test_threshold_report_forced_right_large_m():
    params = GrassParams(2, 30)
    report = threshold_report(params)
    rows = [r for r in report if r["d"] == 40]
    assert rows and all(r["regime"] == "right" for r in rows)
    for r in rows:
        assert best_union(params, r["K"])[1] in ("R", "LR")


def test_threshold_report_small_m_vacuous():
    # for m = 3 neither window is ever satisfied
    report = threshold_report(GrassParams(2, 3))
    assert all(r["regime"] == "undetermined" for r in report)


def test_lex_order_agrees_with_point_counts():
    # the lex-maximal union also maximizes the point count at small q
    for m in range(3, 9):
        params = GrassParams(2, m)
        by_span = {}
        for u in enumerate_ideals(params):
            by_span.setdefault(u.span(), []).append(u.point_count())
        for K, polys in by_span.items():
            lex_best = max(polys)
            for q in (2, 3):
                assert lex_best(q) == max(p(q) for p in polys), (m, K, q)


def test_out_of_range_K():
    with pytest.raises(ValueError):
        left_candidate(GrassParams(2, 5), 11)
    with pytest.raises(ValueError):
        krull_dK(GrassParams(2, 5), -1)


def parity_krull_C(params, d):
    """krull_C as it was before it read cardinality at the diagonal's ends."""
    m = params.m
    if d == -1:
        return 0
    if d > 2 * m - 4:
        return float("inf")
    if d <= m - 2:
        return d + 1
    x = d - m + 3
    c1 = x * m - x * (x + 1) // 2
    if d % 2 == 0:
        c2 = (d * d + 6 * d + 8) // 8
    else:
        c2 = (d * d + 8 * d + 7) // 8
    return min(c1, c2)


def test_krull_C_matches_parity_forms():
    for m in range(3, 60):
        p = GrassParams(2, m)
        for d in range(-1, 2 * m):
            assert krull_C(p, d) == parity_krull_C(p, d), (m, d)
