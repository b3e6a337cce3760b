import tracemalloc

import pytest

from schubert_unions import duality, grassgrid
from schubert_unions.grassgrid import (
    GrassParams,
    Poly,
    SchubertUnion,
    _code_texts,
    _decode,
    _digits,
    canonicalize,
    cell_count,
    down_sets,
    enumerate_ideals,
    full_grid,
    grand_total,
)
from schubert_unions.optimizer import (
    BoundRow,
    BoundTable,
    admissible,
    best_union,
    bound_table,
    cardinality,
    directions,
    exhaustive_bound_table,
    krull_C,
    krull_dK,
    left_candidate,
    right_candidate,
    threshold_report,
    union_table,
)

from schubert_unions.optimizer import _column_fill, _l2_base, _row_fill, _running_codes

from table_fixtures import DIRECTIONS, E_EXPONENTS
from test_twodim import refuse_canonicalize


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
    base = _l2_base(m)
    left = [_decode(g, base) for g in _running_codes(m, _column_fill, base)]
    right = [_decode(g, base) for g in _running_codes(m, _row_fill, base)]
    assert len(left) == len(right) == p.k + 1
    table = bound_table(p)
    for K in range(p.k + 1):
        lu, ru = left_candidate(p, K), right_candidate(p, K)
        assert (left[K], right[K]) == (lu.point_count(), ru.point_count())
        assert table.row(p.k - K).J == max(left[K], right[K])


def test_l2_base_reads_the_largest_cell_count():
    # the middle diagonal of G(2,m) holds m // 2 cells, more than any other
    for m in range(3, 80):
        assert max(grand_total(GrassParams(2, m)).coeffs) == m // 2, m
    assert (_l2_base(254), _l2_base(255), _l2_base(256)) == (2**8, 2**8, 2**16)


def test_directions_keep_no_list_of_codes():
    # the running codes stream: a list of the k + 1 codes of each fill order
    # peaks at about 13 MB on G(2,200), and the streamed row below 2 MB
    params = GrassParams(2, 200)
    tracemalloc.start()
    try:
        row = directions(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(row) == params.k + 1
    assert peak < 6 << 20, peak


def test_directions_match_bound_table():
    for m in range(3, 31):
        p = GrassParams(2, m)
        assert directions(p) == [row.direction for row in bound_table(p).rows], m


def reference_optimal_unions(params, guard):
    """optimal_unions as it was before it compared walk codes: every
    enumerated union, compared by its Poly."""
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


def optimal_unions(params, guard):
    """span -> (lex-max g_U, set of unions attaining it), read off the
    maximal groups of `union_table`."""
    grid, base, groups = union_table(params, guard)
    return {K: (_decode(g, base), {SchubertUnion(params, [grid[i] for i in maxima])
                                   for maxima in group})
            for K, g, maximal, group in groups if maximal}


@pytest.mark.parametrize("params", [GrassParams(2, m) for m in range(4, 12)]
                         + [GrassParams(3, m) for m in range(5, 9)] + [GrassParams(4, 8)],
                         ids=repr)
def test_optimal_unions_match_poly_reference(params):
    got = optimal_unions(params, guard=params.k)
    want = reference_optimal_unions(params, guard=params.k)
    assert got.keys() == want.keys()
    for K, (g, unions) in want.items():
        assert got[K][0] == g, K
        assert got[K][1] == unions, K
        assert all(u.point_count() == g for u in got[K][1]), K


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


def reference_table_from_best(params, best_by_span):
    """The table's rows as they were built before they were read from codes:
    D = n - J and E = D_r - D_{r-1} in Poly arithmetic."""
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
    return tuple(rows)


@pytest.mark.parametrize("params", [GrassParams(2, m) for m in range(3, 41)]
                         + [GrassParams(3, m) for m in range(6, 9)] + [GrassParams(4, 8)],
                         ids=repr)
def test_bound_table_constructor_round_trips(params):
    # the one constructor takes the fields a table holds and gives it back
    table = (bound_table if params.l == 2 else exhaustive_bound_table)(params, guard=params.k)
    copy = BoundTable(table.params, table.base, table.J, table.direction_row)
    assert copy == table
    assert copy.codes() == table.codes()


def test_bound_table_takes_no_rows():
    table = bound_table(GrassParams(2, 5))
    with pytest.raises(TypeError):
        BoundTable(table.params, table.rows)


def running_polys(m, fill):
    """g of the first K cells of a fill order, K = 0..k, counted cell by cell."""
    counts = [0] * (2 * m - 3)
    out = [Poly(counts)]
    for x, y in fill(m):
        counts[x + y - 3] += 1
        out.append(Poly(counts))
    return out


@pytest.mark.parametrize("m", range(3, 41))
def test_bound_table_matches_poly_reference(m):
    params = GrassParams(2, m)
    best = []
    for left, right in zip(running_polys(m, _column_fill), running_polys(m, _row_fill)):
        direction = "L" if left > right else "R" if left < right else "LR"
        best.append((right if direction == "R" else left, direction))
    assert bound_table(params).rows == reference_table_from_best(params, best)


@pytest.mark.parametrize("params", [GrassParams(3, m) for m in range(6, 10)]
                         + [GrassParams(4, 8)], ids=repr)
def test_exhaustive_bound_table_matches_poly_reference(params):
    best = [None] * (params.k + 1)
    for pts in down_sets(full_grid(params)):
        g = cell_count(pts, params.l)
        if best[len(pts)] is None or g > best[len(pts)]:
            best[len(pts)] = g
    assert exhaustive_bound_table(params, guard=params.k).rows == \
        reference_table_from_best(params, [(J, None) for J in best])


@pytest.mark.parametrize("params", [GrassParams(2, m) for m in range(3, 41)]
                         + [GrassParams(3, m) for m in range(6, 9)] + [GrassParams(4, 8)],
                         ids=repr)
def test_table_texts_match_decode(params):
    # every J, D and E code that `bounds` prints, written and listed straight
    # from the code, against the decoded Poly
    table = bound_table(params, guard=params.k)
    for codes, signed in zip(table.codes(), (False, False, True)):
        polys = [_decode(code, table.base, signed) for code in codes]
        assert _code_texts(codes, table.base, signed) == list(map(str, polys))
        assert [_digits(code, table.base, signed).tolist() for code in codes] == \
            [p.to_list() for p in polys]


def test_bound_table_matches_exhaustive():
    for params in [GrassParams(2, m) for m in range(3, 15)] + [GrassParams(3, 6)]:
        fast = bound_table(params)
        slow = exhaustive_bound_table(params, guard=params.k)
        for r in range(params.k + 1):
            assert fast.row(r).J == slow.row(r).J, (params, r)


@pytest.mark.parametrize("l,m", [(1, 6), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 7), (3, 8), (4, 8)])
def test_bound_table_transposition_symmetry(l, m):
    # transposing the partition maps G(l,m) onto G(m-l,m), keeping the order
    # and the cell dimensions, so J, D and E agree row by row
    params, dual = GrassParams(l, m), GrassParams(m - l, m)
    table = bound_table(params, guard=params.k)
    other = exhaustive_bound_table(dual, guard=dual.k)
    for r in range(params.k + 1):
        row, twin = table.row(r), other.row(r)
        assert (row.J, row.D, row.E) == (twin.J, twin.D, twin.E), r


def test_two_cycle_optimality():
    # some lex-maximal union with at most two maxima exists for every K
    for m in range(3, 13):
        params = GrassParams(2, m)
        best = reference_optimal_unions(params, guard=params.k)
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


def test_krull_C_refuses_d_below_minus_one():
    with pytest.raises(ValueError, match="d=-2 below -1"):
        krull_C(GrassParams(2, 8), -2)


def test_krull_dK_examples():
    assert krull_dK(GrassParams(2, 5), 1) == 0
    assert krull_dK(GrassParams(2, 5), 7) == 4
    assert krull_dK(GrassParams(2, 5), 0) == -1
    assert krull_dK(GrassParams(2, 5), 10) == 6


def test_krull_C_nondecreasing():
    # krull_dK bisects on this
    for m in range(3, 60):
        p = GrassParams(2, m)
        values = [krull_C(p, d) for d in range(-1, 2 * m - 2)]
        assert values == sorted(values), m
        assert values[0] == 0 and values[-1] == float("inf")


def linear_krull_dK(params, K):
    """krull_dK as it was before the bisection: walk d up from -1."""
    d = -1
    while krull_C(params, d + 1) <= K:
        d += 1
    return d


def test_krull_dK_bisection_matches_linear_walk():
    for m in range(3, 41):
        params = GrassParams(2, m)
        for K in range(params.k + 1):
            assert krull_dK(params, K) == linear_krull_dK(params, K), (m, K)


def test_krull_dK_exhaustive():
    for m in range(3, 13):
        params = GrassParams(2, m)
        best = {}
        for u in enumerate_ideals(params, guard=params.k):
            K = u.span()
            best[K] = max(best.get(K, -1), u.krull())
        running = -1
        for K in range(params.k + 1):
            running = max(running, best[K])
            assert krull_dK(params, K) == running, (m, K)


@pytest.mark.parametrize("m", range(3, 61))
def test_threshold_report_consistency(m):
    # the threshold theorem: regime right allows only R/LR, left only L/LR
    params = GrassParams(2, m)
    by_codim = directions(params)
    allowed = {"right": ("R", "LR"), "left": ("L", "LR"), "undetermined": ("L", "R", "LR")}
    for row in threshold_report(params):
        assert by_codim[params.k - row["K"]] in allowed[row["regime"]], row


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


def reference_candidate(params, K, fill):
    """A candidate as it was when canonicalize closed its first K cells."""
    return canonicalize(params, fill(params.m)[:K])


def test_candidates_match_canonicalize_reference():
    for m in range(3, 15):
        p = GrassParams(2, m)
        for K in range(p.k + 1):
            for got, fill in ((left_candidate(p, K), _column_fill),
                              (right_candidate(p, K), _row_fill)):
                ref = reference_candidate(p, K, fill)
                assert got == ref and got.point_count() == ref.point_count(), (m, K)


def test_candidates_build_no_point_set(monkeypatch):
    refuse_canonicalize(monkeypatch)
    for m in (3, 7, 10):
        p = GrassParams(2, m)
        for K in range(p.k + 1):
            left, right = left_candidate(p, K), right_candidate(p, K)
            assert left._ideal is None and right._ideal is None
            assert best_union(p, K)[0] in (left, right)


def test_best_union_closes_no_ideal(monkeypatch):
    # the direction is read off codes, and the winner is built from its maxima
    expected = {(m, K): best_union(GrassParams(2, m), K)
                for m in range(3, 11) for K in range(GrassParams(2, m).k + 1)}

    def refuse(*args):
        raise AssertionError("down_closure called")

    for module in (grassgrid, duality):
        if hasattr(module, "down_closure"):
            monkeypatch.setattr(module, "down_closure", refuse)
    for (m, K), (union, direction) in expected.items():
        assert best_union(GrassParams(2, m), K) == (union, direction), (m, K)


def test_out_of_range_K():
    with pytest.raises(ValueError):
        left_candidate(GrassParams(2, 5), 11)
    for K in (-1, 11):
        with pytest.raises(ValueError, match=f"K={K} out of range 0..10"):
            best_union(GrassParams(2, 5), K)
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
