import itertools
import random

import pytest

from schubert_unions.grassgrid import (
    GrassParams,
    NotDownwardClosed,
    Poly,
    SchubertUnion,
    TooLarge,
    canonicalize,
    cell_dimension,
    count_text,
    down_closure,
    down_sets,
    enumerate_ideals,
    full_grid,
    gaussian_binomial,
    grand_total,
    grid_to_partition,
    lower_covers,
    partition_to_grid,
    partition_weight,
    point_leq,
    validate_point,
)


def test_params_validation():
    GrassParams(2, 7)
    with pytest.raises(ValueError):
        GrassParams(3, 3)
    with pytest.raises(ValueError):
        GrassParams(0, 4)
    assert GrassParams(2, 5).k == 10
    assert GrassParams(3, 6).delta == 9
    # k stays exact far beyond 64 bits
    assert GrassParams(40, 120).k == 114556848244965165743109806892471


def test_full_grid_smallest():
    assert full_grid(GrassParams(2, 3)) == [(1, 2), (1, 3), (2, 3)]


def test_full_grid_sizes():
    assert len(full_grid(GrassParams(2, 5))) == 10
    g = full_grid(GrassParams(3, 6))
    assert len(g) == 20
    assert g[0] == (1, 2, 3) and g[-1] == (4, 5, 6)


def test_ideal_example_g27():
    u = SchubertUnion(GrassParams(2, 7), [(3, 5)])
    assert u.ideal() == {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
                         (2, 5), (3, 4), (3, 5)}


def test_ideal_empty_and_full():
    p = GrassParams(2, 6)
    assert SchubertUnion.empty(p).ideal() == frozenset()
    assert SchubertUnion.full(p).ideal() == frozenset(full_grid(p))


def test_canonicalize_basic():
    p = GrassParams(2, 4)
    u = canonicalize(p, {(1, 2), (1, 3), (2, 3)})
    assert u.maxima == ((2, 3),)


def test_canonicalize_union_of_ideals():
    p = GrassParams(2, 4)
    pts = {(1, 2), (1, 3)} | {(1, 2), (2, 3)}
    assert canonicalize(p, pts).maxima == ((2, 3),)


def test_canonicalize_rejects_gaps():
    p = GrassParams(2, 4)
    with pytest.raises(NotDownwardClosed):
        canonicalize(p, {(1, 2), (2, 3)})


def test_canonicalize_roundtrip_exhaustive():
    for params in (GrassParams(2, 6), GrassParams(3, 5)):
        for u in enumerate_ideals(params):
            assert canonicalize(params, u.ideal()) == u


# Every down-set of these grids is checked against the pairwise definitions
# that canonicalize and ideal() used before they walked grid covers.
COVER_GRIDS = [GrassParams(l, m) for l in (2, 3) for m in range(l + 1, 8)]


def pairwise_maxima(pts):
    return tuple(sorted(a for a in pts
                        if not any(a != b and point_leq(a, b) for b in pts)))


def scanned_ideal(params, maxima):
    return frozenset(b for b in full_grid(params)
                     if any(point_leq(b, a) for a in maxima))


@pytest.mark.parametrize("params", COVER_GRIDS, ids=repr)
def test_canonicalize_maxima_match_pairwise(params):
    for pts in down_sets(full_grid(params)):
        u = canonicalize(params, pts)
        assert u.maxima == pairwise_maxima(pts)
        assert u.ideal() == pts


@pytest.mark.parametrize("params", COVER_GRIDS, ids=repr)
def test_ideal_matches_full_grid_scan(params):
    for pts in down_sets(full_grid(params)):
        maxima = pairwise_maxima(pts)
        assert SchubertUnion(params, maxima).ideal() == scanned_ideal(params, maxima)


@pytest.mark.parametrize("params", COVER_GRIDS, ids=repr)
def test_covers_are_one_step_neighbours(params):
    grid = full_grid(params)
    for a in grid:
        below = [b for b in grid if point_leq(b, a) and sum(a) - sum(b) == 1]
        assert sorted(lower_covers(a)) == below


def stack_walk_ideal(maxima):
    """SchubertUnion.ideal() as it was before the walk became down_closure."""
    seen = set(maxima)
    stack = list(maxima)
    while stack:
        for beta in lower_covers(stack.pop()):
            if beta not in seen:
                seen.add(beta)
                stack.append(beta)
    return frozenset(seen)


def pairwise_refusal(pts):
    """canonicalize's message for a set that is not downward closed, as it
    was built from the pairwise maxima before it read the down-closure."""
    maxima = pairwise_maxima(pts)
    missing = sorted(stack_walk_ideal(maxima) - pts)
    return f"missing points below maxima, e.g. {missing[:3]}"


@pytest.mark.parametrize("params", [GrassParams(3, 7), GrassParams(3, 8),
                                    GrassParams(2, 10), GrassParams(4, 8)], ids=repr)
def test_lower_cover_maxima_and_closure_match_old_rules(params):
    for pts in down_sets(full_grid(params)):
        u = SchubertUnion._from_down_set(params, pts)
        assert u.maxima == pairwise_maxima(pts)
        assert down_closure(u.maxima) == stack_walk_ideal(u.maxima) == pts


def test_canonicalize_refusal_matches_pairwise_path():
    rng = random.Random(14)
    grids = [GrassParams(2, 7), GrassParams(3, 7), GrassParams(2, 10), GrassParams(4, 8)]
    refused = 0
    while refused < 200:
        params = rng.choice(grids)
        grid = full_grid(params)
        pts = frozenset(rng.sample(grid, rng.randint(1, len(grid) // 2)))
        if stack_walk_ideal(pts) == pts:
            continue
        with pytest.raises(NotDownwardClosed) as info:
            canonicalize(params, pts)
        assert str(info.value) == pairwise_refusal(pts)
        refused += 1


@pytest.mark.parametrize("l, m, pts, message", [
    (2, 4, [(1, 2), (2, 3)], "[(1, 3)]"),
    (2, 5, [(2, 4)], "[(1, 2), (1, 3), (1, 4)]"),
    (2, 5, [(1, 5), (2, 3)], "[(1, 2), (1, 3), (1, 4)]"),
    (2, 7, [(1, 2), (1, 3), (3, 5)], "[(1, 4), (1, 5), (2, 3)]"),
    (3, 6, [(1, 2, 3), (2, 4, 6)], "[(1, 2, 4), (1, 2, 5), (1, 2, 6)]"),
    (3, 6, [(1, 2, 4)], "[(1, 2, 3)]"),
])
def test_canonicalize_not_downward_closed(l, m, pts, message):
    params = GrassParams(l, m)
    with pytest.raises(NotDownwardClosed) as info:
        canonicalize(params, pts)
    assert str(info.value) == f"missing points below maxima, e.g. {message}"


def test_antichain_enforced():
    p = GrassParams(2, 5)
    with pytest.raises(ValueError):
        SchubertUnion(p, [(2, 4), (1, 3)])


def test_spanning_dimension_examples():
    assert SchubertUnion(GrassParams(2, 5), [(2, 5)]).span() == 7
    u = SchubertUnion(GrassParams(3, 6), [(1, 5, 6), (2, 3, 6)])
    assert u.span() == 13
    assert SchubertUnion.empty(GrassParams(2, 5)).span() == 0


def test_point_count_examples():
    assert SchubertUnion(GrassParams(2, 5), [(2, 5)]).point_count() == \
        Poly.parse("q^4+2q^3+2q^2+q+1")
    u = SchubertUnion(GrassParams(3, 6), [(1, 5, 6), (3, 4, 5)])
    assert u.point_count() == Poly.parse("2q^6+2q^5+3q^4+3q^3+2q^2+q+1")


def test_point_count_from_listed_ideal():
    # sum q^{x+y-3} over the nine points of the (3,5) ideal in G(2,7)
    u = SchubertUnion(GrassParams(2, 7), [(3, 5)])
    expect = {}
    for x, y in u.ideal():
        expect[x + y - 3] = expect.get(x + y - 3, 0) + 1
    assert u.point_count() == Poly(
        tuple(expect.get(i, 0) for i in range(max(expect) + 1)))
    assert u.point_count() == Poly.parse("q^5+2q^4+2q^3+2q^2+q+1")


def test_krull_examples():
    assert SchubertUnion(GrassParams(2, 5), [(4, 5)]).krull() == 6
    assert SchubertUnion.empty(GrassParams(2, 5)).krull() == -1
    for params in (GrassParams(2, 7), GrassParams(3, 6)):
        assert SchubertUnion.full(params).krull() == params.delta


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_ideals(GrassParams(2, 5))) == 16
    assert sum(1 for _ in enumerate_ideals(GrassParams(2, 6))) == 32
    for m in range(3, 9):
        n = sum(1 for _ in enumerate_ideals(GrassParams(2, m)))
        assert n == 2 ** (m - 1)


def test_enumerate_g36_complete():
    unions = list(enumerate_ideals(GrassParams(3, 6)))
    assert len(unions) == 66
    assert len(set(unions)) == 66
    assert SchubertUnion.empty(GrassParams(3, 6)) in unions
    assert SchubertUnion.full(GrassParams(3, 6)) in unions


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        list(enumerate_ideals(GrassParams(2, 9)))
    assert sum(1 for _ in enumerate_ideals(GrassParams(2, 9), guard=36)) == 256


def test_enumerate_guard_builds_no_grid(monkeypatch):
    from schubert_unions import grassgrid

    def refuse(params):
        raise AssertionError("full_grid called")

    monkeypatch.setattr(grassgrid, "full_grid", refuse)
    with pytest.raises(TooLarge, match="grid has 4999950000 points, guard is 28"):
        next(enumerate_ideals(GrassParams(2, 100000)))
    with pytest.raises(TooLarge, match="grid has 36 points, guard is 35"):
        next(enumerate_ideals(GrassParams(2, 9), guard=35))


def test_count_text_never_fails():
    assert count_text(53743987) == "53743987"
    assert count_text(10 ** 4299) == str(10 ** 4299)
    # past str()'s default limit of 4300 digits: the largest power of 2 not above
    assert count_text(2 ** 20000) == "at least 2^20000"
    assert count_text(3 * 2 ** 20000) == "at least 2^20001"


def test_intersection_of_cycle_ideals_is_min_tuple():
    params = GrassParams(3, 6)
    grid = full_grid(params)
    for alpha, gamma in itertools.combinations(grid, 2):
        mins = tuple(min(a, g) for a, g in zip(alpha, gamma))
        lhs = SchubertUnion(params, [alpha]).ideal() & \
            SchubertUnion(params, [gamma]).ideal()
        if all(x < y for x, y in zip(mins, mins[1:])):
            assert lhs == SchubertUnion(params, [mins]).ideal()
        else:
            assert lhs == frozenset()


def test_span_equals_poly_at_one():
    for params in (GrassParams(2, 7), GrassParams(3, 6)):
        for u in enumerate_ideals(params):
            assert u.point_count()(1) == u.span()


def test_degree_equals_krull():
    for params in (GrassParams(2, 8), GrassParams(3, 6)):
        for u in enumerate_ideals(params):
            assert u.point_count().degree == u.krull()


def test_grand_total_matches_product_formula():
    for params in (GrassParams(2, 4), GrassParams(2, 5), GrassParams(3, 6),
                   GrassParams(2, 7)):
        n = grand_total(params)
        assert n(1) == params.k
        for q in (2, 3, 4, 5):
            assert n(q) == gaussian_binomial(params.m, params.l, q)


def test_partition_bijection_basics():
    p = GrassParams(3, 6)
    assert partition_to_grid(p, (0, 0, 0)) == (1, 2, 3)
    assert grid_to_partition(p, (1, 2, 3)) == (0, 0, 0)


def test_partition_column_example():
    # the ideal of (1,7) in G(2,7) is the c-column {(c1, 0) : 0 <= c1 <= 5}
    p = GrassParams(2, 7)
    u = SchubertUnion(p, [(1, 7)])
    cs = {grid_to_partition(p, a) for a in u.ideal()}
    assert cs == {(c1, 0) for c1 in range(6)}


def test_partition_roundtrip_and_weight():
    for params in (GrassParams(3, 6), GrassParams(2, 7), GrassParams(4, 7)):
        for alpha in full_grid(params):
            c = grid_to_partition(params, alpha)
            assert partition_to_grid(params, c) == alpha
            assert sum(c) <= params.m - params.l
            assert partition_weight(c) == cell_dimension(alpha, params.l)


def test_point_leq():
    assert point_leq((1, 3), (2, 3))
    assert not point_leq((2, 3), (1, 4))


def test_union_json_roundtrip():
    u = SchubertUnion(GrassParams(2, 7), [(1, 7), (3, 5)])
    assert u.to_json() == '{"l": 2, "m": 7, "maxima": [[1, 7], [3, 5]]}'
    assert SchubertUnion.from_json(u.to_json()) == u


def test_poly_basics():
    p = Poly.parse("q^4+2q^3+2q^2+q+1")
    assert p.to_list() == [1, 1, 2, 2, 1]
    assert str(p) == "q^4+2q^3+2q^2+q+1"
    assert p(2) == 16 + 16 + 8 + 2 + 1
    assert str(Poly.parse("q^9+q^8-q^6")) == "q^9+q^8-q^6"
    assert Poly.zero().degree == -1
    assert str(Poly.zero()) == "0"
    assert Poly.monomial(3, 2) - Poly.monomial(3, 2) == Poly.zero()


def test_poly_reciprocal():
    p = Poly.parse("q^3+2q")
    assert p.reversed_within(4) == Poly.parse("2q^3+q")
    with pytest.raises(ValueError):
        p.reversed_within(2)


def test_validate_point_rejects_booleans():
    params = GrassParams(2, 5)
    assert validate_point(params, [1, 2]) == (1, 2)
    for bad in ([True, 2], [1, True], [False, 2]):
        with pytest.raises(ValueError, match="non-integer entries"):
            validate_point(params, bad)
    with pytest.raises(ValueError, match="non-integer entries"):
        SchubertUnion(params, [(True, 2)])


def below_table_down_sets(points):
    """down_sets as it was before it read lower covers: a table of every
    earlier point below each point, built with point_leq."""
    n = len(points)
    below = []
    for i, a in enumerate(points):
        below.append([j for j in range(i) if point_leq(points[j], a)])
    chosen = set()

    def rec(i):
        if i == n:
            yield frozenset(points[j] for j in chosen)
            return
        yield from rec(i + 1)
        if all(j in chosen for j in below[i]):
            chosen.add(i)
            yield from rec(i + 1)
            chosen.remove(i)

    yield from rec(0)


def test_down_sets_match_below_table():
    grids = [GrassParams(l, m) for m in range(2, 57) for l in range(1, m)
             if GrassParams(l, m).k <= 56]
    assert GrassParams(3, 8) in grids and GrassParams(1, 56) in grids
    for params in grids:
        grid = full_grid(params)
        assert list(down_sets(grid)) == list(below_table_down_sets(grid)), params


def test_enumerate_ideals_never_compares_points(monkeypatch):
    from schubert_unions import grassgrid

    def refuse(a, b):
        raise AssertionError("point_leq called")

    monkeypatch.setattr(grassgrid, "point_leq", refuse)
    assert sum(1 for _ in enumerate_ideals(GrassParams(3, 6))) == 66
    assert sum(1 for _ in enumerate_ideals(GrassParams(2, 7))) == 64
