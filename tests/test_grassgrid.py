import itertools
import random
import re

import pytest

from schubert_unions import grassgrid
from schubert_unions.grassgrid import (
    GrassParams,
    NotDownwardClosed,
    Poly,
    SchubertUnion,
    TooLarge,
    _code_base,
    _decode,
    _grid_base,
    _picked,
    _walk,
    canonicalize,
    cell_count,
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
    upper_covers,
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
        above = [b for b in grid if point_leq(a, b) and sum(b) - sum(a) == 1]
        assert sorted(upper_covers(a, params.m)) == above


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
        u = canonicalize(params, pts)
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
    # span() reads g(1) for enumerated unions, so count the point set itself
    for params in (GrassParams(2, 7), GrassParams(3, 6)):
        for u in enumerate_ideals(params):
            assert u.point_count()(1) == len(u.ideal())


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


def test_grand_total_builds_no_closure(monkeypatch):
    expected = {(l, m): grand_total(GrassParams(l, m))
                for m in range(2, 11) for l in range(1, min(m, 6))}

    def refuse(*args):
        raise AssertionError("down_closure called")

    monkeypatch.setattr(grassgrid, "down_closure", refuse)
    for (l, m), n in expected.items():
        assert grand_total(GrassParams(l, m)) == n


def test_grand_total_matches_full_union():
    # grand_total once read the full union's point count
    for m in range(2, 11):
        for l in range(1, min(m, 6)):
            params = GrassParams(l, m)
            assert grand_total(params) == SchubertUnion.full(params).point_count(), params


def test_partition_bijection_basics():
    p = GrassParams(3, 6)
    assert partition_to_grid(p, (0, 0, 0)) == (1, 2, 3)
    assert grid_to_partition(p, (1, 2, 3)) == (0, 0, 0)


@pytest.mark.parametrize("c", [(0, 0), (0, 0, 0, 0), (1, -1, 0), (2, 1, 1)])
def test_partition_to_grid_refuses_invalid_tuples(c):
    with pytest.raises(ValueError, match=re.escape(f"invalid partition tuple {c}")):
        partition_to_grid(GrassParams(3, 6), c)


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


@pytest.mark.parametrize("text", [
    '{"l": 2, "m": 5}',
    '[1,2]',
    '{"l":2,"m":5,"maxima":3}',
    '{"l":2,"m":5,"maxima":[3]}',
])
def test_union_from_json_refuses_malformed_text(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        SchubertUnion.from_json(text)


def test_union_refuses_attribute_assignment():
    u = SchubertUnion(GrassParams(2, 5), [(2, 4)])
    with pytest.raises(AttributeError, match="immutable"):
        u.maxima = ()
    assert u.maxima == ((2, 4),)


def test_poly_basics():
    p = Poly.parse("q^4+2q^3+2q^2+q+1")
    assert p.to_list() == [1, 1, 2, 2, 1]
    assert str(p) == "q^4+2q^3+2q^2+q+1"
    assert p(2) == 16 + 16 + 8 + 2 + 1
    assert str(Poly.parse("q^9+q^8-q^6")) == "q^9+q^8-q^6"
    assert Poly.zero().degree == -1
    assert str(Poly.zero()) == "0"
    assert Poly.monomial(3, 2) - Poly.monomial(3, 2) == Poly.zero()


@pytest.mark.parametrize("text", ["q^2-+1", "2q^2-", "q^2++q", "1 2", "+", "q^2 3"])
def test_poly_parse_refuses_malformed_text(text):
    with pytest.raises(ValueError, match="cannot parse .*" + re.escape(repr(text))):
        Poly.parse(text)


def test_poly_parse_allows_spaces_around_signs():
    assert Poly.parse("q^4 + q^3") == Poly.parse("q^4+q^3")
    assert Poly.parse(" q^9 + q^8 -  q^6 ") == Poly.parse("q^9+q^8-q^6")
    assert Poly.parse("-q + 1") == Poly((1, -1))


@pytest.mark.parametrize("l,m", [(True, 4), (2.0, 5), (2, 5.0), ("2", 5)])
def test_grass_params_refuse_non_integers(l, m):
    with pytest.raises(ValueError, match=re.escape(f"got l={l!r}, m={m!r}")):
        GrassParams(l, m)


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
             if GrassParams(l, m).k <= 56] + [GrassParams(4, 8)]
    assert GrassParams(3, 8) in grids and GrassParams(1, 56) in grids
    for params in grids:
        grid = full_grid(params)
        reference = list(below_table_down_sets(grid))
        assert list(down_sets(grid)) == reference, params
        # the walk's maxima and g_U(q) agree with rebuilding them per ideal
        unions = list(enumerate_ideals(params, guard=params.k))
        assert len(unions) == len(reference), params
        for u, pts in zip(unions, reference):
            rebuilt = canonicalize(params, pts)
            assert u.maxima == rebuilt.maxima and u.ideal() == pts, (params, pts)
            assert u.point_count() == cell_count(pts, params.l), (params, pts)
    assert list(down_sets([])) == [frozenset()]


def test_enumerated_point_counts_are_read(monkeypatch):
    from schubert_unions import grassgrid

    def refuse(points, l):
        raise AssertionError("cell_count called")

    monkeypatch.setattr(grassgrid, "cell_count", refuse)
    assert all(u.point_count()(1) == u.span() for u in enumerate_ideals(GrassParams(3, 6)))


def test_enumerate_ideals_never_compares_points(monkeypatch):
    from schubert_unions import grassgrid

    def refuse(a, b):
        raise AssertionError("point_leq called")

    monkeypatch.setattr(grassgrid, "point_leq", refuse)
    assert sum(1 for _ in enumerate_ideals(GrassParams(3, 6))) == 66
    assert sum(1 for _ in enumerate_ideals(GrassParams(2, 7))) == 64


@pytest.mark.parametrize("params", [GrassParams(l, m) for l in (2, 3) for m in range(l + 1, 9)]
                         + [GrassParams(2, m) for m in (9, 10)] + [GrassParams(4, 8)],
                         ids=repr)
def test_walk_codes_decode_to_cell_counts(params):
    grid = full_grid(params)
    base = _grid_base(grid)
    for _addable, ideal, _maxima, g in _walk(grid, base):
        pts = list(_picked(grid, ideal))
        assert _decode(g, base) == cell_count(pts, params.l), pts
        assert _decode(g, base)(1) == ideal.bit_count() == len(pts), pts


@pytest.mark.parametrize("params", [GrassParams(2, m) for m in range(4, 9)]
                         + [GrassParams(3, 6), GrassParams(3, 7)], ids=repr)
def test_walk_code_gives_span_and_krull(params):
    # the enumerate table reads the span as g_U(1) and Krull as deg g_U, and
    # the maxima as grid indices
    grid = full_grid(params)
    base = _grid_base(grid)
    for _addable, ideal, maxima, g in _walk(grid, base):
        poly = _decode(g, base)
        indices = _picked(range(len(grid)), maxima)
        assert indices == [i for i in range(len(grid)) if maxima >> i & 1]
        assert poly(1) == ideal.bit_count()
        assert poly.degree == max((cell_dimension(grid[i], params.l) for i in indices),
                                  default=-1)


def reference_walk(points, base):
    """`_walk` as it was when a frame held the next index to try: each frame
    scans every later point for one whose lower covers are all chosen."""
    index = {a: i for i, a in enumerate(points)}
    covers = [sum(1 << index[b] for b in grassgrid.lower_covers(a)) for a in points]
    cells = [base ** cell_dimension(a, len(a)) for a in points]
    n = len(points)
    stack = [(0, 0, 0, 0)]
    while stack:
        nxt, ideal, maxima, g = frame = stack.pop()
        yield frame
        for j in range(nxt, n):
            cov = covers[j]
            if ideal & cov == cov:
                stack.append((j + 1, ideal | 1 << j, maxima & ~cov | 1 << j, g + cells[j]))


def assert_walks_agree(points, base):
    # (ideal, maxima, g) frame by frame, in order
    frames = [frame[1:] for frame in _walk(points, base)]
    assert frames == [frame[1:] for frame in reference_walk(points, base)]


WALK_GRIDS = [GrassParams(l, m) for m in range(2, 57) for l in range(1, m)
              if GrassParams(l, m).k <= 56] + [GrassParams(4, 8)]


@pytest.mark.parametrize("params", WALK_GRIDS, ids=repr)
def test_walk_matches_index_scan_reference(params):
    grid = full_grid(params)
    assert_walks_agree(grid, _grid_base(grid))


def test_walk_matches_index_scan_reference_on_sub_down_sets():
    # the walk of weights --union: the down-sets of G_U, in base q
    rng = random.Random(28)
    grids = [GrassParams(2, 12), GrassParams(3, 8), GrassParams(3, 9), GrassParams(4, 9)]
    checked = 0
    while checked < 50:
        grid = full_grid(rng.choice(grids))
        ground = sorted(down_closure(rng.sample(grid, rng.randrange(1, 5))))
        if len(ground) <= 36:
            assert_walks_agree(ground, rng.choice([2, 3, 4, _grid_base(grid)]))
            checked += 1


def test_walk_frame_holds_addable_points():
    # a frame's mask holds exactly the points after the last one added whose
    # lower covers are all chosen
    grid = full_grid(GrassParams(3, 7))
    covers = [set(grassgrid.lower_covers(a)) for a in grid]
    for addable, ideal, _maxima, _g in _walk(grid, 1):
        chosen = set(_picked(grid, ideal))
        last = ideal.bit_length() - 1
        expected = [j for j in range(last + 1, len(grid)) if covers[j] <= chosen]
        assert _picked(range(len(grid)), addable) == expected


def test_decode_order_is_lex_order():
    # a code's integer order is Poly's order while every coefficient is below the base
    rng = random.Random(21)
    base = 256
    polys = [Poly([rng.randrange(base) for _ in range(rng.randrange(5))]) for _ in range(300)]
    for p in polys:
        code = p(base)
        assert _decode(code, base) == p
    for p, r in itertools.combinations(polys, 2):
        assert (p(base) < r(base)) == (p < r) and (p(base) == r(base)) == (p == r)


def test_code_base_is_least_power_of_256_above_twice_the_top():
    assert [_code_base(top) for top in (0, 127, 128, 2**15 - 1, 2**15, 2**31, 2**63 - 1)] == \
        [2**8, 2**8, 2**16, 2**16, 2**32, 2**64, 2**64]
    # the largest count of one cell dimension
    assert _grid_base(full_grid(GrassParams(4, 8))) == 2**8
    assert _grid_base([(i,) for i in range(1, 300)]) == 2**8
    assert _grid_base(full_grid(GrassParams(2, 300))) == 2**16


def test_enumerated_unions_build_no_point_set():
    # span() reads g(1); ideal() fills the slot from the maxima on first use
    unions = list(enumerate_ideals(GrassParams(3, 6)))
    spans = [u.span() for u in unions]
    assert all(u._ideal is None for u in unions)
    assert spans == [len(u.ideal()) for u in unions]
    assert all(u._ideal is not None for u in unions)
