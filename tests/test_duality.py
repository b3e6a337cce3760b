import itertools

import pytest

from schubert_unions.duality import (
    ReciprocityViolation,
    dual_point_count,
    dual_union,
    dual_union_explicit,
    rev,
)
from schubert_unions.grassgrid import (
    GrassParams,
    Poly,
    SchubertUnion,
    canonicalize,
    down_closure,
    enumerate_ideals,
    full_grid,
    grand_total,
    point_leq,
)

from table_fixtures import G36_DUAL_PAIRS
from test_twodim import refuse_canonicalize


def test_rev_examples():
    p27 = GrassParams(2, 7)
    assert rev(p27, (3, 5)) == (3, 5)
    assert rev(p27, (1, 2)) == (6, 7)
    assert rev(GrassParams(3, 6), (1, 2, 4)) == (3, 5, 6)


def test_rev_involution_and_order_reversal():
    for params in (GrassParams(3, 6), GrassParams(2, 7)):
        grid = full_grid(params)
        for a in grid:
            assert rev(params, rev(params, a)) == a
        for a in grid:
            for b in grid:
                assert point_leq(a, b) == point_leq(rev(params, b), rev(params, a))


def test_dual_examples_g27():
    p = GrassParams(2, 7)
    d = dual_union(SchubertUnion.cycle(p, (3, 5)))
    assert d.maxima == ((2, 7), (3, 4))
    assert dual_union(SchubertUnion.cycle(p, (5, 6))).maxima == ((1, 7),)
    assert dual_union(SchubertUnion.cycle(p, (3, 7))).maxima == ((3, 4),)


def test_dual_g36_row():
    u = SchubertUnion(GrassParams(3, 6), [(1, 3, 5)])
    assert dual_union(u).maxima == ((1, 5, 6), (2, 3, 6), (3, 4, 5))


def test_dual_pairs_table_g36():
    p = GrassParams(3, 6)
    for mx, dual_mx, _maximal in G36_DUAL_PAIRS:
        u = SchubertUnion(p, mx)
        d = dual_union(u)
        assert d.maxima == tuple(sorted(dual_mx)), f"dual of {mx}"
        assert dual_union_explicit(u) == d
        assert dual_union(d) == u


def test_dual_explicit_empty_and_full():
    for params in (GrassParams(2, 6), GrassParams(3, 6)):
        assert dual_union_explicit(SchubertUnion.empty(params)) == \
            SchubertUnion.full(params)
        assert dual_union_explicit(SchubertUnion.full(params)) == \
            SchubertUnion.empty(params)


def test_dual_explicit_agrees_exhaustively():
    for params in [GrassParams(2, m) for m in range(3, 8)] + [GrassParams(3, 6)]:
        for u in enumerate_ideals(params):
            assert dual_union_explicit(u) == dual_union(u)


def reference_dual_union_explicit(union):
    """dual_union_explicit as it was when it tried all l^s assignments of the
    s maxima to blocks and closed the cycles with canonicalize."""
    params = union.params
    l, m = params.l, params.m
    mx = union.maxima
    s = len(mx)
    cycles = set()
    for assign in itertools.product(range(1, l + 1), repeat=s):
        f = [0] * (l + 1)
        for j in range(l, 0, -1):
            block = l + 1 - j
            raw = m - max([0] + [mx[i][block - 1] for i in range(s) if assign[i] == block])
            f[j] = raw if j == l else min(f[j + 1] - 1, raw)
            if f[j] < j:
                break
        else:
            cycles.add(tuple(f[1:]))
    return canonicalize(params, down_closure(cycles))


EXPLICIT_GRIDS = [GrassParams(l, m) for m in range(2, 36) for l in range(1, m)
                  if GrassParams(l, m).k <= 35]


@pytest.mark.parametrize("params", EXPLICIT_GRIDS, ids=repr)
def test_dual_explicit_matches_assignment_reference(params):
    for u in enumerate_ideals(params, guard=params.k):
        assert dual_union_explicit(u) == reference_dual_union_explicit(u), u


def test_dual_explicit_tries_no_assignments(monkeypatch):
    # the least block-maxima vectors are folded in; the l^s assignments are
    # never listed
    def refuse(*args, **kwargs):
        raise AssertionError("itertools.product called")

    monkeypatch.setattr(itertools, "product", refuse)
    p = GrassParams(3, 7)
    u = SchubertUnion(p, [(1, 5, 7), (2, 4, 7), (3, 4, 6)])
    assert dual_union_explicit(u) == dual_union(u)


@pytest.mark.parametrize("params,level", [(GrassParams(3, 40), 60), (GrassParams(4, 20), 42)],
                         ids=["G(3,40)", "G(4,20)"])
def test_dual_explicit_matches_the_walk_on_level_antichains(params, level):
    # every point with coordinate sum `level`: 190 and 177 maxima, so the
    # fold holds some 100 vectors at each of its steps
    u = SchubertUnion(params, [a for a in full_grid(params) if sum(a) == level])
    d = dual_union_explicit(u)
    assert d == dual_union(u)
    # built unchecked: the checked constructor takes the same maxima
    assert SchubertUnion(params, d.maxima).maxima == d.maxima


def test_dual_union_reads_the_maxima(monkeypatch):
    # the maxima come from H_U's minimal points: the dual's point set is
    # neither rebuilt nor validated nor closed again
    refuse_canonicalize(monkeypatch)
    for params in (GrassParams(1, 4), GrassParams(2, 5), GrassParams(3, 6)):
        for u in enumerate_ideals(params):
            d = dual_union(u)
            assert d.ideal() == {rev(params, b) for b in u.h_ideal()}
            assert not any(point_leq(a, b) for a in d.maxima for b in d.maxima if a != b)
            assert list(d.maxima) == sorted(d.maxima)


def test_biduality_and_span_complement():
    for params in [GrassParams(2, m) for m in range(3, 9)] + [GrassParams(3, 6)]:
        k = params.k
        for u in enumerate_ideals(params):
            d = dual_union(u)
            assert dual_union(d) == u
            assert u.span() + d.span() == k


def test_dual_point_count_reciprocity():
    for params in [GrassParams(2, m) for m in range(3, 9)] + [GrassParams(3, 6)]:
        for u in enumerate_ideals(params):
            assert dual_point_count(u) == dual_union(u).point_count()


def test_dual_point_count_edges():
    p = GrassParams(2, 7)
    assert dual_point_count(SchubertUnion.full(p)) == Poly.zero()
    assert dual_point_count(SchubertUnion.empty(p)) == grand_total(p)
    u = SchubertUnion(p, [(3, 5)])
    both = SchubertUnion(p, [(2, 7), (3, 4)])
    assert dual_point_count(u) == both.point_count()


def test_dual_point_count_refuses_g_above_delta(monkeypatch):
    # a corrupt g of degree delta + 1 leaves h_U = n - g of that degree; the
    # union's count is patched, the grand total's is left exact
    p = GrassParams(2, 5)
    u = SchubertUnion(p, [(2, 4)])
    exact = SchubertUnion.point_count
    monkeypatch.setattr(SchubertUnion, "point_count",
                        lambda self: Poly.monomial(p.delta + 1) if self == u else exact(self))
    with pytest.raises(ReciprocityViolation, match=f"degree {p.delta + 1} > delta {p.delta}"):
        dual_point_count(u)
