"""Duality and down-closure on random unions of grids beyond the exhaustive
sizes: G(l,m) with 2 <= l <= 4 and m <= 10, and for the explicit dual
G(2,<=30) and G(3,<=12)."""

import pytest

from schubert_unions.duality import dual_point_count, dual_union, dual_union_explicit
from schubert_unions.grassgrid import (
    GrassParams,
    SchubertUnion,
    cell_dimension,
    down_closure,
    full_grid,
    point_leq,
)

from test_duality import reference_dual_union_explicit
from test_grassgrid import stack_walk_ideal

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GRIDS = [GrassParams(l, m) for l in (2, 3, 4) for m in range(l + 1, 11)]


@st.composite
def point_sets(draw, max_size=5):
    """A grid and up to `max_size` distinct points of it, in any order."""
    params = draw(st.sampled_from(GRIDS))
    grid = full_grid(params)
    points = draw(st.lists(st.sampled_from(grid), max_size=max_size, unique=True))
    return params, points


@st.composite
def unions(draw):
    """A union generated by up to five random points; its maxima are the
    points that lie below no other, found pairwise."""
    params, points = draw(point_sets())
    maxima = [a for a in points if not any(a != b and point_leq(a, b) for b in points)]
    return SchubertUnion(params, maxima)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(unions())
def test_dual_matches_explicit_dual(u):
    assert dual_union(u) == dual_union_explicit(u)


EXPLICIT_GRIDS = ([GrassParams(2, m) for m in range(3, 31)]
                  + [GrassParams(3, m) for m in range(4, 13)])


@st.composite
def wide_unions(draw):
    """A union of G(2,<=30) or G(3,<=12) generated by up to 12 random points,
    drawn from the whole grid or from one cell dimension, where any points
    are an antichain."""
    params = draw(st.sampled_from(EXPLICIT_GRIDS))
    grid = full_grid(params)
    if draw(st.booleans()):
        d = draw(st.integers(0, params.delta))
        grid = [a for a in grid if cell_dimension(a, params.l) == d]
    points = draw(st.lists(st.sampled_from(grid), max_size=12, unique=True))
    maxima = [a for a in points if not any(a != b and point_leq(a, b) for b in points)]
    return SchubertUnion(params, maxima)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(wide_unions())
def test_explicit_dual_matches_assignment_reference(u):
    assert dual_union_explicit(u) == reference_dual_union_explicit(u) == dual_union(u)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(unions())
def test_biduality_and_span_complement(u):
    d = dual_union(u)
    assert dual_union(d) == u
    assert u.span() + d.span() == u.params.k


@settings(derandomize=True, deadline=None, max_examples=60)
@given(unions())
def test_dual_point_count_is_dual_union_count(u):
    assert dual_point_count(u) == dual_union(u).point_count()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(point_sets(max_size=12))
def test_down_closure_matches_stack_walk(case):
    _params, points = case
    assert down_closure(points) == stack_walk_ideal(points)
