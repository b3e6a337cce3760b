"""The count from the maxima against the cell count of the closed point set,
on random antichains of G(l,m) with l <= 5 and m <= 12."""

import pytest

from schubert_unions.grassgrid import (
    GrassParams,
    SchubertUnion,
    _code_base,
    _decode,
    cell_count,
    count_below,
    down_closure,
    full_grid,
    point_leq,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GRIDS = [GrassParams(l, m) for m in range(2, 13) for l in range(1, min(m, 6))]


@st.composite
def unions(draw):
    """A union generated by up to eight random points: its maxima are the
    points that lie below no other, found pairwise."""
    params = draw(st.sampled_from(GRIDS))
    points = draw(st.lists(st.sampled_from(full_grid(params)), max_size=8, unique=True))
    maxima = [a for a in points if not any(a != b and point_leq(a, b) for b in points)]
    return SchubertUnion(params, maxima)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(unions())
def test_count_below_matches_cell_count(u):
    g = cell_count(down_closure(u.maxima), u.params.l)
    base = _code_base(u.params.k)
    assert [count_below(u.maxima, q) for q in (1, 2, 3, 4)] == [g(1), g(2), g(3), g(4)]
    assert _decode(count_below(u.maxima, base), base) == g
    assert (u.span(), u.point_count()) == (g(1), g)
