"""Lane arithmetic of the cell walk against the field tables, and the walk's
columns against one `det` per minor."""

import pytest

from schubert_unions.gf import det
from schubert_unions.grassgrid import (
    GrassParams,
    SchubertUnion,
    canonicalize,
    down_closure,
    full_grid,
    gaussian_binomial,
)
from schubert_unions.pluecker import cell_matrices, generator_matrix

from test_pluecker import LANE_FIELDS, field_lanes, lane_sum

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def lane_vectors(draw):
    q = draw(st.sampled_from(LANE_FIELDS))
    n = draw(st.integers(1, 40))
    vector = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(vector), draw(vector), draw(st.integers(0, q - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lane_vectors())
def test_lane_arithmetic_is_the_field_tables(case):
    q, a, b, v = case
    field, lanes = field_lanes(q)
    assert lane_sum(lanes, a, b) == bytes(map(field.add, a, b))
    scaled = int.from_bytes(lanes.encode(bytes(a), v), "little")
    assert lanes.decode(scaled, len(a)) == bytes(field.mul(v, x) for x in a)


# q = 27 takes the 16-bit lanes; the others, 8-bit lanes of every kind
WALK_FIELDS = (2, 3, 4, 5, 8, 9, 27)
WALK_POINTS = 2000   # most points of one example


@st.composite
def walked_unions(draw):
    """(q, params, union): a down-set of G(l,m), l <= 3 and m <= 6, of at
    most WALK_POINTS F_q-points, or None for the full grid when it fits."""
    q = draw(st.sampled_from(WALK_FIELDS))
    l = draw(st.integers(1, 3))
    params = GrassParams(l, draw(st.integers(l + 1, 6)))
    if draw(st.booleans()) and gaussian_binomial(params.m, l, q) <= WALK_POINTS:
        return q, params, None
    # each drawn point joins the maxima while the union stays small enough
    union = canonicalize(params, ())
    for alpha in draw(st.lists(st.sampled_from(full_grid(params)), min_size=1, max_size=4)):
        grown = canonicalize(params, down_closure((*union.maxima, alpha)))
        if grown.point_count()(q) <= WALK_POINTS:
            union = grown
    return q, params, union


@settings(derandomize=True, deadline=None, max_examples=100)
@given(walked_unions())
# 16-bit lanes over cells with free entries: a union and a full grid
@example((27, GrassParams(3, 5), SchubertUnion(GrassParams(3, 5), [(1, 2, 5), (1, 3, 4)])))
@example((27, GrassParams(1, 3), None))
def test_walk_columns_are_dets(case):
    # the walk and pluecker_vector share gf._levels, so only det checks the plan
    q, params, union = case
    f, _lanes = field_lanes(q)
    gm = generator_matrix(f, params, union)
    columns = iter(gm.columns)
    for alpha in gm.rows:
        for mat in cell_matrices(f, params, alpha):
            want = bytes(det(f, [[row[c - 1] for c in rows] for row in mat])
                         for rows in gm.rows)
            assert next(columns) == want, (alpha, mat)
    assert next(columns, None) is None
