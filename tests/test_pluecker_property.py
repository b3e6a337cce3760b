"""Lane arithmetic of the cell walk against the field tables."""

import pytest

from test_pluecker import LANE_FIELDS, field_lanes, lane_sum

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


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
