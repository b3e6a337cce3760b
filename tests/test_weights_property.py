"""Oracle d_1 against the minimum-weight message sweep on random unions."""

import pytest

from schubert_unions.gf import Field
from schubert_unions.grassgrid import GrassParams, enumerate_ideals
from schubert_unions.pluecker import generator_matrix
from schubert_unions.weights import min_weight_bruteforce, oracle_dr

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def small_union_codes(draw):
    """A nonempty Schubert union of G(2,4), G(2,5) or G(3,5) and a q with
    q^span <= 4096, so the message sweep stays cheap."""
    params = draw(st.sampled_from(
        [GrassParams(2, 4), GrassParams(2, 5), GrassParams(3, 5)]))
    q = draw(st.sampled_from([2, 3, 4]))
    unions = [u for u in enumerate_ideals(params)
              if u.maxima and q ** u.span() <= 4096]
    return params, q, draw(st.sampled_from(unions))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(small_union_codes())
def test_oracle_d1_is_min_weight(case):
    params, q, union = case
    field = Field(q)
    gm = generator_matrix(field, params, union)
    assert oracle_dr(field, gm, 1) == min_weight_bruteforce(field, gm)
