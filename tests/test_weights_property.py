"""The oracle against message sweeps: d_1 on random unions, and every r on
random column multisets."""

import itertools

import pytest

from schubert_unions.gf import Field, rank
from schubert_unions.grassgrid import GrassParams, enumerate_ideals
from schubert_unions.pluecker import generator_matrix
from schubert_unions.weights import _max_annihilated, min_weight_bruteforce, oracle_dr

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


@st.composite
def column_multisets(draw):
    """(q, k, columns): a k x n matrix whose bytes columns mix zero, repeated,
    proportional and random ones; with rank_deficient the last coordinate
    is zero throughout."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9]))
    k = draw(st.integers(2, 4 if q == 2 else 3))
    rank_deficient = draw(st.booleans())
    entry = st.integers(0, q - 1)
    columns = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple"]))
        if kind == "zero":
            col = (0,) * k
        elif kind != "random" and columns:
            col = draw(st.sampled_from(columns))
            if kind == "multiple":
                scale = Field(q)._mul[draw(st.integers(1, q - 1))]
                col = tuple(scale[x] for x in col)
        else:
            col = tuple(draw(st.lists(entry, min_size=k, max_size=k)))
        if rank_deficient:
            col = col[:-1] + (0,)
        columns.append(col)
    return q, k, list(map(bytes, columns))


def _brute_max_annihilated(field, columns, k, r):
    """Most columns killed by r messages of rank r, over every r-tuple."""
    kills = {msg: sum(1 << ci for ci, col in enumerate(columns)
                      if field.dot(msg, col) == 0)
             for msg in itertools.product(field.elements(), repeat=k)}
    best = -1
    for msgs in itertools.product(kills, repeat=r):
        common = (1 << len(columns)) - 1
        for msg in msgs:
            common &= kills[msg]
        count = common.bit_count()
        if count > best and rank(field, list(msgs)) == r:
            best = count
    return best


@settings(derandomize=True, deadline=None, max_examples=100)
@given(column_multisets())
def test_max_annihilated_matches_message_tuples(case):
    q, k, columns = case
    field = Field(q)
    for r in range(1, k + 1):
        if q ** (k * r) > 4096:
            break
        assert (_max_annihilated(field, columns, k, r)[0]
                == _brute_max_annihilated(field, columns, k, r)), r
