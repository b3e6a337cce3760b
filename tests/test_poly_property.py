"""Poly's text form on random polynomials: the same bytes as the term-by-term
formatter it replaced, and parse() reads it back.  Codes of polynomials in a
`_code_base` base decode back to them, and a difference of two codes decodes
signed to the Poly difference.  The text and digit lists written straight from
codes equal the decoded Poly's."""

from unittest import mock

import pytest

from schubert_unions import grassgrid
from schubert_unions.grassgrid import Poly, _code_base, _code_texts, _decode, _digits

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_str(p):
    """The formatter before the per-term f-strings: highest degree first."""
    if not p.coeffs:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "q" if mag == 1 else f"{mag}q"
        else:
            body = f"q^{e}" if mag == 1 else f"{mag}q^{e}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


# zeros, units and multi-digit coefficients of both signs
COEFFS = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-10**6, 10**6))


@settings(max_examples=500, deadline=None)
@given(st.lists(COEFFS, max_size=25))
def test_str_matches_reference_and_parses_back(coeffs):
    p = Poly(coeffs)
    assert str(p) == reference_str(p)
    assert Poly.parse(str(p)) == p


# largest coefficients at and around every item-size boundary, and any
TOPS = st.one_of(st.sampled_from([0, 1, 127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1]),
                 st.integers(0, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signed_decode_matches_poly_subtraction(data):
    top = data.draw(TOPS)
    coeffs = st.lists(st.one_of(st.sampled_from([0, top]), st.integers(0, top)), max_size=25)
    p, r = Poly(data.draw(coeffs)), Poly(data.draw(coeffs))
    base = _code_base(top)
    assert top < base // 2
    assert _decode(p(base), base) == p
    assert _decode(p(base) - r(base), base, signed=True) == p - r


# +-1 at degrees 0 and 1, the zero polynomial, negative leading digits and
# constants, in every example: coefficient lists, lowest degree first
UNSIGNED_CASES = [[], [1], [0, 1], [1, 1], [0, 0, 1], [7], [255], [0, 255, 1]]
SIGNED_CASES = UNSIGNED_CASES[:-2] + [[-1], [0, -1], [1, -1], [-1, 1], [-5], [-128],
                                      [3, -2], [0, 0, -128], [127, 0, -1]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([256, 1 << 16]), st.booleans(), st.integers(1, 5), st.data())
def test_code_texts_match_decode(base, signed, block, data):
    # every digit of the base, signed or not; blocks of 1..5 codes end inside
    # the list
    low, high = (-base // 2, base // 2 - 1) if signed else (0, base - 1)
    digit = st.one_of(st.sampled_from([0, 1, -1, low, high] if signed else [0, 1, high]),
                      st.integers(low, high))
    polys = data.draw(st.lists(st.lists(digit, max_size=12), max_size=12))
    polys += SIGNED_CASES if signed else UNSIGNED_CASES
    codes = [sum(c * base ** e for e, c in enumerate(p)) for p in polys]
    want = [_decode(code, base, signed) for code in codes]
    assert want == [Poly(p) for p in polys]
    with mock.patch.object(grassgrid, "_TEXT_BLOCK", block):
        assert _code_texts(codes, base, signed) == list(map(str, want))
    assert [_digits(code, base, signed).tolist() for code in codes] == \
        [p.to_list() for p in want]
