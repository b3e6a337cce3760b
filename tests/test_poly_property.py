"""Poly's text form on random polynomials: the same bytes as the term-by-term
formatter it replaced, and parse() reads it back.  Codes of polynomials in a
`_code_base` base decode back to them, and a difference of two codes decodes
signed to the Poly difference."""

import pytest

from schubert_unions.grassgrid import Poly, _code_base, _decode

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
