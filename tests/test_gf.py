import hashlib
import itertools
import json
import random
from functools import lru_cache

import pytest

from schubert_unions.gf import MAX_Q, Field, det, maximal_minors, rank, row_reduce

SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
ALL_SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 11, 13)
PRIMES = [p for p in range(2, MAX_Q + 1) if all(p % d for d in range(2, p))]
PRIME_POWERS = sorted(p ** e for p in PRIMES for e in range(1, 9) if p ** e <= MAX_Q)


@lru_cache(maxsize=None)
def field(q):
    return Field(q)


def test_gf2_basics():
    f = Field(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.inv(1) == 1


def test_gf4_modulus_forces_products():
    # with modulus x^2+x+1 the element x (=2) squares to x+1 (=3)
    f = Field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms(q):
    f = field(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms_random(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, f.neg(a)) == 0
        assert a == 0 or f.mul(a, f.inv(a)) == 1
        assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_every_other_q_up_to_max_q_refused():
    assert len(PRIME_POWERS) == 54 + 16  # primes below 256, then p^e with e > 1
    assert MAX_Q == 256 and PRIME_POWERS[-1] == 256
    for q in set(range(2, MAX_Q + 1)) - set(PRIME_POWERS):
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            Field(q)


def table_digest(f):
    return hashlib.sha256(json.dumps([f._add, f._mul, f._neg, f._inv])
                          .encode()).hexdigest()


# sha256 of the (add, mul, neg, inv) tables, recorded while GF(q) was built
# from a fixed prime list, a hand-kept moduli table and polynomial division
TABLE_DIGESTS = [
    (2, None, "a5711015077fb8f89be4ee28108bbfc14a6af8657df0e6f045a9d064f8449ec6"),
    (3, None, "87a23e0984abe8239211260598ed2eb480739b8cda86c5dc6c799619f48adf5c"),
    (4, None, "f0f9c77523c06baabc0228369e289dc56fb43f8e03bc07152973a1812ad4a88f"),
    (5, None, "cc8aa01937295c528a2a6524f5218915803a74072157835b41acd959d9d52bff"),
    (7, None, "d6421dd2ad349eac9c98fbf51c020c052c725e1d3bf578ac5fa7536fb67a55a9"),
    (8, None, "311a768389b8a313aec4a0eea284d532fb70ab10a510f90594de582ca06aa89f"),
    (9, None, "548eb8b53305a5182d5d6e1ee2af6aefb6955bf83b0131a3401823782548f2f7"),
    (11, None, "b287f101bbe2ae6f959da18b15c57abf79fef9ba92d6c30592f4375039547ffd"),
    (13, None, "d2397e680574b624a06caf37f6769b49eb7a4de36e4705c3547d03071cfe0bb7"),
    (25, (2, 0, 1), "6252c2251884054066775dab0cc044b4f5409dd21d2ebe9fa7abbea5a7fbe11f"),
]


@pytest.mark.parametrize("q,modulus,digest", TABLE_DIGESTS)
def test_tables_pinned(q, modulus, digest):
    assert table_digest(Field(q, modulus)) == digest


@pytest.mark.parametrize("q,modulus", [
    (2, (0, 1)), (4, (1, 1, 1)), (8, (1, 1, 0, 1)), (9, (1, 0, 1)),
    (16, (1, 1, 0, 0, 1)), (25, (2, 0, 1)), (27, (1, 2, 0, 1)),
])
def test_default_modulus(q, modulus):
    # the first monic x^e + c_(e-1) x^(e-1) + ... + c_0 in lexicographic
    # order of (c_(e-1), ..., c_0) that gives a field
    assert Field(q).modulus == modulus


def monic_polys(p, e):
    """Every monic polynomial of degree e over GF(p), digits lowest first."""
    return [tail + (1,) for tail in itertools.product(range(p), repeat=e)]


def poly_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def reducible(p, e):
    """The monic products of two monics of degrees d and e - d, 1 <= d < e."""
    return {poly_product(f, g, p) for d in range(1, e)
            for f in monic_polys(p, d) for g in monic_polys(p, e - d)}


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                 (3, 3), (5, 2), (7, 2)])
def test_modulus_accepted_iff_irreducible(p, e):
    bad = reducible(p, e)
    for m in monic_polys(p, e):
        if m in bad:
            with pytest.raises(ValueError, match="is not irreducible"):
                Field(p ** e, modulus=m)
        else:
            f = Field(p ** e, modulus=m)
            assert f.modulus == m
            assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, p ** e))


@pytest.mark.parametrize("modulus", [(1, 1), (1, 1, 0), (1, 1, 1, 1), (1, 1, 2)])
def test_modulus_of_wrong_degree_or_not_monic_rejected(modulus):
    # (1, 1, 2) reduces to (1, 1, 0) mod 2: degree 1, not 2
    with pytest.raises(ValueError, match="is not irreducible of degree 2"):
        Field(4, modulus=modulus)


@pytest.mark.parametrize("q", [257, 1024, 1000000000039])
def test_above_max_q_refused_before_factoring(q):
    # 1000000000039 is prime: trial division would run for minutes
    with pytest.raises(ValueError, match=f"q={q} is above 256"):
        Field(q)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        Field(4, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        Field(6)


@pytest.mark.parametrize("q", [1, 0, -1, -4])
def test_field_below_two_is_not_a_prime_power(q):
    with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
        Field(q)


def test_custom_modulus_accepted():
    f = Field(25, modulus=(2, 0, 1))  # x^2+2 is irreducible over GF(5)
    assert f.mul(5, 5) == 3  # x * x = -2 = 3


def test_rank_basics():
    f = Field(2)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(f, eye) == 3
    assert rank(f, [[0, 0], [0, 0]]) == 0


def test_row_reduce_idempotent():
    f = Field(3)
    mat = [[1, 2, 0], [2, 1, 1], [0, 0, 1]]
    rref, r = row_reduce(f, mat)
    again, r2 = row_reduce(f, rref)
    assert rref == again and r == r2


def test_rank_invariant_under_row_ops():
    rng = random.Random(7)
    for q in (2, 3, 4):
        f = Field(q)
        for _ in range(20):
            mat = [[rng.randrange(q) for _ in range(5)] for _ in range(4)]
            base = rank(f, mat)
            perm = mat[::-1]
            assert rank(f, perm) == base
            scaled = [[f.mul(2 % q if q > 2 else 1, x) for x in row] for row in mat]
            assert rank(f, scaled) == base


def test_det_small():
    f = Field(5)
    assert det(f, [[2]]) == 2
    assert det(f, [[1, 2], [3, 4]]) == (4 - 6) % 5
    assert det(f, [[1, 2], [2, 4]]) == 0


def minors_by_det(f, mat):
    """The per-minor reference: one `det` per l-subset of columns, in
    lexicographic order (the grid order of G(l,m))."""
    l, m = len(mat), len(mat[0])
    return tuple(det(f, [[row[c] for c in cols] for row in mat])
                 for cols in itertools.combinations(range(m), l))


def test_maximal_minors_small():
    f = Field(5)
    assert maximal_minors(f, [[2, 0, 3]]) == (2, 0, 3)
    # columns (1,2), (1,3), (2,3)
    assert maximal_minors(f, [[1, 2, 0], [3, 4, 1]]) == ((4 - 6) % 5, 1, 2)
    assert maximal_minors(f, [[1, 2], [2, 4]]) == (0,)


@pytest.mark.parametrize("q", ALL_SUPPORTED)
def test_maximal_minors_match_det_random(q):
    # matrices in no particular form, a third of them made rank-deficient
    rng = random.Random(1000 + q)
    f = Field(q)
    for trial in range(300):
        l = rng.randint(1, 4)
        m = rng.randint(l, 7)
        mat = [[rng.randrange(q) for _ in range(m)] for _ in range(l)]
        if trial % 3 == 0:
            # one row a multiple of another row, or zero when l == 1
            i = rng.randrange(l)
            other = mat[(i + 1) % l] if l > 1 else [0] * m
            c = rng.randrange(q)
            mat[i] = [f.mul(c, x) for x in other]
        got = maximal_minors(f, mat)
        assert got == minors_by_det(f, mat), (q, mat)
        assert any(got) == (rank(f, mat) == l), (q, mat)
