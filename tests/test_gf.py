import itertools
import random

import pytest

from schubert_unions.gf import Field, det, maximal_minors, rank, row_reduce

SUPPORTED = (2, 3, 4, 5, 7, 8, 9)
ALL_SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 11, 13)


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
    f = Field(q)
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
