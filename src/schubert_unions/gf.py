"""Arithmetic in GF(q) for small prime powers; rank and minors over GF(q).

Elements are integers 0..q-1.  For q = p^e with e > 1 the integer's base-p
digits are the coefficients of a polynomial over GF(p), reduced modulo a
fixed irreducible modulus so results are reproducible:

    GF(4): x^2 + x + 1      GF(8): x^3 + x + 1      GF(9): x^2 + 1

Only small fields are supported; they exist to validate the point-count
polynomials and to drive the brute-force weight oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# modulus digits, lowest degree first
DEFAULT_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

_PRIMES = (2, 3, 5, 7, 11, 13)


def _poly_mul_mod(a, b, modulus, p):
    """Multiply digit tuples over GF(p) and reduce by the monic modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    e = len(modulus) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * modulus[j]) % p
    return tuple(out[:e])


def _is_irreducible(modulus, p):
    """Exhaustive check; a root test suffices for degree <= 3."""
    e = len(modulus) - 1
    if modulus[-1] != 1:
        return False

    def value_at(x):
        v = 0
        for c in reversed(modulus):
            v = (v * x + c) % p
        return v

    if e <= 1:
        return e == 1
    if any(value_at(x) == 0 for x in range(p)):
        return False
    if e <= 3:
        return True
    # trial division by monic polynomials of degree 2..e//2
    for d in range(2, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            # long division remainder
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


class Field:
    """GF(q); supplies add/sub/neg/mul/inv on integers 0..q-1."""

    def __init__(self, q, modulus=None):
        if q < 2:
            raise ValueError(f"q={q} is not a prime power")
        p = next((r for r in _PRIMES if q % r == 0), None)
        if p is None:
            raise ValueError(f"q={q} has no small prime factor")
        e = 0
        qq = q
        while qq > 1:
            if qq % p:
                raise ValueError(f"q={q} is not a prime power")
            qq //= p
            e += 1
        self.q, self.p, self.e = q, p, e
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                if q not in DEFAULT_MODULI:
                    raise ValueError(f"no default modulus for q={q}; pass one")
                modulus = DEFAULT_MODULI[q]
            modulus = tuple(x % p for x in modulus)
            if len(modulus) != e + 1 or not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is not irreducible of degree {e}")
            self.modulus = modulus
        digits = [self._digits(a) for a in range(q)]
        self._add = [[self._undigits([(x + y) % p for x, y in zip(da, db)])
                      for db in digits] for da in digits]
        self._neg = [self._undigits([-x % p for x in da]) for da in digits]
        self._mul = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = inv

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _undigits(self, digits):
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    def _mul_slow(self, a, b):
        if self.e == 1:
            return a * b % self.p
        prod = _poly_mul_mod(self._digits(a), self._digits(b), self.modulus, self.p)
        return self._undigits(prod)

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            if x and y:
                acc = self._add[acc][self._mul[x][y]]
        return acc

    def __repr__(self):
        return f"Field(GF({self.q}))"


def row_reduce(field, matrix):
    """Reduced row echelon form over the field; returns (rref, rank)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = field.inv(rows[rank][col])
        rows[rank] = [field.mul(scale, x) for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rows, rank


def rank(field, matrix) -> int:
    return row_reduce(field, matrix)[1]


def det(field, matrix) -> int:
    """Determinant of a square matrix over the field, by elimination.

    Independent of `maximal_minors`, which tests compare against it.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    acc = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            acc = field.neg(acc)
        acc = field.mul(acc, rows[col][col])
        ic = field.inv(rows[col][col])
        for i in range(col + 1, n):
            if rows[i][col]:
                c = field.mul(rows[i][col], ic)
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[col])]
    return acc


@lru_cache(maxsize=16)
def _laplace_plan(l, m):
    """Expansion terms of the i x i minors on rows 1..i, for i = 2..l.

    Level i lists, for each i-subset S of the m columns in lexicographic
    order, the terms (column c, index of the (i-1)-minor on S minus c,
    whether the sign is negative) of the expansion along row i.  The top
    level is therefore in `full_grid` order.
    """
    index = {(c,): c for c in range(m)}
    plan = []
    for i in range(2, l + 1):
        level, nxt = [], {}
        for cols in itertools.combinations(range(m), i):
            nxt[cols] = len(level)
            level.append(tuple(
                (c, index[cols[:t] + cols[t + 1:]], (i - 1 + t) % 2 == 1)
                for t, c in enumerate(cols)))
        plan.append(tuple(level))
        index = nxt
    return tuple(plan)


def maximal_minors(field, matrix) -> tuple:
    """All l x l minors of an l x m matrix, columns in lexicographic order.

    One Laplace expansion shared by every minor: the minors of the first i
    rows on each i-subset of columns are built from the (i-1)-minors of the
    first i-1 rows, so no minor is recomputed and nothing is eliminated.
    """
    add, mul, neg = field._add, field._mul, field._neg
    prev = matrix[0]
    for row, level in zip(matrix[1:], _laplace_plan(len(matrix), len(prev))):
        cur = []
        for terms in level:
            acc = 0
            for c, j, negative in terms:
                x = row[c]
                if x:
                    y = prev[j]
                    if y:
                        t = mul[x][y]
                        acc = add[acc][neg[t] if negative else t]
            cur.append(acc)
        prev = cur
    return tuple(prev)
