"""Arithmetic in GF(q) for prime powers q up to MAX_Q; rank and minors over GF(q).

Elements are integers 0..q-1 whose base-p digits, lowest first, are the
coefficients of a polynomial over GF(p) reduced modulo a monic modulus of
degree e (q = p^e).  Every q takes one path: the tables come from one digit
recurrence, and a modulus is accepted exactly when every nonzero element has
an inverse, that is, when F_p[x]/(modulus) is a field.  The default modulus
is the first monic x^e + c_{e-1} x^{e-1} + ... + c_0 that gives a field, in
lexicographic order of (c_{e-1}, ..., c_0); so results are reproducible:

    GF(p): x    GF(4): x^2 + x + 1    GF(8): x^3 + x + 1    GF(9): x^2 + 1
    GF(16): x^4 + x + 1    GF(25): x^2 + 2    GF(27): x^3 + 2x + 1

The fields exist to validate the point-count polynomials and to build the
codes the weight oracle sweeps.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# generator matrices are written one byte per entry (pluecker.write_binary)
MAX_Q = 256


def _mul_inv(p, e, add, modulus):
    """(mul, inv) tables of F_p[x]/(modulus), or None if it is not a field.

    For b < p, a*b scales a's digits by b (row b when a >= p, as ab = ba).
    Beyond, a*b = a*(b % p) + x*(a*(b // p)), where multiplying by x shifts
    the digits up and replaces x^e by minus the modulus's lower terms.  A
    nonzero row with no 1 is a zero divisor, which exists exactly when the
    modulus is reducible.
    """
    q, top = p ** e, p ** (e - 1)
    # wrap[c] is c * x^e = -c * (modulus - x^e)
    wrap = [sum(-c * m % p * p ** j for j, m in enumerate(modulus[:e])) for c in range(p)]
    times_x = [add[v % top * p][wrap[v // top]] for v in range(q)]
    mul = []
    for a in range(q):
        row = [a * b % p if a < p else mul[b][a] for b in range(p)]
        for b in range(p, q):
            row.append(add[row[b % p]][times_x[row[b // p]]])
        if a and 1 not in row:
            return None
        mul.append(row)
    return mul, [0] + [row.index(1) for row in mul[1:]]


def prime_power(q):
    """(p, e) with q = p^e; ValueError unless q is a prime power up to MAX_Q."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    if q > MAX_Q:
        raise ValueError(f"q={q} is above {MAX_Q}, the largest supported field")
    p = next(r for r in range(2, q + 1) if q % r == 0)
    e = 1
    while p ** e < q:
        e += 1
    if p ** e != q:
        raise ValueError(f"q={q} is not a prime power")
    return p, e


class Field:
    """GF(q); supplies add/sub/neg/mul/inv on integers 0..q-1."""

    def __init__(self, q, modulus=None):
        p, e = prime_power(q)
        self.q, self.p, self.e = q, p, e
        # a + b digit by digit: the lowest digits, then the rest shifted down
        add = [list(range(q))]
        for a in range(1, q):
            up = add[a // p]
            add.append([(a + b) % p + p * up[b // p] for b in range(q)])
        if modulus is None:
            candidates = (tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=e))
        else:
            modulus = tuple(x % p for x in modulus)
            candidates = [modulus] if len(modulus) == e + 1 and modulus[-1] == 1 else []
        found = next(((m, t) for m in candidates if (t := _mul_inv(p, e, add, m))), None)
        if found is None:
            raise ValueError(f"modulus {modulus} is not irreducible of degree {e}")
        self.modulus, (self._mul, self._inv) = found
        self._add = add
        self._neg = [row.index(0) for row in add]

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
    This is the single-matrix reference behind `pluecker.pluecker_vector`;
    the cell walk of `pluecker` runs the same expansion over whole cells.
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
