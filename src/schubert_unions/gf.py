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

The Laplace plan of the maximal minors, `_levels`, is built here and nowhere
else: `maximal_minors` reads it one matrix at a time and the cell walk of
`pluecker` over whole cells.  `det`, by elimination, shares nothing with it
and is the reference the tests hold both to.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# generator matrices are held one byte per entry (pluecker.GeneratorMatrix)
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

    Independent of the Laplace plan (`_levels`): tests hold both readers of
    the plan to it.
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


def _levels(l, m, rows):
    """The Laplace plan of the minors on `rows`, l-subsets of columns 1..m.

    Per row i = 1..l, the size of level i and, per column c, its expansion
    terms.  Level l is `rows`; level i-1 holds every S minus c for S at
    level i, in lex order, and level 0 is the empty minor 1.  The terms on
    column c are (index k of S at level i, j) for every S at level i that
    holds c, where j is the index of S minus c at level i-1 when the
    cofactor's sign is +, and that plus the size of level i-1 when it is -.
    So the minor at k of rows 1..i is the sum, over the columns c, of row
    i's entry at c times signed entry j of rows 1..i-1.
    """
    levels = []
    sets = list(rows)
    for i in range(l, 0, -1):
        lower = sorted({s[:t] + s[t + 1:] for s in sets for t in range(i)})
        index = {s: j for j, s in enumerate(lower)}
        by_column = [[] for _ in range(m)]
        for k, s in enumerate(sets):
            for t, c in enumerate(s):
                sign = (i - 1 + t) % 2 * len(lower)
                by_column[c - 1].append((k, index[s[:t] + s[t + 1:]] + sign))
        levels.append((len(sets), by_column))
        sets = lower
    return levels[::-1]


@lru_cache(maxsize=16)
def _full_levels(l, m):
    """`_levels` of every l-subset of the m columns, in lexicographic order."""
    return _levels(l, m, list(itertools.combinations(range(1, m + 1), l)))


def maximal_minors(field, matrix) -> tuple:
    """All l x l minors of an l x m matrix, columns in lexicographic order.

    The Laplace plan of `_levels`, read one matrix at a time: the minors of
    the first i rows come from the signed (i-1)-minors of the rows above, so
    no minor is recomputed and nothing is eliminated.  The cell walk of
    `pluecker` reads the same plan over whole cells; `det` is the
    independent reference that tests hold both to.
    """
    add, mul, neg = field._add, field._mul, field._neg
    prev = [1]
    for row, (size, by_column) in zip(matrix, _full_levels(len(matrix), len(matrix[0]))):
        signed = prev + [neg[y] for y in prev]
        cur = [0] * size
        for x, terms in zip(row, by_column):
            if x:
                for k, j in terms:
                    cur[k] = add[cur[k]][mul[x][signed[j]]]
        prev = cur
    return tuple(prev)
