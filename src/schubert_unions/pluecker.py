"""F_q-points of Schubert unions by cells, Pluecker vectors, generator matrices.

Every point of the cell labelled alpha has a unique l x m basis matrix in
reduced lower-left triangular form: the trailing 1 of row i sits in column
a_i, is the only nonzero entry of that column, and everything right of it in
its row is zero.  The free entries are the sum(a_i) - l(l+1)/2 remaining
positions; sweeping them over the field enumerates the cell exactly once.
Pluecker coordinates are the maximal minors taken in increasing column
order, so the cell's own coordinate is 1 and the output is deterministic.

The minors are linear in the last row, whose free entries are the fastest
digits of the odometer.  So a cell is enumerated one setting of its upper
rows at a time: their (l-1)-minors come from one shared Laplace expansion
(`gf.maximal_minors`), the last row's trailing 1 gives a base vector and each
free column c the vector T_c of its cofactors.  As the entry of column c
runs through the field, each point's vector is its parent's, copied, with
v * T_c added to the minors on column c only.  `cell_matrices` and
`pluecker_vector` are the single-matrix reference the tests hold this walk
to.  The walk computes the minors on given rows only: a union's generator
matrix walks G_U, never the whole grid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

from . import gf
from .grassgrid import (
    GrassParams,
    SchubertUnion,
    TooLarge,
    count_text,
    full_grid,
    gaussian_binomial,
)

DEFAULT_POINT_GUARD = 10 ** 7


def free_positions(alpha, l):
    """Free (row, column) slots of the reduced form, row-major; 1-based columns."""
    pivots = set(alpha)
    out = []
    for i, a in enumerate(alpha):
        for j in range(1, a):
            if j not in pivots:
                out.append((i, j))
    return out


def cell_matrices(field, params, alpha):
    """All reduced-form basis matrices of the cell, free entries in odometer order.

    The same matrix object is yielded every time, its free slots rewritten in
    place before each yield: use it before asking for the next one.  With
    `pluecker_vector` this is the tests' reference for `enumerate_points`.
    """
    l, m = params.l, params.m
    slots = [(i, j - 1) for i, j in free_positions(alpha, l)]
    mat = [[0] * m for _ in range(l)]
    for i, a in enumerate(alpha):
        mat[i][a - 1] = 1
    for values in itertools.product(field.elements(), repeat=len(slots)):
        for (i, j), v in zip(slots, values):
            mat[i][j] = v
        yield mat


def pluecker_vector(field, params, matrix):
    """Minors of the l x m matrix at every grid index, in grid order."""
    return gf.maximal_minors(field, matrix)


def _last_row_terms(params, rows):
    """Per column c, the terms (index of S in rows, index of S minus c among
    the (l-1)-subsets in lex order, negative) of the minors' expansion along
    the last row that involve c, for each S in rows.
    """
    l, m = params.l, params.m
    upper = {s: j for j, s in enumerate(itertools.combinations(range(1, m + 1), l - 1))}
    by_column = [[] for _ in range(m)]
    for i, cols in enumerate(rows):
        for t, c in enumerate(cols):
            by_column[c - 1].append((i, upper[cols[:t] + cols[t + 1:]], (l - 1 + t) % 2 == 1))
    return by_column


def _cell_vectors(field, params, alpha, terms, size):
    """Minors on the `size` rows of `terms` of the cell's points, in `cell_matrices` order.

    Rows 1..l-1 run through `cell_matrices` of G(l-1, m).  For each setting
    the last row's pivot gives the base vector, each free column c of the
    last row the nonzero cofactors (row index, value) of T_c, and
    `_odometer` runs the free entries.
    """
    l, m = params.l, params.m
    neg, mul = field._neg, field._mul
    pivot = alpha[-1] - 1
    free = [c for c in range(pivot) if c + 1 not in alpha]
    if l == 1:
        uppers = [None]
    else:
        uppers = cell_matrices(field, GrassParams(l - 1, m), alpha[:-1])
    for upper in uppers:
        prev = (1,) if upper is None else gf.maximal_minors(field, upper)

        def cofactors(c):
            """The nonzero entries (row index, value) of T_c."""
            return [(s, neg[prev[j]] if negative else prev[j])
                    for s, j, negative in terms[c] if prev[j]]

        base = [0] * size
        for s, y in cofactors(pivot):
            base[s] = y
        steps = [[[(s, row[y]) for s, y in cof] for row in mul[1:]]
                 for cof in map(cofactors, free)]
        yield from _odometer(tuple(base), steps, field._add)


def _odometer(vec, steps, add):
    """vec plus v_d * T_d summed over d, for every digit tuple, last digit fastest.

    steps[d] lists v * T_d for v = 1..q-1 as (index, value) pairs; a digit 0
    adds nothing, so each prefix's vector is yielded as is, then copied and
    updated where T_d is nonzero for every other value of the last digit.
    """
    if not steps:
        yield vec
        return
    last = steps[-1]
    for pre in _odometer(vec, steps[:-1], add):
        yield pre
        for scaled in last:
            child = list(pre)
            for s, y in scaled:
                child[s] = add[child[s]][y]
            yield tuple(child)


def _check_point_guard(field, params, union, guard):
    """TooLarge when the points to enumerate exceed the guard.

    The count is the Gaussian binomial for all of G(l,m) (union None) and
    g_U(q) for a union, so the full grid is not built first.
    """
    if union is None:
        expected = gaussian_binomial(params.m, params.l, field.q)
    else:
        expected = union.point_count()(field.q)
    if expected > guard:
        raise TooLarge(f"enumeration of {count_text(expected)} points exceeds guard {guard}")


def _walk(field, params, cells, rows):
    """Yield (cell label, minors on rows) for each point of the cells, in order."""
    terms = _last_row_terms(params, rows)
    for alpha in cells:
        for vec in _cell_vectors(field, params, alpha, terms, len(rows)):
            yield alpha, vec


def enumerate_points(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Yield (cell label, Pluecker vector) for each point, cells in lex order."""
    _check_point_guard(field, params, union, guard)
    grid = full_grid(params)
    yield from _walk(field, params, grid if union is None else sorted(union.ideal()), grid)


@dataclass(frozen=True)
class GeneratorMatrix:
    field: gf.Field
    params: object
    union: SchubertUnion | None
    rows: tuple          # grid points labelling the rows
    columns: tuple       # per point, its Pluecker coordinates on the rows

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def k(self) -> int:
        return len(self.rows)

    def entries(self):
        """Row-major list of rows."""
        # one C-level gather per row; zip(*columns) would hold an iterator per column
        return [list(map(itemgetter(i), self.columns)) for i in range(self.k)]

    def rank(self) -> int:
        return gf.rank(self.field, self.entries())


def generator_matrix(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Generator matrix: one column per point, rows indexed by the grid.

    For a union the rows are G_U alone.  A point of cell alpha has nonzero
    minors only at S <= alpha and G_U is down-closed, so the coordinates off
    G_U are zero on every point of the union and are never computed.
    """
    _check_point_guard(field, params, union, guard)
    rows = tuple(full_grid(params) if union is None else sorted(union.ideal()))
    columns = tuple(vec for _alpha, vec in _walk(field, params, rows, rows))
    return GeneratorMatrix(field, params, union, rows, columns)


def write_text(genmat, stream):
    """One column per line, entries as integers separated by spaces."""
    # one write per block of columns, each entry's text looked up by value
    name = [str(v) for v in range(genmat.field.q)].__getitem__
    cols = genmat.columns
    for i in range(0, len(cols), 4096):
        stream.write("".join([" ".join(map(name, col)) + "\n" for col in cols[i:i + 4096]]))


def write_binary(genmat, stream):
    """JSON header line, then the matrix row-major, one byte per entry."""
    header = {
        "q": genmat.field.q,
        "l": genmat.params.l,
        "m": genmat.params.m,
        "rows": genmat.k,
        "n": genmat.n,
        "union": None if genmat.union is None
        else [list(a) for a in genmat.union.maxima],
    }
    stream.write(json.dumps(header).encode() + b"\n")
    for row in genmat.entries():
        stream.write(bytes(row))
