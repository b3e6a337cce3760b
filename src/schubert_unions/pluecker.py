"""F_q-points of Schubert unions by cells, Pluecker vectors, generator matrices.

Every point of the cell labelled alpha has a unique l x m basis matrix in
reduced lower-left triangular form: the trailing 1 of row i sits in column
a_i, is the only nonzero entry of that column, and everything right of it in
its row is zero.  The free entries are the sum(a_i) - l(l+1)/2 remaining
positions; sweeping them over the field enumerates the cell exactly once.
Pluecker coordinates are the maximal minors taken in increasing column
order, so the cell's own coordinate is 1 and the output is deterministic.
All minors of a matrix come from one shared Laplace expansion along its rows
(`gf.maximal_minors`), not from an elimination per minor.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import gf
from .grassgrid import SchubertUnion, TooLarge, count_text, full_grid

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
    place before each yield: use it before asking for the next one.
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


def enumerate_points(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Yield (cell label, Pluecker vector) for each point, cells in lex order."""
    whole = union if union is not None else SchubertUnion.full(params)
    expected = whole.point_count()(field.q)
    if expected > guard:
        raise TooLarge(f"enumeration of {count_text(expected)} points exceeds guard {guard}")
    for alpha in sorted(whole.ideal()):
        for mat in cell_matrices(field, params, alpha):
            yield alpha, pluecker_vector(field, params, mat)


@dataclass(frozen=True)
class GeneratorMatrix:
    field: gf.Field
    params: object
    union: SchubertUnion | None
    rows: tuple          # grid points labelling the rows
    columns: tuple       # one Pluecker vector (restricted to rows) per point

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def k(self) -> int:
        return len(self.rows)

    def entries(self):
        """Row-major list of rows."""
        return [[col[i] for col in self.columns] for i in range(self.k)]

    def rank(self) -> int:
        return gf.rank(self.field, self.entries())


def generator_matrix(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Generator matrix: one column per point, rows indexed by the grid.

    For a union the rows are restricted to G_U; the dropped coordinates are
    identically zero on the union's points.
    """
    grid = full_grid(params)
    points = enumerate_points(field, params, union, guard)
    if union is None:
        row_pts = tuple(grid)
        cols = tuple(vec for _alpha, vec in points)
    else:
        row_pts = tuple(sorted(union.ideal()))
        pos = {t: i for i, t in enumerate(grid)}
        idx = [pos[t] for t in row_pts]
        cols = tuple(tuple(vec[i] for i in idx) for _alpha, vec in points)
    return GeneratorMatrix(field, params, union, row_pts, cols)


def write_text(genmat, stream):
    """One column per line, entries as integers separated by spaces."""
    for col in genmat.columns:
        stream.write(" ".join(map(str, col)) + "\n")


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
