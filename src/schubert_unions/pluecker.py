"""F_q-points of Schubert unions by cells, Pluecker vectors, generator matrices.

Every point of the cell labelled alpha has a unique l x m basis matrix in
reduced lower-left triangular form: the trailing 1 of row i sits in column
a_i, is the only nonzero entry of that column, and everything right of it in
its row is zero.  The free entries are the sum(a_i) - l(l+1)/2 remaining
positions; sweeping them over the field enumerates the cell exactly once.
Pluecker coordinates are the maximal minors taken in increasing column
order, so the cell's own coordinate is 1 and the output is deterministic.

The minors of rows 1..i are linear in row i, so a cell is walked row by
row from the empty minor 1: each vector of rows 1..i-1 gives row i's base
vector from the cofactors on its trailing 1, and each free column c of row
i splits every vector into q, digit v adding v times the cofactors T_c on
the minors that hold c.  Only the minors a later row reads are kept, from
the matrix's own rows down, so a union's generator matrix walks G_U and
never the whole grid.  `cell_matrices` and `pluecker_vector` are the
single-matrix reference the tests hold this walk to.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

from . import gf
from .grassgrid import (
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


def _levels(params, rows):
    """Per row i = 1..l, the size of level i and, per column c, its expansion terms.

    Level l is `rows`; level i-1 holds every S minus c for S at level i, in
    lex order.  The terms on column c are (index of S at level i, index of
    S minus c at level i-1, negative) for every S at level i that holds c.
    """
    levels = []
    sets = list(rows)
    for i in range(params.l, 0, -1):
        lower = sorted({s[:t] + s[t + 1:] for s in sets for t in range(i)})
        index = {s: j for j, s in enumerate(lower)}
        by_column = [[] for _ in range(params.m)]
        for k, s in enumerate(sets):
            for t, c in enumerate(s):
                by_column[c - 1].append((k, index[s[:t] + s[t + 1:]], (i - 1 + t) % 2 == 1))
        levels.append((len(sets), by_column))
        sets = lower
    return levels[::-1]


def _cell_vectors(field, alpha, levels):
    """Yield the minors on level l of the cell's points in `cell_matrices` order,
    one list of last-row children per vector of rows 1..l-1.

    Row i's base vector holds the cofactors on a_i; free column c's digit v
    adds v * T_c, its cofactors, at the sets that hold c.
    """
    add, neg, scale = field._add, field._neg, field._mul[1:]
    last = len(alpha) - 1
    vecs = [(1,)]
    for i, (a, (size, terms)) in enumerate(zip(alpha, levels)):
        free = [c for c in range(a - 1) if c + 1 not in alpha]
        out = []
        for prev in vecs:
            cof = [[(k, neg[prev[j]] if negative else prev[j])
                    for k, j, negative in terms[c] if prev[j]] for c in (a - 1, *free)]
            base = [0] * size
            for k, y in cof[0]:
                base[k] = y
            kids = [tuple(base)]
            for t in cof[1:]:
                steps = [[(k, row[y]) for k, y in t] for row in scale]
                split = []
                for vec in kids:
                    split.append(vec)
                    for step in steps:
                        child = list(vec)
                        for k, y in step:
                            child[k] = add[child[k]][y]
                        split.append(tuple(child))
                kids = split
            if i == last:
                yield kids
            else:
                out += kids
        vecs = out


def _check_point_guard(field, params, union, guard):
    """ValueError for a union of another Grassmannian; TooLarge when the
    points to enumerate exceed the guard.

    The count is the Gaussian binomial for all of G(l,m) (union None) and
    g_U(q) for a union, so the full grid is not built first.
    """
    if union is not None and union.params != params:
        raise ValueError(f"union of G({union.params.l},{union.params.m})"
                         f" given for G({params.l},{params.m})")
    if union is None:
        expected = gaussian_binomial(params.m, params.l, field.q)
    else:
        expected = union.point_count()(field.q)
    if expected > guard:
        raise TooLarge(f"enumeration of {count_text(expected)} points exceeds guard {guard}")


def _walk(field, params, cells, rows):
    """Yield (cell label, minors on rows) for each point of the cells, in order."""
    levels = _levels(params, rows)
    for alpha in cells:
        for kids in _cell_vectors(field, alpha, levels):
            for vec in kids:
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
    # built as a list: tuple() of a generator resizes its tuple as it grows,
    # and each resize puts it back in the youngest GC generation
    columns = tuple([vec for _alpha, vec in _walk(field, params, rows, rows)])
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
