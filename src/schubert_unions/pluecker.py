"""F_q-points of Schubert unions by cells, Pluecker vectors, generator matrices.

Every point of the cell labelled alpha has a unique l x m basis matrix in
reduced lower-left triangular form: the trailing 1 of row i sits in column
a_i, is the only nonzero entry of that column, and everything right of it in
its row is zero.  The free entries are the sum(a_i) - l(l+1)/2 remaining
positions; sweeping them over the field enumerates the cell exactly once.
Pluecker coordinates are the maximal minors taken in increasing column
order, so the cell's own coordinate is 1 and the output is deterministic.

The minors of rows 1..i are linear in row i, so a cell is walked row by
row, each row over all of the cell's points at once, from the empty minor 1.
Row i is zero but at its free columns and its trailing 1 (a_i); over the q^f
settings of its f free entries (odometer order, the last fastest) the entry
at column c is a digit pattern x_c, all 1s at a_i.  So the minor on S of
rows 1..i, over the points of rows 1..i-1 (slow) times row i's settings
(fast), is the sum of the terms x_c (x) T, one per column c of S where the
row is nonzero, with T the signed minor on S minus c of the rows above, and
a term is one join of the multiples of x_c that T's entries pick.  Only the
minors a later row reads are kept, from the matrix's own rows down, so a
union's generator matrix walks G_U and never the whole grid.  Before the
walk, the point guard counts g_U(q) from the maxima
(`grassgrid.count_below`), so a refused union builds no point set.

Terms are added as packed lanes (`_Lanes`): one Python int holds a lane of
W bits per entry, and a lane holds enc(x), the e base-p digits of x in slots
of b bits.  For p = 2 a slot is one bit and field addition is XOR.  For odd
p, b = (2p-2).bit_length(), so a slot holds the sum of two digits: one int
addition adds every lane at once, and one correction,
s - (((s + C) & H) >> (b-1)) * p with C = 2^(b-1) - p and H = 2^(b-1) in
every slot, takes p from each slot that reached p.  W is 8 when e*b <= 8
(every q = 2^e, q = 9, 25, 49 and the primes up to 127) and 16 otherwise,
so lanes are whole bytes: `translate` through the multiplication table
encodes the multiples of a pattern, and `to_bytes` with one `translate`
(for 16-bit lanes, a recombination of the digits) decodes a sum.  Since
q <= gf.MAX_Q = 256, every minor the walk yields is `bytes`, one byte per
point, and a generator matrix holds its rows as the walk's minors joined
cell after cell.  The walk's Laplace plan is `gf._levels`, which
`pluecker_vector` (`gf.maximal_minors`, int tuples) reads one matrix at a
time, so comparing the two checks the lanes and not the plan; `gf.det` of
each `cell_matrices` matrix is the independent reference the tests hold
both to.

`write_text` turns blocks of `_TEXT_CHUNK` columns into text with `bytes`
operations alone: one strided slice assignment per row interleaves the
rows' slices into the block's columns, each entry gets one byte slot per
decimal digit of q - 1 and one for its separator, one `translate` per digit
place fills that place for every entry (NUL where the entry is shorter), one
slice assignment puts a newline after every k-th entry, and deleting the
NULs leaves the block's lines, written as one `str`.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from . import gf, weights
from .grassgrid import (
    SchubertUnion,
    TooLarge,
    count_below,
    count_text,
    full_grid,
)

DEFAULT_POINT_GUARD = 10 ** 7
_TEXT_CHUNK = 4096    # columns per write of write_text


def free_positions(alpha, l):
    """Free (row, column) slots of the reduced form, row-major; 1-based columns."""
    pivots = set(alpha)
    return [(i, j) for i, a in enumerate(alpha) for j in range(1, a) if j not in pivots]


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


class _Lanes:
    """One walk's packed vectors: an int with one lane of W bits per entry.

    Entry k's lane holds enc(x): the e base-p digits of x, lowest first, in
    slots of b bits.  For p = 2, b = 1 and lane addition is XOR.  For odd p,
    b = (2p-2).bit_length(), so that a slot holds the sum of two digits: one
    int addition adds every lane at once, and one correction subtracts p
    from each slot that reached p.  W is 8 when e*b <= 8 and 16 otherwise,
    so lanes are whole bytes, and `bytes` operations build them: `translate`
    through per-element tables and joins of encoded pieces.
    """

    def __init__(self, field):
        p, e, q = field.p, field.e, field.q
        b = 1 if p == 2 else (2 * p - 2).bit_length()
        w = 1 if e * b <= 8 else 2
        enc = list(range(q))
        for x in range(p, q):   # digit j of x to slot j
            enc[x] = enc[x // p] << b | x % p
        self.p, self.b, self.e, self.width = p, b, e, w
        # per v, per byte h of a lane, the table y -> byte h of enc(v * y);
        # none for a high byte that is always 0
        pad = bytes(256 - q)
        codes = [bytes(c >> 8 * h & 255 for c in enc) + pad
                 for h in range(w if max(enc) > 255 else 1)]
        self.scale = [[bytes(row).translate(code) + pad for code in codes] for row in field._mul]
        self.negate = bytes(field._neg) + pad
        self.dec = bytearray(256)   # enc(x) -> x, for one-byte lanes
        if w == 1:
            for x, c in enumerate(enc):
                self.dec[c] = x
        self.slot = ()
        if p > 2:
            # per slot, 2^(b-1) - p, which reaches bit b-1 exactly when added
            # to a slot of p or more, and that bit; the lowest slot's mask
            ones = sum(1 << j * b for j in range(e))
            self.slot = tuple((c * ones).to_bytes(w, "little")
                              for c in ((1 << b - 1) - p, 1 << b - 1))
            self.low = ((1 << b) - 1).to_bytes(w, "little")

    def encode(self, elems, v=1):
        """The lanes of v * y for the elements y of `elems`, as bytes."""
        tables = self.scale[v]
        if self.width == 1:
            return elems.translate(tables[0])
        out = bytearray(2 * len(elems))
        for h, table in enumerate(tables):
            out[h::2] = elems.translate(table)
        return out

    def consts(self, lanes):
        """The slot constants of `add` over a block of `lanes` lanes."""
        return [int.from_bytes(c * lanes, "little") for c in self.slot]

    def add(self, x, y, consts):
        """Lane-wise field sum of two packed blocks."""
        if self.p == 2:
            return x ^ y
        c, top = consts
        s = x + y
        return s - ((s + c & top) >> self.b - 1) * self.p

    def decode(self, x, lanes):
        """The elements of a packed block of `lanes` lanes, one byte each;
        the block is an int or its little-endian bytes."""
        if self.width == 2:
            # each lane's digits recombined; the element fits the low byte
            if not isinstance(x, int):
                x = int.from_bytes(x, "little")
            mask = int.from_bytes(self.low * lanes, "little")
            x = sum((x >> j * self.b & mask) * self.p ** j for j in range(self.e))
            return x.to_bytes(2 * lanes, "little")[::2]
        if isinstance(x, int):
            x = x.to_bytes(lanes, "little")
        return x if self.p == 2 else x.translate(self.dec)   # for p = 2, enc(x) = x


class _Multiples(dict):
    """v -> the lanes of v times `elems`, each built on first use: a walk
    reads them by the entries of whole minors, which may hold few values."""

    def __init__(self, lanes, elems):
        self.lanes, self.elems = lanes, elems

    def __missing__(self, v):
        self[v] = scaled = self.lanes.encode(self.elems, v)
        return scaled


def _pattern(q, f, s):
    """Digit s of each of the q^f settings of f free entries, in odometer
    order (the last fastest), as bytes; s = f gives the pivot's 1s."""
    if s == f:
        return b"\1" * q ** f
    rep = q ** (f - 1 - s)
    return b"".join(bytes([v]) * rep for v in range(q)) * q ** s


def _minor(lanes, blocks, count, consts):
    """The entries on `count` points of a minor whose terms are the packed
    blocks (bytes): their lane-wise sum, decoded."""
    x = blocks[0]
    if len(blocks) > 1:
        x = int.from_bytes(x, "little")
        for y in blocks[1:]:
            x = lanes.add(x, int.from_bytes(y, "little"), consts)
    return lanes.decode(x, count)


def _check_point_guard(field, params, union, guard):
    """ValueError for a union of another Grassmannian; TooLarge when the
    points to enumerate exceed the guard.

    The count is g_U(q) from the maxima of the union, or of the full grid's
    top cycle (union None), so no point set is built first.
    """
    if union is not None and union.params != params:
        raise ValueError(f"union of G({union.params.l},{union.params.m})"
                         f" given for G({params.l},{params.m})")
    u = SchubertUnion.full(params) if union is None else union
    expected = count_below(u.maxima, field.q)
    if expected > guard:
        raise TooLarge(f"enumeration of {count_text(expected)} points exceeds guard {guard}")


def _walk(field, params, cells, rows):
    """Yield (cell label, minors) for the cells, in order: per minor on rows,
    its entries on the cell's points as bytes, in `cell_matrices` order.

    Row-major, each row over all of the cell's points (the module
    docstring): a minor is a sum of terms x_c (x) T, each one join.  A minor
    that is zero on every point is None until the last row, and adds no
    term.  Rows 1..i depend on a_1..a_i alone, and cells in lex order share
    their leading pivots with the cell before, so the minors of those rows
    are kept and not walked again.
    """
    lanes, q = _Lanes(field), field.q
    levels = gf._levels(params.l, params.m, rows)
    multiples = {}   # (free count, position): _Multiples of its `_pattern`
    done = []   # per row i < l of the last cell: (a_i, points, minors of rows 1..i)
    for alpha in cells:
        keep = 0
        while keep < len(done) and done[keep][0] == alpha[keep]:
            keep += 1
        del done[keep:]
        _a, count, minors = done[-1] if done else (0, 1, [b"\1"])
        for i in range(keep, len(alpha)):
            a, (size, by_column) = alpha[i], levels[i]
            nonzero = [c for c in range(1, a) if c not in alpha] + [a]
            f = len(nonzero) - 1
            signed = minors * 2 if lanes.p == 2 else \
                minors + [t and t.translate(lanes.negate) for t in minors]
            blocks = [[] for _ in range(size)]   # per minor, its terms packed
            for s, c in enumerate(nonzero):
                if (f, s) not in multiples:
                    multiples[f, s] = _Multiples(lanes, _pattern(q, f, s))
                scaled = multiples[f, s].__getitem__
                for k, j in by_column[c - 1]:
                    if signed[j] is not None:
                        blocks[k].append(b"".join(map(scaled, signed[j])))
            count *= q ** f
            consts = lanes.consts(count) if lanes.p > 2 else ()
            minors = [_minor(lanes, b, count, consts) if b else None for b in blocks]
            if i < len(alpha) - 1:
                done.append((a, count, minors))
        zero = bytes(count)
        yield alpha, [zero if t is None else t for t in minors]


def enumerate_points(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Yield (cell label, Pluecker vector) for each point, cells in lex order;
    the vector is bytes, one byte per grid index."""
    _check_point_guard(field, params, union, guard)
    grid = full_grid(params)
    cells = grid if union is None else sorted(union.ideal())
    for alpha, minors in _walk(field, params, cells, grid):
        # the cell's points are the strided slices of its minors joined
        data, count = b"".join(minors), len(minors[0])
        for j in range(count):
            yield alpha, data[j::count]


@dataclass(frozen=True)
class GeneratorMatrix:
    """A generator matrix held as its rows, one `bytes` of n entries each."""

    field: gf.Field
    params: object
    union: SchubertUnion | None
    rows: tuple          # grid points labelling the rows
    coordinates: tuple   # per row, that Pluecker coordinate of every point, as bytes

    @property
    def n(self) -> int:
        return len(self.coordinates[0]) if self.coordinates else 0

    @property
    def k(self) -> int:
        return len(self.rows)

    def entries(self):
        """The k rows as bytes, as held."""
        return list(self.coordinates)

    def rank(self) -> int:
        return gf.rank(self.field, self.entries())

    @functools.cached_property
    def columns(self):
        """Per point, its coordinates on the rows as bytes: strided slices
        of the rows joined, built on first use."""
        data, n = b"".join(self.coordinates), self.n
        return tuple(data[j::n] for j in range(n))

    @functools.cached_property
    def oracle(self):
        """The weight oracle's state (weights._MaskCache), built on first use."""
        return weights._MaskCache(self.field, self.columns, self.k)


def generator_matrix(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Generator matrix: one column per point, rows indexed by the grid.

    For a union the rows are G_U alone.  A point of cell alpha has nonzero
    minors only at S <= alpha and G_U is down-closed, so the coordinates off
    G_U are zero on every point of the union and are never computed.
    """
    _check_point_guard(field, params, union, guard)
    rows = tuple(full_grid(params) if union is None else sorted(union.ideal()))
    pieces = [[] for _ in rows]   # per row, its entries on each cell
    for _alpha, minors in _walk(field, params, rows, rows):
        for row, minor in zip(pieces, minors):
            row.append(minor)
    return GeneratorMatrix(field, params, union, rows, tuple(map(b"".join, pieces)))


def write_text(genmat, stream):
    """One column per line, entries as integers separated by spaces."""
    # per block, the rows' slices interleaved into columns; per entry,
    # `places` digit slots padded with NUL on the left and one separator
    # slot (see the module docstring)
    q, k = genmat.field.q, genmat.k
    places = len(str(q - 1))
    width = places + 1
    names = [str(v).rjust(places, "\0").encode() for v in range(q)]
    tables = [bytes(name[j] for name in names).ljust(256, b"\0") for j in range(places)]
    for i in range(0, genmat.n, _TEXT_CHUNK):
        cols = min(_TEXT_CHUNK, genmat.n - i)
        data = bytearray(k * cols)
        for r, row in enumerate(genmat.coordinates):
            data[r::k] = row[i:i + cols]
        out = bytearray(b" ") * (len(data) * width)
        for j, table in enumerate(tables):
            out[j::width] = data.translate(table)
        out[width * k - 1::width * k] = b"\n" * (len(data) // k)
        stream.write(out.translate(None, b"\0").decode("ascii"))


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
    stream.writelines(genmat.entries())
