"""F_q-points of Schubert unions by cells, Pluecker vectors, generator matrices.

Every point of the cell labelled alpha has a unique l x m basis matrix in
reduced lower-left triangular form: the trailing 1 of row i sits in column
a_i, is the only nonzero entry of that column, and everything right of it in
its row is zero.  The free entries are the sum(a_i) - l(l+1)/2 remaining
positions; sweeping them over the field enumerates the cell exactly once.
Pluecker coordinates are the maximal minors taken in increasing column
order, so the cell's own coordinate is 1 and the output is deterministic.

The minors of rows 1..i are linear in row i, so a cell is walked row by
row from the empty minor 1: each vector of rows 1..i-1 (a parent) gives row
i's base vector from the cofactors on its trailing 1, and each free column c
of row i splits every vector into q, digit v adding v times the cofactors
T_c on the minors that hold c.  Only the minors a later row reads are kept,
from the matrix's own rows down, so a union's generator matrix walks G_U and
never the whole grid.  Before the walk, the point guard counts g_U(q) from
the maxima (`grassgrid.count_below`), so a refused union builds no point set.

A row is built in packed blocks (`_Lanes`): one Python int holds a lane of
W bits per minor of every child of a group of the row's parents.  A lane
holds enc(x), the e base-p digits of x in slots of b bits.  For p = 2 a slot
is one bit and field addition is XOR.  For odd p, b = (2p-2).bit_length(),
so a slot holds the sum of two digits: one int addition adds every lane at
once, and one correction, s - (((s + C) & H) >> (b-1)) * p with
C = 2^(b-1) - p and H = 2^(b-1) in every slot, takes p from each slot that
reached p.  W is 8 when e*b <= 8 (every q = 2^e, q = 9, 25, 49 and the
primes up to 127) and 16 otherwise, so lanes are whole bytes: repetition,
strided slices and `translate` through the multiplication table build a
block without a Python loop over its children, and `to_bytes` with one
`translate` (for 16-bit lanes, a recombination of the digits) decodes it.
Since q <= gf.MAX_Q = 256, every vector the walk yields is `bytes`, one
byte per minor, and a generator matrix's columns are those bytes as they
are.  The walk's Laplace plan is `gf._levels`, which `pluecker_vector`
(`gf.maximal_minors`, int tuples) reads one matrix at a time, so comparing
the two checks the lanes and not the plan; `gf.det` of each `cell_matrices`
matrix is the independent reference the tests hold both to.

`write_text` turns blocks of `_TEXT_CHUNK` columns into text with `bytes`
operations alone: each entry of a block gets one byte slot per decimal
digit of q - 1 and one for its separator, one `translate` per digit place
fills that place for every entry (NUL where the entry is shorter), one
slice assignment puts a newline after every k-th entry, and deleting the
NULs leaves the block's lines, written as one `str`.
"""

from __future__ import annotations

import functools
import itertools
import json
import struct
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


# lanes in one packed block: bounds the ints a walk works on
_BLOCK_LANES = 1 << 14


class _Lanes:
    """One walk's packed vectors: an int with one lane of W bits per minor.

    Minor k's lane holds enc(x): the e base-p digits of x, lowest first, in
    slots of b bits.  For p = 2, b = 1 and lane addition is XOR.  For odd p,
    b = (2p-2).bit_length(), so that a slot holds the sum of two digits: one
    int addition adds every lane at once, and one correction subtracts p
    from each slot that reached p.  W is 8 when e*b <= 8 and 16 otherwise,
    so lanes are whole bytes, and `bytes` operations move them: repetition,
    strided slices, `translate` through per-element tables.
    """

    def __init__(self, field):
        p, e, q = field.p, field.e, field.q
        b = 1 if p == 2 else (2 * p - 2).bit_length()
        w = 1 if e * b <= 8 else 2
        enc = list(range(q))
        for x in range(p, q):   # digit j of x to slot j
            enc[x] = enc[x // p] << b | x % p
        self.p, self.q, self.b, self.e, self.width = p, q, b, e, w
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

    def multiples(self, elems):
        """`encode(elems, v)` for v = 0, 1, ..., q-1."""
        if self.width == 1:
            return [elems.translate(tables[0]) for tables in self.scale]
        return [self.encode(elems, v) for v in range(self.q)]

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
        """The elements of a packed block of `lanes` lanes, one byte each."""
        if self.width == 2:
            # each lane's digits recombined; the element fits the low byte
            mask = int.from_bytes(self.low * lanes, "little")
            x = sum((x >> j * self.b & mask) * self.p ** j for j in range(self.e))
            return x.to_bytes(2 * lanes, "little")[::2]
        if self.p == 2:   # enc(x) = x
            return x.to_bytes(lanes, "little")
        return x.to_bytes(lanes, "little").translate(self.dec)

    def _entries(self, parents, size_prev):
        """Entry j of every parent vector, then minus entry j, for each j."""
        entries = [parents[j::size_prev] for j in range(size_prev)]
        if self.p == 2:   # -y = y
            return entries * 2
        return entries + [e.translate(self.negate) for e in entries]

    @staticmethod
    def _gather(entries, count, size, terms):
        """Per parent, the `size` cofactors of one column: at lane k, the
        signed entry j, for each term (k, j)."""
        out = bytearray(count * size)
        for k, j in terms:
            out[k::size] = entries[j]
        return out

    def _increment(self, entries, count, size, free, consts):
        """The packed sum of v_c * T_c over every digit setting of the free
        columns, T_c read from each of `count` parents: digit settings in
        odometer order (the last column fastest), and within each, the
        parents in order.

        Per column, `multiples` gives v * T_c for every parent and digit v at
        once, each repeated over the settings where the column's digit is v.
        """
        q, n = self.q, self.q ** len(free)
        inc = 0
        for s, terms in enumerate(reversed(free)):
            rep = q ** s
            step = b"".join([m * rep for m in self.multiples(
                self._gather(entries, count, size, terms))]) * (n // rep // q)
            step = int.from_bytes(step, "little")
            inc = self.add(inc, step, consts) if inc else step
        return inc

    def _expand(self, starts, inc, size, n, consts):
        """Start plus increment for every start (`size` elements each) and
        each of the n digit settings of an `_increment`, start by start."""
        count = len(starts) // size
        x = int.from_bytes(self.encode(starts) * n, "little")
        if inc:
            x = self.add(x, inc, consts)
        # n children at a time: the unpacker stays small
        flat = list(itertools.chain.from_iterable(struct.iter_unpack(
            f"{size}s" * n, self.decode(x, count * n * size))))
        kids = []
        for i in range(count):
            kids += flat[i::count]
        return kids

    def children(self, parents, size_prev, size, pivot, free):
        """The vectors of `size` minors one row adds to the parents (each
        `size_prev` minors of the rows above), as one list: per parent, its
        base vector, the cofactors on the row's pivot, plus v_c times the
        cofactors T_c of each free column c, over every digit setting.

        Terms (k, j) read the cofactor at lane k from signed entry j of the
        parent (see `gf._levels`).  Parents go in groups whose blocks fit
        _BLOCK_LANES.  A parent whose own block does not is cut: each of its
        children over the leading free columns gets the trailing columns'
        increment.
        """
        q = self.q
        inner = len(free)
        while inner > 1 and q ** inner * size > _BLOCK_LANES:
            inner -= 1
        n = q ** inner
        kids = []
        if inner == len(free):
            group = max(1, _BLOCK_LANES // (n * size))
            for i in range(0, len(parents), group):
                count = min(group, len(parents) - i)
                entries = self._entries(b"".join(parents[i:i + group]), size_prev)
                consts = self.consts(count * n * size) if free else ()
                kids += self._expand(self._gather(entries, count, size, pivot),
                                     self._increment(entries, count, size, free, consts),
                                     size, n, consts)
            return kids
        consts = self.consts(n * size)
        for parent in parents:
            inc = self._increment(self._entries(parent, size_prev), 1, size, free[-inner:],
                                  consts)
            for head in self.children([parent], size_prev, size, pivot, free[:-inner]):
                kids += self._expand(head, inc, size, n, consts)
        return kids


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
    """Yield (cell label, list of minors on rows) for the points of the cells,
    in order and in `cell_matrices` order within a cell, one list per cell.

    Every vector is bytes, one byte per minor.  Row i's base vector holds the
    cofactors on a_i; free column c's digit v adds v * T_c, its cofactors, at
    the sets that hold c.  Rows 1..i depend on a_1..a_i alone, and cells in
    lex order share their leading pivots with the cell before, so the vectors
    of those rows are kept and not walked again.
    """
    lanes = _Lanes(field)
    levels = gf._levels(params.l, params.m, rows)
    sizes = [1] + [size for size, _terms in levels]
    done = []   # per row i < l of the last cell: (a_i, vectors of rows 1..i)
    for alpha in cells:
        keep = 0
        while keep < len(done) and done[keep][0] == alpha[keep]:
            keep += 1
        del done[keep:]
        for i in range(keep, len(alpha)):
            a, (size, terms) = alpha[i], levels[i]
            free = [terms[c] for c in range(a - 1) if c + 1 not in alpha]
            kids = lanes.children(done[-1][1] if done else [b"\1"], sizes[i], size,
                                  terms[a - 1], free)
            if i < len(alpha) - 1:
                done.append((a, kids))
        yield alpha, kids


def enumerate_points(field, params, union=None, guard=DEFAULT_POINT_GUARD):
    """Yield (cell label, Pluecker vector) for each point, cells in lex order;
    the vector is bytes, one byte per grid index."""
    _check_point_guard(field, params, union, guard)
    grid = full_grid(params)
    cells = grid if union is None else sorted(union.ideal())
    for alpha, kids in _walk(field, params, cells, grid):
        for vec in kids:
            yield alpha, vec


@dataclass(frozen=True)
class GeneratorMatrix:
    """A generator matrix held as its columns, one `bytes` of k entries each."""

    field: gf.Field
    params: object
    union: SchubertUnion | None
    rows: tuple          # grid points labelling the rows
    columns: tuple       # per point, its Pluecker coordinates on the rows, as bytes

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def k(self) -> int:
        return len(self.rows)

    def entries(self):
        """The k rows as bytes: strided slices of the columns joined."""
        data = b"".join(self.columns)
        return [data[i::self.k] for i in range(self.k)]

    def rank(self) -> int:
        return gf.rank(self.field, self.entries())

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
    # built as a list: tuple() of a generator resizes its tuple as it grows,
    # and each resize puts it back in the youngest GC generation
    columns = []
    for _alpha, kids in _walk(field, params, rows, rows):
        columns += kids
    columns = tuple(columns)
    return GeneratorMatrix(field, params, union, rows, columns)


def write_text(genmat, stream):
    """One column per line, entries as integers separated by spaces."""
    # per entry, `places` digit slots padded with NUL on the left and one
    # separator slot (see the module docstring)
    q, k = genmat.field.q, genmat.k
    places = len(str(q - 1))
    width = places + 1
    names = [str(v).rjust(places, "\0").encode() for v in range(q)]
    tables = [bytes(name[j] for name in names).ljust(256, b"\0") for j in range(places)]
    cols = genmat.columns
    for i in range(0, len(cols), _TEXT_CHUNK):
        data = b"".join(cols[i:i + _TEXT_CHUNK])
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
