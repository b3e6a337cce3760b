import functools
import io
import json
import random
import re
import tracemalloc

import pytest

from schubert_unions.gf import Field
from schubert_unions.grassgrid import (
    GrassParams,
    SchubertUnion,
    TooLarge,
    enumerate_ideals,
    full_grid,
    gaussian_binomial,
    grand_total,
)
from schubert_unions import pluecker
from schubert_unions.pluecker import (
    _Lanes,
    cell_matrices,
    enumerate_points,
    free_positions,
    generator_matrix,
    pluecker_vector,
    write_binary,
    write_text,
)

from test_gf import minors_by_det


def test_full_point_counts():
    f2 = Field(2)
    assert sum(1 for _ in enumerate_points(f2, GrassParams(2, 4))) == 35
    assert sum(1 for _ in enumerate_points(f2, GrassParams(2, 5))) == 155


def test_counts_match_product_formula():
    for params, qs in [(GrassParams(2, 4), (2, 3, 4, 5)),
                       (GrassParams(2, 5), (2, 3)),
                       (GrassParams(3, 6), (2,))]:
        for q in qs:
            field = Field(q)
            got = sum(1 for _ in enumerate_points(field, params))
            assert got == gaussian_binomial(params.m, params.l, q), (params, q)


def test_per_cell_counts():
    f3 = Field(3)
    params = GrassParams(2, 4)
    per_cell = {}
    for alpha, _vec in enumerate_points(f3, params):
        per_cell[alpha] = per_cell.get(alpha, 0) + 1
    for alpha in full_grid(params):
        assert per_cell[alpha] == 3 ** (alpha[0] + alpha[1] - 3)


def test_union_point_count_example():
    # q^4+2q^3+2q^2+q+1 at q=2: 16+16+8+2+1
    f2 = Field(2)
    u = SchubertUnion(GrassParams(2, 5), [(2, 5)])
    pts = list(enumerate_points(f2, GrassParams(2, 5), u))
    assert len(pts) == u.point_count()(2) == 43


def test_per_union_counts_exhaustive():
    f2 = Field(2)
    for params in (GrassParams(2, 4), GrassParams(2, 5)):
        for u in enumerate_ideals(params):
            got = sum(1 for _ in enumerate_points(f2, params, u))
            assert got == u.point_count()(2)


def test_own_cell_coordinate_is_one():
    f2 = Field(2)
    params = GrassParams(2, 4)
    grid = full_grid(params)
    idx = {t: i for i, t in enumerate(grid)}
    for alpha, vec in enumerate_points(f2, params):
        assert vec[idx[alpha]] == 1
        # vanishing above the cell label
        for beta in grid:
            if any(b > a for a, b in zip(alpha, beta)) and all(
                    b >= a for a, b in zip(alpha, beta)):
                assert vec[idx[beta]] == 0


def test_pluecker_quadric_g24():
    for q in (2, 3):
        field = Field(q)
        params = GrassParams(2, 4)
        grid = full_grid(params)
        idx = {t: i for i, t in enumerate(grid)}
        for _alpha, v in enumerate_points(field, params):
            t1 = field.mul(v[idx[(1, 2)]], v[idx[(3, 4)]])
            t2 = field.mul(v[idx[(1, 3)]], v[idx[(2, 4)]])
            t3 = field.mul(v[idx[(1, 4)]], v[idx[(2, 3)]])
            assert field.add(field.sub(t1, t2), t3) == 0


def test_l1_vector_is_the_row():
    f3 = Field(3)
    params = GrassParams(1, 4)
    mat = [[2, 1, 0, 1]]
    assert pluecker_vector(f3, params, mat) == (2, 1, 0, 1)


EVERY_POINT = [(l, m, q) for l, m in ((1, 4), (2, 4), (2, 5), (3, 5))
               for q in (2, 3, 4, 5)]
EVERY_POINT += [(l, m, q) for l, m in ((1, 4), (2, 4)) for q in (8, 9)]
EVERY_POINT += [(3, 6, 2)]
# four rows, so the walk builds minors on three levels before the last row
EVERY_POINT += [(4, 6, 3), (4, 7, 2)]
# the top byte value: every entry of GF(256) is one byte
EVERY_POINT += [(1, 2, 256), (2, 3, 256)]


@pytest.mark.parametrize("l,m,q", EVERY_POINT)
def test_vector_matches_det_every_point(l, m, q):
    field = Field(q)
    params = GrassParams(l, m)
    for alpha in full_grid(params):
        for mat in cell_matrices(field, params, alpha):
            assert pluecker_vector(field, params, mat) == \
                minors_by_det(field, mat), (alpha, mat)


def reference_points(field, params, union=None):
    """The single-matrix stream: every cell's reduced matrices, one
    `pluecker_vector` each as bytes, cells in lex order."""
    cells = full_grid(params) if union is None else sorted(union.ideal())
    for alpha in cells:
        for mat in cell_matrices(field, params, alpha):
            yield alpha, bytes(pluecker_vector(field, params, mat))


def assert_reference_stream(field, params, union=None):
    pairs = zip(reference_points(field, params, union),
                enumerate_points(field, params, union), strict=True)
    for i, (want, got) in enumerate(pairs):
        assert got == want, (params, field.q, union, i)


@pytest.mark.parametrize("l,m,q", EVERY_POINT)
def test_enumerate_points_is_the_reference_stream(l, m, q):
    assert_reference_stream(Field(q), GrassParams(l, m))


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_enumerate_points_every_union(l, q):
    field, params = Field(q), GrassParams(l, 5)
    for u in enumerate_ideals(params):
        assert_reference_stream(field, params, u)


@pytest.mark.parametrize("q", [16, 25, 27])
def test_enumerate_points_default_modulus_fields(q):
    # 70,161 / 407,526 / 552,610 points
    assert_reference_stream(Field(q), GrassParams(2, 4))


# one field per lane layout not covered above: one-byte lanes of 3-bit and
# 4-bit slots (7, 49); p = 2 with e = 7 (128); two-byte lanes of several
# slots (81, 121, 125, 169, 243); one 9-bit slot (251)
@pytest.mark.parametrize("q", [7, 49, 81, 121, 125, 128, 169, 243, 251])
def test_enumerate_points_every_lane_layout(q):
    assert_reference_stream(Field(q), GrassParams(2, 3))


# GF(8) with x^3 + x^2 + 1 and GF(9) with x^2 + 2x + 2; on G(3,5) a union
# with free entries in every row keeps the reference check to 15K points
@pytest.mark.parametrize("q,modulus", [(8, (1, 0, 1, 1)), (9, (2, 2, 1))])
def test_enumerate_points_other_moduli(q, modulus):
    field = Field(q, modulus)
    assert field.modulus == modulus
    assert_reference_stream(field, GrassParams(2, 4))
    params = GrassParams(3, 5)
    assert_reference_stream(field, params, SchubertUnion(params, [(1, 4, 5), (2, 3, 5)]))


def grid_union(params, kind):
    """One union of the grid per kind: "full" (None, the whole grid), "top"
    (the top cycle, the same points as a union), "middle" (maxima: the cells
    of half the top dimension, an antichain) and "bottom" (the one point)."""
    grid = full_grid(params)
    if kind == "full":
        return None
    if kind == "middle":
        half = (sum(grid[-1]) + sum(grid[0])) // 2
        return SchubertUnion(params, [a for a in grid if sum(a) == half])
    return SchubertUnion(params, [grid[-1] if kind == "top" else grid[0]])


UNION_KINDS = ("full", "top", "middle", "bottom")


# G(1,12) over F_2 has a row of 11 free entries; at half the top dimension
# G(2,4) and G(2,5) have two maxima and G(3,6) three, while G(1,m) and
# G(2,3) are chains
@pytest.mark.parametrize("kind", UNION_KINDS)
@pytest.mark.parametrize("l,m,q", [(1, 6, 2), (1, 12, 2), (2, 5, 3), (3, 6, 2),
                                   (2, 4, 4), (2, 3, 27)])
def test_stream_is_the_reference_on_unions(kind, l, m, q):
    params = GrassParams(l, m)
    assert_reference_stream(Field(q), params, grid_union(params, kind))


# the walk hands out each cell once, in lex order, and a cell's minors are
# the generator matrix's rows on that cell's points
@pytest.mark.parametrize("kind", ("full", "middle"))
@pytest.mark.parametrize("l,m,q", [(1, 12, 2), (2, 5, 3), (3, 6, 2), (2, 3, 27)])
def test_walk_yields_each_cell_once(kind, l, m, q):
    field, params = Field(q), GrassParams(l, m)
    gm = generator_matrix(field, params, grid_union(params, kind))
    pairs = list(pluecker._walk(field, params, gm.rows, gm.rows))
    assert [alpha for alpha, _minors in pairs] == list(gm.rows)
    assert all(type(piece) is bytes for _alpha, minors in pairs for piece in minors)
    assert [b"".join(minors[r] for _alpha, minors in pairs) for r in range(gm.k)] == \
        gm.entries()
    grid = full_grid(params)
    idx = [grid.index(t) for t in gm.rows]
    assert list(gm.columns) == [bytes(vec[i] for i in idx)
                                for _alpha, vec in reference_points(field, params, gm.union)]


LANE_FIELDS = (2, 4, 3, 9, 27, 125, 251, 256)


@functools.lru_cache(maxsize=None)
def field_lanes(q):
    field = Field(q)
    return field, _Lanes(field)


def lane_sum(lanes, a, b):
    """a + b entry by entry through the packed lanes, decoded."""
    pack = [int.from_bytes(lanes.encode(bytes(v)), "little") for v in (a, b)]
    return lanes.decode(lanes.add(*pack, lanes.consts(len(a))), len(a))


@pytest.mark.parametrize("q", LANE_FIELDS)
def test_lane_addition_of_the_top_digits(q):
    # q - 1 has every base-p digit p - 1, so each slot reaches 2p - 2
    field, lanes = field_lanes(q)
    top = [q - 1] * 33
    assert lane_sum(lanes, top, top) == bytes([field.add(q - 1, q - 1)]) * 33


@pytest.mark.parametrize("l,m,q", [(2, 5, 8), (2, 5, 9), (3, 5, 8), (3, 5, 9)])
def test_vector_matches_det_sampled_points(l, m, q):
    # 0.3M-0.6M points each: every cell, a fixed sample of its free entries
    field = Field(q)
    params = GrassParams(l, m)
    rng = random.Random(100 * l + 10 * m + q)
    for alpha in full_grid(params):
        slots = free_positions(alpha, l)
        for _ in range(200):
            mat = [[0] * m for _ in range(l)]
            for i, a in enumerate(alpha):
                mat[i][a - 1] = 1
            for i, j in slots:
                mat[i][j - 1] = rng.randrange(q)
            assert pluecker_vector(field, params, mat) == \
                minors_by_det(field, mat), (alpha, mat)


def test_free_positions():
    assert free_positions((2, 5), 2) == [(0, 1), (1, 1), (1, 3), (1, 4)]
    assert free_positions((1, 2), 2) == []


def test_generator_matrix_full():
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 4))
    assert gm.k == 6 and gm.n == 35
    assert gm.rank() == 6


def test_generator_matrix_union():
    f2 = Field(2)
    u = SchubertUnion(GrassParams(2, 5), [(2, 3)])
    gm = generator_matrix(f2, GrassParams(2, 5), u)
    assert gm.k == 3 and gm.n == 7
    assert gm.rank() == 3


def test_generator_matrix_empty_union():
    f2 = Field(2)
    u = SchubertUnion.empty(GrassParams(2, 4))
    gm = generator_matrix(f2, GrassParams(2, 4), u)
    assert gm.k == 0 and gm.n == 0


# the matrix holds its k rows, one bytes of n entries each, built by joining
# each row's pieces from the walk: a matrix held as one bytes per column
# holds 3 to 5 bytes per entry after the call and peaks at 5 to 7
@pytest.mark.parametrize("l,m,q", [(2, 5, 5), (3, 6, 2)])
def test_generator_matrix_memory_per_entry(l, m, q):
    field, params = Field(q), GrassParams(l, m)
    generator_matrix(field, params)   # what a first call leaves cached
    tracemalloc.start()
    try:
        gm = generator_matrix(field, params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = gm.n * gm.k
    assert held <= 1.5 * entries, held / entries
    assert peak <= 3.5 * entries, peak / entries


def test_rank_equals_span_exhaustive():
    for q, grids in ((2, [(2, 4), (2, 5), (3, 5), (3, 6), (4, 6)]),
                     (3, [(2, 4), (2, 5), (3, 5)])):
        field = Field(q)
        for l, m in grids:
            params = GrassParams(l, m)
            for u in enumerate_ideals(params):
                gm = generator_matrix(field, params, u)
                assert gm.rank() == u.span(), (q, params, u)


def test_linear_section_property():
    # a point's coordinates vanish on H_U exactly when the point lies in S_U
    f2 = Field(2)
    for params in (GrassParams(2, 4), GrassParams(2, 5)):
        grid = full_grid(params)
        idx = {t: i for i, t in enumerate(grid)}
        for u in enumerate_ideals(params):
            h = u.h_ideal()
            members = u.ideal()
            for alpha, vec in enumerate_points(f2, params):
                vanishes = all(vec[idx[beta]] == 0 for beta in h)
                assert vanishes == (alpha in members)


def test_columns_projectively_distinct():
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 4))
    assert len(set(gm.columns)) == gm.n


def test_point_guard():
    f2 = Field(2)
    with pytest.raises(TooLarge):
        list(enumerate_points(f2, GrassParams(2, 5), guard=100))
    assert grand_total(GrassParams(2, 5))(2) == 155


def assert_union_rows_restrict(field, params, u):
    """The union's matrix is the full-width reference stream cut to G_U."""
    gm = generator_matrix(field, params, u)
    grid = full_grid(params)
    idx = [grid.index(t) for t in gm.rows]
    assert gm.columns == tuple(bytes(vec[i] for i in idx)
                               for _alpha, vec in enumerate_points(field, params, u)), \
        (params, field.q, u)
    assert gm.entries() == [bytes(col[i] for col in gm.columns) for i in range(gm.k)]


@pytest.mark.parametrize("maxima", [[], [(1, 2)], [(1, 4)], [(2, 3)], [(1, 5), (2, 3)]])
def test_union_rows_restrict_the_full_vectors(maxima):
    # k = 0 and k = 1 included
    params = GrassParams(2, 5)
    assert_union_rows_restrict(Field(3), params, SchubertUnion(params, maxima))


@pytest.mark.parametrize("l,m,q", [(2, 5, 2), (2, 5, 3), (3, 6, 2), (2, 6, 4), (3, 5, 3)])
def test_union_rows_restrict_the_full_vectors_every_union(l, m, q):
    field, params = Field(q), GrassParams(l, m)
    for u in enumerate_ideals(params):
        assert_union_rows_restrict(field, params, u)


def test_union_matrix_builds_no_grid(monkeypatch):
    from schubert_unions import pluecker

    def refuse(params):
        raise AssertionError("full_grid called")

    monkeypatch.setattr(pluecker, "full_grid", refuse)
    params = GrassParams(2, 1000)
    gm = generator_matrix(Field(2), params, SchubertUnion(params, [(1, 5)]))
    assert gm.rows == ((1, 2), (1, 3), (1, 4), (1, 5)) and gm.n == 15
    assert gm.rank() == 4


def test_matrices_need_no_laplace_expansion(monkeypatch):
    from schubert_unions import gf, pluecker

    def refuse(*args):
        raise AssertionError("reference path called")

    monkeypatch.setattr(gf, "maximal_minors", refuse)
    monkeypatch.setattr(pluecker, "cell_matrices", refuse)
    gm = generator_matrix(Field(3), GrassParams(3, 6))
    assert (gm.k, gm.n) == (20, gaussian_binomial(6, 3, 3))
    assert gm.rank() == 20
    params = GrassParams(3, 60)
    u = SchubertUnion(params, [(1, 2, 9), (2, 4, 6)])
    gm = generator_matrix(Field(3), params, u)
    assert (gm.k, gm.n) == (len(u.ideal()), u.point_count()(3))
    assert gm.rank() == u.span()


@pytest.mark.parametrize("union_params,params", [
    (GrassParams(3, 6), GrassParams(2, 6)),
    (GrassParams(2, 6), GrassParams(2, 5)),
    (GrassParams(2, 5), GrassParams(2, 6)),
])
def test_union_of_another_grassmannian_refused(union_params, params):
    u = SchubertUnion.full(union_params)
    want = (f"union of G({union_params.l},{union_params.m})"
            f" given for G({params.l},{params.m})")
    with pytest.raises(ValueError, match=re.escape(want)):
        generator_matrix(Field(2), params, u)
    with pytest.raises(ValueError, match=re.escape(want)):
        next(enumerate_points(Field(2), params, u))


def test_exports():
    f2 = Field(2)
    params = GrassParams(2, 4)
    u = SchubertUnion(params, [(2, 3)])
    gm = generator_matrix(f2, params, u)
    text = io.StringIO()
    write_text(gm, text)
    lines = text.getvalue().strip().split("\n")
    assert len(lines) == gm.n
    assert all(len(line.split()) == gm.k for line in lines)
    blob = io.BytesIO()
    write_binary(gm, blob)
    raw = blob.getvalue()
    header, body = raw.split(b"\n", 1)
    meta = json.loads(header)
    assert meta == {"q": 2, "l": 2, "m": 4, "rows": gm.k, "n": gm.n,
                    "union": [[2, 3]]}
    assert len(body) == gm.k * gm.n
    # row-major: row i is entry i of every column
    assert body == bytes(col[i] for i in range(gm.k) for col in gm.columns)


def reference_text(genmat):
    """The text format written one column at a time: the writer `write_text`
    replaced, kept as its byte-for-byte reference."""
    name = [str(v) for v in range(genmat.field.q)].__getitem__
    return "".join(" ".join(map(name, col)) + "\n" for col in genmat.columns)


@functools.lru_cache(maxsize=None)
def text_field(q):
    return Field(q)


def random_matrix(q, k, n, seed=0):
    """k rows of n entries that use every value of F_q once n*k >= q."""
    entries = [v % q for v in range(n * k)]
    random.Random(seed).shuffle(entries)
    data = bytes(entries)
    coordinates = tuple(data[i * n:(i + 1) * n] for i in range(k))
    return pluecker.GeneratorMatrix(text_field(q), GrassParams(2, 4), None,
                                    tuple(range(k)), coordinates)


def text_of(genmat):
    out = io.StringIO()
    write_text(genmat, out)
    return out.getvalue()


# every digit width of q - 1 <= 255, with and without NUL-padded places
TEXT_FIELDS = (2, 9, 11, 16, 27, 101, 251, 256)
CHUNK = pluecker._TEXT_CHUNK


@pytest.mark.parametrize("q", TEXT_FIELDS)
@pytest.mark.parametrize("k", (1, 2, 5))
@pytest.mark.parametrize("n", (0, 1, CHUNK - 1, CHUNK, CHUNK + 1))
def test_write_text_matches_reference(q, k, n):
    gm = random_matrix(q, k, n, seed=q * k + n)
    # compared as lists of lines, so a failure names the first bad column
    # rather than diffing two long strings
    assert text_of(gm).split("\n") == reference_text(gm).split("\n")


@pytest.mark.parametrize("q", (2, 13, 256))
def test_write_text_of_the_empty_union(q):
    params = GrassParams(2, 5)
    gm = generator_matrix(text_field(q), params, SchubertUnion.empty(params))
    assert gm.n == 0
    assert text_of(gm) == reference_text(gm) == ""


def test_write_text_memory_is_bounded_by_the_chunk():
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    # 100,000 columns give 1.2 MB of text; one chunk of 4096 columns is
    # 48 KB of text, and joining it takes a buffer record of about 80 bytes
    # per column, so a writer that holds one chunk at a time stays far below
    # the bound, which does not grow with n, and one that holds the whole
    # text does not
    bound = 1 << 20
    gm = random_matrix(2, 6, 100_000)
    sink = Sink()
    tracemalloc.start()
    try:
        write_text(gm, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 100_000 * 12 > bound
    assert peak < bound
