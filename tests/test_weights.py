import collections
import itertools
import random

import pytest

from schubert_unions import weights
from schubert_unions.gf import Field, row_reduce
from schubert_unions.grassgrid import (
    GrassParams,
    Poly,
    SchubertUnion,
    enumerate_ideals,
    grand_total,
)
from schubert_unions.optimizer import bound_table
from schubert_unions.pluecker import generator_matrix
from schubert_unions.twodim import EmptyUnion, NotTwoDim
from schubert_unions.weights import (
    BudgetExceeded,
    d5_c25,
    delta_table,
    gaussian_binomial,
    griesmer_lower,
    known_dr,
    min_weight_bruteforce,
    nogin_weights,
    oracle_dr,
    relative_bound,
    top_weights,
    union_code_params,
    weight_table,
    _MaskCache,
)

from table_fixtures import DELTA_TABLES


def test_nogin_weights_examples():
    rows = dict(nogin_weights(GrassParams(2, 4)))
    assert rows[1] == Poly.parse("q^4")
    assert rows[2] == Poly.parse("q^4+q^3")
    assert rows[3] == Poly.parse("q^4+q^3+q^2")
    rows5 = dict(nogin_weights(GrassParams(2, 5)))
    assert rows5[4] == Poly.parse("q^6+q^5+q^4+q^3")
    for params in (GrassParams(2, 6), GrassParams(3, 6)):
        assert dict(nogin_weights(params))[1] == Poly.monomial(params.delta)


def test_top_weights_examples():
    p = GrassParams(2, 4)
    n = grand_total(p)
    rows = dict(top_weights(p))
    assert rows[6] == n
    assert rows[5] == n - Poly.one()
    assert rows[4] == n - Poly.parse("q+1")
    assert rows[3] == n - Poly.parse("q^2+q+1")
    rows5 = dict(top_weights(GrassParams(2, 5)))
    n5 = grand_total(GrassParams(2, 5))
    assert rows5[6] == n5 - Poly.parse("q^3+q^2+q+1")


def test_head_tail_consistency_forces_n():
    # the two expressions for d_3 of C(2,4) pin n = q^4+q^3+2q^2+q+1
    p = GrassParams(2, 4)
    assert dict(nogin_weights(p))[3] == dict(top_weights(p))[3]
    assert grand_total(p) == Poly.parse("q^4+q^3+2q^2+q+1")
    assert grand_total(GrassParams(2, 5)) == Poly.parse("q^6+q^5+2q^4+2q^3+2q^2+q+1")


def test_d5_value():
    d5 = d5_c25()
    assert d5 == Poly.parse("q^6+q^5+2q^4+q^3")
    assert d5(2) == 136
    rows = dict(nogin_weights(GrassParams(2, 5)))
    tops = dict(top_weights(GrassParams(2, 5)))
    assert d5 == rows[4] + Poly.monomial(4)
    assert d5 == tops[6] - Poly.monomial(2)


def test_delta_tables_fixture():
    for (l, m), expect in DELTA_TABLES.items():
        table = delta_table(GrassParams(l, m))
        assert [str(rec.value) for rec in table] == expect


def test_delta_sum_is_n():
    for (l, m) in DELTA_TABLES:
        params = GrassParams(l, m)
        total = Poly.zero()
        for rec in delta_table(params):
            total = total + rec.value
        assert total == grand_total(params)


def test_delta_reciprocity_q3():
    # Delta_r(q) = q^delta * Delta_{k+1-r}(1/q) where the table is complete
    for (l, m) in DELTA_TABLES:
        params = GrassParams(l, m)
        table = delta_table(params)
        for rec in table:
            partner = table[params.k - rec.r]
            assert rec.value == partner.value.reversed_within(params.delta)


def test_delta_table_gap_structure():
    table = delta_table(GrassParams(2, 6))
    known = [rec.r for rec in table if rec.value is not None]
    assert known == [1, 2, 3, 4, 5, 11, 12, 13, 14, 15]


def test_weight_table_intervals():
    params = GrassParams(2, 6)
    rows = {rec.r: rec for rec in weight_table(params)}
    assert rows[1].value == Poly.monomial(8)
    gap = rows[7]
    assert gap.value is None
    assert gap.lower == Poly.parse("q^8+q^7+q^6+q^5+q^4+q^3+q^2")
    table = bound_table(params)
    assert gap.upper == table.row(7).D
    # the interval is consistent
    for q in (2, 3):
        assert gap.lower(q) <= gap.upper(q)


def test_gaussian_binomial():
    assert gaussian_binomial(6, 1, 2) == 63
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(10, 5, 2) == 109221651


def test_griesmer_lower():
    assert griesmer_lower(16, 3, 2) == 16 + 8 + 4
    assert griesmer_lower(4, 4, 2) == 4 + 2 + 1 + 1


def test_oracle_c24_q2_spot():
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 4))
    assert oracle_dr(f2, gm, 1) == 16
    assert oracle_dr(f2, gm, 6) == 35
    for r in (0, 7):
        with pytest.raises(ValueError):
            oracle_dr(f2, gm, r)


def test_oracle_full_rank_builds_no_tables(monkeypatch):
    # r = k has one subspace; tables of q^(k/2) masks would dwarf it
    def no_tables(*args):
        raise AssertionError("value tables built for r = k")
    monkeypatch.setattr(weights, "_value_tables", no_tables)
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 7))
    assert oracle_dr(f2, gm, gm.k) == gm.n == 2667


def test_oracle_budget():
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 4))
    with pytest.raises(BudgetExceeded, match="r=3 sweep needs 1395 subspaces"):
        oracle_dr(f2, gm, 3, budget=100)


def test_oracle_c25_optional_deep_values():
    # r=4 (5*10^7 subspaces) stops at its first leaf, which meets the Griesmer
    # cap; r=5 (10^8) has no tight cap and rests on branch-and-bound pruning
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 5))
    assert oracle_dr(f2, gm, 4, budget=2 * 10 ** 8) == 120
    assert oracle_dr(f2, gm, 5, budget=2 * 10 ** 8) == d5_c25()(2)


def test_oracle_c25_q3_capped_reach():
    # 7*10^7 to 5*10^11 subspaces, each sweep ended by a tight cap: the
    # Griesmer cap for the head, the projective cap for the tail
    f3 = Field(3)
    params = GrassParams(2, 5)
    gm = generator_matrix(f3, params)
    known = known_dr(params)
    for r in (2, 3, 4, 7, 8):
        assert oracle_dr(f3, gm, r, budget=10 ** 12) == known[r][0](3), r


def test_oracle_stops_at_first_maximiser(monkeypatch):
    # C(2,5) over F_2 at r=7: the first leaf kills |P^2| = 7 columns, the
    # projective cap, so only the first pivot set's 7 levels are built
    calls = []
    level = weights._level

    def counted(cache, pivots, i):
        calls.append(pivots)
        return level(cache, pivots, i)

    monkeypatch.setattr(weights, "_level", counted)
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 5))
    assert oracle_dr(f2, gm, 7) == gm.n - 7
    assert calls == [tuple(range(7))] * 7


def _echelon_rows(field, k, pivots, i):
    """Rows of level i of a reduced echelon basis, in itertools.product order."""
    pivot = pivots[i]
    free = [j for j in range(pivot + 1, k) if j not in pivots]
    rows = []
    for values in itertools.product(field.elements(), repeat=len(free)):
        row = [0] * k
        row[pivot] = 1
        for j, v in zip(free, values):
            row[j] = v
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("lm,q,r_max", [((2, 4), q, 3) for q in (2, 3, 4, 5)]
                         + [((3, 5), 2, 2)])
def test_levels_match_echelon_rows(lm, q, r_max):
    # every level of every pivot set: the rows' codes and zero sets, in order
    field = Field(q)
    gm = generator_matrix(field, GrassParams(*lm))
    cache = _MaskCache(field, gm.columns, gm.k)
    places = [q ** j for j in range(gm.k)]
    for r in range(1, r_max + 1):
        for pivots in itertools.combinations(range(gm.k), r):
            for i in range(r):
                expected = [(sum(x * p for x, p in zip(row, places)), cache.mask(row))
                            for row in _echelon_rows(field, gm.k, pivots, i)]
                assert list(weights._level(cache, pivots, i)) == expected, (pivots, i)


def _column_value_tables(field, columns, coords):
    """_value_tables as it was before it read byte rows: one pass over the
    columns per coordinate."""
    q, add, mul = field.q, field._add, field._mul
    table = [[(1 << len(columns)) - 1] + [0] * (q - 1)]
    for j in coords:
        parts = [0] * q
        for ci, col in enumerate(columns):
            parts[col[j]] |= 1 << ci
        size = len(table)
        for a in range(1, q):
            times_a = mul[a]
            for h in range(size):
                new = [0] * q
                for u, mask in enumerate(table[h]):
                    if mask:
                        plus_u = add[u]
                        for b, part in enumerate(parts):
                            new[plus_u[times_a[b]]] |= mask & part
                table.append(new)
    return table


def _tuple_classes(field, columns, k):
    """(zero columns, class sizes) as they were before the byte rows: each
    column scaled to lead with 1 as a tuple."""
    points = collections.Counter()
    for col in columns:
        scale = field._mul[field._inv[next((x for x in col if x), 0)]]
        points[tuple(scale[x] for x in col)] += 1
    return points.pop((0,) * k, 0), sorted(points.values(), reverse=True)


def _mixed_columns(field, k, n, rng):
    """n columns of length k mixing zero, repeated, proportional and random
    ones; the first is zero."""
    q = field.q
    columns = []
    while len(columns) < n:
        kind = rng.choice(["random", "zero", "repeat", "multiple"]) if columns else "zero"
        if kind == "zero":
            columns.append((0,) * k)
        elif kind == "repeat":
            columns.append(rng.choice(columns))
        elif kind == "multiple":
            scale = field._mul[rng.randrange(1, q)]
            columns.append(tuple(scale[x] for x in rng.choice(columns)))
        else:
            columns.append(tuple(rng.randrange(q) for _ in range(k)))
    return columns


@pytest.mark.parametrize("q,k", [(2, 4), (3, 4), (4, 4), (5, 4), (8, 4), (9, 4), (256, 2)])
def test_byte_rows_match_column_loops(q, k):
    # value tables and projective classes from byte rows equal the old
    # per-column loops; q = 256 fills the 256-byte translate tables unpadded
    field = Field(q)
    rng = random.Random(q)
    s = k // 2
    for n in (0, 1, 2, 7, 40):
        columns = list(map(bytes, _mixed_columns(field, k, n, rng)))
        cache = _MaskCache(field, columns, k)
        assert cache.lo == _column_value_tables(field, columns, range(s))
        assert cache.hi == [[masks[u] for u in field._neg]
                            for masks in _column_value_tables(field, columns, range(s, k))]
        assert (cache.zeros, cache.classes) == _tuple_classes(field, columns, k)


def _counted_sweeps(monkeypatch):
    """The r of every weights._sweep call, the d_1 sweeps inside ceilings too."""
    calls = []
    sweep = weights._sweep

    def counted(cache, r):
        calls.append(r)
        return sweep(cache, r)

    monkeypatch.setattr(weights, "_sweep", counted)
    return calls


@pytest.mark.parametrize("r,sweeps", [
    (4, [4, 1]),  # the first leaf misses the projective cap: d_1 for Griesmer
    (7, [7]),     # the first leaf meets the projective cap: no d_1
])
def test_d1_sweep_only_when_needed(monkeypatch, r, sweeps):
    calls = _counted_sweeps(monkeypatch)
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 5))
    weights._max_annihilated(f2, gm.columns, gm.k, r)
    assert calls == sweeps


def test_d1_swept_once_per_cache(monkeypatch):
    calls = _counted_sweeps(monkeypatch)
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 5))
    cache = _MaskCache(f2, gm.columns, gm.k)
    assert weights._sweep(cache, 4)[0] == gm.n - 120
    assert cache.d1 == 64
    assert weights._sweep(cache, 3)[0] == gm.n - 112
    assert calls == [4, 1, 3]


def test_dual_section_matches_dot_scan():
    # the dual section through masks equals the scan over a row-reduced
    # basis of the section, for every r-sweep witness of C(2,4) over F_3
    f3 = Field(3)
    gm = generator_matrix(f3, GrassParams(2, 4))
    cache = _MaskCache(f3, gm.columns, gm.k)
    for r in range(1, gm.k):
        _best, rows = weights._max_annihilated(f3, gm.columns, gm.k, r)
        section = [c for c in gm.columns if all(f3.dot(f, c) == 0 for f in rows)]
        basis = [b for b in row_reduce(f3, section)[0] if any(b)]
        expected = sum(1 for c in gm.columns if all(f3.dot(c, b) == 0 for b in basis))
        assert cache.dual_section(rows) == expected, r


def _uncapped_max_annihilated(field, columns, k, r):
    """The oracle sweep without ceilings: the reference for the capped one."""
    if r == k:
        # the whole dual space kills only zero columns; the value tables
        # would cost q^(k/2) masks for this one-subspace sweep
        identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        return sum(1 for col in columns if not any(col)), identity
    cache = _MaskCache(field, columns, k)
    full = (1 << len(columns)) - 1
    best, witness = -1, None
    path = [None] * r
    for pivots in itertools.combinations(range(k), r):
        levels = [[(row, cache.mask(row)) for row in _echelon_rows(field, k, pivots, i)]
                  for i in range(r)]

        def rec(i, acc):
            nonlocal best, witness
            last = i == r - 1
            for row, mask in levels[i]:
                sub = acc & mask
                count = sub.bit_count()
                if count <= best:
                    continue
                path[i] = row
                if last:
                    best, witness = count, list(path)
                else:
                    rec(i + 1, sub)

        rec(0, full)
    return best, witness


REFERENCE_CASES = (
    [((2, 4), q, r) for q in (2, 3, 4, 5) for r in range(1, 7)]
    + [((2, 5), 2, r) for r in (1, 2, 3, 4, 7, 8, 9, 10)]
    + [((1, 4), 3, r) for r in range(1, 5)]
    + [((1, 5), 2, r) for r in range(1, 6)]
    + [((3, 5), 2, r) for r in (1, 2, 8, 9, 10)]
)


@pytest.mark.parametrize("lm,q,r", REFERENCE_CASES)
def test_capped_sweep_matches_uncapped(lm, q, r):
    # same best count and same witness: the caps only cut the proof short
    field = Field(q)
    gm = generator_matrix(field, GrassParams(*lm))
    assert (weights._max_annihilated(field, gm.columns, gm.k, r)
            == _uncapped_max_annihilated(field, gm.columns, gm.k, r))


def test_min_weight_matches_oracle_d1():
    f2 = Field(2)
    gm = generator_matrix(f2, GrassParams(2, 4))
    assert min_weight_bruteforce(f2, gm) == oracle_dr(f2, gm, 1) == 16


def test_union_code_params_examples():
    f2 = Field(2)
    u = SchubertUnion(GrassParams(2, 5), [(1, 5), (2, 3)])
    out = union_code_params(u, f2.q)
    assert out["component_krull"] == [2, 3]
    assert out["d1"] == 4  # q^2 at q=2
    plane = union_code_params(SchubertUnion(GrassParams(2, 5), [(2, 3)]), f2.q)
    assert (plane["n"], plane["k"], plane["d1"]) == (7, 3, 4)
    for m in (4, 5):
        full = union_code_params(SchubertUnion.full(GrassParams(2, m)), f2.q)
        assert full["d1"] == 2 ** (2 * (m - 2))


def test_relative_bound_golden():
    params = GrassParams(2, 5)
    u = SchubertUnion(params, [(1, 5), (2, 3)])
    assert relative_bound(u, 2) == {5: 0, 4: 1, 3: 3, 2: 7, 1: 15, 0: 19}
    assert relative_bound(u, 3) == {5: 0, 4: 1, 3: 4, 2: 13, 1: 40, 0: 49}
    u = SchubertUnion(params, [(1, 5), (3, 4)])
    assert relative_bound(u, 2) == {7: 0, 6: 1, 5: 3, 4: 7, 3: 15, 2: 19,
                                    1: 35, 0: 43}
    assert relative_bound(u, 3) == {7: 0, 6: 1, 5: 4, 4: 13, 3: 40, 2: 49,
                                    1: 130, 0: 157}


def test_union_code_params_errors():
    f2 = Field(2)
    with pytest.raises(NotTwoDim):
        union_code_params(SchubertUnion(GrassParams(3, 6), [(1, 3, 5)]), f2.q)
    with pytest.raises(EmptyUnion):
        union_code_params(SchubertUnion.empty(GrassParams(2, 5)), f2.q)


def test_union_records_vs_oracle_c24():
    # every exact record matches the exhaustive sweep; intervals contain it
    f2 = Field(2)
    params = GrassParams(2, 4)
    for u in enumerate_ideals(params):
        if not u.maxima:
            continue
        out = union_code_params(u, f2.q)
        gm = generator_matrix(f2, params, u)
        assert (gm.n, gm.k) == (out["n"], out["k"])
        for rec in out["records"]:
            d = oracle_dr(f2, gm, rec.r)
            if rec.value is not None:
                assert d == rec.value, (u, rec)
            else:
                assert rec.lower <= d <= rec.upper, (u, rec)


def test_union_records_vs_oracle_c25_small_spans():
    # second family: every (2,5) union code of dimension <= 7, all r
    f2 = Field(2)
    params = GrassParams(2, 5)
    for u in enumerate_ideals(params):
        if not u.maxima or u.span() > 7:
            continue
        out = union_code_params(u, f2.q)
        gm = generator_matrix(f2, params, u)
        for rec in out["records"]:
            d = oracle_dr(f2, gm, rec.r)
            if rec.value is not None:
                assert d == rec.value, (u, rec)
            else:
                assert rec.lower <= d <= rec.upper, (u, rec)


def test_union_min_distance_exhaustive():
    f2 = Field(2)
    for params in (GrassParams(2, 4), GrassParams(2, 5)):
        for u in enumerate_ideals(params):
            if not u.maxima:
                continue
            gm = generator_matrix(f2, params, u)
            dmin = min(sum(a) - 3 for a in u.maxima)
            assert min_weight_bruteforce(f2, gm) == 2 ** dmin


def test_griesmer_and_sandwich_invariants():
    # oracle values respect Griesmer from below and D_r from above
    f2 = Field(2)
    params = GrassParams(2, 4)
    gm = generator_matrix(f2, params)
    table = bound_table(params)
    d1 = 16
    for r in range(1, 7):
        d = oracle_dr(f2, gm, r)
        assert d >= griesmer_lower(d1, r, 2)
        assert d <= table.row(r).D(2)


def test_formula_oracle_agreement_c24():
    # q = 4 runs the oracle over an extension field
    params = GrassParams(2, 4)
    known = {rec.r: rec.value for rec in weight_table(params)}
    for field in map(Field, (2, 3, 4, 5)):
        gm = generator_matrix(field, params)
        for r in range(1, 7):
            assert oracle_dr(field, gm, r) == known[r](field.q)


def test_oracle_c25_q3_head():
    # Nogin: d_1 = q^delta = 3^6, under the default budget
    f3 = Field(3)
    assert oracle_dr(f3, generator_matrix(f3, GrassParams(2, 5)), 1) == 729


def _dot_scan(field, columns, row):
    return sum(1 << ci for ci, col in enumerate(columns)
               if field.dot(row, col) == 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_zero_sets_match_dot_scan(q):
    # every functional for q <= 4, a seeded sample over F_8 and F_9
    field = Field(q)
    gm = generator_matrix(field, GrassParams(2, 4))
    zero_set = _MaskCache(field, gm.columns, gm.k).mask
    if q <= 4:
        rows = itertools.product(field.elements(), repeat=gm.k)
    else:
        rng = random.Random(q)
        rows = [tuple(rng.randrange(q) for _ in range(gm.k)) for _ in range(200)]
    for row in rows:
        assert zero_set(row) == _dot_scan(field, gm.columns, row), row


def monomial_nogin_weights(params):
    """nogin_weights as it was before it read the Griesmer polynomial."""
    delta = params.delta
    out = []
    acc = Poly.zero()
    for r in range(1, weights.nogin_s(params) + 1):
        acc = acc + Poly.monomial(delta - r + 1)
        out.append((r, acc))
    return out


def monomial_top_weights(params):
    """top_weights as it was before it became one comprehension."""
    k = params.k
    n = grand_total(params)
    out = []
    acc = Poly.zero()
    for a in range(0, weights.nogin_s(params) + 1):
        r = k - a
        if r < 1:
            break
        out.append((r, n - acc))
        acc = acc + Poly.monomial(a)
    return sorted(out)


def test_head_and_tail_match_monomial_loops():
    for m in range(2, 16):
        for l in range(1, m):
            params = GrassParams(l, m)
            assert nogin_weights(params) == monomial_nogin_weights(params), params
            assert top_weights(params) == monomial_top_weights(params), params


def test_subideals_match_below_table():
    from test_grassgrid import below_table_down_sets

    for l, m, maxima in [(2, 5, [(1, 5), (2, 3)]), (2, 7, [(1, 7), (3, 5)]),
                         (3, 6, [(1, 4, 6), (2, 3, 5)]), (2, 8, [(4, 6)])]:
        u = SchubertUnion(GrassParams(l, m), maxima)
        got = list(weights.enumerate_subideals(u))
        assert got == list(below_table_down_sets(sorted(u.ideal()))), u


@pytest.mark.parametrize("q", [2, 3])
def test_mask_memo_keeps_one_entry_per_functional(monkeypatch, q):
    # experiment Q4 asks for witness rows as int tuples and columns as bytes
    from schubert_unions import cli, pluecker

    seen = []
    mask = _MaskCache.mask

    def spy(self, row):
        seen.append((self, bytes(row)))
        return mask(self, row)

    monkeypatch.setattr(_MaskCache, "mask", spy)
    cli.experiment_q4(GrassParams(2, 4), q, weights.DEFAULT_ORACLE_BUDGET,
                      pluecker.DEFAULT_POINT_GUARD)
    caches = {id(cache): cache for cache, _row in seen}
    assert len(caches) == 1
    (cache,) = caches.values()
    assert len(cache.cache) == len({row for _cache, row in seen})
    assert all(type(key) is bytes for key in cache.cache)
