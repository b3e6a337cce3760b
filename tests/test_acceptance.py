"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each criterion asserts exact values and its runtime budget.
"""

import time

from schubert_unions.duality import dual_point_count, dual_union, dual_union_explicit
from schubert_unions.gf import Field
from schubert_unions.grassgrid import (
    GrassParams,
    Poly,
    SchubertUnion,
    enumerate_ideals,
    gaussian_binomial,
    grand_total,
)
from schubert_unions.optimizer import (
    best_union,
    bound_table,
    exhaustive_bound_table,
    krull_C,
    krull_dK,
    threshold_report,
)
from schubert_unions.pluecker import enumerate_points, generator_matrix
from schubert_unions.weights import min_weight_bruteforce, oracle_dr

from table_fixtures import (
    DIRECTIONS,
    E_EXPONENTS,
    G25_ROWS,
    G26_ROWS,
    G36_DUAL_PAIRS,
    G36_ROWS,
)


class Criterion:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.title} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
        return False


def _label(mx):
    if not mx:
        return "∅"
    return " ∪ ".join("(" + ",".join(map(str, a)) + ")" for a in sorted(mx))


def _cli_enumeration_rows(l, m, capsys):
    from schubert_unions.cli import main
    assert main(["enumerate", "--l", str(l), "--m", str(m),
                 "--format", "json"]) == 0
    import json
    return {row["U"]: row for row in json.loads(capsys.readouterr().out)}


def test_criterion_1_enumeration_tables(capsys):
    with Criterion(1, "enumeration tables (2,5), (2,6), (3,6)", 1.0):
        for (l, m), fixture in (((2, 5), G25_ROWS), ((2, 6), G26_ROWS),
                                ((3, 6), G36_ROWS)):
            computed = _cli_enumeration_rows(l, m, capsys)
            assert len(computed) == len(fixture)
            for mx, span, kr, ms, poly, maximal in fixture:
                got = computed[_label(mx)]
                assert got["Span"] == span, (mx, "span")
                assert got["Krull"] == kr, (mx, "krull")
                if l == 2:
                    want = "{" + ",".join(map(str, ms)) + "}" if ms else "∅"
                    assert got["M_U"] == want, (mx, "mset")
                assert got["Points"] == Poly.parse(poly).to_list(), (mx, "points")
                assert got["Maximal"] == ("Yes" if maximal else "No"), mx
        rows36 = _cli_enumeration_rows(3, 6, capsys)
        three = rows36[_label(((1, 3, 6), (1, 4, 5), (2, 3, 5)))]
        assert three["Span"] == 10


def test_criterion_2_duality():
    with Criterion(2, "duality tables, biduality, span complement", 10.0):
        p36 = GrassParams(3, 6)
        for mx, dual_mx, _maximal in G36_DUAL_PAIRS:
            u = SchubertUnion(p36, mx)
            d = dual_union(u)
            assert d.maxima == tuple(sorted(dual_mx))
            assert dual_union_explicit(u) == d
        for params in [GrassParams(2, m) for m in range(3, 9)] + [p36]:
            for u in enumerate_ideals(params):
                d = dual_union(u)
                assert dual_union(d) == u
                assert u.span() + d.span() == params.k


def test_criterion_3_er_tables():
    with Criterion(3, "E_r tables (2,6)(2,7)(2,8)(3,6) and (2,10) values", 10.0):
        for (l, m), exponents in E_EXPONENTS.items():
            table = bound_table(GrassParams(l, m))
            assert table.E_exponent_list() == exponents, (l, m)
        t10 = bound_table(GrassParams(2, 10))
        assert t10.row(22).E == Poly.parse("q^9+q^8-q^6")
        assert t10.row(24).E == Poly.parse("q^6")


def test_criterion_4_direction_tables():
    with Criterion(4, "direction tables (2,7), (2,9), (2,10)", 5.0):
        for (l, m), expect in DIRECTIONS.items():
            params = GrassParams(l, m)
            got = [best_union(params, params.k - r)[1] for r in range(params.k + 1)]
            assert got == expect, (l, m)
            for row in threshold_report(params):
                direction = best_union(params, row["K"])[1]
                if row["regime"] == "right":
                    assert direction in ("R", "LR")
                elif row["regime"] == "left":
                    assert direction in ("L", "LR")


def test_criterion_5_optimizer_oracle_equivalence():
    with Criterion(5, "J_r equals exhaustive maximum; two-cycle optimality", 60.0):
        for params in [GrassParams(2, m) for m in range(3, 9)] + [GrassParams(3, 6)]:
            fast = bound_table(params)
            slow = exhaustive_bound_table(params)
            for r in range(params.k + 1):
                assert fast.row(r).J == slow.row(r).J, (params, r)
        for m in range(3, 9):
            params = GrassParams(2, m)
            best = {}
            for u in enumerate_ideals(params):
                K, g = u.span(), u.point_count()
                have = best.get(K)
                if have is None or g > have[0]:
                    best[K] = (g, {u})
                elif g == have[0]:
                    have[1].add(u)
            for K, (_g, opt) in best.items():
                assert any(len(u.maxima) <= 2 for u in opt), (m, K)


def test_criterion_6_krull():
    with Criterion(6, "d(K) equals exhaustive maximum; C(d) closed forms", 10.0):
        for m in range(3, 9):
            params = GrassParams(2, m)
            best = {}
            for u in enumerate_ideals(params):
                best[u.span()] = max(best.get(u.span(), -1), u.krull())
            running = -1
            for K in range(params.k + 1):
                running = max(running, best[K])
                assert krull_dK(params, K) == running, (m, K)
            for d in range(m - 2, 2 * m - 3):
                x = d - m + 3
                c1 = x * m - x * (x + 1) // 2
                c2 = (d * d + 6 * d + 8) // 8 if d % 2 == 0 \
                    else (d * d + 8 * d + 7) // 8
                assert krull_C(params, d) == min(c1, c2), (m, d)


def test_criterion_7_point_enumeration():
    with Criterion(7, "point counts match the product formula and g_U(q)", 60.0):
        for params, qs in [(GrassParams(2, 4), (2, 3, 4, 5)),
                           (GrassParams(2, 5), (2, 3)),
                           (GrassParams(3, 6), (2,))]:
            for q in qs:
                field = Field(q)
                got = sum(1 for _ in enumerate_points(field, params))
                assert got == gaussian_binomial(params.m, params.l, q), (params, q)
        f2 = Field(2)
        for params in (GrassParams(2, 4), GrassParams(2, 5)):
            for u in enumerate_ideals(params):
                got = sum(1 for _ in enumerate_points(f2, params, u))
                assert got == u.point_count()(2), (params, u)


def test_criterion_8_full_oracle_c24():
    with Criterion(8, "C(2,4) oracle hierarchy over F_2 and F_3", 300.0):
        expected = {2: [16, 24, 28, 32, 34, 35],
                    3: [81, 108, 117, 126, 129, 130]}
        for q, vals in expected.items():
            field = Field(q)
            gm = generator_matrix(field, GrassParams(2, 4))
            got = [oracle_dr(field, gm, r) for r in range(1, 7)]
            assert got == vals, q


def test_criterion_9_partial_oracle_c25():
    with Criterion(9, "C(2,5) oracle r=1..3 over F_2", 300.0):
        field = Field(2)
        gm = generator_matrix(field, GrassParams(2, 5))
        got = [oracle_dr(field, gm, r) for r in (1, 2, 3)]
        assert got == [64, 96, 112]


def test_criterion_10_union_codes():
    with Criterion(10, "union codes: min distance and rank", 120.0):
        f2 = Field(2)
        for params in (GrassParams(2, 4), GrassParams(2, 5)):
            for u in enumerate_ideals(params):
                if not u.maxima:
                    continue
                gm = generator_matrix(f2, params, u)
                assert gm.rank() == u.span(), (params, u)
                dmin = min(sum(a) - 3 for a in u.maxima)
                assert min_weight_bruteforce(f2, gm) == 2 ** dmin, (params, u)


def test_criterion_11_property_suite():
    with Criterion(11, "g_U(1) = span; dual reciprocity; Q9 outcomes", 60.0):
        families = [GrassParams(2, m) for m in range(3, 9)] + [GrassParams(3, 6)]
        for params in families:
            delta = params.delta
            n = grand_total(params)
            for u in enumerate_ideals(params):
                g = u.point_count()
                assert g(1) == u.span()
                h = n - g
                assert dual_point_count(u) == dual_union(u).point_count()
                assert dual_point_count(u) == h.reversed_within(delta)
        # E_r reciprocity affirmed through m = 9, refuted at the (2,10) pairs
        for m in range(3, 10):
            params = GrassParams(2, m)
            table = bound_table(params)
            for r in range(1, params.k + 1):
                e = table.row(r).E
                partner = table.row(params.k + 1 - r).E
                assert e == partner.reversed_within(params.delta), (m, r)
        t10 = bound_table(GrassParams(2, 10))
        delta10 = GrassParams(2, 10).delta
        e22, e24 = t10.row(22).E, t10.row(24).E
        assert e22 == Poly.parse("q^9+q^8-q^6") and e24 == Poly.parse("q^6")
        assert e22 != e24.reversed_within(delta10)
        assert e24 != e22.reversed_within(delta10)
