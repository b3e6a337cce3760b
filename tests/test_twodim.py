import itertools
import re

import pytest

import schubert_unions
from schubert_unions import duality, grassgrid, optimizer, twodim
from schubert_unions.duality import dual_union
from schubert_unions.grassgrid import (
    GrassParams,
    SchubertUnion,
    canonicalize,
    enumerate_ideals,
)
from schubert_unions.twodim import (
    EmptyUnion,
    MSet,
    NotTwoDim,
    SigmaSeq,
    dual_sigma,
    mset_complement,
    mset_to_union,
    sigma_to_union,
    union_to_mset,
    union_to_sigma,
)


def test_mset_examples():
    u = SchubertUnion(GrassParams(2, 7), [(1, 7), (3, 5)])
    assert union_to_mset(u).elements == (2, 3, 6)
    assert union_to_mset(SchubertUnion(GrassParams(2, 5), [(2, 4)])).elements == (2, 3)
    assert union_to_mset(SchubertUnion.empty(GrassParams(2, 5))).elements == ()


def test_mset_to_union_examples():
    u = mset_to_union(MSet(7, (2, 3, 6)))
    assert u.maxima == ((1, 7), (3, 5))
    for m in range(3, 9):
        assert mset_to_union(MSet(m, tuple(range(1, m)))) == \
            SchubertUnion.full(GrassParams(2, m))


def reference_mset_to_union(mset):
    """mset_to_union as it was when it closed the filled cells with canonicalize."""
    params = GrassParams(2, mset.m)
    pts = set()
    for col, cnt in enumerate(sorted(mset.elements, reverse=True), start=1):
        for j in range(cnt):
            pts.add((col, col + 1 + j))
    return canonicalize(params, pts)


def every_mset(m):
    for size in range(m):
        for elements in itertools.combinations(range(1, m), size):
            yield MSet(m, elements)


def refuse_canonicalize(monkeypatch):
    """Make canonicalize raise in every module that binds the name."""
    def refuse(*args):
        raise AssertionError("canonicalize called")

    for module in (schubert_unions, grassgrid, twodim, optimizer, duality):
        if hasattr(module, "canonicalize"):
            monkeypatch.setattr(module, "canonicalize", refuse)


def test_mset_to_union_matches_canonicalize_reference():
    for m in range(3, 13):
        for ms in every_mset(m):
            u = mset_to_union(ms)
            ref = reference_mset_to_union(ms)
            assert u == ref and u.point_count() == ref.point_count(), ms
            # the unchecked build holds a valid antichain
            assert SchubertUnion(u.params, u.maxima) == u, ms


def test_mset_to_union_builds_no_point_set(monkeypatch):
    refuse_canonicalize(monkeypatch)
    for m in (3, 6, 9):
        for ms in every_mset(m):
            u = mset_to_union(ms)
            assert u._ideal is None
            assert union_to_mset(u) == ms


def test_mset_refuses_non_integer_elements():
    with pytest.raises(ValueError, match=r"invalid M-set \(1\.5,\) for m=5"):
        MSet(5, (1.5,))
    with pytest.raises(ValueError, match="invalid M-set"):
        MSet(5, (True,))


@pytest.mark.parametrize("m", [5.0, True, "5", None])
def test_mset_refuses_non_integer_m(m):
    with pytest.raises(ValueError, match=re.escape(f"got {m!r}")):
        MSet(m, (1, 2))


@pytest.mark.parametrize("m,a,b,bad", [
    (7, (1.5,), (3,), 1.5),
    (7, (1,), (3.0,), 3.0),
    (7.0, (1,), (3,), 7.0),
    (7, (True,), (3,), True),
    (True, (1,), (3,), True),
    (7, (1, 2), (5, "4"), "4"),
])
def test_sigma_refuses_non_integers(m, a, b, bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        SigmaSeq(m, a, b)


@pytest.mark.parametrize("a,b", [((), ()), ((1,), ()), ((1, 2), (5,))])
def test_sigma_refuses_unequal_or_empty_halves(a, b):
    with pytest.raises(ValueError, match="need equally many a's and b's"):
        SigmaSeq(7, a, b)


def test_mset_roundtrip_exhaustive():
    for m in range(3, 9):
        params = GrassParams(2, m)
        seen = set()
        for u in enumerate_ideals(params):
            ms = union_to_mset(u)
            assert mset_to_union(ms) == u
            seen.add(ms.elements)
        # power-set bijection
        assert len(seen) == 2 ** (m - 1)


def test_sigma_examples():
    u = SchubertUnion(GrassParams(2, 7), [(1, 7), (3, 5)])
    sig = union_to_sigma(u)
    assert sig.seq() == (1, 3, 5, 7)
    assert sigma_to_union(sig) == u
    single = union_to_sigma(SchubertUnion(GrassParams(2, 9), [(4, 6)]))
    assert single.seq() == (4, 6)


def test_sigma_errors():
    with pytest.raises(EmptyUnion):
        union_to_sigma(SchubertUnion.empty(GrassParams(2, 5)))
    with pytest.raises(NotTwoDim):
        union_to_mset(SchubertUnion(GrassParams(3, 6), [(1, 3, 5)]))
    with pytest.raises(ValueError):
        SigmaSeq(7, (3,), (3,))


def test_dual_sigma_examples():
    assert dual_sigma(SigmaSeq(7, (1, 3), (7, 5))).seq() == (2, 3, 4, 6)
    # the dual of S_(5,6) is S_(1,7)
    assert dual_sigma(SigmaSeq(7, (5,), (6,))).seq() == (1, 7)
    with pytest.raises(EmptyUnion):
        dual_sigma(SigmaSeq(7, (6,), (7,)))  # full grid; its dual is empty


def test_dual_sigma_exhaustive():
    for m in range(3, 9):
        params = GrassParams(2, m)
        for u in enumerate_ideals(params):
            if not u.maxima:
                continue
            d = dual_union(u)
            if not d.maxima:
                continue
            assert dual_sigma(union_to_sigma(u)) == union_to_sigma(d)


def test_complement_examples():
    assert mset_complement(MSet(7, (2, 3, 6))).elements == (1, 4, 5)
    assert mset_complement(MSet(7, ())).elements == (1, 2, 3, 4, 5, 6)


def test_complement_is_dual_exhaustive():
    for m in range(3, 9):
        for u in enumerate_ideals(GrassParams(2, m)):
            ms = union_to_mset(u)
            assert mset_complement(ms).elements == \
                union_to_mset(dual_union(u)).elements


def test_no_self_dual_union():
    for m in range(3, 9):
        for u in enumerate_ideals(GrassParams(2, m)):
            ms = union_to_mset(u)
            assert mset_complement(ms).elements != ms.elements


def test_proper_two_cycle_condition():
    params = GrassParams(2, 7)
    grid = [(a, b) for a, b in itertools.combinations(range(1, 8), 2)]
    for p1, p2 in itertools.combinations(grid, 2):
        a, b = p1
        c, d = p2
        proper = a < c < d < b or c < a < b < d
        ideal1 = SchubertUnion(params, [p1]).ideal()
        ideal2 = SchubertUnion(params, [p2]).ideal()
        union_is_proper = not (ideal1 <= ideal2 or ideal2 <= ideal1)
        assert union_is_proper == proper


def test_dual_cycle_count():
    # the dual of a proper s-cycle union has s-1, s or s+1 cycles
    for m in range(3, 9):
        for u in enumerate_ideals(GrassParams(2, m)):
            if not u.maxima:
                continue
            d = dual_union(u)
            if not d.maxima:
                continue
            assert abs(len(u.maxima) - len(d.maxima)) <= 1


def test_transforms_commute_with_duality():
    # complement of M_U equals the M-set of the dual-sigma union
    for m in range(3, 9):
        for u in enumerate_ideals(GrassParams(2, m)):
            if not u.maxima:
                continue
            d = dual_union(u)
            if not d.maxima:
                continue
            lhs = mset_complement(union_to_mset(u))
            rhs = union_to_mset(sigma_to_union(dual_sigma(union_to_sigma(u))))
            assert lhs.elements == rhs.elements


def test_mset_from_maxima_matches_column_counts():
    for m in range(3, 12):
        for u in enumerate_ideals(GrassParams(2, m), guard=55):
            columns = {}
            for x, _y in u.ideal():
                columns[x] = columns.get(x, 0) + 1
            assert union_to_mset(u).elements == tuple(sorted(columns.values())), u
