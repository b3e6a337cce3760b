"""Encodings special to G(2,m).

A union's grid has m_i cells in column i with m_1 > m_2 > ... > m_r, so the
set {m_1,...,m_r} is a subset of {1..m-1} and unions biject with the power
set (2^{m-1} unions).  A nonempty union also encodes as the interleaved
corner sequence a_1 < ... < a_s < b_s < ... < b_1.  Taking complements of
the subset is duality; the sequence has its own dual construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grassgrid import GrassParams, SchubertUnion, canonicalize


class NotTwoDim(ValueError):
    """Operation defined only for l = 2."""


class EmptyUnion(ValueError):
    """The empty union has no corner sequence."""


def _require_l2(params):
    if params.l != 2:
        raise NotTwoDim(f"l = {params.l}, need l = 2")


@dataclass(frozen=True)
class MSet:
    """Column-count subset of {1..m-1}; elements stored increasing."""

    m: int
    elements: tuple

    def __post_init__(self):
        e = self.elements
        if any(not (1 <= x <= self.m - 1) for x in e) or list(e) != sorted(set(e)):
            raise ValueError(f"invalid M-set {e} for m={self.m}")


@dataclass(frozen=True)
class SigmaSeq:
    """Corner sequence a_1 < ... < a_s < b_s < ... < b_1 <= m.

    a is stored increasing, b decreasing (b[i] pairs with a[i]).
    """

    m: int
    a: tuple
    b: tuple

    def __post_init__(self):
        seq = self.seq()
        if len(self.a) != len(self.b) or not self.a:
            raise ValueError("need equally many a's and b's, at least one each")
        if any(x >= y for x, y in zip(seq, seq[1:])) or seq[0] < 1 or seq[-1] > self.m:
            raise ValueError(f"sequence {seq} is not strictly increasing in 1..{self.m}")

    def seq(self):
        """The 2s values in increasing order."""
        return self.a + tuple(reversed(self.b))


def union_to_mset(union: SchubertUnion) -> MSet:
    """Per-column cell counts of G_U, as a subset of {1..m-1}.

    Read from the maxima, which builds no point set: column x holds the
    cells (x, x+1)..(x, Y_x), where Y_x is the largest b over maxima (a, b)
    with a >= x.  Sorted by a, the maxima have b decreasing, so Y_x is the
    b of the first maximum with a >= x.
    """
    _require_l2(union.params)
    heights = []
    x = 1
    for a, b in union.maxima:
        heights.extend(b - col for col in range(x, a + 1))
        x = a + 1
    # the heights fall strictly from column to column
    return MSet(union.params.m, tuple(reversed(heights)))


def mset_to_union(mset: MSet) -> SchubertUnion:
    """Fill column i with the i-th largest count, bottom up, and canonicalize."""
    params = GrassParams(2, mset.m)
    pts = set()
    for col, cnt in enumerate(sorted(mset.elements, reverse=True), start=1):
        for j in range(cnt):
            pts.add((col, col + 1 + j))
    return canonicalize(params, pts)


def mset_complement(mset: MSet) -> MSet:
    """Complement in {1..m-1}; this is the M-set of the dual union."""
    return MSet(mset.m, tuple(x for x in range(1, mset.m) if x not in set(mset.elements)))


def union_to_sigma(union: SchubertUnion) -> SigmaSeq:
    """Corner sequence of a nonempty union of G(2,m)."""
    _require_l2(union.params)
    if not union.maxima:
        raise EmptyUnion("empty union has no corner sequence")
    a = tuple(t[0] for t in union.maxima)
    b = tuple(t[1] for t in union.maxima)
    return SigmaSeq(union.params.m, a, b)


def sigma_to_union(sigma: SigmaSeq) -> SchubertUnion:
    params = GrassParams(2, sigma.m)
    return SchubertUnion(params, tuple(zip(sigma.a, sigma.b)))


def dual_sigma(sigma: SigmaSeq) -> SigmaSeq:
    """Corner sequence of the dual union, built directly from the sequence.

    List m-b_1,...,m-b_s, m-a_s-1, m-a_s, m-a_{s-1},...,m-a_1, m; drop the
    outer pair iff b_1 = m and the middle pair iff b_s = a_s + 1.
    """
    m = sigma.m
    a, b = sigma.a, sigma.b
    s = len(a)
    raw = ([m - x for x in b]
           + [m - a[-1] - 1, m - a[-1]]
           + [m - x for x in reversed(a[:-1])]
           + [m])
    drop = set()
    if b[0] == m:
        drop.update((0, len(raw) - 1))
    if b[-1] == a[-1] + 1:
        drop.update((s, s + 1))
    seq = [v for i, v in enumerate(raw) if i not in drop]
    if not seq:
        raise EmptyUnion("the dual of the full grid is empty")
    t = len(seq) // 2
    return SigmaSeq(m, tuple(seq[:t]), tuple(reversed(seq[t:])))
