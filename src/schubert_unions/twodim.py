"""Encodings special to G(2,m).

A union's grid has m_i cells in column i with m_1 > m_2 > ... > m_r, so the
set {m_1,...,m_r} is a subset of {1..m-1} and unions biject with the power
set (2^{m-1} unions).  A nonempty union also encodes as the interleaved
corner sequence a_1 < ... < a_s < b_s < ... < b_1.  Taking complements of
the subset is duality; the sequence has its own dual construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grassgrid import GrassParams, SchubertUnion, _is_int


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
        if not _is_int(self.m):
            raise ValueError(f"M-set needs an integer m, got {self.m!r}")
        e = self.elements
        if not all(_is_int(x) and 1 <= x < self.m for x in e) or list(e) != sorted(set(e)):
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
        if len(self.a) != len(self.b) or not self.a:
            raise ValueError("need equally many a's and b's, at least one each")
        bad = [x for x in (self.m, *self.a, *self.b) if not _is_int(x)]
        if bad:
            raise ValueError(f"corner sequence needs integers, got {bad[0]!r}")
        seq = self.seq()
        if any(x >= y for x, y in zip(seq, seq[1:])) or seq[0] < 1 or seq[-1] > self.m:
            raise ValueError(f"sequence {seq} is not strictly increasing in 1..{self.m}")

    def seq(self):
        """The 2s values in increasing order."""
        return self.a + tuple(reversed(self.b))


def column_heights(maxima):
    """Per-column cell counts, increasing, of the l=2 ideal with these sorted maxima.

    Read from the maxima, which builds no point set: column x holds the cells
    (x, x+1)..(x, b) for the first maximum (a, b) with a >= x, whose b is the
    largest over those maxima, since b falls as a grows.
    """
    starts = [1] + [a + 1 for a, _b in maxima]
    return tuple(sorted(b - x for x0, (a, b) in zip(starts, maxima) for x in range(x0, a + 1)))


def union_to_mset(union: SchubertUnion) -> MSet:
    """Per-column cell counts of G_U, as a subset of {1..m-1}."""
    _require_l2(union.params)
    return MSet(union.params.m, column_heights(union.maxima))


def mset_to_union(mset: MSet) -> SchubertUnion:
    """Fill column i with the i-th largest count h_i, bottom up: its top cell
    (i, i + h_i) is a maximum unless column i + 1 holds exactly h_i - 1 cells."""
    h = sorted(mset.elements, reverse=True)
    maxima = tuple((i, i + hi) for i, (hi, nxt) in enumerate(zip(h, h[1:] + [-1]), start=1)
                   if nxt != hi - 1)
    return SchubertUnion._build(GrassParams(2, mset.m), maxima, None)


def mset_complement(mset: MSet) -> MSet:
    """Complement in {1..m-1}; this is the M-set of the dual union."""
    return MSet(mset.m, tuple(x for x in range(1, mset.m) if x not in set(mset.elements)))


def union_to_sigma(union: SchubertUnion) -> SigmaSeq:
    """Corner sequence of a nonempty union of G(2,m)."""
    _require_l2(union.params)
    if not union.maxima:
        raise EmptyUnion("empty union has no corner sequence")
    return SigmaSeq(union.params.m, *zip(*union.maxima))


def sigma_to_union(sigma: SigmaSeq) -> SchubertUnion:
    return SchubertUnion(GrassParams(2, sigma.m), tuple(zip(sigma.a, sigma.b)))


def dual_sigma(sigma: SigmaSeq) -> SigmaSeq:
    """Corner sequence of the dual union, built directly from the sequence.

    List m-b_1,...,m-b_s, m-a_s-1, m-a_s, m-a_{s-1},...,m-a_1, m; drop the
    outer pair iff b_1 = m and the middle pair iff b_s = a_s + 1.
    """
    m, a, b = sigma.m, sigma.a, sigma.b
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
