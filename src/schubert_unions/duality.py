"""Grid duality of Schubert unions.

The dual of U is the union whose ideal is rev(H_U), where rev is the
order-reversing involution of the grid, so its maxima are the rev images of
the minimal points of H_U.  Spanning dimensions of U and its dual add up to
binomial(m,l), and the dual point count is the reciprocal polynomial
q^delta * h_U(1/q).
"""

from __future__ import annotations

from operator import le

from .grassgrid import (
    Poly,
    SchubertUnion,
    grand_total,
    lower_covers,
    upper_covers,
)


class ReciprocityViolation(RuntimeError):
    """h_U has degree above delta; the union's data is corrupt."""


def rev(params, alpha):
    """The involution (a_1,...,a_l) -> (m+1-a_l,...,m+1-a_1)."""
    return tuple(params.m + 1 - x for x in reversed(alpha))


def dual_union(union: SchubertUnion) -> SchubertUnion:
    """Dual union, from its maxima: the rev images of H_U's minimal points.

    A minimal point of H_U other than the grid's bottom has a lower cover,
    which lies in G_U, so the minimal points are the upper covers of G_U
    outside it whose lower covers all lie in G_U; for an empty U, the bottom.
    Only G_U is read, never the whole grid.
    """
    params, ideal = union.params, union.ideal()
    if ideal:
        least = {beta for alpha in ideal for beta in upper_covers(alpha, params.m)
                 if beta not in ideal and ideal.issuperset(lower_covers(beta))}
    else:
        least = [tuple(range(1, params.l + 1))]
    tops = sorted(rev(params, beta) for beta in least)
    return SchubertUnion._build(params, tuple(tops), None)


def dual_union_explicit(union: SchubertUnion) -> SchubertUnion:
    """Dual via the corner recursion over assignments of the maxima to blocks.

    An assignment puts each maximum a in one block b of 1..l, and M_b is the
    largest a_b in block b, 0 for an empty block.  It gives the cycle
    (f_1,...,f_l) with f_l = m - M_1 and f_j = min(f_{j+1} - 1, m - M_{l+1-j});
    cycles with some f_j < j are dropped.  f is nonincreasing in every M_b,
    so a vector (M_1..M_l) above another gives a cycle below that one's, or
    is dropped with it: the maxima are folded in one at a time, keeping only
    the componentwise-least vectors, and the dual's maxima are the maximal
    valid cycles.  It never reads H_U, so it cross-checks dual_union.
    """
    params = union.params
    l, m = params.l, params.m
    least = [(0,) * l]
    for a in union.maxima:
        # sorted, each vector follows every vector below it
        grown = sorted({M[:b] + (max(M[b], a[b]),) + M[b + 1:] for M in least for b in range(l)})
        least = []
        for M in grown:
            if not any(all(map(le, L, M)) for L in least):
                least.append(M)
    cycles = set()
    for M in least:
        f = [m + 1]
        for j in range(l, 0, -1):
            f.append(min(f[-1] - 1, m - M[l - j]))
            if f[-1] < j:
                break
        else:
            cycles.add(tuple(f[:0:-1]))
    return SchubertUnion(params, [c for c in cycles
                                  if not any(c != d and all(map(le, c, d)) for d in cycles)])


def dual_point_count(union: SchubertUnion) -> Poly:
    """g of the dual union, computed as q^delta * h_U(1/q)."""
    params = union.params
    h = grand_total(params) - union.point_count()
    if h.degree > params.delta:
        raise ReciprocityViolation(
            f"h_U has degree {h.degree} > delta {params.delta}")
    return h.reversed_within(params.delta)
