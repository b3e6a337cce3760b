"""Grid duality of Schubert unions.

The dual of U is the union whose ideal is rev(H_U), where rev is the
order-reversing involution of the grid, so its maxima are the rev images of
the minimal points of H_U.  Spanning dimensions of U and its dual add up to
binomial(m,l), and the dual point count is the reciprocal polynomial
q^delta * h_U(1/q).

Two constructions give the same dual.  dual_union_explicit folds the
maxima alone through the corner recursion; it is the one the CLI runs.
dual_union walks the points of G_U, so its cost grows with |G_U|; it is the
independent reference the tests hold the fold to.
"""

from __future__ import annotations

from operator import le, lt

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
    """Dual union by the G_U walk: the rev images of H_U's minimal points.

    A minimal point of H_U other than the grid's bottom has a lower cover,
    which lies in G_U, so the minimal points are the upper covers of G_U
    outside it whose lower covers all lie in G_U; for an empty U, the bottom.
    Only G_U is read, never the whole grid, but every point of G_U is.
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
    """The dual from the maxima alone: the corner recursion over assignments.

    An assignment puts each maximum a in one block b of 1..l, and M_b is the
    largest a_b in block b, 0 for an empty block.  It gives the cycle
    (f_1,...,f_l) with f_l = m - M_1 and f_j = min(f_{j+1} - 1, m - M_{l+1-j});
    cycles with some f_j < j are dropped.  So f_j = m - M*_{l+1-j} for the
    closed vector M*_1 = M_1, M*_b = max(M_b, M*_{b-1} + 1), and f is kept
    exactly when M*_l < m.  M* is nondecreasing in every M_b, so the maxima
    are folded in one at a time, keeping only the componentwise-least closed
    vectors with M*_l < m; their cycles are the dual's maxima.

    At a maximum a, a vector with some M_b >= a_b stays: it lies above no
    other candidate.  Every other vector gives way to its l children, each
    with one M_b raised to a_b and closed again.  A child lies below a, so
    only the vectors below a can lie below it.  G_U is never read: dual_union,
    the G_U walk, is the independent reference.
    """
    params = union.params
    l, m = params.l, params.m
    least = {tuple(range(l))}
    for a in union.maxima:
        # the last coordinate, the largest, rules out most vectors at once
        under = [M for M in least if M[-1] <= a[-1] and all(map(le, M, a))]
        grown = [M for M in under if all(map(lt, M, a))]
        least.difference_update(grown)
        low = [M for M in under if M not in grown]
        # child b: M_b raised to a_b, and M_x to at least a_b + x - b above it;
        # sorted, each child follows every child below it
        for c in sorted({M[:b] + tuple(map(max, M[b:], range(a[b], a[b] + l - b)))
                         for M in grown for b in range(l)}):
            if c[-1] < m and not any(all(map(le, L, c)) for L in low):
                low.append(c)
                least.add(c)
    # least is an antichain, so its cycles are too
    return SchubertUnion._build(
        params, tuple(sorted(tuple(m - x for x in reversed(M)) for M in least)), None)


def dual_point_count(union: SchubertUnion) -> Poly:
    """g of the dual union, computed as q^delta * h_U(1/q)."""
    params = union.params
    h = grand_total(params) - union.point_count()
    if h.degree > params.delta:
        raise ReciprocityViolation(
            f"h_U has degree {h.degree} > delta {params.delta}")
    return h.reversed_within(params.delta)
