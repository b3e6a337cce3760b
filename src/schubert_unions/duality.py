"""Grid duality of Schubert unions.

The dual of U is the union whose ideal is rev(H_U), where rev is the
order-reversing involution of the grid, so its maxima are the rev images of
the minimal points of H_U.  Spanning dimensions of U and its dual add up to
binomial(m,l), and the dual point count is the reciprocal polynomial
q^delta * h_U(1/q).
"""

from __future__ import annotations

import itertools

from .grassgrid import (
    Poly,
    SchubertUnion,
    canonicalize,
    down_closure,
    grand_total,
    lower_covers,
)


class ReciprocityViolation(RuntimeError):
    """h_U has degree above delta; the union's data is corrupt."""


def rev(params, alpha):
    """The involution (a_1,...,a_l) -> (m+1-a_l,...,m+1-a_1)."""
    return tuple(params.m + 1 - x for x in reversed(alpha))


def dual_union(union: SchubertUnion) -> SchubertUnion:
    """Dual union, from its maxima: the rev images of H_U's minimal points."""
    h = union.h_ideal()
    tops = sorted(rev(union.params, beta) for beta in h
                  if h.isdisjoint(lower_covers(beta)))
    return SchubertUnion._build(union.params, tuple(tops), None, None)


def dual_union_explicit(union: SchubertUnion) -> SchubertUnion:
    """Dual via the corner recursion, one cycle per assignment of maxima.

    Each map from the maxima index set into {1..l} produces a cycle
    (f_1,...,f_l) with f_l = m - max{0, a_{i,1} : i in A_1} and
    f_j = min(f_{j+1} - 1, m - max{0, a_{i,l+1-j} : i in A_{l+1-j}});
    cycles with some f_i < i are dropped.  Empty blocks contribute the 0
    term of the max.  Exponential in the number of maxima; meant as a
    cross-check of dual_union.
    """
    params = union.params
    l, m = params.l, params.m
    mx = union.maxima
    s = len(mx)
    cycles = set()
    for assign in itertools.product(range(1, l + 1), repeat=s):
        f = [0] * (l + 1)
        for j in range(l, 0, -1):
            block = l + 1 - j
            raw = m - max([0] + [mx[i][block - 1] for i in range(s) if assign[i] == block])
            f[j] = raw if j == l else min(f[j + 1] - 1, raw)
            if f[j] < j:
                break
        else:
            cycles.add(tuple(f[1:]))
    return canonicalize(params, down_closure(cycles))


def dual_point_count(union: SchubertUnion) -> Poly:
    """g of the dual union, computed as q^delta * h_U(1/q)."""
    params = union.params
    h = grand_total(params) - union.point_count()
    if h.degree > params.delta:
        raise ReciprocityViolation(
            f"h_U has degree {h.degree} > delta {params.delta}")
    return h.reversed_within(params.delta)
