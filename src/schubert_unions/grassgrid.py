"""Grid of Pluecker indices for G(l,m) and Schubert unions as order ideals.

A grid point is a strictly increasing l-tuple (a_1,...,a_l) with entries in
1..m, ordered componentwise.  A Schubert union is a downward-closed (Borel
fixed) subset of the grid, stored canonically as the antichain of its maximal
points.  Counting cells by dimension gives the point-count polynomial g_U(q).
"""

from __future__ import annotations

import collections
import itertools
import json
import re
from dataclasses import dataclass
from math import comb


class NotDownwardClosed(ValueError):
    """A point set claimed to be an order ideal is not downward closed."""


class TooLarge(RuntimeError):
    """An enumeration would exceed the configured resource guard."""


DEFAULT_IDEAL_GUARD = 28


def count_text(n):
    """`n` in decimal, or the largest power of 2 not above it if str() refuses."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


@dataclass(frozen=True)
class GrassParams:
    """Parameters (l, m) of the Grassmannian of l-planes in m-space."""

    l: int
    m: int

    def __post_init__(self):
        if not (1 <= self.l < self.m):
            raise ValueError(f"need 1 <= l < m, got l={self.l}, m={self.m}")

    @property
    def k(self) -> int:
        """Number of Pluecker coordinates, binomial(m, l)."""
        return comb(self.m, self.l)

    @property
    def delta(self) -> int:
        """Krull dimension l*(m-l) of the full Grassmannian."""
        return self.l * (self.m - self.l)


_TERM_RE = re.compile(r"^([+-]?)(\d*)(q(?:\^(\d+))?)?$")


class Poly:
    """Univariate integer polynomial in q, coefficients stored lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls((0,) * exp + (coeff,))

    @classmethod
    def parse(cls, text):
        """Parse strings like 'q^5+2q^4+q+1', '0' or 'q^9+q^8-q^6'."""
        s = text.replace(" ", "")
        if s in ("0", ""):
            return cls()
        terms = {}
        for piece in re.findall(r"[+-]?[^+-]+", s):
            m = _TERM_RE.match(piece)
            if not m:
                raise ValueError(f"cannot parse term {piece!r} of {text!r}")
            sign, digits, qpart, exp = m.groups()
            coeff = int(digits) if digits else 1
            if sign == "-":
                coeff = -coeff
            e = 0 if qpart is None else (1 if exp is None else int(exp))
            terms[e] = terms.get(e, 0) + coeff
        deg = max(terms)
        return cls(tuple(terms.get(i, 0) for i in range(deg + 1)))

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + Poly(tuple(-c for c in other.coeffs))

    def __call__(self, q):
        v = 0
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def reversed_within(self, degree):
        """Return q^degree * p(1/q); requires deg(p) <= degree."""
        if self.degree > degree:
            raise ValueError(f"degree {self.degree} exceeds {degree}")
        padded = self.coeffs + (0,) * (degree + 1 - len(self.coeffs))
        return Poly(tuple(reversed(padded)))

    def lex_key(self):
        """Sort key: by degree, then coefficients from the top degree down."""
        return (self.degree, tuple(reversed(self.coeffs)))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self.lex_key() < other.lex_key()

    def __le__(self, other):
        return self.lex_key() <= other.lex_key()

    def __gt__(self, other):
        return self.lex_key() > other.lex_key()

    def __ge__(self, other):
        return self.lex_key() >= other.lex_key()

    def to_list(self):
        """Coefficient list, lowest degree first (the JSON wire format)."""
        return list(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}q^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({str(self)!r})"


def point_leq(a, b):
    """Componentwise partial order on grid points."""
    return all(x <= y for x, y in zip(a, b))


def lower_covers(a):
    """Grid points one step below `a` in a single coordinate.

    Componentwise order on strictly increasing tuples is a distributive
    lattice, so a set is downward closed exactly when it holds every lower
    cover of each of its points.
    """
    prev = 0
    for i, x in enumerate(a):
        if x - 1 > prev:
            yield a[:i] + (x - 1,) + a[i + 1:]
        prev = x


def down_closure(points):
    """The smallest downward-closed set holding `points`, as a frozenset."""
    seen = set(points)
    stack = list(seen)
    while stack:
        for beta in lower_covers(stack.pop()):
            if beta not in seen:
                seen.add(beta)
                stack.append(beta)
    return frozenset(seen)


def validate_point(params, alpha):
    a = tuple(alpha)
    if len(a) != params.l:
        raise ValueError(f"point {a} has length {len(a)}, expected {params.l}")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in a):
        raise ValueError(f"point {a} has non-integer entries")
    if not (1 <= a[0] and a[-1] <= params.m and all(x < y for x, y in zip(a, a[1:]))):
        raise ValueError(f"point {a} is not strictly increasing in 1..{params.m}")
    return a


def full_grid(params):
    """All binomial(m,l) grid points in lexicographic order."""
    return list(itertools.combinations(range(1, params.m + 1), params.l))


def cell_dimension(alpha, l):
    """Dimension of the affine cell indexed by alpha: sum(a_i) - l(l+1)/2."""
    return sum(alpha) - l * (l + 1) // 2


def cell_count(points, l) -> Poly:
    """The cells indexed by `points` counted by dimension: F_q-points at q."""
    counts = collections.Counter(cell_dimension(alpha, l) for alpha in points)
    return Poly(counts[e] for e in range(max(counts, default=-1) + 1))


class SchubertUnion:
    """A union of Schubert cycles, canonically the antichain of grid maxima."""

    __slots__ = ("params", "maxima", "_ideal")

    def __init__(self, params, maxima):
        pts = sorted(validate_point(params, a) for a in maxima)
        for a, b in itertools.combinations(pts, 2):
            if point_leq(a, b) or point_leq(b, a):
                raise ValueError(f"maxima {a} and {b} are comparable, not an antichain")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "maxima", tuple(pts))
        object.__setattr__(self, "_ideal", None)

    def __setattr__(self, name, value):
        raise AttributeError("SchubertUnion is immutable")

    @classmethod
    def _from_down_set(cls, params, pts):
        """Union whose ideal is the down-set `pts`, built without checks.

        `pts` must be a frozenset of valid grid points that is downward
        closed; the maxima are its points that are no point's lower cover.
        """
        covered = {b for a in pts for b in lower_covers(a)}
        u = object.__new__(cls)
        object.__setattr__(u, "params", params)
        object.__setattr__(u, "maxima", tuple(sorted(pts - covered)))
        object.__setattr__(u, "_ideal", pts)
        return u

    @classmethod
    def empty(cls, params):
        return cls(params, ())

    @classmethod
    def full(cls, params):
        top = tuple(range(params.m - params.l + 1, params.m + 1))
        return cls(params, (top,))

    @classmethod
    def cycle(cls, params, alpha):
        """The single Schubert cycle S_alpha."""
        return cls(params, (alpha,))

    def ideal(self):
        """The downward-closed grid subset G_U generated by the maxima."""
        if self._ideal is None:
            object.__setattr__(self, "_ideal", down_closure(self.maxima))
        return self._ideal

    def h_ideal(self):
        """The complement H_U of G_U in the full grid (an up-set)."""
        return frozenset(full_grid(self.params)) - self.ideal()

    def span(self) -> int:
        """Affine spanning dimension K = |G_U|."""
        return len(self.ideal())

    def point_count(self) -> Poly:
        """g_U(q): cells of G_U counted by dimension."""
        return cell_count(self.ideal(), self.params.l)

    def krull(self) -> int:
        """Krull dimension: max cell dimension over maxima, -1 when empty."""
        return max((cell_dimension(a, self.params.l) for a in self.maxima), default=-1)

    def label(self) -> str:
        if not self.maxima:
            return "∅"
        return " ∪ ".join("(" + ",".join(map(str, a)) + ")" for a in self.maxima)

    def to_json(self) -> str:
        return json.dumps(
            {"l": self.params.l, "m": self.params.m,
             "maxima": [list(a) for a in self.maxima]}
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        params = GrassParams(data["l"], data["m"])
        return cls(params, tuple(tuple(a) for a in data["maxima"]))

    def __eq__(self, other):
        return (isinstance(other, SchubertUnion)
                and self.params == other.params and self.maxima == other.maxima)

    def __hash__(self):
        return hash((self.params, self.maxima))

    def __repr__(self):
        return f"SchubertUnion({self.params.l},{self.params.m}; {self.label()})"


def canonicalize(params, points):
    """Union whose ideal is `points`; raises NotDownwardClosed unless an ideal.

    The message names points that the set's down-closure adds.
    """
    pts = frozenset(validate_point(params, p) for p in points)
    missing = down_closure(pts) - pts
    if missing:
        raise NotDownwardClosed(f"missing points below maxima, e.g. {sorted(missing)[:3]}")
    return SchubertUnion._from_down_set(params, pts)


def down_sets(points):
    """Yield every downward-closed subset of `points`, as a frozenset.

    `points` must be a down-set sorted lexicographically, so each point's
    lower covers (at most l) precede it; a point joins a partial down-set
    when they are chosen.  The work is linear in the output count.
    """
    n = len(points)
    covers = [tuple(lower_covers(a)) for a in points]
    chosen = set()

    def rec(i):
        if i == n:
            yield frozenset(chosen)
            return
        yield from rec(i + 1)
        if all(b in chosen for b in covers[i]):
            chosen.add(points[i])
            yield from rec(i + 1)
            chosen.remove(points[i])

    yield from rec(0)


def enumerate_ideals(params, guard=DEFAULT_IDEAL_GUARD):
    """Yield every Schubert union of G(l,m) exactly once, canonically."""
    if params.k > guard:
        raise TooLarge(f"grid has {count_text(params.k)} points, guard is {guard}")
    for ideal in down_sets(full_grid(params)):
        yield SchubertUnion._from_down_set(params, ideal)


def grand_total(params) -> Poly:
    """n(q): the point-count polynomial of the whole Grassmannian."""
    return SchubertUnion.full(params).point_count()


def gaussian_binomial(m, l, q) -> int:
    """Number of l-dimensional subspaces of GF(q)^m."""
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (m - i) - 1
        den *= q ** (l - i) - 1
    assert num % den == 0
    return num // den


def grid_to_partition(params, alpha):
    """Coordinates (c_1,...,c_l) of the partition matching a grid point.

    Inverse of partition_to_grid; c_{l-i+1} = a_i - a_{i-1} - 1 with a_0 = 0.
    """
    a = validate_point(params, alpha)
    l = params.l
    c = [0] * l
    prev = 0
    for i in range(1, l + 1):
        c[l - i] = a[i - 1] - prev - 1
        prev = a[i - 1]
    return tuple(c)


def partition_to_grid(params, c):
    """Grid point (X_1,...,X_l) with X_i = c_{l-i+1} + ... + c_l + i."""
    l = params.l
    if len(c) != l or any(x < 0 for x in c) or sum(c) > params.m - l:
        raise ValueError(f"invalid partition tuple {c} for {params}")
    out = []
    acc = 0
    for i in range(1, l + 1):
        acc += c[l - i]
        out.append(acc + i)
    return tuple(out)


def partition_weight(c):
    """N(P) = c_1 + 2c_2 + ... + l*c_l, the number being partitioned."""
    return sum((i + 1) * x for i, x in enumerate(c))
