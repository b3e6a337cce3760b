"""Grid of Pluecker indices for G(l,m) and Schubert unions as order ideals.

A grid point is a strictly increasing l-tuple (a_1,...,a_l) with entries in
1..m, ordered componentwise.  A Schubert union is a downward-closed (Borel
fixed) subset of the grid, stored canonically as the antichain of its maximal
points.  Counting cells by dimension gives the point-count polynomial g_U(q);
`count_below` counts them from the maxima, so a union's span and point count
build no point set.
"""

from __future__ import annotations

import collections
import decimal
import functools
import itertools
import json
import re
import sys
from array import array
from dataclasses import dataclass
from math import comb
from operator import le


class NotDownwardClosed(ValueError):
    """A point set claimed to be an order ideal is not downward closed."""


class TooLarge(RuntimeError):
    """An enumeration would exceed the configured resource guard."""


DEFAULT_IDEAL_GUARD = 28
# the least int that str() refuses under its default digit limit
_LONG_COUNT = 10 ** 4300


def count_text(n):
    """`n` in decimal below 10^4300, else the largest power of 2 not above it.

    The digits come from `decimal`, so the text does not depend on the
    interpreter's int-to-str digit limit.
    """
    if n >= _LONG_COUNT:
        return f"at least 2^{n.bit_length() - 1}"
    return str(decimal.Decimal(n))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class GrassParams:
    """Parameters (l, m) of the Grassmannian of l-planes in m-space."""

    l: int
    m: int

    def __post_init__(self):
        if not (_is_int(self.l) and _is_int(self.m) and 1 <= self.l < self.m):
            raise ValueError(f"need integers 1 <= l < m, got l={self.l!r}, m={self.m!r}")

    @property
    def k(self) -> int:
        """Number of Pluecker coordinates, binomial(m, l)."""
        return comb(self.m, self.l)

    @property
    def delta(self) -> int:
        """Krull dimension l*(m-l) of the full Grassmannian."""
        return self.l * (self.m - self.l)


# a sign, then at least one of a coefficient and a power of q
_TERM_RE = re.compile(r"^([+-]?)(?=[\dq])(\d*)(q(?:\^(\d+))?)?$")


@functools.total_ordering
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
        """Parse strings like 'q^5+2q^4+q+1', '0' or 'q^9 + q^8 - q^6'; spaces only at signs."""
        s = re.sub(r"\s*([+-])\s*", r"\1", text.strip())
        if s in ("0", ""):
            return cls()
        terms = collections.Counter()
        for piece in re.split(r"(?<=.)(?=[+-])", s):
            m = _TERM_RE.match(piece)
            if not m:
                raise ValueError(f"cannot parse term {piece!r} of {text!r}")
            sign, digits, qpart, exp = m.groups()
            e = 0 if qpart is None else (1 if exp is None else int(exp))
            terms[e] += int(sign + (digits or "1"))
        return cls(terms[e] for e in range(max(terms) + 1))

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

    def to_list(self):
        """Coefficient list, lowest degree first (the JSON wire format)."""
        return list(self.coeffs)

    def __str__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e > 1:
                terms.append(f"+{c}q^{e}" if c > 1 else f"+q^{e}" if c == 1
                             else f"-q^{e}" if c == -1 else f"{c}q^{e}")
            elif e:
                terms.append(f"+{c}q" if c > 1 else "+q" if c == 1
                             else "-q" if c == -1 else f"{c}q")
            else:
                terms.append(f"+{c}" if c > 0 else str(c))
        return "".join(reversed(terms)).removeprefix("+") or "0"

    def __repr__(self):
        return f"Poly({str(self)!r})"


def point_leq(a, b):
    """Componentwise partial order on grid points."""
    return all(map(le, a, b))


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


def upper_covers(a, m):
    """Grid points of G(l,m) one step above `a` in a single coordinate."""
    for i, x in enumerate(a):
        if x + 1 < (a[i + 1] if i + 1 < len(a) else m + 1):
            yield a[:i] + (x + 1,) + a[i + 1:]


def down_closure(points):
    """The smallest downward-closed set holding `points`, as a frozenset.

    Built coordinate by coordinate: after a prefix (c_1..c_i), coordinate
    i+1 runs from c_i + 1 up to the largest a_{i+1} among the points a that
    still dominate the prefix (a_j >= c_j for j <= i).  Each point of the
    closure is made once, with no membership test.  `points` must be valid
    points of one grid; they need not form an antichain, but each point
    costs a comparison at every prefix it dominates.
    """
    out = []

    def extend(prefix, prev, alive):
        i = len(prefix)
        top = max([a[i] for a in alive])
        if i == last:
            out.extend([prefix + (v,) for v in range(prev + 1, top + 1)])
            return
        for v in range(prev + 1, top + 1):
            extend(prefix + (v,), v, [a for a in alive if a[i] >= v])

    points = list(points)
    if points:
        last = len(points[0]) - 1
        extend((), 0, points)
    return frozenset(out)


def count_below(maxima, base) -> int:
    """g_U(base) for the union with these maxima, from the maxima alone.

    `down_closure`'s prefix recursion, with no point made: after a prefix
    (c_1..c_i), coordinate i+1 runs from c_i + 1 up to the largest a_{i+1}
    among the maxima a that still dominate the prefix.  When one of those
    ends in the run a_{i+1} = e-l+i+1, ..., a_l = e, e the largest a_l among
    them, it dominates every increasing tail in (c_i, e], so the r = l - i
    coordinates left sum at once as a Gaussian binomial [e - c_i, r] at
    base: at the last coordinate the geometric series, for the full grid's
    top cycle the whole count.  At base 1 this is |G_U|, at q the number of
    F_q-points, and at `_code_base(k)` the code that `_decode` reads back as
    g_U(q).
    """
    # memoized for this call: prefixes that end alike with the same live maxima
    # below them have the same count
    @functools.cache
    def below(i, prev, alive):
        # the cells below the prefix, each base^(c_j - j) over the r coordinates j > i
        end, r = max([a[-1] for a in alive]), len(alive[0]) - i
        if any(a[-1] == end and a[-1] - a[i] == r - 1 for a in alive):
            return base ** (r * (prev - i)) * gaussian_binomial(end - prev, r, base)
        return sum(base ** (v - i - 1) * below(i + 1, v, tuple(a for a in alive if a[i] >= v))
                   for v in range(prev + 1, max([a[i] for a in alive]) + 1))

    return below(0, 0, tuple(maxima)) if maxima else 0


def validate_point(params, alpha):
    a = tuple(alpha)
    if len(a) != params.l:
        raise ValueError(f"point {a} has length {len(a)}, expected {params.l}")
    if not all(map(_is_int, a)):
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
        # sorted, a point below another comes first
        for a, b in itertools.combinations(pts, 2):
            if point_leq(a, b):
                raise ValueError(f"maxima {a} and {b} are comparable, not an antichain")
        self._fill(params, tuple(pts), None)

    def __setattr__(self, name, value):
        raise AttributeError("SchubertUnion is immutable")

    def _fill(self, params, maxima, ideal):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "maxima", maxima)
        object.__setattr__(self, "_ideal", ideal)

    @classmethod
    def _build(cls, params, maxima, ideal):
        """Union with these fields, unchecked; a None ideal is built on use."""
        u = object.__new__(cls)
        u._fill(params, maxima, ideal)
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
        """The downward-closed grid subset G_U generated by the maxima.

        Built from the maxima on first use and kept in `_ideal`.
        """
        if self._ideal is None:
            object.__setattr__(self, "_ideal", down_closure(self.maxima))
        return self._ideal

    def h_ideal(self):
        """The complement H_U of G_U in the full grid (an up-set)."""
        return frozenset(full_grid(self.params)) - self.ideal()

    def span(self) -> int:
        """Affine spanning dimension K = |G_U| = g_U(1), counted from the maxima."""
        return count_below(self.maxima, 1)

    def point_count(self) -> Poly:
        """g_U(q): cells of G_U counted by dimension, from the maxima.

        Coefficients are at most k, so the count at `_code_base(k)` is the
        code of g_U.
        """
        base = _code_base(self.params.k)
        return _decode(count_below(self.maxima, base), base)

    def krull(self) -> int:
        """Krull dimension: max cell dimension over maxima, -1 when empty."""
        return max((cell_dimension(a, self.params.l) for a in self.maxima), default=-1)

    def label(self) -> str:
        return " ∪ ".join("(" + ",".join(map(str, a)) + ")" for a in self.maxima) or "∅"

    def to_json(self) -> str:
        return json.dumps(
            {"l": self.params.l, "m": self.params.m,
             "maxima": [list(a) for a in self.maxima]}
        )

    @classmethod
    def from_json(cls, text):
        """The union that `to_json` wrote; a ValueError names malformed text."""
        data = json.loads(text)
        try:
            l, m, maxima = data["l"], data["m"], tuple(tuple(a) for a in data["maxima"])
        except (KeyError, TypeError):
            raise ValueError(f"union JSON needs l, m and a list of maxima, got {text!r}") from None
        return cls(GrassParams(l, m), maxima)

    def __eq__(self, other):
        return (isinstance(other, SchubertUnion)
                and self.params == other.params and self.maxima == other.maxima)

    def __hash__(self):
        return hash((self.params, self.maxima))

    def __repr__(self):
        return f"SchubertUnion({self.params.l},{self.params.m}; {self.label()})"


def canonicalize(params, points):
    """Union whose ideal is `points`; raises NotDownwardClosed unless an ideal.

    The message names points that the set's down-closure adds.  A point
    that is a lower cover of another point of the set adds nothing to the
    closure, so only the others are closed; in an ideal they are the maxima.
    """
    pts = frozenset(validate_point(params, p) for p in points)
    tops = pts - {b for a in pts for b in lower_covers(a)}
    missing = down_closure(tops) - pts
    if missing:
        raise NotDownwardClosed(f"missing points below maxima, e.g. {sorted(missing)[:3]}")
    return SchubertUnion._build(params, tuple(sorted(tops)), pts)


def _walk(points, base):
    """Every down-set of `points` as (addable mask, ideal mask, maxima mask, g code).

    Bit i stands for points[i].  `points` must be a down-set sorted
    lexicographically, a linear extension of the grid order, so each point's
    lower covers precede it and a point added after the current ones lies
    above none of them.  A frame's addable mask holds the points after the
    last one added whose lower covers are all chosen.  Adding point j drops
    its lower covers from the maxima, makes j a maximum, adds one cell of j's
    dimension d to g, and leaves addable the later points of the mask and
    those upper covers of j (at most l) whose lower covers are now all
    chosen: each child costs O(l) steps, not a scan of the later points.
    g is g_U(base): at base = q the number of F_q-points; at the base that
    `_code_base` gives for the grid, the code that `_decode(g, base)` reads
    back as g_U(q).  Children are pushed from the low bit up and popped from
    the high bit down, so the sets come in ascending order of their
    characteristic vectors read as binary numbers, first point most
    significant.
    """
    index = {a: i for i, a in enumerate(points)}
    covers = [sum(1 << index[b] for b in lower_covers(a)) for a in points]
    uppers = [[] for _ in points]
    for i, cov in enumerate(covers):
        for j in _picked(range(len(points)), cov):
            uppers[j].append((1 << i, cov))
    cells = [base ** cell_dimension(a, len(a)) for a in points]
    stack = [(sum(1 << i for i, cov in enumerate(covers) if not cov), 0, 0, 0)]
    while stack:
        addable, ideal, maxima, g = frame = stack.pop()
        yield frame
        while addable:
            low = addable & -addable
            addable ^= low
            j = low.bit_length() - 1
            ideal_j = ideal | low
            later = addable
            for bit, cov in uppers[j]:
                if ideal_j & cov == cov:
                    later |= bit
            stack.append((later, ideal_j, maxima & ~covers[j] | low, g + cells[j]))


def _span_maxima(points, base):
    """The largest `_walk` code among the down-sets of each size 0..len(points).

    Every size is reached, since a down-set grows one point at a time.
    """
    best = [-1] * (len(points) + 1)
    for _addable, ideal, _maxima, g in _walk(points, base):
        K = ideal.bit_count()
        if g > best[K]:
            best[K] = g
    return best


# the signed array typecode of each item size; its upper case is the unsigned one
_TYPECODES = {array(t).itemsize: t for t in "qihb"}


def _code_base(top) -> int:
    """The base 2^(8w) for codes whose coefficients lie in 0..`top`.

    w is the least array item size with 2^(8w-1) above `top`, so each digit
    is one array item, and a difference of two such codes has digits in
    -2^(8w-1)..2^(8w-1)-1, which `_decode` reads back signed.
    """
    return 1 << 8 * min(w for w in _TYPECODES if top < 1 << (8 * w - 1))


def _grid_base(points) -> int:
    """`_code_base` for the down-sets of `points`: above the most points of one cell dimension."""
    return _code_base(max(collections.Counter(map(sum, points)).values(), default=0))


def _decode(code, base, signed=False) -> Poly:
    """The polynomial whose coefficients are the base-`base` digits of `code`.

    `base` is 2^(8w) (`_code_base`), so the digits are the w-byte items of
    `code.to_bytes`.  With every coefficient in 0..base-1, a polynomial's
    value at `base` is this code, and comparing codes as integers orders the
    polynomials as Poly does: by degree, then by coefficients from the top
    down.  `signed` reads digits in -base/2..base/2-1, as in a difference of
    two codes: adding base/2 to every digit makes them all nonnegative with
    no carry, and XOR with the same word turns each into its two's
    complement.
    """
    size = base.bit_length() // 8
    typecode = _TYPECODES[size]
    if signed:
        # a digit to spare: a balanced code can need one more digit than |code|
        length = abs(code).bit_length() // (8 * size) + 2
        half = int.from_bytes((base >> 1).to_bytes(size, "little") * length, "little")
        code = (code + half) ^ half
    else:
        length = -(-code.bit_length() // (8 * size))
        typecode = typecode.upper()
    digits = array(typecode, code.to_bytes(length * size, "little"))
    if sys.byteorder == "big":
        digits.byteswap()
    return Poly(digits)


def _picked(points, mask):
    """The points at the set bits of `mask`, in order; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(points[low.bit_length() - 1])
        mask ^= low
    return out


def down_sets(points):
    """Yield every downward-closed subset of `points`, as a frozenset.

    `points` must be a down-set sorted lexicographically (see `_walk`).  Each
    set costs one stack frame, O(l) steps to find what its children may add,
    and the frozenset.
    """
    for _addable, ideal, _maxima, _g in _walk(points, 1):
        yield frozenset(_picked(points, ideal))


def _guarded_grid(params, guard):
    """The full grid of `params`, after checking its size against the guard.

    The check reads binomial(m, l) and builds no grid point.
    """
    if params.k > guard:
        raise TooLarge(f"grid has {count_text(params.k)} points, guard is {guard}")
    return full_grid(params)


def enumerate_ideals(params, guard=DEFAULT_IDEAL_GUARD):
    """Yield every Schubert union of G(l,m) exactly once, canonically.

    Each union carries its maxima alone; its point set is built only if
    `ideal()` is called.
    """
    grid = _guarded_grid(params, guard)
    for _addable, _ideal, maxima, _g in _walk(grid, 1):
        yield SchubertUnion._build(params, tuple(_picked(grid, maxima)), None)


def grand_total(params) -> Poly:
    """n(q): the point-count polynomial of the whole Grassmannian."""
    return SchubertUnion.full(params).point_count()


def gaussian_binomial(m, l, q) -> int:
    """Number of l-dimensional subspaces of GF(q)^m; binomial(m, l) at q = 1."""
    if q == 1:
        return comb(m, l)
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
