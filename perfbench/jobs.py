"""Seeded job lists for the three benchmark workloads.

A job is one command line of the ``schubert-unions`` CLI.  Everything the
program sees is the generated argv; the seed only picks inputs.  Each
workload's batch has a fixed composition (how many jobs of each kind and
cost class), and the seed varies the inputs inside each slot: union shapes,
output formats, job order and, for the large l=2 tables, grid sizes drawn in
pairs of near-equal total cost.  That keeps the batch's work, and so the
end-to-end medians, steady from seed to seed while different seeds still run
different inputs.

Unions are drawn with the small grid helpers below, which belong to the
benchmark and share no code with the package under test.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("grid", "codes", "oracle")
FORMATS = ("markdown", "csv", "json")


@dataclass(frozen=True)
class Job:
    family: str          # job family named in the workload's description
    argv: tuple          # the CLI arguments, as strings
    expect_rc: int = 0   # 0 success, 2 invalid argument, 3 guard refused
    heavy: bool = False  # left out of the tiny batch that the smoke test runs

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# -- grid helpers ------------------------------------------------------------


def grid(l, m):
    return list(itertools.combinations(range(1, m + 1), l))


def leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def ideal(l, m, maxima):
    """Grid points below some maximum, as a set."""
    return {p for p in grid(l, m) if any(leq(p, a) for a in maxima)}


def maxima_of(points):
    """Antichain of maximal points of a set of grid points, sorted."""
    return sorted(a for a in points if not any(a != b and leq(a, b) for b in points))


def cell_dim(a):
    l = len(a)
    return sum(a) - l * (l + 1) // 2


def point_count(points, q):
    return sum(q ** cell_dim(a) for a in points)


def union_arg(maxima):
    return json.dumps([list(a) for a in maxima], separators=(",", ":"))


def l2_union(rng, m, lo, hi):
    """Maxima of a union of G(2,m) whose span lies in [lo, hi].

    A union of G(2,m) is a set S of distinct column heights in {1..m-1};
    its span is sum(S), so S is drawn directly.
    """
    while True:
        heights = [h for h in range(1, m) if rng.random() < 0.5]
        if lo <= sum(heights) <= hi:
            break
    pts = set()
    for col, h in enumerate(sorted(heights, reverse=True), start=1):
        pts.update((col, col + 1 + j) for j in range(h))
    return maxima_of(pts)


def sampled_union(rng, l, m, lo, hi, max_maxima=4):
    """Maxima of a random union of G(l,m) whose span lies in [lo, hi]."""
    pts = grid(l, m)
    while True:
        mx = maxima_of(set(rng.sample(pts, rng.randint(1, max_maxima))))
        if lo <= len(ideal(l, m, mx)) <= hi:
            return mx


@functools.lru_cache(maxsize=None)
def all_ideals(l, m):
    """Every nonempty union of a small G(l,m), as tuples of grid points."""
    pts = grid(l, m)
    below = [[j for j in range(i) if leq(pts[j], a)] for i, a in enumerate(pts)]
    out = []

    def rec(i, chosen):
        if i == len(pts):
            if chosen:
                out.append(tuple(pts[j] for j in sorted(chosen)))
            return
        rec(i + 1, chosen)
        if all(j in chosen for j in below[i]):
            rec(i + 1, chosen | {i})

    rec(0, frozenset())
    return out


def banded_union(rng, l, m, q, lo, hi):
    """Maxima of a union of G(l,m) with between lo and hi points over F_q."""
    pool = [pts for pts in all_ideals(l, m) if lo <= point_count(pts, q) <= hi]
    return maxima_of(set(rng.choice(pool)))


def cli(command, *args, fmt=None):
    argv = [command, *map(str, args)]
    if fmt is not None and fmt != "markdown":
        argv += ["--format", fmt]
    return tuple(argv)


# -- grid workload -----------------------------------------------------------

# l=2 table sizes in pairs of about equal total cost (cost grows like m^4.5)
SMALL_PAIRS = ((18, 18), (17, 19), (16, 20))
LARGE_PAIRS = ((25, 25), (24, 26), (22, 27), (20, 28))


def grid_jobs(rng):
    jobs = []
    # l=2 candidate path: bounds/directions tables on two cost-matched pairs
    for pairs in (SMALL_PAIRS, LARGE_PAIRS):
        for m in rng.choice(pairs):
            cmd = rng.choice(("bounds", "directions"))
            jobs.append(Job("l2", cli(cmd, "--l", 2, "--m", m, fmt=rng.choice(FORMATS)),
                            heavy=True))
    # light queries: a dual, an encode and two krull per m; the median falls
    # among the encodes
    for m in range(16, 31):
        k = comb(m, 2)
        lo, hi = int(0.45 * k), int(0.55 * k)
        for cmd in ("dual", "encode"):
            jobs.append(Job("l2", cli(cmd, "--l", 2, "--m", m, "--union",
                                      union_arg(l2_union(rng, m, lo, hi)),
                                      fmt=rng.choice(FORMATS))))
        for _ in range(2):
            jobs.append(Job("l2", cli("krull", "--l", 2, "--m", m, "--K", rng.randint(0, k),
                                      fmt=rng.choice(FORMATS))))
    for m in (8, 9, 10, 11):
        k = comb(m, 3)
        mx = sampled_union(rng, 3, m, int(0.4 * k), int(0.6 * k))
        jobs.append(Job("l2", cli("dual", "--l", 3, "--m", m, "--union", union_arg(mx),
                                  fmt=rng.choice(FORMATS))))
    for m in (6, 7, 8, 9, 10):
        jobs.append(Job("l2", cli("bounds", "--l", 2, "--m", m, fmt=rng.choice(FORMATS))))
    # exhaustive order-ideal path: fixed instances and formats; the exhaustive
    # G(3,7) tables, one in each format, hold the tail percentile
    jobs += [Job("ideals", cli(*cmd, "--l", 3, "--m", 7, "--guard", 35, fmt=fmt))
             for cmd in (("bounds",), ("experiment", "Q9")) for fmt in FORMATS]
    jobs += [
        Job("ideals", cli("enumerate", "--l", 3, "--m", 7, "--guard", 35)),
        Job("ideals", cli("enumerate", "--l", 3, "--m", 8, "--guard", 56, fmt="csv"),
            heavy=True),
        Job("ideals", cli("enumerate", "--l", 2, "--m", 10, "--guard", 45, fmt="json")),
        Job("ideals", cli("experiment", "Q8", "--l", 2, "--m", 10, "--guard", 45),
            heavy=True),
        Job("ideals", cli("experiment", "Q8", "--l", 2, "--m", 11, "--guard", 55,
                          fmt="json"), heavy=True),
        Job("ideals", cli("experiment", "Q9", "--l", 2, "--m", 10, "--guard", 45,
                          fmt="json")),
        Job("ideals", cli("experiment", "Q9", "--l", 2, "--m", 11, "--guard", 55)),
    ]
    # documented guards that refuse before the work starts
    jobs += [
        Job("refused", cli("enumerate", "--l", 3, "--m", 7), expect_rc=3),
        Job("refused", cli("directions", "--l", 3, "--m", 6), expect_rc=2),
    ]
    return jobs


# -- codes workload ----------------------------------------------------------

# Generator-matrix cost is about points x minors per point x field-op cost.
# Each slot's point count is fixed, so its cost is too; the seed picks among
# the unions with that count, and the output mode of the light jobs.  The
# light jobs all cost about the same, which puts the median in the middle
# of them; the medium union jobs hold the tail percentile.

# q -> (l, m, point band) of the light union jobs
LIGHT_GENMATRIX = {
    2: (3, 6, (51, 59)), 3: (2, 6, (120, 135)), 5: (2, 5, (150, 185)),
    4: (2, 5, (95, 105)), 8: (2, 4, (70, 80)), 9: (2, 4, (85, 95)),
}
# family -> (q, l, m, binary) of full Grassmannians
FULL_GENMATRIX = {
    "prime": ((2, 2, 7, False), (3, 2, 6, True), (2, 3, 6, False), (5, 2, 5, True)),
    "extension": ((4, 2, 5, True), (8, 2, 4, False), (9, 2, 4, True)),
}
# family -> (q, l, m, point count, binary) of the union jobs
UNION_GENMATRIX = {
    "prime": ((2, 2, 8, 1067, True), (3, 3, 6, 1210, False), (5, 2, 5, 1556, True)),
    "extension": ((4, 2, 6, 1701, False), (4, 3, 6, 741, True), (8, 2, 5, 1161, False),
                  (9, 2, 5, 1630, True), (4, 3, 6, 1765, False), (8, 2, 5, 5257, True),
                  (8, 2, 5, 5257, False)),
}
FIELDS = {"prime": (2, 3, 5), "extension": (4, 8, 9)}


def _genmatrix(family, q, l, m, union=None, binary=False, heavy=False):
    argv = ["genmatrix", "--l", str(l), "--m", str(m), "--q", str(q)]
    if union is not None:
        argv += ["--union", union_arg(union)]
    if binary:
        argv.append("--binary")
    return Job(family, tuple(argv), heavy=heavy)


def codes_jobs(rng):
    jobs = []
    for family in ("prime", "extension"):
        for q, l, m, binary in FULL_GENMATRIX[family]:
            jobs.append(_genmatrix(family, q, l, m, binary=binary, heavy=True))
        for q, l, m, count, binary in UNION_GENMATRIX[family]:
            jobs.append(_genmatrix(family, q, l, m, banded_union(rng, l, m, q, count, count),
                                   binary, heavy=True))
        for q in FIELDS[family]:
            l, m, band = LIGHT_GENMATRIX[q]
            for _ in range(6):
                jobs.append(_genmatrix(family, q, l, m, banded_union(rng, l, m, q, *band),
                                       rng.random() < 0.5))
            for _ in range(2):
                um = rng.randint(7, 9)
                jobs.append(Job(family, cli("weights", "--l", 2, "--m", um, "--q", q,
                                            "--union", union_arg(l2_union(rng, um, 6, 10)),
                                            fmt=rng.choice(FORMATS))))
    return jobs


# -- oracle workload ---------------------------------------------------------


def _oracle(family, m, q, r, budget=None, fmt=None, heavy=False):
    args = ["--l", 2, "--m", m, "--q", q, "--oracle", "--r-range", r]
    if budget is not None:
        args += ["--oracle-budget", budget]
    return Job(family, cli("weights", *args, fmt=fmt), heavy=heavy)


def oracle_jobs(rng):
    jobs = [
        # q=2 bitmask path on C(2,5); r=4 needs a raised budget
        _oracle("q2", 5, 2, "2:2", fmt="json", heavy=True),
        _oracle("q2", 5, 2, "3:3", heavy=True),
        _oracle("q2", 5, 2, "4:4", budget=10 ** 8, fmt="csv", heavy=True),
        _oracle("q2", 5, 2, "7:7", fmt="json", heavy=True),
        # q>2 tuple path on C(2,4)
        _oracle("qbig", 4, 4, "3:3", fmt="json", heavy=True),
        _oracle("qbig", 4, 5, "4:4", fmt="csv", heavy=True),
        _oracle("qbig", 4, 4, "4:6", heavy=True),
        Job("qbig", cli("experiment", "Q4", "--l", 2, "--m", 4, "--q", 3), heavy=True),
    ]
    # Three clusters of like jobs, one in each format, put the tail among
    # the r=5 sweeps of C(2,4) over F_4 and F_5 and the median among the
    # r=1..3 sweeps over F_3; the cheapest jobs sit below both.
    light = [("qbig", 4, q, "5:5", fmt) for q in (4, 5) for fmt in FORMATS]
    light += [("qbig", 4, 3, f"{r}:{r}", fmt) for r in (1, 2, 3) for fmt in FORMATS]
    light += [(family, m, q, r, rng.choice(FORMATS)) for family, m, q, r in (
        ("q2", 5, 2, "1:1"), ("q2", 5, 2, "9:10"), ("qbig", 4, 4, "6:6"),
        ("qbig", 4, 5, "6:6"), ("qbig", 4, 3, "4:6"), ("q2", 4, 2, "1:1"),
        ("q2", 4, 2, "2:2"), ("q2", 4, 2, "3:3"), ("q2", 4, 2, "4:6"))]
    jobs += [_oracle(family, m, q, r, fmt=fmt) for family, m, q, r, fmt in light]
    jobs.append(Job("q2", cli("experiment", "Q4", "--l", 2, "--m", 4, "--q", 2,
                              fmt="json")))
    # the default budget refuses this sweep (about 5*10^7 subspaces) up front
    jobs.append(Job("refused", cli("weights", "--l", 2, "--m", 5, "--q", 2, "--oracle",
                                   "--r-range", "4:4"), expect_rc=3))
    return jobs


GENERATORS = {"grid": grid_jobs, "codes": codes_jobs, "oracle": oracle_jobs}


def generate(workload, seed, tiny=False):
    """The workload's batch for this seed, in the order it runs.

    ``tiny`` keeps only the light jobs, for a quick smoke test.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return [job for job in jobs if not job.heavy] if tiny else jobs
