"""The seeded workloads: inputs, the timed op, and its output check.

Each workload turns a seed into a corpus of ``Item``s (the library sees
only these generated inputs), runs one op, a ``count_regions`` call, on
an item through ``call`` so that a traced run can put a span around it,
and checks an op's output after the timed phase. The inputs of the
traced run's layer probes are generated here too.

Corpora are stratified: every slot fixes the input shape (dimension,
number of subtori, class, and for sweep3 a quantile of the size
distribution) and the seed draws a random input of that shape. The load
is then the same from seed to seed while the inputs differ, which keeps
the seed-to-seed spread of the end-to-end metrics small. Every bound
below is a rule on the shape of an input; none depends on a measured
time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles


@dataclass(frozen=True)
class Item:
    """One input of a corpus.

    ``data`` is the arrangement; ``expect`` is an answer known without
    the region counter (None when there is none); ``tags`` are the load
    classes the shape report counts; ``label`` is a canonical text form
    that the corpus digest hashes; ``sheets`` and ``cells`` (an estimate,
    see ``cube_cells``) size the input.
    """

    data: object
    label: str
    expect: int | None = None
    tags: tuple[str, ...] = ()
    sheets: int = 0
    cells: int = 0


def direct(layer, name, fn, *args):
    """Untraced stand-in for ``spans.Tracer.call``."""
    return fn(*args)


# --------------------------------------------------------------------------
# Shared generators. Subtori are handled as (normal, offset) pairs in the
# library's normal form until they are handed to the library.
# --------------------------------------------------------------------------


def normal_form(normal, offset):
    """Primitive normal with positive first nonzero entry, offset mod 1."""
    g = math.gcd(*(abs(x) for x in normal))
    normal = [x // g for x in normal]
    offset = Fraction(offset) / g
    if next(x for x in normal if x) < 0:
        normal = [-x for x in normal]
        offset = -offset
    return tuple(normal), offset % 1


def sheets_of(tori) -> int:
    """Number of hyperplane sheets the subtori lift to in the unit cube."""
    return sum(len(oracles.lifts(a, c)) for a, c in tori)


def cube_cells(d, tori) -> int:
    """Sum of |det| over the d-subsets of the normals and the d axes.

    The open cube is the torus minus the d coordinate subtori, so its
    cells are the regions of the arrangement with those added. Every d
    independent subtori meet in |det| points, and for a generic
    arrangement the number of regions equals the number of such vertices,
    so this is the exact cell count then; coincidences make it an
    overestimate. It costs microseconds, which lets the generators fix
    each input's size before any op runs.
    """
    axes = [[int(i == j) for j in range(d)] for i in range(d)]
    normals = [list(a) for a, _ in tori] + axes
    return sum(abs(oracles.det(rows)) for rows in itertools.combinations(normals, d))


def random_normal(rng, d, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(d)]
        if any(v):
            return v


def random_offset(rng, max_den):
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(0, q - 1), q)


def label_of(d, tori) -> str:
    return f"{d}|" + ";".join(
        " ".join(map(str, a)) + f":{c.numerator}/{c.denominator}" for a, c in tori
    )


def arrangement(ta, d, tori):
    return ta.Arrangement(d, tuple(ta.Subtorus(a, c) for a, c in tori))


def add_distinct(tori, sub) -> bool:
    if sub in tori:
        return False
    tori.append(sub)
    return True


# A group of m slots that share a shape draws STRATA_DRAWS * m candidates,
# sorts them by cube_cells and keeps the ones at the size quantiles
# (i + 1/2) / m, i = 0 .. m - 1. The group then spans the whole size
# distribution of random draws, every seed gives the same spread of sizes,
# and making it costs the same number of draws for every seed.
STRATA_DRAWS = 8


def quantile_picks(draws, m):
    """The m of ``draws`` (tuples led by their cube_cells) at the size quantiles."""
    draws = sorted(draws, key=lambda draw: draw[0])  # stable, so ties keep the draw order
    return [draws[STRATA_DRAWS * i + STRATA_DRAWS // 2] for i in range(m)]


class Workload:
    name = ""
    warmup_ops = 1

    def corpus(self, ta, seed) -> tuple[list[Item], int]:
        """The seed's items and the number of draws rejected at the sheet cap."""
        raise NotImplementedError

    def run_op(self, ta, item, call):
        return call("regions", "count_regions", ta.count_regions, item.data)

    def check(self, ta, item, out) -> str | None:
        """None when ``out`` is the right count for ``item``, else the reason."""
        if item.expect is not None and out != item.expect:
            return f"count {out} != expected {item.expect}"
        return oracles.bounds_problem(ta, item.data, out)

    def warmup(self, corpus) -> list[Item]:
        """Items run once at set-up: the smallest ones, so warm-up stays cheap."""
        return sorted(corpus, key=lambda it: (it.cells, it.sheets))[: self.warmup_ops]


# --------------------------------------------------------------------------
# sweep3: random d=3 arrangements, the traffic of cell building.
# --------------------------------------------------------------------------

SWEEP3_N = (5, 6, 7, 8)
# The corpus holds SWEEP3_GROUPS groups of four slots, one slot per n;
# group j is of class SWEEP3_CLASSES[j % 5], so for every n there are two
# non-essential, two concurrent and six generic slots. The slots of one
# (n, class) are filled by quantile_picks.
SWEEP3_CLASSES = ("non_essential", "concurrent", "generic", "generic", "generic")
SWEEP3_GROUPS = 10


def _unimodular3(rng):
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


class Sweep3(Workload):
    name = "sweep3"

    def _draw(self, rng, n, cls):
        """One candidate: (tori, the planar arrangement it reduces to or None)."""
        tori: list = []
        if cls == "non_essential":
            # Normals (alpha, beta, 0) @ U span a rank-2 lattice; in the
            # coordinates y = U x the arrangement is a 2-torus arrangement
            # times a circle, so its count is that of the planar one.
            u = _unimodular3(rng)
            planar: list = []
            while len(tori) < n:
                ab = normal_form(random_normal(rng, 2, 3), 0)[0]
                a = [ab[0] * u[0][j] + ab[1] * u[1][j] for j in range(3)]
                if max(map(abs, a)) > 3:
                    return None, None
                c = random_offset(rng, 8)
                if add_distinct(tori, normal_form(a, c)):
                    planar.append((ab, c))
            return tori, planar
        if cls == "concurrent":
            point = [Fraction(rng.randint(0, 3), 4) for _ in range(3)]
            while len(tori) < 3:
                a = random_normal(rng, 3, 3)
                if all(normal_form(a, 0)[0] != t[0] for t in tori):
                    tori.append(normal_form(a, sum(x * p for x, p in zip(a, point))))
        while len(tori) < n:
            add_distinct(tori, normal_form(random_normal(rng, 3, 3), random_offset(rng, 8)))
        return tori, None

    def corpus(self, ta, seed):
        rng = random.Random(f"sweep3:{seed}")
        cap = ta.regions.DEFAULT_MAX_SHEETS
        slots = [
            (n, SWEEP3_CLASSES[j % len(SWEEP3_CLASSES)]) for j in range(SWEEP3_GROUPS) for n in SWEEP3_N
        ]
        rejected = 0
        picks = {}
        for n, cls in sorted(set(slots)):
            draws = []
            while len(draws) < STRATA_DRAWS * slots.count((n, cls)):
                tori, planar = self._draw(rng, n, cls)
                if tori is None:
                    continue
                sheets = sheets_of(tori)
                if sheets > cap:
                    rejected += 1
                    continue
                draws.append((cube_cells(3, tori), sheets, tori, planar))
            picks[n, cls] = quantile_picks(draws, slots.count((n, cls)))
        items = []
        for n, cls in slots:
            cells, sheets, tori, planar = picks[n, cls].pop(0)
            expect = oracles.euler_count_2d(planar) if planar else None
            items.append(
                Item(arrangement(ta, 3, tori), label_of(3, tori), expect, (cls,), sheets, cells)
            )
        return items, rejected


# --------------------------------------------------------------------------
# glue4: d=4 and d=5 arrangements, the traffic of facet gluing.
# --------------------------------------------------------------------------

GLUE4_DIMS = (4, 5)
GLUE4_N = (1, 2, 3)  # family members have n = d + 1, d + 2, d + 3 ...
GLUE4_K = (0, 1, 2)  # ... and k = 0, 1, 2
# Seeded random members: d = 4, two subtori, offsets in nonzero quarters
# (three sheets), a normal with two +-1 entries and one with a single +-1
# entry. Which two coordinates the pair occupies fixes most of the cost
# (0.6 s on coordinates 0 and 1, up to 5 s on 2 and 3), so slot s takes
# the s-th of the six pairs, and its single entry lies inside the pair's
# support for odd s and outside it for even s. The seed draws the single
# entry's coordinate within that rule, the signs and the offsets. Larger
# random shapes take from seconds to minutes per count while counting
# glues facets, with a heavy tail even at two subtori and four sheets,
# which a time-boxed run cannot average over; the family members carry
# the larger shapes. NOTES.md records the measurements.
GLUE4_SUPPORTS = tuple(itertools.combinations(range(4), 2))
# One random member follows every GLUE4_RANDOM_EVERY family members.
GLUE4_RANDOM_EVERY = 6


def family_members():
    """(family, d, n, k) of every family member, the four (d, family)
    classes interleaved."""
    return [
        (family, d, d + dn, k)
        for dn in GLUE4_N
        for k in GLUE4_K
        for d in GLUE4_DIMS
        for family in ("parallel", "sheared")
    ]


class Glue4(Workload):
    name = "glue4"

    def _random(self, rng, s):
        support = GLUE4_SUPPORTS[s]
        single = rng.choice(support if s % 2 else [j for j in range(4) if j not in support])
        tori = []
        for entries in ([single], support):
            a = [0, 0, 0, 0]
            for j in entries:
                a[j] = rng.choice((-1, 1))
            tori.append(normal_form(a, Fraction(rng.randint(1, 3), 4)))
        return tori

    def corpus(self, ta, seed):
        rng = random.Random(f"glue4:{seed}")
        build = {"parallel": ta.construct_family_parallel, "sheared": ta.construct_family_sheared}
        items = []
        for i, (family, d, n, k) in enumerate(family_members()):
            arr = build[family](d, n, k)
            tori = [(t.normal, t.offset) for t in arr.tori]
            expect = oracles.family_count(family, d, n, k)
            items.append(Item(arr, label_of(d, tori), expect, (family,), sheets_of(tori)))
            if i % GLUE4_RANDOM_EVERY == GLUE4_RANDOM_EVERY - 1:
                tori = self._random(rng, i // GLUE4_RANDOM_EVERY)
                items.append(
                    Item(arrangement(ta, 4, tori), label_of(4, tori), None, ("random",),
                         sheets_of(tori), cube_cells(4, tori))
                )
        return items, 0


# --------------------------------------------------------------------------
# Inputs of the layer probes in the traced run: the layers that no count
# calls (theory's constructions, lattice and intersection), which would
# take under 1% of any counting op.
# --------------------------------------------------------------------------

CONSTRUCT_DIMS = (2, 3)
CONSTRUCT_MAX_N = 6
LATTICE_PAIRS = 500
LATTICE_DIMS = (2, 3, 4, 5, 6)
LATTICE_BOUNDS = (9, 30)


def achievable(d: int, n: int, f: int) -> bool:
    """Membership in the achievable set, from the paper's statement."""
    if n == 1:
        return f == 1
    if n <= d:
        return f >= 1
    return n - d + 1 <= f <= n or f >= 2 * (n - d)


def construct_grid():
    """(d, n, f) for d in {2, 3}, 1 <= n <= 6 and achievable 1 <= f <= 2n."""
    return [
        (d, n, f)
        for d in CONSTRUCT_DIMS
        for n in range(1, CONSTRUCT_MAX_N + 1)
        for f in range(1, 2 * n + 1)
        if achievable(d, n, f)
    ]


def lattice_pairs(seed):
    """Distinct primitive vector pairs (a, b), d = 2..6, entries up to 9 and up to 30."""
    rng = random.Random(f"lattice:{seed}")
    pairs = []
    for slot in range(LATTICE_PAIRS):
        d = LATTICE_DIMS[slot % len(LATTICE_DIMS)]
        bound = LATTICE_BOUNDS[(slot // len(LATTICE_DIMS)) % len(LATTICE_BOUNDS)]
        while True:
            a = normal_form(random_normal(rng, d, bound), 0)[0]
            b = normal_form(random_normal(rng, d, bound), 0)[0]
            if a != b:
                break
        pairs.append((a, b))
    return pairs


WORKLOADS = {w.name: w for w in (Sweep3(), Glue4())}
