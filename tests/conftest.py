"""Shared samplers and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from torusarr.arrangement import Arrangement, subtorus_from_equation
from torusarr.regions import lift_hyperplanes


def random_primitive_vector(rng, d, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(d)]
        g = math.gcd(*(abs(x) for x in v))
        if g:
            return tuple(x // g for x in v)


def random_subtorus(rng, d, bound=3, max_den=8):
    v = random_primitive_vector(rng, d, bound)
    q = rng.randint(1, max_den)
    p = rng.randint(0, q - 1)
    return subtorus_from_equation(v, Fraction(p, q))


@functools.lru_cache(maxsize=None)
def distinct_subtori(d, bound, max_den):
    """Number of distinct subtori ``random_subtorus`` can return: the
    primitive normals in [-bound, bound]^d up to sign, times the offsets
    p/q in [0, 1) with q <= max_den (a set closed under negation mod 1)."""
    normals = {
        subtorus_from_equation(v, 0).normal
        for v in itertools.product(range(-bound, bound + 1), repeat=d)
        if math.gcd(*v) == 1
    }
    offsets = {Fraction(p, q) for q in range(1, max_den + 1) for p in range(q)}
    return len(normals) * len(offsets)


def random_arrangement(rng, d, n, bound=3, max_den=8):
    available = distinct_subtori(d, bound, max_den)
    if n > available:
        raise ValueError(
            f"cannot draw {n} distinct subtori: bound={bound} and max_den={max_den} "
            f"allow {available} in dimension {d}"
        )
    seen = set()
    tori = []
    while len(tori) < n:
        s = random_subtorus(rng, d, bound, max_den)
        key = (s.normal, s.offset)
        if key not in seen:
            seen.add(key)
            tori.append(s)
    return Arrangement(d, tuple(tori))


def random_unimodular(rng, d, steps=4, coeff=1):
    """Random determinant-one integer matrix built from row additions."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i = rng.randrange(d)
        j = rng.randrange(d)
        if i == j:
            continue
        c = rng.choice([x for x in range(-coeff, coeff + 1) if x])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def euler_oracle_f(arr: Arrangement):
    """Independent region count for generic 2-torus arrangements.

    Enumerates every pairwise intersection point exactly (by solving the
    lifted 2x2 systems and reducing mod 1), builds the vertex and edge
    counts of the induced graph on the torus, and returns edges - vertices.
    Returns None when the arrangement is not generic for this count: a
    point on three subtori, or a subtorus carrying no intersection points.
    Never touches the cell-complex counter.
    """
    assert arr.dim == 2
    n = arr.n
    pts_by_pair = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = arr.tori[i], arr.tori[j]
            det = a.normal[0] * b.normal[1] - a.normal[1] * b.normal[0]
            if det == 0:
                continue
            pts = set()
            for _, ra in lift_hyperplanes(a, 2):
                for _, rb in lift_hyperplanes(b, 2):
                    x = Fraction(b.normal[1] * ra - a.normal[1] * rb, det)
                    y = Fraction(a.normal[0] * rb - b.normal[0] * ra, det)
                    pts.add((x % 1, y % 1))
            assert len(pts) == abs(det)
            pts_by_pair[(i, j)] = pts
    incidence: dict[tuple, list] = {}
    for pair, pts in pts_by_pair.items():
        for p in pts:
            incidence.setdefault(p, []).append(pair)
    if any(len(pairs) > 1 for pairs in incidence.values()):
        return None
    vertices = len(incidence)
    per_torus = [0] * n
    for (i, j), pts in pts_by_pair.items():
        per_torus[i] += len(pts)
        per_torus[j] += len(pts)
    if any(c == 0 for c in per_torus):
        return None
    edges = sum(per_torus)
    return edges - vertices
