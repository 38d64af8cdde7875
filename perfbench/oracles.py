"""Answer checks that do not go through the region counter.

Everything here is written against the benchmark's own reading of the
mathematics, so a wrong count from ``torusarr.regions`` cannot also make
its check pass. The only library calls are the ones a check is named
after (``check_bounds``, ``minors2_gcd``, ``BezoutChain.verify``).
"""

from __future__ import annotations

import math
from fractions import Fraction


def lifts(normal, offset):
    """Offsets c + k of the hyperplanes a . x = c + k that meet the closed unit cube."""
    lo = sum(min(x, 0) for x in normal)
    hi = sum(max(x, 0) for x in normal)
    return [offset + k for k in range(math.ceil(lo - offset), math.floor(hi - offset) + 1)]


def euler_count_2d(tori):
    """Regions of a 2-torus arrangement from its intersection graph.

    ``tori`` is a list of (normal, offset) pairs in normal form (primitive
    normal, first nonzero entry positive, offset in [0, 1)). With at least
    two normal directions every pair of non-parallel circles meets, the
    union is a connected graph and every region is a disc, so Euler's
    formula on the torus gives f = E - V. Vertices are the distinct intersection points;
    a circle carrying k of them contributes k edges. This holds for points
    on three or more circles as well. With one direction the n circles
    cut the torus into n annuli. Returns None when a pair does not yield
    exactly |det| points, which would mean the enumeration is wrong.
    """
    if len({a for a, _ in tori}) == 1:
        return len(tori)
    on_torus: list[set] = [set() for _ in tori]
    for i, (a, ca) in enumerate(tori):
        for j in range(i + 1, len(tori)):
            b, cb = tori[j]
            det = a[0] * b[1] - a[1] * b[0]
            if det == 0:
                continue
            pts = set()
            for ra in lifts(a, ca):
                for rb in lifts(b, cb):
                    x = Fraction(b[1] * ra - a[1] * rb, det)
                    y = Fraction(a[0] * rb - b[0] * ra, det)
                    pts.add((x % 1, y % 1))
            if len(pts) != abs(det):
                return None
            on_torus[i] |= pts
            on_torus[j] |= pts
    vertices = set().union(*on_torus)
    return sum(len(p) for p in on_torus) - len(vertices)


def family_count(family: str, d: int, n: int, k: int) -> int:
    """Closed-form region counts of the two construction families."""
    if family == "parallel":
        return n - k
    return 2 * n - 2 * d + k


def bounds_problem(ta, arr, f):
    """None when ``f`` passes every proven bound, else the reason."""
    try:
        ta.check_bounds(arr, f)
    except ta.TheoremViolation as exc:
        return f"bounds: {exc}"
    return None


def det(rows) -> int:
    """Integer determinant by cofactor expansion; the matrices are at most 6x6."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum(
        (-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def lattice_problem(ta, a, b, out):
    """None when the three lattice outputs for (a, b) are right, else the reason."""
    chain, pairs, mat = out
    if chain.vector != tuple(a):
        return "bezout_chain: wrong vector"
    try:
        chain.verify()
    except ta.InvalidInput as exc:
        return f"bezout_chain: {exc}"
    oracle = ta.minors2_gcd(a, b)
    if pairs != oracle:
        return f"components_pair {pairs} != minors2_gcd {oracle}"
    d = len(a)
    image = tuple(sum(a[i] * mat[i][j] for i in range(d)) for j in range(d))
    if image != (1,) + (0,) * (d - 1):
        return f"complete_to_unimodular: a @ M = {image}"
    if det(mat) != 1:
        return "complete_to_unimodular: det != 1"
    return None
