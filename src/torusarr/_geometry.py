"""Small exact-geometry helpers; no region count calls them.

They hold ``hull_h``, which the tests' ``poly_area`` reference uses, and
the names the benchmark's tracer wraps in ``torusarr.regions``: integer
matrix rank (fraction-free), affine rank of rational point sets, and
convex polygon machinery in homogeneous integer coordinates, where a
planar point is a tuple (x, y, w) with w > 0 representing (x/w, y/w), so
hulls, clipping, and orientation tests run entirely on Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction


def int_rank(rows) -> int:
    """Rank of an integer matrix via fraction-free row elimination."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    width = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < width:
        sel = -1
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel < 0:
            col += 1
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                a, b = prow[col], mat[i][col]
                mat[i] = [a * x - b * y for x, y in zip(mat[i], prow)]
                g = math.gcd(*(abs(v) for v in mat[i]))
                if g > 1:
                    mat[i] = [v // g for v in mat[i]]
        rank += 1
        col += 1
    return rank


def affine_rank(points) -> int:
    """Dimension of the affine hull of rational points (0 for a single point)."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) < 2:
        return 0
    base = pts[0]
    diffs = []
    for p in pts[1:]:
        scale = math.lcm(*(x.denominator for x in p), *(x.denominator for x in base))
        diffs.append([int((a - b) * scale) for a, b in zip(p, base)])
    return int_rank(diffs)


def orient_h(a, b, c) -> int:
    """Sign of the affine orientation of three homogeneous points (w > 0)."""
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return (det > 0) - (det < 0)


def _normalize_h(x: int, y: int, w: int) -> tuple[int, int, int]:
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(abs(x), abs(y), w)
    if g > 1:
        x, y, w = x // g, y // g, w // g
    return x, y, w


def hull_h(points) -> list[tuple[int, int, int]]:
    """Convex hull of homogeneous integer points, counterclockwise, strict.

    Collinear points are dropped; fewer than 3 output points means the
    input spans no area.
    """
    normalized = {_normalize_h(*p) for p in points}
    pts = sorted(normalized, key=lambda p: (Fraction(p[0], p[2]), Fraction(p[1], p[2])))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and orient_h(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient_h(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def clip_h(subject, clipper) -> list[tuple[int, int, int]]:
    """Sutherland-Hodgman clip of convex CCW ``subject`` by convex CCW ``clipper``.

    Inputs and output are homogeneous integer points; the output may be
    empty or degenerate when the intersection carries no area.
    """
    output = list(subject)
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        a = clipper[i]
        b = clipper[(i + 1) % n]
        lx = a[1] * b[2] - a[2] * b[1]
        ly = a[2] * b[0] - a[0] * b[2]
        lw = a[0] * b[1] - a[1] * b[0]
        inputs = output
        output = []
        prev = inputs[-1]
        prev_side = lx * prev[0] + ly * prev[1] + lw * prev[2]
        for cur in inputs:
            cur_side = lx * cur[0] + ly * cur[1] + lw * cur[2]
            if cur_side >= 0:
                if prev_side < 0:
                    output.append(
                        _normalize_h(
                            prev_side * cur[0] - cur_side * prev[0],
                            prev_side * cur[1] - cur_side * prev[1],
                            prev_side * cur[2] - cur_side * prev[2],
                        )
                    )
                output.append(cur)
            elif prev_side > 0:
                output.append(
                    _normalize_h(
                        prev_side * cur[0] - cur_side * prev[0],
                        prev_side * cur[1] - cur_side * prev[1],
                        prev_side * cur[2] - cur_side * prev[2],
                    )
                )
            prev, prev_side = cur, cur_side
    return output


def has_area_h(poly) -> bool:
    """True when a (possibly degenerate) convex CCW polygon spans positive area."""
    if len(poly) < 3:
        return False
    anchor = poly[0]
    for i in range(1, len(poly) - 1):
        if orient_h(anchor, poly[i], poly[i + 1]) > 0:
            return True
    return False


def hulls_overlap_h(hull_a, hull_b) -> bool:
    """True when two convex CCW hulls intersect in positive area."""
    if len(hull_a) < 3 or len(hull_b) < 3:
        return False
    return has_area_h(clip_h(hull_a, hull_b))
