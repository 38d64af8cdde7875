"""Connected-component counts of pairwise subtorus intersections.

Two non-parallel codimension-one subtori with primitive normals a and b
meet in a disjoint union of (d-2)-dimensional subtori. The number of
components is computed by a nested-gcd formula driven by the Bezout chain
of a; by design it must always agree with the independent oracle
``lattice.minors2_gcd`` (the gcd of all 2x2 minors of the stacked pair).

Counts are stated for the linear (offset-zero) subtori; for translated
copies the count is the same whenever the intersection is nonempty.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatch, InvalidInput, NonPrimitive, ParallelNormals
from .lattice import BezoutChain, _bezout_chain, as_intvec, gcd_vec


def components_coordinate(b) -> int:
    """Components of the intersection with the first coordinate subtorus.

    For the pair {x_1 = 0} and {sum(b_i x_i) = c} with b primitive this is
    gcd(b_2, ..., b_d). Raises ParallelNormals when b is proportional to
    the first coordinate vector (the formula would return 0 and no
    transverse intersection exists).
    """
    vec = as_intvec(b)
    if len(vec) < 2:
        raise DimensionMismatch("need dimension >= 2")
    if gcd_vec(vec) != 1:
        raise NonPrimitive(f"vector {vec} is not primitive")
    g = math.gcd(*(abs(x) for x in vec[1:]))
    if g == 0:
        raise ParallelNormals(f"{vec} is parallel to the coordinate subtorus")
    return g


def components_pair(a, b, *, chain: BezoutChain | None = None) -> int:
    """Component count of the intersection of the subtori with normals a, b.

    Evaluates the nested-gcd expression

        gcd_j of  (a[j+1] * sum(b[i] * u[i] for i <= j) - b[j+1] * g_{j-1}) / g_j

    where g_j = gcd(a[0..j+1]) and u = chain.coeffs[j-1] certifies g_{j-1}
    (with g_0 = a[0] certified by u = (1,)). Every division is exact
    because g_j divides both a[j+1] and g_{j-1}; a non-exact division
    indicates a bug and raises RuntimeError.

    When a[0] = a[1] = 0 the leading denominator would vanish, so the first
    nonzero entry of a is first swapped into position 0 (the same
    transposition is applied to b). Transpositions are lattice
    automorphisms, hence the count is unchanged.

    ``chain`` lets callers supply any valid Bezout chain for a (after the
    swap rule above does not apply); the result is independent of that
    choice. The returned value always equals ``minors2_gcd(a, b)``.
    """
    va, vb = as_intvec(a), as_intvec(b)
    if len(va) != len(vb):
        raise DimensionMismatch(f"lengths differ: {len(va)} vs {len(vb)}")
    if len(va) < 2:
        raise DimensionMismatch("need dimension >= 2")
    if math.gcd(*va) != 1:
        raise NonPrimitive(f"vector {va} is not primitive")
    if math.gcd(*vb) != 1:
        raise NonPrimitive(f"vector {vb} is not primitive")
    if va == vb or va == tuple(-x for x in vb):
        raise ParallelNormals(f"normals {va} and {vb} are proportional")

    if va[0] == 0 and va[1] == 0:
        if chain is not None:
            raise InvalidInput("explicit chain unsupported when a starts with (0, 0)")
        pivot = next(i for i, x in enumerate(va) if x != 0)
        order = [pivot] + [i for i in range(len(va)) if i != pivot]
        va = tuple(va[i] for i in order)
        vb = tuple(vb[i] for i in order)

    if chain is None:
        chain = _bezout_chain(va)
    else:
        if chain.vector != va:
            raise InvalidInput("chain was built for a different vector")
        chain.verify()

    terms: list[int] = []
    g_prev = va[0]
    u_prev: tuple[int, ...] = (1,)
    for j in range(1, len(va)):
        g = chain.gcds[j - 1]
        numerator = va[j] * sum(bi * ui for bi, ui in zip(vb, u_prev)) - vb[j] * g_prev
        if g == 0:
            if numerator != 0:
                raise RuntimeError("internal: zero prefix gcd with nonzero numerator")
            terms.append(0)
        else:
            if numerator % g:
                raise RuntimeError(
                    f"internal: non-exact division {numerator}/{g} in nested-gcd formula"
                )
            terms.append(numerator // g)
        g_prev = g
        u_prev = chain.coeffs[j - 1]

    count = math.gcd(*(abs(t) for t in terms))
    if count == 0:
        raise RuntimeError("internal: formula returned 0 for non-proportional normals")
    return count
