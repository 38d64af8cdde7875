"""Exact integer linear algebra.

Multi-gcds with Bezout certificates, completion of a primitive covector to a
determinant-one integer matrix, the squared metric data of an integer
hyperplane, the gcd of all 2x2 minors of a pair of vectors (used as an
independent oracle for pairwise intersection counts), the Hermite normal
form of an integer lattice with canonical coset representatives (used to
identify torus regions), the adjugate of a square matrix, and the elements
of the subgroup of (Z/D)^r that some vectors generate. The last two list
the intersection points of subtori: for a nonsingular A whose determinant
divides D, the solutions of A y = 0 (mod D) are the subgroup generated by
the columns of (D / det A) adj A.

Everything runs on arbitrary-precision integers; no floating point anywhere.
All functions are pure and all returned values are immutable, so the module
is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InvalidInput, NonPrimitive

IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]  # tuple of rows


def as_intvec(a) -> IntVec:
    """Coerce an iterable to a nonempty tuple of Python ints."""
    vec = tuple(a)
    if not vec:
        raise InvalidInput("empty integer vector")
    if all(type(x) is int for x in vec):
        return vec
    out = []
    for x in vec:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidInput(f"non-integer entry {x!r}")
        out.append(x)
    return tuple(out)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def gcd_vec(a) -> int:
    """gcd of the absolute values of the entries; 0 exactly when all are zero."""
    return math.gcd(*(abs(x) for x in as_intvec(a)))


def is_primitive(a) -> bool:
    return gcd_vec(a) == 1


@dataclass(frozen=True)
class BezoutChain:
    """Prefix gcds of an integer vector together with integer certificates.

    For a vector a of length d, ``gcds[j-1] = gcd(a[0], ..., a[j])`` for
    j = 1..d-1, and ``coeffs[j-1]`` is a vector u of length j+1 with
    ``sum(a[i] * u[i]) == gcds[j-1]`` exactly. Certificates are produced by
    left-to-right folding of the extended Euclidean algorithm; any other
    valid certificate satisfies the same identity and is accepted by
    consumers of this type.
    """

    vector: IntVec
    gcds: tuple[int, ...]
    coeffs: tuple[IntVec, ...]

    def verify(self) -> None:
        """Raise InvalidInput unless every certificate identity holds."""
        a = self.vector
        if len(self.gcds) != len(a) - 1 or len(self.coeffs) != len(a) - 1:
            raise InvalidInput("chain length does not match vector length")
        prev = abs(a[0])
        for j, (g, u) in enumerate(zip(self.gcds, self.coeffs), start=1):
            if g != math.gcd(*(abs(x) for x in a[: j + 1])):
                raise InvalidInput(f"stored gcd {g} wrong at prefix length {j + 1}")
            if len(u) != j + 1:
                raise InvalidInput("certificate length mismatch")
            if sum(ai * ui for ai, ui in zip(a, u)) != g:
                raise InvalidInput(f"certificate does not realize gcd at prefix {j + 1}")
            if g == 0:
                if prev != 0:
                    raise InvalidInput("gcd grew back to zero")
            elif prev % g:
                raise InvalidInput("prefix gcds do not form a divisibility chain")
            prev = g


def bezout_chain(a) -> BezoutChain:
    """Build the left-to-right extended-Euclid chain for ``a``.

    Example: (6, 10, 15) yields gcds (2, 1) with certificates
    (2, -1) and (-14, 7, 1).
    """
    return _bezout_chain(as_intvec(a))


def _bezout_chain(vec: IntVec) -> BezoutChain:
    """``bezout_chain`` for a vector already checked by ``as_intvec``."""
    gcds: list[int] = []
    coeffs: list[IntVec] = []
    g_prev = vec[0]
    u_prev: tuple[int, ...] = (1,)
    for j in range(1, len(vec)):
        g, s, t = xgcd(g_prev, vec[j])
        u = tuple(s * ui for ui in u_prev) + (t,)
        gcds.append(g)
        coeffs.append(u)
        g_prev, u_prev = g, u
    return BezoutChain(vec, tuple(gcds), tuple(coeffs))


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(as_intvec(r)) for r in rows]
    n = len(m)
    for r in m:
        if len(r) != n:
            raise DimensionMismatch("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def is_unimodular(m) -> bool:
    """True when m is a square integer matrix with determinant exactly 1."""
    try:
        rows = tuple(as_intvec(r) for r in m)
    except InvalidInput:
        return False
    if not rows or any(len(r) != len(rows) for r in rows):
        return False
    return det_int(rows) == 1


def complete_to_unimodular(a) -> IntMatrix:
    """Return M (rows) with det(M) = 1 and a @ M = (1, 0, ..., 0).

    In the coordinates y = M^{-1} x the hyperplane sum(a_i x_i) = c becomes
    y_1 = c. Built by folding entries pairwise with 2x2 determinant-one
    column operations; the result is one valid completion among many, and
    only the postcondition is contractual.
    """
    vec = as_intvec(a)
    if gcd_vec(vec) != 1:
        raise NonPrimitive(f"vector {vec} has gcd {gcd_vec(vec)}, expected 1")
    d = len(vec)
    if d == 1 and vec[0] == -1:
        # The only 1x1 determinant-one matrix is (1), which cannot map
        # (-1,) to (1,); every other primitive vector has a completion.
        raise InvalidInput("(-1,) admits no determinant-one completion in dimension 1")
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    r = list(vec)
    for j in range(1, d):
        p, q = r[0], r[j]
        if p == 0 and q == 0:
            continue
        g, x, y = xgcd(p, q)
        # Columns (0, j) are mixed by [[x, -q/g], [y, p/g]], which has
        # determinant (x*p + y*q)/g = 1.
        qg, pg = q // g, p // g
        for row in m:
            c0, cj = row[0], row[j]
            row[0] = c0 * x + cj * y
            row[j] = -c0 * qg + cj * pg
        r[0], r[j] = g, 0
    mat = tuple(tuple(row) for row in m)
    if r != [1] + [0] * (d - 1) or det_int(mat) != 1:
        raise RuntimeError(f"internal: unimodular completion failed for {vec}")
    return mat


def covector_times_matrix(a, m) -> IntVec:
    """Row-vector product a @ M for integer M given as rows."""
    vec = as_intvec(a)
    rows = tuple(as_intvec(r) for r in m)
    if len(rows) != len(vec):
        raise DimensionMismatch("vector/matrix size mismatch")
    width = len(rows[0])
    return tuple(sum(vec[i] * rows[i][j] for i in range(len(vec))) for j in range(width))


def matmul_int(m1, m2) -> IntMatrix:
    rows1 = tuple(as_intvec(r) for r in m1)
    rows2 = tuple(as_intvec(r) for r in m2)
    if len(rows2) != len(rows1[0]):
        raise DimensionMismatch("inner matrix dimensions differ")
    width = len(rows2[0])
    return tuple(
        tuple(sum(rows1[i][k] * rows2[k][j] for k in range(len(rows2))) for j in range(width))
        for i in range(len(rows1))
    )


def hyperplane_metrics(a) -> tuple[Fraction, Fraction]:
    """Squared metric data of the hyperplane sum(a_i x_i) = 0 in the unit lattice.

    Returns (dist_sq, vol_sq) where dist_sq = 1/S is the squared distance
    from the hyperplane to the nearest lattice point off it and vol_sq = S
    is the squared (d-1)-volume of its image in the unit torus, with
    S = sum(a_i^2). Squares keep both values rational; their product is 1.
    """
    vec = as_intvec(a)
    if gcd_vec(vec) != 1:
        raise NonPrimitive(f"vector {vec} has gcd {gcd_vec(vec)}, expected 1")
    s = sum(x * x for x in vec)
    return Fraction(1, s), Fraction(s)


def minors2_gcd(a, b) -> int:
    """gcd of all 2x2 minors a_i b_j - a_j b_i (i < j); 0 iff a, b proportional."""
    va, vb = as_intvec(a), as_intvec(b)
    if len(va) != len(vb):
        raise DimensionMismatch(f"lengths differ: {len(va)} vs {len(vb)}")
    if len(va) < 2:
        raise DimensionMismatch("minors need dimension >= 2")
    g = 0
    for i in range(len(va)):
        for j in range(i + 1, len(va)):
            g = math.gcd(g, abs(va[i] * vb[j] - va[j] * vb[i]))
    return g


def hermite_basis(vectors) -> IntMatrix:
    """Hermite normal form basis of the lattice spanned by integer vectors.

    Returns rows b_1..b_r (r the rank) with pivot columns p_1 < ... < p_r:
    b_i is zero before p_i, b_i[p_i] > 0, and every earlier row has its
    entry at p_i reduced into [0, b_i[p_i]). The basis depends only on the
    lattice, not on the generators (Cohen, A Course in Computational
    Algebraic Number Theory, section 2.4). Rows are combined with
    determinant-one 2x2 operations only, so the lattice never changes.
    """
    rows = [list(as_intvec(v)) for v in vectors]
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("generators have different lengths")
    rows = [r for r in rows if any(r)]
    basis: list[list[int]] = []
    col = 0
    while rows:
        rest = [r for r in rows if not r[col]]
        live = [r for r in rows if r[col]]
        if live:
            pivot = live[0]
            for r in live[1:]:
                # [[x, y], [-r/g, p/g]] has determinant (x*p + y*r)/g = 1.
                g, x, y = xgcd(pivot[col], r[col])
                pg, rg = pivot[col] // g, r[col] // g
                pivot, r = (
                    [x * u + y * v for u, v in zip(pivot, r)],
                    [pg * v - rg * u for u, v in zip(pivot, r)],
                )
                if any(r):
                    rest.append(r)
            if pivot[col] < 0:
                pivot = [-u for u in pivot]
            for b in basis:
                q = b[col] // pivot[col]
                if q:
                    b[:] = [u - q * v for u, v in zip(b, pivot)]
            basis.append(pivot)
        rows = rest
        col += 1
    return tuple(tuple(b) for b in basis)


def reduce_mod_lattice(v, basis) -> IntVec:
    """Canonical representative of the coset v + L, for L given by ``hermite_basis``.

    Subtracting multiples of b_1, ..., b_r in turn brings each pivot entry
    into [0, b_i[p_i]); two vectors reduce to the same tuple exactly when
    their difference lies in L.
    """
    out = list(v)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x)
        q = out[p] // b[p]
        if q:
            out = [u - q * w for u, w in zip(out, b)]
    return tuple(out)


def adjugate(rows) -> tuple[IntMatrix, int] | None:
    """Adjugate and determinant of a nonsingular square integer matrix A, or
    None when det(A) = 0; A @ adj(A) = det(A) I.

    Fraction-free Gauss-Jordan elimination of (A | I), Bareiss's exact
    division by the previous pivot applied above the pivot as well, leaves
    (det I | adj A) up to the sign of the row swaps; a column with no pivot
    shows that A is singular.
    """
    a = tuple(as_intvec(r) for r in rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("matrix is not square")
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        for p in range(k, n):
            if m[p][k]:
                break
        else:
            return None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in m), sign * prev


def subgroup_elements(generators, modulus: int, order: int) -> tuple[IntVec, ...]:
    """The elements of the subgroup of (Z/modulus)^r generated by the vectors.

    Starting from {0}, each generator g is walked, g, 2g, ..., until its
    next multiple falls back into the subgroup H built so far; the multiples
    before it are the coset representatives of H in H + <g>, so H + <g> is
    listed without repeats. Entries are residues in [0, modulus), zero comes
    first, and the order is deterministic. ``order`` is the size the caller
    knows the subgroup has; any other size raises RuntimeError.
    """
    if modulus < 1:
        raise InvalidInput(f"the modulus must be positive, got {modulus}")
    gens = [tuple([x % modulus for x in as_intvec(g)]) for g in generators]
    if not gens:
        raise InvalidInput("a subgroup needs at least one generator")
    if any(len(g) != len(gens[0]) for g in gens):
        raise DimensionMismatch("generators have different lengths")
    elems = [(0,) * len(gens[0])]
    members = set(elems)
    for g in gens:
        new = []
        m = g
        while m not in members:
            # elems[0] is zero, so the coset elems + m starts with m itself.
            new.append(m)
            new += [tuple([(x + y) % modulus for x, y in zip(h, m)]) for h in elems[1:]]
            m = tuple([(x + y) % modulus for x, y in zip(m, g)])
        elems += new
        members.update(new)
    if len(elems) != order:
        raise RuntimeError(f"internal: subgroup has {len(elems)} elements, expected {order}")
    return tuple(elems)
