"""Exact integer linear algebra.

Multi-gcds with Bezout certificates, completion of a primitive covector to a
determinant-one integer matrix, the squared metric data of an integer
hyperplane, the gcd of all 2x2 minors of a pair of vectors (used as an
independent oracle for pairwise intersection counts), the Hermite normal
form of an integer lattice with canonical coset representatives (used to
identify torus regions), and the nonsingular r-subsets of some vectors in
Z^r with the columns of det A^{-1}, the radices of A's Hermite form and
the spanned rows, which list the intersection points of subtori and their
no-broken-circuit bases.

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


def _is_int(x) -> bool:
    # A bool is an int to Python, but not a coordinate, dimension or count.
    return isinstance(x, int) and not isinstance(x, bool)


def as_intvec(a) -> IntVec:
    """Coerce an iterable to a nonempty tuple of Python ints."""
    vec = tuple(a)
    if not vec:
        raise InvalidInput("empty integer vector")
    if all(type(x) is int for x in vec):
        return vec
    for x in vec:
        if not _is_int(x):
            raise InvalidInput(f"non-integer entry {x!r}")
    return vec


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


def _fold(vectors, i):
    """Fold ``vectors``, weighted by their entries at i, into u of weight
    h = +-gcd(weights) and rest, the others in order, of weight 0; all are
    returned as the entries after i. Each later vector of nonzero weight w
    is mixed with u by [[x, -w/g], [y, h/g]], (g, x, y) = xgcd(h, w), of
    determinant (x h + y w)/g = 1. Zero weights are skipped, so h < 0 only
    when the first weight is the only nonzero one.
    """
    h, u = vectors[0][i], vectors[0][i + 1:]
    rest = []
    for v in vectors[1:]:
        w, v = v[i], v[i + 1:]
        if w:
            g, x, y = xgcd(h, w)
            hg, wg = h // g, w // g
            u, v = [x * p + y * q for p, q in zip(u, v)], [hg * q - wg * p for p, q in zip(u, v)]
            h = g
        rest.append(v)
    return h, u, rest


def gcd_vec(a) -> int:
    """gcd of the absolute values of the entries; 0 exactly when all are zero."""
    return math.gcd(*(abs(x) for x in as_intvec(a)))


@dataclass(frozen=True)
class BezoutChain:
    """Prefix gcds of an integer vector together with integer certificates.

    For a vector a of length d, ``gcds[j-1] = gcd(a[0], ..., a[j])`` for
    j = 1..d-1, and ``coeffs[j-1]`` is a vector u of length j+1 with
    ``sum(a[i] * u[i]) == gcds[j-1]`` exactly. Certificates are produced by
    left-to-right folding of the extended Euclidean algorithm; any other
    valid certificate satisfies the same identity and passes ``verify``.
    """

    vector: IntVec
    gcds: tuple[int, ...]
    coeffs: tuple[IntVec, ...]

    def verify(self) -> None:
        """Raise InvalidInput unless every certificate identity holds."""
        a = self.vector
        if len(self.gcds) != len(a) - 1 or len(self.coeffs) != len(a) - 1:
            raise InvalidInput("chain length does not match vector length")
        for j, (g, u) in enumerate(zip(self.gcds, self.coeffs), start=1):
            if g != math.gcd(*(abs(x) for x in a[: j + 1])):
                raise InvalidInput(f"stored gcd {g} wrong at prefix length {j + 1}")
            if len(u) != j + 1:
                raise InvalidInput("certificate length mismatch")
            if sum(ai * ui for ai, ui in zip(a, u)) != g:
                raise InvalidInput(f"certificate does not realize gcd at prefix {j + 1}")


def bezout_chain(a) -> BezoutChain:
    """Build the left-to-right extended-Euclid chain for ``a``.

    Example: (6, 10, 15) yields gcds (2, 1) with certificates
    (2, -1) and (-14, 7, 1).
    """
    vec = as_intvec(a)
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


def complete_to_unimodular(a) -> IntMatrix:
    """Return M (rows) with det(M) = 1 and a @ M = (1, 0, ..., 0).

    In the coordinates y = M^{-1} x the hyperplane sum(a_i x_i) = c becomes
    y_1 = c. M's columns come from ``_fold`` of the (a_j,) + e_j at 0: one
    valid completion among many, and only the postcondition is contractual.
    """
    vec = as_intvec(a)
    if gcd_vec(vec) != 1:
        raise NonPrimitive(f"vector {vec} has gcd {gcd_vec(vec)}, expected 1")
    d = len(vec)
    if d == 1 and vec[0] == -1:
        # The only 1x1 determinant-one matrix is (1), which cannot map
        # (-1,) to (1,); every other primitive vector has a completion.
        raise InvalidInput("(-1,) admits no determinant-one completion in dimension 1")
    h, u, rest = _fold([(x, *(int(i == j) for i in range(d))) for j, x in enumerate(vec)], 0)
    if h == -1:
        # A lone -1 in position 0 (d >= 2): flip two columns.
        h, u, rest[0] = 1, [-x for x in u], [-x for x in rest[0]]
    mat = tuple(zip(u, *rest))
    if h != 1 or det_int(mat) != 1:
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
    Algebraic Number Theory, section 2.4). Each column's live rows, zero
    before it, are combined by ``_fold``, so the lattice never changes.
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
            h, u, folded = _fold(live, col)
            zeros = [0] * (col + 1)
            rest += [zeros + r for r in folded if any(r)]
            pivot = zeros[:col] + ([h] + u if h > 0 else [-h] + [-x for x in u])
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


def nonsingular_subsets(rows) -> tuple[tuple[IntVec, IntMatrix, int, IntVec, IntVec], ...]:
    """Every r-subset of the rows, r their length, whose square matrix A is
    nonsingular, in lexicographic order of the row indices.

    Each is returned as (indices, cols, det, radices, spanned): det =
    |det A| > 0, cols are the columns of det A^{-1}, so A @ cols = det I,
    and radices are the diagonal h_1..h_r of the lower-triangular Hermite
    form of A. h_1 ... h_i is the gcd of the i x i minors of A's first i
    rows, so the product of all r is det, and the solutions of A y = 0
    (mod 1) are A^{-1} k for the det vectors k with 0 <= k_i < h_i, one
    per class. spanned lists, in increasing order, the rows t outside the
    subset that lie in the span of its rows with an index below t.

    The subsets form a tree of prefixes, and ``_nonsingular_frames``
    eliminates each prefix once for all its extensions on a tableau: a
    prefix of j rows keeps delta = h_1 ... h_j and, for each row that may
    still join, its coordinates against the columns of delta times the
    prefix's inverse and against a kernel basis that completes them to
    determinant one. Row t joins by ``_fold`` over the kernel columns
    weighted by its kernel coordinates, which yields its pivot h and a
    column u of weight h. h = 0 when those are zero: row t lies in the
    prefix's span, prunes its subtree and is spanned for every later
    extension. Otherwise the other columns become h times themselves less
    row t's entry times u, and delta u is appended. Here the walk stops at
    depth r: each frame is one subset, its delta is det, and the r unit
    covectors, which ride along as rows never chosen, have the entries of
    cols as coordinates. The rows are checked here; the walk trusts them.
    """
    rows = [as_intvec(a) for a in rows]
    if not rows:
        return ()
    r, n = len(rows[0]), len(rows)
    if any(len(a) != r for a in rows):
        raise DimensionMismatch("rows have different lengths")
    units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    return tuple(
        (chosen, tuple(tuple(s[-r:]) for s in cols), det, radices,
         tuple(c for c, _ in spanned) + tuple(range(start, n)))
        for start, chosen, det, radices, spanned, cols, _ in _nonsingular_frames(rows + units, n, r)
    )


def _nonsingular_frames(rows, n, depth):
    """Yield the walk's frames of the depth its caller asks for, at most r,
    in the order of ``nonsingular_subsets``, and go no deeper. Rows are
    chosen among the first n, in prefixes with room for r rows. A frame is
    (start, chosen, delta, radices, spanned, cols, kernel): cols and kernel
    hold the tableau's columns over rows start on, spanned the pairs (row,
    coordinates against cols)."""
    last = len(rows[0]) - 1
    stack = [(0, (), 1, (), (), [], [list(col) for col in zip(*rows)])]
    while stack:
        frame = stack.pop()
        start, chosen, delta, radices, spanned, cols, kernel = frame
        j = len(chosen)
        if j == depth:
            yield frame
            continue
        children = []
        # A frame leaves room for the r - 1 - j rows still to come.
        for t in range(start, n - last + j):
            i = t - start
            h, u, rest = _fold(kernel, i)
            if not h:
                # Row t is in the prefix's span: in that of the smaller
                # members of every subset that extends the prefix past t.
                spanned += ((t, [s[i] for s in cols]),)
                continue
            if h < 0:
                h, u = -h, [-q for q in u]
            new = [[h * p - s[i] * q for p, q in zip(s[i + 1:], u)] for s in cols]
            new.append([delta * q for q in u])
            # A spanned row's other coordinates scale by h and gain a 0.
            scaled = tuple((c, [h * p for p in pc] + [0]) for c, pc in spanned) if spanned else ()
            children.append((t + 1, chosen + (t,), delta * h, radices + (h,), scaled, new, rest))
        # Pushed in reverse, the children pop in increasing order.
        stack.extend(reversed(children))
