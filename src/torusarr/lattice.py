"""Exact integer linear algebra.

Multi-gcds with Bezout certificates, completion of a primitive covector to a
determinant-one integer matrix, the squared metric data of an integer
hyperplane, the gcd of all 2x2 minors of a pair of vectors (used as an
independent oracle for pairwise intersection counts), the Hermite normal
form of an integer lattice with canonical coset representatives (used to
identify torus regions), and the nonsingular r-subsets of some vectors in
Z^r, each with the columns of det A^{-1} for its matrix A, the radices of
A's lower-triangular Hermite form and the rows outside the subset that lie
in the span of its rows with a smaller index. The last lists the
intersection points of subtori and their no-broken-circuit bases: for
det A dividing D, the solutions of A y = 0 (mod D) are the sums of k_i
times column i of D A^{-1}, with 0 <= k_i < h_i, a mixed-radix box with
no repeats.

Everything runs on arbitrary-precision integers; no floating point anywhere.
All functions are pure and all returned values are immutable, so the module
is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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


def _fold(weights, vectors):
    """Fold ``vectors`` into u of weight h = +-gcd(weights) and rest, the
    others in order, each of weight 0; the weights are one linear form's
    values on the vectors. Each later vector of nonzero weight w is mixed
    with u by [[x, -w/g], [y, h/g]], (g, x, y) = xgcd(h, w), of determinant
    (x h + y w)/g = 1. Zero weights are skipped, so h < 0 only when the
    first weight is the only nonzero one.
    """
    pairs = zip(weights, vectors)
    h, u = next(pairs)
    rest = []
    for w, v in pairs:
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


def complete_to_unimodular(a) -> IntMatrix:
    """Return M (rows) with det(M) = 1 and a @ M = (1, 0, ..., 0).

    In the coordinates y = M^{-1} x the hyperplane sum(a_i x_i) = c becomes
    y_1 = c. Built by ``_fold`` over the identity columns; the result is one
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
    # Column j of the identity has weight vec[j]; the folded columns are
    # those of M.
    h, u, rest = _fold(vec, [tuple(int(i == j) for i in range(d)) for j in range(d)])
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
    Algebraic Number Theory, section 2.4). Each column's live rows are
    combined by ``_fold``, so the lattice never changes.
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
            _, pivot, folded = _fold([r[col] for r in live], live)
            rest += [r for r in folded if any(r)]
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

    The subsets form a tree of prefixes, and a prefix is eliminated once for
    all its extensions. A node of j rows keeps delta = h_1 ... h_j, vectors
    S_1..S_j with prefix @ S_i = delta e_i, and a basis of the prefix's
    kernel that completes the pivot columns to a determinant-one matrix.
    A child with row a runs ``_fold`` over that basis with the weights
    a . k, so that a . u = h and a vanishes on the other basis vectors. h = 0
    means that a lies in the prefix's span: it prunes the subtree, in which
    every matrix is singular, and a is spanned for every subset that
    extends the prefix by a later row. Otherwise the child keeps delta h,
    h S_i - (a . S_i) u and delta u: r dot products per child and no
    Gauss-Jordan elimination per subset.

    Every step, inner or leaf, makes h and u and then shares the zero-pivot
    test, the sign flip and the record. At depth r - 1 the kernel is one
    vector v, so a leaf takes h = a . v and u = v with no fold; det A =
    delta h, its S_i are the columns of det A^{-1}, and every row after the
    last member is spanned. The walk, ``_nonsingular_leaves``, yields each
    leaf with its parent's S_i and delta and its own a, h and u, from which
    ``_child_cols`` makes the columns: here at every leaf, in
    ``torusarr.regions.count_regions`` only at the leaves with a spanned
    row, the only ones whose columns it reads. The rows are checked here,
    once; the walk takes them as checked.
    """
    rows = [as_intvec(a) for a in rows]
    if not rows:
        return ()
    if any(len(a) != len(rows[0]) for a in rows):
        raise DimensionMismatch("rows have different lengths")
    return tuple(
        (chosen, _child_cols(parent), det, radices, spanned)
        for chosen, det, radices, spanned, parent in _nonsingular_leaves(rows)
    )


def _child_cols(parent) -> IntMatrix:
    """The columns h S_i - (a . S_i) u and delta u of a child, from the
    parent's S_i (``cols``) and delta, the child's row a, pivot h and u."""
    cols, a, h, u, delta = parent
    new = [
        tuple([h * p - c * q for p, q in zip(s, u)])
        for s, c in zip(cols, [sum(map(mul, a, s)) for s in cols])
    ]
    new.append(tuple([delta * q for q in u]))
    return tuple(new)


def _nonsingular_leaves(rows):
    """Yield (indices, det, radices, spanned, parent) for the subsets of
    ``nonsingular_subsets``, in its order; ``_child_cols(parent)`` are
    their cols. ``rows`` is a nonempty list of integer tuples of one
    length, as ``nonsingular_subsets`` checks them."""
    r = len(rows[0])
    n, last = len(rows), r - 1
    # A frame is one prefix: the first row that may extend it, its kernel
    # basis, its S_i, delta, the pivots, the chosen row indices and the
    # rows outside it spanned by the members before them.
    eye = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    stack = [(0, eye, (), 1, (), (), ())]
    while stack:
        start, kernel, cols, delta, radices, chosen, spanned = stack.pop()
        j = len(chosen)
        leaf = j == last
        children = []
        # A frame leaves room for the r - 1 - j rows still to come.
        for t in range(start, n - last + j):
            a = rows[t]
            if leaf:
                # One kernel vector v: the pivot is a . v and u = v, no fold.
                u = kernel[0]
                h = sum(map(mul, a, u))
            else:
                h, u, rest = _fold([sum(map(mul, a, b)) for b in kernel], kernel)
            if not h:
                # Row t is in the prefix's span: in that of the smaller
                # members of every subset that extends the prefix past t.
                spanned += (t,)
                continue
            if h < 0:
                h, u = -h, [-p for p in u]
            parent = (cols, a, h, u, delta)
            chosen_t, delta_t, radices_t = chosen + (t,), delta * h, radices + (h,)
            if leaf:
                yield chosen_t, delta_t, radices_t, spanned + tuple(range(t + 1, n)), parent
            else:
                children.append(
                    (t + 1, rest, _child_cols(parent), delta_t, radices_t, chosen_t, spanned)
                )
        # Pushed in reverse, the children pop in increasing order.
        stack.extend(reversed(children))
