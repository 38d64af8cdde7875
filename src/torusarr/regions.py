"""Exact region counting for subtorus arrangements.

``count_regions`` counts by the toric vertex sum and builds no cells.
Let N be the matrix whose rows are the normals a_t and r its rank. The
Hermite basis of the lattice N Z^d (spanned by N's columns) has r rows; its
column t is a primitive m_t in Z^r, and N Z^d = M Z^r for the matrix M with
rows m_t. So N = M P for an integer P that maps Z^d onto Z^r, x -> P x
maps T^d onto T^r with connected fibres, and the regions are the preimages
of those of the essential arrangement {m_t . y = c_t} in T^r. There every
region is an open cell, and f = sum over the intersection points p of
|mu(0, 1)| in the lattice of flats of the subtori through p (toric
Zaslavsky: Ehrenborg, Readdy and Slone, "Affine and toric hyperplane
arrangements", 2009; Moci, "A Tutte polynomial for toric arrangements",
2012).

That |mu| is the number of no-broken-circuit bases of the central
arrangement at p (Bjorner, "On the homology of geometric lattices", 1982;
Orlik and Terao, "Arrangements of Hyperplanes", 1992, ch. 3). Order the
hyperplanes. A hyperplane outside a basis B is externally active when it
follows every member of its fundamental circuit, the members of B whose
normals its normal needs, and B is an NBC basis when none through p is.
So f is the number of pairs (B, p), B a set of r subtori and p one of
their common points, such that no externally active subtorus passes
through p. Parallel subtori never meet, so activity depends on the
classes of parallel subtori alone, ordered by their first subtorus; a
point on exactly r subtori contributes 1.

The points of B come from its matrix A (rows m_t, t in B): they are the
|det A| solutions y = A^{-1} (c_B + k) mod Z^r, k in Z^r. The tableau walk
of ``torusarr.lattice.nonsingular_subsets`` finds every nonsingular set of
r distinct normals, in the order of the classes, with det > 0, the radices
h_1..h_r of A's lower-triangular Hermite form and the active classes.
h_1 ... h_i counts the components of the intersection of the set's first i
subtori; h_1 = 1 since the m_t are primitive. Class c follows every member
of its fundamental circuit exactly when m_c lies in the span of the members
before it, which the walk's zero-pivot test decides; every class after the
last member is active. A set with no active class adds det times the
number of choices of one subtorus per normal. Otherwise let
G = det A^{-1}: each m_c . G_i is a Cramer minor. The count stops the walk
at depth r - 1, where P[c] is class c's row against the prefix's columns
and H the one kernel column, and takes the last step itself: the set
ending in class t has h = |H[t]|, det = delta h and, with u = sgn(H[t]) H,
m_c . G_i = h P[c]_i - P[t]_i u[c] for i < r and delta u[c] for i = r.
With Q the lcm of all offset denominators,
Q det y = G (Q c) + Q G k over the det vectors k of the mixed-radix box
0 <= k_i < h_i, which holds one k per class of Z^r / A Z^r, and for each
choice of subtori a point counts unless m_c . Q det y = det Q c_t
(mod Q det) for some subtorus t of an active class c. The map k ->
m_c . Q G k (mod Q det) sends the det points onto the multiples of
g_c = Q gcd(det, m_c . G_1, ..., m_c . G_r), g_c / Q points on each, so t
passes through g_c / Q points when det Q c_t - m_c . G (Q c) is a multiple
of g_c and through none otherwise: one O(r) test per subtorus of an active
class. Parallel subtori share no point, so a choice whose hits all lie in
one class adds det less the sum of their g_c / Q. Only a choice with hits
in two classes, whose hit sets may overlap, lists m_c . Q G k mod Q det
for every active class over the box, one coordinate at a time and once per
set, and counts the union of the points hit.

``build_cells`` decomposes the fundamental cube [0, 1]^d, in at most
``MAX_CELL_DIM`` dimensions, and ``region_witnesses`` reads its points off
the same cells and region indices. Every subtorus lifts to the finitely
many parallel hyperplane sheets that meet the cube; the cube is then split
incrementally, sheet by sheet, into open convex cells.

Regions are then identified algebraically. In R^d the complement of the
lifted arrangement falls into the convex cells
P_K = {x : floor(a_t . x - c_t) = K_t for every subtorus t}, and Z^d
acts on them by K -> K + N v. The torus regions are the orbits of this
action. Every cube cell lies in one P_K, and K_t is, up to a constant
shift per subtorus, the number of subtorus t's sheets on whose positive
side the cell lies. So a cell's key is its floor vector K reduced modulo
the lattice N Z^d (``torusarr.lattice.hermite_basis``), and cells lie in
the same region exactly when their keys agree. One grouping numbers the
regions by their lowest-index cell: ``build_cells(glue=True)`` keeps the
indices as ``gluing``, and ``region_witnesses`` takes each region's first
cell. A subtorus x_i = 0 needs no special case: all cube cells share its
coordinate of K, so no translation with a nonzero i-th component relates
two of them.

Cells are tracked by their exact vertex sets (integer coordinate vectors
over a common denominator), which makes every split decision a matter of
evaluating signs of integer expressions: a sheet properly cuts a cell
exactly when its affine form takes both signs on the vertex set. Each
vertex carries its tight set, the cube walls and sheets through it. As in
the double description method, two vertices of opposite sign span an edge
exactly when no third vertex is tight on every wall and sheet they share,
and new vertices are cut out on those edges alone, so no floating point,
no rank computation and no linear programming is needed on either route.

Determinism: subtori are processed in input order, sheets in increasing
offset; splitting emits the negative-side cell first. Rebuilding the same
arrangement yields bit-identical complexes, and regions are numbered in
the order of their lowest-index cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arrangement import Arrangement, Subtorus
from .errors import DimensionMismatch, InvalidParams, ResourceCapError
from .feasibility import LinConstraint
from .lattice import (
    IntVec,
    _is_int,
    _nonsingular_frames,
    hermite_basis,
    reduce_mod_lattice,
)

DEFAULT_MAX_SHEETS = 64
# The cell route's cube alone has 2^d vertices, which the sheet cap does not
# count. One sheet x_1 = 1/2 costs about four times more per dimension:
# 0.23 s in T^11 and 0.81 s in T^12 on one Xeon core.
MAX_CELL_DIM = 12

relative_dim_is = int_rank = hulls_overlap_h = hull_h = affine_rank = None  # perfbench INNER only


@dataclass(frozen=True)
class HPolytope:
    """Conjunction of rational linear constraints describing one open cell.

    Cube-wall constraints are non-strict; constraints inherited from sheet
    cuts are strict, so the constraint set describes the open cell and its
    closure is obtained by closing every relation.
    """

    constraints: tuple[LinConstraint, ...]
    dim: int


@dataclass(frozen=True)
class CellComplex:
    """Result of decomposing the fundamental cube along the lifted sheets.

    ``sign_vectors[i][j]`` is the side (+1 / -1) of sheet j that open cell i
    lies on. ``gluing[i]`` is the index of the torus region that cell i
    belongs to; regions are numbered in the order of their lowest-index
    cell, so ``gluing[0] == 0``. ``gluing`` and ``region_count`` are filled
    when the complex is built with ``glue=True`` and are None otherwise.
    """

    dim: int
    sheets: tuple[tuple[IntVec, Fraction], ...]
    cells: tuple[HPolytope, ...]
    sign_vectors: tuple[tuple[int, ...], ...]
    cell_vertices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    gluing: tuple[int, ...] | None
    region_count: int | None


def _sheet_range(s: Subtorus) -> range:
    """The integers k for which a . x = offset + k meets the closed cube.

    The affine form's range over [0, 1]^d runs from lo, the sum of the
    negative coefficients, to hi, the sum of the positive ones, so k runs
    from ceil(lo - offset) to floor(hi - offset). With the offset in
    [0, 1) and lo, hi integers, that is lo to hi - 1, or to hi at offset 0.
    """
    lo = sum(min(x, 0) for x in s.normal)
    hi = sum(max(x, 0) for x in s.normal)
    return range(lo, hi + (not s.offset))


def lift_hyperplanes(s: Subtorus, d: int) -> list[tuple[IntVec, Fraction]]:
    """All lifts a . x = offset + k of the subtorus meeting the closed cube.

    k ranges over the integers for which the affine form's range over
    [0, 1]^d contains offset + k; the range endpoints are the sums of the
    negative and of the positive coefficients.
    """
    if s.dim != d:
        raise DimensionMismatch(f"subtorus lives in dimension {s.dim}, not {d}")
    return [(s.normal, s.offset + k) for k in _sheet_range(s)]


# --------------------------------------------------------------------------
# Internal representation.
#
# Vertex: (nums, den) with den > 0 and gcd(*nums, den) = 1; coordinate k is
# nums[k] / den. Tight set: an int bitmask per vertex. Bit 2i is the wall
# x_i >= 0, bit 2i + 1 the wall x_i <= 1 and bit 2d + j sheet j. A sheet
# a . x = p/q has integer slack q * (a . nums) - p * den at a vertex, with
# the sign of (a . x - p/q).
#
# Every wall and every processed sheet is a valid inequality for every
# cell, so a vertex's mask is its tight set among them, and the masks
# common to two vertices cut out the smallest face containing both.
# --------------------------------------------------------------------------


def _mk_point(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


class _Cell:
    """Vertices, their tight masks, the sign per sheet and the mask of the
    sheets that split an ancestor."""

    __slots__ = ("verts", "tight", "signs", "cut")

    def __init__(self, verts, tight, signs, cut):
        self.verts = verts
        self.tight = tight
        self.signs = signs
        self.cut = cut


def _split_cell(cell: _Cell, vals, bit: int, d: int) -> list[_Cell]:
    """Split along the sheet with mask ``bit`` and vertex slacks ``vals``,
    negative side first.

    A (+, -) vertex pair spans an edge exactly when their common mask has
    at least d - 1 bits and no third vertex's mask contains it. Only edges
    get a crossing point, tight on exactly that mask and the new sheet.
    """
    crosses: list[tuple[tuple[int, ...], int]] = []
    cross_tight: list[int] = []
    for (v, sv, tv) in zip(cell.verts, vals, cell.tight):
        if sv <= 0:
            continue
        for (w, sw, tw) in zip(cell.verts, vals, cell.tight):
            if sw >= 0:
                continue
            common = tv & tw
            if common.bit_count() < d - 1:
                continue
            if sum(1 for tu in cell.tight if tu & common == common) > 2:
                continue
            nums = [sv * nw - sw * nv for nv, nw in zip(v[0], w[0])]
            crosses.append(_mk_point(nums, sv * w[1] - sw * v[1]))
            cross_tight.append(common | bit)
    children = []
    for sign in (-1, 1):
        keep = [k for k, s in enumerate(vals) if s * sign >= 0]
        if len(keep) + len(crosses) < d + 1:
            raise RuntimeError("internal: cell lost full dimension during split")
        children.append(
            _Cell(
                [cell.verts[k] for k in keep] + crosses,
                [cell.tight[k] for k in keep] + cross_tight,
                cell.signs + [sign],
                cell.cut | bit,
            )
        )
    return children


def _initial_cube(d: int) -> _Cell:
    verts = []
    tight = []
    for mask in range(1 << d):
        coords = tuple((mask >> j) & 1 for j in range(d))
        verts.append((coords, 1))
        tight.append(sum(1 << (2 * j + x) for j, x in enumerate(coords)))
    return _Cell(verts, tight, [], 0)


def _check_sheet_cap(arr: Arrangement, max_sheets: int | None) -> None:
    """Raise unless the arrangement lifts to at most the cap's number of
    sheets; the sheets are counted, not lifted: with its offset in [0, 1), a
    subtorus lifts to ||a||_1 = hi - lo sheets of ``_sheet_range``, one more
    at offset 0."""
    cap = DEFAULT_MAX_SHEETS if max_sheets is None else max_sheets
    if not _is_int(cap) or cap < 0:
        raise InvalidParams(f"the sheet cap must be a non-negative integer, got {cap!r}")
    total = sum(sum(map(abs, t.normal)) + (not t.offset) for t in arr.tori)
    if total > cap:
        raise ResourceCapError(
            f"arrangement lifts to {total} hyperplane sheets, exceeding the cap of "
            f"{cap}; raise the cap (TORUSARR_MAX_SHEETS / max_sheets) only if you accept "
            f"the cost"
        )


def _build(arr: Arrangement, max_sheets: int | None):
    """The open cells, the lifted sheets (each subtorus's together, in
    increasing offset) and each subtorus's (start, stop) range in that list."""
    _check_sheet_cap(arr, max_sheets)
    d = arr.dim
    if d > MAX_CELL_DIM:
        raise ResourceCapError(
            f"building cells in dimension d = {d} exceeds the limit of {MAX_CELL_DIM}: the "
            f"cube alone has 2^{d} vertices; count_regions counts without cells"
        )
    sheets: list[tuple[IntVec, Fraction]] = []
    runs: list[tuple[int, int]] = []
    for torus in arr.tori:
        start = len(sheets)
        sheets.extend(lift_hyperplanes(torus, d))
        runs.append((start, len(sheets)))
    cells = [_initial_cube(d)]
    for j, (a, rhs) in enumerate(sheets):
        p, q = rhs.numerator, rhs.denominator
        bit = 1 << (2 * d + j)
        new_cells: list[_Cell] = []
        for cell in cells:
            vals = []
            for k, (nums, den) in enumerate(cell.verts):
                s = q * sum(map(mul, a, nums)) - p * den
                if s == 0:
                    cell.tight[k] |= bit
                vals.append(s)
            if min(vals) < 0 < max(vals):
                new_cells.extend(_split_cell(cell, vals, bit, d))
            else:
                cell.signs.append(1 if max(vals) > 0 else -1)
                new_cells.append(cell)
        cells = new_cells
    return cells, sheets, runs


def _to_public(cells, sheets, d, gluing, region_count) -> CellComplex:
    """Build each wall, sheet side and distinct vertex once; cells share them."""
    walls = []
    for i in range(d):
        unit = tuple(Fraction(int(j == i)) for j in range(d))
        walls.append(LinConstraint(tuple(-x for x in unit), Fraction(0), "<="))
        walls.append(LinConstraint(unit, Fraction(1), "<="))
    sides = [
        {s: LinConstraint(tuple(Fraction(-s * x) for x in a), -s * rhs, "<") for s in (-1, 1)}
        for a, rhs in sheets
    ]
    distinct = {pt for cell in cells for pt in cell.verts}
    points = {pt: tuple(Fraction(v, pt[1]) for v in pt[0]) for pt in distinct}
    polys = []
    for cell in cells:
        used = 0
        for mask in cell.tight:
            used |= mask
        constraints = [con for i, con in enumerate(walls) if used >> i & 1]
        bounding = (cell.cut & used) >> 2 * d
        constraints += [sides[j][cell.signs[j]] for j in range(len(sheets)) if bounding >> j & 1]
        polys.append(HPolytope(tuple(constraints), d))
    return CellComplex(
        dim=d,
        sheets=tuple(sheets),
        cells=tuple(polys),
        sign_vectors=tuple(tuple(cell.signs) for cell in cells),
        cell_vertices=tuple(tuple(points[pt] for pt in cell.verts) for cell in cells),
        gluing=gluing,
        region_count=region_count,
    )


def _normal_basis(arr: Arrangement) -> tuple[IntVec, ...]:
    """Hermite basis of N Z^d, the lattice spanned by the normal matrix's columns."""
    return hermite_basis(zip(*(t.normal for t in arr.tori)))


def _group_cells(cells, arr: Arrangement, runs) -> tuple[tuple[int, ...], int]:
    """Each cell's region index, regions numbered in the order of their
    lowest-index cell, and the region count.

    A cell's key is its floor vector reduced modulo N Z^d; equal keys, same
    region. ``runs`` holds each subtorus's range in the sign vector, whose
    sheets ``_build`` emits in increasing offset, so coordinate t of the
    floor vector (less a constant) counts the +1 signs in run t.
    """
    basis = _normal_basis(arr)
    keys = [reduce_mod_lattice([c.signs[i:j].count(1) for i, j in runs], basis) for c in cells]
    index: dict[IntVec, int] = {}
    return tuple(index.setdefault(key, len(index)) for key in keys), len(index)


def build_cells(arr: Arrangement, max_sheets: int | None = None, glue: bool = False) -> CellComplex:
    """Decompose the fundamental cube along all lifted sheets.

    With ``glue=True`` the cells are grouped into torus regions as well and
    ``gluing`` / ``region_count`` are populated.
    """
    cells, sheets, runs = _build(arr, max_sheets)
    gluing, region_count = _group_cells(cells, arr, runs) if glue else (None, None)
    return _to_public(cells, sheets, arr.dim, gluing, region_count)


def _solution_box(cols, radices, step: int, den: int) -> list[list[int]]:
    """The solutions of A y = 0 (mod den), one list per coordinate.

    ``cols`` and ``radices`` are what ``nonsingular_subsets`` returns for A,
    and ``step`` = den / det A. The solutions are the sums of k_i step
    cols_i with 0 <= k_i < h_i, each listed once, reduced mod den: entry m
    of every list belongs to solution m. Given L cols_i in place of the
    cols_i, for an integer matrix L, the lists hold L y for the same
    solutions in the same order.
    """
    box = [[0]] * len(cols[0])
    for col, h in zip(cols, radices):
        if h > 1:
            box = [
                [(x + k * g) % den for k in range(h) for x in xs]
                for xs, g in zip(box, [step * y % den for y in col])
            ]
    return box


def count_regions(arr: Arrangement, max_sheets: int | None = None) -> int:
    """Number of connected components of the complement of the arrangement.

    Counted as the no-broken-circuit bases of the reduced, essential
    arrangement's intersection points, with no cells (see the module
    docstring).
    """
    _check_sheet_cap(arr, max_sheets)
    if not arr.tori:
        return 1
    basis = _normal_basis(arr)
    # Subtori are parallel exactly when their normals agree: no two are
    # opposite, since the a_t are sign-normalized. Activity follows the
    # order of the classes, here that of their first subtorus; any order
    # gives the same count. A class lists q c_t for its subtori t.
    q = math.lcm(*(t.offset.denominator for t in arr.tori))
    parallel: dict[IntVec, list[int]] = {}
    for a, t in zip(zip(*basis), arr.tori):
        parallel.setdefault(a, []).append(t.offset.numerator * (q // t.offset.denominator))
    reps = list(parallel)
    classes = list(parallel.values())
    n, f = len(reps), 0
    # In a last frame the set ending in class t has those spanned so far
    # and those after t active.
    for start, chosen, delta, radices, spanned, cols, (hs,) in _nonsingular_frames(
        reps, n, len(basis) - 1
    ):
        pick = [classes[c] for c in chosen]
        span = [(classes[c], pc) for c, pc in spanned]
        for t in range(start, n):
            i = t - start
            ht = hs[i]
            if not ht:
                span.append((classes[t], [s[i] for s in cols]))
                continue
            h = abs(ht)
            det = delta * h
            if not span and t == n - 1:
                f += det * math.prod(map(len, pick)) * len(classes[t])
                continue
            # m_c . G_i = +-det(A with row i set to m_c) is h P[c]_i -
            # P[t]_i u[c], or delta u[c] at i = r: P[c] is row c in cols and
            # u = sgn(ht) hs, 0 when c is spanned.
            pt = [s[i] for s in cols]
            # A subtorus of class c, offset c', hits when det q c' =
            # m_c . G (q c) mod step_c = q gcd(det, m_c . G); a test per active class.
            tests = []
            for cl, pc in span:
                g = [h * p for p in pc]
                g.append(0)
                step = q * math.gcd(det, *g)
                tests.append((cl, g, step, [det * qc % step for qc in cl]))
            for k, (cl, y) in enumerate(zip(classes[t + 1:], hs[i + 1:]), i + 1):
                y = y if ht > 0 else -y
                g = [h * s[k] - p * y for s, p in zip(cols, pt)]
                g.append(delta * y)
                step = q * math.gcd(det, *g)
                tests.append((cl, g, step, [det * qc % step for qc in cl]))
            lines = None
            for cs in itertools.product(*pick, classes[t]):
                # The subtori of one class are disjoint, so the hits of one
                # class remove step_c / q points each; a second hit class
                # ends the test, and the listing counts the union.
                lost = 0
                for _, g, step, res in tests:
                    k = res.count(sum(map(mul, g, cs)) % step)
                    if k:
                        if lost:
                            break
                        lost = k * step // q
                else:
                    f += det - lost
                    continue
                if lines is None:
                    _, minors, _, _ = zip(*tests)
                    lines = _solution_box(list(zip(*minors)), radices + (h,), q, q * det)
                hit: set[int] = set()
                for (offsets, g, _, _), line in zip(tests, lines):
                    b = sum(map(mul, g, cs))
                    for qc in offsets:
                        s = (det * qc - b) % (q * det)
                        if s in line:
                            hit.update(itertools.compress(range(det), map(s.__eq__, line)))
                f += det - len(hit)
    return f


def region_witnesses(arr: Arrangement, max_sheets: int | None = None) -> list[tuple[Fraction, ...]]:
    """One exact interior point per region, coordinates in [0, 1).

    The cells of ``build_cells(glue=True)`` and their region indices: the
    witness for a region is the vertex centroid of its lowest-index cell,
    the first whose index equals the number of witnesses so far, and lies
    strictly inside that open cell. Only those cells' points become
    fractions.
    """
    cells, _, runs = _build(arr, max_sheets)
    gluing, _ = _group_cells(cells, arr, runs)
    witnesses: list[tuple[Fraction, ...]] = []
    for cell, region in zip(cells, gluing):
        if region != len(witnesses):
            continue
        # Summed over one common denominator: one Fraction per coordinate.
        q = math.lcm(*(den for _, den in cell.verts))
        scale = [q // den for _, den in cell.verts]
        coords = zip(*(nums for nums, _ in cell.verts))
        witnesses.append(tuple(Fraction(sum(map(mul, xs, scale)), q * len(scale)) for xs in coords))
    return witnesses
