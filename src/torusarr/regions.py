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
2012). A point on exactly r subtori contributes 1. The points come from
the r-subsets S with det A_S != 0 (A_S has rows m_t, t in S): they are
the |det A_S| solutions y = A_S^{-1} (c_S + k) mod Z^r, k in Z^r, and the
subtori through a point are the union of the subsets that yield it.
Parallel subtori share a normal, so they are listed in two passes. The
first (``torusarr.lattice.nonsingular_subsets``) finds every nonsingular
set of r distinct normals, in the order of the normals, with det > 0, G =
det A^{-1} and the radices h_1..h_r of A's lower-triangular Hermite form:
the sets form a tree of shared prefixes, each prefix is eliminated once
for all its extensions, and a singular prefix prunes its subtree. h_1 ...
h_i is the number of components of the intersection of the set's first i
subtori, so h_i is the ratio of that count to the count for the first
i - 1; h_1 = 1 since the m_t are primitive, and h_2 is the gcd of the 2 x
2 minors of the first two normals. With Q the lcm of all offset
denominators and D = Q lcm(det), every point is D y reduced mod D, a
tuple of residues that is equal for equal points, so no gcd normalises
it. The second pass lists, for each choice of one subtorus per normal,
e G (Q c) + (D / det) G k mod D with e = D / (Q det), for the det vectors
k of the mixed-radix box 0 <= k_i < h_i: the box holds one k per class
of Z^r / A Z^r, so it lists each point once with no membership test. The
box is built once per set of normals, one coordinate at a time. The local
term comes from the Moebius recursion over the flats of the point's
normals.

``build_cells`` and ``region_witnesses`` decompose the fundamental cube
[0, 1]^d. Every subtorus lifts to the finitely many parallel hyperplane
sheets that meet the cube; the cube is then split incrementally, sheet by
sheet, into open convex cells.

Regions are then identified algebraically. In R^d the complement of the
lifted arrangement falls into the convex cells
P_K = {x : floor(a_t . x - c_t) = K_t for every subtorus t}, and Z^d
acts on them by K -> K + N v. The torus regions are the orbits of this
action. Every cube cell lies in one P_K, and K_t is, up to a constant
shift per subtorus, the number of subtorus t's sheets on whose positive
side the cell lies. So a cell's key is its floor vector K reduced modulo
the lattice N Z^d (``torusarr.lattice.hermite_basis``), and cells lie in
the same region exactly when their keys agree. A subtorus x_i = 0 needs no
special case: all cube cells share its coordinate of K, so no translation
with a nonzero i-th component relates two of them.

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

from .arrangement import Arrangement, Subtorus, validate
from .errors import DimensionMismatch, InvalidParams, ResourceCapError
from .feasibility import LinConstraint
from .lattice import IntVec, hermite_basis, nonsingular_subsets, reduce_mod_lattice

DEFAULT_MAX_SHEETS = 64

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
    from ceil(lo - offset) to floor(hi - offset), computed in integers.
    """
    lo = sum(min(x, 0) for x in s.normal)
    hi = sum(max(x, 0) for x in s.normal)
    p, q = s.offset.numerator, s.offset.denominator
    return range(-((p - lo * q) // q), (hi * q - p) // q + 1)


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
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = math.gcd(den, *(abs(v) for v in nums))
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


def _point_fractions(pt) -> tuple[Fraction, ...]:
    nums, den = pt
    return tuple(Fraction(v, den) for v in nums)


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
            alpha, beta = v[1], w[1]
            t_num = sv * beta
            b_num = t_num - sw * alpha
            nums = [
                (b_num - t_num) * beta * nv + t_num * alpha * nw
                for nv, nw in zip(v[0], w[0])
            ]
            crosses.append(_mk_point(nums, b_num * alpha * beta))
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
    sheets; the sheets are counted, not lifted."""
    cap = DEFAULT_MAX_SHEETS if max_sheets is None else max_sheets
    if cap < 0:
        raise InvalidParams(f"the sheet cap must be non-negative, got {cap}")
    total = sum(len(_sheet_range(t)) for t in arr.tori)
    if total > cap:
        raise ResourceCapError(
            f"arrangement lifts to {total} hyperplane sheets, exceeding the cap of "
            f"{cap}; raise the cap (TORUSARR_MAX_SHEETS / max_sheets) only if you accept "
            f"the cost"
        )


def _collect_sheets(arr: Arrangement, max_sheets: int | None):
    """The lifted sheets, each subtorus's together in increasing offset, and
    the (start, stop) range of every subtorus's sheets in that list."""
    _check_sheet_cap(arr, max_sheets)
    sheets: list[tuple[IntVec, Fraction]] = []
    runs: list[tuple[int, int]] = []
    for torus in arr.tori:
        start = len(sheets)
        sheets.extend(lift_hyperplanes(torus, arr.dim))
        runs.append((start, len(sheets)))
    return sheets, runs


def _build(arr: Arrangement, max_sheets: int | None):
    validate(arr)
    d = arr.dim
    sheets, runs = _collect_sheets(arr, max_sheets)
    cells = [_initial_cube(d)]
    for j, (a, rhs) in enumerate(sheets):
        p, q = rhs.numerator, rhs.denominator
        bit = 1 << (2 * d + j)
        new_cells: list[_Cell] = []
        for cell in cells:
            vals = []
            for k, (nums, den) in enumerate(cell.verts):
                s = q * sum(av * nv for av, nv in zip(a, nums) if av) - p * den
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
    walls = []
    for i in range(d):
        unit = tuple(Fraction(int(j == i)) for j in range(d))
        walls.append(LinConstraint(tuple(-x for x in unit), Fraction(0), "<="))
        walls.append(LinConstraint(unit, Fraction(1), "<="))
    polys = []
    verts = []
    for cell in cells:
        used = 0
        for mask in cell.tight:
            used |= mask
        constraints = [con for i, con in enumerate(walls) if used >> i & 1]
        bounding = (cell.cut & used) >> 2 * d
        for j, (a, rhs) in enumerate(sheets):
            if bounding >> j & 1:
                side = cell.signs[j]
                constraints.append(
                    LinConstraint(tuple(Fraction(-side * x) for x in a), -side * rhs, "<")
                )
        polys.append(HPolytope(tuple(constraints), d))
        verts.append(tuple(_point_fractions(v) for v in cell.verts))
    return CellComplex(
        dim=d,
        sheets=tuple(sheets),
        cells=tuple(polys),
        sign_vectors=tuple(tuple(cell.signs) for cell in cells),
        cell_vertices=tuple(verts),
        gluing=gluing,
        region_count=region_count,
    )


def _normal_basis(arr: Arrangement) -> tuple[IntVec, ...]:
    """Hermite basis of N Z^d, the lattice spanned by the normal matrix's columns."""
    return hermite_basis(zip(*(t.normal for t in arr.tori)))


def _region_keys(cells, arr: Arrangement, runs) -> list[IntVec]:
    """Floor vector of every cell reduced modulo N Z^d; equal keys, same region.

    ``runs`` holds each subtorus's range in the sign vector, whose sheets
    ``_collect_sheets`` emits in increasing offset, so coordinate t of the
    floor vector (less a constant) counts the +1 signs in run t.
    """
    basis = _normal_basis(arr)
    return [
        reduce_mod_lattice([cell.signs[i:j].count(1) for i, j in runs], basis)
        for cell in cells
    ]


def build_cells(arr: Arrangement, max_sheets: int | None = None, glue: bool = False) -> CellComplex:
    """Decompose the fundamental cube along all lifted sheets.

    With ``glue=True`` the cells are grouped into torus regions as well and
    ``gluing`` / ``region_count`` are populated.
    """
    cells, sheets, runs = _build(arr, max_sheets)
    if glue:
        index: dict[IntVec, int] = {}
        gluing = tuple(index.setdefault(k, len(index)) for k in _region_keys(cells, arr, runs))
        return _to_public(cells, sheets, arr.dim, gluing, len(index))
    return _to_public(cells, sheets, arr.dim, None, None)


def _primitive(v: list[int]) -> IntVec:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _local_term(normals: tuple[IntVec, ...]) -> int:
    """|mu(0, 1)| of the central arrangement in R^r with these normals.

    The normals span R^r and no two are parallel. Flats are found rank by
    rank, each as the mask of the normals vanishing on it with an integer
    basis of its subspace X; the flat above it through hyperplane t is the
    intersection of X with t's hyperplane, and the flats above a flat
    partition the hyperplanes outside it. mu(0, X) is minus the sum of mu
    over the flats whose masks lie inside X's, and mu(0, 1) minus the sum
    over all flats below the point. Only the hyperplanes in ``rest``, those
    outside X and outside the flats above X found so far, can join a new
    flat above X.
    """
    r = len(normals[0])
    full = (1 << len(normals)) - 1
    mu = {0: 1}
    level = {0: [tuple(int(i == j) for j in range(r)) for i in range(r)]}
    for _ in range(r - 1):
        above: dict[int, list[IntVec]] = {}
        for mask, space in level.items():
            rest = full & ~mask
            while rest:
                t = (rest & -rest).bit_length() - 1
                vals = [sum(map(mul, normals[t], v)) for v in space]
                p = next(i for i, val in enumerate(vals) if val)
                sub = [
                    _primitive([vals[p] * x - val * y for x, y in zip(v, space[p])])
                    for i, (v, val) in enumerate(zip(space, vals))
                    if i != p
                ]
                flat = mask | 1 << t
                others = rest & ~flat
                while others:
                    s = (others & -others).bit_length() - 1
                    others &= others - 1
                    if not any(sum(map(mul, normals[s], v)) for v in sub):
                        flat |= 1 << s
                rest &= ~flat
                above.setdefault(flat, sub)
        for flat in above:
            mu[flat] = -sum(m for y, m in mu.items() if y & flat == y)
        level = above
    return abs(sum(mu.values()))


def _solution_box(cols, radices, step: int, den: int) -> list[list[int]]:
    """The solutions of A y = 0 (mod den), one list per coordinate.

    ``cols`` and ``radices`` are what ``nonsingular_subsets`` returns for A,
    and ``step`` = den / det A. The solutions are the sums of k_i step
    cols_i with 0 <= k_i < h_i, each listed once: entry m of every list
    belongs to solution m. Entries are congruent to the solutions mod den,
    not reduced.
    """
    box = [[0]] * len(cols)
    for col, h in zip(cols, radices):
        if h > 1:
            box = [
                [x + k * g for k in range(h) for x in xs]
                for xs, g in zip(box, [step * y % den for y in col])
            ]
    return box


def count_regions(arr: Arrangement, max_sheets: int | None = None) -> int:
    """Number of connected components of the complement of the arrangement.

    Counted by the vertex sum over the intersection points of the reduced,
    essential arrangement, with no cells (see the module docstring).
    """
    validate(arr)
    _check_sheet_cap(arr, max_sheets)
    if not arr.tori:
        return 1
    basis = _normal_basis(arr)
    r = len(basis)
    normals = list(zip(*basis))
    # Subtori are parallel exactly when their normals agree: no two are
    # opposite, since the a_t are sign-normalized.
    parallel: dict[IntVec, list[int]] = {}
    for t, a in enumerate(normals):
        parallel.setdefault(a, []).append(t)
    # First pass: every nonsingular set of r distinct normals, eliminated on
    # a tree of shared prefixes, with the columns of det A^{-1} and radices.
    reps = list(parallel)
    combos = nonsingular_subsets(reps)
    q = math.lcm(*(t.offset.denominator for t in arr.tori))
    den = q * math.lcm(*(det for _, _, det, _ in combos))
    qc = [t.offset.numerator * (q // t.offset.denominator) for t in arr.tori]
    # Second pass: each intersection point, as den times its coordinates
    # reduced mod den, and the mask of the subtori through it.
    through: dict[IntVec, int] = {}
    for chosen, cols, det, radices in combos:
        # den y = den A^{-1} (c + k) = e cols (q c) + (den / det) cols k with
        # e = den / (q det); the classes of k are the box 0 <= k_i < h_i,
        # listed one coordinate at a time.
        e = den // (q * det)
        box = _solution_box(cols, radices, den // det, den)
        rows = list(zip(*cols))
        for subset in itertools.product(*[parallel[reps[i]] for i in chosen]):
            cs = [e * qc[t] for t in subset]
            base = [sum(map(mul, row, cs)) for row in rows]
            mask = sum(1 << t for t in subset)
            for point in zip(*[[(b + x) % den for x in xs] for b, xs in zip(base, box)]):
                through[point] = through.get(point, 0) | mask
    local: dict[tuple[IntVec, ...], int] = {}
    f = 0
    for mask in through.values():
        if mask.bit_count() == r:
            f += 1
            continue
        key = tuple(normals[t] for t in range(arr.n) if mask >> t & 1)
        if key not in local:
            local[key] = _local_term(key)
        f += local[key]
    return f


def _centroid(cell: _Cell, d: int) -> tuple[Fraction, ...]:
    n = len(cell.verts)
    return tuple(
        sum(Fraction(v[0][k], v[1]) for v in cell.verts) / n for k in range(d)
    )


def region_witnesses(arr: Arrangement, max_sheets: int | None = None) -> list[tuple[Fraction, ...]]:
    """One exact interior point per region, coordinates in [0, 1).

    The witness for a region is the vertex centroid of its lowest-index
    cell, which lies strictly inside that open cell.
    """
    cells, _, runs = _build(arr, max_sheets)
    first: dict[IntVec, int] = {}
    for i, key in enumerate(_region_keys(cells, arr, runs)):
        first.setdefault(key, i)
    return [_centroid(cells[i], arr.dim) for i in first.values()]
