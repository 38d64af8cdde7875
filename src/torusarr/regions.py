"""Exact region counting for subtorus arrangements.

The complement of an arrangement is counted on the fundamental cube
[0, 1]^d. Every subtorus lifts to the finitely many parallel hyperplane
sheets that meet the cube; the cube is then split incrementally, sheet by
sheet, into open convex cells.

Regions are then identified algebraically. In R^d the complement of the
lifted arrangement falls into the convex cells
P_K = {x : floor(a_t . x - c_t) = K_t for every subtorus t}, and Z^d
acts on them by K -> K + N v, where N is the matrix whose rows are the
normals a_t. The torus regions are the orbits of this action. Every cube
cell lies in one P_K, and K_t is, up to a constant shift per subtorus,
the number of subtorus t's sheets on whose positive side the cell lies.
So a cell's key is its floor vector K reduced modulo the lattice N Z^d
(``torusarr.lattice.hermite_basis``), and cells lie in the same region
exactly when their keys agree. A subtorus x_i = 0 needs no special case:
all cube cells share its coordinate of K, so no translation with a
nonzero i-th component relates two of them.

Cells are tracked by their exact vertex sets (integer coordinate vectors
over a common denominator), which makes every split decision a matter of
evaluating signs of integer expressions: a sheet properly cuts a cell
exactly when its affine form takes both signs on the vertex set. New
vertices appear only on edges crossing the sheet and are recovered from
vertex pairs of opposite sign followed by an exact rank test, so no
floating point and no linear programming is needed anywhere in a count.

Determinism: subtori are processed in input order, sheets in increasing
offset; splitting emits the negative-side cell first. Rebuilding the same
arrangement yields bit-identical complexes, and regions are numbered in
the order of their lowest-index cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Imported but not called here: feasible and relative_dim_is are re-exported
# as part of this module's documented surface, and the benchmark's tracer
# (perfbench/spans.py) wraps hull_h, hulls_overlap_h, affine_rank and
# relative_dim_is by name in this module, so a missing name fails every
# traced op.
from ._geometry import affine_rank, hull_h, hulls_overlap_h, int_rank  # noqa: F401
from .arrangement import Arrangement, Subtorus, validate
from .errors import DimensionMismatch, ResourceCapError
from .feasibility import LinConstraint, feasible, relative_dim_is  # noqa: F401
from .lattice import IntVec, hermite_basis, reduce_mod_lattice

DEFAULT_MAX_SHEETS = 64


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


def lift_hyperplanes(s: Subtorus, d: int) -> list[tuple[IntVec, Fraction]]:
    """All lifts a . x = offset + k of the subtorus meeting the closed cube.

    k ranges over the integers for which the affine form's range over
    [0, 1]^d contains offset + k; the range endpoints are the sums of the
    negative and of the positive coefficients.
    """
    if s.dim != d:
        raise DimensionMismatch(f"subtorus lives in dimension {s.dim}, not {d}")
    lo = sum(min(x, 0) for x in s.normal)
    hi = sum(max(x, 0) for x in s.normal)
    kmin = math.ceil(lo - s.offset)
    kmax = math.floor(hi - s.offset)
    return [(s.normal, s.offset + k) for k in range(kmin, kmax + 1)]


# --------------------------------------------------------------------------
# Internal representation.
#
# Vertex: (nums, den) with den > 0 and gcd(*nums, den) = 1; coordinate k is
# nums[k] / den. Constraint: (a, p, q, wall) meaning a . x <= p/q with q > 0;
# its integer slack at a vertex is q * (a . nums) - p * den, which has the
# sign of (a . x - p/q).
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
    __slots__ = ("cons", "verts", "signs")

    def __init__(self, cons, verts, signs):
        self.cons = cons
        self.verts = verts
        self.signs = signs


def _slack(con, pt) -> int:
    a, p, q, _ = con
    nums, den = pt
    acc = 0
    for av, nv in zip(a, nums):
        if av:
            acc += av * nv
    return q * acc - p * den


def _make_cell(cons, candidates, signs, d) -> _Cell:
    """Filter candidate points down to the true vertex set and prune
    constraints that are nowhere tight on it."""
    seen = set()
    kept: list[tuple[tuple[int, ...], int]] = []
    kept_tight: list[list[int]] = []
    for pt in candidates:
        if pt in seen:
            continue
        seen.add(pt)
        tight = [ci for ci, con in enumerate(cons) if _slack(con, pt) == 0]
        if len(tight) < d:
            continue
        if int_rank([cons[ci][0] for ci in tight]) == d:
            kept.append(pt)
            kept_tight.append(tight)
    if len(kept) < d + 1:
        raise RuntimeError("internal: cell lost full dimension during split")
    used = set()
    for tight in kept_tight:
        used.update(tight)
    pruned = [con for ci, con in enumerate(cons) if ci in used]
    return _Cell(pruned, kept, signs)


def _split_cell(cell: _Cell, a, p, q, vals) -> tuple[_Cell, _Cell]:
    d = len(a)
    crosses: list[tuple[tuple[int, ...], int]] = []
    cross_seen = set()
    for (v, sv) in zip(cell.verts, vals):
        if sv <= 0:
            continue
        for (w, sw) in zip(cell.verts, vals):
            if sw >= 0:
                continue
            alpha, beta = v[1], w[1]
            t_num = sv * beta
            b_num = t_num - sw * alpha
            nums = [
                (b_num - t_num) * beta * nv + t_num * alpha * nw
                for nv, nw in zip(v[0], w[0])
            ]
            pt = _mk_point(nums, b_num * alpha * beta)
            if pt not in cross_seen:
                cross_seen.add(pt)
                crosses.append(pt)
    minus_cand = [v for v, s in zip(cell.verts, vals) if s <= 0] + crosses
    plus_cand = [v for v, s in zip(cell.verts, vals) if s >= 0] + crosses
    neg_a = tuple(-x for x in a)
    minus = _make_cell(cell.cons + [(a, p, q, False)], minus_cand, cell.signs + [-1], d)
    plus = _make_cell(cell.cons + [(neg_a, -p, q, False)], plus_cand, cell.signs + [1], d)
    return minus, plus


def _initial_cube(d: int) -> _Cell:
    cons = []
    for i in range(d):
        low = tuple(-1 if j == i else 0 for j in range(d))
        high = tuple(1 if j == i else 0 for j in range(d))
        cons.append((low, 0, 1, True))
        cons.append((high, 1, 1, True))
    verts = []
    for mask in range(1 << d):
        verts.append((tuple((mask >> j) & 1 for j in range(d)), 1))
    return _Cell(cons, verts, [])


def _collect_sheets(arr: Arrangement, max_sheets: int | None):
    cap = DEFAULT_MAX_SHEETS if max_sheets is None else max_sheets
    sheets: list[tuple[IntVec, Fraction]] = []
    for torus in arr.tori:
        sheets.extend(lift_hyperplanes(torus, arr.dim))
    if len(sheets) > cap:
        raise ResourceCapError(
            f"arrangement lifts to {len(sheets)} hyperplane sheets, exceeding the cap of "
            f"{cap}; raise the cap (TORUSARR_MAX_SHEETS / max_sheets) only if you accept "
            f"the cost"
        )
    return sheets


def _build(arr: Arrangement, max_sheets: int | None):
    validate(arr)
    d = arr.dim
    sheets = _collect_sheets(arr, max_sheets)
    cells = [_initial_cube(d)]
    for a, rhs in sheets:
        p, q = rhs.numerator, rhs.denominator
        con = (a, p, q, False)
        new_cells: list[_Cell] = []
        for cell in cells:
            has_neg = False
            has_pos = False
            vals = []
            for v in cell.verts:
                s = _slack(con, v)
                vals.append(s)
                if s < 0:
                    has_neg = True
                elif s > 0:
                    has_pos = True
            if has_neg and has_pos:
                minus, plus = _split_cell(cell, a, p, q, vals)
                new_cells.append(minus)
                new_cells.append(plus)
            else:
                cell.signs.append(1 if has_pos else -1)
                new_cells.append(cell)
        cells = new_cells
    return cells, sheets


def _to_public(cells, sheets, d, gluing, region_count) -> CellComplex:
    polys = []
    verts = []
    for cell in cells:
        constraints = tuple(
            LinConstraint(
                tuple(Fraction(x) for x in a),
                Fraction(p, q),
                "<=" if wall else "<",
            )
            for a, p, q, wall in cell.cons
        )
        polys.append(HPolytope(constraints, d))
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


def _region_keys(cells, arr: Arrangement) -> list[IntVec]:
    """Floor vector of every cell reduced modulo N Z^d; equal keys, same region.

    ``_collect_sheets`` emits each subtorus's sheets together in increasing
    offset, so coordinate t of the floor vector (less a constant) counts
    the +1 signs in subtorus t's run of the sign vector.
    """
    basis = hermite_basis(zip(*(t.normal for t in arr.tori)))
    runs = []
    start = 0
    for torus in arr.tori:
        stop = start + len(lift_hyperplanes(torus, arr.dim))
        runs.append((start, stop))
        start = stop
    return [
        reduce_mod_lattice([cell.signs[i:j].count(1) for i, j in runs], basis)
        for cell in cells
    ]


def build_cells(arr: Arrangement, max_sheets: int | None = None, glue: bool = False) -> CellComplex:
    """Decompose the fundamental cube along all lifted sheets.

    With ``glue=True`` the cells are grouped into torus regions as well and
    ``gluing`` / ``region_count`` are populated.
    """
    cells, sheets = _build(arr, max_sheets)
    if glue:
        index: dict[IntVec, int] = {}
        gluing = tuple(index.setdefault(k, len(index)) for k in _region_keys(cells, arr))
        return _to_public(cells, sheets, arr.dim, gluing, len(index))
    return _to_public(cells, sheets, arr.dim, None, None)


def count_regions(arr: Arrangement, max_sheets: int | None = None) -> int:
    """Number of connected components of the complement of the arrangement."""
    cells, _ = _build(arr, max_sheets)
    return len(set(_region_keys(cells, arr)))


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
    cells, _ = _build(arr, max_sheets)
    first: dict[IntVec, int] = {}
    for i, key in enumerate(_region_keys(cells, arr)):
        first.setdefault(key, i)
    return [_centroid(cells[i], arr.dim) for i in first.values()]
