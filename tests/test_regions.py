import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    euler_oracle_f,
    random_arrangement,
    random_primitive_vector,
    random_subtorus,
    random_unimodular,
)
from torusarr import regions
from torusarr.arrangement import Arrangement, Subtorus, subtorus_from_equation, transform, translate
from torusarr.cli import main
from torusarr.errors import DimensionMismatch, DuplicateSubtorus, InvalidParams, ResourceCapError
from torusarr.feasibility import LinConstraint
from torusarr.lattice import det_int, nonsingular_subsets
from torusarr.regions import (
    _solution_box,
    build_cells,
    count_regions,
    lift_hyperplanes,
    region_witnesses,
)

F = Fraction


def convex_hull(points):
    """Counter-clockwise hull of exact planar points (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def poly_area(points):
    hull = convex_hull(points)
    if len(hull) < 3:
        return F(0)
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]))
    return F(twice) / 2


class TestLiftHyperplanes:
    def test_single_interior_sheet(self):
        s = Subtorus((0, 1), F(1, 2))
        assert lift_hyperplanes(s, 2) == [((0, 1), F(1, 2))]

    def test_integer_offset_hits_both_walls(self):
        s = Subtorus((1, 0), F(0))
        assert lift_hyperplanes(s, 2) == [((1, 0), F(0)), ((1, 0), F(1))]

    def test_skew_normal_three_sheets(self):
        s = Subtorus((2, -1), F(1, 2))
        assert lift_hyperplanes(s, 2) == [
            ((2, -1), F(-1, 2)),
            ((2, -1), F(1, 2)),
            ((2, -1), F(3, 2)),
        ]

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            lift_hyperplanes(Subtorus((1, 0), F(0)), 3)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(any),
        st.integers(1, 10**18 + 10**3),
        st.integers(0, 10**19),
    )
    def test_exactly_the_sheets_meeting_the_cube(self, a, q, p):
        # Reference: every k with lo <= offset + k <= hi, in Fractions.
        s = subtorus_from_equation(a, F(p % q, q))
        lo = sum(min(x, 0) for x in s.normal)
        hi = sum(max(x, 0) for x in s.normal)
        start = math.floor(lo - s.offset)
        expected = [k for k in range(start, start + hi - lo + 2) if lo <= s.offset + k <= hi]
        assert lift_hyperplanes(s, len(a)) == [(s.normal, s.offset + k) for k in expected]
        # The cap check counts the same sheets in closed form.
        arr = Arrangement(len(a), (s,))
        regions._check_sheet_cap(arr, len(expected))
        with pytest.raises(ResourceCapError):
            regions._check_sheet_cap(arr, len(expected) - 1)


class TestBuildCells:
    def test_empty_arrangement(self):
        cc = build_cells(Arrangement(2, ()))
        assert len(cc.cells) == 1
        assert cc.sheets == ()
        assert cc.gluing is None and cc.region_count is None

    def test_one_vertical_line(self):
        cc = build_cells(Arrangement(2, (Subtorus((1, 0), F(1, 2)),)))
        assert len(cc.cells) == 2

    def test_skew_line_clips_corners(self):
        cc = build_cells(Arrangement(2, (Subtorus((2, -1), F(1, 2)),)))
        assert len(cc.cells) == 4

    def test_sign_vectors_distinct_and_aligned(self):
        rng = random.Random(31)
        for _ in range(10):
            arr = random_arrangement(rng, 2, rng.randint(1, 4))
            cc = build_cells(arr)
            assert len(set(cc.sign_vectors)) == len(cc.cells)
            assert all(len(sv) == len(cc.sheets) for sv in cc.sign_vectors)
            assert all(s in (-1, 1) for sv in cc.sign_vectors for s in sv)

    def test_cells_tile_the_square(self):
        rng = random.Random(32)
        for _ in range(8):
            arr = random_arrangement(rng, 2, rng.randint(0, 4))
            cc = build_cells(arr)
            total = sum(poly_area(vs) for vs in cc.cell_vertices)
            assert total == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_vertex_centroid_certifies_every_open_cell(self, d):
        # The vertex centroid of a public cell must satisfy its constraints
        # with every relation made strict and lie on the recorded side of
        # every sheet: an exact witness that the open cell is nonempty and
        # full-dimensional, and that its sign vector is right.
        rng = random.Random(33 + d)
        for _ in range(6):
            arr = random_arrangement(rng, d, rng.randint(1, 5 - d // 2), bound=3 if d <= 2 else 1)
            cc = build_cells(arr)
            for poly, signs, verts in zip(cc.cells, cc.sign_vectors, cc.cell_vertices):
                centroid = tuple(sum(v[k] for v in verts) / len(verts) for k in range(d))
                for c in poly.constraints:
                    assert LinConstraint(c.normal, c.rhs, "<").holds_at(centroid)
                for (normal, rhs), side in zip(cc.sheets, signs):
                    val = sum(a * x for a, x in zip(normal, centroid))
                    assert val != rhs
                    assert (1 if val > rhs else -1) == side

    def test_gluing_is_the_region_index_of_each_cell(self):
        # The cells left and right of x = 1/2 meet across the wall x = 0 = 1
        # unless the subtorus x = 0 sits on that wall.
        unblocked = build_cells(
            Arrangement(2, (Subtorus((1, 0), F(1, 4)), Subtorus((1, 0), F(1, 2)))), glue=True
        )
        assert unblocked.gluing == (0, 1, 0) and unblocked.region_count == 2
        blocked = build_cells(
            Arrangement(2, (Subtorus((1, 0), F(0)), Subtorus((1, 0), F(1, 2)))), glue=True
        )
        assert blocked.gluing == (0, 1) and blocked.region_count == 2

    def test_sheet_through_vertices_is_not_a_constraint(self):
        # x + y = 0 and x + y = 1 touch the lower-left cell only at its
        # vertices (0, 0) and (1/2, 1/2); neither bounds it.
        arr = Arrangement(
            2, (Subtorus((1, 0), F(1, 2)), Subtorus((0, 1), F(1, 2)), Subtorus((1, 1), F(0)))
        )
        cc = build_cells(arr)
        lower_left = ((F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2)))
        assert cc.cells[cc.cell_vertices.index(lower_left)].constraints == (
            LinConstraint((F(-1), F(0)), F(0), "<="),
            LinConstraint((F(0), F(-1)), F(0), "<="),
            LinConstraint((F(1), F(0)), F(1, 2), "<"),
            LinConstraint((F(0), F(1)), F(1, 2), "<"),
        )

    def test_wall_coincident_sheets_never_cut(self):
        arr = Arrangement(2, (Subtorus((1, 0), F(0)),))
        cc = build_cells(arr)
        assert len(cc.cells) == 1
        assert len(cc.sheets) == 2


class TestCountRegions:
    def test_single_subtorus_connected_complement(self):
        arr = Arrangement(3, (Subtorus((1, 0, 0), F(0)),))
        assert count_regions(arr) == 1

    def test_parallel_family_with_walls(self):
        arr = Arrangement(
            3,
            (
                Subtorus((1, 0, 0), F(0)),
                Subtorus((0, 1, 0), F(0)),
                Subtorus((0, 0, 1), F(1, 4)),
                Subtorus((0, 0, 1), F(1, 2)),
                Subtorus((0, 0, 1), F(3, 4)),
            ),
        )
        assert count_regions(arr) == 3

    def test_two_coordinate_subtori(self):
        arr = Arrangement(2, (Subtorus((1, 0), F(0)), Subtorus((0, 1), F(0))))
        assert count_regions(arr) == 1

    def test_one_skew_geodesic(self):
        arr = Arrangement(2, (Subtorus((2, -1), F(1, 2)),))
        assert count_regions(arr) == 1

    def test_vertical_pair_blocked_vs_unblocked(self):
        blocked = Arrangement(2, (Subtorus((1, 0), F(0)), Subtorus((1, 0), F(1, 2))))
        assert count_regions(blocked) == 2
        unblocked = Arrangement(2, (Subtorus((1, 0), F(1, 4)), Subtorus((1, 0), F(1, 2))))
        assert count_regions(unblocked) == 2

    def test_empty_arrangement(self):
        for d in range(1, 5):
            assert count_regions(Arrangement(d, ())) == 1

    def test_dimension_one(self):
        one = Arrangement(1, (Subtorus((1,), F(0)),))
        assert count_regions(one) == 1
        two = Arrangement(1, (Subtorus((1,), F(0)), Subtorus((1,), F(1, 2))))
        assert count_regions(two) == 2
        three = Arrangement(
            1,
            (Subtorus((1,), F(1, 4)), Subtorus((1,), F(1, 2)), Subtorus((1,), F(3, 4))),
        )
        assert count_regions(three) == 3
        rng = random.Random(39)
        for n in range(1, 9):
            q = rng.randint(n, 3 * n)
            arr = Arrangement(1, tuple(Subtorus((1,), F(p, q)) for p in rng.sample(range(q), n)))
            assert count_regions(arr) == n

    def test_always_at_least_one_region(self):
        rng = random.Random(34)
        for _ in range(15):
            d = rng.choice([1, 2, 3])
            arr = random_arrangement(rng, d, rng.randint(0, 3))
            assert count_regions(arr) >= 1

    def test_single_random_subtorus_connected(self):
        rng = random.Random(35)
        for _ in range(15):
            d = rng.choice([2, 3])
            arr = Arrangement(d, (random_subtorus(rng, d),))
            assert count_regions(arr) == 1

    def test_duplicate_rejected(self):
        # An invalid arrangement cannot be built, so it never reaches a count.
        with pytest.raises(DuplicateSubtorus, match=r"^subtori 1 and 2 are identical"):
            Arrangement(2, (Subtorus((1, 0), F(0)), Subtorus((1, 0), F(0))))

    def test_validation_before_the_sheet_cap(self):
        # The checks run when the arrangement is built, so they precede the
        # sheet cap of any count, whatever cap the count is given.
        with pytest.raises(DuplicateSubtorus, match=r"^subtori 1 and 2 are identical"):
            Arrangement(2, (Subtorus((3, -2), F(1, 2)), Subtorus((3, -2), F(1, 2))))
        with pytest.raises(DimensionMismatch, match=r"^subtorus 1 has dimension 2"):
            Arrangement(3, (Subtorus((1, 0), F(0)),))

    def test_matches_independent_euler_oracle(self):
        rng = random.Random(36)
        checked = 0
        while checked < 12:
            arr = random_arrangement(rng, 2, rng.randint(2, 5))
            if len({t.normal for t in arr.tori}) < 2:
                continue
            expected = euler_oracle_f(arr)
            if expected is None:
                continue
            assert count_regions(arr) == expected
            checked += 1

    def test_random_input_in_dimension_5_is_fast(self):
        # 14 subtori of T^5 with offset denominators up to 8: the lcm of
        # all the bases' determinants times that of the denominators has
        # 1052 bits, while each basis's own Q det stays small. The count
        # is pinned to the one a common modulus for all bases gave.
        arr = random_arrangement(random.Random(1), 5, 14)
        start = time.perf_counter()
        assert count_regions(arr, max_sheets=10**6) == 618479
        assert time.perf_counter() - start < 2


def _through_origin(normals):
    return Arrangement(len(normals[0]), tuple(subtorus_from_equation(a, 0) for a in normals))


def _assert_count_in_every_order(tori, f):
    # Activity follows the order of the classes: the count must not.
    d = len(tori[0][0])
    arr = Arrangement(d, tuple(subtorus_from_equation(a, c) for a, c in tori))
    assert build_cells(arr, glue=True).region_count == f
    for order in itertools.permutations(arr.tori):
        assert count_regions(Arrangement(d, order)) == f


class TestVertexSum:
    def test_count_builds_no_cells(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("count_regions built cells")

        monkeypatch.setattr(regions, "_build", no_cells)
        rng = random.Random(41)
        for _ in range(20):
            d = rng.choice([1, 2, 3, 4])
            arr = random_arrangement(rng, d, rng.randint(0, 4), bound=2)
            count_regions(arr, max_sheets=10**6)
        with pytest.raises(AssertionError):
            build_cells(arr)

    def test_k_lines_through_a_point_of_the_plane(self):
        # The origin contributes k - 1; the other crossings of the k lines
        # contribute 1 each.
        lines = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2)]
        counts = []
        for k in range(2, len(lines) + 1):
            arr = _through_origin(lines[:k])
            counts.append(count_regions(arr))
            assert counts[-1] == build_cells(arr, glue=True).region_count
        assert counts == [1, 2, 4, 8, 12, 22]

    def test_four_generic_planes_through_a_point(self):
        # Every triple has |det| 1, so the origin is the only point and
        # contributes 3.
        arr = _through_origin([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert count_regions(arr) == build_cells(arr, glue=True).region_count == 3

    def test_three_planes_on_a_line_and_a_fourth(self):
        # The line's flat has mu = 2 and every other line mu = 1, so the
        # origin contributes -(1 - 4 + 2 + 3) = 2.
        arr = _through_origin([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        assert count_regions(arr) == build_cells(arr, glue=True).region_count == 2

    def test_parallel_subtori_of_an_active_class_hit_different_points(self):
        # In the orders where x = 0 and x = 1/2 follow x + y = 0 and
        # x - y = 0, their class is active for that basis, whose two points
        # (0, 0) and (1/2, 1/2) each lie on one of them.
        tori = [((1, 0), 0), ((1, 0), F(1, 2)), ((1, 1), 0), ((1, -1), 0)]
        _assert_count_in_every_order(tori, 4)

    def test_hits_in_one_class_are_counted_without_the_listing(self, monkeypatch):
        # The gcd test decides every choice whose hits lie in one active
        # class: a random d=3 input, and x = 0 and x = 1/2 each hitting one
        # of the two points of x + y = x - y = 0, in every order.
        def no_listing(*args):
            raise AssertionError("count_regions listed a basis's points")

        monkeypatch.setattr(regions, "_solution_box", no_listing)
        arr = random_arrangement(random.Random(0), 3, 6)
        assert count_regions(arr) == build_cells(arr, glue=True).region_count == 133
        tori = [((1, 0), 0), ((1, 0), F(1, 2)), ((1, 1), 0), ((1, -1), 0)]
        _assert_count_in_every_order(tori, 4)

    def test_hits_in_two_classes_fall_back_to_the_listing(self, monkeypatch):
        # For the basis x, y the classes x + y and x - y are active, and
        # both pass through its one point, the origin.
        listed = []

        def listing(*args):
            listed.append(args)
            return _solution_box(*args)

        monkeypatch.setattr(regions, "_solution_box", listing)
        assert count_regions(_through_origin([(1, 0), (0, 1), (1, 1), (1, -1)])) == 4
        assert listed

    def test_spanned_rows_carried_through_an_inner_frame(self, monkeypatch):
        # Four subtori through the origin of the (x1, x2) plane, x3 = 1/3
        # and x3 + x4 = 1/2 in T^4. Two of the first four span the other
        # two, so frames of depth 2 and 3 carry spanned rows, and in every
        # order some basis has two active classes through one point.
        listed = []

        def listing(*args):
            listed.append(args)
            return _solution_box(*args)

        monkeypatch.setattr(regions, "_solution_box", listing)
        tori = [
            ((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((1, 1, 0, 0), 0), ((1, -1, 0, 0), 0),
            ((0, 0, 1, 0), F(1, 3)), ((0, 0, 1, 1), F(1, 2)),
        ]
        arr = Arrangement(4, tuple(subtorus_from_equation(a, c) for a, c in tori))
        assert build_cells(arr, glue=True).region_count == 4
        for order in itertools.permutations(arr.tori):
            listed.clear()
            assert count_regions(Arrangement(4, order)) == 4
            assert listed

    def test_pinned_degenerate_corpus(self):
        # 3000 small degenerate inputs: normals in {-2..2}^d, offsets of
        # denominator at most 4. The sum, the number of distinct counts and
        # a digest of the counts in draw order pin every count.
        rng = random.Random(2026)
        counts = []
        for _ in range(3000):
            d = rng.choice((2, 3, 4))
            n = rng.randint(1, 9)
            counts.append(count_regions(random_arrangement(rng, d, n, bound=2, max_den=4)))
        digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]
        assert (sum(counts), len(set(counts)), digest) == (366012, 549, "fc06a1b410af0a78")

    def test_pinned_parallel_classes_corpus(self):
        # 400 inputs with normals in {-1..1}^d and offsets of denominator at
        # most 6: several parallel subtori per class, and choices with hits
        # in two classes that reach the listing. Pinned as above.
        rng = random.Random(2027)
        counts = []
        for _ in range(400):
            d = rng.choice((3, 4, 5))
            n = rng.randint(6, 10)
            counts.append(count_regions(random_arrangement(rng, d, n, bound=1, max_den=6)))
        digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]
        assert (sum(counts), len(set(counts)), digest) == (57317, 203, "1a8285aaa763c45c")

    def test_several_choices_of_subtori_for_one_basis(self):
        # The basis x, y has four choices of one subtorus each; in the orders
        # where x + y = 0 and x + y = 1/2 follow both, they cover (0, 0) and
        # (1/2, 0) of them.
        tori = [
            ((1, 1), 0), ((1, 1), F(1, 2)), ((1, 0), 0), ((1, 0), F(1, 2)),
            ((0, 1), 0), ((0, 1), F(1, 3)),
        ]
        _assert_count_in_every_order(tori, 10)

    def test_local_terms_in_a_count(self):
        # Four lines through the origin of T^2: the origin contributes 3,
        # and x + y = 0 and x - y = 0 cross once more, at (1/2, 1/2).
        arr = _through_origin([(1, 0), (0, 1), (1, 1), (1, -1)])
        assert count_regions(arr) == build_cells(arr, glue=True).region_count == 4

    def test_nineteen_subtori_through_one_point(self):
        # The 19 primitive normals of T^3 of smallest l1 norm (the first
        # six of l1 norm 3 with an entry 2), all through the origin: 64
        # sheets. A local term summed over all 2^19 subsets of the normals
        # at the origin would take tens of seconds here.
        normals = sorted(
            {subtorus_from_equation(v, 0).normal for v in itertools.product(range(-2, 3), repeat=3) if any(v)},
            key=lambda a: (sum(map(abs, a)), max(map(abs, a)), a),
        )[:19]
        arr = _through_origin(normals)
        assert sum(len(lift_hyperplanes(t, 3)) for t in arr.tori) == 64
        start = time.perf_counter()
        f = count_regions(arr)
        assert time.perf_counter() - start < 5
        assert f == 500 == build_cells(arr, glue=True).region_count

    def test_distinct_denominators_near_10_18(self):
        # Six subtori of T^3 whose offsets have six distinct denominators
        # in [10^18, 10^18 + 1000], so the points' common denominator has
        # 360 bits; normal triples have |det| 1, 2, 3 and 5.
        rng = random.Random(71)
        normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 1), (0, 1, 2)]
        dens = rng.sample(range(10**18, 10**18 + 1001), 6)
        tori = [subtorus_from_equation(a, F(rng.randrange(q), q)) for a, q in zip(normals, dens)]
        arr = Arrangement(3, tuple(tori))
        assert count_regions(arr) == build_cells(arr, glue=True).region_count == 29

    def test_degenerate_random_input_in_dimension_4_is_fast(self):
        # 16 subtori with normals in {-1, 0, 1}^4 and offsets of
        # denominator at most 4 meet in 914 points, 271 of them on more
        # than four subtori; the count is pinned to the one a Moebius
        # recursion over each point's flats gave.
        arr = random_arrangement(random.Random(1), 4, 16, bound=1, max_den=4)
        start = time.perf_counter()
        assert count_regions(arr, max_sheets=10**6) == 1820
        assert time.perf_counter() - start < 2

    def test_many_parallel_subtori_beyond_the_sheet_cap(self):
        # 100 parallel subtori and two more: of the 171700 triples only the
        # 100 with one normal each are independent, and they share one
        # adjugate, so the count must not try the triples one by one.
        tori = tuple(Subtorus((1, 0, 0), F(k, 200)) for k in range(100))
        arr = Arrangement(3, tori + (Subtorus((0, 1, 0), F(0)), Subtorus((0, 0, 1), F(1, 3))))
        start = time.perf_counter()
        assert count_regions(arr, max_sheets=10**6) == 100
        assert time.perf_counter() - start < 1


class TestSolutionBox:
    def test_worked_example(self):
        # x + y = x - y = 0 (mod 1) at 0 and (1/2, 1/2); times 4, mod 4.
        [(_, cols, det, radices, _)] = nonsingular_subsets([(1, 1), (1, -1)])
        assert _solution_box(cols, radices, 4 // det, 4) == [[0, 2], [0, 2]]

    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=r, max_size=r
            )
        ),
        st.integers(1, 3),
    )
    def test_lists_every_solution_once(self, rows, scale):
        # The box of a nonsingular A lists |det A| distinct residues mod D,
        # and each one solves A y = 0 (mod D).
        det = abs(det_int(rows))
        assume(0 < det <= 200)
        modulus = det * scale
        [(_, cols, d, radices, _)] = nonsingular_subsets(rows)
        box = _solution_box(cols, radices, modulus // d, modulus)
        points = [tuple(x % modulus for x in y) for y in zip(*box)]
        assert len(set(points)) == len(points) == det
        for y in points:
            assert all(sum(a * x for a, x in zip(row, y)) % modulus == 0 for row in rows)


class TestResourceCap:
    def test_cap_triggers(self):
        arr = Arrangement(2, (Subtorus((3, -2), F(1, 2)),))
        with pytest.raises(ResourceCapError):
            count_regions(arr, max_sheets=3)
        assert count_regions(arr, max_sheets=6) == 1

    def test_count_checks_the_cap_without_lifting(self, monkeypatch):
        def no_lifting(*args):
            raise AssertionError("count_regions lifted sheets")

        monkeypatch.setattr(regions, "lift_hyperplanes", no_lifting)
        # 3x - 2y = 1/2 + k meets the square for k = -2..2.
        arr = Arrangement(2, (Subtorus((3, -2), F(1, 2)), Subtorus((1, 0), F(0))))
        assert count_regions(arr, max_sheets=7) == 2
        with pytest.raises(ResourceCapError) as raised:
            count_regions(arr, max_sheets=6)
        assert str(raised.value) == (
            "arrangement lifts to 7 hyperplane sheets, exceeding the cap of 6; raise the cap "
            "(TORUSARR_MAX_SHEETS / max_sheets) only if you accept the cost"
        )
        with pytest.raises(InvalidParams):
            count_regions(arr, max_sheets=-1)
        with pytest.raises(AssertionError):
            build_cells(arr)

    def test_witnesses_enforce_the_same_cap(self):
        # 3x - 2y = 1/2 lifts to 5 sheets and x = 0 to 2.
        arr = Arrangement(2, (Subtorus((3, -2), F(1, 2)), Subtorus((1, 0), F(0))))
        for route in (count_regions, region_witnesses):
            for cap in range(7):
                with pytest.raises(ResourceCapError):
                    route(arr, max_sheets=cap)
            route(arr, max_sheets=7)
            with pytest.raises(InvalidParams):
                route(arr, max_sheets=-1)

    def test_negative_cap_rejected(self):
        for d in range(1, 5):
            with pytest.raises(InvalidParams):
                count_regions(Arrangement(d, ()), max_sheets=-1)

    def test_non_integer_cap_rejected(self):
        arr = Arrangement(2, (Subtorus((1, 0), F(1, 2)),))
        for cap in (True, 2.5, "3"):
            for route in (count_regions, region_witnesses):
                with pytest.raises(InvalidParams):
                    route(arr, max_sheets=cap)
        assert count_regions(arr, max_sheets=None) == 1

    def test_default_cap_is_64(self):
        tori = tuple(
            Subtorus((1, 0), F(k, 65)) for k in range(65)
        )
        with pytest.raises(ResourceCapError):
            count_regions(Arrangement(2, tori))

    def test_cells_refuse_dimensions_above_the_limit(self):
        # The empty arrangement passes any sheet cap, but its cube alone
        # has 2^d vertices; the vertex sum has no such limit.
        d = regions.MAX_CELL_DIM + 1
        for route in (build_cells, region_witnesses):
            with pytest.raises(ResourceCapError, match=f"dimension d = {d} "):
                route(Arrangement(d, ()))
        assert count_regions(Arrangement(d, ())) == 1

    def test_cli_refuses_witnesses_in_dimension_40_at_once(self, tmp_path, capsys):
        path = tmp_path / "dim40.tarr"
        path.write_text("dim 40\n")
        start = time.perf_counter()
        assert main(["count", str(path), "--witnesses"]) == 3
        assert time.perf_counter() - start < 1
        assert "dimension d = 40" in capsys.readouterr().err
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr().out == "f = 1\n"


class TestWitnesses:
    def test_empty_arrangement_center(self):
        assert region_witnesses(Arrangement(2, ())) == [(F(1, 2), F(1, 2))]

    def test_line_glues_to_one_witness(self):
        arr = Arrangement(2, (Subtorus((1, 0), F(1, 2)),))
        ws = region_witnesses(arr)
        assert len(ws) == 1

    def test_count_matches_and_points_interior(self):
        rng = random.Random(37)
        for _ in range(10):
            d = rng.choice([1, 2, 3])
            arr = random_arrangement(rng, d, rng.randint(0, 3))
            f = count_regions(arr)
            ws = region_witnesses(arr)
            assert len(ws) == f
            for w in ws:
                assert all(0 <= x < 1 for x in w)
                for torus in arr.tori:
                    val = sum(F(a) * x for a, x in zip(torus.normal, w))
                    assert (val - torus.offset) % 1 != 0


class TestDeterminism:
    def test_rebuild_bit_identical(self):
        rng = random.Random(38)
        for _ in range(5):
            arr = random_arrangement(rng, 2, rng.randint(1, 4))
            a = build_cells(arr, glue=True)
            b = build_cells(arr, glue=True)
            assert a.sign_vectors == b.sign_vectors
            assert a.cell_vertices == b.cell_vertices
            assert a.region_count == b.region_count
            assert region_witnesses(arr) == region_witnesses(arr)

    def test_golden_complex(self):
        arr = Arrangement(2, (Subtorus((2, -1), F(1, 2)), Subtorus((0, 1), F(1, 3))))
        cc = build_cells(arr, glue=True)
        assert len(cc.cells) == 7
        assert cc.region_count == 2
        assert cc.sheets == (
            ((2, -1), F(-1, 2)),
            ((2, -1), F(1, 2)),
            ((2, -1), F(3, 2)),
            ((0, 1), F(1, 3)),
        )
        assert cc.sign_vectors == (
            (-1, -1, -1, 1),
            (1, -1, -1, -1),
            (1, -1, -1, 1),
            (1, 1, -1, -1),
            (1, 1, -1, 1),
            (1, 1, 1, -1),
            (1, 1, 1, 1),
        )
        assert region_witnesses(arr) == [
            (F(1, 12), F(5, 6)),
            (F(17, 60), F(19, 30)),
        ]


def _distinct(count, make):
    tori = []
    while len(tori) < count:
        s = make()
        if s not in tori:
            tori.append(s)
    return tori


def _axis(d, i):
    return Subtorus(tuple(int(j == i) for j in range(d)), F(0))


def golden_arrangement(d, kind, seed):
    """Seeded arrangement in T^d of one degenerate kind.

    random: general random subtori. parallel: two or three parallel
    subtori plus random ones. coordinate: subtori x_i = 0 (sheets on
    cube walls) for between 1 and d - 1 axes, plus random subtori.
    nonessential: normals of rank d - 1. concurrent: three or four subtori
    through one point. bigden: offset denominators near 10**18, with an
    x_i = 0 subtorus half of the time.
    """
    rng = random.Random(1000 * d + seed)
    bound = 1 if d >= 4 else 2
    if kind == "random":
        n = rng.randint(2, max(5, d + 1))
        return random_arrangement(rng, d, n, bound=3 if d <= 3 else 1, max_den=8)
    if kind == "parallel":
        v = random_primitive_vector(rng, d, bound)
        tori = [subtorus_from_equation(v, F(k, 8)) for k in rng.sample(range(8), rng.randint(2, 3))]
        extra = random_arrangement(rng, d, rng.randint(1, 2), bound=bound, max_den=4).tori
        tori += [s for s in extra if s not in tori]
    elif kind == "coordinate":
        axes = rng.sample(range(d), rng.randint(1, d - 1))
        extra = random_arrangement(rng, d, rng.randint(1, 2), bound=bound, max_den=4).tori
        tori = [_axis(d, i) for i in axes]
        tori += [s for s in extra if s not in tori]
    elif kind == "nonessential":
        tori = _distinct(
            rng.randint(2, 4),
            lambda: subtorus_from_equation(
                random_primitive_vector(rng, d - 1, bound + 1) + (0,), F(rng.randint(0, 5), 6)
            ),
        )
    elif kind == "concurrent":
        point = [F(rng.randint(0, 3), 4) for _ in range(d)]

        def through_point():
            v = random_primitive_vector(rng, d, bound)
            return subtorus_from_equation(v, sum(a * x for a, x in zip(v, point)))

        tori = _distinct(rng.randint(3, 4), through_point)
    else:  # bigden

        def big_denominator():
            q = rng.randint(10**17, 10**18)
            return subtorus_from_equation(random_primitive_vector(rng, d, bound), F(rng.randrange(q), q))

        tori = _distinct(rng.randint(2, 4), big_denominator)
        if rng.random() < 0.5:
            tori.append(_axis(d, rng.randrange(d)))
    return Arrangement(d, tuple(tori))


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def witness_digest(witnesses) -> str:
    text = ";".join(",".join(_q(x) for x in w) for w in witnesses)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def complex_digest(cc) -> str:
    """Digest of the sheets and of every cell's constraints, vertices and signs, in order."""
    parts = [";".join(",".join(map(str, a)) + ":" + _q(rhs) for a, rhs in cc.sheets)]
    for poly, verts, signs in zip(cc.cells, cc.cell_vertices, cc.sign_vectors):
        cons = ";".join(
            ",".join(map(_q, c.normal)) + c.relation + _q(c.rhs) for c in poly.constraints
        )
        pts = ";".join(",".join(map(_q, v)) for v in verts)
        parts.append(cons + "|" + pts + "|" + ",".join(map(str, signs)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


# (d, kind, seed) -> (f, witness_digest(region_witnesses(arr)),
# complex_digest(build_cells(arr))). f and the witness digest were recorded
# with the facet-gluing counter that lattice keys replaced: interval tests
# in d = 2, polygon clipping in d = 3 and one exact LP per facet pair in
# d >= 4. The complex digest was recorded with the cube splitter that
# filtered crossing candidates by slack and an integer rank test. Seeds are
# 0 and 1 for d <= 3; for d >= 4 they are the first two seeds of each kind
# whose unglued complex has at most 40 cells, so that the LP route could
# record them in minutes.
GOLDEN_REGIONS = {
    (2, "random", 0): (26, "62a3205ce3752c68", "256d4185cd715d59"),
    (2, "random", 1): (7, "f76fa4ac1c320823", "e257911a6dd7907d"),
    (2, "parallel", 0): (3, "9e69230f1b261866", "9ae608ca36f36ab1"),
    (2, "parallel", 1): (3, "0a4124401c219811", "e849cf0f652eb149"),
    (2, "coordinate", 0): (3, "222069473f29d3b9", "b92c54b35d9907f9"),
    (2, "coordinate", 1): (1, "175cccfd67b25049", "b0afefc8ba025b27"),
    (2, "nonessential", 0): (3, "df4735566c40d0c9", "ee52981b00aba0af"),
    (2, "nonessential", 1): (4, "c8310afa58570745", "010dccc20da85a64"),
    (2, "concurrent", 0): (6, "16acfa2e82ba5e67", "b3346acedcfce6f6"),
    (2, "concurrent", 1): (3, "85cd0f574d979e40", "689842301e7740ec"),
    (2, "bigden", 0): (2, "9e27d68b7cc4559d", "38e686979b5a3904"),
    (2, "bigden", 1): (15, "b973bcf7744e01dc", "93f415414c7db346"),
    (3, "random", 0): (7, "f76df42575a49634", "022268d4161c20be"),
    (3, "random", 1): (22, "f0a4a621e2960e9b", "794125af9c2c9701"),
    (3, "parallel", 0): (3, "4c327dc6af2ec1c6", "5c61c4c18c0436a0"),
    (3, "parallel", 1): (3, "fa6524eefa6adfb9", "5736b8d36f1e8450"),
    (3, "coordinate", 0): (1, "98c227fca269227f", "239704ef0b3dd7e5"),
    (3, "coordinate", 1): (2, "979caa1036b3d6a5", "cd85c35b61d91f5a"),
    (3, "nonessential", 0): (17, "b8ec1e959af54c02", "a52ce02c13fd2120"),
    (3, "nonessential", 1): (8, "3d4a460da7eabd81", "152111045255cfce"),
    (3, "concurrent", 0): (7, "1016da7281fb3ca8", "df308c865b20d4fd"),
    (3, "concurrent", 1): (6, "151b070a9d6b2cab", "c9d6784de2f7b5b4"),
    (3, "bigden", 0): (14, "96518c73a4502341", "7976523f383203d8"),
    (3, "bigden", 1): (2, "719772b34b8a1b16", "3ad191d390902a18"),
    (4, "random", 3): (2, "67334a77639a713e", "6ec0d2e7cac8db76"),
    (4, "random", 5): (1, "c6b593af5d9b0245", "b3b5019959f4e71d"),
    (4, "parallel", 0): (2, "de342168af09ce56", "02a57a489ca460b7"),
    (4, "parallel", 1): (2, "da9e0a9d79752d72", "a4606d9bd5b6ca6f"),
    (4, "coordinate", 0): (1, "bccee3797b475d4f", "3cf5214c8664946b"),
    (4, "coordinate", 1): (1, "963acc4d63a628d9", "1064c57b97509428"),
    (4, "nonessential", 0): (1, "32659798211d49d4", "d2d989564ea7bac2"),
    (4, "nonessential", 1): (3, "b502e6d51c52efa3", "961060ce27d47800"),
    (4, "concurrent", 0): (1, "e9afa6376b189c97", "95bf36decda02a30"),
    (4, "concurrent", 1): (2, "b81191e1714d7166", "fbecd4e3c7dd1bbb"),
    (4, "bigden", 0): (2, "f51b95bed3950338", "3299f18d49168301"),
    (4, "bigden", 1): (3, "c5cd79bdc48f1e69", "b91029c453deb2e2"),
    (5, "random", 0): (2, "5db1e2d3c2d23bb1", "db450f0e1717cccb"),
    (5, "random", 3): (1, "d2a2c231d134558f", "926b3e528e1dbe3b"),
    (5, "parallel", 1): (2, "797691bae16704ef", "8405b1bc6181c696"),
    (5, "parallel", 2): (3, "f1ea160bcd085c24", "a3214ea9a60f5f6b"),
    (5, "coordinate", 0): (1, "3f5ba4c7ee3dc22f", "2043ad3356c0f311"),
    (5, "coordinate", 1): (1, "cd66978f43b503ef", "be73f4216463c45c"),
    (5, "nonessential", 0): (1, "2be20b2967882b09", "69997f16043418a6"),
    (5, "nonessential", 3): (1, "3d30672ec72900df", "85095e977a4cdf83"),
    (5, "concurrent", 1): (1, "6d91a63a19d866ca", "aaa03d55175ecb50"),
    (5, "concurrent", 7): (1, "b37475d07a11df01", "0a00751985fbe7a6"),
    (5, "bigden", 0): (1, "9114407f2b91d3cb", "8e52c782b4faa704"),
    (5, "bigden", 3): (1, "20bbf3509c69afab", "d0a560c096fe3376"),
}


class TestGoldenRegions:
    @pytest.mark.parametrize("case", list(GOLDEN_REGIONS), ids=lambda c: "%d-%s-%d" % c)
    def test_count_and_witnesses_match_recorded_values(self, case):
        arr = golden_arrangement(*case)
        f, digest, cdigest = GOLDEN_REGIONS[case]
        witnesses = region_witnesses(arr)
        assert (len(witnesses), witness_digest(witnesses)) == (f, digest)
        assert count_regions(arr) == f
        cc = build_cells(arr, glue=True)
        assert complex_digest(cc) == cdigest
        assert cc.region_count == f and set(cc.gluing) == set(range(f))
        # Regions are numbered by their lowest-index cell, whose vertex
        # centroid is the region's witness.
        firsts = [cc.gluing.index(r) for r in range(f)]
        assert firsts == sorted(firsts)
        assert witnesses == [
            tuple(sum(v[k] for v in cc.cell_vertices[i]) / len(cc.cell_vertices[i]) for k in range(cc.dim))
            for i in firsts
        ]


class TestInvariance:
    def test_transform_and_translate_preserve_count(self):
        rng = random.Random(40)
        done = 0
        while done < 8:
            d = rng.choice([2, 3])
            arr = random_arrangement(rng, d, rng.randint(1, 3), bound=2)
            m = random_unimodular(rng, d)
            t = [F(rng.randint(0, 7), 8) for _ in range(d)]
            try:
                f = count_regions(arr)
                assert count_regions(transform(arr, m)) == f
            except ResourceCapError:
                continue
            assert count_regions(translate(arr, t)) == f
            done += 1


# Sheets allowed per dimension in the differential test, so that the cell
# route stays within about 0.1 s per example.
DIFFERENTIAL_MAX_SHEETS = {1: 10, 2: 24, 3: 24, 4: 14, 5: 12}


@st.composite
def degenerate_arrangements(draw):
    """An arrangement in T^1..T^5 with the degenerate features the flags
    force: several subtori through one point, normals of rank < d (last
    coordinate 0), subtori x_i = 0 and offset denominators near 10**18."""
    d = draw(st.integers(1, 5))
    bound = 2 if d <= 3 else 1
    deficient = d > 1 and draw(st.booleans())
    big = draw(st.booleans())
    free = d - 1 if deficient else d
    normals = st.lists(st.integers(-bound, bound), min_size=free, max_size=free).filter(any)

    def offset():
        if big:
            q = draw(st.integers(10**18 - 10**3, 10**18 + 10**3))
            return F(draw(st.integers(0, q - 1)), q)
        return F(draw(st.integers(0, 5)), 6)

    def subtorus(c=None):
        a = draw(normals) + [0] * (d - free)
        return subtorus_from_equation(a, offset() if c is None else c(a))

    tori = [subtorus() for _ in range(draw(st.integers(0, 3 if d <= 3 else 2)))]
    if d > 1 and draw(st.booleans()):
        point = [F(draw(st.integers(0, 3)), 4) for _ in range(d)]
        for _ in range(draw(st.integers(3, 4))):
            tori.append(subtorus(lambda a: sum(x * p for x, p in zip(a, point))))
    for i in draw(st.sets(st.integers(0, free - 1), max_size=2)):
        tori.append(_axis(d, i))
    tori = list(dict.fromkeys(tori))
    assume(sum(len(lift_hyperplanes(t, d)) for t in tori) <= DIFFERENTIAL_MAX_SHEETS[d])
    return Arrangement(d, tuple(tori))


class TestOrder:
    # The prefix tree, the radices and the box all follow the order of the
    # normals, so a count must not change when the subtori are permuted.
    @settings(max_examples=80, deadline=None)
    @given(degenerate_arrangements(), st.randoms(use_true_random=False))
    def test_permuting_degenerate_subtori(self, arr, rng):
        tori = list(arr.tori)
        rng.shuffle(tori)
        assert count_regions(Arrangement(arr.dim, tuple(tori))) == count_regions(arr)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 2**32))
    def test_permuting_random_subtori(self, d, n, seed):
        rng = random.Random(seed)
        arr = random_arrangement(rng, d, n, bound=2, max_den=6)
        f = count_regions(arr, max_sheets=10**6)
        for _ in range(3):
            tori = list(arr.tori)
            rng.shuffle(tori)
            assert count_regions(Arrangement(d, tuple(tori)), max_sheets=10**6) == f


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(degenerate_arrangements())
    def test_vertex_sum_equals_the_cell_count(self, arr):
        assert count_regions(arr) == build_cells(arr, glue=True).region_count

    @settings(max_examples=80, deadline=None)
    @given(degenerate_arrangements(), st.randoms(use_true_random=False), st.integers(1, 12))
    def test_count_invariant_under_transform_and_translate(self, arr, rng, q):
        # The vertex sum builds no cells, so the images may lift to any
        # number of sheets.
        f = count_regions(arr)
        m = random_unimodular(rng, arr.dim)
        assert count_regions(transform(arr, m), max_sheets=10**9) == f
        shift = [F(rng.randrange(q), q) for _ in range(arr.dim)]
        assert count_regions(translate(arr, shift)) == f
