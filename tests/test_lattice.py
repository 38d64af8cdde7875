import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_primitive_vector, random_unimodular
from torusarr.errors import DimensionMismatch, InvalidInput, NonPrimitive
from torusarr.lattice import (
    as_intvec,
    bezout_chain,
    complete_to_unimodular,
    covector_times_matrix,
    det_int,
    gcd_vec,
    hermite_basis,
    hyperplane_metrics,
    is_unimodular,
    matmul_int,
    minors2_gcd,
    nonsingular_subsets,
    reduce_mod_lattice,
    xgcd,
)

int_vectors = st.lists(st.integers(-50, 50), min_size=1, max_size=6)


class TestGcdVec:
    def test_examples(self):
        assert gcd_vec((6, 10, 15)) == 1
        assert gcd_vec((0, 0, 0)) == 0
        assert gcd_vec((4, -6)) == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            gcd_vec(())

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInput):
            gcd_vec((1, Fraction(1, 2)))
        for bad in ((True, 1), (1.0,), (1, False)):
            with pytest.raises(InvalidInput):
                as_intvec(bad)

    @given(int_vectors)
    def test_divides_every_entry(self, v):
        g = gcd_vec(v)
        if g == 0:
            assert all(x == 0 for x in v)
        else:
            assert all(x % g == 0 for x in v)


class TestXgcd:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_identity(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestBezoutChain:
    def test_worked_example(self):
        ch = bezout_chain((6, 10, 15))
        assert ch.gcds == (2, 1)
        assert ch.coeffs[0] == (2, -1)
        assert 6 * 2 + 10 * (-1) == 2
        u = ch.coeffs[1]
        assert 6 * u[0] + 10 * u[1] + 15 * u[2] == 1
        ch.verify()

    def test_leading_one(self):
        ch = bezout_chain((1, 0, 0))
        assert ch.gcds == (1, 1)
        assert ch.coeffs == ((1, 0), (1, 0, 0))

    def test_two_entries(self):
        ch = bezout_chain((2, 3))
        assert ch.gcds == (1,)
        assert ch.coeffs[0] == (-1, 1)

    def test_verify_rejects_bad_certificate(self):
        ch = bezout_chain((6, 10, 15))
        bad = type(ch)(ch.vector, ch.gcds, ((1, 1),) + ch.coeffs[1:])
        with pytest.raises(InvalidInput):
            bad.verify()

    @given(int_vectors)
    def test_chain_invariants(self, v):
        ch = bezout_chain(v)
        prev = abs(v[0])
        for j, (g, u) in enumerate(zip(ch.gcds, ch.coeffs), start=1):
            assert g == math.gcd(*(abs(x) for x in v[: j + 1]))
            assert sum(a * c for a, c in zip(v, u)) == g
            if g:
                assert prev % g == 0
            prev = g
        ch.verify()


class TestDetInt:
    def test_small(self):
        assert det_int(((1, 0), (0, 1))) == 1
        assert det_int(((2, 3), (1, 2))) == 1
        assert det_int(((1, 2), (2, 4))) == 0
        assert det_int(((0, 1), (1, 0))) == -1

    def test_three_by_three(self):
        assert det_int(((2, 0, 1), (1, 1, 0), (3, 2, 1))) == 1

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            det_int(((1, 2, 3), (4, 5, 6)))


class TestCompleteToUnimodular:
    def test_coordinate_vector_gives_identity(self):
        assert complete_to_unimodular((1, 0)) == ((1, 0), (0, 1))

    def test_postcondition_2d(self):
        a = (2, 3)
        m = complete_to_unimodular(a)
        assert covector_times_matrix(a, m) == (1, 0)
        assert det_int(m) == 1

    def test_postcondition_3d(self):
        a = (6, 10, 15)
        m = complete_to_unimodular(a)
        assert covector_times_matrix(a, m) == (1, 0, 0)
        assert det_int(m) == 1

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitive):
            complete_to_unimodular((2, 4))

    def test_trailing_unit(self):
        # Every signed unit vector, including a lone -1 in position 0.
        for d in range(2, 6):
            for i in range(d):
                for s in (1, -1):
                    a = tuple(s * (j == i) for j in range(d))
                    m = complete_to_unimodular(a)
                    assert covector_times_matrix(a, m) == (1,) + (0,) * (d - 1)
                    assert det_int(m) == 1

    def test_dimension_one(self):
        assert complete_to_unimodular((1,)) == ((1,),)
        with pytest.raises(InvalidInput):
            complete_to_unimodular((-1,))

    def test_random_vectors(self):
        rng = random.Random(42)
        for _ in range(200):
            d = rng.randint(2, 6)
            a = random_primitive_vector(rng, d, 40)
            m = complete_to_unimodular(a)
            assert covector_times_matrix(a, m) == (1,) + (0,) * (d - 1)
            assert det_int(m) == 1


class TestHyperplaneMetrics:
    def test_coordinate_hyperplane(self):
        assert hyperplane_metrics((1, 0, 0)) == (Fraction(1), Fraction(1))

    def test_three_four(self):
        assert hyperplane_metrics((3, 4)) == (Fraction(1, 25), Fraction(25))

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitive):
            hyperplane_metrics((3, 6))

    @given(int_vectors.filter(lambda v: math.gcd(*(abs(x) for x in v)) == 1))
    def test_product_is_one(self, v):
        dist_sq, vol_sq = hyperplane_metrics(v)
        assert dist_sq * vol_sq == 1

    def test_brute_force_nearest_point(self):
        # Exhaustive nearest off-hyperplane lattice point inside the box
        # |x_i| <= sum(|a_i|); squared distance of x to the hyperplane
        # a . y = 0 is (a . x)^2 / S.
        import itertools

        rng = random.Random(5)
        vectors = []
        while len(vectors) < 12:
            d = rng.randint(2, 3)
            a = random_primitive_vector(rng, d, 3)
            vectors.append(a)
        for a in vectors:
            s = sum(x * x for x in a)
            reach = sum(abs(x) for x in a)
            best = None
            for x in itertools.product(range(-reach, reach + 1), repeat=len(a)):
                val = sum(ai * xi for ai, xi in zip(a, x))
                if val == 0:
                    continue
                cand = Fraction(val * val, s)
                if best is None or cand < best:
                    best = cand
            dist_sq, _ = hyperplane_metrics(a)
            assert dist_sq == best


class TestMinors2Gcd:
    def test_examples(self):
        assert minors2_gcd((1, 0, 0), (1, 2, 4)) == 2
        assert minors2_gcd((1, 0), (2, 0)) == 0
        assert minors2_gcd((2, 3), (4, 5)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minors2_gcd((1, 2), (1, 2, 3))
        with pytest.raises(DimensionMismatch):
            minors2_gcd((1,), (2,))

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(200):
            d = rng.randint(2, 5)
            a = tuple(rng.randint(-9, 9) for _ in range(d))
            b = tuple(rng.randint(-9, 9) for _ in range(d))
            assert minors2_gcd(a, b) == minors2_gcd(b, a)

    def test_invariance_under_shared_unimodular_action(self):
        rng = random.Random(2)
        for _ in range(150):
            d = rng.randint(2, 4)
            a = tuple(rng.randint(-6, 6) for _ in range(d))
            b = tuple(rng.randint(-6, 6) for _ in range(d))
            m = random_unimodular(rng, d, steps=5)
            assert is_unimodular(m)
            am = covector_times_matrix(a, m)
            bm = covector_times_matrix(b, m)
            assert minors2_gcd(a, b) == minors2_gcd(am, bm)


class TestMatrixHelpers:
    def test_matmul_and_unimodular(self):
        m1 = ((1, 1), (0, 1))
        m2 = ((1, 0), (1, 1))
        prod = matmul_int(m1, m2)
        assert prod == ((2, 1), (1, 1))
        assert is_unimodular(prod)
        assert not is_unimodular(((0, 1), (1, 0)))
        assert not is_unimodular(((1, 2, 3),))


@st.composite
def normals_and_shift(draw):
    """An n x d integer matrix N (rows are normals), a vector K in Z^n and v in Z^d."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=n, max_size=n))
    k = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    return rows, k, v


def columns(rows):
    return [tuple(c) for c in zip(*rows)]


class TestHermiteBasis:
    def test_worked_example(self):
        assert hermite_basis([(2, 4, 6), (1, 1, 1)]) == ((1, 1, 1), (0, 2, 4))
        assert hermite_basis([(6,), (10,), (15,)]) == ((1,),)
        assert hermite_basis([(0, 0), (0, 0)]) == ()
        assert hermite_basis([]) == ()

    def test_ragged_generators_rejected(self):
        with pytest.raises(DimensionMismatch):
            hermite_basis([(1, 2), (1, 2, 3)])

    @given(normals_and_shift())
    def test_echelon_positive_pivots_reduced_above(self, data):
        rows, _, _ = data
        basis = hermite_basis(columns(rows))
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots))
        assert len(basis) <= len(rows[0])
        for i, (b, p) in enumerate(zip(basis, pivots)):
            assert b[p] > 0
            for earlier in basis[:i]:
                assert 0 <= earlier[p] < b[p]

    @given(normals_and_shift())
    def test_depends_only_on_the_lattice(self, data):
        rows, _, _ = data
        gens = columns(rows)
        basis = hermite_basis(gens)
        assert hermite_basis(list(reversed(gens))) == basis
        assert hermite_basis(gens + list(basis)) == basis
        assert hermite_basis(basis) == basis

    @given(normals_and_shift())
    def test_every_generator_reduces_to_zero(self, data):
        rows, _, _ = data
        gens = columns(rows)
        basis = hermite_basis(gens)
        for g in gens:
            assert reduce_mod_lattice(g, basis) == (0,) * len(g)

    @given(normals_and_shift())
    def test_reduction_is_idempotent(self, data):
        rows, k, _ = data
        basis = hermite_basis(columns(rows))
        once = reduce_mod_lattice(k, basis)
        assert reduce_mod_lattice(once, basis) == once

    @given(normals_and_shift())
    def test_reduction_ignores_integer_translations(self, data):
        # K and K + N v are the floor vectors of a lifted cell and of its
        # translate by v in Z^d, so they must get the same key.
        rows, k, v = data
        basis = hermite_basis(columns(rows))
        shifted = [kt + sum(a * x for a, x in zip(row, v)) for kt, row in zip(k, rows)]
        assert reduce_mod_lattice(shifted, basis) == reduce_mod_lattice(k, basis)

    def test_reduction_separates_cosets(self):
        # N = (1, 1)^T: Z^2 / N Z has one class per value of K_2 - K_1.
        basis = hermite_basis([(1, 1)])
        keys = {reduce_mod_lattice((a, b), basis) for a in range(-3, 4) for b in range(-3, 4)}
        assert keys == {(0, b) for b in range(-6, 7)}


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g else [1] + row[1:]


@st.composite
def primitive_square_matrices(draw):
    """An r x r integer matrix with primitive rows, r <= 5; with some
    probability its last row is a combination of two earlier ones."""
    r = draw(st.integers(1, 5))
    rows = [_primitive(draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))) for _ in range(r)]
    if r > 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, r - 2)), draw(st.integers(0, r - 2))
        combo = [x + draw(st.integers(-2, 2)) * y for x, y in zip(rows[i], rows[j])]
        if any(combo):
            rows[-1] = _primitive(combo)
    return rows


def _gcd_of_minors(rows, i):
    """gcd of the i x i minors of the first i rows, by brute force."""
    columns = itertools.combinations(range(len(rows[0])), i)
    return math.gcd(*(abs(det_int([[row[c] for c in cs] for row in rows[:i]])) for cs in columns))


class TestNonsingularSubsets:
    def test_worked_example(self):
        assert nonsingular_subsets([(2, 1), (5, 3)]) == (((0, 1), ((3, -5), (-1, 2)), 1, (1, 1), ()),)
        # det -1: the columns are those of |det| A^{-1}.
        assert nonsingular_subsets([(0, 1), (1, 0)]) == (((0, 1), ((0, 1), (1, 0)), 1, (1, 1), ()),)
        assert nonsingular_subsets([(-3,)]) == (((0,), ((-1,),), 3, (3,), ()),)
        assert nonsingular_subsets([(1, 2), (2, 4)]) == ()
        # x + y = x - y = 0: two points, the box 0 <= k_2 < 2.
        assert nonsingular_subsets([(1, 1), (1, -1)]) == (((0, 1), ((1, 1), (1, -1)), 2, (1, 2), ()),)

    def test_subsets_in_lexicographic_order(self):
        rows = [(1, 0), (0, 1), (1, 0), (1, 1)]
        assert [s[0] for s in nonsingular_subsets(rows)] == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert nonsingular_subsets([]) == ()
        assert nonsingular_subsets([(1, 0)]) == ()

    def test_bad_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            nonsingular_subsets([(1, 2), (1,)])
        with pytest.raises(InvalidInput):
            nonsingular_subsets([(1, 0.5), (0, 1)])

    @given(primitive_square_matrices())
    def test_cols_invert_and_singular_reported(self, rows):
        det = abs(det_int(rows))
        found = nonsingular_subsets(rows)
        if det == 0:
            assert found == ()
            return
        [(chosen, cols, d, radices, spanned)] = found
        r = len(rows)
        assert chosen == tuple(range(r))
        assert spanned == ()
        assert d == det
        assert matmul_int(rows, tuple(zip(*cols))) == tuple(
            tuple(det * (i == j) for j in range(r)) for i in range(r)
        )

    @given(primitive_square_matrices())
    def test_radices_are_ratios_of_minor_gcds(self, rows):
        found = nonsingular_subsets(rows)
        assume(found)
        [(_, _, det, radices, _)] = found
        assert math.prod(radices) == det
        for i in range(1, len(rows) + 1):
            assert math.prod(radices[:i]) == _gcd_of_minors(rows, i)
        assert radices[0] == 1
        if len(rows) > 1:
            assert radices[1] == minors2_gcd(rows[0], rows[1])

    @settings(max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any),
                min_size=r,
                max_size=r + 3,
            )
        )
    )
    def test_shared_prefixes_match_each_subset_alone(self, rows):
        # The tree eliminates a prefix once for all its extensions and
        # prunes singular prefixes; each subset must come out as it does
        # when eliminated on its own.
        expect = []
        for chosen in itertools.combinations(range(len(rows)), len(rows[0])):
            for _, cols, det, radices, _ in nonsingular_subsets([rows[t] for t in chosen]):
                expect.append((chosen, cols, det, radices))
        assert tuple(s[:4] for s in nonsingular_subsets(rows)) == tuple(expect)

    @settings(max_examples=80)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                min_size=r,
                max_size=r + 4,
            )
        )
    )
    @example([(1, 0), (0, 1), (1, 0), (1, 1)])
    def test_spanned_rows_match_a_rank_oracle(self, rows):
        # Row t outside a subset is spanned exactly when adding it to the
        # subset's rows below t leaves the Hermite basis's rank unchanged.
        # In the example, (0, 1) spans rows 2 and 3, (0, 3) row 2 alone.
        for chosen, _, _, _, spanned in nonsingular_subsets(rows):
            expect = []
            for t in range(len(rows)):
                if t in chosen:
                    continue
                below = [rows[i] for i in chosen if i < t]
                if len(hermite_basis(below + [rows[t]])) == len(hermite_basis(below)):
                    expect.append(t)
            assert spanned == tuple(expect)
