import itertools
import math
import random

import pytest

from conftest import random_primitive_vector
from torusarr.errors import DimensionMismatch, NonPrimitive, ParallelNormals
from torusarr.intersection import components_coordinate, components_pair
from torusarr.lattice import minors2_gcd


def primitive_vectors(d, bound):
    for v in itertools.product(range(-bound, bound + 1), repeat=d):
        if math.gcd(*(abs(x) for x in v)) == 1:
            yield v


class TestComponentsCoordinate:
    def test_examples(self):
        assert components_coordinate((1, 2, 4)) == 2
        assert components_coordinate((0, 1, 0)) == 1
        assert components_coordinate((5, 3, 6)) == 3

    def test_errors(self):
        with pytest.raises(NonPrimitive):
            components_coordinate((2, 4, 6))
        with pytest.raises(DimensionMismatch):
            components_coordinate((1,))
        with pytest.raises(ParallelNormals):
            components_coordinate((1, 0, 0))
        with pytest.raises(ParallelNormals):
            components_coordinate((-1, 0))


class TestComponentsPair:
    def test_reduces_to_coordinate_case(self):
        assert components_pair((1, 0, 0), (1, 2, 4)) == 2

    def test_planar_example(self):
        assert components_pair((2, 3), (4, 5)) == 2
        assert components_pair((2, 3), (1, 1)) == 1

    def test_errors(self):
        with pytest.raises(NonPrimitive):
            components_pair((2, 4), (1, 0))
        with pytest.raises(NonPrimitive):
            components_pair((1, 0), (3, 3))
        with pytest.raises(DimensionMismatch):
            components_pair((1, 0), (1, 0, 0))
        with pytest.raises(ParallelNormals):
            components_pair((2, 3), (2, 3))
        with pytest.raises(ParallelNormals):
            components_pair((2, 3), (-2, -3))

    def test_matches_minors_oracle_exhaustive_small(self):
        for d, bound in ((2, 3), (3, 2)):
            for a in primitive_vectors(d, bound):
                for b in primitive_vectors(d, bound):
                    if b == a or b == tuple(-x for x in a):
                        continue
                    assert components_pair(a, b) == minors2_gcd(a, b)

    def test_leading_zero_vectors(self):
        cases = [((0, 0, 1), (2, 3, 5)), ((0, 0, 1), (1, 0, 0)), ((0, 0, 1), (0, 1, 0))]
        for a, b in cases:
            assert components_pair(a, b) == minors2_gcd(a, b)

    def test_leading_zero_path_exhaustive(self):
        # a_0 = a_1 = 0 takes the swap path, on either side of the pair.
        for d in (3, 4):
            box = list(primitive_vectors(d, 2))
            for a in box:
                if a[0] or a[1]:
                    continue
                for b in box:
                    if b == a or b == tuple(-x for x in a):
                        continue
                    assert components_pair(a, b) == components_pair(b, a) == minors2_gcd(a, b)

    def test_agrees_with_coordinate_exhaustive(self):
        e1 = (1, 0, 0)
        for b in primitive_vectors(3, 3):
            if b in (e1, (-1, 0, 0)):
                continue
            assert components_pair(e1, b) == components_coordinate(b)

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(2, 5)
            a = random_primitive_vector(rng, d, 6)
            b = random_primitive_vector(rng, d, 6)
            if b == a or b == tuple(-x for x in a):
                continue
            assert components_pair(a, b) == components_pair(b, a)
