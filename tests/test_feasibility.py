from fractions import Fraction

import pytest

from torusarr.errors import InvalidInput
from torusarr.feasibility import LinConstraint

LC = LinConstraint


class TestLinConstraint:
    def test_rejects_zero_normal(self):
        with pytest.raises(InvalidInput):
            LC((0, 0), 1, "<=")

    def test_rejects_empty_normal(self):
        with pytest.raises(InvalidInput):
            LC((), 0, "<")

    def test_rejects_bad_relation(self):
        with pytest.raises(InvalidInput):
            LC((1,), 0, ">=")

    def test_rejects_floats(self):
        with pytest.raises(InvalidInput):
            LC((0.5,), 0, "<=")

    def test_holds_at_on_and_off_the_boundary(self):
        on, inside = (Fraction(1), Fraction(2)), (Fraction(1, 3), Fraction(1))
        assert LC((1, 1), 3, "=").holds_at(on) and not LC((1, 1), 3, "=").holds_at(inside)
        assert LC((1, 1), 3, "<=").holds_at(on) and LC((1, 1), 3, "<=").holds_at(inside)
        assert not LC((1, 1), 3, "<").holds_at(on) and LC((1, 1), 3, "<").holds_at(inside)
