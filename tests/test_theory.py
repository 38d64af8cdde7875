import time
from fractions import Fraction

import pytest

from torusarr.arrangement import Arrangement, Subtorus
from torusarr.errors import (
    InvalidParams,
    NotFeasible,
    ParamOutOfRange,
    ResourceCapError,
    TheoremViolation,
)
from torusarr.regions import count_regions
from torusarr.theory import (
    FeasibleSet,
    check_bounds,
    construct_family_parallel,
    construct_family_sheared,
    construct_for,
    feasible_contains,
    feasible_set,
    parallel_bound,
)

F = Fraction


class TestFeasibleSet:
    def test_interval_plus_ray(self):
        s = feasible_set(3, 8)
        assert s.kind == "interval_plus_ray"
        assert s.interval == (6, 8) and s.ray_start == 10
        assert [l for l in range(1, 13) if s.contains(l)] == [6, 7, 8, 10, 11, 12]
        assert list(s.gap()) == [9]

    def test_all_naturals(self):
        s = feasible_set(3, 2)
        assert s.kind == "all_naturals"
        assert s.contains(1) and s.contains(10**9)
        assert not s.contains(0)

    def test_single_subtorus(self):
        s = feasible_set(5, 1)
        assert s.kind == "singleton_1"
        assert s.contains(1) and not s.contains(2)

    def test_dimension_one_extension(self):
        s = feasible_set(1, 4)
        assert s.kind == "singleton_n"
        assert s.contains(4) and not s.contains(3) and not s.contains(5)
        assert str(s) == "{4}"

    def test_membership_examples(self):
        assert not feasible_contains(2, 6, 7)
        assert feasible_contains(2, 6, 8)
        assert feasible_contains(3, 5, 3)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            feasible_set(0, 3)
        with pytest.raises(InvalidParams):
            feasible_set(2, 0)
        # A bool is not a dimension, a subtorus count or a region count.
        for bad in ((True, 2), (2, True)):
            with pytest.raises(InvalidParams):
                feasible_set(*bad)
        for bad in ((True, 2, 2), (2, True, 1), (2, 1, True)):
            with pytest.raises(InvalidParams):
                construct_for(*bad)
        assert not feasible_contains(2, 1, True)
        assert not feasible_set(2, 5).contains(True)

    def test_min_value_and_gap_boundaries(self):
        for d in range(2, 6):
            for n in range(d + 1, 3 * d + 5):
                s = feasible_set(d, n)
                assert s.min_value == n - d + 1
                assert (len(s.gap()) > 0) == (n > 2 * d + 1)

    @pytest.mark.parametrize(
        "d, n, kind, least",
        [(5, 1, "singleton_1", 1), (1, 4, "singleton_n", 4), (3, 2, "all_naturals", 1)],
    )
    def test_min_value_and_no_gap_without_a_ray(self, d, n, kind, least):
        s = feasible_set(d, n)
        assert s.kind == kind
        assert s.min_value == least
        assert list(s.gap()) == []

    def test_string_forms(self):
        assert str(feasible_set(4, 1)) == "{1}"
        assert str(feasible_set(4, 3)) == "N"
        assert str(feasible_set(3, 8)) == "{6..8} U {l >= 10}"
        assert str(feasible_set(3, 4)) == "{l >= 2}"

    def test_json_round_trip_fields(self):
        j = feasible_set(3, 8).to_json()
        assert j == {"kind": "interval_plus_ray", "interval": [6, 8], "ray_start": 10}


class TestParallelBound:
    def test_values(self):
        assert parallel_bound(6, 3, 2) == 9
        assert parallel_bound(5, 5, 3) == -5
        assert parallel_bound(5, 1, 3) == 3

    def test_m_range_checked(self):
        with pytest.raises(InvalidParams):
            parallel_bound(3, 4, 2)


class TestCheckBounds:
    def test_parallel_family_report(self):
        arr = construct_family_parallel(3, 5, 2)
        rep = check_bounds(arr, 3)
        assert rep.m == 3 and rep.parallel_bound == 3
        assert rep.parallel_ok and rep.dichotomy_ok and rep.membership_ok
        assert rep.ok

    def test_sheared_family_report(self):
        arr = construct_family_sheared(3, 5, 0)
        rep = check_bounds(arr, 4)
        assert rep.dichotomy_applicable and rep.dichotomy_ok
        assert rep.ok

    def test_single_subtorus_skips_dichotomy(self):
        arr = Arrangement(4, (Subtorus((1, 0, 0, 0), F(0)),))
        rep = check_bounds(arr, 1)
        assert not rep.dichotomy_applicable
        assert rep.membership_ok

    def test_empty_arrangement(self):
        rep = check_bounds(Arrangement(2, ()), 1)
        assert rep.ok

    def test_gap_value_raises(self):
        arr = construct_family_parallel(3, 8, 2)
        with pytest.raises(TheoremViolation) as err:
            check_bounds(arr, 9)
        assert err.value.report is not None
        assert not err.value.report.membership_ok

    def test_parallel_bound_violation_raises(self):
        arr = construct_family_parallel(2, 6, 1)
        # honest count n-k = 5 passes every check
        assert check_bounds(arr, 5).ok
        # an impossibly low count breaks the parallel-class bound of 5
        with pytest.raises(TheoremViolation) as err:
            check_bounds(arr, 2)
        assert not err.value.report.parallel_ok


class TestConstructFamilyParallel:
    def test_contents(self):
        arr = construct_family_parallel(3, 5, 2)
        normals = [t.normal for t in arr.tori]
        assert normals == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1)]
        offsets = [t.offset for t in arr.tori[2:]]
        assert offsets == [F(1, 4), F(1, 2), F(3, 4)]
        assert count_regions(arr) == 3

    def test_no_walls(self):
        arr = construct_family_parallel(2, 3, 0)
        assert count_regions(arr) == 3

    def test_single_region(self):
        arr = construct_family_parallel(4, 4, 3)
        assert count_regions(arr) == 1

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            construct_family_parallel(3, 5, 3)
        with pytest.raises(ParamOutOfRange):
            construct_family_parallel(3, 2, 2)
        with pytest.raises(ParamOutOfRange):
            construct_family_parallel(0, 1, 0)
        for bad in ((True, 1, 0), (2, True, 0), (2, 1, False)):
            with pytest.raises(ParamOutOfRange, match="^parameters must be integers$"):
                construct_family_parallel(*bad)


class TestConstructFamilySheared:
    def test_counts(self):
        assert count_regions(construct_family_sheared(3, 5, 0)) == 4
        assert count_regions(construct_family_sheared(3, 4, 1)) == 3
        assert count_regions(construct_family_sheared(2, 2, 5)) == 5

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            construct_family_sheared(1, 3, 1)
        with pytest.raises(ParamOutOfRange):
            construct_family_sheared(3, 2, 1)
        with pytest.raises(ParamOutOfRange):
            construct_family_sheared(2, 2, -1)
        for bad in ((True, 2, 1), (2, True, 1), (2, 2, True)):
            with pytest.raises(ParamOutOfRange, match="^parameters must be integers$"):
                construct_family_sheared(*bad)

    def test_degenerate_combination_rejected(self):
        with pytest.raises(ParamOutOfRange):
            construct_family_sheared(2, 2, 0)
        with pytest.raises(ParamOutOfRange):
            construct_family_sheared(3, 3, 0)

    def test_offset_genericity_holds_across_grid(self):
        # The odd-denominator verticals can never put the sheared subtorus
        # through a crossing, so BadOffsets must never fire on this grid.
        for d in (2, 3):
            for n in range(d, d + 4):
                for k in range(0, 7):
                    if n == d and k == 0:
                        continue
                    arr = construct_family_sheared(d, n, k)
                    assert arr.n == n


class TestConstructFor:
    def test_gap_not_feasible(self):
        with pytest.raises(NotFeasible) as err:
            construct_for(3, 8, 9)
        assert "{6..8} U {l >= 10}" in str(err.value)

    def test_interval_uses_parallel_family(self):
        arr = construct_for(3, 5, 5)
        assert arr.n == 5
        assert len({t.normal for t in arr.tori}) == 1

    def test_small_n_sheared_pair(self):
        arr = construct_for(3, 2, 7)
        assert [t.normal for t in arr.tori] == [(0, 1, 0), (7, -1, 0)]
        assert count_regions(arr) == 7

    def test_single_subtorus(self):
        arr = construct_for(4, 1, 1)
        assert arr.n == 1 and count_regions(arr) == 1

    def test_dimension_one(self):
        arr = construct_for(1, 4, 4)
        assert arr.n == 4 and count_regions(arr) == 4
        with pytest.raises(NotFeasible):
            construct_for(1, 4, 3)

    def test_invalid_target(self):
        with pytest.raises(NotFeasible):
            construct_for(3, 5, 0)
        with pytest.raises(InvalidParams):
            construct_for(3, 5, "six")

    def test_sheet_cap_reaches_the_recount(self):
        # The sheared member for f = 61 lifts to 65 sheets, one over the
        # default cap of the count that verifies it.
        with pytest.raises(ResourceCapError):
            construct_for(3, 4, 61)
        arr = construct_for(3, 4, 61, max_sheets=65)
        assert count_regions(arr, max_sheets=65) == 61
        with pytest.raises(ResourceCapError):
            construct_for(3, 4, 61, max_sheets=64)

    @pytest.mark.parametrize("d, n, f", [(16, 18, 5), (16, 18, 18), (16, 19, 7)])
    def test_recount_in_dimension_16_is_fast(self, d, n, f):
        # A count polynomial in the rank takes milliseconds here; one that
        # tabulates minors over subsets of the 16 coordinates takes seconds.
        start = time.perf_counter()
        arr = construct_for(d, n, f)
        assert time.perf_counter() - start < 0.5
        assert arr.n == n

    def test_round_trip_spread(self):
        for d in (2, 3):
            for n in range(d + 1, d + 3):
                fset = feasible_set(d, n)
                lo, hi = fset.interval
                targets = set(range(lo, hi + 1)) | {fset.ray_start, fset.ray_start + 1}
                for l in sorted(targets):
                    assert count_regions(construct_for(d, n, l)) == l
        for (d, n) in ((2, 2), (3, 2), (3, 3)):
            for l in (1, 2, 4):
                assert count_regions(construct_for(d, n, l)) == l
