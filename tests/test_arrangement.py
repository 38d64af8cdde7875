import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import distinct_subtori, random_arrangement, random_unimodular
from torusarr.arrangement import (
    Arrangement,
    Subtorus,
    format_tarr,
    max_parallel_count,
    parse_tarr,
    subtorus_from_equation,
    transform,
    translate,
)
from torusarr.errors import (
    DimensionMismatch,
    DuplicateSubtorus,
    InvalidInput,
    NonPrimitive,
    NotUnimodular,
    ParseError,
    TorusArrError,
    ZeroNormal,
)
from torusarr.feasibility import LinConstraint
from torusarr.lattice import covector_times_matrix

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def arrangements(draw):
    """Valid arrangements in d = 1..5, some offsets with denominators near 10**18."""
    d = draw(st.integers(1, 5))
    dens = st.integers(1, 16) | st.integers(10**18 - 10**3, 10**18 + 10**3)
    rows = st.tuples(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any),
        dens,
        st.integers(0, 10**19),
    )
    tori = []
    for coeffs, q, p in draw(st.lists(rows, max_size=6)):
        s = subtorus_from_equation(coeffs, Fraction(p % q, q))
        if s not in tori:
            tori.append(s)
    return Arrangement(d, tuple(tori))


# Characters a mutation inserts or writes: every token class of the format
# and a few it does not have.
MUTATION_CHARS = "0123456789-+/:.# \n\tdimeEx_"


class TestSubtorus:
    def test_invariants_enforced(self):
        with pytest.raises(NonPrimitive):
            Subtorus((2, 4), Fraction(0))
        with pytest.raises(InvalidInput):
            Subtorus((-1, 0), Fraction(0))
        with pytest.raises(InvalidInput):
            Subtorus((1, 0), Fraction(3, 2))
        with pytest.raises(InvalidInput):
            Subtorus((1, 0), 0.5)

    def test_valid_construction(self):
        s = Subtorus((0, 1), Fraction(1, 3))
        assert s.dim == 2 and s.offset == Fraction(1, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: subtorus_from_equation((True, False), True),
        lambda: subtorus_from_equation((1, 0), True),
        lambda: Subtorus((1, 0), False),
        lambda: translate(Arrangement(2, (Subtorus((1, 0), Fraction(0)),)), (True, 0)),
        lambda: LinConstraint((True, 0), False, "<"),
        lambda: LinConstraint((1, 0), False, "<"),
    ],
)
def test_bool_is_not_a_rational(build):
    with pytest.raises(InvalidInput, match="bool value"):
        build()


class TestSubtorusFromEquation:
    def test_clears_denominators(self):
        s = subtorus_from_equation((Fraction(1, 2), Fraction(3, 4)), 5)
        assert s.normal == (2, 3)
        assert s.offset == 0

    def test_sign_flip_negates_offset(self):
        s = subtorus_from_equation((-1, 0), Fraction(1, 3))
        assert s.normal == (1, 0)
        assert s.offset == Fraction(2, 3)

    def test_already_normalized(self):
        s = subtorus_from_equation((0, 1), 0)
        assert s.normal == (0, 1) and s.offset == 0

    def test_zero_normal(self):
        with pytest.raises(ZeroNormal):
            subtorus_from_equation((0, 0), 1)

    def test_empty_coefficients(self):
        with pytest.raises(InvalidInput):
            subtorus_from_equation((), 0)

    def test_same_point_set(self):
        # Both equations must cut out the same subset of the torus: a point
        # satisfies q . x = c modulo the value group of q on the lattice
        # exactly when it satisfies the normalized equation mod 1.
        rng = random.Random(3)
        for _ in range(50):
            d = rng.randint(1, 3)
            coeffs = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)
            ]
            if all(c == 0 for c in coeffs):
                continue
            c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            s = subtorus_from_equation(coeffs, c)
            scale = next(
                t for t in range(1, 10**6)
                if all((q * t).denominator == 1 for q in coeffs)
            )
            import math

            content = Fraction(
                math.gcd(*(int(q * scale) for q in coeffs)), scale
            )  # generator of {q . k : k integer vector}
            for _ in range(20):
                x = [Fraction(rng.randint(0, 11), 12) for _ in range(d)]
                on_normalized = (
                    sum(a * xi for a, xi in zip(s.normal, x)) - s.offset
                ) % 1 == 0
                on_original = (sum(q * xi for q, xi in zip(coeffs, x)) - c) % content == 0
                assert on_normalized == on_original

    @given(st.lists(rationals, min_size=1, max_size=4), rationals)
    def test_idempotent(self, coeffs, c):
        if all(x == 0 for x in coeffs):
            return
        s = subtorus_from_equation(coeffs, c)
        again = subtorus_from_equation(s.normal, s.offset)
        assert again == s


class TestRandomArrangement:
    def test_draws_every_distinct_subtorus(self):
        # d = 1 and max_den = 4: one normal and the offsets 0, 1/4, 1/3,
        # 1/2, 2/3, 3/4.
        assert distinct_subtori(1, 3, 4) == 6
        arr = random_arrangement(random.Random(5), 1, 6, max_den=4)
        offsets = {Fraction(p, q) for q, p in [(1, 0), (4, 1), (3, 1), (2, 1), (3, 2), (4, 3)]}
        assert {t.offset for t in arr.tori} == offsets

    def test_too_many_subtori_raise_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"\b7\b.*\ballow 6\b"):
            random_arrangement(random.Random(5), 1, 7, max_den=4)
        assert time.perf_counter() - start < 1

    def test_normals_counted_up_to_sign(self):
        # (1, 0), (0, 1), (1, 1), (1, -1) with offset 0 only.
        assert distinct_subtori(2, 1, 1) == 4
        assert len(random_arrangement(random.Random(5), 2, 4, bound=1, max_den=1).tori) == 4


class TestValidate:
    # An Arrangement checks itself at construction, so no value of the type
    # holds a duplicate or a subtorus of another dimension.

    def test_duplicates_rejected(self):
        a = Subtorus((1, 0), Fraction(0))
        with pytest.raises(
            DuplicateSubtorus, match=r"^subtori 1 and 2 are identical: normal \(1, 0\), offset 0$"
        ) as info:
            Arrangement(2, (a, Subtorus((1, 0), Fraction(0))))
        assert (info.value.first, info.value.second) == (0, 1)

    def test_first_duplicate_reported(self):
        a, b, c = (Subtorus((1, 0), Fraction(k, 3)) for k in range(3))
        with pytest.raises(DuplicateSubtorus, match=r"^subtori 2 and 4 ") as info:
            Arrangement(2, [a, b, c, b, a])
        assert (info.value.first, info.value.second) == (1, 3)

    def test_normalized_distinct_pair_ok(self):
        # x1 = 0 and 2 x1 = 1 normalize to the same normal, different offsets
        a = subtorus_from_equation((1, 0), 0)
        b = subtorus_from_equation((2, 0), 1)
        assert b.normal == (1, 0) and b.offset == Fraction(1, 2)
        assert Arrangement(2, [a, b]).tori == (a, b)

    def test_empty_ok(self):
        assert Arrangement(3, ()).tori == ()

    def test_dimension_mismatch(self):
        with pytest.raises(
            DimensionMismatch, match=r"^subtorus 1 has dimension 2, arrangement has 3$"
        ):
            Arrangement(3, (Subtorus((1, 0), Fraction(0)),))

    def test_first_violation_in_subtorus_order(self):
        a, b = Subtorus((1, 0), Fraction(0)), Subtorus((1, 0, 0), Fraction(0))
        with pytest.raises(DuplicateSubtorus, match=r"^subtori 1 and 2 "):
            Arrangement(2, (a, a, b))
        with pytest.raises(DimensionMismatch, match=r"^subtorus 2 "):
            Arrangement(2, (a, b, a))

    def test_dim_must_be_a_positive_int(self):
        for dim in (True, False, 0, -1, 2.0, "2"):
            with pytest.raises(
                InvalidInput, match=rf"^dimension must be a positive integer, got {dim!r}$"
            ):
                Arrangement(dim, ())

    def test_replace_revalidates(self):
        a = Subtorus((1, 0), Fraction(0))
        arr = Arrangement(2, (a, Subtorus((0, 1), Fraction(0))))
        with pytest.raises(DuplicateSubtorus) as info:
            dataclasses.replace(arr, tori=(a, a))
        assert (info.value.first, info.value.second) == (0, 1)
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(arr, dim=3)
        with pytest.raises(InvalidInput):
            dataclasses.replace(arr, dim=True)


class TestMaxParallelCount:
    def test_three_parallel(self):
        arr = Arrangement(
            3,
            (
                Subtorus((0, 0, 1), Fraction(1, 4)),
                Subtorus((0, 0, 1), Fraction(1, 2)),
                Subtorus((0, 0, 1), Fraction(3, 4)),
                Subtorus((1, 0, 0), Fraction(0)),
                Subtorus((0, 1, 0), Fraction(0)),
            ),
        )
        assert max_parallel_count(arr) == 3

    def test_all_different(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)), Subtorus((0, 1), Fraction(0))))
        assert max_parallel_count(arr) == 1

    def test_parallel_after_normalization(self):
        arr = Arrangement(
            2,
            (subtorus_from_equation((1, 0), 0), subtorus_from_equation((3, 0), 1)),
        )
        assert max_parallel_count(arr) == 2

    def test_empty(self):
        assert max_parallel_count(Arrangement(2, ())) == 0


class TestTransform:
    def test_identity(self):
        rng = random.Random(4)
        arr = random_arrangement(rng, 2, 3)
        m = ((1, 0), (0, 1))
        assert transform(arr, m) == arr

    def test_shear_example(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)),))
        m = ((1, 1), (0, 1))
        out = transform(arr, m)
        assert out.tori[0].normal == (1, 1)
        assert out.tori[0].offset == 0

    def test_rejects_non_unimodular(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)),))
        with pytest.raises(NotUnimodular):
            transform(arr, ((0, 1), (1, 0)))
        with pytest.raises(NotUnimodular):
            transform(arr, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_group_action_order(self):
        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(2, 4)
            arr = random_arrangement(rng, d, rng.randint(1, 3))
            m1 = random_unimodular(rng, d)
            m2 = random_unimodular(rng, d)
            lhs = transform(arr, tuple(covector_times_matrix(row, m2) for row in m1))
            rhs = transform(transform(arr, m1), m2)
            assert lhs == rhs

    def test_max_parallel_invariant(self):
        rng = random.Random(6)
        for _ in range(30):
            d = rng.randint(2, 3)
            arr = random_arrangement(rng, d, rng.randint(1, 4))
            m = random_unimodular(rng, d)
            assert max_parallel_count(transform(arr, m)) == max_parallel_count(arr)


class TestTranslate:
    def test_offsets_move(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)),))
        out = translate(arr, (Fraction(1, 3), Fraction(0)))
        assert out.tori[0].offset == Fraction(1, 3)

    def test_dimension_checked(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)),))
        with pytest.raises(DimensionMismatch):
            translate(arr, (Fraction(1, 3),))


class TestTarrFormat:
    def test_parse_normalizes(self):
        text = """
        # sample file
        dim 2
        2 0 : 1   # halves
        0 1 : 1/3
        """
        arr = parse_tarr(text)
        assert arr.dim == 2
        assert arr.tori[0].normal == (1, 0) and arr.tori[0].offset == Fraction(1, 2)
        assert arr.tori[1].normal == (0, 1) and arr.tori[1].offset == Fraction(1, 3)

    def test_round_trip_bit_exact(self):
        rng = random.Random(7)
        for _ in range(25):
            d = rng.randint(1, 4)
            arr = random_arrangement(rng, d, rng.randint(0, 5))
            text = format_tarr(arr)
            again = parse_tarr(text)
            assert again == arr
            assert format_tarr(again) == text

    def test_header_comment_round_trip(self):
        arr = Arrangement(2, (Subtorus((1, 0), Fraction(0)),))
        text = format_tarr(arr, header="two lines\nof comments")
        assert parse_tarr(text) == arr

    @pytest.mark.parametrize(
        "text",
        [
            "1 0 : 0/1",                    # missing dim header
            "# a comment\n\n",              # no dim line at all
            "dim 0\n",                      # bad dimension
            "dim two\n",                    # non-integer dimension
            "dim 2\n1 : 0/1",               # wrong coefficient count
            "dim 2\n1 0 0/1",               # missing colon
            "dim 2\nx y : 0/1",             # non-integer coefficients
            "dim 2\n1 0 : 1/0",             # zero denominator
            "dim 2\n1 0 : q",               # unparsable offset
            "dim 2\n0 0 : 0/1",             # zero normal
            "dim 2\n1 0 : 1e10000000",      # exponent (would expand to 10**10**7)
            "dim 2\n1 0 : 1/2E3",           # exponent after a fraction
        ],
    )
    def test_parse_errors(self, text):
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            parse_tarr(text)
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize(
        "token, value", [("3", 0), ("-7/4", Fraction(1, 4)), ("0.25", Fraction(1, 4))]
    )
    def test_integer_fraction_and_decimal_offsets(self, token, value):
        assert parse_tarr(f"dim 2\n1 0 : {token}\n").tori[0].offset == value

    @given(arrangements())
    def test_round_trip_fuzzed(self, arr):
        text = format_tarr(arr)
        assert parse_tarr(text) == arr
        assert format_tarr(parse_tarr(text)) == text

    @given(
        arrangements(),
        st.lists(
            st.tuples(
                st.sampled_from(("insert", "delete", "replace")),
                st.integers(0, 10**6),
                st.sampled_from(MUTATION_CHARS),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_mutated_text_raises_only_typed_errors(self, arr, edits):
        chars = list(format_tarr(arr))
        for op, pos, ch in edits:
            if op == "insert":
                chars.insert(pos % (len(chars) + 1), ch)
            elif chars and op == "delete":
                del chars[pos % len(chars)]
            elif chars:
                chars[pos % len(chars)] = ch
        try:
            parse_tarr("".join(chars))
        except TorusArrError:
            pass

    def test_duplicates_detected_on_parse(self):
        with pytest.raises(DuplicateSubtorus):
            parse_tarr("dim 2\n1 0 : 1/2\n2 0 : 1\n")

    def test_offsets_always_written_with_denominator(self):
        rng = random.Random(8)
        arr = random_arrangement(rng, 3, 4)
        for line in format_tarr(arr).splitlines()[1:]:
            assert "/" in line.split(":")[1]
