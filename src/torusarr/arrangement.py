"""Arrangements of codimension-one subtori in the flat d-torus.

A closed codimension-one subtorus is the image of a rational hyperplane
sum(a_i x_i) = c under the quotient map R^d -> R^d / Z^d. Clearing
denominators, dividing by the gcd, fixing the sign of the first nonzero
coefficient and reducing c mod 1 puts every such hyperplane in a unique
normal form, so equality of subtori is equality of (normal, offset) pairs.
An Arrangement checks its subtori once, at construction, so every value of
the type holds distinct subtori of its dimension and no consumer checks again.

The module also implements the ``.tarr`` text format, the action of
determinant-one integer basis changes on arrangements, and the size of the
largest parallel class (the quantity the region-count lower bounds use).

Values are immutable and operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DuplicateSubtorus,
    InvalidInput,
    NonPrimitive,
    NotUnimodular,
    ParseError,
    ZeroNormal,
)
from .lattice import IntVec, _is_int, as_intvec, covector_times_matrix, det_int


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise InvalidInput(f"floating point value {x!r} rejected; use Fraction or str")
    if isinstance(x, bool):  # an int to Python, but not a coordinate or offset
        raise InvalidInput(f"bool value {x!r} rejected; use Fraction, int or str")
    return Fraction(x)


@dataclass(frozen=True)
class Subtorus:
    """One codimension-one subtorus in normal form.

    ``normal`` is a primitive integer vector whose first nonzero entry is
    positive; ``offset`` is a rational in [0, 1). The subtorus is the image
    of the hyperplane normal . x = offset in the unit torus.
    """

    normal: IntVec
    offset: Fraction

    def __post_init__(self):
        vec = as_intvec(self.normal)
        object.__setattr__(self, "normal", vec)
        if math.gcd(*vec) != 1:
            raise NonPrimitive(f"normal {vec} is not primitive")
        first = next(x for x in vec if x != 0)
        if first < 0:
            raise InvalidInput(f"normal {vec} not sign-normalized (first nonzero must be positive)")
        off = _as_fraction(self.offset)
        if not 0 <= off < 1:
            raise InvalidInput(f"offset {off} outside [0, 1)")
        object.__setattr__(self, "offset", off)

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Arrangement:
    """A finite ordered set of distinct subtori in T^dim. Construction raises
    InvalidInput unless dim is a positive int (not a bool), then
    DimensionMismatch or DuplicateSubtorus at the first invalid subtorus."""

    dim: int
    tori: tuple[Subtorus, ...]

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim < 1:
            raise InvalidInput(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "tori", tuple(self.tori))
        seen: dict[tuple[IntVec, Fraction], int] = {}
        for idx, torus in enumerate(self.tori):
            if torus.dim != self.dim:
                raise DimensionMismatch(
                    f"subtorus {idx + 1} has dimension {torus.dim}, arrangement has {self.dim}"
                )
            key = (torus.normal, torus.offset)
            if key in seen:
                raise DuplicateSubtorus(
                    f"subtori {seen[key] + 1} and {idx + 1} are identical: "
                    f"normal {torus.normal}, offset {torus.offset}",
                    first=seen[key],
                    second=idx,
                )
            seen[key] = idx

    @property
    def n(self) -> int:
        return len(self.tori)


def subtorus_from_equation(coeffs, c) -> Subtorus:
    """Normalize the rational equation sum(coeffs_i x_i) = c to a Subtorus.

    Denominators are cleared, the integer vector is divided by its gcd and
    sign-normalized (negating c alongside), and c is reduced mod 1. The
    result describes exactly the same subset of the torus as the input
    equation.
    """
    qs = [_as_fraction(x) for x in coeffs]
    if not qs:
        raise InvalidInput("empty coefficient vector")
    if all(x == 0 for x in qs):
        raise ZeroNormal("all hyperplane coefficients are zero")
    scale = math.lcm(*(x.denominator for x in qs))
    ints = [int(x * scale) for x in qs]
    g = math.gcd(*(abs(x) for x in ints))
    normal = [x // g for x in ints]
    rhs = _as_fraction(c) * scale / g
    first = next(x for x in normal if x != 0)
    if first < 0:
        normal = [-x for x in normal]
        rhs = -rhs
    return Subtorus(tuple(normal), rhs % 1)


def max_parallel_count(arr: Arrangement) -> int:
    """Size of the largest class of subtori sharing one normal; 0 when empty."""
    counts: dict[IntVec, int] = {}
    for torus in arr.tori:
        counts[torus.normal] = counts.get(torus.normal, 0) + 1
    return max(counts.values(), default=0)


def transform(arr: Arrangement, m) -> Arrangement:
    """Apply the lattice basis change with matrix m (rows, det exactly 1).

    Normals transform as covectors, a -> a @ m, then get re-normalized;
    offsets are unchanged up to the sign normalization and mod-1 reduction.
    The image arrangement has the same region and intersection counts.
    Composition order: transform(arr, m1 @ m2) equals
    transform(transform(arr, m1), m2).
    """
    rows = tuple(as_intvec(r) for r in m)
    if len(rows) != arr.dim or any(len(r) != arr.dim for r in rows):
        raise NotUnimodular(f"matrix is not {arr.dim}x{arr.dim}")
    if det_int(rows) != 1:
        raise NotUnimodular(f"determinant is {det_int(rows)}, expected exactly 1")
    new = []
    for torus in arr.tori:
        image = covector_times_matrix(torus.normal, rows)
        new.append(subtorus_from_equation(image, torus.offset))
    return Arrangement(arr.dim, tuple(new))


def translate(arr: Arrangement, t) -> Arrangement:
    """Image of the arrangement under the torus translation x -> x + t.

    Equivalent to recounting on the shifted fundamental cube; region counts
    are invariant under this operation.
    """
    shift = [_as_fraction(x) for x in t]
    if len(shift) != arr.dim:
        raise DimensionMismatch(f"shift has length {len(shift)}, expected {arr.dim}")
    new = []
    for torus in arr.tori:
        moved = torus.offset + sum(a * s for a, s in zip(torus.normal, shift))
        new.append(Subtorus(torus.normal, moved % 1))
    return Arrangement(arr.dim, tuple(new))


# --------------------------------------------------------------------------
# .tarr text format
#
#   # comment lines and blank lines are ignored; '#' starts an inline comment
#   dim 3
#   1 0 0 : 0/1
#   2 -1 0 : 1/2
#
# One subtorus per line: d integers, a colon, and a rational offset p/q
# (an integer or a plain decimal is accepted too; an exponent is not).
# Parsing normalizes every line, so non-normalized input is accepted; the
# writer always emits the normal form and round-trips bit-exactly.
# --------------------------------------------------------------------------


def _parse_rational(token: str, lineno: int) -> Fraction:
    # Fraction() accepts exponents, and "1e10000000" would expand to a
    # ten-million-digit integer; offsets are written as p/q, integers or
    # plain decimals.
    if "e" in token or "E" in token:
        raise ParseError(f"line {lineno}: bad rational {token!r}: exponents are not allowed")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"line {lineno}: bad rational {token!r}: {exc}") from None


def parse_tarr(text: str) -> Arrangement:
    """Parse .tarr text into an Arrangement; one leading U+FEFF (a byte-order
    mark some editors write) is ignored."""
    dim: int | None = None
    tori: list[Subtorus] = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ParseError(f"line {lineno}: expected 'dim <d>', got {raw!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad dimension {parts[1]!r}") from None
            if dim < 1:
                raise ParseError(f"line {lineno}: dimension must be >= 1")
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<coeffs> : <offset>', got {raw!r}")
        left, right = line.split(":", 1)
        coeff_tokens = left.split()
        if len(coeff_tokens) != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} coefficients, got {len(coeff_tokens)}"
            )
        try:
            coeffs = [int(tok) for tok in coeff_tokens]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer coefficient in {left!r}") from None
        offset = _parse_rational(right.strip(), lineno)
        try:
            tori.append(subtorus_from_equation(coeffs, offset))
        except ZeroNormal:
            raise ParseError(f"line {lineno}: all coefficients are zero") from None
    if dim is None:
        raise ParseError("missing 'dim <d>' header line")
    return Arrangement(dim, tuple(tori))


def format_tarr(arr: Arrangement, header: str | None = None) -> str:
    """Serialize to canonical .tarr text (offsets always written as p/q)."""
    lines = []
    if header:
        for piece in header.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"dim {arr.dim}")
    for torus in arr.tori:
        coeffs = " ".join(str(x) for x in torus.normal)
        off = torus.offset
        lines.append(f"{coeffs} : {off.numerator}/{off.denominator}")
    return "\n".join(lines) + "\n"


def load_tarr(path) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}: not UTF-8 text") from None
    return parse_tarr(text)


def save_tarr(arr: Arrangement, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tarr(arr, header=header))
