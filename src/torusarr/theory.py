"""Achievable region counts, bound checks, and arrangement generators.

For n codimension-one subtori in the flat d-torus the set of achievable
complement-region counts is

    {1}                                        for n = 1,
    every positive integer                     for 2 <= n <= d,
    {l : n-d+1 <= l <= n} union {l : l >= 2(n-d)}   for n > d >= 2,

and this package adds the convention {n} for d = 1 (n distinct points cut
the circle into n arcs). Two classical lower bounds constrain every
arrangement: with m the largest parallel class, f >= m(n-m-d+2), and for
n > d >= 2 either f >= 2n-2d or f <= n with at least n-d+1 parallel tori.
``check_bounds`` verifies all of them against a counted arrangement and
treats any failure as an internal error (a counterexample would mean a bug
in the counter, not new mathematics).

Two explicit construction families realize the achievable values: a
parallel family (k coordinate subtori plus n-k parallel translates, giving
f = n-k) and a sheared family (coordinate subtori, one sheared subtorus
crossing k times, and n-d verticals, giving f = 2n-2d+k). ``construct_for``
picks the right family for a requested count and verifies the result with
the region counter before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, Subtorus, subtorus_from_equation
from .arrangement import max_parallel_count as _max_parallel_count
from .errors import (
    BadOffsets,
    InvalidParams,
    NotFeasible,
    ParamOutOfRange,
    TheoremViolation,
)
from .regions import count_regions

KIND_SINGLETON_1 = "singleton_1"
KIND_SINGLETON_N = "singleton_n"
KIND_ALL_NATURALS = "all_naturals"
KIND_INTERVAL_PLUS_RAY = "interval_plus_ray"


@dataclass(frozen=True)
class FeasibleSet:
    """Symbolic description of the achievable region counts for (d, n)."""

    d: int
    n: int
    kind: str
    interval: tuple[int, int] | None = None
    ray_start: int | None = None

    def contains(self, l: int) -> bool:
        if not isinstance(l, int) or l < 1:
            return False
        if self.kind == KIND_SINGLETON_1:
            return l == 1
        if self.kind == KIND_SINGLETON_N:
            return l == self.n
        if self.kind == KIND_ALL_NATURALS:
            return True
        lo, hi = self.interval
        return lo <= l <= hi or l >= self.ray_start

    @property
    def min_value(self) -> int:
        if self.kind == KIND_SINGLETON_1:
            return 1
        if self.kind == KIND_SINGLETON_N:
            return self.n
        if self.kind == KIND_ALL_NATURALS:
            return 1
        return self.interval[0]

    def gap(self) -> range:
        """Integers missing between the interval and the ray (may be empty)."""
        if self.kind != KIND_INTERVAL_PLUS_RAY:
            return range(0)
        return range(self.interval[1] + 1, self.ray_start)

    def __str__(self) -> str:
        if self.kind == KIND_SINGLETON_1:
            return "{1}"
        if self.kind == KIND_SINGLETON_N:
            return "{%d}" % self.n
        if self.kind == KIND_ALL_NATURALS:
            return "N"
        lo, hi = self.interval
        if self.ray_start <= hi + 1:
            return "{l >= %d}" % lo
        return "{%d..%d} U {l >= %d}" % (lo, hi, self.ray_start)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == KIND_SINGLETON_N:
            out["value"] = self.n
        if self.interval is not None:
            out["interval"] = list(self.interval)
        if self.ray_start is not None:
            out["ray_start"] = self.ray_start
        return out


def feasible_set(d: int, n: int) -> FeasibleSet:
    """The symbolic set of achievable counts for n subtori in T^d."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (d, n)) or d < 1 or n < 1:
        raise InvalidParams(f"need integers d >= 1 and n >= 1, got d={d!r}, n={n!r}")
    if n == 1:
        return FeasibleSet(d, n, KIND_SINGLETON_1)
    if d == 1:
        return FeasibleSet(d, n, KIND_SINGLETON_N)
    if n <= d:
        return FeasibleSet(d, n, KIND_ALL_NATURALS)
    return FeasibleSet(d, n, KIND_INTERVAL_PLUS_RAY, (n - d + 1, n), 2 * (n - d))


def feasible_contains(d: int, n: int, l: int) -> bool:
    return feasible_set(d, n).contains(l)


def parallel_bound(n: int, m: int, d: int) -> int:
    """Lower bound m(n-m-d+2) on f from a parallel class of size m.

    May be zero or negative, in which case it is vacuous.
    """
    if not 0 <= m <= n:
        raise InvalidParams(f"need 0 <= m <= n, got m={m}, n={n}")
    return m * (n - m - d + 2)


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of checking a counted arrangement against all known bounds."""

    d: int
    n: int
    f: int
    m: int
    parallel_bound: int
    parallel_ok: bool
    dichotomy_applicable: bool
    dichotomy_ok: bool
    membership_ok: bool
    fset: FeasibleSet | None

    @property
    def ok(self) -> bool:
        return self.parallel_ok and self.membership_ok and (
            not self.dichotomy_applicable or self.dichotomy_ok
        )

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "f": self.f,
            "m": self.m,
            "parallel_bound": self.parallel_bound,
            "parallel_ok": self.parallel_ok,
            "dichotomy_applicable": self.dichotomy_applicable,
            "dichotomy_ok": self.dichotomy_ok,
            "membership_ok": self.membership_ok,
            "set": self.fset.to_json() if self.fset is not None else None,
        }


def check_bounds(arr: Arrangement, f: int) -> BoundsReport:
    """Check a counted region number against every applicable bound.

    ``f`` must be the exact count for ``arr``. A failed check is reported
    and raised as TheoremViolation: since the bounds are proven, a real
    failure can only mean a counting bug, so callers should abort loudly.
    """
    n, d = arr.n, arr.dim
    m = _max_parallel_count(arr)
    bound = parallel_bound(n, m, d)
    parallel_ok = f >= bound
    applicable = n > d >= 2
    if applicable:
        dichotomy_ok = f >= 2 * n - 2 * d or (f <= n and m >= n - d + 1)
    else:
        dichotomy_ok = True
    if n >= 1:
        fset = feasible_set(d, n)
        membership_ok = fset.contains(f)
    else:
        fset = None
        membership_ok = f == 1
    report = BoundsReport(
        d=d,
        n=n,
        f=f,
        m=m,
        parallel_bound=bound,
        parallel_ok=parallel_ok,
        dichotomy_applicable=applicable,
        dichotomy_ok=dichotomy_ok,
        membership_ok=membership_ok,
        fset=fset,
    )
    if not report.ok:
        failures = []
        if not parallel_ok:
            failures.append(f"f={f} < parallel bound {bound} (m={m})")
        if applicable and not dichotomy_ok:
            failures.append(
                f"dichotomy fails: f={f} < {2 * n - 2 * d} and not (f <= {n} with m >= {n - d + 1})"
            )
        if not membership_ok:
            failures.append(f"f={f} outside achievable set {fset}")
        raise TheoremViolation(
            "counted arrangement violates proven bounds: " + "; ".join(failures),
            report=report,
        )
    return report


def _axis(d: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(d))


def construct_family_parallel(d: int, n: int, k: int) -> Arrangement:
    """k coordinate subtori x_i = 0 plus n-k parallel translates of x_{k+1}.

    The complement deformation-retracts onto a circle with n-k punctures
    crossed with lower tori, so the region count is exactly n-k.
    """
    if not (isinstance(d, int) and isinstance(n, int) and isinstance(k, int)):
        raise ParamOutOfRange("parameters must be integers")
    if d < 1 or not 0 <= k <= d - 1 or n < k + 1:
        raise ParamOutOfRange(
            f"need d >= 1, 0 <= k <= d-1 and n >= k+1, got d={d}, n={n}, k={k}"
        )
    tori = [Subtorus(_axis(d, i), Fraction(0)) for i in range(k)]
    for j in range(1, n - k + 1):
        tori.append(Subtorus(_axis(d, k), Fraction(j, n - k + 1)))
    return Arrangement(d, tuple(tori))


def construct_family_sheared(d: int, n: int, k: int) -> Arrangement:
    """Coordinate subtori x_2 = 0 ... x_d = 0, the sheared subtorus
    x_2 = k x_1 + 1/2, and n-d verticals x_1 = c_j; the region count is
    2n-2d+k.

    The verticals use c_j = j / (2(n-d)+1). The odd denominator guarantees
    k c_j + 1/2 is never an integer, which is the genericity the count
    needs (the sheared subtorus must avoid every vertical-horizontal
    crossing); the condition is still verified and BadOffsets raised if it
    ever failed. The combination n = d, k = 0 is rejected: it degenerates
    to two disjoint parallel subtori (count 2, not 0).
    """
    if not (isinstance(d, int) and isinstance(n, int) and isinstance(k, int)):
        raise ParamOutOfRange("parameters must be integers")
    if d < 2 or n < d or k < 0:
        raise ParamOutOfRange(f"need d >= 2, n >= d and k >= 0, got d={d}, n={n}, k={k}")
    if n == d and k == 0:
        raise ParamOutOfRange(
            "n = d with k = 0 degenerates to two disjoint parallel subtori; "
            "the predicted count 2n-2d+k = 0 is not a region count"
        )
    tori = [Subtorus(_axis(d, i), Fraction(0)) for i in range(1, d)]
    sheared = [0] * d
    sheared[0] = -k
    sheared[1] = 1
    tori.append(subtorus_from_equation(sheared, Fraction(1, 2)))
    denom = 2 * (n - d) + 1
    for j in range(1, n - d + 1):
        c = Fraction(j, denom)
        if (k * c + Fraction(1, 2)).denominator == 1:
            raise BadOffsets(f"offset c_{j}={c} puts the sheared subtorus through a crossing")
        tori.append(Subtorus(_axis(d, 0), c))
    return Arrangement(d, tuple(tori))


def construct_for(d: int, n: int, f_target: int, max_sheets: int | None = None) -> Arrangement:
    """An arrangement of exactly n subtori in T^d with f_target regions.

    Chooses the parallel family for n-d+1 <= f <= n, the sheared family
    for f >= 2(n-d), and for 2 <= n <= d the pair {x_2 = 0,
    x_2 = f x_1 + 1/2} padded with coordinate subtori. Every result is
    re-counted before being returned, under the sheet cap ``max_sheets``
    as in ``count_regions``; a mismatch would be a bug and raises
    RuntimeError. Raises NotFeasible when no arrangement can attain
    f_target, and ResourceCapError when the result lifts to more sheets
    than the cap.
    """
    if isinstance(f_target, bool) or not isinstance(f_target, int):
        raise InvalidParams(f"target count must be an integer, got {f_target!r}")
    fset = feasible_set(d, n)
    if not fset.contains(f_target):
        raise NotFeasible(
            f"{f_target} is not an achievable count for n={n} subtori in T^{d}; "
            f"achievable set is {fset}",
            feasible_set=fset,
        )
    if n == 1:
        arr = Arrangement(d, (Subtorus(_axis(d, 0), Fraction(0)),))
    elif d == 1:
        arr = construct_family_parallel(1, n, 0)
    elif n <= d:
        sheared = [0] * d
        sheared[0] = -f_target
        sheared[1] = 1
        tori = [
            Subtorus(_axis(d, 1), Fraction(0)),
            subtorus_from_equation(sheared, Fraction(1, 2)),
        ]
        tori.extend(Subtorus(_axis(d, i), Fraction(0)) for i in range(2, n))
        arr = Arrangement(d, tuple(tori))
    elif f_target <= n:
        arr = construct_family_parallel(d, n, n - f_target)
    else:
        arr = construct_family_sheared(d, n, f_target - 2 * (n - d))
    counted = count_regions(arr, max_sheets=max_sheets)
    if counted != f_target:
        raise RuntimeError(
            f"internal: generator produced {counted} regions instead of {f_target} "
            f"for d={d}, n={n}"
        )
    return arr
