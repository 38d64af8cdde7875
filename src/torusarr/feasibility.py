"""Exact rational linear constraints.

``LinConstraint`` is one constraint ``normal . x  REL  rhs`` with REL in
{<, <=, =} over exact rationals; ``HPolytope`` describes an open cell as
a conjunction of them, and ``holds_at`` checks one at an exact point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import _as_fraction
from .errors import InvalidInput

_RELATIONS = ("<", "<=", "=")

feasible = None  # never called; looked up by INNER in perfbench/spans.py


@dataclass(frozen=True)
class LinConstraint:
    """One rational linear constraint ``normal . x  relation  rhs``."""

    normal: tuple[Fraction, ...]
    rhs: Fraction
    relation: str

    def __post_init__(self):
        vec = tuple(_as_fraction(x) for x in self.normal)
        if not vec:
            raise InvalidInput("empty constraint normal")
        if all(x == 0 for x in vec):
            raise InvalidInput("zero constraint normal")
        if self.relation not in _RELATIONS:
            raise InvalidInput(f"relation must be one of {_RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "normal", vec)
        object.__setattr__(self, "rhs", _as_fraction(self.rhs))

    def holds_at(self, point) -> bool:
        val = sum(a * x for a, x in zip(self.normal, point))
        if self.relation == "=":
            return val == self.rhs
        if self.relation == "<=":
            return val <= self.rhs
        return val < self.rhs
