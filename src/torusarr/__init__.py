"""torusarr: exact arithmetic for arrangements of codimension-one subtori
in the flat d-torus.

The package models arrangements with primitive integer normals and
rational offsets, counts the connected components of the complement by
the toric vertex sum over the intersection points, lists one witness
point per region from an exact cell decomposition of the fundamental
cube, evaluates pairwise intersection component counts, describes the
full set of achievable region counts for given (d, n), and constructs
arrangements realizing any achievable count. All arithmetic is exact
(integers and fractions); no floating point is used anywhere.
"""

from .arrangement import (
    Arrangement,
    Subtorus,
    format_tarr,
    load_tarr,
    max_parallel_count,
    parse_tarr,
    save_tarr,
    subtorus_from_equation,
    transform,
    translate,
)
from .errors import (
    BadOffsets,
    DimensionMismatch,
    DuplicateSubtorus,
    InvalidInput,
    InvalidParams,
    NonPrimitive,
    NotFeasible,
    NotUnimodular,
    ParallelNormals,
    ParamOutOfRange,
    ParseError,
    ResourceCapError,
    TheoremViolation,
    TorusArrError,
    ZeroNormal,
)
from .feasibility import LinConstraint
from .intersection import components_coordinate, components_pair
from .lattice import (
    BezoutChain,
    bezout_chain,
    complete_to_unimodular,
    gcd_vec,
    hyperplane_metrics,
    minors2_gcd,
)
from .regions import (
    CellComplex,
    HPolytope,
    build_cells,
    count_regions,
    lift_hyperplanes,
    region_witnesses,
)
from .theory import (
    BoundsReport,
    FeasibleSet,
    check_bounds,
    construct_family_parallel,
    construct_family_sheared,
    construct_for,
    feasible_contains,
    feasible_set,
    parallel_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BadOffsets",
    "BezoutChain",
    "BoundsReport",
    "CellComplex",
    "DimensionMismatch",
    "DuplicateSubtorus",
    "FeasibleSet",
    "HPolytope",
    "InvalidInput",
    "InvalidParams",
    "LinConstraint",
    "NonPrimitive",
    "NotFeasible",
    "NotUnimodular",
    "ParallelNormals",
    "ParamOutOfRange",
    "ParseError",
    "ResourceCapError",
    "Subtorus",
    "TheoremViolation",
    "TorusArrError",
    "ZeroNormal",
    "bezout_chain",
    "build_cells",
    "check_bounds",
    "complete_to_unimodular",
    "components_coordinate",
    "components_pair",
    "construct_family_parallel",
    "construct_family_sheared",
    "construct_for",
    "count_regions",
    "feasible_contains",
    "feasible_set",
    "format_tarr",
    "gcd_vec",
    "hyperplane_metrics",
    "lift_hyperplanes",
    "load_tarr",
    "max_parallel_count",
    "minors2_gcd",
    "parallel_bound",
    "parse_tarr",
    "region_witnesses",
    "save_tarr",
    "subtorus_from_equation",
    "transform",
    "translate",
]
