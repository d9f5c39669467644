"""Exact Chern-number and stability calculus for weighted flags on surface
divisor configurations, with a search for the minimal c2 / norm ratio."""

__version__ = "0.1.0"

from .chern import (
    ChernReport,
    CrossingTable,
    FilteredSystemData,
    QuadraticPair,
    WeightShape,
    assemble_quadratics,
    c1_cycle,
    c2_local,
    c2_number,
    c2_trivial,
    derive_tables,
    norm_sq,
    shape_of,
)
from .errors import (
    BGIViolationError,
    CoverageError,
    DegenerateDegreeError,
    DimensionMismatchError,
    DocumentParseError,
    DocumentValidationError,
    EmptyConeError,
    FiltstabError,
    ImproperSubspaceError,
    InvariantError,
    MissingCrossingTableError,
    NoStableConfigurationError,
    ShapeMismatchError,
    SingularFormError,
    UnbalancedFiltrationError,
)
from .filtration import (
    FilteredConfiguration,
    Filtration,
    GrSpectrum,
    joint_multiplicity_table,
    joint_step_multiplicities,
)
from .linalg import Subspace, rational_from_string, rational_to_string, span
from .stability import (
    Candidates,
    Certainty,
    StabilityVerdict,
    Status,
    candidates_for,
    check_stability,
    parabolic_degree,
)
from .surface import (
    DivisorConfiguration,
    PlaneArrangement,
    blow_up,
    crossing_points,
)
from .upsilon import (
    InnerResult,
    UpsilonEstimate,
    inner_minimize,
    outer_search,
    rationalize,
    stability_cone,
)

__all__ = [name for name in dir() if not name.startswith("_")]
