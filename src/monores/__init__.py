"""Exact combinatorial reduction of finite minimal supports to monomial type.

The package models manifolds whose charts differ by pure monomial maps as
label-indexed exact rational data (corner index sets plus edge exponent
matrices), blows up codimension-two boundary strata with adapted weight
families, and principalizes finitely generated monomial ideals, emitting
replayable blow-up traces.
"""

from .errors import (
    AlgorithmInvariantViolation,
    BudgetExceededError,
    ConnectivityError,
    DomainError,
    MonoresError,
    NotEffectiveError,
    SingularMatrixError,
    StructuralError,
    ZeroSeriesError,
)
from .linalg import (
    ExponentMatrix,
    ExponentVector,
    div_le,
    format_rational,
    mat_inverse,
    mat_mul,
    minimal_elements,
    parse_rational,
    vec_apply,
)
from .supports import (
    SupportSet,
    minimal_support,
    pullback_support,
    support_from_rows,
)
from .manifold import (
    Corner,
    Edge,
    MonomialManifold,
    make_corner,
    next_exceptional_label,
)
from .standardization import (
    GlobalStandardization,
    LocalStandardization,
    extend,
    validate_realizable,
)
from .blowup import (
    BlowupStep,
    Star,
    apply_center,
    blow_up,
    compose_star,
)
from .ideals import (
    DEFAULT_STEP_BUDGET,
    CornerReport,
    MFunction,
    MIdeal,
    PairState,
    PrincipalizationRun,
    adapted_standardization,
    adapted_weights,
    center_is_uncoupled_at,
    local_min_data,
    mfunction_from_corner,
    principalize_generators,
    pull_back_generators,
    pull_back_mfunction,
    uncoupled_centers,
)
from .reduction import (
    ReductionProblem,
    ReductionReport,
    build_ideal_from_support,
    reduce_problem,
)
from .oracle import numeric_oracle
from .dot import export_dot_star

__version__ = "0.1.0"
