"""Executable theory of intuitionistic fuzzy metric spaces.

Construct and audit spaces carrying degrees of nearness and non-nearness,
classify self-maps against sampled contraction notions, and compute fixed
points by Picard iteration with nearness-based stopping.
"""

from types import ModuleType as _ModuleType

from .operators import (
    NoWitnessError,
    OperatorPair,
    SeparationWitnesses,
    audit_operator_pair,
    check_idempotent,
    find_separation_witnesses,
    lukasiewicz,
    min_max,
    operator_pair,
    product_probsum,
    unit_scalar,
)
from .report import AuditReport, ClauseResult
from .spaces import (
    DEFAULT_PROBE_TS,
    AsymptoticReport,
    BallSpec,
    CoordinateSpace,
    Curve,
    FiniteTabulated,
    IfmSpace,
    JointContinuityReport,
    MembershipPair,
    SequenceReport,
    asymptotic_nearness_probe,
    axiom_audit,
    ball_contains,
    evaluate,
    finite_tabulated,
    induced_from_metric,
    joint_continuity_probe,
    membership_grid,
    sequence_diagnostics,
    time_parameter,
)
from .contractions import (
    ContractivityReport,
    DomainEscapeError,
    SelfMap,
    closed_ball_hypotheses,
    contractive_sequence_check,
    direct_ratio_contractive_check,
    if_contractive_check,
    self_map_from_spec,
    t_uniform_continuity_probe,
)
from .solver import (
    IterationTrace,
    SolveConfig,
    SolveResult,
    UniquenessReport,
    closed_ball_solve,
    direct_ratio_solve,
    iterate_trace,
    picard_solve,
    power_map_solve,
    uniqueness_probe,
)

__version__ = "0.1.0"

# every name imported above, in sorted order; not the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
