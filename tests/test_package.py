"""The package's public surface."""

import ifmlab

# ifmlab.__all__ as it stood when the package named each export twice
PUBLIC_NAMES = [
    "AsymptoticReport", "AuditReport", "BallSpec", "ClauseResult", "ClosednessReport",
    "ContractivityReport", "CoordinateSpace", "Curve", "DEFAULT_PROBE_TS", "DomainEscapeError",
    "FiniteTabulated", "IfmSpace", "IterationTrace", "JointContinuityReport", "MembershipPair",
    "NoWitnessError", "OperatorPair", "SelfMap", "SeparationWitnesses", "SequenceReport",
    "SolveConfig", "SolveResult", "UniquenessReport", "asymptotic_nearness_probe",
    "audit_operator_pair", "axiom_audit", "ball_contains", "check_idempotent",
    "closed_ball_hypotheses", "closed_ball_solve", "closedness_probe",
    "contractive_sequence_check", "direct_ratio_contractive_check", "direct_ratio_solve",
    "evaluate", "find_separation_witnesses", "finite_tabulated", "if_contractive_check",
    "induced_from_metric", "iterate_trace", "joint_continuity_probe", "lukasiewicz",
    "membership_grid", "min_max", "operator_pair", "picard_solve", "power_map_solve",
    "product_probsum", "self_map_from_spec", "sequence_diagnostics", "t_uniform_continuity_probe",
    "time_parameter", "uniqueness_probe", "unit_scalar",
]


def test_all_names_every_export_in_its_order():
    assert ifmlab.__all__ == PUBLIC_NAMES

