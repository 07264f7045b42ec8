"""The package's public surface."""

import ast
import re
from pathlib import Path

import ifmlab

# ifmlab.__all__: every export, in sorted order
PUBLIC_NAMES = [
    "AsymptoticReport", "AuditReport", "BallSpec", "ClauseResult",
    "ContractivityReport", "CoordinateSpace", "Curve", "DEFAULT_PROBE_TS", "DomainEscapeError",
    "FiniteTabulated", "IfmSpace", "IterationTrace", "JointContinuityReport", "MembershipPair",
    "NoWitnessError", "OperatorPair", "SelfMap", "SeparationWitnesses", "SequenceReport",
    "SolveConfig", "SolveResult", "UniquenessReport", "asymptotic_nearness_probe",
    "audit_operator_pair", "axiom_audit", "ball_contains", "check_idempotent",
    "closed_ball_hypotheses", "closed_ball_solve",
    "contractive_sequence_check", "direct_ratio_contractive_check", "direct_ratio_solve",
    "evaluate", "find_separation_witnesses", "finite_tabulated", "if_contractive_check",
    "induced_from_metric", "iterate_trace", "joint_continuity_probe", "lukasiewicz",
    "membership_grid", "min_max", "operator_pair", "picard_solve", "power_map_solve",
    "product_probsum", "self_map_from_spec", "sequence_diagnostics", "t_uniform_continuity_probe",
    "time_parameter", "uniqueness_probe", "unit_scalar",
]


def test_all_names_every_export_in_its_order():
    assert ifmlab.__all__ == PUBLIC_NAMES


def _reached_names() -> set[str]:
    """Names loaded in a module of the package, or named in README.md or the
    acceptance tests."""
    package = Path(ifmlab.__file__).parent
    loaded = set()
    for module in package.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text() + (root / "tests" / "test_acceptance.py").read_text()
    return loaded | {name for name in ifmlab.__all__ if re.search(rf"\b{re.escape(name)}\b", text)}


def test_every_export_is_reached():
    # an export nothing in the package, the README or the acceptance tests
    # reaches has no caller and goes
    assert [name for name in ifmlab.__all__ if name not in _reached_names()] == []
