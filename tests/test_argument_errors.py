"""Argument errors of the library functions, each with its message."""

import re

import numpy as np
import pytest

from ifmlab import (
    BallSpec,
    ClauseResult,
    CoordinateSpace,
    FiniteTabulated,
    SelfMap,
    audit_operator_pair,
    closed_ball_hypotheses,
    finite_tabulated,
    if_contractive_check,
    induced_from_metric,
    min_max,
    self_map_from_spec,
    sequence_diagnostics,
    t_uniform_continuity_probe,
)
from ifmlab.operators import idempotency_witness
from ifmlab.report import json_text
from ifmlab.sampling import sample_ball_pairs

LINE = induced_from_metric(CoordinateSpace(1), min_max())
HALVE = SelfMap.affine([[0.5]], [0.0])
PAIR = (0.4, 0.5)
TABULATED = finite_tabulated(FiniteTabulated(["a", "b"], {("a", "b"): PAIR}), min_max())
TABLE_MAP = SelfMap.table({"a": "a", "b": "a"})

ARGUMENT_ERRORS = {
    "affine-shapes": (lambda: SelfMap.affine([[1.0, 2.0]], [1.0]), ValueError,
                      "incompatible affine shapes: matrix (1, 2), offset (1,)"),
    "power-below-one": (lambda: HALVE.power(0), ValueError, "power exponent must be at least 1"),
    "descriptor-kinds": (lambda: self_map_from_spec({}), ValueError,
                         "map descriptor must have exactly one kind, got {}"),
    "power-not-integer": (lambda: self_map_from_spec({"power": {"of": {"builtin": "identity"}, "m": 2.0}}),
                          ValueError, "power exponent must be an integer, got 2.0"),
    "no-epsilons": (lambda: t_uniform_continuity_probe(LINE, HALVE, [], 10), ValueError,
                    "epsilons must be a nonempty collection inside (0, 1)"),
    "ball-r": (lambda: closed_ball_hypotheses(LINE, HALVE, 0.0, 1.0, 1.0, 0.5), ValueError,
               "r must lie strictly inside (0, 1), got 1.0"),
    "ball-k": (lambda: closed_ball_hypotheses(LINE, HALVE, 0.0, 0.5, 1.0, 0.0), ValueError,
               "k must lie strictly inside (0, 1), got 0.0"),
    "audit-grid": (lambda: audit_operator_pair(min_max(), 1), ValueError, "grid_size must be at least 2"),
    "audit-tolerance": (lambda: audit_operator_pair(min_max(), 5, tolerance=-1.0), ValueError,
                        "tolerance must be nonnegative"),
    "idempotency-grid": (lambda: idempotency_witness(min_max(), 1), ValueError,
                         "grid_size must be at least 2"),
    "sample-count": (lambda: CoordinateSpace(1).pairs(0, 0), ValueError, "count must be at least 1"),
    "sample-box": (lambda: CoordinateSpace(2).pairs(5, 0, (1.0, 1.0)), ValueError,
                   "sampling box must have positive width"),
    "sample-box-too-wide": (lambda: CoordinateSpace(2).pairs(5, 0, (-1e308, 1e308)), ValueError,
                            "sampling box must have a finite width that separates pairs, got inf"),
    "draw-box-too-wide": (lambda: CoordinateSpace(2).draw(np.random.default_rng(0), 5, (-1e308, 1e308)),
                          ValueError, "sampling box must have a finite width"),
    "one-label": (lambda: FiniteTabulated(["a"], {}).pairs(5, 0), ValueError,
                  "need at least two labels to sample distinct pairs"),
    "label-count": (lambda: if_contractive_check(TABULATED, TABLE_MAP, -1), ValueError,
                    "count must be at least 1"),
    "probe-count": (lambda: t_uniform_continuity_probe(TABULATED, TABLE_MAP, [0.1], -2), ValueError,
                    "count must be at least 1"),
    "ball-count": (lambda: sample_ball_pairs(LINE, BallSpec(0.0, 0.5, 1.0), -1, 1), ValueError,
                   "count must be at least 1"),
    "dimension": (lambda: CoordinateSpace(0), ValueError, "dimension must be at least 1"),
    "no-labels": (lambda: FiniteTabulated([], {}), ValueError, "at least one label is required"),
    "repeated-label": (lambda: FiniteTabulated(["a", "a"], {}), ValueError, "labels must be unique"),
    "coincident-pair": (lambda: FiniteTabulated(["a", "b"], {("a", "a"): PAIR}), ValueError,
                        "pair data for coincident labels ('a', 'a') is not allowed"),
    "duplicate-pair": (lambda: FiniteTabulated(["a", "b"], {("a", "b"): PAIR, ("b", "a"): PAIR}), ValueError,
                       "duplicate data for pair ('b', 'a')"),
    "nu-range": (lambda: FiniteTabulated(["a", "b"], {("a", "b"): (0.4, 1.0)}), ValueError,
                 "non-nearness values for pair ('a', 'b') must lie in [0, 1)"),
    "induced-domain": (lambda: induced_from_metric(FiniteTabulated(["a"], {}), min_max()), TypeError,
                       "induced_from_metric needs a CoordinateSpace domain"),
    "tabulated-domain": (lambda: finite_tabulated(CoordinateSpace(1), min_max()), TypeError,
                         "finite_tabulated needs a FiniteTabulated domain"),
    "sequence-epsilon": (lambda: sequence_diagnostics(LINE, [0.0, 0.0], epsilon=1.0), ValueError,
                         "epsilon must lie strictly inside (0, 1)"),
    "sequence-window": (lambda: sequence_diagnostics(LINE, [0.0, 0.0], window=0), ValueError,
                        "window must be at least 1"),
}


@pytest.mark.parametrize("call, error, message", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS.keys())
def test_a_bad_argument_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_reprs_name_the_map_and_the_operator_pair():
    assert repr(HALVE) == "SelfMap(affine(dim=1))"
    assert repr(min_max()) == "OperatorPair('min-max')"


def test_json_text_renders_an_object_by_its_record():
    clause = ClauseResult("identity", False, 0.25, witness={"a": np.float64(0.5)}, note="why")
    assert json_text(clause) == json_text(clause.to_record())
    assert json_text([clause]) == (
        '[{"clause": "identity", "note": "why", "verdict": "fail", "witness": {"a": 0.5}, '
        '"worst": 0.25}]')
