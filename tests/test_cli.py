import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from ifmlab.cli import export_trace, main, trace_rows, validate_result_document
from ifmlab.config import ConfigError, _rebuild_experiment, load_config
from ifmlab.operators import BLOCK_CELLS
from ifmlab.report import format_float
from ifmlab.solver import (RESIDUAL_MISSED, IterationTrace, SolveConfig, SolveResult, inner_config, judge_trace,
                           picard_solve)
from ifmlab.spaces import _ball_flags
from ifmlab import CoordinateSpace, SelfMap, induced_from_metric, min_max

PICARD_YAML = """
seed: 11
operators: min-max
space:
  induced: {dimension: 1, base_metric: euclidean}
map:
  affine: {matrix: [[0.5]], offset: [1.0]}
action:
  solve:
    regime: picard
    x0: [0.0]
output:
  result: result.json
  trace: trace.csv
  report: report.jsonl
"""

BALL_YAML = """
seed: 23
operators: min-max
space:
  induced: {dimension: 1, base_metric: euclidean}
map:
  affine: {matrix: [[0.5]], offset: [0.4]}
action:
  solve:
    regime: closed_ball
    ball: {center: [0.0], radius: 0.5, time: 1.0}
    k: 0.5
output:
  result: ball_result.json
  trace: ball_trace.csv
  report: ball_report.jsonl
"""

VACUOUS_YAML = """
seed: 3
operators: min-max
space:
  induced: {dimension: 1, base_metric: euclidean}
map:
  affine: {matrix: [[0.5]], offset: [0.0]}
action:
  check:
    notion: direct_ratio
    include_coincident: true
output:
  report: vacuous.jsonl
"""

POWER_YAML = """
operators: min-max
space:
  induced: {dimension: 2}
map:
  affine: {matrix: [[0.0, 2.0], [0.125, 0.0]], offset: [0.0, 0.0]}
action:
  solve:
    regime: power
    m: 2
    x0: [1.0, 1.0]
output: {result: p.json, trace: p.csv, report: p.jsonl}
"""

SEQUENCE_YAML = """
operators: min-max
space:
  induced: {dimension: 1}
map:
  affine: {matrix: [[0.5]], offset: [1.0]}
action:
  check: {notion: contractive_sequence, x0: [0.0], steps: 12, k: 0.5}
output: {report: seq.jsonl}
"""

UNIFORM_YAML = """
operators: min-max
space:
  induced: {dimension: 1}
map:
  affine: {matrix: [[0.5]], offset: [0.4]}
action:
  check: {notion: t_uniform_continuity, epsilons: [0.1, 0.01]}
output: {report: uni.jsonl}
"""

SPACE_AUDIT_YAML = """
operators: min-max
space:
  induced: {dimension: 2}
action:
  audit: {target: space, samples: 40, tolerance: 1.0e-9}
output: {report: space.jsonl}
"""

OPERATOR_AUDIT_YAML = """
operators: lukasiewicz
space:
  induced: {dimension: 1}
action:
  audit: {target: operators, grid_size: 20}
output: {report: ops.jsonl}
"""

MISSING_PAIR_YAML = """
operators: min-max
space:
  tabulated:
    labels: [a, b, c]
    pairs:
      - {between: [a, b], mu: 0.4, nu: 0.5}
      - {between: [a, c], mu: 0.4, nu: 0.5}
map:
  table: {a: c, b: c, c: c}
action:
  solve: {regime: direct_ratio}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_picard_solve_exit_zero(tmp_path, capsys):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out and "fixed_point: [1.9999999990686774]" in out
    for name in ("result.json", "trace.csv", "report.jsonl"):
        assert (tmp_path / name).exists()


def test_solve_outputs_are_byte_identical_across_runs(tmp_path):
    cfg = write(tmp_path, "ball.yaml", BALL_YAML)
    for run in ("one", "two"):
        (tmp_path / run).mkdir()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / run)]) == 0
    for name in ("ball_result.json", "ball_trace.csv", "ball_report.jsonl"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


def test_validate_round_trip_and_tamper_detection(tmp_path, capsys):
    cfg = write(tmp_path, "ball.yaml", BALL_YAML)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    result_path = tmp_path / "ball_result.json"
    assert main(["validate", str(result_path)]) == 0
    assert "certificate verified" in capsys.readouterr().out

    doc = json.loads(result_path.read_text())
    doc["trace_points"][2][0] += 1e-3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["validate", str(tampered)]) == 1
    assert "trace breaks" in capsys.readouterr().out


PLANE_PICARD_YAML = PICARD_YAML.replace("dimension: 1", "dimension: 2").replace(
    "affine: {matrix: [[0.5]], offset: [1.0]}",
    "affine: {matrix: [[0.5, 0.1], [0.0, 0.4]], offset: [1.0, -1.0]}").replace("x0: [0.0]", "x0: [3.0, 2.0]")


def converged_document(directory, text=PICARD_YAML):
    """The result document of a converged solve of ``text``, written under ``directory``."""
    directory.mkdir(exist_ok=True)
    assert main(["solve", "--config", write(directory, "solve.yaml", text), "--out", str(directory)]) == 0
    doc = json.loads((directory / "result.json").read_text())
    assert doc["status"] == "converged" and 0 < doc["iterations"] < len(doc["trace_points"]) - 1
    return doc


def validate_problems(tmp_path, capsys, doc):
    """Exit code and printed certificate problems of ``validate`` on ``doc``."""
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["validate", str(path)])
    out = capsys.readouterr().out.splitlines()
    return code, [line.removeprefix("certificate problem: ") for line in out
                  if line.startswith("certificate problem: ")]


def _nudge_fixed_point(doc):
    doc["fixed_point"][0] = float(np.nextafter(doc["fixed_point"][0], np.inf))


def _tighten_epsilon(doc):
    # a tighter tolerance than the solve reached: the stored residual no longer certifies
    doc["experiment"]["solve_config"]["epsilon"] = 1e-15


def _nudge_residual(doc):
    doc["residual_nu"][0] = float(np.nextafter(doc["residual_nu"][0], np.inf))


# the two probe grids disagree: both printed "certificate verified" before
def _probe_ts_of_solve_config(doc):
    doc["experiment"]["solve_config"]["probe_ts"] = [1.0]


def _probe_ts_of_document(doc):
    doc["probe_ts"] = [1.0]
    doc["residual_mu"] = doc["residual_nu"] = None


@pytest.mark.parametrize("tamper, message", [
    (_nudge_fixed_point, "fixed_point does not match the trace at the stated iteration"),
    (_tighten_epsilon, "residual certificate fails: mu_min="),
    (_nudge_residual, "stored residual_nu does not reproduce from the stored points"),
    (_probe_ts_of_solve_config, "probe_ts differs from experiment.solve_config.probe_ts"),
    (_probe_ts_of_document, "probe_ts differs from experiment.solve_config.probe_ts"),
])
def test_validate_rejects_a_tampered_converged_document(tmp_path, capsys, tamper, message):
    doc = converged_document(tmp_path / "solve")
    tamper(doc)
    code, problems = validate_problems(tmp_path, capsys, doc)
    assert code == 1
    assert any(p.startswith(message) for p in problems), problems
    if tamper is not _nudge_fixed_point:  # the nudged candidate may also move its residual
        assert len(problems) == 1


START_MOVED = "trace_points[0] is not the solve's start, experiment.action.solve."


@pytest.mark.parametrize("text, edit, problems", [
    # printed "certificate verified" before
    pytest.param(PICARD_YAML, lambda solve: solve.update(x0=[123.0]), [START_MOVED + "x0"], id="line-moved"),
    pytest.param(PLANE_PICARD_YAML, lambda solve: solve.update(x0=[3.0, -2.0]), [START_MOVED + "x0"],
                 id="plane-moved"),
    pytest.param(PLANE_PICARD_YAML, lambda solve: solve.pop("x0"), [START_MOVED + "x0"], id="plane-absent"),
    # its x0 is the default start, the origin
    pytest.param(PICARD_YAML, lambda solve: solve.pop("x0"), [], id="line-absent"),
])
def test_validate_rejects_a_trace_that_does_not_start_at_x0(tmp_path, capsys, text, edit, problems):
    doc = converged_document(tmp_path / "solve", text)
    edit(doc["experiment"]["action"]["solve"])
    assert validate_problems(tmp_path, capsys, doc) == (1 if problems else 0, problems)


def ball_document(directory):
    directory.mkdir(exist_ok=True)
    assert main(["solve", "--config", write(directory, "ball.yaml", BALL_YAML), "--out", str(directory)]) == 0
    return json.loads((directory / "ball_result.json").read_text())


def test_validate_rejects_flipped_ball_flags(tmp_path, capsys):
    # flipping every flag of a converged closed-ball result printed "certificate verified" before
    doc = ball_document(tmp_path / "solve")
    assert validate_problems(tmp_path, capsys, doc) == (0, [])
    flags = doc["ball_flags"]
    message = "ball_flags differ from the open-ball test of the stored points"
    for tamper in ([not f for f in flags], flags[:-1], [False, *flags[1:]], None):
        code, problems = validate_problems(tmp_path, capsys, {**doc, "ball_flags": tamper})
        assert (code, problems) == (1, [message])
    # every point stays within distance 1 of either centre, so inside either open ball
    doc["experiment"]["action"]["solve"]["ball"]["center"] = [0.25]
    assert validate_problems(tmp_path, capsys, doc) == (1, [START_MOVED + "ball.center"])


def test_validate_rejects_ball_flags_on_a_solve_without_a_ball(tmp_path, capsys):
    doc = converged_document(tmp_path / "solve")
    doc["ball_flags"] = [True] * len(doc["trace_points"])
    assert validate_problems(tmp_path, capsys, doc) == (
        1, ["ball_flags differ from the open-ball test of the stored points"])


@pytest.fixture(scope="module")
def plane_document(tmp_path_factory):
    return converged_document(tmp_path_factory.mktemp("plane"), PLANE_PICARD_YAML)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(["fixed_point", "residual_mu", "residual_nu", "trace_points"]),
       up=st.booleans(), data=st.data())
def test_validate_names_a_one_ulp_move_of_a_converged_result(tmp_path, capsys, plane_document,
                                                             field, up, data):
    doc = json.loads(json.dumps(plane_document))
    if field == "trace_points":
        # a move of x_0 can vanish in the image, so the first point moved is x_1
        i = data.draw(st.integers(1, len(doc["trace_points"]) - 1))
        values, message = doc["trace_points"][i], f"trace breaks at step {i - 1}: "
    else:
        values = doc[field]
        message = ("fixed_point does not match the trace" if field == "fixed_point"
                   else f"stored {field} does not reproduce from the stored points")
    j = data.draw(st.integers(0, len(values) - 1))
    values[j] = float(np.nextafter(values[j], np.inf if up else -np.inf))
    code, problems = validate_problems(tmp_path, capsys, doc)
    assert code == 1
    assert any(p.startswith(message) for p in problems), problems


# each stop a scenario ends at: the range of s in the map x -> s x + b, the status, stop_reason's start
STOPS = {
    "window": ((0.3, 0.8), "converged", "window of"),
    "exact": ((0.0, 0.0), "converged", "exact fixed point"),
    "budget": ((0.999, 0.999), "budget_exhausted", "no fixed point"),
    "ball": ((1.0, 1.0), "diverged_from_ball", "iterate "),
    "overflow": ((1e100, 1e100), "diverged", "iterate "),
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=st.sampled_from([(regime, stop) for regime in ("picard", "power")
                                 for stop in ("window", "exact", "budget", "overflow")]
                                + [("closed_ball", stop) for stop in ("window", "exact", "budget", "ball")]),
       metric=st.sampled_from(["euclidean", "chebyshev", "absolute-difference"]), dim=st.integers(1, 3),
       window=st.integers(1, 10), epsilon=st.sampled_from([1e-8, 1e-3]), data=st.data())
def test_validate_judges_the_stop_a_solve_made(tmp_path, capsys, scenario, metric, dim, window, epsilon, data):
    # affine picard, closed_ball and power solves that stop at a window, an
    # exact fixed point, the budget, a ball exit or an overflow: the judge,
    # run on the stored trace, gives the solve's own status, stop_reason
    # and iterations, and validate finds nothing to report
    regime, stop = scenario
    (lo, hi), status, reason = STOPS[stop]
    coordinates = lambda a, b: st.lists(st.floats(a, b), min_size=dim, max_size=dim)  # noqa: E731
    scale = data.draw(st.floats(lo, hi))
    # the fixed point is the origin but for an exact one; a ball solve starts at its centre, and its
    # ball (every point within distance 9 of it) holds the iterates unless the map pushes them out
    offset = data.draw(coordinates(0.5, 1.0) if stop == "ball" else coordinates(-0.01, 0.01) if stop == "exact"
                       else st.just([0.0] * dim))
    x0 = data.draw(coordinates(0.01, 0.02) if stop == "window" else coordinates(0.5, 1.0))
    m = data.draw(st.integers(1, 2 if stop == "overflow" else 3)) if regime == "power" else 1
    solve = {"regime": regime, **({"ball": {"center": x0, "radius": 0.9, "time": 1.0}, "k": 0.5}
                                  if regime == "closed_ball" else {"x0": x0}), **({"m": m} if regime == "power" else {})}
    budget = data.draw(st.integers(1, 80)) if stop == "budget" else 10_000
    cfg = tmp_path / "judged.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"induced": {"dimension": dim, "base_metric": metric}},
        "map": {"affine": {"matrix": (scale * np.eye(dim)).tolist(), "offset": offset}},
        "action": {"solve": solve},
        "solve": {"epsilon": epsilon, "window": window, "max_iterations": budget, "hypothesis_checks": False},
        "output": {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"},
    }))
    main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "result.json").read_text())
    if doc["stop_reason"] != RESIDUAL_MISSED:
        assert (doc["status"], doc["stop_reason"][: len(reason)]) == (status, reason), doc["stop_reason"]
    space, _, step_map, config, action = _rebuild_experiment(doc["experiment"])
    points = space.domain.read(doc["trace_points"])
    ball = action.params.get("ball")
    flags = None if ball is None else _ball_flags(space, ball, points).tolist()
    judged, judged_reason, c, last = judge_trace(space, step_map, points, inner_config(config, m), flags)
    if doc["stop_reason"] == RESIDUAL_MISSED:  # the power candidate misses the original map's residual
        judged, judged_reason = "budget_exhausted", RESIDUAL_MISSED
    assert (judged, judged_reason, last if c is None else c) == (doc["status"], doc["stop_reason"], doc["iterations"])
    assert validate_result_document(doc) == []


def test_validate_huge_integer_residual_exits_two_with_its_path(tmp_path, capsys):
    # an OverflowError traceback before
    doc = converged_document(tmp_path / "solve")
    doc["residual_mu"][3] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert "residual_mu[3]: integer is too large for a float" in capsys.readouterr().err


def test_validate_unreadable_document(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2


MISSING = object()
DIVERGED = object()  # (DIVERGED, value): the field's value on the document relabelled diverged


@pytest.mark.parametrize("field, value", [
    pytest.param("document", None, id="document"),
    pytest.param("probe_ts", MISSING, id="probe_ts"),
    pytest.param("fixed_point", MISSING, id="fixed_point"),
    pytest.param("iterations", MISSING, id="iterations"),
    pytest.param("iterations", [3], id="iterations-list"),
    pytest.param("trace_points", 5, id="trace_points-number"),
    # exit 1 with "certificate problem: document carries no trace points" before
    pytest.param("trace_points", [], id="trace_points-empty"),
    pytest.param("trace_points", MISSING, id="trace_points-missing"),
    pytest.param("experiment", [1], id="experiment-list"),
    pytest.param("fixed_point", {"a": 1}, id="fixed_point-mapping"),
    pytest.param("experiment.solve_config", [1], id="solve_config-list"),
    pytest.param("trace_points", [{"a": 1}, [1.0]], id="trace_points-mapping"),
    pytest.param("experiment.space", [1], id="space-list"),
    pytest.param("experiment.map.affine", [1], id="map-affine-list"),
    pytest.param("experiment.solve_config.epsilon", 5.0, id="epsilon-above-one"),
    pytest.param("experiment.space.induced.dimension", True, id="dimension-bool"),
    pytest.param("experiment.operators", "product-probsum", id="operators-not-idempotent"),
    # a converged document with these grids printed "certificate verified"
    pytest.param("probe_ts", [], id="probe_ts-empty"),
    pytest.param("probe_ts", [0.0, 1.0], id="probe_ts-nonpositive"),
    pytest.param("probe_ts", [2.0, 1.0], id="probe_ts-decreasing"),
    pytest.param("experiment.space.induced.metric", "euclidean", id="space-unknown-key"),
    pytest.param("ball_flags", "yes", id="ball_flags-text"),
    pytest.param("experiment.action", {"audit": {"target": "space"}}, id="action-not-a-solve"),
    pytest.param("experiment.action", MISSING, id="action-missing"),
    # each exited 0 before
    pytest.param("status", 5, id="status-number"),
    pytest.param("status", None, id="status-null"),
    pytest.param("status", ["converged"], id="status-list"),
    pytest.param("iterations", (DIVERGED, "x"), id="diverged-iterations-text"),
    pytest.param("iterations", (DIVERGED, -3), id="diverged-iterations-negative"),
    pytest.param("stop_reason", 7, id="stop_reason-number"),
    pytest.param("stop_reason", MISSING, id="stop_reason-missing"),
    pytest.param("status", MISSING, id="status-missing"),
])
def test_validate_malformed_document_exits_two_with_field_path(tmp_path, capsys, field, value):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    if isinstance(value, tuple) and value[0] is DIVERGED:
        doc.update(status="diverged", fixed_point=None)
        value = value[1]
    if field == "document":
        bad = [doc]
    else:
        bad = doc
        *parents, key = field.split(".")
        for name in parents:
            doc = doc[name]
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert f"{field}: " in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("x0: [0.0]", "x0: [.nan]"),
    ("offset: [1.0]", "offset: [.inf]"),
    ("output:", "solve: {probe_ts: [1.0, .inf]}\noutput:"),
])
def test_nonfinite_config_numbers_exit_two(tmp_path, capsys, old, new):
    cfg = write(tmp_path, "bad.yaml", PICARD_YAML.replace(old, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


PLANE_CHECK_YAML = """
operators: min-max
space:
  induced: {dimension: 2}
map:
  affine: {matrix: [[0.5, 0.0], [0.0, 0.5]], offset: [0.0, 0.0]}
action:
  check: {notion: if_contractive}
output: {report: ifc.jsonl}
"""


def case(command, text, old, new, field, id):
    return pytest.param(command, text, old, new, field, id=id)


@pytest.mark.parametrize("command, text, old, new, field", [
    case("solve", PICARD_YAML, "output:", "sampling: {pairs: abc}\noutput:", "sampling.pairs",
         "pairs-string"),
    case("solve", PICARD_YAML, "output:", "sampling: {halfwidth: -1.0}\noutput:", "sampling.halfwidth",
         "halfwidth-negative"),
    case("solve", PICARD_YAML, "x0: [0.0]", "x0: [0.0, 1.0]", "action.solve.x0", "x0-dimension"),
    case("solve", BALL_YAML, "center: [0.0]", "center: {a: 1}", "action.solve.ball.center",
         "center-mapping"),
    case("solve", PICARD_YAML, "operators: min-max", "operators: [1]", "operators", "operators-list"),
    case("solve", PICARD_YAML, "output:", "solve: {probe_ts: 5}\noutput:", "solve.probe_ts",
         "probe_ts-number"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "affine: [1]", "map.affine",
         "map-affine-list"),
    # tracebacks before the action parameters were typed at load
    case("solve", PICARD_YAML, "output:", "solve: {window: 2.5}\noutput:", "solve.window", "window-float"),
    case("solve", BALL_YAML, "radius: 0.5", "radius: [0.5]", "action.solve.ball.radius", "radius-list"),
    case("check", SEQUENCE_YAML, "x0: [0.0]", "prefix: 5", "action.check.prefix", "prefix-number"),
    case("check", UNIFORM_YAML, "epsilons: [0.1, 0.01]", "epsilons: 0.1", "action.check.epsilons",
         "epsilons-number"),
    case("solve", POWER_YAML, "m: 2", "m: .inf", "action.solve.m", "m-inf"),
    case("solve", PICARD_YAML, "dimension: 1", "dimension: true", "space.induced.dimension",
         "dimension-bool"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}",
         "power: {of: {affine: {matrix: [[0.5]], offset: [1.0]}}, m: .inf}", "map.power.m",
         "map-power-inf"),
    # exits 2 without a field path before
    case("solve", BALL_YAML, "k: 0.5", "k: abc", "action.solve.k", "k-string"),
    case("solve", POWER_YAML, "m: 2", "m: 0", "action.solve.m", "m-zero"),
    case("check", SEQUENCE_YAML, "steps: 12", "steps: 0", "action.check.steps", "steps-zero"),
    case("audit", SPACE_AUDIT_YAML, "samples: 40", "samples: 0", "action.audit.samples", "samples-zero"),
    case("audit", OPERATOR_AUDIT_YAML, "grid_size: 20", "grid_size: 1", "action.audit.grid_size",
         "grid_size-one"),
    case("check", UNIFORM_YAML, "epsilons: [0.1, 0.01]", "epsilons: [2.0]", "action.check.epsilons[0]",
         "epsilons-above-one"),
    case("solve", PICARD_YAML, "seed: 11", "seed: -1", "seed", "seed-negative"),
    case("solve", PICARD_YAML, "offset: [1.0]", "offset: [[1.0]]", "map.affine.offset", "offset-nested"),
    case("solve", BALL_YAML, "operators: min-max", "operators: product-probsum", "operators",
         "operators-not-idempotent"),
    # accepted silently before
    case("solve", POWER_YAML, "m: 2", "m: 1.5", "action.solve.m", "m-float"),
    case("check", SEQUENCE_YAML, "steps: 12", "steps: 2.5", "action.check.steps", "steps-float"),
    case("audit", OPERATOR_AUDIT_YAML, "grid_size: 20", "grid_size: 2.5", "action.audit.grid_size",
         "grid_size-float"),
    case("check", VACUOUS_YAML, "include_coincident: true", "include_coincident: 'no'",
         "action.check.include_coincident", "include_coincident-string"),
    case("solve", PICARD_YAML, "output:", "solve: {hypothesis_checks: 'no'}\noutput:",
         "solve.hypothesis_checks", "hypothesis_checks-string"),
    case("solve", BALL_YAML, "k: 0.5", "kk: 0.3", "action.solve.kk", "unknown-parameter"),
    case("solve", PICARD_YAML, "output:", "solve: {sample_pairs: 5}\noutput:", "solve.sample_pairs",
         "solve-sample_pairs"),
    # ignored silently before: a misspelled key in each block
    case("solve", PICARD_YAML, "output:", "sampilng: {pairs: 5}\noutput:", "sampilng", "top-level-key"),
    case("solve", PICARD_YAML, "induced: {dimension: 1, base_metric: euclidean}",
         "induced: {dimension: 1, metric: euclidean}", "space.induced.metric", "space-induced-key"),
    case("solve", PICARD_YAML, "  induced: {dimension: 1, base_metric: euclidean}",
         "  induced: {dimension: 1, base_metric: euclidean}\n  indcued: null", "space.indcued",
         "space-key"),
    case("solve", MISSING_PAIR_YAML, "labels: [a, b, c]", "labels: [a, b, c]\n    label: [d]",
         "space.tabulated.label", "space-tabulated-key"),
    case("solve", MISSING_PAIR_YAML, "{between: [a, b], mu: 0.4, nu: 0.5}",
         "{between: [a, b], mu: 0.4, nu: 0.5, nu_: 0.5}", "space.tabulated.pairs[0].nu_",
         "space-tabulated-pair-key"),
    case("solve", PICARD_YAML, "offset: [1.0]", "offset: [1.0], ofset: [1.0]", "map.affine.ofset",
         "map-affine-key"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}",
         "power: {of: {affine: {matrix: [[0.5]], offset: [1.0], scale: 2}}, m: 2}",
         "map.power.of.affine.scale", "map-power-of-key"),
    case("solve", PICARD_YAML, "  report: report.jsonl", "  reprot: report.jsonl", "output.reprot",
         "output-key"),
    case("solve", PICARD_YAML, "    x0: [0.0]\n", "    x0: [0.0]\n  bogus: 1\n", "action.bogus", "action-key"),
    # an unhashable name must not reach a table lookup
    case("solve", PICARD_YAML, "regime: picard", "regime: [1]", "action.solve.regime", "regime-list"),
    # named the whole map before
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}",
         "power: {of: {affine: {matrix: [[0.5]], offset: [1.0]}}, m: 1.5}", "map.power.m",
         "map-power-float"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}",
         "power: {of: {affine: {matrix: [[0.5]], offset: [1.0]}}, m: true}", "map.power.m",
         "map-power-bool"),
    # turned into the strings "1", "2" before, which no point could then name
    case("solve", MISSING_PAIR_YAML, "labels: [a, b, c]", "labels: [1, b, c]", "space.tabulated.labels[0]",
         "labels-number"),
    case("solve", MISSING_PAIR_YAML, "{between: [a, b]", "{between: [a, 2]",
         "space.tabulated.pairs[0].between[1]", "between-number"),
    # a traceback (numpy's OverflowError) before
    case("solve", PICARD_YAML, "x0: [0.0]", "x0: [1" + "0" * 400 + "]", "action.solve.x0", "x0-huge-int"),
    case("solve", PICARD_YAML, "output:", "sampling: {halfwidth: 1" + "0" * 400 + "}\noutput:",
         "sampling.halfwidth", "halfwidth-huge-int"),
    case("solve", PICARD_YAML, "offset: [1.0]", "offset: [1" + "0" * 400 + "]", "map.affine.offset[0]",
         "offset-huge-int"),
    case("solve", PICARD_YAML, "matrix: [[0.5]]", "matrix: [[-1" + "0" * 400 + "]]", "map.affine.matrix[0][0]",
         "matrix-huge-int"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "constant: [1" + "0" * 400 + "]",
         "map.constant[0]", "constant-huge-int"),
    case("solve", PICARD_YAML, "output:", "solve: {probe_ts: [1.0, 1" + "0" * 400 + "]}\noutput:",
         "solve.probe_ts[1]", "probe_ts-huge-int"),
    case("solve", MISSING_PAIR_YAML, "{between: [a, b], mu: 0.4", "{between: [a, b], mu: [[1.0, 0.4], [1"
         + "0" * 400 + ", 0.5]]", "space.tabulated.pairs[0].mu[1][0]", "curve-huge-int"),
    # a traceback before: numpy's OverflowError, drawing pairs or audit points
    # in a box of infinite width, or a separation range from log(0)
    case("check", PLANE_CHECK_YAML, "output:", "sampling: {halfwidth: 1.0e+308}\noutput:",
         "sampling.halfwidth", "halfwidth-too-wide"),
    case("check", PLANE_CHECK_YAML, "output:", "sampling: {halfwidth: 1.0e-320}\noutput:",
         "sampling.halfwidth", "halfwidth-too-narrow"),
    case("audit", SPACE_AUDIT_YAML, "output:", "sampling: {halfwidth: 1.0e+308}\noutput:",
         "sampling.halfwidth", "audit-halfwidth-too-wide"),
    # rejections that no other case reached
    case("check", UNIFORM_YAML, "epsilons: [0.1, 0.01]", "epsilons: []", "action.check.epsilons",
         "epsilons-empty"),
    case("check", SEQUENCE_YAML, "x0: [0.0]", "prefix: [0.0, 1.0]", "action.check.prefix", "prefix-two-points"),
    case("solve", MISSING_PAIR_YAML, "{between: [a, b]", "{between: [a]", "space.tabulated.pairs[0].between",
         "between-one-label"),
    case("solve", PICARD_YAML, "space:\n  induced: {dimension: 1, base_metric: euclidean}", "space: {}", "space",
         "space-empty"),
    case("solve", PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "table: {a: a}", "map",
         "table-on-induced"),
    case("check", SEQUENCE_YAML, "action:\n  check: {notion: contractive_sequence, x0: [0.0], steps: 12, k: 0.5}",
         "action: {}", "action", "action-empty"),
    case("check", SEQUENCE_YAML, "map:\n  affine: {matrix: [[0.5]], offset: [1.0]}\n", "", "map", "check-no-map"),
])
def test_mistyped_config_fields_exit_two_with_field_path(tmp_path, capsys, command, text, old, new,
                                                         field):
    assert old in text
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("constant, shown", [
    # numpy's "only 0-dimensional arrays can be converted to Python scalars" before
    pytest.param("[[0.5, 0.5], [0.5, 0.5]]", "[[0.5, 0.5], [0.5, 0.5]]", id="nested"),
    pytest.param("[" + ", ".join(["[0.5]"] * 100) + "]", "[[0.5], [0.5], [0.5], [0.5], [0.5], [0.5], ...]",
                 id="nested-long"),
    pytest.param("{a: 0.5}", "{'a': 0.5}", id="mapping"),
    pytest.param("true", "True", id="bool"),
])
def test_constant_that_is_not_a_point_exits_two_at_map_constant(tmp_path, capsys, constant, shown):
    cfg = write(tmp_path, "bad.yaml", PLANE_PICARD_YAML.replace(
        "affine: {matrix: [[0.5, 0.1], [0.0, 0.4]], offset: [1.0, -1.0]}", f"constant: {constant}"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"config error: map.constant: must be a number, a list of numbers or a label, got {shown}\n"


def test_unhashable_builtin_map_exits_two_with_its_name(tmp_path, capsys):
    # Python's "unhashable type: 'list'" before
    cfg = write(tmp_path, "bad.yaml", PICARD_YAML.replace("affine: {matrix: [[0.5]], offset: [1.0]}",
                                                          "builtin: [1]"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: map: unknown builtin map [1]\n"


def test_overflowing_probe_shifts_exit_two_on_space_audit(tmp_path, capsys):
    # the sums s + t overflowed with two RuntimeWarnings, and the NaN rows
    # they left were dropped, so both triangle clauses passed
    cfg = write(tmp_path, "bad.yaml", SPACE_AUDIT_YAML.replace(
        "output:", "solve: {probe_ts: [1.0, 1.0e+308, 1.7e+308]}\noutput:"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: solve.probe_ts: ")


@pytest.mark.parametrize("command, text, old, new", [
    # scalars on a line read as points, as x0 and ball centres do
    pytest.param("check", SEQUENCE_YAML, "x0: [0.0]", "prefix: [0.0, 1.0, 1.5, 1.75]",
                 id="scalar-prefix-on-line"),
    # null or an empty probe grid keeps the default grid
    pytest.param("solve", PICARD_YAML, "output:", "solve: {probe_ts: []}\noutput:", id="probe_ts-empty"),
    pytest.param("solve", PICARD_YAML, "output:", "solve: {probe_ts: null}\noutput:", id="probe_ts-null"),
])
def test_lenient_config_forms_still_run(tmp_path, command, text, old, new):
    assert old in text
    cfg = write(tmp_path, "ok.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    if command == "solve":
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["probe_ts"] == list(SolveConfig().probe_ts)


def test_vacuous_check_exits_one_with_note(tmp_path, capsys):
    cfg = write(tmp_path, "vacuous.yaml", VACUOUS_YAML)
    code = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "vacuous" in capsys.readouterr().out
    record = json.loads((tmp_path / "vacuous.jsonl").read_text())
    assert record["verdict"] == "vacuous"
    assert "k < 1" in record["note"]


def test_missing_pair_config_is_input_error(tmp_path, capsys):
    cfg = write(tmp_path, "missing.yaml", MISSING_PAIR_YAML)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "space.tabulated" in err and "missing curve data" in err


def test_malformed_yaml_is_input_error(tmp_path, capsys):
    cfg = write(tmp_path, "broken.yaml", "space: {induced: [unclosed")
    assert main(["solve", "--config", cfg]) == 2
    assert "YAML parse error" in capsys.readouterr().err


def test_subcommand_must_match_action(tmp_path, capsys):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    assert main(["audit", "--config", cfg]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "99"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"]) == 0
    assert (tmp_path / "a" / "result.json").read_bytes() == (tmp_path / "b" / "result.json").read_bytes()


def test_seed_flag_matches_config_seed_for_sampled_check(tmp_path):
    check_yaml = VACUOUS_YAML.replace("include_coincident: true", "include_coincident: false")
    flagged = write(tmp_path, "one.yaml", check_yaml.replace("seed: 3", "seed: 1"))
    written = write(tmp_path, "seven.yaml", check_yaml.replace("seed: 3", "seed: 7"))
    for run, argv in (("flag", [flagged, "--seed", "7"]), ("config", [written]),
                      ("other", [flagged])):
        (tmp_path / run).mkdir()
        main(["check", "--config", *argv, "--out", str(tmp_path / run)])
    report = (tmp_path / "flag" / "vacuous.jsonl").read_bytes()
    assert report == (tmp_path / "config" / "vacuous.jsonl").read_bytes()
    assert report != (tmp_path / "other" / "vacuous.jsonl").read_bytes()


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    env_dir = tmp_path / "from_env"
    env_dir.mkdir()
    monkeypatch.setenv("IFMLAB_OUT", str(env_dir))
    assert main(["solve", "--config", cfg]) == 0
    assert (env_dir / "result.json").exists()
    # an explicit flag wins over the environment
    flag_dir = tmp_path / "from_flag"
    flag_dir.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "result.json").exists()
    # an absolute path ignores both
    absolute = tmp_path / "absolute.json"
    cfg = write(tmp_path, "absolute.yaml", PICARD_YAML.replace("result: result.json", f"result: {absolute}"))
    assert main(["solve", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert absolute.exists() and not (flag_dir / "absolute.json").exists()


def test_no_hypothesis_checks_flag(tmp_path):
    shift_yaml = PICARD_YAML.replace("offset: [1.0]", "offset: [1.0]").replace(
        "matrix: [[0.5]]", "matrix: [[1.0]]"
    )
    cfg = write(tmp_path, "shift.yaml", shift_yaml + "solve:\n  max_iterations: 40\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "hypothesis_failed"

    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--no-hypothesis-checks"]) == 1
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "budget_exhausted"
    assert len(doc["trace_points"]) == 41


def test_overflowing_solve_is_diverged_with_files_written(tmp_path, capsys):
    cfg = write(tmp_path, "expand.yaml", PICARD_YAML.replace("[[0.5]]", "[[3.0]]"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--no-hypothesis-checks"]) == 1
    assert caught == []
    assert "solve.picard: diverged" in capsys.readouterr().out
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "diverged" and doc["fixed_point"] is None
    assert doc["iterations"] == len(doc["trace_points"]) - 1 > 0
    assert np.all(np.isfinite(doc["trace_points"]))
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) == len(doc["trace_points"]) + 1
    record = json.loads((tmp_path / "report.jsonl").read_text())
    assert record["verdict"] == "diverged" and "overflowed" in record["note"]
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "result.json")]) == 0
    out = capsys.readouterr().out
    assert "'diverged' carries no residual certificate" in out and "residual bounds" not in out


def test_wrong_shape_image_stays_a_domain_error(tmp_path, capsys):
    cfg = write(tmp_path, "shape.yaml", PICARD_YAML.replace(
        "affine: {matrix: [[0.5]], offset: [1.0]}", "constant: [1.0, 2.0]"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--no-hypothesis-checks"]) == 2
    assert "domain error" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_audit_subcommands(tmp_path, capsys):
    operators_yaml = """
operators: lukasiewicz
space:
  induced: {dimension: 1}
action:
  audit: {target: operators, grid_size: 60, tolerance: 1.0e-12}
output:
  report: ops.jsonl
"""
    cfg = write(tmp_path, "ops.yaml", operators_yaml)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ops.jsonl").read_text().splitlines()
    assert len(lines) == 12  # six clauses per operator
    assert all(json.loads(ln)["verdict"] == "pass" for ln in lines)

    space_yaml = """
operators: min-max
space:
  induced: {dimension: 2}
action:
  audit: {target: space, samples: 400, tolerance: 1.0e-9}
output:
  report: space.jsonl
"""
    cfg = write(tmp_path, "space.yaml", space_yaml)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 0
    clauses = [json.loads(ln)["clause"] for ln in (tmp_path / "space.jsonl").read_text().splitlines()]
    assert "mu_triangle" in clauses and "nu_nonincreasing_t" in clauses


def test_check_sequence_via_cli(tmp_path):
    seq_yaml = """
operators: min-max
space:
  induced: {dimension: 1}
map:
  affine: {matrix: [[0.5]], offset: [1.0]}
action:
  check:
    notion: contractive_sequence
    x0: [0.0]
    steps: 12
    k: 0.5
output:
  report: seq.jsonl
"""
    cfg = write(tmp_path, "seq.yaml", seq_yaml)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "seq.jsonl").read_text())
    assert record["verdict"] == "pass"


def test_check_notions_via_cli(tmp_path):
    base = """
operators: min-max
space:
  induced: {dimension: 1}
map:
  affine: {matrix: [[0.5]], offset: [0.4]}
"""
    hyp_yaml = base + """
action:
  check:
    notion: closed_ball_hypotheses
    ball: {center: [0.0], radius: 0.5, time: 1.0}
    k: 0.5
output: {report: hyp.jsonl}
"""
    cfg = write(tmp_path, "hyp.yaml", hyp_yaml)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "hyp.jsonl").read_text())
    assert record["details"]["nu_lhs"] == 2.5

    contractive_yaml = base + """
action:
  check: {notion: if_contractive}
output: {report: ifc.jsonl}
"""
    cfg = write(tmp_path, "ifc.yaml", contractive_yaml)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "ifc.jsonl").read_text())
    assert abs(record["estimated_k"] - 0.5) < 1e-6

    uniform_yaml = base + """
action:
  check:
    notion: t_uniform_continuity
    epsilons: [0.1, 0.01]
output: {report: uni.jsonl}
"""
    cfg = write(tmp_path, "uni.yaml", uniform_yaml)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "uni.jsonl").read_text())
    assert len(record["details"]["table"]) == 2


def test_power_solve_via_cli(tmp_path):
    power_yaml = """
operators: min-max
space:
  induced: {dimension: 2}
map:
  power:
    of: {affine: {matrix: [[0.0, 2.0], [0.125, 0.0]], offset: [0.0, 0.0]}}
    m: 1
action:
  solve:
    regime: power
    m: 2
    x0: [1.0, 1.0]
output: {result: p.json, trace: p.csv, report: p.jsonl}
"""
    cfg = write(tmp_path, "power.yaml", power_yaml)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["status"] == "converged"
    assert abs(doc["fixed_point"][0]) <= 1e-8
    assert main(["validate", str(tmp_path / "p.json")]) == 0


def _edit_m(exp):
    exp["iteration_map"]["power"]["m"] = 3


def _use_original_map(exp):
    exp["iteration_map"] = exp["map"]


def _drop_iteration_map(exp):
    del exp["iteration_map"]


@pytest.mark.parametrize("tamper", [_edit_m, _use_original_map, _drop_iteration_map])
def test_power_validate_checks_chain_with_iteration_map(tmp_path, capsys, tamper):
    # The power trace steps with T^2, so any other step map breaks the chain
    # at once; validate must not accept the trace against a weaker map.
    cfg = write(tmp_path, "power.yaml", POWER_YAML)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["experiment"]["iteration_map"] == {"power": {"of": doc["experiment"]["map"], "m": 2}}
    assert main(["validate", str(tmp_path / "p.json")]) == 0
    capsys.readouterr()

    tamper(doc["experiment"])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["validate", str(tampered)]) == 1
    assert "trace breaks at step 0" in capsys.readouterr().out


def test_tabulated_direct_ratio_solve_via_cli(tmp_path):
    tab_yaml = """
operators: min-max
space:
  tabulated:
    labels: [a, b, c]
    pairs:
      - {between: [a, b], mu: 0.4, nu: 0.5}
      - {between: [a, c], mu: 0.4, nu: 0.5}
      - {between: [b, c], mu: 0.4, nu: 0.5}
map:
  table: {a: c, b: c, c: c}
action:
  solve: {regime: direct_ratio}
output: {result: t.json, trace: t.csv, report: t.jsonl}
"""
    cfg = write(tmp_path, "tab.yaml", tab_yaml)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["status"] == "converged" and doc["fixed_point"] == "c"
    assert doc["iterations"] == 1
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert rows[1].startswith("0,a") and rows[2].startswith("1,c")
    assert main(["validate", str(tmp_path / "t.json")]) == 0


COMMA_LABELS_YAML = """
operators: min-max
space:
  tabulated:
    labels: ["a,b", 'q"t', c]
    pairs:
      - {between: ["a,b", 'q"t'], mu: 0.5, nu: 0.4}
      - {between: ["a,b", c], mu: 0.5, nu: 0.4}
      - {between: ['q"t', c], mu: 0.5, nu: 0.4}
map:
  table: {"a,b": 'q"t', 'q"t': c, c: c}
action:
  solve: {regime: picard, x0: "a,b"}
solve: {hypothesis_checks: false}
output: {result: r.json, trace: t.csv, report: r.jsonl}
"""


def test_trace_quotes_label_cells_that_hold_a_comma_or_a_quote(tmp_path):
    cfg = write(tmp_path, "comma.yaml", COMMA_LABELS_YAML)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "t.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert len(header) == 22 and all(len(row) == len(header) for row in rows)
    assert [row[1] for row in rows] == ["a,b", 'q"t', "c", "c"]
    text = (tmp_path / "t.csv").read_text()
    assert '\n0,"a,b",0.5,' in text and '\n1,"q""t",0.5,' in text and "\n2,c,1," in text
    assert main(["validate", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("text, command", [
    pytest.param(MISSING_PAIR_YAML.replace(
        "      - {between: [a, c], mu: 0.4, nu: 0.5}\n",
        "      - {between: [a, c], mu: 0.4, nu: 0.5}\n      - {between: [b, c], mu: 0.4, nu: 0.5}\n"),
        "solve", id="tabulated-solve"),
    pytest.param(PICARD_YAML, "solve", id="picard-solve"),
    pytest.param(SEQUENCE_YAML, "check", id="sequence-check"),
    pytest.param(SPACE_AUDIT_YAML, "audit", id="space-audit"),
])
def test_each_run_builds_its_point_domain_once(tmp_path, monkeypatch, text, command):
    import ifmlab.config

    built = []

    def counted(domain_class):
        class Counted(domain_class):
            def __init__(self, *args):
                built.append(domain_class.__name__)
                super().__init__(*args)
        return Counted

    for name in ("CoordinateSpace", "FiniteTabulated"):
        monkeypatch.setattr(ifmlab.config, name, counted(getattr(ifmlab.config, name)))
    cfg = write(tmp_path, "run.yaml", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    if command == "solve":
        result = next(tmp_path.glob("*.json"))
        assert main(["validate", str(result)]) == 0
        assert len(built) == 2


@pytest.mark.parametrize("text, command, trims", [
    pytest.param(OPERATOR_AUDIT_YAML, "audit", [0], id="operator-audit"),
    pytest.param(SPACE_AUDIT_YAML, "audit", [0], id="space-audit"),
    pytest.param(SEQUENCE_YAML, "check", [], id="sequence-check"),
])
def test_an_audit_hands_its_freed_heap_back(tmp_path, monkeypatch, text, command, trims):
    import ifmlab.cli

    calls = []
    monkeypatch.setattr(ifmlab.cli, "_malloc_trim", calls.append)
    cfg = write(tmp_path, "run.yaml", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == trims


def test_defaults_subcommand(tmp_path, capsys):
    assert main(["defaults"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probe_ts"][0] == 0.1 and len(doc["probe_ts"]) == 10
    assert doc["solve"]["epsilon"] == 1e-8 and doc["solve"]["window"] == 8
    out_file = tmp_path / "defaults.json"
    assert main(["defaults", "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["solve"]["max_iterations"] == 10000


def test_console_script_entry_point(tmp_path):
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    proc = subprocess.run(
        [sys.executable, "-m", "ifmlab.cli", "solve", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "converged" in proc.stdout


def test_export_trace_zero_iteration_single_row(tmp_path, line):
    # the identity fails the contraction gate, so the solve stops at x0
    result = picard_solve(line, SelfMap.affine([[1.0]], [0.0]), 0.0)
    assert result.status == "hypothesis_failed" and result.iterations == 0
    path = export_trace(result, str(tmp_path / "zero.csv"))
    lines = open(path).read().splitlines()
    assert len(lines) == 2  # header plus the single starting row
    assert lines[1].startswith("0,0,")


def test_export_trace_ball_flag_column(tmp_path, line):
    from ifmlab import BallSpec, closed_ball_solve

    result = closed_ball_solve(line, SelfMap.affine([[0.5]], [0.4]),
                               BallSpec(0.0, 0.5, 1.0), k=0.5)
    path = export_trace(result, str(tmp_path / "ball.csv"))
    lines = open(path).read().splitlines()
    assert lines[0].endswith(",in_ball")
    assert all(ln.endswith(",true") for ln in lines[1:])


def test_export_trace_17_digit_round_trip(tmp_path, line, half_plus_one):
    result = picard_solve(line, half_plus_one, 0.0)
    path = export_trace(result, str(tmp_path / "t.csv"))
    lines = open(path).read().splitlines()
    first_rows = [ln.split(",")[1] for ln in lines[1:5]]
    assert [float(v) for v in first_rows] == [0.0, 1.0, 1.5, 1.75]
    # stored step values round-trip to the exact stored doubles
    row1 = lines[1].split(",")
    assert float(row1[2]) == result.trace.step_mu[0, 0]


def test_unwritable_output_path_is_input_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    cfg = write(tmp_path, "picard.yaml", PICARD_YAML)
    code = main(["solve", "--config", cfg, "--out", str(blocker)])
    assert code == 2


def test_defaults_out_to_a_directory_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    # IsADirectoryError reached the user as a traceback, exit 1, before
    target = tmp_path / "out"
    target.mkdir()
    assert main(["defaults", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(target.iterdir()) == []


def _alias_chain(depth):
    # a YAML flow list whose last entry is nested `depth` deep through
    # anchors, each one level on the one before, so parsing stays shallow
    return "[&d0 [1.0], " + ", ".join(f"&d{i} [*d{i - 1}]" for i in range(1, depth)) + "]"


@pytest.mark.parametrize("text", [
    # yaml.safe_load recursed past the interpreter's limit
    pytest.param("space: " + "[" * 5000 + "]" * 5000 + "\n", id="deep-list-in-yaml"),
    # the map's constant, nested through aliases parked in the seed, which
    # is checked after the map, recursed past the limit in validation
    pytest.param(f"seed: {_alias_chain(5000)}\n" + PICARD_YAML.replace("seed: 11\n", "").replace(
        "affine: {matrix: [[0.5]], offset: [1.0]}", "constant: *d4999"), id="deep-constant-in-validation"),
])
def test_deeply_nested_config_exits_two_at_config(tmp_path, capsys, text):
    cfg = write(tmp_path, "deep.yaml", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: config: nested too deeply to read\n"


def test_deeply_nested_result_document_exits_two(tmp_path, capsys):
    path = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read result document: ")


def _alias_fan(depth, width=10):
    # a YAML flow list of `depth` anchors, each a list of `width` aliases of
    # the one before, so it expands to about width**depth nodes
    levels = ["&f0 [" + ", ".join(["0.5"] * width) + "]"]
    levels += [f"&f{i} [" + ", ".join([f"*f{i - 1}"] * width) + "]" for i in range(1, depth)]
    return "[" + ", ".join(levels) + "]"


def test_config_over_the_alias_node_budget_exits_two_at_config(tmp_path, capsys):
    # validation walked the 1.1e8 expanded nodes, ten times the time and
    # memory per level (0.9 s at depth 6), and failed with numpy's message
    text = PICARD_YAML.replace("affine: {matrix: [[0.5]], offset: [1.0]}", f"constant: {_alias_fan(8)}")
    cfg = write(tmp_path, "fan.yaml", text)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == \
        "config error: config: expands to more than 10,000,000 nodes through YAML aliases\n"
    assert elapsed < 1.0 and peak < 4 * 2**20
    assert not (tmp_path / "result.json").exists()


def test_aliased_config_under_the_node_budget_runs(tmp_path):
    text = PICARD_YAML.replace("offset: [1.0]", "offset: &start [1.0]").replace("x0: [0.0]", "x0: *start")
    assert main(["solve", "--config", write(tmp_path, "aliased.yaml", text), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "result.json").read_text())["trace_points"][0] == [1.0]


def test_a_size_too_large_to_allocate_exits_two(tmp_path, capsys):
    # numpy's _ArrayMemoryError reached the user as a traceback, exit 1,
    # before; 2**54 two-coordinate samples are 2**58 bytes, which numpy
    # refuses without allocating
    cfg = write(tmp_path, "huge.yaml", SPACE_AUDIT_YAML.replace("samples: 40", f"samples: {2**54}"))
    assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "space.jsonl").exists()


def test_space_audit_with_a_pair_that_is_not_idempotent_exits_two_at_operators(tmp_path, capsys):
    cfg = write(tmp_path, "pp.yaml", SPACE_AUDIT_YAML.replace("min-max", "product-probsum"))
    assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: operators: operator pair 'product-probsum' is not idempotent (tnorm witness "
        "{'a': 0.5, 'violation': 0.25}, tconorm witness {'a': 0.5, 'violation': 0.25}); "
        "spaces require idempotent operators\n")


def test_config_validation_details(tmp_path):
    with pytest.raises(ConfigError, match="action"):
        load_config(write(tmp_path, "noaction.yaml", "space:\n  induced: {dimension: 1}\n"))
    with pytest.raises(ConfigError, match="map.affine.matrix"):
        load_config(write(tmp_path, "badmap.yaml", """
space:
  induced: {dimension: 2}
map:
  affine: {matrix: [[0.5]], offset: [0.0]}
action:
  solve: {regime: picard}
"""))
    with pytest.raises(ConfigError, match="file not found"):
        load_config(str(tmp_path / "missing.yaml"))
    with pytest.raises(ConfigError, match="notion"):
        load_config(write(tmp_path, "badnotion.yaml", """
space:
  induced: {dimension: 1}
map:
  builtin: identity
action:
  check: {notion: banach}
"""))


# a tabulated curve or a map body of the wrong form names its field
TABULATED_YAML = MISSING_PAIR_YAML.replace(
    "      - {between: [a, c], mu: 0.4, nu: 0.5}\n",
    "      - {between: [a, c], mu: 0.4, nu: 0.5}\n      - {between: [b, c], mu: 0.4, nu: 0.5}\n")
CURVE = "a curve is a constant or a list of [t, value] pairs"
MISSING_FIELD = "required field is missing"


@pytest.mark.parametrize("text, old, new, field, message", [
    # a TypeError traceback before
    pytest.param(TABULATED_YAML, "mu: 0.4", "mu: [1, 2]", "space.tabulated.pairs[0].mu", CURVE,
                 id="curve-numbers"),
    # Python's unpacking text on space.tabulated before
    pytest.param(TABULATED_YAML, "mu: 0.4", "mu: abc", "space.tabulated.pairs[0].mu", CURVE,
                 id="curve-text"),
    pytest.param(TABULATED_YAML, "nu: 0.5", "nu: [[1, 2, 3]]", "space.tabulated.pairs[0].nu", CURVE,
                 id="curve-triple"),
    # the bare KeyError text on the whole map before
    pytest.param(PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "affine: {matrix: [[0.5]]}",
                 "map.affine.offset", MISSING_FIELD, id="affine-offset"),
    pytest.param(PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "affine: {offset: [1.0]}",
                 "map.affine.matrix", MISSING_FIELD, id="affine-matrix"),
    # Python's subscript text on the whole map before
    pytest.param(PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "affine: null",
                 "map.affine.matrix", MISSING_FIELD, id="affine-null"),
    pytest.param(PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}", "power: {m: 2}",
                 "map.power.of", MISSING_FIELD, id="power-of"),
    pytest.param(PICARD_YAML, "affine: {matrix: [[0.5]], offset: [1.0]}",
                 "power: {of: {affine: {matrix: [[0.5]], offset: [1.0]}}}", "map.power.m", MISSING_FIELD,
                 id="power-m"),
])
def test_malformed_curve_or_map_body_names_its_field(tmp_path, capsys, text, old, new, field, message):
    assert old in text
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new, 1))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: {message}")


def test_tabulated_config_of_the_curve_cases_runs(tmp_path):
    cfg = write(tmp_path, "ok.yaml", TABULATED_YAML)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0


def csv_cell(text):
    """``text`` as the csv module writes it as one of several cells."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue().removesuffix(",\r\n")


def reference_trace_lines(result):
    """Lines of the tabular trace with one format_float call per cell."""
    trace = result.trace
    ts = trace.probe_ts
    first = trace.points[0] if trace.points else None
    coordinate = not isinstance(first, str)
    if coordinate:
        dim = int(np.atleast_1d(np.asarray(first, float)).shape[0]) if first is not None else 0
        point_cols = [f"x{i}" for i in range(dim)]
    else:
        point_cols = ["label"]
    header = ["iteration", *point_cols]
    header += [f"{side}@t={format_float(float(t))}" for side in ("mu", "nu") for t in ts]
    if trace.ball_flags is not None:
        header.append("in_ball")
    rows = []
    n_steps = trace.step_mu.shape[0]
    for i, p in enumerate(trace.points):
        row = [str(i)]
        if coordinate:
            row.extend(format_float(float(v)) for v in np.atleast_1d(np.asarray(p, float)))
        else:
            row.append(csv_cell(str(p)))
        if i < n_steps:
            row.extend(format_float(float(v)) for side in (trace.step_mu, trace.step_nu) for v in side[i])
        else:
            row.extend("" for _ in range(2 * len(ts)))
        if trace.ball_flags is not None:
            row.append(str(trace.ball_flags[i]).lower() if i < len(trace.ball_flags) else "")
        rows.append(row)
    return [",".join(header), *(",".join(r) for r in rows)]


cell = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


# no shrink phase: each multi-block example renders a reference trace of a
# thousand rows cell by cell, and shrinking a failure took minutes
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(dim=st.integers(0, 3), k=st.integers(1, 4), flags=st.booleans(), blocks=st.sampled_from([0, 3, 4]),
       stepped_last=st.booleans(), seed=st.integers(0, 2**16), data=st.data())
def test_trace_rows_match_per_cell_rendering(dim, k, flags, blocks, stepped_last, seed, data):
    # a small trace draws every cell; one of 3 or 4 writer blocks and a part
    # spreads drawn cells over seeded ones of every magnitude, so whole
    # blocks go through the writer's exact path and are written as rendered
    rng = np.random.default_rng(seed)
    if blocks:
        n = blocks * trace_block(dim, k) + data.draw(st.integers(0, trace_block(dim, k) - 1))
        pool = np.asarray(data.draw(st.lists(cell, min_size=1, max_size=8)))

        def cells(count):
            values = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-30, 30, count)
            drawn = rng.random(count) < 0.1
            values[drawn] = pool[rng.integers(0, len(pool), drawn.sum())]
            return values
    else:
        n = data.draw(st.integers(1, 6))

        def cells(count):
            return np.asarray(data.draw(st.lists(cell, min_size=count, max_size=count)), float)
    if dim == 0:
        points = [LABELS[i] for i in rng.integers(0, len(LABELS), n)]
    else:
        points = list(cells(n * dim).reshape(n, dim))
    ts = tuple(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k, unique=True)))
    # a solve's trace has no step cells in its last row; a trace may have them
    steps = n if stepped_last else n - 1
    step_mu, step_nu = (cells(steps * k).reshape(steps, k) for _ in range(2))
    ball_flags = rng.integers(0, 2, n).astype(bool).tolist() if flags else None
    trace = IterationTrace(points, ts, step_mu, step_nu, ball_flags)
    result = SolveResult("budget_exhausted", None, n - 1, trace, "")
    texts = trace_rows(result)
    assert all(text.endswith("\n") for text in texts)
    assert "".join(texts) == "".join(line + "\n" for line in reference_trace_lines(result))


def trace_block(dim, k):
    """Rows per rendering block of a trace of ``dim`` coordinates and ``k`` probe times."""
    return max(1, BLOCK_CELLS // (8 * (1 + dim + 2 * k)))


# labels that need CSV quoting, and plain ones
LABELS = ["a,b", 'q"t', "line\nbreak", "cr\rx", "plain", "c"]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0, 1e300]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(0, 3), k=st.integers(1, 4), flags=st.booleans(), seed=st.integers(0, 2**16),
       data=st.data())
def test_tabular_export_matches_per_cell_rendering_across_row_blocks(tmp_path, dim, k, flags, seed, data):
    block = trace_block(dim, k)
    n = data.draw(st.sampled_from([1, block - 1, block, block + 1, 3 * block + 2]))
    rng = np.random.default_rng(seed)
    if dim == 0:
        points = [LABELS[i] for i in rng.integers(0, len(LABELS), n)]
    else:
        coords = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.integers(-30, 30, (n, dim))
        points = list(coords)
    step_mu, step_nu = rng.uniform(0.0, 1.0, (2, n - 1, k))
    # NaN, infinities and other special cells in points and step rows, near
    # block edges and anywhere
    edges = [r for r in (block - 1, block, block + 1) if r < n]
    for _ in range(data.draw(st.integers(0, 6))):
        value = data.draw(st.sampled_from(SPECIAL))
        row = data.draw(st.sampled_from(edges or [0]) | st.integers(0, n - 1))
        grid = data.draw(st.sampled_from(["point", "mu", "nu"]))
        if grid == "point" and dim:
            points[row][data.draw(st.integers(0, dim - 1))] = value
        elif grid != "point" and row < n - 1:
            (step_mu if grid == "mu" else step_nu)[row, data.draw(st.integers(0, k - 1))] = value
    ts = tuple(sorted(rng.uniform(1e-3, 1e3, k)))
    ball_flags = rng.integers(0, 2, n).astype(bool).tolist() if flags else None
    result = SolveResult("budget_exhausted", None, n - 1,
                         IterationTrace(points, ts, step_mu, step_nu, ball_flags), "")
    path = export_trace(result, str(tmp_path / "trace.csv"))
    with open(path, "rb") as handle:
        assert handle.read() == ("\n".join(reference_trace_lines(result)) + "\n").encode()


def test_tabular_export_memory_stays_bounded(tmp_path):
    # 5.84 MiB when every point and step row became a Python list at once,
    # 4.79 MiB with the rendered lines (2.5 MiB) and the file's text (2.2 MiB);
    # now 4.52 MiB, the rendered blocks' text and the file's text (2.2 MiB
    # each); the bound sits between the first two
    n, k = 5_000, len(SolveConfig().probe_ts)
    rng = np.random.default_rng(1)
    step_mu = rng.uniform(0.0, 1.0, (n - 1, k))
    trace = IterationTrace(list(rng.uniform(-3.0, 3.0, (n, 3))), SolveConfig().probe_ts, step_mu,
                           1.0 - step_mu)
    result = SolveResult("budget_exhausted", None, n - 1, trace, "")
    tracemalloc.start()
    try:
        export_trace(result, str(tmp_path / "trace.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2**20


# a random affine contraction rho * P * diag(s) with a signed permutation P
# and 0 <= s <= 1, so rho bounds its Lipschitz constant in every base metric
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(1, 3), metric=st.sampled_from(["euclidean", "chebyshev", "absolute-difference"]),
       rho=st.floats(0.3, 0.95), seed=st.integers(0, 1000), data=st.data())
def test_random_contraction_round_trips_through_cli(tmp_path, capsys, dim, metric, rho, seed, data):
    unit = st.floats(0.0, 1.0)
    perm = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
    scales = data.draw(st.lists(unit, min_size=dim, max_size=dim))
    matrix = np.zeros((dim, dim))
    matrix[np.arange(dim), perm] = rho * np.asarray(signs) * np.asarray(scales)
    coords = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)
    config = {
        "seed": seed, "space": {"induced": {"dimension": dim, "base_metric": metric}},
        "map": {"affine": {"matrix": matrix.tolist(), "offset": data.draw(coords)}},
        "action": {"solve": {"regime": "picard", "x0": data.draw(coords)}},
        "output": {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"},
    }
    cfg = tmp_path / "contraction.yaml"
    cfg.write_text(yaml.safe_dump(config))
    runs = [tmp_path / "one", tmp_path / "two"]
    for out in runs:
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("result.json", "trace.csv", "report.jsonl"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    assert main(["validate", str(runs[0] / "result.json")]) == 0

    text = (runs[0] / "result.json").read_bytes()
    cut = tmp_path / "cut.json"
    cut.write_bytes(text[: data.draw(st.integers(0, len(text.rstrip()) - 1))])
    capsys.readouterr()
    assert main(["validate", str(cut)]) in (1, 2)
    assert "Traceback" not in capsys.readouterr().err


COUNTED_SOLVE_YAML = """
seed: 11
operators: min-max
space:
  induced: {dimension: 1, base_metric: euclidean}
map:
  affine: {matrix: [[0.99]], offset: [0.0]}
action:
  solve: {regime: picard, x0: [5.0]}
output: {result: result.json, trace: trace.csv}
"""


def count_map_and_kernel_calls(monkeypatch):
    """Counters, from here on, of apply_point calls, kernel calls and the
    calls of an affine map's exact forms: ``_rows``, and ``_chain`` with
    the steps it maps (``chain_steps``)."""
    import ifmlab.contractions
    from ifmlab import IfmSpace, SelfMap

    calls = {"apply_point": 0, "mu_nu": 0, "rows": 0, "chain": 0, "chain_steps": 0}
    apply_point, kernel, affine = ifmlab.contractions.apply_point, IfmSpace.mu_nu, SelfMap.affine.__func__

    def counted_affine(cls, *args):
        map_ = affine(cls, *args)
        rows, chain = map_._rows, map_._chain

        def counted_rows(xs):
            calls["rows"] += 1
            return rows(xs)

        def counted_chain(x, n):
            calls["chain"] += 1
            calls["chain_steps"] += n
            return chain(x, n)

        map_._rows, map_._chain = counted_rows, counted_chain
        return map_

    def counted_apply_point(*args):
        calls["apply_point"] += 1
        return apply_point(*args)

    def counted_kernel(space, x, y, t):
        calls["mu_nu"] += 1
        return kernel(space, x, y, t)

    holders = [(module, key) for name, module in sorted(sys.modules.items())
               if name == "ifmlab" or name.startswith("ifmlab.")
               for key, value in vars(module).items() if value is apply_point]
    assert {module.__name__ for module, _ in holders} >= {"ifmlab.contractions", "ifmlab.solver"}
    for module, key in holders:
        monkeypatch.setattr(module, key, counted_apply_point)
    monkeypatch.setattr(IfmSpace, "mu_nu", counted_kernel)
    monkeypatch.setattr(SelfMap, "affine", classmethod(counted_affine))
    return calls


def solve_and_validate_counts(tmp_path, calls, text):
    """The counts of one solve of ``text`` and of the validate of its result, and the result."""
    cfg = write(tmp_path, "counted.yaml", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    result = tmp_path / yaml.safe_load(text)["output"]["result"]
    doc = json.loads(result.read_text())
    solved = dict(calls)
    assert main(["validate", str(result)]) == 0
    return solved, {key: calls[key] - solved[key] for key in calls}, doc


def test_solve_and_validate_keep_their_map_and_kernel_call_counts(tmp_path, monkeypatch):
    # The benchmark's tracer counts map applications at contractions.apply_point,
    # rebound in every module that holds it, and kernel calls at IfmSpace.mu_nu;
    # a loop that bypasses either, or adds kernel calls, changes these counts.
    # An affine map's exact forms (SelfMap._rows and SelfMap._chain) are counted
    # too: the tracer does not see a chained step, as it sees no batch row.
    calls = count_map_and_kernel_calls(monkeypatch)
    solved, validated, doc = solve_and_validate_counts(tmp_path, calls, COUNTED_SOLVE_YAML)
    assert (doc["iterations"], len(doc["trace_points"])) == (1968, 1977)
    # 31 blocks of 64 steps chained, 8 of them past the stop, where the last
    # block ends (1984 apply_point calls before, one a step); the gates' two
    # sampled-check calls and one call for the eight pairs of the
    # large-horizon probe, one step-row call for each block and one
    # window-grid call for each of the last 4; then the residual, the stored
    # chain in one batch call, and the stop rules' evidence: one step-row
    # call and one window-grid call for the near candidates
    assert solved == {"apply_point": 0, "mu_nu": 38, "rows": 0, "chain": 31, "chain_steps": 1984}
    assert validated == {"apply_point": 1, "mu_nu": 3, "rows": 1, "chain": 0, "chain_steps": 0}


def test_a_converged_power_validate_maps_the_residual_once(tmp_path, monkeypatch):
    # the original map's residual at the candidate serves both the stored
    # claim and the stop rules' residual-miss rule (two apply_point calls and
    # four kernel calls before): the residual, one step-row and one
    # window-grid call; the squared map's stored chain is mapped in one batch
    # call of the square's batch form, two calls of the map's
    calls = count_map_and_kernel_calls(monkeypatch)
    _, validated, doc = solve_and_validate_counts(tmp_path, calls, POWER_YAML)
    assert doc["status"] == "converged"
    assert validated == {"apply_point": 1, "mu_nu": 3, "rows": 2, "chain": 0, "chain_steps": 0}


def test_every_file_write_passes_its_text_as_one_string(tmp_path, monkeypatch):
    # The benchmark's tracer counts the bytes of a write as
    # len(args[1].encode()) at report.write_text_atomic, rebound in every
    # module that holds it; a writer that streams pieces would hide them.
    import ifmlab.report

    calls = []
    atomic = ifmlab.report.write_text_atomic

    def counted_write(*args, **kwargs):
        calls.append((args, kwargs))
        return atomic(*args, **kwargs)

    holders = [(module, key) for name, module in sorted(sys.modules.items())
               if name == "ifmlab" or name.startswith("ifmlab.")
               for key, value in vars(module).items() if value is atomic]
    assert {module.__name__ for module, _ in holders} >= {"ifmlab.report", "ifmlab.cli"}
    for module, key in holders:
        monkeypatch.setattr(module, key, counted_write)

    out = ["--out", str(tmp_path)]
    runs = [(["solve", "--config", write(tmp_path, "solve.yaml", PICARD_YAML), *out], 3),
            (["audit", "--config", write(tmp_path, "audit.yaml", SPACE_AUDIT_YAML), *out], 1),
            (["check", "--config", write(tmp_path, "check.yaml", SEQUENCE_YAML), *out], 1),
            (["validate", str(tmp_path / "result.json")], 0),
            (["defaults", "--out", str(tmp_path / "defaults.json")], 1)]
    for argv, writes in runs:
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == writes
        for args, kwargs in calls:
            assert not kwargs and len(args) == 2 and type(args[1]) is str
            with open(args[0], "rb") as handle:
                assert handle.read() == args[1].encode("utf-8")
