"""Config and result-document validation as a property: no input reaches a traceback.

One leaf of a valid config (or of a Picard result document) is replaced by
an odd value and the result run through ``cli.main``.  The run may pass,
fail or reject the input, but it must never raise, and a rejected config
names the offending field.
"""

import copy
import json
import math
import re

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ifmlab.cli import main
from ifmlab.config import ConfigError, _float_sized, _is_number, _number

LINE = {"induced": {"dimension": 1, "base_metric": "euclidean"}}
PLANE = {"induced": {"dimension": 2, "base_metric": "chebyshev"}}
HALF_SHIFT = {"affine": {"matrix": [[0.5]], "offset": [1.0]}}
SHIFT_04 = {"affine": {"matrix": [[0.5]], "offset": [0.4]}}
BALL = {"center": [0.0], "radius": 0.5, "time": 1.0}

# one config per audit target, four check notions and three solve regimes;
# every action parameter is spelled out so that each is a leaf to mutate
SWEEP_CONFIGS = {
    "audit-space": ("audit", {
        "seed": 2, "operators": "min-max", "space": PLANE,
        "sampling": {"halfwidth": 4.0}, "solve": {"probe_ts": [0.5, 2.0]},
        "action": {"audit": {"target": "space", "samples": 20, "tolerance": 1e-9}},
    }),
    "audit-operators": ("audit", {
        "operators": "product-probsum", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 8, "tolerance": 1e-12}},
    }),
    "check-direct-ratio": ("check", {
        "seed": 1, "operators": "min-max", "space": LINE, "map": HALF_SHIFT,
        "sampling": {"pairs": 30, "halfwidth": 3.0},
        "action": {"check": {"notion": "direct_ratio", "include_coincident": False}},
    }),
    "check-t-uniform-continuity": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT, "sampling": {"pairs": 30},
        "action": {"check": {"notion": "t_uniform_continuity", "epsilons": [0.1, 0.01]}},
    }),
    "check-contractive-sequence": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.5, "x0": [0.0], "steps": 6}},
    }),
    "check-closed-ball-hypotheses": ("check", {
        "space": LINE, "map": SHIFT_04,
        "action": {"check": {"notion": "closed_ball_hypotheses", "ball": BALL, "k": 0.5}},
    }),
    "solve-picard": ("solve", {
        "seed": 11, "space": LINE, "map": HALF_SHIFT, "sampling": {"pairs": 30},
        "solve": {"epsilon": 1e-6, "max_iterations": 100, "probe_ts": [0.5, 2.0],
                  "window": 3, "hypothesis_checks": True},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-closed-ball": ("solve", {
        "seed": 23, "space": LINE, "map": SHIFT_04, "sampling": {"pairs": 64},
        "action": {"solve": {"regime": "closed_ball", "ball": BALL, "k": 0.5}},
    }),
    "solve-power": ("solve", {
        "seed": 7, "space": PLANE, "sampling": {"pairs": 30},
        "map": {"affine": {"matrix": [[0.0, 2.0], [0.125, 0.0]], "offset": [1.0, 0.5]}},
        "solve": {"max_iterations": 200},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [1.0, -2.0]}},
    }),
}

SWEEP_VALUES = [None, "x", "a", 1.5, -1, 0, 2, [], {}, True, [1], {"a": 1}, math.nan, math.inf]

OUTPUT = {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"}
# "config error: <path>: " with a dotted path, list indices allowed
CONFIG_ERROR = re.compile(r"config error: [A-Za-z_][\w.\[\]]*: ")
DOCUMENT_ERROR = re.compile(r"error: invalid result document: [A-Za-z_][\w.\[\]]*: ")


def leaf_paths(node, path=()):
    """Key/index path of every scalar or empty container below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = []
    for key, child in items:
        below = leaf_paths(child, path + (key,))
        paths += below or [path + (key,)]
    return paths


def replace_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def run_config(tmp_path, command, doc):
    """``main`` on ``doc`` written as YAML; the exit code."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def run_validate(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["validate", str(path)])


SWEEP_CASES = [(name, path) for name, (_, doc) in sorted(SWEEP_CONFIGS.items())
               for path in leaf_paths({**doc, "output": OUTPUT})]


@pytest.fixture(scope="module")
def picard_document(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("picard")
    command, doc = SWEEP_CONFIGS["solve-picard"]
    assert run_config(tmp, command, {**doc, "output": OUTPUT}) == 0
    return json.loads((tmp / "out" / "result.json").read_text())


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_sweep_configs_are_valid(tmp_path, capsys, name):
    command, doc = SWEEP_CONFIGS[name]
    assert run_config(tmp_path, command, {**doc, "output": OUTPUT}) in (0, 1)
    assert capsys.readouterr().err == ""


# a bounded sample of the full sweep (every leaf times every value)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(SWEEP_CASES), value=st.sampled_from(SWEEP_VALUES))
def test_one_bad_config_leaf_never_raises(tmp_path, capsys, case, value):
    name, path = case
    command, doc = SWEEP_CONFIGS[name]
    code = run_config(tmp_path, command, replace_leaf({**doc, "output": OUTPUT}, path, value))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert CONFIG_ERROR.match(err), err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=st.sampled_from(SWEEP_VALUES))
def test_one_bad_document_leaf_never_raises(tmp_path, capsys, picard_document, data, value):
    path = data.draw(st.sampled_from(leaf_paths(picard_document)))
    code = run_validate(tmp_path, replace_leaf(picard_document, path, value))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert DOCUMENT_ERROR.match(err), err


def reference_float_sized(value, path):
    """``config._float_sized`` as it was, building a path for every number."""
    for i, item in enumerate(value if isinstance(value, list) else ()):
        reference_float_sized(item, f"{path}[{i}]")
    return _number(value, path) if _is_number(value) else value


def float_sized_outcome(read, value):
    """The ConfigError's path and message, or whether ``value`` came back as is."""
    try:
        return "ok", read(value, "space.tabulated.pairs[0].mu") is value
    except ConfigError as exc:
        return "raised", exc.path, exc.message


NESTED_NUMBERS = st.recursive(
    st.floats(allow_nan=True) | st.integers(-5, 5) | st.sampled_from([10**400, -(10**309), True, "x", None]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(value=NESTED_NUMBERS)
def test_float_sized_matches_the_reference_walk(value):
    assert float_sized_outcome(_float_sized, value) == float_sized_outcome(reference_float_sized, value)


def test_a_run_builds_its_map_once_and_validate_each_of_its_two(tmp_path, monkeypatch):
    import ifmlab.config as config
    from ifmlab import cli

    specs = []
    build = config.self_map_from_spec
    monkeypatch.setattr(config, "self_map_from_spec", lambda spec: specs.append(spec) or build(spec))
    cfg = config.validate_config({**SWEEP_CONFIGS["solve-picard"][1], "output": OUTPUT})
    assert cli.run(cfg, out_dir=str(tmp_path))[0] == 0
    assert specs == [HALF_SHIFT]
    specs.clear()
    assert cli.validate_result_document(json.loads((tmp_path / "result.json").read_text())) == []
    assert specs == [HALF_SHIFT, HALF_SHIFT]  # experiment.map and experiment.iteration_map


def test_alias_expansion_counts_each_use_and_the_deepest_path():
    from ifmlab.config import _expansion

    doc = yaml.safe_load("a: &x [1, 2]\nb: [*x, *x]\n")
    # the mapping, a's list of two, and b's list of two lists of two
    assert _expansion(doc, {}) == (1 + 3 + 7, 3)
    assert _expansion(yaml.safe_load("[]"), {}) == (1, 1) and _expansion(yaml.safe_load("7"), {}) == (1, 0)
