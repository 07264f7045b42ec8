"""The program names that the benchmark's tracer looks up still exist.

``bench/run.py --trace 1`` rebinds every ``(module, function)`` of
``bench/tracing.py``'s ``LAYER_FUNCTIONS`` with ``getattr`` on
``ifmlab.<module>``, and wraps ``IfmSpace.mu_nu`` as the kernel, so a
moved or renamed name crashes a traced run.  The tuple is read from the
file's source, without importing the benchmark.  A table that holds a
function object, not a call that looks the name up, would run past the
rebound name, so the check and solve tables are run under rebound names too.
"""

import ast
import collections
import importlib
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def layer_functions():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_FUNCTIONS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYER_FUNCTIONS")


@pytest.mark.parametrize("module, name", [pytest.param(*pair, id=".".join(pair)) for pair in layer_functions()])
def test_traced_layer_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"ifmlab.{module}"), name))


def test_traced_kernel_exists():
    from ifmlab.spaces import CoordinateSpace, IfmSpace

    assert callable(IfmSpace.mu_nu) and isinstance(CoordinateSpace, type)


LINE = {"induced": {"dimension": 1}}
SHIFT = {"affine": {"matrix": [[0.5]], "offset": [0.4]}}
BALL = {"center": [0.0], "radius": 0.5, "time": 1.0}

# action -> the traced functions its run must reach: its check or solve and
# each of its gates' checks
TABLE_RUNS = {
    "check-if_contractive": ({"check": {"notion": "if_contractive"}}, ["contractions.if_contractive_check"]),
    "check-direct_ratio": ({"check": {"notion": "direct_ratio"}},
                           ["contractions.direct_ratio_contractive_check"]),
    "check-t_uniform_continuity": ({"check": {"notion": "t_uniform_continuity"}},
                                   ["contractions.t_uniform_continuity_probe"]),
    "check-contractive_sequence": ({"check": {"notion": "contractive_sequence", "x0": [0.0]}},
                                   ["contractions.contractive_sequence_check", "solver.iterate_trace"]),
    "check-closed_ball_hypotheses": ({"check": {"notion": "closed_ball_hypotheses", "ball": BALL}},
                                     ["contractions.closed_ball_hypotheses"]),
    "solve-picard": ({"solve": {"regime": "picard"}},
                     ["solver.picard_solve", "contractions.if_contractive_check",
                      "spaces.asymptotic_nearness_probe"]),
    "solve-closed_ball": ({"solve": {"regime": "closed_ball", "ball": BALL}},
                          ["solver.closed_ball_solve", "contractions.closed_ball_hypotheses",
                           "sampling.sample_ball_pairs", "contractions.if_contractive_check"]),
    "solve-power": ({"solve": {"regime": "power", "m": 2}},
                    ["solver.power_map_solve", "contractions.if_contractive_check",
                     "contractions.t_uniform_continuity_probe"]),
    "solve-direct_ratio": ({"solve": {"regime": "direct_ratio"}},
                           ["solver.direct_ratio_solve", "contractions.direct_ratio_contractive_check"]),
}


@pytest.fixture
def traced_calls(monkeypatch):
    """Calls per traced name, counted by wrappers rebound as the tracer's
    ``install`` rebinds them: in every loaded ``ifmlab`` module, each
    attribute that is the function itself."""
    import ifmlab.cli  # noqa: F401  (loads every module that holds a traced name)

    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ifmlab" or n.startswith("ifmlab."))]
    for module_name, attr in layer_functions():
        original = getattr(sys.modules[f"ifmlab.{module_name}"], attr)
        wrapper = counted(f"{module_name}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


@pytest.mark.parametrize("action, reached", [pytest.param(*run, id=name) for name, run in TABLE_RUNS.items()])
def test_check_and_solve_tables_call_the_rebound_names(tmp_path, traced_calls, action, reached):
    # a table entry holding a function object would run it past the wrapper
    from ifmlab import cli, config

    cfg = config.validate_config({"seed": 3, "space": LINE, "map": SHIFT, "sampling": {"pairs": 64},
                                  "action": action})
    assert cfg.solve.hypothesis_checks
    cli.run(cfg, out_dir=str(tmp_path))
    assert all(traced_calls[name] > 0 for name in reached), dict(traced_calls)
