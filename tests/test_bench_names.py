"""The program names that the benchmark's tracer looks up still exist.

``bench/run.py --trace 1`` rebinds every ``(module, function)`` of
``bench/tracing.py``'s ``LAYER_FUNCTIONS`` with ``getattr`` on
``ifmlab.<module>``, and wraps ``IfmSpace.mu_nu`` as the kernel, so a
moved or renamed name crashes a traced run.  The tuple is read from the
file's source, without importing the benchmark.
"""

import ast
import importlib
import pathlib

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
