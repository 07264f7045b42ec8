"""Span tracing applied from outside the program.

:func:`install` rebinds each layer function listed in ``LAYER_FUNCTIONS`` in
every loaded ``ifmlab`` module that holds it (``membership_grid``, for
example, is imported into ``solver``, ``contractions`` and ``cli``, and
patching only its home module would miss those calls), and wraps
``IfmSpace.mu_nu`` on the class as the kernel, tagged by domain kind.
Spans are kept in memory as flat arrays with a parent id; self time is a
span's duration minus the time its children cover.  Spans of one thread
nest strictly, so children cover their parent disjointly.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function); spans are named "module.function", so the prefix is the layer.
LAYER_FUNCTIONS = (
    ("operators", "audit_operator_pair"),
    ("operators", "check_idempotent"),
    ("operators", "idempotency_witness"),
    ("spaces", "induced_from_metric"),
    ("spaces", "finite_tabulated"),
    ("spaces", "membership_grid"),
    ("spaces", "axiom_audit"),
    ("spaces", "ball_contains"),
    ("spaces", "asymptotic_nearness_probe"),
    ("sampling", "sample_pairs"),
    ("sampling", "sample_ball_pairs"),
    ("contractions", "self_map_from_spec"),
    ("contractions", "apply_point"),
    ("contractions", "apply_batch"),
    ("contractions", "if_contractive_check"),
    ("contractions", "direct_ratio_contractive_check"),
    ("contractions", "t_uniform_continuity_probe"),
    ("contractions", "contractive_sequence_check"),
    ("contractions", "closed_ball_hypotheses"),
    ("solver", "picard_solve"),
    ("solver", "closed_ball_solve"),
    ("solver", "power_map_solve"),
    ("solver", "direct_ratio_solve"),
    ("solver", "iterate_trace"),
    ("report", "write_text_atomic"),
    ("report", "json_text"),
    ("report", "records_to_jsonl"),
    ("config", "validate_config"),
    ("config", "build_space"),
    ("config", "build_map"),
    ("cli", "run"),
    ("cli", "validate_result_document"),
    ("cli", "trace_rows"),
    ("cli", "result_document"),
)
KERNEL_SPANS = {"induced": "spaces.kernel_induced", "tabulated": "spaces.kernel_tabulated"}


def _span_count(name: str, args: tuple, result) -> int:
    """Work count stored with a span: pair x t values, points kept, bytes."""
    if name.startswith("spaces.kernel_"):
        return int(np.size(result[0]))
    if name == "sampling.sample_ball_pairs":
        return 2 * len(result[0])
    if name == "report.write_text_atomic":
        return len(args[1].encode("utf-8"))
    return 0


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._stack_names = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, ix: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(ix)
        self.count.append(0)
        self.t1.append(0.0)
        self._stack.append(sid)
        self._stack_names.append(ix)
        self.t0.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()
        self._stack_names.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_index(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        ix = self.name_index(name)

        def traced(*args, **kwargs):
            # a recursive call (json_text) stays inside its outer span
            if self._stack_names[-1] == ix:
                return fn(*args, **kwargs)
            sid = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.count[sid] = _span_count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, fn, coordinate_type):
        kinds = {kind: self.name_index(name) for kind, name in KERNEL_SPANS.items()}

        def mu_nu(space, x, y, t):
            kind = "induced" if isinstance(space.domain, coordinate_type) else "tabulated"
            sid = self._open(kinds[kind])
            try:
                result = fn(space, x, y, t)
            finally:
                self._close(sid)
            self.count[sid] = int(np.size(result[0]))
            return result

        return mu_nu

    def install(self) -> None:
        """Rebind every listed function in every loaded ``ifmlab`` module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ifmlab" or n.startswith("ifmlab."))]
        for module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"ifmlab.{module_name}"], attr)
            traced = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, traced)
        spaces = sys.modules["ifmlab.spaces"]
        self._restore.append((spaces.IfmSpace, "mu_nu", spaces.IfmSpace.mu_nu))
        spaces.IfmSpace.mu_nu = self._wrap_kernel(spaces.IfmSpace.mu_nu, spaces.CoordinateSpace)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self, start: int = 0, stop: int | None = None) -> dict[str, np.ndarray]:
        """Copies of spans [start, stop); parent ids are made relative to start."""
        stop = len(self.t0) if stop is None else stop
        columns = {"parent": (self.parent, np.int64), "name": (self.name, np.int64),
                   "t0": (self.t0, np.float64), "t1": (self.t1, np.float64),
                   "count": (self.count, np.int64)}
        out = {key: np.frombuffer(col, dtype=dt)[start:stop].copy()
               for key, (col, dt) in columns.items()}
        out["parent"][out["parent"] >= 0] -= start
        return out

    def dump(self, path: str) -> None:
        """Write every span (ids are positions; parent -1 marks a root)."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def profile(tracer: Tracer, start: int, stop: int) -> dict:
    """Per span name over spans [start, stop): calls, self_s, total_s, count.

    The range must hold whole span trees (one traced pass).  ``under``
    counts spans by (name, name of their direct parent), for the ratios
    that need to know who made a call.
    """
    s = tracer.arrays(start, stop)
    duration = s["t1"] - s["t0"]
    has_parent = s["parent"] >= 0
    covered = np.bincount(s["parent"][has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    self_time = duration - covered
    names = np.asarray(tracer.names + [""], dtype=object)
    parent_name = names[np.where(has_parent, s["name"][np.maximum(s["parent"], 0)], -1)]
    by_name: dict[str, dict[str, float]] = {}
    under: dict[tuple[str, str], int] = {}
    for ix, name in enumerate(tracer.names):
        mask = s["name"] == ix
        if not mask.any():
            continue
        by_name[name] = {"calls": int(mask.sum()), "self_s": float(self_time[mask].sum()),
                         "total_s": float(duration[mask].sum()),
                         "count": int(s["count"][mask].sum())}
        for parent, calls in zip(*np.unique(parent_name[mask], return_counts=True)):
            under[(name, parent)] = int(calls)
    return {"by_name": by_name, "under": under, "self_total": float(self_time.sum())}
