"""Command-line front end.

Subcommands: ``audit``, ``check``, ``solve`` (all driven by a YAML config),
``defaults`` (emit the default probe grid and solver settings), and
``validate`` (re-verify the convergence certificate stored in a result
document).  Exit codes: 0 for pass/converged, 1 for fail or hypothesis
failure (reports are still written), 2 for input errors.

Identical config and seed produce byte-identical output files: writers are
deterministic, floats are rendered with 17 significant digits, and files
are written atomically (write then rename).  Relative output paths resolve
against ``--out``, the ``IFMLAB_OUT`` environment variable, or the current
directory, in that order of precedence.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    _number,
    _numbers,
    _point,
    _rebuild_experiment,
    expect_list,
    expect_mapping,
    load_config,
    solve_record,
)
from .contractions import DomainEscapeError
from .operators import BLOCK_CELLS, audit_operator_pair, check_idempotent, operator_pair
from .report import _float_table, format_float, json_text, records_to_jsonl, write_text_atomic
from .solver import (
    CHECKS,
    SolveConfig,
    SolveResult,
    chain_break,
    closed_ball_solve,
    direct_ratio_solve,
    picard_solve,
    power_map_solve,
    residual_certificate,
)
from .spaces import axiom_audit, point_jsonable, points_equal, probe_grid

OUTPUT_DIR_ENV = "IFMLAB_OUT"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2

# glibc's malloc_trim, or None where the C library has none
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None


@dataclass
class RunSummary:
    """What a run did: verdicts, key numbers, files written, duration."""

    action: str
    verdicts: dict[str, str] = field(default_factory=dict)
    key_numbers: dict[str, Any] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    def render(self) -> str:
        numbers = {k: format_float(v) if isinstance(v, float) else v for k, v in self.key_numbers.items()}
        lines = [f"action: {self.action}"]
        lines += [f"{name}: {value}" for name, value in [*self.verdicts.items(), *numbers.items()]]
        lines += [f"wrote: {path}" for path in self.files]
        return "\n".join([*lines, f"duration: {self.duration_s:.3f}s"])


def _resolve_out(path: str, out_dir: str | None) -> str:
    if os.path.isabs(path):
        return path
    base = out_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    return os.path.join(base, path)


# ---------------------------------------------------------------------------
# trace and result documents


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted (RFC 4180) when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def trace_rows(result: SolveResult) -> list[str]:
    """Lines of the tabular trace, header first (17-significant-digit floats).

    The rows are rendered in blocks of about ``BLOCK_CELLS / 8`` floats: a
    block's index column (as floats, which ``%.17g`` writes as integers
    below 2**53), coordinates and step rows become text in one call of the
    exact ``%.17g`` writer, ``report._float_table``.  A row with no step
    cells is rendered cell by cell; labels and ball flags are put in row by
    row.
    """
    trace = result.trace
    points, k = trace.points, len(trace.probe_ts)
    coordinate = not (len(points) and isinstance(points[0], str))
    dim = int(np.atleast_1d(np.asarray(points[0], float)).shape[0]) if coordinate and len(points) else 0
    header = ["iteration", *([f"x{i}" for i in range(dim)] if coordinate else ["label"])]
    header += [f"{side}@t={format_float(float(t))}" for side in ("mu", "nu") for t in trace.probe_ts]
    flags = trace.ball_flags
    if flags is not None:
        header.append("in_ball")
    no_steps = "," * (2 * k)
    # the writer peaks at about 290 bytes a cell (its temporaries, its
    # 48-byte table and the table's bytes), against about 60 for one %, and
    # runs fastest near 4,096 cells a call
    block = max(1, BLOCK_CELLS // (8 * (1 + dim + 2 * k)))
    lines = [",".join(header)]
    for lo in range(0, len(points), block):
        hi = min(lo + block, len(points))
        coords = (np.asarray(points[lo:hi], float).reshape(hi - lo, -1) if coordinate
                  else np.empty((hi - lo, 0)))
        full = max(0, min(hi, len(trace.step_mu)) - lo)  # rows with step cells
        cells = np.hstack([np.arange(lo, lo + full, dtype=float)[:, None], coords[:full],
                           trace.step_mu[lo : lo + full], trace.step_nu[lo : lo + full]])
        rows = _float_table(cells, ",", "", "\n").splitlines()
        rows += [",".join([str(i), *map(format_float, coords[i - lo].tolist())]) + no_steps
                 for i in range(lo + full, hi)]
        if not coordinate:
            rows = [f"{i},{_csv_cell(str(points[i]))}{row[len(str(i)):]}" for i, row in enumerate(rows, lo)]
        if flags is not None:
            rows = [f"{row},{str(flags[i]).lower() if i < len(flags) else ''}"
                    for i, row in enumerate(rows, lo)]
        lines += rows
    return lines


def result_document(result: SolveResult, experiment: dict[str, Any]) -> dict[str, Any]:
    """Structured result: enough to re-verify the certificate offline.

    A coordinate trace's points stay one float array, which
    :func:`json_text` writes whole.
    """
    points = result.trace.points
    if len(points) and not isinstance(points[0], str):
        trace_points = np.asarray(points, float).reshape(len(points), -1)
    else:
        trace_points = [point_jsonable(p) for p in points]
    doc: dict[str, Any] = {
        "kind": "solve_result",
        "experiment": experiment,
        "status": result.status,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "fixed_point": point_jsonable(result.fixed_point),
        "trace_points": trace_points,
        "probe_ts": [float(t) for t in result.trace.probe_ts],
        "residual_mu": None if result.residual_mu is None else [float(v) for v in result.residual_mu],
        "residual_nu": None if result.residual_nu is None else [float(v) for v in result.residual_nu],
        "notes": result.notes,
    }
    if result.trace.ball_flags is not None:
        doc["ball_flags"] = [bool(b) for b in result.trace.ball_flags]
    if result.hypothesis_report is not None:
        doc["hypothesis"] = result.hypothesis_report.to_record()
    return doc


def export_trace(result: SolveResult, path: str) -> str:
    """Write a solve's tabular trace to ``path`` and return the path.

    The CSV has one row per iterate carrying the point, the per-step
    nearness records at each probe time, and the ball flag when present.
    The lines, rendered per row block by :func:`trace_rows`, are joined
    once into the file's text, so writing holds about twice that text.
    """
    write_text_atomic(path, "\n".join(trace_rows(result)) + "\n")
    return path


def _required(doc: dict[str, Any], key: str) -> Any:
    if doc.get(key) is None:
        raise ConfigError(key, "required field is missing")
    return doc[key]


def validate_result_document(doc: Any) -> list[str]:
    """Re-verify a stored result from its own points; returns problems.

    Each trace step must be the image of its predecessor under
    ``experiment.iteration_map`` (the m-th power for the ``power`` regime;
    documents without that key fall back to ``experiment.map``).  The
    residual certificate of a converged result is always checked against
    ``experiment.map``, the map whose fixed point is claimed; other
    statuses carry none.  A document that is not a mapping, one whose
    experiment fails the config checks or whose trace points are missing
    (every solve stores its start) or not finite points of its space, a
    converged one without ``probe_ts``, ``fixed_point`` or ``iterations``
    or whose ``probe_ts`` is not a probe grid (nonempty, positive,
    strictly increasing), or one whose fields have the wrong type raises
    :class:`ConfigError` with the field's path.
    """
    doc = expect_mapping(doc, "document")
    exp = expect_mapping(doc.get("experiment") or {}, "experiment")
    space, map_, step_map, solve = _rebuild_experiment(exp)
    points = expect_list(doc.get("trace_points") or [], "trace_points")
    if not points:
        raise ConfigError("trace_points", "document carries no trace points")
    points = _point(points, "trace_points", space.domain, many=True)

    problems: list[str] = []
    step = chain_break(space, step_map, points)
    if step is not None:
        problems.append(f"trace breaks at step {step}: stored successor differs from the map image")

    if doc.get("status") == "converged":
        ts = _numbers(_required(doc, "probe_ts"), "probe_ts")
        try:
            ts = probe_grid(ts)
        except ValueError as exc:
            raise ConfigError("probe_ts", str(exc)) from exc
        if not np.array_equal(ts, solve.probe_ts):
            problems.append("probe_ts differs from experiment.solve_config.probe_ts")
        x_star = _point(_required(doc, "fixed_point"), "fixed_point", space.domain)
        iterations = _number(_required(doc, "iterations"), "iterations", integer=True)
        if not 0 <= iterations < len(points) or not points_equal(points[iterations], x_star):
            problems.append("fixed_point does not match the trace at the stated iteration")
        ok, mu, nu = residual_certificate(space, map_, x_star, ts, solve.epsilon)
        if not ok:
            problems.append(
                f"residual certificate fails: mu_min={mu.min()!r}, nu_max={nu.max()!r}, "
                f"epsilon={solve.epsilon!r}"
            )
        for key, values in (("residual_mu", mu), ("residual_nu", nu)):
            stored = doc.get(key)
            if stored is not None and not np.array_equal(_numbers(stored, key), values):
                problems.append(f"stored {key} does not reproduce from the stored points")
    return problems


# ---------------------------------------------------------------------------
# action runners


def _run_audit(config: ExperimentConfig, out_dir: str | None, summary: RunSummary) -> int:
    params, cfg, space = config.action.params, config.solve, config.space
    if space is None:  # the operator audit
        pair = operator_pair(config.operators_name)
        report = audit_operator_pair(pair, **params)
        summary.key_numbers["idempotent"] = "tnorm={} tconorm={}".format(*check_idempotent(pair))
    else:
        report = axiom_audit(space, sample_count=params["samples"], t_samples=cfg.probe_ts,
                             tolerance=params["tolerance"], seed=cfg.seed,
                             box=space.domain.box(cfg.sample_halfwidth))
    # Hand the audit's freed bulk temporaries (kernel blocks, n² operator slabs)
    # back to the system.  Otherwise glibc keeps or returns them by its dynamic
    # trim threshold and a few KiB of heap layout, so whether the next large
    # allocation of the process page-faults differs from run to run.
    if _malloc_trim:
        _malloc_trim(0)
    path = _resolve_out(config.output.get("report", "audit_report.jsonl"), out_dir)
    write_text_atomic(path, records_to_jsonl(report.to_records()))
    summary.files.append(path)
    summary.verdicts["audit"] = "pass" if report.passed else "fail"
    for clause in report.failures():
        summary.verdicts[f"clause {clause.clause}"] = "fail"
    return EXIT_PASS if report.passed else EXIT_FAIL


# regime -> its solve, called as (space, map, config=solve settings, **parameters); like
# solver.CHECKS, each entry looks its solve up when called
SOLVES = {
    "picard": lambda *args, **params: picard_solve(*args, **params),
    "closed_ball": lambda *args, **params: closed_ball_solve(*args, **params),
    "power": lambda *args, **params: power_map_solve(*args, **params),
    "direct_ratio": lambda *args, **params: direct_ratio_solve(*args, **params),
}


def _run_check(config: ExperimentConfig, out_dir: str | None, summary: RunSummary) -> int:
    space, action, cfg = config.space, config.action, config.solve
    box = space.domain.box(cfg.sample_halfwidth)
    report = CHECKS[action.name](space, config.map, cfg, box, **action.params)
    path = _resolve_out(config.output.get("report", "check_report.jsonl"), out_dir)
    write_text_atomic(path, records_to_jsonl([report.to_record()]))
    summary.files.append(path)
    summary.verdicts[action.name] = report.verdict
    if report.estimated_k is not None:
        summary.key_numbers["estimated_k"] = report.estimated_k
    if report.notes:
        summary.key_numbers["note"] = report.notes
    return EXIT_PASS if report.passed else EXIT_FAIL


def _run_solve(config: ExperimentConfig, out_dir: str | None, summary: RunSummary) -> int:
    action, cfg = config.action, config.solve
    regime, params = action.name, action.params
    result = SOLVES[regime](config.space, config.map, config=cfg, **params)

    experiment = {
        "space": config.space_spec,
        "operators": config.operators_name,
        "map": config.map_spec,
        # the map applied at each trace step; differs from "map" only for
        # the power regime, whose residual certificate is about the
        # original map while the iteration runs its m-th power
        "iteration_map": (
            {"power": {"of": config.map_spec, "m": params["m"]}} if regime == "power" else config.map_spec
        ),
        "action": {"solve": action.written},
        "seed": cfg.seed,
        "solve_config": solve_record(cfg),
    }
    result_path = _resolve_out(config.output.get("result", "result.json"), out_dir)
    write_text_atomic(result_path, json_text(result_document(result, experiment)) + "\n")
    summary.files.append(result_path)
    trace_path = _resolve_out(config.output.get("trace", "trace.csv"), out_dir)
    export_trace(result, trace_path)
    summary.files.append(trace_path)

    hypothesis = result.hypothesis_report
    records = [] if hypothesis is None else [hypothesis.to_record()]
    records.append({
        "clause": f"solve.{regime}",
        "verdict": result.status,
        "iterations": result.iterations,
        "fixed_point": point_jsonable(result.fixed_point),
        "note": result.stop_reason,
    })
    report_path = _resolve_out(config.output.get("report", "solve_report.jsonl"), out_dir)
    write_text_atomic(report_path, records_to_jsonl(records))
    summary.files.append(report_path)

    summary.verdicts[f"solve.{regime}"] = result.status
    summary.key_numbers["iterations"] = result.iterations
    if result.fixed_point is not None:
        summary.key_numbers["fixed_point"] = json_text(point_jsonable(result.fixed_point))
    if hypothesis is not None and not hypothesis.passed:
        summary.key_numbers["hypothesis_note"] = hypothesis.notes or hypothesis.verdict
    summary.key_numbers["stop_reason"] = result.stop_reason
    return EXIT_PASS if result.converged else EXIT_FAIL


RUNNERS = {"audit": _run_audit, "check": _run_check, "solve": _run_solve}


def run(config: ExperimentConfig, out_dir: str | None = None) -> tuple[int, RunSummary]:
    """Dispatch a validated config to its action; returns (exit code, summary)."""
    started = time.perf_counter()
    summary = RunSummary(action=config.action.kind)
    code = RUNNERS[config.action.kind](config, out_dir, summary)
    summary.duration_s = time.perf_counter() - started
    return code, summary


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None,
                        help=f"output directory for relative paths (overrides ${OUTPUT_DIR_ENV})")
    parser.add_argument("--no-hypothesis-checks", action="store_true",
                        help="skip solver hypothesis checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmlab",
        description="Audit nearness spaces, classify contractions, and solve for fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("audit", "run an operator or space axiom audit"),
        ("check", "run a contraction or continuity check"),
        ("solve", "run a fixed-point solve"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    defaults = sub.add_parser("defaults", help="print the default probe grid and solver settings")
    defaults.add_argument("--out", default=None, help="also write the defaults to this file")
    validate = sub.add_parser("validate", help="re-verify a stored solve-result document")
    validate.add_argument("result", help="path to a structured result JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "defaults":
        cfg = SolveConfig()
        solve = solve_record(cfg)
        doc = {"probe_ts": solve.pop("probe_ts"), "solve": solve,
               "sampling": {"pairs": cfg.sample_pairs, "halfwidth": cfg.sample_halfwidth}}
        text = json_text(doc)
        print(text)
        if args.out:
            try:
                write_text_atomic(args.out, text + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR
        return EXIT_PASS

    if args.command == "validate":
        try:
            with open(args.result) as handle:
                doc = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot read result document: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        try:
            problems = validate_result_document(doc)
        except (ValueError, DomainEscapeError) as exc:
            print(f"error: invalid result document: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if problems:
            for p in problems:
                print(f"certificate problem: {p}")
            return EXIT_FAIL
        status = doc.get("status")
        if status == "converged":
            print("certificate verified: trace is consistent and the residual bounds hold")
        else:
            print(f"trace verified: every stored step is the map image; status {status!r} "
                  "carries no residual certificate")
        return EXIT_PASS

    try:
        config = load_config(args.config, seed=args.seed)
        if config.action.kind != args.command:
            raise ConfigError("action", f"config declares a {config.action.kind!r} action "
                                        f"but the {args.command!r} subcommand was invoked")
        if args.no_hypothesis_checks:
            config.solve.hypothesis_checks = False
        code, summary = run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DomainEscapeError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(summary.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
