"""One workload in a fresh process: timed passes, oracle, digests, tracing.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pools
pinned to one thread; writes its findings as one JSON record.  Items run
back to back through the CLI's own entry points (``validate_config``, then
``cli.run``, then ``validate_result_document`` on the written result for
solves), so the program sees only generated configs.

A pass is one run over all items.  The first pass warms caches and is not
timed.  In an untraced pass a host-speed probe (``hostspeed.py``) runs
before the first item and after each item, and every item's wall time is
also kept scaled to reference speed by the probes on either side.
Outcomes are checked after each pass, outside its timed region; an
exception, a wrong outcome, a rejected certificate, or artifact bytes
that differ from the warm-up pass count the item as failed for that pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import ifmlab.cli as cli
import ifmlab.config as config
from hostspeed import probe, scaled
from tracing import Tracer, profile
from workloads import PROBE_KIND, WORKLOADS, metric_norm

LAYERS = ("operators", "spaces", "sampling", "contractions", "solver", "report", "config", "cli")
CHECK_SPANS = ("contractions.if_contractive_check", "contractions.direct_ratio_contractive_check",
               "contractions.t_uniform_continuity_probe", "contractions.contractive_sequence_check",
               "contractions.closed_ball_hypotheses")
REGIME_SPANS = ("solver.picard_solve", "solver.closed_ball_solve", "solver.power_map_solve",
                "solver.direct_ratio_solve")
SOLVER_SPANS = REGIME_SPANS + ("solver.iterate_trace",)
SERIALIZE_SPANS = ("report.json_text", "report.records_to_jsonl", "cli.trace_rows")


def run_item(item, out_dir: str) -> dict:
    """The CLI's work for one item: validate, run, then validate the result."""
    cfg = config.validate_config(item.config)
    code, _ = cli.run(cfg, out_dir=out_dir)
    doc = problems = None
    if item.kind == "solve":
        with open(os.path.join(out_dir, item.config["output"]["result"])) as handle:
            doc = json.load(handle)
        problems = cli.validate_result_document(doc)
    return {"code": code, "doc": doc, "problems": problems}


def check_item(item, outcome: dict, out_dir: str) -> tuple[list[str], bool]:
    """Failure reasons for one outcome, and whether an answer was wrong."""
    if "error" in outcome:
        return [outcome["error"]], False
    expect = item.expect
    wrong = []
    if outcome["code"] != expect["exit"]:
        wrong.append(f"exit code {outcome['code']}, expected {expect['exit']}")
    rejected = []
    if item.kind == "solve":
        doc = outcome["doc"]
        if doc["status"] != expect["status"]:
            wrong.append(f"status {doc['status']!r}, expected {expect['status']!r}")
        elif expect["fixed_point"] is not None:
            gap = metric_norm(np.asarray(doc["fixed_point"]) - expect["fixed_point"], expect["metric"])
            if not gap <= expect["tolerance"]:
                wrong.append(f"fixed point is {gap!r} from (I - A)^-1 b, bound {expect['tolerance']!r}")
        if expect["validates"]:
            rejected = [f"certificate rejected: {p}" for p in outcome["problems"]]
    else:
        with open(os.path.join(out_dir, item.config["output"]["report"])) as handle:
            verdicts = [json.loads(line)["verdict"] for line in handle]
        verdict = verdicts[0] if item.kind == "check" else (
            "pass" if all(v == "pass" for v in verdicts) else "fail")
        if verdict != expect["verdict"]:
            wrong.append(f"verdict {verdict!r}, expected {expect['verdict']!r}")
    return wrong + rejected, bool(wrong)


def artifact_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


class WorkloadRun:
    """Passes over one workload's items, with their checks and digests."""

    def __init__(self, name: str, seed: int, work: str):
        self.items = WORKLOADS[name](seed)
        self.probe_kind = PROBE_KIND[name]
        self.work = work
        self.passes: list[dict] = []
        # per item, its wall and reference-speed times in untraced passes
        self.wall_s: list[list[float]] = [[] for _ in self.items]
        self.scaled_s: list[list[float]] = [[] for _ in self.items]
        self.item_digests: list[str] | None = None
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_pass(self, phase: str, tracer: Tracer | None = None) -> dict:
        """One pass over the items.  Untraced passes time each item between
        two host-speed probes; traced passes leave the probes out, so every
        moment of a traced pass is inside a span."""
        outcomes, latencies = [], []
        probes = [] if tracer else [probe(self.probe_kind)]
        started = perf_counter()
        with tracer.span("bench.pass") if tracer else nullcontext():
            for item in self.items:
                with tracer.span("bench.item") if tracer else nullcontext():
                    t0 = perf_counter()
                    try:
                        outcome = run_item(item, os.path.join(self.work, item.id))
                    except Exception as exc:  # recorded as a failed operation
                        where = traceback.extract_tb(exc.__traceback__)[-1]
                        outcome = {"error": f"{type(exc).__name__}: {exc} "
                                            f"({os.path.basename(where.filename)}:{where.lineno})"}
                    latencies.append(perf_counter() - t0)
                if not tracer:
                    probes.append(probe(self.probe_kind))
                outcomes.append(outcome)
        record = {"phase": phase, "pass_s": perf_counter() - started,
                  "items_s": sum(latencies), "iterations": 0}
        self._check(outcomes, record)
        if phase == "untraced":
            scaled_s = [scaled(s, self.probe_kind, probes[i], probes[i + 1])
                        for i, s in enumerate(latencies)]
            record.update(scaled_s=sum(scaled_s), probe_s=statistics.median(probes))
            for k, (wall, at_reference) in enumerate(zip(latencies, scaled_s)):
                self.wall_s[k].append(wall)
                self.scaled_s[k].append(at_reference)
        self.passes.append(record)
        return record

    def _check(self, outcomes: list[dict], record: dict) -> None:
        index = len(self.passes)
        digests = []
        for item, outcome in zip(self.items, outcomes):
            out_dir = os.path.join(self.work, item.id)
            reasons, wrong = check_item(item, outcome, out_dir)
            digests.append(artifact_digest(out_dir))
            if self.item_digests is not None and digests[-1] != self.item_digests[len(digests) - 1]:
                reasons.append("artifact bytes differ from the warm-up pass")
                wrong = True
            if outcome.get("doc"):
                record["iterations"] += int(outcome["doc"]["iterations"])
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.wrong += wrong
                self.failures.append({"item": item.id, "pass": index, "reasons": reasons})
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.item_digests is None:
            self.item_digests = digests
        record["digest"] = hashlib.sha256("".join(digests).encode()).hexdigest()

    def pass_times(self, phase: str) -> list[float]:
        """Wall time of each pass's items, without the probes between them."""
        return [p["items_s"] for p in self.passes if p["phase"] == phase]


def layer_metrics(prof: dict, pass_s: float, iterations: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    by_name, under = prof["by_name"], prof["under"]

    def get(name: str, key: str):
        return by_name.get(name, {}).get(key, 0)

    def self_s(*names: str) -> float:
        return sum(get(n, "self_s") for n in names)

    m: dict[str, float] = {}
    for kind in ("induced", "tabulated"):
        span = f"spaces.kernel_{kind}"
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.evals"] = get(span, "count")
        m[f"{span}.self_s"] = get(span, "self_s")
    for span in ("spaces.membership_grid", "spaces.ball_contains", "contractions.apply_point",
                 "report.write_text_atomic", "sampling.sample_ball_pairs"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.self_s"] = get(span, "self_s")
    for span in ("spaces.axiom_audit", "operators.audit_operator_pair", "sampling.sample_pairs",
                 "contractions.apply_batch", "config.validate_config", "config.build_space",
                 "cli.run", "cli.validate_result_document"):
        m[f"{span}.self_s"] = get(span, "self_s")
    idempotency = ("operators.check_idempotent", "operators.idempotency_witness")
    m["operators.idempotency.calls"] = sum(get(n, "calls") for n in idempotency)
    m["operators.idempotency.self_s"] = self_s(*idempotency)
    sampler_checks = under.get(("spaces.ball_contains", "sampling.sample_ball_pairs"), 0)
    m["sampling.ball_accept_ratio"] = (
        get("sampling.sample_ball_pairs", "count") / sampler_checks if sampler_checks else 0.0)
    m["contractions.checks.self_s"] = self_s(*CHECK_SPANS)
    applications = sum(under.get(("contractions.apply_point", n), 0) for n in SOLVER_SPANS)
    m["solver.map_applications"] = applications
    m["solver.iterations"] = iterations
    m["solver.self_s"] = self_s(*REGIME_SPANS)
    m["solver.step_us"] = (1e6 * sum(get(n, "total_s") for n in REGIME_SPANS) / applications
                           if applications else 0.0)
    m["report.bytes_written"] = get("report.write_text_atomic", "count")
    m["report.serialize.self_s"] = self_s(*SERIALIZE_SPANS)
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = sum(v["self_s"] for n, v in by_name.items()
                                         if n.startswith(layer + "."))
    m["bench.self_s"] = self_s("bench.pass", "bench.item")
    m["trace.accounted_share"] = prof["self_total"] / pass_s
    return m


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for item artifacts")
    parser.add_argument("--record", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)

    wl = WorkloadRun(args.workload, args.seed, args.work)
    wl.run_pass("warmup")
    began = perf_counter()
    # untraced passes fill the whole window, or its first half in a traced run
    window = args.seconds / 2 if args.trace else args.seconds
    while True:
        wl.run_pass("untraced")
        elapsed = perf_counter() - began
        if elapsed >= window and len(wl.pass_times("untraced")) >= 2:
            break

    record = {"workload": args.workload, "seed": args.seed, "provenance": provenance()}
    if args.trace:
        tracer = Tracer()
        layer_rows = []
        tracer.install()
        try:
            while True:
                start = len(tracer.t0)
                done = wl.run_pass("traced", tracer)
                prof = profile(tracer, start, len(tracer.t0))
                layer_rows.append(layer_metrics(prof, done["pass_s"], done["iterations"]))
                if perf_counter() - began >= args.seconds:
                    break
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(args.work, "spans.npz"))
        untraced = statistics.median(wl.pass_times("untraced"))
        traced = statistics.median(wl.pass_times("traced"))
        metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
        metrics.update({"trace.untraced_pass_s": untraced, "trace.traced_pass_s": traced,
                        "trace_overhead": traced / untraced})
        record["traced_passes"] = len(layer_rows)
    else:
        timed = [p for p in wl.passes if p["phase"] == "untraced"]
        # Each item's latency is its median over the passes, and the
        # percentiles are taken over the items: a single sample swings by
        # +-15% with the host even at reference speed, and a percentile of
        # pooled samples that falls where two items' costs overlap moves
        # with that noise.
        scaled_ms = [1e3 * statistics.median(v) for v in wl.scaled_s]
        wall_ms = [1e3 * statistics.median(v) for v in wl.wall_s]
        metrics = {
            "pass_s": statistics.median(p["scaled_s"] for p in timed),
            "item_p50_ms": statistics.median(scaled_ms),
            "item_p90_ms": statistics.quantiles(scaled_ms, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["wall"] = {
            "pass_s": statistics.median(wl.pass_times("untraced")),
            "item_p50_ms": statistics.median(wall_ms),
            "item_p90_ms": statistics.quantiles(wall_ms, n=10)[-1],
            "probe_ms": 1e3 * statistics.median(p["probe_s"] for p in timed),
            "probe_kind": wl.probe_kind,
        }
    record.update({
        "metrics": metrics,
        "timed_passes": len(wl.wall_s[0]),
        "items_per_pass": len(wl.items),
        "passes": wl.passes,
        "digest": wl.passes[0]["digest"],
        "digest_stable": all(p["digest"] == wl.passes[0]["digest"] for p in wl.passes),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "wrong": wl.wrong,
        "failures": wl.failures,
    })
    with open(args.record, "w") as handle:
        json.dump(record, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
