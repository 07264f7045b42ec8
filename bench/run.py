"""ifmlab benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload solve-long --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times a fresh interpreter running ``python -m
ifmlab.cli defaults`` (``setup_s``) and then runs the workload in a fresh
child process with tracing off.  With ``--trace 1`` the child runs untraced
passes for half the time and traced passes for the rest, and the per-layer
numbers come from the traced ones.  The load is a closed loop: one client,
one thread, items back to back.  The workload's times are reported at
reference host speed (``hostspeed.py``), with the wall times beside them;
``setup_s`` is a wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts items that raised, answered wrongly, had their
certificate rejected by ``validate``, or wrote bytes that differ between
passes; ``correct`` is false when any answer was wrong (a verdict, status,
exit code or fixed point against its by-construction value, or
non-deterministic artifacts).  Records, failures and the span dump go to
``.bench_run/<workload>/``.  See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 7
# the worker stops by itself long before this; the whole run must end in 180 s
CHILD_TIMEOUT_S = 165.0
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_POOL_VARS})
    env.pop("IFMLAB_OUT", None)
    return env


def measure_setup(root: str, env: dict[str, str]) -> list[float]:
    """Wall times of cold CLI starts; the first, untimed, compiles bytecode.

    These stay wall times: a cold start (imports, page faults, a second
    process) does not follow the host-speed probe, and scaling by it made
    the times spread more, not less.  No timeout here: waiting with one
    polls in sleeps of up to 50 ms, which would quantize the times.
    """
    times = []
    for i in range(SETUP_STARTS + 1):
        started = perf_counter()
        subprocess.run([sys.executable, "-m", "ifmlab.cli", "defaults"], cwd=root, env=env,
                       stdout=subprocess.DEVNULL, check=True)
        if i:
            times.append(perf_counter() - started)
    return times


def report(args, record: dict, setup: list[float] | None, wanted: list[dict]) -> dict:
    """Print the human-readable lines and return the wanted metrics by name."""
    passes = record["passes"]
    metrics = dict(record["metrics"])
    if setup is not None:
        metrics["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise ValueError(f"the workload run did not produce {', '.join(missing)}")
    prov = record["provenance"]
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"provenance python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']} "
          f"cpu={prov['cpu']!r}")
    if setup is not None:
        n_timed = record["timed_passes"]
        items = f"n={record['items_per_pass']} item medians, each over {n_timed} passes"
        wall = record["wall"]
        notes = {
            "setup_s": f"wall time, median of {len(setup)} cold starts",
            "pass_s": f"median of {n_timed} passes of {record['items_per_pass']} items",
            "item_p50_ms": items,
            "item_p90_ms": items,
        }
        for name in ("pass_s", "item_p50_ms", "item_p90_ms"):
            notes[name] += f"; wall {wall[name]:.6g}"
        kind = wall["probe_kind"]
        print(f"host speed: {kind} probe median {wall['probe_ms']:.4g} ms, reference "
              f"{1e3 * REFERENCE_S[kind]:.4g} ms; the workload's times below are at reference speed")
    else:
        notes = {"trace.traced_pass_s": f"median of {record['traced_passes']} traced passes"}
    for m in wanted:
        note = f" ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}{note}")
    print(f"fail_ratio {record['failed'] / record['attempted']:.6f} 1 "
          f"({record['failed']} failed / {record['attempted']} attempted, "
          f"{record['wrong']} wrong answers)")
    stable = "identical across" if record["digest_stable"] else "DIFFERS between"
    print(f"artifact_digest {record['digest']} ({stable} {len(passes)} passes)")
    seen: dict[tuple[str, str], int] = {}
    for failure in record["failures"]:
        for reason in failure["reasons"]:
            seen[(failure["item"], reason)] = seen.get((failure["item"], reason), 0) + 1
    for (item, reason), count in sorted(seen.items()):
        print(f"failure {args.workload}/{item} x{count}: {reason}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ifmlab benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ifmlab", "cli.py")):
        print("error: src/ifmlab not found; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_run", args.workload)
    record_path = os.path.join(work, "record.json")
    env = child_env(root)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            wanted = json.load(handle)["per_layer" if args.trace else "end_to_end"]
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        setup = None if args.trace else measure_setup(root, env)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--record", record_path],
            cwd=root, env=env, stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)
        with open(record_path) as handle:
            record = json.load(handle)
        metrics = report(args, record, setup, wanted)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["wrong"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
