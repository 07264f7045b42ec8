"""Record one point of the bench trajectory: each workload of ``BENCHMARK.json``, run ``--runs`` times.

Run from anywhere:

    python tools/bench_record.py new.json --seed 7 --seconds 30 --runs 3 --against old.json
    python tools/bench_record.py quick.json --quick --against new.json

For each workload it runs the benchmark command (``python3 bench/run.py
--workload W --seed S --seconds N``) from the repository root, then writes
to ``OUT.json`` the metrics of the run's last JSON line and, from
``.bench_run/W/record.json``, the ``artifact_digest``, ``failed`` and
``attempted``, the wall times and the provenance.  With ``--runs N`` (default
1), it runs every workload once per round, for N rounds, and each metric's
``value`` is the median of its N runs, beside its interquartile range
``iqr`` (``q3 - q1``, inclusive quartiles) and the runs' ``values``;
``failed`` and ``attempted`` are summed, ``wall`` lists each run's, and a
digest that differs between runs is an error.  It also records the
environment's ``PYTHONDONTWRITEBYTECODE``: when it is set, every fresh
process compiles ``src/`` again, which shows in ``setup_s``.  ``--quick``
runs each workload for 5 s (under a minute for all three).  ``--against
OLD.json`` prints each metric's ratio, new over old, to the same metric of
an earlier file, beside both files' IQRs (``-`` for a file of single runs);
a move of the median no larger than the larger IQR reads "unresolved", as
does any move between two files of single runs.  The exit status is 1 when a run fails.  Only the standard
library is used, and nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_SECONDS = 5


def record_workload(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One bench run of ``workload``: its end-to-end metrics and its record's facts."""
    run = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{workload}: the bench run exited {run.returncode}:\n{run.stderr[-2000:]}")
    last = json.loads(run.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_run", workload, "record.json")) as handle:
        record = json.load(handle)
    return {"metrics": last["metrics"], "correct": last["correct"], "artifact_digest": record["digest"],
            "failed": record["failed"], "attempted": record["attempted"], "wall": record["wall"],
            "provenance": record["provenance"]}


def summarize(runs: list[dict]) -> dict:
    """One workload's entry from its runs: a single run as it is; else each
    metric's median, IQR and values, summed counts and every run's wall times."""
    if len(runs) == 1:
        return runs[0]
    digests = {run["artifact_digest"] for run in runs}
    if len(digests) > 1:
        raise RuntimeError(f"the artifact digest changed between runs: {sorted(digests)}")
    metrics = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": metric["unit"], "value": statistics.median(values), "iqr": q3 - q1,
                         "values": values}
    return {**runs[0], "metrics": metrics, "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "attempted": sum(run["attempted"] for run in runs),
            "wall": [run["wall"] for run in runs]}


def print_ratios(new: dict, old: dict) -> None:
    """Each metric of ``new`` beside the same metric of ``old``, the ratio of
    their medians, both IQRs and whether the move exceeds the larger IQR."""
    for workload, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(workload)
        if before is None:
            print(f"{workload}: not in the earlier file")
            continue
        same = "same" if entry["artifact_digest"] == before["artifact_digest"] else "DIFFERENT"
        print(f"{workload}: artifact_digest {same}")
        for name, metric in entry["metrics"].items():
            was = before["metrics"].get(name, {})
            ratio = f"{metric['value'] / was['value']:.3f}" if was.get("value") else "n/a"
            spreads = [m["iqr"] for m in (was, metric) if "iqr" in m]
            moved = bool(spreads) and "value" in was and abs(metric["value"] - was["value"]) > max(spreads)
            iqrs = " ".join(f"{m['iqr']:.4g}" if "iqr" in m else "-" for m in (was, metric))
            print(f"  {name} {was.get('value')} -> {metric['value']} {metric['unit']} (ratio {ratio}; "
                  f"IQR {iqrs}; {'resolved' if moved else 'unresolved'})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record one run of every bench workload")
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_SECONDS} s per workload")
    parser.add_argument("--against", help="an earlier file to print ratios against")
    parser.add_argument("--runs", type=int, default=1, help="runs of each workload, one per round")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    old = None
    if args.against:
        with open(args.against) as handle:
            old = json.load(handle)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    doc = {"seed": args.seed, "seconds": seconds,
           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"), "workloads": {}}
    if args.runs > 1:
        doc["runs"] = args.runs
    workloads = [w["name"] for w in bench["workloads"]]
    try:
        runs = {workload: [] for workload in workloads}
        for _ in range(args.runs):
            for workload in workloads:
                runs[workload].append(record_workload(bench["command"], workload, args.seed, seconds))
        doc["workloads"] = {workload: summarize(runs[workload]) for workload in workloads}
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if old is not None:
        print_ratios(doc, old)
    return 0


if __name__ == "__main__":
    sys.exit(main())
