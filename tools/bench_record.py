"""Record one point of the bench trajectory: each workload of ``BENCHMARK.json``, run once.

Run from anywhere:

    python tools/bench_record.py new.json --seed 7 --seconds 30
    python tools/bench_record.py quick.json --quick --against new.json

For each workload it runs the benchmark command (``python3 bench/run.py
--workload W --seed S --seconds N``) from the repository root, then writes
to ``OUT.json`` the metrics of the run's last JSON line and, from
``.bench_run/W/record.json``, the ``artifact_digest``, ``failed`` and
``attempted``, the wall times and the provenance.  It also records the
environment's ``PYTHONDONTWRITEBYTECODE``: when it is set, every fresh
process compiles ``src/`` again, which shows in ``setup_s``.  ``--quick``
runs each workload for 5 s (under a minute for all three).  ``--against
OLD.json`` prints each metric's ratio, new over old, to the same metric of
an earlier file.  The exit status is 1 when a run fails.  Only the standard
library is used, and nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
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


def print_ratios(new: dict, old: dict) -> None:
    """Each metric of ``new`` beside the same metric of ``old`` and their ratio."""
    for workload, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(workload)
        if before is None:
            print(f"{workload}: not in the earlier file")
            continue
        same = "same" if entry["artifact_digest"] == before["artifact_digest"] else "DIFFERENT"
        print(f"{workload}: artifact_digest {same}")
        for name, metric in entry["metrics"].items():
            was = before["metrics"].get(name, {}).get("value")
            ratio = f"{metric['value'] / was:.3f}" if was else "n/a"
            print(f"  {name} {was} -> {metric['value']} {metric['unit']} (ratio {ratio})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record one run of every bench workload")
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_SECONDS} s per workload")
    parser.add_argument("--against", help="an earlier file to print ratios against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    old = None
    if args.against:
        with open(args.against) as handle:
            old = json.load(handle)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    doc = {"seed": args.seed, "seconds": seconds,
           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"), "workloads": {}}
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            doc["workloads"][workload] = record_workload(bench["command"], workload, args.seed, seconds)
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
