"""Time one bench workload's items from two ``src`` trees, interleaved in one process.

Run from anywhere, with ``BASE_SRC`` the ``src`` directory of another
checkout (a ``git archive`` of the parent commit, say):

    python tools/ab_items.py BASE_SRC --workload solve-long --seed 13 --rounds 16
    python tools/ab_items.py BASE_SRC --workload audit-mixed --match operators --match tabulated

The ``ifmlab`` beside this script is the "change" side.  The package under
``BASE_SRC`` is copied into a temporary directory as ``ifmlab_base`` and
imported from there, so both sides live in this one interpreter.  Items come
from ``bench/workloads.py`` and run as ``bench/worker.py`` runs them:
``validate_config``, ``cli.run``, then, for a solve, ``json.load`` of the
written result and ``validate_result_document``.  One untimed round warms
both sides up; then each round runs every item once on each side,
alternating which side goes first, so host drift falls on both sides alike.
With ``--match SUBSTR`` (repeatable), only the items whose id contains one
of the substrings run; the ids of the items that run are printed first.

It prints, per item, each side's minimum and median wall time and the
change's ratio to the base; then the sums of the minima and of the medians
and the p90 of the item medians (the statistic of ``item_p90_ms``); and
whether every artifact file of every item was byte-identical between the
sides and across rounds.  The exit status is 1 when any artifact differed.
Only the standard library and numpy are used; nothing under ``bench/`` is
written.  BLAS and OpenMP pools are pinned to one thread, as the bench does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_NAME = "ifmlab_base"


def load_sides(base_src: str, scratch: str) -> dict[str, tuple]:
    """``(config, cli)`` modules of each side, keyed "base" and "change"."""
    shutil.copytree(os.path.join(base_src, "ifmlab"), os.path.join(scratch, BASE_NAME),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path[:0] = [os.path.join(ROOT, "src"), scratch]
    return {side: (importlib.import_module(f"{package}.config"), importlib.import_module(f"{package}.cli"))
            for side, package in (("base", BASE_NAME), ("change", "ifmlab"))}


def run_item(modules: tuple, item, out_dir: str) -> None:
    """The CLI's work for one item, as the bench worker does it."""
    config, cli = modules
    cli.run(config.validate_config(item.config), out_dir=out_dir)
    if item.kind == "solve":
        with open(os.path.join(out_dir, item.config["output"]["result"])) as handle:
            cli.validate_result_document(json.load(handle))


def artifact_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", help="src directory of the base tree")
    parser.add_argument("--workload", default="solve-long")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--rounds", type=int, default=16, help="timed rounds (default 16)")
    parser.add_argument("--match", action="append", default=[], metavar="SUBSTR",
                        help="time only the items whose id contains SUBSTR (repeatable; default all)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS

    items = [item for item in WORKLOADS[args.workload](args.seed)
             if not args.match or any(s in item.id for s in args.match)]
    if not items:
        parser.error(f"no {args.workload} item id contains any of {args.match}")
    print(f"items: {', '.join(item.id for item in items)}")
    times = {side: [[] for _ in items] for side in ("base", "change")}
    digests: dict[tuple[int, str], set[str]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        sides = load_sides(os.path.abspath(args.base_src), scratch)
        for r in range(args.rounds + 1):
            order = ("base", "change") if r % 2 else ("change", "base")
            for k, item in enumerate(items):
                for side in order:
                    out_dir = os.path.join(scratch, "out", side, item.id)
                    t0 = perf_counter()
                    run_item(sides[side], item, out_dir)
                    elapsed = perf_counter() - t0
                    if r:  # round 0 warms up
                        times[side][k].append(elapsed)
                    digests.setdefault((k, side), set()).add(artifact_digest(out_dir))
                    shutil.rmtree(out_dir)

    def summary(side: str, stat) -> list[float]:
        return [1e3 * stat(t) for t in times[side]]

    mins = {side: summary(side, min) for side in times}
    meds = {side: summary(side, statistics.median) for side in times}
    print(f"{args.workload} seed {args.seed}, {args.rounds} timed rounds; times in ms (change / base)")
    print(f"{'item':<22}{'base min':>10}{'change min':>12}{'ratio':>8}{'base med':>10}{'change med':>12}{'ratio':>8}")
    for k, item in enumerate(items):
        b, c, bm, cm = mins["base"][k], mins["change"][k], meds["base"][k], meds["change"][k]
        print(f"{item.id:<22}{b:>10.2f}{c:>12.2f}{c / b:>8.3f}{bm:>10.2f}{cm:>12.2f}{cm / bm:>8.3f}")
    rows = (("sum of minima", sum, mins), ("sum of medians", sum, meds),
            ("p90 of medians", lambda v: statistics.quantiles(v, n=10)[-1], meds))
    for name, stat, values in rows:
        b, c = stat(values["base"]), stat(values["change"])
        print(f"{name}: base {b:.2f} ms, change {c:.2f} ms ({100 * (c / b - 1):+.1f}%)")
    differ = [item.id for k, item in enumerate(items)
              if len(digests[k, "base"] | digests[k, "change"]) != 1]
    print("artifacts: byte-identical on every item" if not differ else f"artifacts differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
