"""Host-speed probe: a fixed piece of work timed next to every timed item.

The reference machine is a 2-vCPU VM on a shared host.  Its single-thread
speed changes by up to about 1.7x from one second to the next as other
tenants' load comes and goes, so raw wall times of one commit spread more
between runs than any useful regression bound.  The benchmark therefore
brackets each timed item with two probes and scales its wall time by
the probe's ``REFERENCE_S`` over the mean of the two.  The result reads as
the item's time on the reference machine at the probe speed
``REFERENCE_S``; when the program gets faster or slower, it moves by the
same factor as the wall time.

A probe comes in two kinds, each made of the kinds of work ifmlab does.
``small`` is numpy calls on a 10-element array, the solver's per-step
kernel calls.  ``mixed`` spends about 40% of its time on those calls, 30%
on elementwise numpy over 120,000 values (a 12,000-pair kernel batch) and
30% on a pure-Python dict loop (config and report code).  The host's
slowdowns do not hit these parts alike, so each workload uses the kind
closest to its own work (``workloads.PROBE_KIND``): on recorded runs the
small probe left the scaled times of bulk-heavy items (``classify``
checks, ``audit-mixed`` audits) spreading two to three times as much as the
mixed one, and the mixed one did the same to per-step-bound ``solve-long``.
Which kind a workload uses changes only how much noise cancels, not what
is measured.  The probes must stay fixed, or scaled times of two commits
stop being comparable.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About each probe's time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4).
REFERENCE_S = {"small": 1.0e-3, "mixed": 2.0e-3}
SMALL_ROUNDS = {"small": 500, "mixed": 300}
LOOP_ROUNDS = 4500
_SMALL = np.arange(10.0)
_BULK = np.linspace(0.0, 1.0, 120_000)
_BULK_REVERSED = _BULK[::-1].copy()


def probe(kind: str) -> float:
    """Wall time of the fixed probe work of ``kind``, in seconds."""
    started = perf_counter()
    x = _SMALL
    for _ in range(SMALL_ROUNDS[kind]):
        x = np.minimum(x, x[::-1]) * 0.5 + 1.0
    if kind == "mixed":
        y = np.minimum(_BULK, _BULK_REVERSED)
        y *= 0.5
        float(np.maximum(y, _BULK).sum())
        counts: dict[int, int] = {}
        for i in range(LOOP_ROUNDS):
            counts[i & 63] = counts.get(i & 63, 0) + i
    return perf_counter() - started


def scaled(wall_s: float, kind: str, probe_before: float, probe_after: float) -> float:
    """``wall_s`` at reference speed, from the probes on either side of it."""
    return wall_s * REFERENCE_S[kind] / (0.5 * (probe_before + probe_after))
