"""Byte-identical CLI artifacts on a fixed config set.

Each config runs through ``cli.main`` and every file it writes is hashed.
The expected sha256 digests were recorded before the pair x time kernel
refactor, and those of the solve configs that end at a hypothesis gate,
a spent budget or a ball exit before the solver's gates were merged into
one runner, and those of the failing, degenerate, tabulated and
nu-side checks and the indiscernible-pair audit before each mu clause and
its nu mirror were written once, and those of the configs that rely on an
action default before the action parameters were typed in one place, and
those of three operator audits on either side of a 16-row slab edge before
the associativity clause was scanned in slabs, and those of five Picard
solves that end at a block edge of the iteration loop before its step
rows were evaluated in blocks, and those of four space audits over
several sample blocks and two operator audits at a one-row or part-full
associativity slab before both audits were blocked by cell count (2**15
floats a block: 225 samples on the default probe grid, and slabs of
max(1, 2**15 // n**2) rows at grid n), and that of a power solve whose
candidate misses the original map's residual before the Picard step loop
was made cheaper, and those of a failing t-uniform continuity check and a
nu-side contractive-sequence failure before the bulk audits were trimmed
to the work their verdicts need, and that of a 4-D closed-ball solve,
which exited 2 before the ball sampler kept whole pairs and redrew the
metric box, recorded once it did, and those of an if-contractive check
whose worst pair lies in its second pair block and of a t-uniform check
whose threshold falls in a later block before the sampled checks were
streamed through pair blocks; the two Lukasiewicz operator audits were
recorded again when its t-norm became ``a - (1 - b)``, which keeps
``tnorm(a, 1) == a`` exact and moves clause worsts by one or two units of
2**-53 (identity 1.1e-16 -> 0, commutativity 0 -> 5.6e-17,
associativity 4.4e-16 -> 1.1e-16 at grid 200); the power solve whose
candidate misses the residual was recorded again when a t-uniform row with
no qualifying samples became ``vacuous``: its probe's epsilon 0.01 row held
none, so the solve now ends at that gate, and the same solve with its
gates off was recorded before that change, to keep the residual miss
pinned; and those of an 8-D and three 9-D configs, where numpy sums a
coordinate row pairwise, before the coordinate primitives were folded
column by column, and that of a 9-D l1 check at small probe times before
the stop rules were judged in one function; a change that moves any artifact byte fails
here unless the change declares the numeric difference and records new
digests.
"""

import hashlib
import json

import numpy as np
import pytest
import yaml

from ifmlab.cli import main
from ifmlab.solver import RESIDUAL_MISSED, STATUSES

OUTPUT = {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"}
LINE = {"induced": {"dimension": 1, "base_metric": "euclidean"}}
PLANE = {"induced": {"dimension": 2, "base_metric": "euclidean"}}
TABULATED = {
    "tabulated": {
        "labels": ["a", "b", "c"],
        "pairs": [
            {"between": ["a", "b"], "mu": [[0.5, 0.3], [4.0, 0.995]], "nu": [[0.5, 0.6], [4.0, 0.004]]},
            {"between": ["a", "c"], "mu": [[1.0, 0.2], [8.0, 0.995]], "nu": [[1.0, 0.7], [8.0, 0.004]]},
            {"between": ["b", "c"], "mu": 0.4, "nu": 0.5},
        ],
    }
}
HALF_SHIFT = {"affine": {"matrix": [[0.5]], "offset": [1.0]}}
HALVING = {"affine": {"matrix": [[0.5]], "offset": [0.0]}}
BALL = {"center": [0.0], "radius": 0.5, "time": 1.0}
PLANE_MAP = {"affine": {"matrix": [[0.5, 0.1], [0.0, 0.4]], "offset": [1.0, -1.0]}}
SHIFT_04 = {"affine": {"matrix": [[0.5]], "offset": [0.4]}}
TABLE_MAP = {"table": {"a": "a", "b": "a", "c": "b"}}
# constant curves under a swap of b and c: the nu side sets the worst ratio
# in both sampled checks (reciprocal gap 9 / 1.5 = 6, direct 0.4 / 0.1 = 4)
NU_SIDE = {
    "tabulated": {
        "labels": ["a", "b", "c"],
        "pairs": [
            {"between": ["a", "b"], "mu": 0.5, "nu": 0.1},
            {"between": ["a", "c"], "mu": 0.5, "nu": 0.4},
            {"between": ["b", "c"], "mu": 0.5, "nu": 0.4},
        ],
    }
}
NU_SIDE_MAP = {"table": {"a": "a", "b": "c", "c": "b"}}
# mu decays fast enough from step (a, b) to step (b, c) at k = 0.5 (gap 1 to
# 3/7), nu does not (reciprocal co-gap 3/2 to 7/3, below 3/2 / k = 3)
NU_STEP = {
    "tabulated": {
        "labels": ["a", "b", "c"],
        "pairs": [
            {"between": ["a", "b"], "mu": 0.5, "nu": 0.4},
            {"between": ["a", "c"], "mu": 0.5, "nu": 0.4},
            {"between": ["b", "c"], "mu": 0.7, "nu": 0.3},
        ],
    }
}
# one near pair (p00, p01) whose image (p00, p02) is far, one very near pair
# (p02, p03) that the map keeps, and four middling pairs that it maps onto
# (p02, p03); every other pair is far
RISING_LABELS = [f"p{i:02d}" for i in range(40)]
RISING_CURVES = {("p00", "p01"): (0.999, 0.0005), ("p02", "p03"): (0.9999999, 5e-8),
                 **dict.fromkeys([("p04", "p05"), ("p06", "p07"), ("p04", "p07"), ("p05", "p06")],
                                 (0.95, 0.04))}
RISING = {
    "tabulated": {
        "labels": RISING_LABELS,
        "pairs": [{"between": [a, b], "mu": RISING_CURVES.get((a, b), (0.3, 0.6))[0],
                   "nu": RISING_CURVES.get((a, b), (0.3, 0.6))[1]}
                  for i, a in enumerate(RISING_LABELS) for b in RISING_LABELS[i + 1:]],
    }
}
RISING_MAP = {"table": {**{p: p for p in RISING_LABELS},
                        "p01": "p02", "p04": "p02", "p05": "p03", "p06": "p02", "p07": "p03"}}
INDISCERNIBLE = {
    "tabulated": {
        "labels": ["a", "b", "c"],
        "pairs": [
            {"between": ["a", "b"], "mu": 1.0, "nu": 0.0},
            {"between": ["a", "c"], "mu": 0.6, "nu": 0.3},
            {"between": ["b", "c"], "mu": 0.6, "nu": 0.3},
        ],
    }
}

CONFIGS = {
    "solve-closed-ball-readme": ("solve", {
        "seed": 23, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.4]}},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": [0.0], "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
    "solve-picard-plane": ("solve", {
        "seed": 5, "space": PLANE, "map": PLANE_MAP,
        "action": {"solve": {"regime": "picard", "x0": [3.0, 2.0]}},
    }),
    "solve-power": ("solve", {
        "seed": 7, "space": {"induced": {"dimension": 2, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": [[0.0, 2.0], [0.125, 0.0]], "offset": [1.0, 0.5]}},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [1.0, -2.0]}},
    }),
    "solve-picard-tabulated": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "action": {"solve": {"regime": "picard", "x0": "c"}},
    }),
    "solve-picard-tabulated-unchecked": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "solve": {"hypothesis_checks": False},
        "action": {"solve": {"regime": "picard", "x0": "c"}},
    }),
    "solve-closed-ball-tabulated": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"table": {"a": "a", "b": "a", "c": "b"}},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": "a", "radius": 0.65, "time": 1.0}, "k": 0.5}},
    }),
    "solve-picard-contraction-fails": ("solve", {
        "seed": 11, "space": LINE, "map": {"affine": {"matrix": [[1.0]], "offset": [1.0]}},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-picard-horizon-fails": ("solve", {
        "seed": 3, "space": TABULATED, "map": {"constant": "a"},
        "action": {"solve": {"regime": "picard", "x0": "c"}},
    }),
    "solve-picard-budget-exhausted": ("solve", {
        "seed": 11, "space": LINE, "map": HALF_SHIFT,
        "solve": {"hypothesis_checks": False, "max_iterations": 5},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    # 4-D ball members take a second rejection round from the metric box
    "solve-closed-ball-4d": ("solve", {
        "seed": 1, "space": {"induced": {"dimension": 4, "base_metric": "euclidean"}},
        "map": {"affine": {"matrix": np.diag([0.5] * 4).tolist(), "offset": [0.05, 0.0, 0.0, 0.0]}},
        "sampling": {"pairs": 4000},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": [0.0] * 4, "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
    "solve-closed-ball-first-step-fails": ("solve", {
        "seed": 23, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.6]}},
        "action": {"solve": {"regime": "closed_ball", "ball": BALL, "k": 0.5}},
    }),
    "solve-closed-ball-k-fails": ("solve", {
        "seed": 23, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.4]}},
        "action": {"solve": {"regime": "closed_ball", "ball": BALL, "k": 0.3}},
    }),
    "solve-closed-ball-diverged": ("solve", {
        "seed": 23, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [2.0]}},
        "solve": {"hypothesis_checks": False},
        "action": {"solve": {"regime": "closed_ball", "ball": BALL, "k": 0.5}},
    }),
    "solve-power-contraction-fails": ("solve", {
        "seed": 7, "space": LINE, "map": {"affine": {"matrix": [[-1.0]], "offset": [1.0]}},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [0.0]}},
    }),
    "solve-direct-ratio-fails": ("solve", {
        "seed": 1, "space": LINE, "map": HALVING,
        "action": {"solve": {"regime": "direct_ratio", "x0": [1.0]}},
    }),
    "solve-direct-ratio-vacuous": ("solve", {
        "seed": 1, "space": LINE, "map": HALVING,
        "action": {"solve": {"regime": "direct_ratio", "x0": [1.0], "include_coincident": True}},
    }),
    "solve-direct-ratio-tabulated": ("solve", {
        "seed": 1, "space": TABULATED, "map": {"constant": "a"},
        "action": {"solve": {"regime": "direct_ratio", "x0": "c"}},
    }),
    "audit-tabulated": ("audit", {
        "seed": 2, "space": TABULATED, "action": {"audit": {"target": "space", "samples": 300}},
    }),
    "audit-induced": ("audit", {
        "seed": 4, "space": {"induced": {"dimension": 2, "base_metric": "absolute-difference"}},
        "action": {"audit": {"target": "space", "samples": 500}},
    }),
    "audit-operators": ("audit", {
        "operators": "product-probsum",
        "space": LINE, "action": {"audit": {"target": "operators", "grid_size": 30}},
    }),
    "check-if-contractive": ("check", {
        "seed": 1, "space": PLANE, "map": PLANE_MAP, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-direct-ratio": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "direct_ratio"}},
    }),
    "check-t-uniform-continuity": ("check", {
        "seed": 1, "space": PLANE, "map": PLANE_MAP, "sampling": {"pairs": 300, "halfwidth": 3.0},
        "action": {"check": {"notion": "t_uniform_continuity", "epsilons": [0.1, 0.01]}},
    }),
    "check-contractive-sequence": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.5, "x0": [0.0], "steps": 12}},
    }),
    "check-closed-ball-hypotheses": ("check", {
        "seed": 1, "space": LINE, "map": {"affine": {"matrix": [[0.5]], "offset": [0.4]}},
        "action": {"check": {"notion": "closed_ball_hypotheses",
                             "ball": {"center": [0.0], "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
    "check-if-contractive-fails": ("check", {
        "seed": 1, "space": LINE, "map": {"affine": {"matrix": [[1.5]], "offset": [0.0]}},
        "sampling": {"pairs": 300}, "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-if-contractive-tabulated": ("check", {
        "seed": 1, "space": TABULATED, "map": TABLE_MAP, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-if-contractive-nu-side": ("check", {
        "seed": 1, "space": NU_SIDE, "map": NU_SIDE_MAP, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-direct-ratio-nu-side": ("check", {
        "seed": 1, "space": NU_SIDE, "map": NU_SIDE_MAP, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "direct_ratio"}},
    }),
    "check-contractive-sequence-fails": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.3, "x0": [0.0], "steps": 12}},
    }),
    "check-closed-ball-hypotheses-degenerate": ("check", {
        "seed": 1, "space": LINE, "map": SHIFT_04,
        "action": {"check": {"notion": "closed_ball_hypotheses",
                             "ball": {"center": [0.8], "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
    "audit-tabulated-indiscernible": ("audit", {
        "seed": 2, "space": INDISCERNIBLE, "action": {"audit": {"target": "space", "samples": 300}},
    }),
    # defaults that no config above reaches
    "check-if-contractive-default-pairs": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT, "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-contractive-sequence-prefix": ("check", {
        "seed": 1, "space": LINE,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.5,
                             "prefix": [[0.0], [1.0], [1.5], [1.75], [1.875]]}},
    }),
    "check-contractive-sequence-defaults": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT,
        "action": {"check": {"notion": "contractive_sequence"}},
    }),
    "check-direct-ratio-coincident": ("check", {
        "seed": 1, "space": LINE, "map": HALF_SHIFT, "sampling": {"pairs": 300},
        "action": {"check": {"notion": "direct_ratio", "include_coincident": True}},
    }),
    "audit-induced-tolerance": ("audit", {
        "seed": 4, "space": LINE,
        "action": {"audit": {"target": "space", "samples": 200, "tolerance": 1e-6}},
    }),
    "audit-operators-default-grid": ("audit", {
        "operators": "lukasiewicz", "space": LINE, "action": {"audit": {"target": "operators"}},
    }),
    "solve-power-default-start": ("solve", {
        "seed": 7, "space": {"induced": {"dimension": 2, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": [[0.0, 2.0], [0.125, 0.0]], "offset": [1.0, 0.5]}},
        "action": {"solve": {"regime": "power", "m": 2}},
    }),
    "solve-closed-ball-default-k": ("solve", {
        "seed": 23, "space": LINE, "map": SHIFT_04,
        "action": {"solve": {"regime": "closed_ball", "ball": BALL}},
    }),
    # operator grids one row past a 16-row associativity slab (17, 33) and
    # one that ends mid-slab (200)
    "audit-operators-min-max-17": ("audit", {
        "operators": "min-max", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 17}},
    }),
    "audit-operators-product-probsum-33": ("audit", {
        "operators": "product-probsum", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 33}},
    }),
    "audit-operators-lukasiewicz-200": ("audit", {
        "operators": "lukasiewicz", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 200}},
    }),
    # Picard solves that end on an overflow, an exact fixed point, a window
    # of 1 or 3 iterates, and a budget spent after the window checks began
    "solve-picard-diverged": ("solve", {
        "seed": 11, "space": LINE, "map": {"affine": {"matrix": [[3.0]], "offset": [1.0]}},
        "solve": {"hypothesis_checks": False},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-picard-exact-fixed-point": ("solve", {
        "seed": 11, "space": LINE, "map": {"affine": {"matrix": [[0.0]], "offset": [0.5]}},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-picard-window-1": ("solve", {
        "seed": 11, "space": LINE, "map": HALF_SHIFT, "solve": {"window": 1},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-picard-window-3": ("solve", {
        "seed": 11, "space": LINE, "map": HALF_SHIFT, "solve": {"window": 3},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    "solve-picard-budget-13": ("solve", {
        "seed": 11, "space": LINE, "map": HALF_SHIFT,
        "solve": {"hypothesis_checks": False, "max_iterations": 13},
        "action": {"solve": {"regime": "picard", "x0": [0.0]}},
    }),
    # space audits over several sample blocks, with exact triangle ties
    # across blocks in the tabulated ones, and operator grids whose
    # associativity slab holds one row (181) or ends part-full (90)
    "audit-induced-chebyshev-1000": ("audit", {
        "seed": 6, "space": {"induced": {"dimension": 3, "base_metric": "chebyshev"}},
        "action": {"audit": {"target": "space", "samples": 1000}},
    }),
    "audit-induced-euclidean-2000": ("audit", {
        "seed": 8, "space": LINE, "solve": {"probe_ts": [0.25, 1.0, 3.0, 9.0]},
        "action": {"audit": {"target": "space", "samples": 2000}},
    }),
    "audit-tabulated-1500": ("audit", {
        "seed": 5, "space": TABULATED, "action": {"audit": {"target": "space", "samples": 1500}},
    }),
    "audit-tabulated-indiscernible-1500": ("audit", {
        "seed": 5, "space": INDISCERNIBLE, "action": {"audit": {"target": "space", "samples": 1500}},
    }),
    "audit-operators-product-probsum-181": ("audit", {
        "operators": "product-probsum", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 181}},
    }),
    "audit-operators-min-max-90": ("audit", {
        "operators": "min-max", "space": LINE,
        "action": {"audit": {"target": "operators", "grid_size": 90}},
    }),
    # (x, y) -> (1000 y, 0.00081 x): its square scales by 0.81, and the map
    # expands by 1000, more than the 32x tighter inner tolerance covers, so
    # the power-map candidate misses the original map's residual; with its
    # gates on, no sampled pair qualifies at the t-uniform probe's epsilon
    # 0.01 threshold, and the solve ends there as vacuous
    "solve-power-residual-misses": ("solve", {
        "seed": 7, "space": {"induced": {"dimension": 2, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": [[0.0, 1000.0], [0.00081, 0.0]], "offset": [0.0, 0.0]}},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [1.0, -2.0]}},
    }),
    "solve-power-residual-misses-ungated": ("solve", {
        "seed": 7, "space": {"induced": {"dimension": 2, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": [[0.0, 1000.0], [0.00081, 0.0]], "offset": [0.0, 0.0]}},
        "solve": {"hypothesis_checks": False},
        "action": {"solve": {"regime": "power", "m": 2, "x0": [1.0, -2.0]}},
    }),
    # x -> 10**12 x: at t = 10**9 every sampled pair is near even at the
    # smallest threshold, and no image pair is; the witness is the last
    # epsilon's
    "check-t-uniform-continuity-fails": ("check", {
        "seed": 1, "space": LINE, "map": {"affine": {"matrix": [[1.0e12]], "offset": [0.0]}},
        "sampling": {"pairs": 50, "halfwidth": 1.0}, "solve": {"probe_ts": [1.0e9]},
        "action": {"check": {"notion": "t_uniform_continuity", "epsilons": [0.5, 0.1]}},
    }),
    "check-contractive-sequence-nu-side": ("check", {
        "seed": 1, "space": NU_STEP,
        "action": {"check": {"notion": "contractive_sequence", "k": 0.5, "prefix": ["a", "b", "c"]}},
    }),
    # 2,500 pairs in blocks of 819: the worst ratio, on the nu side, is at
    # pair 1,300 in the second block
    "check-if-contractive-multi-block": ("check", {
        "seed": 4, "space": PLANE,
        "map": {"affine": {"matrix": [[1.2, 0.3], [0.0, 0.9]], "offset": [0.5, -0.5]}},
        "sampling": {"pairs": 2500}, "action": {"check": {"notion": "if_contractive"}},
    }),
    # the first block holds no (p00, p01) pair and admits r = 0.4 at epsilon
    # 0.1; the near pair at pair 917 forces r below 0.001, so the middling
    # pairs of the first block no longer qualify
    "check-t-uniform-continuity-rises": ("check", {
        "seed": 1, "space": RISING, "map": RISING_MAP, "sampling": {"pairs": 2000},
        "action": {"check": {"notion": "t_uniform_continuity"}},
    }),
    # 8 and 9 coordinates, where numpy sums a row pairwise and not left to
    # right (about a third of 9-D rows differ in the last bit between the
    # two); at seed 8 the sampled pairs' direction norms reach the witness,
    # at seed 4 and t far below the pairs' distances the distances reach
    # the ratios, and at seed 2 the audit's distances reach its witnesses
    "check-if-contractive-9d": ("check", {
        "seed": 8, "space": {"induced": {"dimension": 9, "base_metric": "euclidean"}},
        "map": {"affine": {"matrix": (0.5 * np.eye(9) + 0.02 * np.ones((9, 9))).tolist(),
                           "offset": [0.1 * i for i in range(9)]}},
        "sampling": {"pairs": 2000}, "action": {"check": {"notion": "if_contractive"}},
    }),
    "check-if-contractive-9d-small-t": ("check", {
        "seed": 4, "space": {"induced": {"dimension": 9, "base_metric": "euclidean"}},
        "map": {"affine": {"matrix": (0.5 * np.eye(9) + 0.02 * np.ones((9, 9))).tolist(),
                           "offset": [0.1 * i for i in range(9)]}},
        "sampling": {"pairs": 2000}, "solve": {"probe_ts": [0.001, 0.01]},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    # the same check on the l1 base metric, whose 9-D sum of |x_i - y_i| is
    # pairwise too: of seeds 0-15, only at seed 4 does a left-to-right fold
    # of the distances move a byte of the report
    "check-if-contractive-9d-absolute-difference-small-t": ("check", {
        "seed": 4, "space": {"induced": {"dimension": 9, "base_metric": "absolute-difference"}},
        "map": {"affine": {"matrix": (0.5 * np.eye(9) + 0.02 * np.ones((9, 9))).tolist(),
                           "offset": [0.1 * i for i in range(9)]}},
        "sampling": {"pairs": 2000}, "solve": {"probe_ts": [0.001, 0.01]},
        "action": {"check": {"notion": "if_contractive"}},
    }),
    "audit-induced-absolute-difference-9d": ("audit", {
        "seed": 2, "space": {"induced": {"dimension": 9, "base_metric": "absolute-difference"}},
        "action": {"audit": {"target": "space", "samples": 500}},
    }),
    # np.maximum folds exactly at any dimension
    "solve-closed-ball-chebyshev-8d": ("solve", {
        "seed": 8, "space": {"induced": {"dimension": 8, "base_metric": "chebyshev"}},
        "map": {"affine": {"matrix": np.diag([0.5] * 8).tolist(), "offset": [0.05] + [0.0] * 7}},
        "sampling": {"pairs": 2000},
        "action": {"solve": {"regime": "closed_ball",
                             "ball": {"center": [0.0] * 8, "radius": 0.5, "time": 1.0}, "k": 0.5}},
    }),
}

DIGESTS = {
    "audit-induced": (0, {
        "report.jsonl": "e74af2a89e998d352927b9fd172f67bbcb72fffa03cd59aec8a1395abf8b423c",
    }),
    "audit-induced-absolute-difference-9d": (0, {
        "report.jsonl": "93d880b545279737af76932e6de8887d0e2ac63e08fd2a259296fd3ec6c95999",
    }),
    "audit-induced-chebyshev-1000": (0, {
        "report.jsonl": "2f0e73e09fdb58be79908a46586e6c6306ab6baab78dda2fc2f165d84ccbc037",
    }),
    "audit-induced-euclidean-2000": (0, {
        "report.jsonl": "e48c126de75bfeef4cf5a70ccc04cea10bcce4a3495a9c67e406b102b4e58a33",
    }),
    "audit-induced-tolerance": (0, {
        "report.jsonl": "658303ab5fbe4276e50b37625762a14415d0aabd67a4df89e8eb29e8116bd0be",
    }),
    "audit-operators": (0, {
        "report.jsonl": "44c95a8f0092250e94c0d0fc09e56cd2ef0b1a0fcd01cc468608b5c053a2bb35",
    }),
    "audit-operators-lukasiewicz-200": (0, {
        "report.jsonl": "c556de6f12d72bd5b5037610e42942143bf779d7b8cc82a07b443bf7ca5c58e6",
    }),
    "audit-operators-min-max-17": (0, {
        "report.jsonl": "91406ab9b2fb70a49ba61e12b008b4d4d1e8b985f40b33e60478b6f4ee5a4913",
    }),
    "audit-operators-min-max-90": (0, {
        "report.jsonl": "d0ed3fca5cdee87b181d921da398bbd82e645d1216c60d27054723f0c7a761f7",
    }),
    "audit-operators-product-probsum-181": (0, {
        "report.jsonl": "fd72ec08396e72fe236af3765d9a781eae86c1c21b1aad5b107c71385ede4f87",
    }),
    "audit-operators-product-probsum-33": (0, {
        "report.jsonl": "e386bf94f8a7cfb02b2713f41d835d4c9fe302a3b1474b0f0560e839608544c2",
    }),
    "audit-operators-default-grid": (0, {
        "report.jsonl": "5253e11ad9e243c1a7e63f909f8036b0547d13c65ddc68882d508be0df35e9ed",
    }),
    "audit-tabulated": (1, {
        "report.jsonl": "cc51bd257e10d4c753cd1ffa63b9d880839172fa4b6d4f84fb92220dc839c7ee",
    }),
    "audit-tabulated-1500": (1, {
        "report.jsonl": "a541924c1e2b4086191f1662081c3eb117dd62e1b90073745dfe5367660d1e80",
    }),
    "audit-tabulated-indiscernible": (1, {
        "report.jsonl": "e6efe2ec270ce77075b31c5128e1fda2320c4f7a51dc11438a3f4ff0cb135871",
    }),
    "audit-tabulated-indiscernible-1500": (1, {
        "report.jsonl": "179f61dee11fede4bdeb70324fa4cd23a660e066f6016d23facf5201b8f4913d",
    }),
    "check-closed-ball-hypotheses": (0, {
        "report.jsonl": "8306b22a604901ff5e28de734f1e6c57b30dc070fbac2c469536d7a91d53a357",
    }),
    "check-closed-ball-hypotheses-degenerate": (0, {
        "report.jsonl": "8efceec7c121f16e61ed231fd2ea7de6ac9beafb4be9b64011a887ba42052c33",
    }),
    "check-contractive-sequence": (0, {
        "report.jsonl": "02bde4d616e731528d47f47e585920cece7c0e388b83dc5696966549efcde70f",
    }),
    "check-contractive-sequence-defaults": (0, {
        "report.jsonl": "dfc8fae7fa856684775c90b6712abba9a92d9d1ca4eff94ca464a2be8ef3ee87",
    }),
    "check-contractive-sequence-fails": (1, {
        "report.jsonl": "d7b925df5743a57f56b7159da0d846b1c724f63f8cb6d8d0d4c0253d7c2b7282",
    }),
    "check-contractive-sequence-prefix": (0, {
        "report.jsonl": "9519bc133410f3a5561bc1ceb0646043c8442ae80cef5a9dc1c34ecf181dfcad",
    }),
    "check-direct-ratio": (1, {
        "report.jsonl": "12018875a2dc056a0f3697fa1e765957782beb5d61432e42a5fd7517375736c6",
    }),
    "check-direct-ratio-coincident": (1, {
        "report.jsonl": "68f6bc650924d956688b75ec10738216b6443a8f559ea4e09dc73ff1ec02868a",
    }),
    "check-direct-ratio-nu-side": (1, {
        "report.jsonl": "1f44c6392237a09fafa1ba8b584646c9c786ecd991c727b4a957a45c9c9edba6",
    }),
    "check-if-contractive": (0, {
        "report.jsonl": "65f45b9a1ce027391ae778902296182539f2a421467e171b150865f632bbcd2b",
    }),
    "check-if-contractive-9d": (0, {
        "report.jsonl": "936a78618a226fc2920d5b5e0e716e604391969accaffe7fa417bbaf321881aa",
    }),
    "check-if-contractive-9d-absolute-difference-small-t": (0, {
        "report.jsonl": "ffd11bc8e8d5fb1532500e77ec087fb83dd0d42c36ef69cdd74b8c24d26564d6",
    }),
    "check-if-contractive-9d-small-t": (0, {
        "report.jsonl": "11e1d29875e748630555e80455c99f63a2d886128398cea2a1e7e2c758948df5",
    }),
    "check-if-contractive-default-pairs": (0, {
        "report.jsonl": "fdfa0103a26b1e9e921b85a453a9b54f693910f06c004a706af60f61c8d9593e",
    }),
    "check-if-contractive-fails": (1, {
        "report.jsonl": "a4ecebb45ab89479ba8cc50cbe95c526d049c9340b4714cc3168533274567a86",
    }),
    "check-if-contractive-multi-block": (1, {
        "report.jsonl": "9453f68e6168b95597693acd3bc800b632f5ceee592aadb0c5144fef791008a4",
    }),
    "check-if-contractive-nu-side": (1, {
        "report.jsonl": "5537ccfa91dc5c2fbb364c9a393ef020eea089308ced85933b1f3eeee6ec912b",
    }),
    "check-if-contractive-tabulated": (1, {
        "report.jsonl": "c4c042c0fd5b906eb4129ba1a7a55247c523ab1956fb08ba74649101845e2366",
    }),
    "check-t-uniform-continuity-fails": (1, {
        "report.jsonl": "71dd173d5a7e194c7aadb5b811359abe7fc14eb111803a874702fcde4d0bf387",
    }),
    "check-contractive-sequence-nu-side": (1, {
        "report.jsonl": "e91cf6a5b4b20c0386ae2b3da5cd0301b8079362580e93fce28ed15806f31856",
    }),
    "check-t-uniform-continuity-rises": (0, {
        "report.jsonl": "bc54acfb4a5f205c5e08653f87772f86087c0dcc97826824718034e634938cb4",
    }),
    "check-t-uniform-continuity": (0, {
        "report.jsonl": "7074eeb7ae5900824203f64b2a4ba346715a575a42c32eae11e0818b09afce21",
    }),
    "solve-closed-ball-chebyshev-8d": (0, {
        "report.jsonl": "95b76ea4ca85b969eb5aedcbe366e5ac314a953ba4312df552508e3bca693df5",
        "result.json": "4d671d5e390e8b63e0b3b85345c3409b096fe11f7c34efc2917c67045c016fbd",
        "trace.csv": "c96000ec0c25d6198a828e1095a57f5efffb3b3476585cd93f17c8379c575c11",
    }),
    "solve-closed-ball-default-k": (0, {
        "report.jsonl": "9e73108cf526061ee7a28a91e3ecc5be323f0d8b1c3ccb289eefcf0f148114ef",
        "result.json": "f48f88efad55ba2b2fbbba9bb5d01d95c7d747ffe5dd5f11c6685045f9bef1fc",
        "trace.csv": "ea1b44696e2e66bd337a03033f25347d6fda92da3b6c0077e3cbd07fe782dc3f",
    }),
    "solve-closed-ball-diverged": (1, {
        "report.jsonl": "f11a956d06c50d5b75145903de73868bfbf310f36705d59e709acc841688d3df",
        "result.json": "6fdaca834ec46ab73f3482c9593210f12dfe4ae99de777a6569ac5fb17cf9dc0",
        "trace.csv": "7b8cb0b199704823fea76ff6017b0924fde9888a1e231d9cdf9fbfa09510f616",
    }),
    "solve-closed-ball-4d": (0, {
        "report.jsonl": "d64e7dd0aa29bdf04efcf0487030fe9b5ef64d8724a25ba19470f8504aa5680e",
        "result.json": "a7d3bdf677848e130d94a0ccab55c3840324440a672814697d64d66c29fd0008",
        "trace.csv": "252e718390d0f4e8182af6d94f10d69bf946e2ac63f2a407fa960147a1eeb180",
    }),
    "solve-closed-ball-first-step-fails": (1, {
        "report.jsonl": "528f5e742f8191521816dc752825d96f2e93a5a5e6f681b9bd581eff07e381dc",
        "result.json": "5979d1c70e529964d80522ccf60256356686e056fbb46966b7a624f33ce486d9",
        "trace.csv": "0d57a3c0ede3ad6bcf6995c3b20e9067de4db205a7af8b7580ce1df7e5d37e09",
    }),
    "solve-closed-ball-k-fails": (1, {
        "report.jsonl": "7aec4fe368b84db06dea99574837d80df896885140421d14bca86ca11376f3b0",
        "result.json": "67c987a88a8e1f2e6ebac2b2dacc54fda67b91ed1f37618d27780da73e5615ab",
        "trace.csv": "0d57a3c0ede3ad6bcf6995c3b20e9067de4db205a7af8b7580ce1df7e5d37e09",
    }),
    "solve-closed-ball-readme": (0, {
        "report.jsonl": "9e73108cf526061ee7a28a91e3ecc5be323f0d8b1c3ccb289eefcf0f148114ef",
        "result.json": "333cbe3f06ad2faf754b0103ff06ff4b08b47df43201b5500eb87d7760578f30",
        "trace.csv": "ea1b44696e2e66bd337a03033f25347d6fda92da3b6c0077e3cbd07fe782dc3f",
    }),
    "solve-closed-ball-tabulated": (0, {
        "report.jsonl": "2e5ba7c098558930157fa39d4f48d33f76a570679d8571d4b3e41a4d784afb3a",
        "result.json": "e9c3fd34a3feff1f1c361a585e02fdaa88ceec43aa60f7ac07b2e92de937a0cf",
        "trace.csv": "d5ea2937383706e6849f9eba26ae9b58d8af7576866ea398f9f19aab30e52d0c",
    }),
    "solve-direct-ratio-fails": (1, {
        "report.jsonl": "3a376a12aeceb30994460c3d00e1691393617ee4a3775cf00d09041093817ccf",
        "result.json": "685fc03fdf75ae0e1f857b1aafc50c40359e5ab4c2848423271379c9fb95460f",
        "trace.csv": "4745cd91a9f4bea4df2f129a307de05258bd91562333924e9ecbe62988335d0b",
    }),
    "solve-direct-ratio-tabulated": (0, {
        "report.jsonl": "3f5988e5ecb12bf5306a40f7e960fcafa69444788fb0b42f3b4f612724b2ed69",
        "result.json": "296b17f844f482e3d64ccda1b341aa92abff778ea91a2fe91ae6f591ce8a3d3c",
        "trace.csv": "c23e32145561546611196d30f0c8bfb5e811381388d25d5ec22014e3b3f43fd1",
    }),
    "solve-direct-ratio-vacuous": (1, {
        "report.jsonl": "dbdad50d06d87bef0772c9859cf26c7ab72970b5090d3012b235213d4356b723",
        "result.json": "c6b28ee6ab03202e7f7cbbb59a87daf3dcd391f11cf3070bb59f2bed7cd9adc7",
        "trace.csv": "4745cd91a9f4bea4df2f129a307de05258bd91562333924e9ecbe62988335d0b",
    }),
    "solve-picard-budget-13": (1, {
        "report.jsonl": "18e143bbde640c6ed46443ec8f778466e7b3d79788793889582d0d474d74193f",
        "result.json": "3231e71db262126a1b95c5815c5a006e376d4d65ecd5ce33dbc8c3f1008ddf36",
        "trace.csv": "ce7f7a3205f63db1ecf768966a1c9b37cd34660746c467ec62e469ecf89e29e8",
    }),
    "solve-picard-budget-exhausted": (1, {
        "report.jsonl": "68988f133a2a0798bbbcbf9aef819cde1545e6de11a355c1b49652afb12e4510",
        "result.json": "f8ae581cd1f715c1e8b3cd160be373c97c888e9d781ed28bdd848a25a2fcb1f4",
        "trace.csv": "f2e7854c877d12a10543ee916d7a7b1ffc13a5dee2185c52063274fbc8efbd3c",
    }),
    "solve-picard-contraction-fails": (1, {
        "report.jsonl": "1f9b47f7a52208ccdcbeebfa590e1940140c364a498e0f914d28113f703ebfae",
        "result.json": "522905f37d6649522831f65fc85b08c244afebed5fed7d1a1113ee6d53b281f3",
        "trace.csv": "0d57a3c0ede3ad6bcf6995c3b20e9067de4db205a7af8b7580ce1df7e5d37e09",
    }),
    "solve-picard-diverged": (1, {
        "report.jsonl": "39f43cd9cdd63449916a2c0d2810455178e2bc660e02fac268ec6e273d52c942",
        "result.json": "71b1a75b4b0450b23f2f9a19b8aac332c99b4c3abb5f97559350a143e47dfe52",
        "trace.csv": "cd2b49839770b427c35177bfa0c2f705da76cb8a801ebdab65c7b88b81f26b4b",
    }),
    "solve-picard-exact-fixed-point": (0, {
        "report.jsonl": "051612434f97ec803201ef4f2a190cca90b78daf6c184845f72623ea9ab2abfa",
        "result.json": "cf6249f89d1f80b32a7b68900ef92678cdc0e1abe954587857694b6e5414bd55",
        "trace.csv": "fb99325c69e86d8ee0eca72e3196d2a67c46c0791a4865c2780dce35070b414d",
    }),
    "solve-picard-horizon-fails": (1, {
        "report.jsonl": "c1e100c82584787cd5c9b6623f4452de389b74e487dc66bbf5a6888944ec1980",
        "result.json": "c02fa1d030675382f5111dea4d130cc773b2bae0c05976db306738339ccf7580",
        "trace.csv": "0e8f7df62ca354ec8e1f39c5d483e6aacfcbe70bdb3e7bc0f1acff4a9ecba0a4",
    }),
    "solve-picard-plane": (0, {
        "report.jsonl": "306cc0d183b36e4abcf84974f0a8017b17a98d43d01c269be6cd00bf7dd9a392",
        "result.json": "7b37157696e706ed41299d735415563e20a48dec5e79097dd9d5b3adddd863ee",
        "trace.csv": "f790342f1e4354b13321f1b2f051cfeb79f1284e46208ba528d7fc5501870ee0",
    }),
    "solve-picard-tabulated": (1, {
        "report.jsonl": "4b999960eacada33634ebedca000ff1a74f6bbcabfe2bc90350c7ea96b87bc94",
        "result.json": "933552c161eb38aefeeb7ed9d57aefa3de7111a989f7350a2abe6518c65c79f1",
        "trace.csv": "0e8f7df62ca354ec8e1f39c5d483e6aacfcbe70bdb3e7bc0f1acff4a9ecba0a4",
    }),
    "solve-picard-tabulated-unchecked": (0, {
        "report.jsonl": "08f98dae9f82a8f3fd5e3d83095d2fc97d62fba7ea80fa2dabeab381be10c4f7",
        "result.json": "8118899524239f5493b420d829f6fbc4023b547b45038a95e6d006e571f97a20",
        "trace.csv": "fc6415b7636a3324299b4c9dbc4c69a2d507107935c4f141540e05e74cbea660",
    }),
    "solve-picard-window-1": (0, {
        "report.jsonl": "a25e493d6c155e80285f524fae425e90cd42c6e3445689022aeda23f42579eb9",
        "result.json": "fde3daa5ecdff79da89688927b72d8eb86ffb376b2fa0621e958b1d6772266a2",
        "trace.csv": "71fb40ba8da1ff6a3775644f62e50cfd65707d2e67144bc691ee65243fdb8df3",
    }),
    "solve-picard-window-3": (0, {
        "report.jsonl": "2f5977bf19b20a86c81a57a6c093860e1fd98bdb198ae24695f5d5e7f0a5ce56",
        "result.json": "b62d7794152561a599d5513e94f9cece6b517a7635104c77f6b0d032955db87f",
        "trace.csv": "6db5b5ea1bbcbeb3d599de51ce4218834d951c31b28bf5931d8f389bf944fa5e",
    }),
    "solve-power": (0, {
        "report.jsonl": "cca56feaa7be8b178340e33b109bcc92aa46613de5a9affefe561a02561db1e1",
        "result.json": "7dddb9b88bbf30b3a8a75e53aed100e96b0c501f913d7e2d25519365c7fb0df5",
        "trace.csv": "83d49b472afc5bc019e9b4dc754739e55c9d3f8c05d2eeec89237c42a2841689",
    }),
    "solve-power-contraction-fails": (1, {
        "report.jsonl": "8dfc45056dec10bd1f55870d05e5d9cd92f8a20f32629025e620c83d671cb3e8",
        "result.json": "b2be77ca7c983348dee0e1c5ebfba9928493bfa6e19b8fc68497bc1be78d402a",
        "trace.csv": "0d57a3c0ede3ad6bcf6995c3b20e9067de4db205a7af8b7580ce1df7e5d37e09",
    }),
    "solve-power-default-start": (0, {
        "report.jsonl": "cde17fdaa209f5f70168986bafc13080702bc39a1af8d25dc7b9073673c8518d",
        "result.json": "41ea7cb146b6b8d211c9422f746ced702d3425291ea63aa54e6962cd47eba74f",
        "trace.csv": "0cfa04cd7afaa1889340e3cf7387cc893e07e337f7abb8e03ea972e0738741de",
    }),
    "solve-power-residual-misses": (1, {
        "report.jsonl": "361bde79397bb390a628eb12a9bea196731cc9bf293ea1b23f6cffc724700c01",
        "result.json": "ac45a326cf85a61468d9fc6dbf56748a55ece318f8211310e58bbb116b67a372",
        "trace.csv": "3b69a26d2989a7b53493b7e4485ed70f488037befc8b46dcd02e8c696b757a0a",
    }),
    "solve-power-residual-misses-ungated": (1, {
        "report.jsonl": "a9d61953b8c3f28cb56792ba02483b8de278f9ed49558e23d8dc6a22b483750b",
        "result.json": "522657c8b3768911af0d008b865dfb6596216baa3c24bb01d17e297705b335f2",
        "trace.csv": "700edac7fd8cbbbe52b3b6c3e4382da17bb51396bc87ad8989ae493a8a89d94b",
    }),
}


def artifact_digests(name, tmp_path):
    """Run one config through the CLI; sha256 of every file it wrote."""
    command, config = CONFIGS[name]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**config, "output": OUTPUT}))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    return code, digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    code, digests = artifact_digests(name, tmp_path)
    assert (code, digests) == DIGESTS[name]
    if CONFIGS[name][0] == "solve":  # every pinned result validates, and none with its stop or budget edited
        result = tmp_path / "out" / "result.json"
        assert main(["validate", str(result)]) == 0
        doc = json.loads(result.read_text())
        edits = [("status", status) for status in STATUSES if status != doc["status"]]
        edits += [("stop_reason", "edited"), ("iterations", doc["iterations"] + 1)]
        edits += [("iterations", doc["iterations"] - 1)] if doc["iterations"] else []
        edits += [("fixed_point", doc["trace_points"][-1])] if doc["fixed_point"] is None else []
        # stored residuals reproduce where the solve stores them, and are null elsewhere
        edits += [("residual_mu", [0.5] * len(doc["probe_ts"]))]
        last = len(doc["trace_points"]) - 1  # a budget short of the last step stops there
        budget = {**doc["experiment"], "solve_config": {**doc["experiment"]["solve_config"], "max_iterations": last - 1}}
        edits += [("experiment", budget)] if last > 1 else []
        for key, value in edits:
            result.write_text(json.dumps({**doc, key: value}))
            assert main(["validate", str(result)]) == 1, (key, value)


def test_a_power_residual_miss_keeps_its_stored_residual(tmp_path):
    # a power candidate that misses the original map's residual stores that
    # residual; validate compared it only on converged documents, and exited 0
    assert artifact_digests("solve-power-residual-misses-ungated", tmp_path)[0] == 1
    result = tmp_path / "out" / "result.json"
    doc = json.loads(result.read_text())
    assert (doc["status"], doc["stop_reason"]) == ("budget_exhausted", RESIDUAL_MISSED)
    for key in ("residual_mu", "residual_nu"):
        for value in ([0.5] * len(doc[key]), None):
            result.write_text(json.dumps({**doc, key: value}))
            assert main(["validate", str(result)]) == 1, (key, value)
