"""Seeded workload generators with expected outcomes known by construction.

Every item is one CLI-equivalent run: a config document (what a YAML file
would hold) plus the outcome the benchmark expects.  The program only ever
sees the config; the expectation is derived from how the inputs were built:

- affine maps are ``A = rho * P * diag(s)`` with ``P`` a signed permutation
  (the identity for Picard solves) and ``max(s) == 1``, so the Lipschitz
  constant is exactly ``rho`` in all three base metrics and the fixed point
  is ``(I - A)^-1 b``;
- start points are placed so the first step has a fixed length, which keeps
  iteration counts, and so item costs, nearly independent of the seed;
- tabulated spaces come from an ultrametric through ``mu = t/(t + d)`` on a
  shared t-grid, so every axiom clause holds under min-max.

Each workload has 15 items per pass, an odd count, so the median of the
items' latencies is one item's latency, not a mean of two.
This module does not import the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "chebyshev", "absolute-difference")
# The probe grid and tolerance every solve runs with; the fixed-point oracle
# derives its distance bound from these two values.
PROBE_TS = tuple(0.1 * 2.0**i for i in range(10))
EPSILON = 1e-8
OUTPUT = {"result": "result.json", "trace": "trace.csv", "report": "report.jsonl"}


@dataclass
class Item:
    """One operation of a workload: a config document and its expected outcome.

    ``expect`` holds ``exit`` (the CLI exit code) and, by kind:
    solves ``status``, ``fixed_point``, ``tolerance``, ``metric`` and
    ``validates``; audits and checks ``verdict``.
    """

    id: str
    kind: str  # "solve" | "audit" | "check"
    config: dict
    expect: dict


def metric_norm(v: np.ndarray, metric: str) -> float:
    v = np.abs(np.asarray(v, float))
    if metric == "euclidean":
        return float(np.sqrt(np.sum(v * v)))
    if metric == "chebyshev":
        return float(np.max(v))
    return float(np.sum(v))


def operator_norm(m: np.ndarray, metric: str) -> float:
    """Induced matrix norm for the base metric's vector norm."""
    order = {"euclidean": 2, "chebyshev": np.inf, "absolute-difference": 1}[metric]
    return float(np.linalg.norm(m, order))


def _signed_permutation(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = np.zeros((dim, dim))
    p[np.arange(dim), rng.permutation(dim)] = rng.choice([-1.0, 1.0], dim)
    return p


def _contraction(rng: np.random.Generator, dim: int, rho: float, spread: bool) -> np.ndarray:
    """``rho * P * diag(s)`` with ``max(s) == 1``: Lipschitz constant exactly rho."""
    s = np.ones(dim)
    if spread and dim > 1:
        s = rng.uniform(0.6, 1.0, dim)
        s[rng.integers(dim)] = 1.0
    return rho * _signed_permutation(rng, dim) @ np.diag(s)


def _direction(rng: np.random.Generator, dim: int, metric: str, length: float) -> np.ndarray:
    v = rng.normal(size=dim)
    return v * (length / metric_norm(v, metric))


def _affine(a: np.ndarray, fixed_point: np.ndarray) -> dict:
    b = (np.eye(len(fixed_point)) - a) @ fixed_point
    return {"affine": {"matrix": a.tolist(), "offset": b.tolist()}}


def _solve_expect(a: np.ndarray, fixed_point: np.ndarray, metric: str, validates: bool) -> dict:
    # A certified candidate x has d(x, Tx) <= t_min * eps / (1 - eps) and
    # x - x* = (I - A)^-1 (x - Tx), which bounds its distance to x*.
    inv = np.linalg.inv(np.eye(len(fixed_point)) - a)
    residual = min(PROBE_TS) * EPSILON / (1.0 - EPSILON)
    tolerance = operator_norm(inv, metric) * residual * (1.0 + 1e-6)
    tolerance += 1e-12 * (1.0 + float(np.max(np.abs(fixed_point))))
    return {"exit": 0, "status": "converged", "fixed_point": fixed_point.tolist(),
            "tolerance": tolerance, "metric": metric, "validates": validates}


def _base(seed: int, metric: str, dim: int) -> dict:
    return {"seed": seed, "operators": "min-max",
            "space": {"induced": {"dimension": dim, "base_metric": metric}},
            "output": dict(OUTPUT)}


def _gap(rng: np.random.Generator, gap: float) -> float:
    """1 - rho with a 2% seeded jitter (iteration counts scale with 1/gap)."""
    return gap * (1.0 + rng.uniform(-0.02, 0.02))


# ---------------------------------------------------------------------------
# solve-long: Picard, power and direct_ratio solves, then validate


PICARD_GAPS = (0.05, 0.045, 0.04, 0.035, 0.03, 0.025, 0.02, 0.01)
POWER_GAPS = (0.05, 0.04, 0.03, 0.02)
DIRECT_RATIO_COUNT = 3


def _picard_item(rng, idx: int, gap: float) -> Item:
    metric, dim = METRICS[idx % 3], 1 + (idx // 3 + idx) % 3
    rho = 1.0 - _gap(rng, gap)
    # A seeded signed permutation here (as elsewhere) would move the step
    # count, and so the item's cost, by about 4% from seed to seed; rho * I
    # moves it by about 1%.
    a = rho * np.eye(dim)
    x_star = rng.uniform(-3.0, 3.0, dim)
    # first step x0 -> Tx0 has length 1 in the base metric
    x0 = x_star + np.linalg.solve(np.eye(dim) - a, _direction(rng, dim, metric, 1.0))
    cfg = _base(int(rng.integers(1 << 30)), metric, dim)
    cfg.update(map=_affine(a, x_star),
               action={"solve": {"regime": "picard", "x0": x0.tolist()}},
               solve={"epsilon": EPSILON, "probe_ts": list(PROBE_TS)})
    return Item(f"picard-{idx:02d}", "solve", cfg, _solve_expect(a, x_star, metric, True))


def _power_item(rng, idx: int, gap: float) -> Item:
    """Square of the map contracts at rho^2; the map itself expands by 2."""
    metric, dim = METRICS[idx % 3], 2 + idx % 2
    rho = 1.0 - _gap(rng, gap)
    a = np.zeros((dim, dim))
    a[0, 1], a[1, 0] = 2.0, rho * rho / 2.0
    if dim == 3:
        a[2, 2] = rho
    x_star = rng.uniform(-3.0, 3.0, dim)
    a2 = a @ a
    x0 = x_star + np.linalg.solve(np.eye(dim) - a2, _direction(rng, dim, metric, 1.0))
    cfg = _base(int(rng.integers(1 << 30)), metric, dim)
    cfg.update(map=_affine(a, x_star),
               action={"solve": {"regime": "power", "m": 2, "x0": x0.tolist()}},
               solve={"epsilon": EPSILON, "probe_ts": list(PROBE_TS)})
    return Item(f"power-{idx:02d}", "solve", cfg, _solve_expect(a, x_star, metric, True))


def _direct_ratio_item(rng, idx: int) -> Item:
    """On induced spaces the direct-ratio hypothesis fails (README finding)."""
    metric, dim = METRICS[idx % 3], 1 + idx % 3
    rho = 1.0 - _gap(rng, 0.05)
    a = _contraction(rng, dim, rho, spread=True)
    x_star = rng.uniform(-3.0, 3.0, dim)
    cfg = _base(int(rng.integers(1 << 30)), metric, dim)
    cfg.update(map=_affine(a, x_star),
               action={"solve": {"regime": "direct_ratio", "x0": rng.uniform(-3, 3, dim).tolist()}},
               solve={"epsilon": EPSILON, "probe_ts": list(PROBE_TS)})
    return Item(f"direct-ratio-{idx:02d}", "solve", cfg,
                {"exit": 1, "status": "hypothesis_failed", "fixed_point": None, "validates": True})


def solve_long(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = [_picard_item(rng, i, g) for i, g in enumerate(PICARD_GAPS)]
    items += [_power_item(rng, i, g) for i, g in enumerate(POWER_GAPS)]
    items += [_direct_ratio_item(rng, i) for i in range(DIRECT_RATIO_COUNT)]
    return items


# ---------------------------------------------------------------------------
# audit-mixed: induced, tabulated and operator audits


INDUCED_AUDITS = (("euclidean", 2), ("chebyshev", 3), ("absolute-difference", 1))
INDUCED_SAMPLES = 20_000
TABULATED_LABELS = (12, 16)
TABULATED_SAMPLES = 1_000
TABULATED_TS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
OPERATOR_PAIRS = ("min-max", "product-probsum", "lukasiewicz")
OPERATOR_GRIDS = (100, 100, 100, 140, 140, 140, 170, 170, 170, 200)


def _ultrametric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Distances of a random dendrogram: merge heights strictly increase."""
    clusters = [[i] for i in range(n)]
    dist = np.zeros((n, n))
    height = 0.0
    while len(clusters) > 1:
        height += rng.uniform(0.2, 1.0)
        i, j = sorted(rng.choice(len(clusters), 2, replace=False))
        for a in clusters[i]:
            for b in clusters[j]:
                dist[a, b] = dist[b, a] = height
        clusters[i] += clusters.pop(j)
    return dist


def _tabulated_space(rng: np.random.Generator, n: int) -> dict:
    """Curves ``t/(t+d)`` on a shared t-grid keep the pointwise order of d, so
    the min/max triangle clauses survive linear interpolation."""
    dist = _ultrametric(rng, n)
    labels = [f"p{i:02d}" for i in range(n)]
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            mu = [t / (t + dist[a, b]) for t in TABULATED_TS]
            pairs.append({"between": [labels[a], labels[b]],
                          "mu": [[t, m] for t, m in zip(TABULATED_TS, mu)],
                          "nu": [[t, 1.0 - m] for t, m in zip(TABULATED_TS, mu)]})
    return {"tabulated": {"labels": labels, "pairs": pairs}}


def audit_mixed(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    items = []
    for metric, dim in INDUCED_AUDITS:
        cfg = _base(int(rng.integers(1 << 30)), metric, dim)
        cfg.update(action={"audit": {"target": "space", "samples": INDUCED_SAMPLES}},
                   sampling={"halfwidth": float(rng.uniform(4.0, 8.0))})
        items.append(Item(f"induced-{metric}-{dim}", "audit", cfg, {"exit": 0, "verdict": "pass"}))
    for n in TABULATED_LABELS:
        cfg = _base(int(rng.integers(1 << 30)), "euclidean", 1)
        cfg.update(space=_tabulated_space(rng, n),
                   action={"audit": {"target": "space", "samples": TABULATED_SAMPLES}})
        items.append(Item(f"tabulated-{n}", "audit", cfg, {"exit": 0, "verdict": "pass"}))
    for i, grid in enumerate(OPERATOR_GRIDS):
        pair = OPERATOR_PAIRS[i % 3]
        cfg = _base(int(rng.integers(1 << 30)), "euclidean", 1)
        cfg.update(operators=pair, action={"audit": {"target": "operators", "grid_size": grid}})
        items.append(Item(f"operators-{pair}-{i:02d}", "audit", cfg, {"exit": 0, "verdict": "pass"}))
    return items


# ---------------------------------------------------------------------------
# classify: sampled checks at large pair counts and closed-ball solves


CHECK_PAIRS = 12_000
SEQUENCE_STEPS = 300
BALL_PAIRS = 8_000
# (metric, dimension, k).  The sampler draws 4 * count points from the box
# around the ball per round and needs 2 * count inside; these balls fill at
# least 78% of their box, so one round always suffices and the item cost
# does not depend on how a draw falls around a 50% acceptance line.
BALL_SOLVES = (("euclidean", 1, 0.3), ("euclidean", 2, 0.4), ("chebyshev", 3, 0.5),
               ("chebyshev", 2, 0.6), ("absolute-difference", 1, 0.7))


def _ball_setup(rng, metric: str, dim: int, k: float):
    """Map with Lipschitz constant k and a ball whose first-step bound holds
    with a factor 2 to spare, so every iterate and the limit stay inside."""
    a = _contraction(rng, dim, k, spread=True)
    x_star = rng.uniform(-3.0, 3.0, dim)
    radius = float(rng.uniform(0.3, 0.6))
    time = float(rng.uniform(0.5, 2.0))
    step = 0.5 * (1.0 - k) * radius / (1.0 - radius) * time
    center = x_star + np.linalg.solve(np.eye(dim) - a, _direction(rng, dim, metric, step))
    ball = {"center": center.tolist(), "radius": radius, "time": time}
    return a, x_star, ball


def _check_item(rng, idx: int, notion: str) -> Item:
    metric, dim = METRICS[idx % 3], 1 + (idx + 1) % 3
    cfg = _base(int(rng.integers(1 << 30)), metric, dim)
    cfg["sampling"] = {"pairs": CHECK_PAIRS}
    params: dict = {"notion": notion}
    verdict = "pass"
    if notion == "contractive_sequence":
        rho = float(rng.uniform(0.95, 0.97))
        a = _contraction(rng, dim, rho, spread=False)
        x_star = rng.uniform(-3.0, 3.0, dim)
        # gaps stay above 1e-7 of the first one over the prefix, far from
        # rounding level, so the exact ratio rho <= k shows in floating point
        params.update(k=rho + 0.01, steps=SEQUENCE_STEPS,
                      x0=(x_star + _direction(rng, dim, metric, 1.0)).tolist())
    elif notion == "closed_ball_hypotheses":
        k = float(rng.uniform(0.3, 0.7))
        a, x_star, ball = _ball_setup(rng, metric, dim, k)
        params.update(k=k, ball=ball)
    else:
        a = _contraction(rng, dim, float(rng.uniform(0.5, 0.9)), spread=True)
        x_star = rng.uniform(-3.0, 3.0, dim)
        if notion == "direct_ratio":
            verdict = "fail"  # ratio supremum creeps to 1 on induced spaces
    cfg.update(map=_affine(a, x_star), action={"check": params})
    return Item(f"{notion}-{idx:02d}", "check", cfg,
                {"exit": 0 if verdict == "pass" else 1, "verdict": verdict})


# The solve is given a constant this far (relatively) above the map's exact
# Lipschitz constant.  With the exact value, rounding in the ratio of a
# sampled pair 2e-6 apart at t = 51.2 can exceed the solver's 1e-9 margin,
# and the solve then stops at hypothesis_failed.
K_HEADROOM = 1e-4


def _ball_solve_item(rng, idx: int, metric: str, dim: int, k: float) -> Item:
    k = float(k * (1.0 + rng.uniform(-0.02, 0.02)))
    a, x_star, ball = _ball_setup(rng, metric, dim, k)
    cfg = _base(int(rng.integers(1 << 30)), metric, dim)
    cfg.update(map=_affine(a, x_star), sampling={"pairs": BALL_PAIRS},
               action={"solve": {"regime": "closed_ball", "k": k * (1.0 + K_HEADROOM),
                                 "ball": ball}},
               solve={"epsilon": EPSILON, "probe_ts": list(PROBE_TS)})
    return Item(f"closed-ball-{idx:02d}", "solve", cfg, _solve_expect(a, x_star, metric, True))


CHECK_NOTIONS = ("if_contractive", "direct_ratio", "t_uniform_continuity",
                 "contractive_sequence", "closed_ball_hypotheses")


def classify(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    items = [_check_item(rng, i, notion)
             for i, notion in enumerate(n for n in CHECK_NOTIONS for _ in range(2))]
    items += [_ball_solve_item(rng, i, *solve) for i, solve in enumerate(BALL_SOLVES)]
    return items


WORKLOADS = {"solve-long": solve_long, "audit-mixed": audit_mixed, "classify": classify}
# The host-speed probe each workload's times are scaled by (hostspeed.py):
# solve-long is bound by small kernel calls, the other two by bulk kernel
# batches as well.
PROBE_KIND = {"solve-long": "small", "audit-mixed": "mixed", "classify": "mixed"}
