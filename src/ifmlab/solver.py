"""Fixed-point computation by Picard iteration with nearness stopping.

The iteration stops at the earliest index ``n`` whose following ``window``
iterates are all epsilon-near ``x_n`` at every probe time and whose
single-step residual confirms ``x_n`` is fixed to tolerance; ``n`` is the
reported iteration count and ``x_n`` the fixed-point candidate.  The extra
confirmation iterates remain visible at the end of the trace.  An iterate
that exactly reproduces its predecessor short-circuits the window (the
tail is constant from there on).

Each solver enforces the hypothesis set of its regime before iterating
(bypassable via configuration); hypothesis failures are reported as a
result status carrying the failing check, never as exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .contractions import (
    ContractivityReport,
    SelfMap,
    apply_point,
    closed_ball_hypotheses,
    direct_ratio_contractive_check,
    if_contractive_check,
    K_SAFETY_MARGIN,
    t_uniform_continuity_probe,
)
from .sampling import coordinate_box, sample_ball_pairs, sample_pairs
from .spaces import (
    AsymptoticReport,
    BallSpec,
    CoordinateSpace,
    IfmSpace,
    asymptotic_nearness_probe,
    ball_contains,
    membership_grid,
    point_jsonable,
    points_equal,
    probe_grid,
)

# Extra precision for the inner solve of power_map_solve: the single-step
# residual of the original map stacks the power-map residual with the
# map's own modulus, so the inner iteration runs tighter than the target.
POWER_SOLVE_TIGHTENING = 32.0

# Two residual-accurate fixed points can sit a few residuals apart, so
# mutual-equality verdicts in uniqueness_probe allow this factor on top of
# the solve tolerance.
EQUALITY_SLACK = 10.0

DEFAULT_UNIFORM_EPSILONS = (0.1, 0.01)


@dataclass
class SolveConfig:
    """Iteration budget, stopping thresholds, and hypothesis-check knobs."""

    epsilon: float = 1e-8
    max_iterations: int = 10_000
    probe_ts: tuple[float, ...] = ()
    window: int = 8
    hypothesis_checks: bool = True
    sample_pairs: int = 400
    seed: int = 0
    sample_halfwidth: float = 8.0
    asymptotic_horizon: float = 1e6
    asymptotic_epsilon: float = 1e-2

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self.probe_ts = tuple(float(t) for t in probe_grid(self.probe_ts or None))


@dataclass
class IterationTrace:
    """Iterates plus per-step nearness records at every probe time."""

    points: list
    probe_ts: tuple[float, ...]
    step_mu: np.ndarray  # shape (len(points) - 1, len(probe_ts))
    step_nu: np.ndarray
    ball_flags: list[bool] | None = None

    def verify(self, space: IfmSpace, map_: SelfMap) -> bool:
        """Re-check chain consistency and stored nearness values exactly."""
        for i in range(len(self.points) - 1):
            if not points_equal(apply_point(space, map_, self.points[i]), self.points[i + 1]):
                return False
        if len(self.points) > 1:
            ts = np.asarray(self.probe_ts)
            mu, nu = membership_grid(space, self.points[:-1], self.points[1:], ts)
            return bool(np.array_equal(mu, self.step_mu) and np.array_equal(nu, self.step_nu))
        return True


@dataclass
class SolveResult:
    """Outcome of one solve: status, candidate, trace, and certificates."""

    status: str  # converged | budget_exhausted | hypothesis_failed | diverged_from_ball
    fixed_point: Any | None
    iterations: int
    trace: IterationTrace
    stop_reason: str
    hypothesis_report: ContractivityReport | None = None
    residual_mu: np.ndarray | None = None
    residual_nu: np.ndarray | None = None
    notes: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def iterate_trace(space: IfmSpace, map_: SelfMap, x0, n: int) -> list:
    """Points ``x0 .. xn`` with each entry the image of its predecessor."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pts = [space.as_point(x0)]
    for _ in range(n):
        pts.append(apply_point(space, map_, pts[-1]))
    return pts


def _empty_trace(space: IfmSpace, x0, ts, ball_flags=None) -> IterationTrace:
    k = len(ts)
    return IterationTrace(
        points=[space.as_point(x0)],
        probe_ts=tuple(float(t) for t in ts),
        step_mu=np.empty((0, k)),
        step_nu=np.empty((0, k)),
        ball_flags=ball_flags,
    )


def _hypothesis_failed(space, x0, config, report, reason) -> SolveResult:
    return SolveResult(
        status="hypothesis_failed",
        fixed_point=None,
        iterations=0,
        trace=_empty_trace(space, x0, np.asarray(config.probe_ts)),
        stop_reason=reason,
        hypothesis_report=report,
    )


def _window_near(space, points, c, window, eps, ts) -> bool:
    """All of x_{c+1} .. x_{c+window} strictly eps-near x_c at every t."""
    mu, nu = membership_grid(space, points[c], points[c + 1 : c + 1 + window], ts)
    return bool(np.all((mu > 1.0 - eps) & (nu < eps)))


def _picard_engine(space, map_, x0, config, ball: BallSpec | None = None):
    """Shared iteration loop; returns a SolveResult without hypothesis data."""
    ts = np.asarray(config.probe_ts)
    eps = config.epsilon
    start = space.as_point(x0)
    points = [start]
    mu_rows: list[np.ndarray] = []
    nu_rows: list[np.ndarray] = []
    flags: list[bool] | None = None
    if ball is not None:
        flags = [ball_contains(space, ball, start, mode="open")]
        if not flags[0]:
            return SolveResult(
                status="diverged_from_ball",
                fixed_point=None,
                iterations=0,
                trace=_empty_trace(space, x0, ts, ball_flags=flags),
                stop_reason="starting point lies outside the open ball",
            )

    def build_trace() -> IterationTrace:
        k = len(ts)
        return IterationTrace(
            points=points,
            probe_ts=tuple(float(t) for t in ts),
            step_mu=np.asarray(mu_rows).reshape(len(mu_rows), k),
            step_nu=np.asarray(nu_rows).reshape(len(nu_rows), k),
            ball_flags=flags,
        )

    def converged(candidate: int, reason: str) -> SolveResult:
        return SolveResult(
            status="converged",
            fixed_point=points[candidate],
            iterations=candidate,
            trace=build_trace(),
            stop_reason=reason,
            residual_mu=mu_rows[candidate].copy(),
            residual_nu=nu_rows[candidate].copy(),
        )

    applications = 0
    while applications < config.max_iterations:
        nxt = apply_point(space, map_, points[-1])
        applications += 1
        points.append(nxt)
        mu_row, nu_row = membership_grid(space, points[-2], nxt, ts)
        mu_rows.append(mu_row[0])
        nu_rows.append(nu_row[0])
        if ball is not None:
            inside = ball_contains(space, ball, nxt, mode="open")
            flags.append(inside)
            if not inside:
                return SolveResult(
                    status="diverged_from_ball",
                    fixed_point=None,
                    iterations=len(points) - 1,
                    trace=build_trace(),
                    stop_reason=f"iterate {len(points) - 1} left the open ball",
                )
        m = len(points) - 1
        if points_equal(nxt, points[-2]):
            return converged(m - 1, f"exact fixed point reached at iteration {m - 1}")
        c = m - config.window
        if c >= 0 and _window_near(space, points, c, config.window, eps, ts):
            # residual at the candidate (non-strict) is implied by the
            # strict window bound on the pair (c, c+1)
            return converged(
                c,
                f"window of {config.window} iterates after iteration {c} stayed "
                f"within epsilon={eps:g} at every probe t",
            )
    return SolveResult(
        status="budget_exhausted",
        fixed_point=None,
        iterations=applications,
        trace=build_trace(),
        stop_reason=f"no fixed point certified within {config.max_iterations} iterations",
    )


def sampling_box(space: IfmSpace, config: SolveConfig, center=None):
    """Box of ``config.sample_halfwidth`` around ``center`` (default the
    origin) for coordinate spaces; ``None`` for tabulated ones."""
    if isinstance(space.domain, CoordinateSpace):
        c = None if center is None else np.asarray(center, float)
        return coordinate_box(space.domain.dimension, c, config.sample_halfwidth)
    return None


def _asymptotic_probe(space: IfmSpace, config: SolveConfig, box) -> AsymptoticReport:
    """Large-horizon nearness probe on eight seeded pairs."""
    pair_x, pair_y = sample_pairs(space, 8, config.seed + 1, box)
    return asymptotic_nearness_probe(
        space, list(zip(pair_x, pair_y)), config.asymptotic_horizon, config.asymptotic_epsilon
    )


def picard_solve(space: IfmSpace, map_: SelfMap, x0, config: SolveConfig | None = None) -> SolveResult:
    """Iterate a contraction to its fixed point from ``x0``.

    With hypothesis checks enabled the map must pass the reciprocal-gap
    contraction check on sampled pairs and the space must pass the
    large-horizon nearness probe; failures return a ``hypothesis_failed``
    result carrying the report.
    """
    config = config or SolveConfig()
    report: ContractivityReport | None = None
    if config.hypothesis_checks:
        box = sampling_box(space, config, space.as_point(x0) if isinstance(space.domain, CoordinateSpace) else None)
        report = if_contractive_check(
            space, map_, config.sample_pairs, config.probe_ts, seed=config.seed, box=box
        )
        if not report.passed:
            return _hypothesis_failed(space, x0, config, report,
                                      "map failed the contraction check on sampled pairs")
        if not _asymptotic_probe(space, config, box).passed:
            return _hypothesis_failed(
                space, x0, config, report,
                f"space failed the large-horizon nearness probe at t={config.asymptotic_horizon:g}",
            )
    result = _picard_engine(space, map_, x0, config)
    result.hypothesis_report = report
    return result


def closed_ball_solve(
    space: IfmSpace, map_: SelfMap, ball: BallSpec, k: float, config: SolveConfig | None = None
) -> SolveResult:
    """Solve from the ball center, certifying containment of all iterates.

    Hypothesis checks require the first-step ball bounds to hold and the
    map to be contractive with constant ``k`` on pairs sampled inside the
    closed ball.  Every iterate must stay in the open ball (matching the
    strict per-step bounds); the fixed point itself, being a limit, only
    needs the closed ball.
    """
    config = config or SolveConfig()
    report: ContractivityReport | None = None
    if config.hypothesis_checks:
        report = closed_ball_hypotheses(space, map_, ball.center, ball.radius, ball.time, k)
        if not report.passed:
            return _hypothesis_failed(space, ball.center, config, report,
                                      "first-step ball bounds failed")
        pairs = sample_ball_pairs(space, ball, max(64, config.sample_pairs // 4), config.seed)
        ball_check = if_contractive_check(space, map_, 0, config.probe_ts, pairs=pairs)
        sup = float(ball_check.details.get("sup_ratio", np.inf))
        if not ball_check.passed or sup > k + K_SAFETY_MARGIN * (1.0 + k):
            ball_check.notes = (ball_check.notes + "; " if ball_check.notes else "") + (
                f"observed ratio supremum {sup!r} is not within the supplied constant k={k!r}"
            )
            return _hypothesis_failed(space, ball.center, config, ball_check,
                                      "map is not contractive with the supplied constant on ball pairs")
    result = _picard_engine(space, map_, ball.center, config, ball=ball)
    result.hypothesis_report = report
    if result.converged and not ball_contains(space, ball, result.fixed_point, mode="closed"):
        result.status = "diverged_from_ball"
        result.stop_reason = "fixed-point candidate left the closed ball"
        result.fixed_point = None
        result.residual_mu = None
        result.residual_nu = None
    return result


def power_map_solve(
    space: IfmSpace,
    map_: SelfMap,
    m: int,
    config: SolveConfig | None = None,
    x0=None,
) -> SolveResult:
    """Find the fixed point of a map whose m-th power is a contraction.

    Iterates the power map (with a tightened inner tolerance for m > 1,
    since the original map's residual stacks on top of the power map's),
    then certifies the original map's residual at the candidate.  With
    hypothesis checks on, the power map must pass the contraction check
    and the original map the t-uniform continuity probe; the map itself
    need not be contractive.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    config = config or SolveConfig()
    start = space.default_start() if x0 is None else x0
    power = map_.power(m)
    report: ContractivityReport | None = None
    if config.hypothesis_checks:
        box = sampling_box(space, config)
        report = if_contractive_check(space, power, config.sample_pairs, config.probe_ts,
                                      seed=config.seed, box=box)
        if not report.passed:
            return _hypothesis_failed(space, start, config, report,
                                      f"power map (m={m}) failed the contraction check")
        uniform = t_uniform_continuity_probe(
            space, map_, DEFAULT_UNIFORM_EPSILONS, config.sample_pairs, config.probe_ts,
            seed=config.seed, box=box,
        )
        if not uniform.passed:
            return _hypothesis_failed(space, start, config, uniform,
                                      "map failed the t-uniform continuity probe")
    inner = config if m == 1 else replace(
        config, epsilon=config.epsilon / POWER_SOLVE_TIGHTENING, hypothesis_checks=False
    )
    result = _picard_engine(space, power, start, inner)
    result.hypothesis_report = report
    if not result.converged:
        return result

    ts = np.asarray(config.probe_ts)
    image = apply_point(space, map_, result.fixed_point)
    res_mu, res_nu = membership_grid(space, result.fixed_point, image, ts)
    ok = bool(np.all((res_mu[0] >= 1.0 - config.epsilon) & (res_nu[0] <= config.epsilon)))
    result.residual_mu = res_mu[0]
    result.residual_nu = res_nu[0]
    if not ok:
        result.status = "budget_exhausted"
        result.fixed_point = None
        result.stop_reason = (
            "power-map iteration converged but the original map's residual missed "
            "tolerance; tolerance and probe grid are mismatched for this map"
        )
        return result
    result.notes = f"power-map solve (m={m}); original-map residual certified at epsilon={config.epsilon:g}"
    return result


def direct_ratio_solve(
    space: IfmSpace,
    map_: SelfMap,
    config: SolveConfig | None = None,
    x0=None,
    include_coincident: bool = False,
) -> SolveResult:
    """Picard solve gated on the direct membership-ratio contraction.

    The regime formally also assumes nearness tends to certainty at large
    ``t``; on such spaces the ratio check itself cannot pass, so the
    large-horizon probe outcome is recorded in the notes instead of
    gating (the two hypotheses are jointly unsatisfiable and the conflict
    is surfaced, not resolved).  A vacuous ratio verdict propagates as a
    hypothesis failure with its note.
    """
    config = config or SolveConfig()
    start = space.default_start() if x0 is None else x0
    report: ContractivityReport | None = None
    notes = ""
    if config.hypothesis_checks:
        box = sampling_box(space, config)
        report = direct_ratio_contractive_check(
            space, map_, config.sample_pairs, config.probe_ts,
            include_coincident=include_coincident, seed=config.seed, box=box,
        )
        if not report.passed:
            reason = "direct-ratio contraction check failed on sampled pairs"
            if report.verdict == "vacuous":
                reason = "direct-ratio contraction is vacuous with coincident pairs included"
            return _hypothesis_failed(space, start, config, report, reason)
        notes = (
            "large-horizon nearness probe "
            + ("passed" if _asymptotic_probe(space, config, box).passed else "failed")
            + " (recorded only: jointly with the ratio contraction it is unsatisfiable)"
        )
    result = _picard_engine(space, map_, start, config)
    result.hypothesis_report = report
    if notes:
        result.notes = notes
    return result


@dataclass
class UniquenessReport:
    """Mutual nearness of fixed points reached from several starts."""

    statuses: list[str]
    limits: list
    equality_epsilon: float
    agreement: bool
    worst_pair: dict | None = None
    max_pairwise_distance: float | None = None
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.agreement


def uniqueness_probe(
    space: IfmSpace,
    map_: SelfMap,
    starts: Sequence[Any],
    config: SolveConfig | None = None,
) -> UniquenessReport:
    """Solve from each start and test mutual nearness of the limits.

    Point equality is decided through nearness thresholds (the space's own
    notion of indistinguishability) at ``EQUALITY_SLACK`` times the solve
    tolerance, since two residual-accurate limits can legitimately sit a
    few residuals apart; coordinate distance is reported as auxiliary data
    when the space carries a base metric.  Starts that fail to converge
    are marked and excluded from the mutual check.
    """
    config = config or SolveConfig()
    results = [picard_solve(space, map_, s, config) for s in starts]
    statuses = [r.status for r in results]
    limits = [r.fixed_point for r in results if r.converged]

    eq_eps = min(EQUALITY_SLACK * config.epsilon, 0.5)
    ts = np.asarray(config.probe_ts)
    agreement = True
    worst_pair: dict | None = None
    worst_margin = np.inf
    max_dist: float | None = None
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            mu, nu = membership_grid(space, limits[i], limits[j], ts)
            margins = np.minimum(mu[0] - (1.0 - eq_eps), eq_eps - nu[0])
            t_idx = int(np.argmin(margins))
            margin = float(margins[t_idx])
            agreement = agreement and margin >= 0.0
            if margin < worst_margin:
                worst_margin = margin
                worst_pair = {
                    "i": i,
                    "j": j,
                    "t": float(ts[t_idx]),
                    "mu": float(mu[0, t_idx]),
                    "nu": float(nu[0, t_idx]),
                }
            if space.base_distance is not None:
                d = float(space.base_distance(np.asarray(limits[i], float),
                                              np.asarray(limits[j], float)))
                max_dist = d if max_dist is None else max(max_dist, d)
    return UniquenessReport(
        statuses=statuses,
        limits=[point_jsonable(p) for p in limits],
        equality_epsilon=eq_eps,
        agreement=agreement,
        worst_pair=worst_pair,
        max_pairwise_distance=max_dist,
        results=results,
    )
