"""Fixed-point computation by Picard iteration with nearness stopping.

:func:`judge` holds the stop rules, for the solver and ``validate`` alike.
The map steps blocks of up to ``STEP_BLOCK`` iterates, an affine map's in one
call, and the iterates past the stop are dropped, so a map must be a pure
function; the kernel works pair by pair, so the trace is that of a
step-by-step loop, bit for bit.
Each solver enforces its regime's hypotheses before iterating (unless
configured off), and a failure is a result status, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from .contractions import (
    ContractivityReport,
    SelfMap,
    apply_chain,
    apply_point,
    closed_ball_hypotheses,
    contractive_sequence_check,
    direct_ratio_contractive_check,
    if_contractive_check,
    K_SAFETY_MARGIN,
    NonFiniteImageError,
    t_uniform_continuity_probe,
)
from .operators import BLOCK_CELLS
from .sampling import sample_ball_pairs, sample_pairs
from .spaces import (
    DEFAULT_HALFWIDTH,
    AsymptoticReport,
    BallSpec,
    IfmSpace,
    _ball_flags,
    _margin,
    _near,
    _steps,
    asymptotic_nearness_probe,
    membership_grid,
    point_jsonable,
    probe_grid,
)

# Iterates the Picard loop steps before its kernel calls, up to STEP_BLOCK - 1 of them past the
# stop; on solve-long, 8 saved too few calls and 409 dropped more steps than it saved.
STEP_BLOCK = 64

# Extra precision for power_map_solve's inner solve: the original map's residual stacks the
# power map's with the map's own modulus.
POWER_SOLVE_TIGHTENING = 32.0
# The stop reason of a power solve whose candidate misses the original map's residual
RESIDUAL_MISSED = ("power-map iteration converged but the original map's residual missed "
                   "tolerance; tolerance and probe grid are mismatched for this map")

# Two residual-accurate fixed points can sit a few residuals apart, so uniqueness_probe's
# mutual-equality verdicts allow this factor on top of the solve tolerance.
EQUALITY_SLACK = 10.0

DEFAULT_UNIFORM_EPSILONS = (0.1, 0.01)

STATUSES = ("converged", "budget_exhausted", "hypothesis_failed", "diverged_from_ball", "diverged")

# Horizon t and tolerance of the large-horizon nearness probe.
ASYMPTOTIC_HORIZON = 1e6
ASYMPTOTIC_EPSILON = 1e-2


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
    sample_halfwidth: float = DEFAULT_HALFWIDTH

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self.probe_ts = tuple(float(t) for t in probe_grid(tuple(self.probe_ts) or None))


@dataclass
class IterationTrace:
    """Iterates plus per-step nearness records at every probe time."""

    points: list
    probe_ts: tuple[float, ...]
    step_mu: np.ndarray  # shape (len(points) - 1, len(probe_ts))
    step_nu: np.ndarray
    ball_flags: list[bool] | None = None

    def verify(self, space: IfmSpace, map_: SelfMap) -> bool:
        """Re-check chain consistency and stored nearness values exactly.

        A broken chain is ``False``, and so is a malformed stored point
        after the first; a first point that is not a point of the space
        raises, as :func:`chain_break` says."""
        if chain_break(space, map_, self.points) is not None:
            return False
        _, mu, nu, _ = _steps(space, self.points, self.probe_ts)
        return bool(np.array_equal(mu, self.step_mu) and np.array_equal(nu, self.step_nu))


@dataclass
class SolveResult:
    """Outcome of one solve: status, candidate, trace, and certificates."""

    status: str  # one of STATUSES
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
    """Points ``x0 .. xn``, each the image of its predecessor: one :func:`apply_chain`, whose exception is raised."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pts, _, kept = apply_chain(space, map_, space.domain.as_point(x0), n)
    if kept is not None:
        raise kept
    return pts


def chain_break(space: IfmSpace, map_: SelfMap, points: Sequence) -> int | None:
    """First step ``i`` whose stored successor is not the image of
    ``points[i]``, or ``None`` when the whole chain holds; equality is exact
    (``-0.0`` equals ``0.0``, NaN equals nothing).  A chain that reads as
    points, of a map with a row-exact batch form (``SelfMap._rows``), is
    mapped in one call, and its first differing image is checked as
    :func:`apply_point` checks; others are walked by :func:`apply_point`,
    each stored successor read as a point, so a malformed point is a break
    at the step before it, or raises first."""
    if map_._rows is not None:
        try:
            pts = space.domain.read(points)
            images = map_._rows(pts[:-1])
            broken = np.flatnonzero(space.domain.distinct(images, pts[1:]))
        except (TypeError, ValueError, IndexError):  # the walk below decides, step by step
            broken = None
        if broken is not None:
            if broken.size:
                space.domain.image(images[broken[0]])
                return int(broken[0])
            return None
    for i in range(len(points) - 1):
        image = apply_point(space, map_, points[i])
        try:
            successor = space.domain.as_point(points[i + 1])
        except ValueError:  # a successor that is not a point
            return i
        if space.domain.distinct([image], [successor])[0]:
            return i
    return None


def residual_certificate(space: IfmSpace, map_: SelfMap, x, ts, epsilon: float):
    """Single-step residual ``(mu, nu)`` of ``x`` at every probe time and
    whether it certifies ``x`` fixed: ``mu >= 1 - epsilon`` and
    ``nu <= epsilon`` at every t.  Returns ``(ok, mu, nu)``."""
    mu, nu = membership_grid(space, x, apply_point(space, map_, x), ts)
    return bool(_near(mu[0], nu[0], epsilon, closed=True).all()), mu[0], nu[0]


def _sampled(config: SolveConfig, box) -> dict:
    """Keywords of a sampled check: the pair count, probe grid and seed of ``config``, and ``box``."""
    return {"sample_pairs_count": config.sample_pairs, "probe_ts": config.probe_ts, "seed": config.seed,
            "box": box}


# notion -> check of (space, map, solve settings, sampling box, the notion's parameters), for the
# check action and the solve gates; each looks its check up when called, so a rebound one runs.
CHECKS = {
    "if_contractive": lambda space, map_, cfg, box: if_contractive_check(space, map_, **_sampled(cfg, box)),
    "direct_ratio": lambda space, map_, cfg, box, include_coincident: direct_ratio_contractive_check(
        space, map_, include_coincident=include_coincident, **_sampled(cfg, box)),
    "t_uniform_continuity": lambda space, map_, cfg, box, epsilons: t_uniform_continuity_probe(
        space, map_, epsilons, **_sampled(cfg, box)),
    "contractive_sequence": lambda space, map_, cfg, box, k, prefix, x0, steps: contractive_sequence_check(
        space, iterate_trace(space, map_, x0, steps) if prefix is None else prefix, k, cfg.probe_ts),
    "closed_ball_hypotheses": lambda space, map_, cfg, box, ball, k: closed_ball_hypotheses(
        space, map_, ball.center, ball.radius, ball.time, k),
}


# regime -> the stop reasons of its first and second gate failures (direct_ratio: of a failed and a vacuous check)
GATE_REASONS = {
    "picard": ("map failed the contraction check on sampled pairs",
               f"space failed the large-horizon nearness probe at t={ASYMPTOTIC_HORIZON:g}"),
    "closed_ball": ("first-step ball bounds failed",
                    "map is not contractive with the supplied constant on ball pairs"),
    "power": ("power map (m={m}) failed the contraction check", "map failed the t-uniform continuity probe"),
    "direct_ratio": ("direct-ratio contraction check failed on sampled pairs",
                     "direct-ratio contraction is vacuous with coincident pairs included"),
}


def gate_reason(regime: str, notion: str, verdict: str, m: int | None = None) -> str:
    """The stop reason of a failed gate, from the notion and verdict of the report the failure
    carries; picard's large-horizon probe has none, so it carries the passed contraction report."""
    second = {"picard": verdict == "pass", "closed_ball": notion != "closed_ball_hypotheses",
              "power": notion != "if_contractive", "direct_ratio": verdict == "vacuous"}[regime]
    return GATE_REASONS[regime][second].format(m=m)


def _gate(report: ContractivityReport, regime: str, m: int | None = None) -> tuple[ContractivityReport, str | None]:
    return report, None if report.passed else gate_reason(regime, report.notion, report.verdict, m)


def judge(near: Sequence[bool], windows: dict[int, bool], flags: list[bool] | None, fixed_at: int | None,
          overflow: str | None, config: SolveConfig) -> tuple[str, str, int | None, int] | None:
    """The stop rules on a trace's evidence: ``(status, stop_reason, c, m)``
    with candidate ``c`` (or ``None``) and last step kept ``m``, or ``None``
    while the trace goes on.

    ``near[i]``: step row ``i`` (``x_i`` against ``x_{i+1}``) is epsilon-near
    at every probe time; the last step judged, ``n``, is the smaller of
    ``len(near)`` and the budget; ``windows[c]``: ``x_{c+1} .. x_{c+window}``
    are all near the near candidate ``x_c`` (a missing ``c`` is not); ``flags``: open-ball flags,
    ``None`` without a ball; ``fixed_at``: the first step equal to its
    predecessor; ``overflow``: the message of an overflow at step ``n + 1``.
    The first step with a stop wins, a ball exit before an exact fixed point
    before a window; then the spent budget, then an overflow.
    """
    n, w = min(len(near), config.max_iterations), config.window
    exit_at = flags.index(False) if flags is not None and False in flags else n + 1
    m = min(exit_at, fixed_at or n + 1, min((c + w for c, ok in windows.items() if ok and near[c]), default=n + 1))
    if m == exit_at <= n:
        return ("diverged_from_ball", f"iterate {m} left the open ball" if m else
                "starting point lies outside the open ball", None, m)
    if m == fixed_at <= n:
        return "converged", f"exact fixed point reached at iteration {m - 1}", m - 1, m
    if m <= n:
        # x_{c+1} .. x_{c+window} all strictly eps-near x_c at every t; this
        # implies the (non-strict) residual bound at the candidate c
        return ("converged", f"window of {w} iterates after iteration {m - w} stayed within "
                f"epsilon={config.epsilon:g} at every probe t", m - w, m)
    if n == config.max_iterations:
        return "budget_exhausted", f"no fixed point certified within {n} iterations", None, n
    if overflow is not None:
        return "diverged", f"iterate {n + 1} overflowed: {overflow}", None, n
    return None


def _windows(space: IfmSpace, points, candidates: list[int], config: SolveConfig) -> dict[int, bool]:
    """Whether ``x_{c+1} .. x_{c+window}`` are all epsilon-near ``x_c``, per
    candidate ``c``, from grids of about ``BLOCK_CELLS`` cells in order, up
    to the first grid where a window holds."""
    w, ts, table = config.window, config.probe_ts, {}
    per = max(1, BLOCK_CELLS // (w * len(ts)))
    for i in range(0, len(candidates), per):
        chunk = candidates[i : i + per]
        pts = space.domain.batch(points[chunk[0] : chunk[-1] + w + 1])
        at = np.asarray(chunk) - chunk[0]
        after = (at[:, None] + np.arange(1, w + 1)).ravel()
        mu, nu = membership_grid(space, pts[at.repeat(w)], pts[after], ts)
        ok = _near(mu, nu, config.epsilon).all(axis=1).reshape(len(chunk), w).all(axis=1)
        table.update(zip(chunk, ok.tolist()))
        if ok.any():
            break
    return table


def judge_trace(space: IfmSpace, map_: SelfMap, points, config: SolveConfig,
                flags: list[bool] | None) -> tuple[str, str, int | None, int] | None:
    """:func:`judge` on the read points of a stored trace and their open-ball ``flags``: one
    :func:`_steps`, the windows of every near candidate and, for a trace with no stop of its
    own, ``map_`` applied to its last point, whose overflow ends a ``diverged`` solve."""
    with np.errstate(over="ignore"):  # as in the solve, an overflow is a stop, not a warning
        pts, mu, nu, fixed_at = _steps(space, points, config.probe_ts)
        near = _near(mu, nu, config.epsilon).all(axis=1)
        windows = _windows(space, pts, np.flatnonzero(near[: max(0, len(near) - config.window + 1)]).tolist(), config)
        verdict = judge(near, windows, flags, fixed_at, None, config)
        if verdict is None:
            try:
                apply_point(space, map_, points[-1])
            except NonFiniteImageError as exc:
                verdict = judge(near, windows, flags, fixed_at, str(exc), config)
    return verdict


def _solve(space: IfmSpace, map_: SelfMap, x0, config: SolveConfig,
           gates: Sequence[Callable[[], tuple]], ball: BallSpec | None = None) -> SolveResult:
    """Run a regime's hypothesis gates in order, then Picard iteration.

    A gate returns its report and a failure reason (``None`` on a pass).
    With checks on, the first failing gate ends the solve as
    ``hypothesis_failed`` with its report, or the first gate's when it has
    none; otherwise the result carries the first gate's report.  A block of up
    to ``STEP_BLOCK`` steps, one :func:`apply_chain` (fewer at the budget or a
    map call that raises, its exception kept), gives :func:`judge` its evidence:
    its :func:`_steps`, open-ball flags, and the windows of its near candidates
    before its first ball exit or exact fixed point.  What follows the
    stop is dropped; an exception no stop precedes is raised.
    """
    ts = np.asarray(config.probe_ts)
    points = [space.domain.as_point(x0)]
    blocks: list[tuple[np.ndarray, np.ndarray]] = []  # the step rows (mu, nu) of each block
    near: list[bool] = []
    windows: dict[int, bool] = {}
    report = flags = None  # the result's gate report; the open-ball flags, None without a ball

    def stop(status: str, reason: str, c: int | None, m: int) -> SolveResult:
        del points[m + 1 :]
        if flags is not None:
            del flags[m + 1 :]
        step_mu, step_nu = (np.concatenate([b[i] for b in blocks])[:m] if blocks else np.empty((0, len(ts)))
                            for i in (0, 1))
        trace = IterationTrace(points, config.probe_ts, step_mu, step_nu, flags)
        if c is None:
            return SolveResult(status, None, m, trace, reason, report)
        return SolveResult(status, points[c], c, trace, reason, report,
                           residual_mu=step_mu[c].copy(), residual_nu=step_nu[c].copy())

    if config.hypothesis_checks:
        for i, gate in enumerate(gates):
            gate_report, reason = gate()
            if i == 0 or (reason is not None and gate_report is not None):
                report = gate_report
            if reason is not None:
                return stop("hypothesis_failed", reason, None, 0)

    # an overflowing image ends the solve as a status, so numpy's overflow
    # warnings on the way there, in the map and in the kernel, are noise
    with np.errstate(over="ignore"):
        flags = None if ball is None else _ball_flags(space, ball, points).tolist()
        fixed_at, kept = None, None  # the last block's exact fixed point and exception (its windows too)
        while (verdict := judge(near, windows, flags, fixed_at, str(kept) if isinstance(
                kept, NonFiniteImageError) else None, config)) is None:
            if kept is not None:
                raise kept
            s = len(points)
            # an exception is kept, and raised when the judge reaches its step
            chain, pts, kept = apply_chain(space, map_, points[-1], min(STEP_BLOCK, config.max_iterations + 1 - s))
            if len(chain) > 1:
                points += chain[1:]
                pts, mu, nu, fixed_at = _steps(space, pts, ts, s)
                blocks.append((mu, nu))
                near += _near(mu, nu, config.epsilon).all(axis=1).tolist()
                end = fixed_at or len(points)
                if flags is not None:
                    inside = _ball_flags(space, ball, pts[1:]).tolist()
                    flags += inside
                    end = min(end, s + inside.index(False)) if False in inside else end
                w = config.window
                windows = _windows(space, points, [c for c in range(max(s - w, 0), end - w) if near[c]], config)
    return stop(*verdict)


def _asymptotic_probe(space: IfmSpace, config: SolveConfig, box) -> AsymptoticReport:
    """Large-horizon nearness probe on eight seeded pairs."""
    pair_x, pair_y = sample_pairs(space, 8, config.seed + 1, box)
    return asymptotic_nearness_probe(space, list(zip(pair_x, pair_y)), ASYMPTOTIC_HORIZON, ASYMPTOTIC_EPSILON)


def picard_solve(space: IfmSpace, map_: SelfMap, x0, config: SolveConfig | None = None) -> SolveResult:
    """Iterate a contraction to its fixed point from ``x0``, gated on the
    reciprocal-gap contraction check on sampled pairs and the large-horizon
    nearness probe of the space."""
    config = config or SolveConfig()
    box = space.domain.box(config.sample_halfwidth, x0)

    return _solve(space, map_, x0, config, (
        lambda: _gate(CHECKS["if_contractive"](space, map_, config, box), "picard"),
        # the probe's report is not a contraction report, so a failure
        # carries the contraction check's
        lambda: (None, None if _asymptotic_probe(space, config, box).passed else
                 gate_reason("picard", "if_contractive", "pass")),
    ))


def closed_ball_solve(
    space: IfmSpace, map_: SelfMap, ball: BallSpec, k: float, config: SolveConfig | None = None
) -> SolveResult:
    """Solve from the ball center, gated on the first-step ball bounds and
    on contraction with constant ``k`` on pairs sampled in the closed ball.
    Every iterate, the candidate included, must stay in the open ball."""
    config = config or SolveConfig()

    def ball_constant() -> tuple[ContractivityReport, str | None]:
        pairs = sample_ball_pairs(space, ball, max(64, config.sample_pairs // 4), config.seed)
        report = if_contractive_check(space, map_, 0, config.probe_ts, pairs=pairs)
        sup = report.details["sup_ratio"]
        if report.passed and not sup > k + K_SAFETY_MARGIN * (1.0 + k):
            return report, None
        report.notes = (report.notes + "; " if report.notes else "") + (
            f"observed ratio supremum {sup!r} is not within the supplied constant k={k!r}"
        )
        return report, gate_reason("closed_ball", report.notion, report.verdict)

    return _solve(space, map_, ball.center, config, (
        lambda: _gate(CHECKS["closed_ball_hypotheses"](space, map_, config, None, ball=ball, k=k), "closed_ball"),
        ball_constant,
    ), ball=ball)


def inner_config(config: SolveConfig, m: int) -> SolveConfig:
    """The settings of :func:`power_map_solve`'s inner solve of the m-th power."""
    return config if m == 1 else replace(config, epsilon=config.epsilon / POWER_SOLVE_TIGHTENING)


def power_map_solve(
    space: IfmSpace,
    map_: SelfMap,
    m: int,
    config: SolveConfig | None = None,
    x0=None,
) -> SolveResult:
    """Find the fixed point of a map whose m-th power is a contraction.

    Iterates the power map at :func:`inner_config`'s tolerance, then
    certifies the original map's residual at the candidate.  The gates: the
    power map passes the contraction check and the map itself, which need
    not contract, the t-uniform continuity probe.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    config = config or SolveConfig()
    start = space.domain.default_start() if x0 is None else x0
    power = map_.power(m)
    box = space.domain.box(config.sample_halfwidth)
    result = _solve(space, power, start, inner_config(config, m), (
        lambda: _gate(CHECKS["if_contractive"](space, power, config, box), "power", m),
        lambda: _gate(CHECKS["t_uniform_continuity"](space, map_, config, box, epsilons=DEFAULT_UNIFORM_EPSILONS),
                      "power", m),
    ))
    if not result.converged:
        return result

    ok, result.residual_mu, result.residual_nu = residual_certificate(space, map_, result.fixed_point,
                                                                      config.probe_ts, config.epsilon)
    if not ok:  # as validate rules on a stored power trace
        result.status, result.fixed_point, result.stop_reason = "budget_exhausted", None, RESIDUAL_MISSED
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

    The regime also assumes nearness tends to certainty at large ``t``, where
    the ratio check cannot pass; so the large-horizon probe is recorded in
    the notes, not gated on (the conflict is surfaced, not resolved).  A
    vacuous ratio verdict is a hypothesis failure with its note.
    """
    config = config or SolveConfig()
    start = space.domain.default_start() if x0 is None else x0
    box = space.domain.box(config.sample_halfwidth)

    result = _solve(space, map_, start, config, (lambda: _gate(CHECKS["direct_ratio"](
        space, map_, config, box, include_coincident=include_coincident), "direct_ratio"),))
    if result.hypothesis_report is not None and result.hypothesis_report.passed:
        result.notes = (
            "large-horizon nearness probe "
            + ("passed" if _asymptotic_probe(space, config, box).passed else "failed")
            + " (recorded only: jointly with the ratio contraction it is unsatisfiable)"
        )
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
    are marked and excluded from the mutual check.  All pairs of limits,
    ``i < j``, are evaluated in one kernel call, and ``worst_pair`` is the
    first smallest margin in ``(pair, t)`` order, a NaN below any value.
    """
    config = config or SolveConfig()
    results = [picard_solve(space, map_, s, config) for s in starts]
    statuses = [r.status for r in results]
    limits = [r.fixed_point for r in results if r.converged]

    eq_eps = min(EQUALITY_SLACK * config.epsilon, 0.5)
    ts = np.asarray(config.probe_ts)
    agreement, worst_pair, max_dist = True, None, None
    if len(limits) > 1:
        i, j = np.triu_indices(len(limits), 1)
        points = space.domain.batch(limits)
        mu, nu = membership_grid(space, points[i], points[j], ts)
        margins = _margin(mu, nu, eq_eps)
        p, t = np.unravel_index(int(np.argmin(margins)), margins.shape)
        agreement = bool(_near(mu, nu, eq_eps, closed=True).all())
        worst_pair = {"i": int(i[p]), "j": int(j[p]), "t": float(ts[t]),
                      "mu": float(mu[p, t]), "nu": float(nu[p, t])}
        if space.base_distance is not None:
            max_dist = float(np.max(space.base_distance(points[i], points[j])))
    return UniquenessReport(
        statuses=statuses,
        limits=[point_jsonable(p) for p in limits],
        equality_epsilon=eq_eps,
        agreement=agreement,
        worst_pair=worst_pair,
        max_pairwise_distance=max_dist,
        results=results,
    )
