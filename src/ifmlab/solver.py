"""Fixed-point computation by Picard iteration with nearness stopping.

The iteration stops at the earliest index ``n`` whose following ``window``
iterates are all epsilon-near ``x_n`` at every probe time and whose
single-step residual confirms ``x_n`` is fixed to tolerance; ``n`` is the
reported iteration count and ``x_n`` the fixed-point candidate.  The extra
confirmation iterates remain visible at the end of the trace.  An iterate
that exactly reproduces its predecessor short-circuits the window (the
tail is constant from there on).

The map steps blocks of up to ``STEP_BLOCK`` iterates, and each block's
stop rules are replayed in step order (see :func:`_solve`); iterates past
the stop are dropped, never written, so a solve makes up to
``STEP_BLOCK - 1`` map applications more than its trace shows, and a map
must be a pure function.  The kernel works pair by pair, so a batched row
is the one-pair row bit for bit and the trace is that of a step-by-step
loop.

Each solver enforces the hypothesis set of its regime before iterating
(bypassable via configuration); hypothesis failures are reported as a
result status carrying the failing check, never as exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from .contractions import (
    ContractivityReport,
    SelfMap,
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
    asymptotic_nearness_probe,
    membership_grid,
    point_jsonable,
    points_equal,
    probe_grid,
)

# Iterates the Picard loop steps before its kernel calls (see _solve); up
# to STEP_BLOCK - 1 of them, past the stop, are computed and dropped.  On
# solve-long, 8 saved too few calls and 409 dropped more steps than it saved.
STEP_BLOCK = 64

# Extra precision for the inner solve of power_map_solve: the single-step
# residual of the original map stacks the power-map residual with the
# map's own modulus, so the inner iteration runs tighter than the target.
POWER_SOLVE_TIGHTENING = 32.0

# Two residual-accurate fixed points can sit a few residuals apart, so
# mutual-equality verdicts in uniqueness_probe allow this factor on top of
# the solve tolerance.
EQUALITY_SLACK = 10.0

DEFAULT_UNIFORM_EPSILONS = (0.1, 0.01)

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
        if len(self.points) == 1:
            return True
        mu, nu = membership_grid(space, self.points[:-1], self.points[1:], self.probe_ts)
        return bool(np.array_equal(mu, self.step_mu) and np.array_equal(nu, self.step_nu))


@dataclass
class SolveResult:
    """Outcome of one solve: status, candidate, trace, and certificates."""

    # converged | budget_exhausted | hypothesis_failed | diverged_from_ball | diverged
    status: str
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
    """Points ``x0 .. xn`` with each entry the image of its predecessor, each checked once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pts = [space.domain.as_point(x0)]
    for _ in range(n):
        pts.append(apply_point(space, map_, pts[-1], True))
    return pts


def chain_break(space: IfmSpace, map_: SelfMap, points: Sequence) -> int | None:
    """First step ``i`` whose stored successor is not the image of
    ``points[i]``, or ``None`` when the whole chain holds.

    Equality is exact (``-0.0`` equals ``0.0``, NaN equals nothing), as the
    domain's ``distinct`` compares rows.  A map with a row-exact batch form
    (``SelfMap._rows``) maps a chain that reads as checked points in one
    call, and the first step that differs raises through the domain's image
    check as its :func:`apply_point` would.
    Other maps and chains are walked by :func:`apply_point`, which reads
    each stored point and raises on a bad one or an escaping image, and
    :func:`points_equal`, so a malformed point is a break at the step before
    it, and a break before that is still the answer.
    """
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
        if not points_equal(apply_point(space, map_, points[i]), points[i + 1]):
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


# notion -> check of (space, map, solve settings, sampling box, the notion's
# parameters), for the check action and the solve gates alike.  Each entry
# looks its check up when called, so a module attribute rebound after import
# (as bench/tracing.py rebinds them) is what runs.
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


def _gate(report: ContractivityReport, reason: str) -> tuple[ContractivityReport, str | None]:
    return report, None if report.passed else reason


def _solve(space: IfmSpace, map_: SelfMap, x0, config: SolveConfig,
           gates: Sequence[Callable[[], tuple]], ball: BallSpec | None = None) -> SolveResult:
    """Run a regime's hypothesis gates in order, then Picard iteration.

    A gate runs one check and returns its report and a failure reason,
    ``None`` when the check passes.  With hypothesis checks on, the first
    failing gate ends the solve as ``hypothesis_failed`` carrying that
    gate's report, or the first gate's report when the failing gate has
    none; otherwise the result carries the first gate's report.  With
    ``ball`` every iterate must stay in the open ball.  A coordinate image
    that overflows stops the solve at the last finite iterate as
    ``diverged``.  The start is read on entry and each image checked once,
    by :func:`apply_point`.  An iterate equal to its predecessor (``-0.0``
    equal to ``0.0``) is an exact fixed point.

    A block of up to ``STEP_BLOCK`` steps ends early at the budget or at a
    map call that raises, whose exception is kept.  One row comparison
    finds its exact fixed points, one kernel call gives its step rows and
    near flags, one its open-ball flags, and calls of about ``BLOCK_CELLS``
    cells the window grids of its candidates with a near flag.  The stop
    rules are replayed in step order, at step ``m``: the kept exception,
    the ball flag, the exact fixed point, the window of ``m - window``.
    The first stop wins; what follows it is dropped, a kept exception not
    reached included, so a solve makes at most ``STEP_BLOCK - 1`` map
    applications more than a step-by-step loop.  Every kernel call of the
    iteration runs with numpy's overflow warnings off.
    """
    ts = np.asarray(config.probe_ts)
    points = [space.domain.as_point(x0)]
    mu_blocks: list[np.ndarray] = []
    nu_blocks: list[np.ndarray] = []
    near_rows: list[bool] = []
    flags: list[bool] | None = None
    report = None

    def rows(blocks: list[np.ndarray]) -> np.ndarray:
        n = len(points) - 1
        return np.concatenate(blocks)[:n] if blocks else np.empty((0, len(ts)))

    def stop(status: str, reason: str, c: int | None = None, m: int | None = None) -> SolveResult:
        # m, when given, is the step the solve stopped at; later iterates go
        if m is not None:
            del points[m + 1 :]
        if flags is not None:
            del flags[len(points) :]
        trace = IterationTrace(points, tuple(float(t) for t in ts), rows(mu_blocks), rows(nu_blocks), flags)
        if c is None:
            return SolveResult(status, None, len(points) - 1, trace, reason, report)
        return SolveResult(status, points[c], c, trace, reason, report,
                           residual_mu=trace.step_mu[c].copy(), residual_nu=trace.step_nu[c].copy())

    def window_stop(candidates: list[int]) -> int | None:
        # the first candidate whose window x_{c+1} .. x_{c+window} is all
        # near x_c, from grids of about BLOCK_CELLS cells, in order
        w = config.window
        per = max(1, BLOCK_CELLS // (w * len(ts)))
        for i in range(0, len(candidates), per):
            chunk = candidates[i : i + per]
            pts = space.domain.batch(points[chunk[0] : chunk[-1] + w + 1])
            at = np.asarray(chunk) - chunk[0]
            after = (at[:, None] + np.arange(1, w + 1)).ravel()
            mu, nu = membership_grid(space, pts[at.repeat(w)], pts[after], ts)
            ok = _near(mu, nu, config.epsilon).all(axis=1).reshape(len(chunk), w).all(axis=1)
            if ok.any():
                return chunk[int(ok.argmax())]
        return None

    if config.hypothesis_checks:
        for i, gate in enumerate(gates):
            gate_report, reason = gate()
            if i == 0 or (reason is not None and gate_report is not None):
                report = gate_report
            if reason is not None:
                return stop("hypothesis_failed", reason)

    # an overflowing image ends the solve as a status, so numpy's overflow
    # warnings on the way there, in the map and in the kernel, are noise
    with np.errstate(over="ignore"):
        if ball is not None:
            flags = _ball_flags(space, ball, points).tolist()
            if not flags[0]:
                return stop("diverged_from_ball", "starting point lies outside the open ball")
        while True:
            s = len(points)  # the block's first step
            kept = None
            for _ in range(min(STEP_BLOCK, config.max_iterations + 1 - s)):
                try:
                    points.append(apply_point(space, map_, points[-1], True))
                except Exception as exc:  # raised when the replay reaches its step
                    kept = exc
                    break
            e = len(points) - 1  # the block's last step
            exit_at = fixed_at = e + 1  # the first ball exit and exact fixed point; e + 1 for none
            if e >= s:
                pts = space.domain.batch(points[s - 1 :])
                same = ~space.domain.distinct(pts[:-1], pts[1:])
                fixed_at = s + int(same.argmax()) if same.any() else fixed_at
                mu, nu = membership_grid(space, pts[:-1], pts[1:], ts)
                mu_blocks.append(mu)
                nu_blocks.append(nu)
                near_rows.extend(_near(mu, nu, config.epsilon).all(axis=1).tolist())
                if ball is not None:
                    inside = _ball_flags(space, ball, pts[1:]).tolist()
                    flags.extend(inside)
                    if not all(inside):
                        exit_at = s + inside.index(False)
            # replayed windows: a step's ball flag and exact fixed point come before its window
            c = window_stop([m - config.window for m in range(max(s, config.window), min(exit_at, fixed_at))
                             if near_rows[m - config.window]])
            if c is not None:
                # x_{c+1} .. x_{c+window} all strictly eps-near x_c at every t;
                # this implies the (non-strict) residual bound at the candidate
                return stop(
                    "converged",
                    f"window of {config.window} iterates after iteration {c} stayed "
                    f"within epsilon={config.epsilon:g} at every probe t",
                    c, c + config.window,
                )
            if exit_at <= min(e, fixed_at):
                return stop("diverged_from_ball", f"iterate {exit_at} left the open ball", m=exit_at)
            if fixed_at <= e:
                return stop("converged", f"exact fixed point reached at iteration {fixed_at - 1}", fixed_at - 1, fixed_at)
            if isinstance(kept, NonFiniteImageError):
                return stop("diverged", f"iterate {e + 1} overflowed: {kept}")
            if kept is not None:
                raise kept
            if len(points) > config.max_iterations:
                return stop("budget_exhausted", f"no fixed point certified within {config.max_iterations} iterations")


def _asymptotic_probe(space: IfmSpace, config: SolveConfig, box) -> AsymptoticReport:
    """Large-horizon nearness probe on eight seeded pairs."""
    pair_x, pair_y = sample_pairs(space, 8, config.seed + 1, box)
    return asymptotic_nearness_probe(
        space, list(zip(pair_x, pair_y)), ASYMPTOTIC_HORIZON, ASYMPTOTIC_EPSILON
    )


def picard_solve(space: IfmSpace, map_: SelfMap, x0, config: SolveConfig | None = None) -> SolveResult:
    """Iterate a contraction to its fixed point from ``x0``.

    With hypothesis checks enabled the map must pass the reciprocal-gap
    contraction check on sampled pairs and the space must pass the
    large-horizon nearness probe; failures return a ``hypothesis_failed``
    result carrying the report.
    """
    config = config or SolveConfig()
    box = space.domain.box(config.sample_halfwidth, x0)

    return _solve(space, map_, x0, config, (
        lambda: _gate(CHECKS["if_contractive"](space, map_, config, box),
                      "map failed the contraction check on sampled pairs"),
        # the probe's report is not a contraction report, so a failure
        # carries the contraction check's
        lambda: (None, None if _asymptotic_probe(space, config, box).passed else
                 f"space failed the large-horizon nearness probe at t={ASYMPTOTIC_HORIZON:g}"),
    ))


def closed_ball_solve(
    space: IfmSpace, map_: SelfMap, ball: BallSpec, k: float, config: SolveConfig | None = None
) -> SolveResult:
    """Solve from the ball center, certifying containment of all iterates.

    Hypothesis checks require the first-step ball bounds to hold and the
    map to be contractive with constant ``k`` on pairs sampled inside the
    closed ball.  Every iterate must stay in the open ball (matching the
    strict per-step bounds); the fixed-point candidate is a stored iterate,
    so it lies in the open ball and so in the closed one.
    """
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
        return report, "map is not contractive with the supplied constant on ball pairs"

    return _solve(space, map_, ball.center, config, (
        lambda: _gate(CHECKS["closed_ball_hypotheses"](space, map_, config, None, ball=ball, k=k),
                      "first-step ball bounds failed"),
        ball_constant,
    ), ball=ball)


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
    start = space.domain.default_start() if x0 is None else x0
    power = map_.power(m)
    box = space.domain.box(config.sample_halfwidth)
    inner = config if m == 1 else replace(config, epsilon=config.epsilon / POWER_SOLVE_TIGHTENING)
    result = _solve(space, power, start, inner, (
        lambda: _gate(CHECKS["if_contractive"](space, power, config, box),
                      f"power map (m={m}) failed the contraction check"),
        lambda: _gate(CHECKS["t_uniform_continuity"](space, map_, config, box, epsilons=DEFAULT_UNIFORM_EPSILONS),
                      "map failed the t-uniform continuity probe"),
    ))
    if not result.converged:
        return result

    ok, result.residual_mu, result.residual_nu = residual_certificate(
        space, map_, result.fixed_point, config.probe_ts, config.epsilon
    )
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
    start = space.domain.default_start() if x0 is None else x0
    box = space.domain.box(config.sample_halfwidth)

    def ratio() -> tuple[ContractivityReport, str | None]:
        report = CHECKS["direct_ratio"](space, map_, config, box, include_coincident=include_coincident)
        if report.verdict == "vacuous":
            return _gate(report, "direct-ratio contraction is vacuous with coincident pairs included")
        return _gate(report, "direct-ratio contraction check failed on sampled pairs")

    result = _solve(space, map_, start, config, (ratio,))
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
