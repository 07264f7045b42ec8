import functools
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmlab import (
    BallSpec,
    CoordinateSpace,
    FiniteTabulated,
    IfmSpace,
    SelfMap,
    SolveConfig,
    ball_contains,
    closed_ball_solve,
    direct_ratio_solve,
    evaluate,
    finite_tabulated,
    if_contractive_check,
    induced_from_metric,
    iterate_trace,
    min_max,
    picard_solve,
    power_map_solve,
    uniqueness_probe,
)
from ifmlab.contractions import K_SAFETY_MARGIN, DomainEscapeError, NonFiniteImageError, apply_point
from ifmlab.operators import BLOCK_CELLS
from ifmlab.report import json_text
from ifmlab.sampling import sample_ball_pairs, sample_pairs
from ifmlab.solver import (
    CHECKS,
    EQUALITY_SLACK,
    STEP_BLOCK,
    IterationTrace,
    SolveResult,
    UniquenessReport,
    _solve,
    _windows,
    chain_break,
)
from ifmlab.spaces import (
    _ball_flags,
    _near,
    asymptotic_nearness_probe,
    joint_continuity_probe,
    membership_grid,
    point_jsonable,
    sequence_diagnostics,
)


def test_iterate_trace_examples(line, half_plus_one):
    pts = iterate_trace(line, half_plus_one, 0.0, 3)
    assert [float(p[0]) for p in pts] == [0.0, 1.0, 1.5, 1.75]
    const = SelfMap.affine([[0.0]], [4.0])
    pts = iterate_trace(line, const, 1.0, 2)
    assert [float(p[0]) for p in pts] == [1.0, 4.0, 4.0]
    assert len(iterate_trace(line, half_plus_one, 0.0, 1)) == 2
    with pytest.raises(ValueError):
        iterate_trace(line, half_plus_one, 0.0, 0)


def test_iterate_trace_raises_the_error_of_the_step_it_reaches(line):
    # x -> 1e200 x overflows at step 2, stepped by its chain form; the table
    # map, walked point by point, has no image of "c" at step 2
    with np.errstate(over="ignore"), pytest.raises(NonFiniteImageError, match="image .* left the coordinate domain"):
        iterate_trace(line, SelfMap.affine([[1e200]], [0.0]), 1.0, 5)
    with pytest.raises(DomainEscapeError, match="label 'c' has no image"):
        iterate_trace(STEP_TABLE, SelfMap.table({"a": "b", "b": "c"}), "a", 5)


def test_picard_converges_to_two(line, half_plus_one):
    result = picard_solve(line, half_plus_one, 0.0)
    assert result.converged
    assert result.iterations <= 60
    assert abs(float(result.fixed_point[0]) - 2.0) <= 1e-8
    assert result.hypothesis_report is not None and result.hypothesis_report.passed
    # convergence certificate reproduces from the result fields
    mu, nu = evaluate(line, result.fixed_point, half_plus_one(result.fixed_point), 0.1)
    assert mu >= 1 - 1e-8 and nu <= 1e-8


def test_picard_fixed_start_finishes_immediately(line, half_plus_one):
    result = picard_solve(line, half_plus_one, 2.0)
    assert result.converged and result.iterations == 0
    assert float(result.fixed_point[0]) == 2.0
    assert "exact fixed point" in result.stop_reason


def test_picard_shift_map_fails_hypotheses(line):
    shift = SelfMap.affine([[1.0]], [1.0])
    result = picard_solve(line, shift, 0.0)
    assert result.status == "hypothesis_failed"
    assert result.fixed_point is None
    assert result.hypothesis_report.verdict == "fail"


def test_picard_hypothesis_bypass_exhausts_budget(line):
    shift = SelfMap.affine([[1.0]], [1.0])
    config = SolveConfig(hypothesis_checks=False, max_iterations=50)
    result = picard_solve(line, shift, 0.0, config)
    assert result.status == "budget_exhausted"
    assert result.iterations == 50
    assert len(result.trace.points) == 51


def test_picard_on_tabulated_space_gated_by_horizon_probe(three_point_space):
    const = SelfMap.table({"a": "c", "b": "c", "c": "c"})
    result = picard_solve(three_point_space, const, "a")
    assert result.status == "hypothesis_failed"
    assert "horizon" in result.stop_reason


def test_trace_records_reproduce(line, half_plus_one):
    result = picard_solve(line, half_plus_one, 0.0)
    assert result.trace.verify(line, half_plus_one)
    # a trace of its start alone has no step rows to re-check
    empty = np.empty((0, len(result.trace.probe_ts)))
    assert IterationTrace(result.trace.points[:1], result.trace.probe_ts, empty, empty).verify(line, half_plus_one)
    # per-step nearness rows are nondecreasing across the probe grid
    assert np.all(np.diff(result.trace.step_mu, axis=1) >= 0)
    assert np.all(np.diff(result.trace.step_nu, axis=1) <= 0)


def test_trace_gap_decay_matches_constant(line, half_plus_one):
    result = picard_solve(line, half_plus_one, 0.0)
    gaps = 1.0 / result.trace.step_mu - 1.0
    n = min(20, gaps.shape[0] - 1)  # stay clear of roundoff-scale gaps
    ratios = gaps[1 : n + 1] / gaps[:n]
    assert np.all(ratios <= 0.5 * (1 + 1e-9))


def test_picard_agrees_with_plain_metric_iteration(line, half_plus_one):
    config = SolveConfig()
    result = picard_solve(line, half_plus_one, 0.0, config)
    x = np.asarray([0.0])
    for _ in range(config.max_iterations):
        nxt = half_plus_one(x)
        if float(np.abs(nxt - x)[0]) <= config.epsilon * 0.1:
            break
        x = nxt
    assert abs(float(result.fixed_point[0]) - float(x[0])) <= 10 * config.epsilon


def test_closed_ball_solve_certified(line):
    map_ = SelfMap.affine([[0.5]], [0.4])
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    result = closed_ball_solve(line, map_, ball, k=0.5)
    assert result.converged
    assert abs(float(result.fixed_point[0]) - 0.8) <= 1e-8
    assert result.trace.ball_flags is not None and all(result.trace.ball_flags)
    for p in result.trace.points:
        mu, nu = evaluate(line, 0.0, p, 1.0)
        assert mu > 0.5 and nu < 0.5
    assert ball_contains(line, ball, result.fixed_point, mode="closed")


def test_closed_ball_fixed_center(line):
    map_ = SelfMap.affine([[0.5]], [0.4])
    ball = BallSpec(center=0.8, radius=0.5, time=1.0)
    result = closed_ball_solve(line, map_, ball, k=0.5)
    assert result.converged and result.iterations == 0


def test_closed_ball_rejects_larger_offset(line):
    map_ = SelfMap.affine([[0.5]], [0.6])
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    result = closed_ball_solve(line, map_, ball, k=0.5)
    assert result.status == "hypothesis_failed"
    assert result.hypothesis_report.notion == "closed_ball_hypotheses"


def test_closed_ball_rejects_wrong_constant(line):
    map_ = SelfMap.affine([[0.5]], [0.4])
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    result = closed_ball_solve(line, map_, ball, k=0.3)  # true constant is 0.5
    assert result.status == "hypothesis_failed"
    assert "supplied constant" in result.hypothesis_report.notes


def test_escape_reported_with_offending_index(line):
    # doubling map escapes the ball even though checks are bypassed
    doubler = SelfMap.affine([[2.0]], [0.3])
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    config = SolveConfig(hypothesis_checks=False, max_iterations=100)
    result = closed_ball_solve(line, doubler, ball, k=0.5, config=config)
    assert result.status == "diverged_from_ball"
    assert result.trace.ball_flags[result.iterations] is False


def test_power_solve_on_axis_expander(plane, swap_scale_map):
    result = power_map_solve(plane, swap_scale_map, 2, x0=[1.0, 1.0])
    assert result.converged
    assert float(np.linalg.norm(result.fixed_point)) <= 1e-8
    assert np.all(result.residual_mu >= 1 - 1e-8)
    assert np.all(result.residual_nu <= 1e-8)
    # the original map itself is not a contraction
    assert if_contractive_check(plane, swap_scale_map, 500, seed=2).verdict == "fail"


def test_power_solve_m1_matches_picard(line, half_plus_one):
    config = SolveConfig()
    a = power_map_solve(line, half_plus_one, 1, config, x0=0.0)
    b = picard_solve(line, half_plus_one, 0.0, config)
    assert a.converged and b.converged
    assert a.iterations == b.iterations
    assert [float(p[0]) for p in a.trace.points] == [float(p[0]) for p in b.trace.points]


def test_power_solve_consistent_with_direct_solve_for_rotation(plane):
    # quarter-turn combined with halving: already a contraction, and its
    # fourth power is scaling by 1/16
    rot = SelfMap.affine(0.5 * np.asarray([[0.0, -1.0], [1.0, 0.0]]), [0.0, 0.0])
    direct = picard_solve(plane, rot, [3.0, -2.0])
    powered = power_map_solve(plane, rot, 4, x0=[3.0, -2.0])
    assert direct.converged and powered.converged
    gap = np.linalg.norm(np.asarray(direct.fixed_point) - np.asarray(powered.fixed_point))
    assert gap <= 1e-8


def test_power_solve_validation(plane, swap_scale_map):
    with pytest.raises(ValueError):
        power_map_solve(plane, swap_scale_map, 0)


def test_direct_ratio_solve_constant_map(three_point_space):
    const = SelfMap.table({"a": "c", "b": "c", "c": "c"})
    result = direct_ratio_solve(three_point_space, const)
    assert result.converged
    assert result.fixed_point == "c"
    assert result.iterations == 1
    assert result.hypothesis_report.estimated_k == pytest.approx(0.4, abs=1e-6)
    assert "recorded only" in result.notes


def test_direct_ratio_solve_identity_fails(three_point_space):
    result = direct_ratio_solve(three_point_space, SelfMap.identity())
    assert result.status == "hypothesis_failed"


def test_direct_ratio_solve_halving_fails_large_t(line):
    halve = SelfMap.affine([[0.5]], [0.0])
    result = direct_ratio_solve(line, halve)
    assert result.status == "hypothesis_failed"
    assert result.hypothesis_report.worst_witness["t"] == 51.2


def test_direct_ratio_vacuous_propagates(line, half_plus_one):
    result = direct_ratio_solve(line, half_plus_one, include_coincident=True)
    assert result.status == "hypothesis_failed"
    assert result.hypothesis_report.verdict == "vacuous"
    assert "vacuous" in result.stop_reason


def test_uniqueness_probe_affine(line, half_plus_one):
    report = uniqueness_probe(line, half_plus_one, [-100.0, 0.0, 100.0])
    assert report.passed
    assert all(s == "converged" for s in report.statuses)
    for limit in report.limits:
        assert abs(limit[0] - 2.0) <= 1e-8
    assert report.max_pairwise_distance <= 1e-8


def test_uniqueness_probe_single_start_vacuous(line, half_plus_one):
    report = uniqueness_probe(line, half_plus_one, [5.0])
    assert report.passed and report.worst_pair is None


def test_uniqueness_probe_marks_failures(line, half_plus_one):
    shift = SelfMap.affine([[1.0]], [1.0])
    report = uniqueness_probe(line, shift, [0.0, 1.0])
    assert report.statuses == ["hypothesis_failed", "hypothesis_failed"]
    assert report.limits == []


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveConfig(window=0)
    with pytest.raises(ValueError):
        SolveConfig(max_iterations=0)
    cfg = SolveConfig()
    assert cfg.epsilon == 1e-8 and cfg.max_iterations == 10_000 and cfg.window == 8
    assert cfg.probe_ts[0] == 0.1 and cfg.probe_ts[-1] == 51.2 and len(cfg.probe_ts) == 10


# ---------------------------------------------------------------------------
# the Picard loop evaluates step rows in blocks; it must match one-pair rows

STEP_TABLE = finite_tabulated(
    FiniteTabulated(
        ["a", "b", "c", "d"],
        {
            ("a", "b"): ([[0.5, 0.3], [4.0, 0.9]], [[0.5, 0.6], [4.0, 0.05]]),
            ("a", "c"): (0.4, 0.5),
            ("a", "d"): ([[0.1, 0.2], [1.0, 0.25], [30.0, 0.7]], [[0.1, 0.7], [30.0, 0.2]]),
            ("b", "c"): ([[2.0, 0.35], [3.0, 0.45]], 0.5),
            ("b", "d"): (0.4, [[1.0, 0.5], [9.0, 0.1]]),
            ("c", "d"): ([[0.2, 0.4], [50.0, 0.99]], [[0.2, 0.5], [50.0, 0.005]]),
        },
    ),
    min_max(),
)
METRICS = ("euclidean", "chebyshev", "absolute-difference")
magnitude = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
probe_times = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6, unique=True)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([*METRICS, "tabulated"]), dim=st.integers(1, 12), n=st.integers(1, 20),
       ts=probe_times, data=st.data())
def test_batched_step_rows_equal_one_pair_rows(kind, dim, n, ts, data):
    if kind == "tabulated":
        space = STEP_TABLE
        walk = data.draw(st.lists(st.sampled_from(space.domain.labels), min_size=n + 1, max_size=n + 1))
    else:
        space = induced_from_metric(CoordinateSpace(dim, kind), min_max())
        walk = [np.asarray(data.draw(st.lists(magnitude, min_size=dim, max_size=dim)))
                for _ in range(n + 1)]
    ts = np.sort(ts)
    mu, nu = membership_grid(space, walk[:-1], walk[1:], ts)
    for i in range(n):
        one_mu, one_nu = membership_grid(space, walk[i], walk[i + 1], ts)
        assert mu[i].tobytes() == one_mu[0].tobytes() and nu[i].tobytes() == one_nu[0].tobytes()
    # the step row of x_0 is the first row of the window grid of x_0
    win_mu, win_nu = membership_grid(space, walk[0], walk[1:], ts)
    assert win_mu[0].tobytes() == mu[0].tobytes() and win_nu[0].tobytes() == nu[0].tobytes()


def points_equal(a, b):
    """The library's former ``points_equal``: exact equality of two points as written,
    shapes compared, with no read and no ``distinct``."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tolist() == b.tolist()


def reference_solve(space, map_, x0, config, ball=None):
    """The Picard loop with one kernel call per step row and a window grid at every step."""
    ts = np.asarray(config.probe_ts)
    points = [space.domain.as_point(x0)]
    mu_rows, nu_rows = [], []
    flags = None

    def stop(status, reason, c=None):
        k = len(ts)
        trace = IterationTrace(points, tuple(float(t) for t in ts), np.reshape(mu_rows, (-1, k)),
                               np.reshape(nu_rows, (-1, k)), flags)
        if c is None:
            return SolveResult(status, None, len(points) - 1, trace, reason)
        return SolveResult(status, points[c], c, trace, reason,
                           residual_mu=trace.step_mu[c].copy(), residual_nu=trace.step_nu[c].copy())

    if ball is not None:
        flags = [ball_contains(space, ball, points[0], mode="open")]
        if not flags[0]:
            return stop("diverged_from_ball", "starting point lies outside the open ball")
    with np.errstate(over="ignore"):
        while len(points) <= config.max_iterations:
            try:
                nxt = apply_point(space, map_, points[-1])
            except NonFiniteImageError as exc:
                return stop("diverged", f"iterate {len(points)} overflowed: {exc}")
            points.append(nxt)
            m = len(points) - 1
            mu_row, nu_row = membership_grid(space, points[-2], nxt, ts)
            mu_rows.append(mu_row[0])
            nu_rows.append(nu_row[0])
            if ball is not None:
                flags.append(ball_contains(space, ball, nxt, mode="open"))
                if not flags[-1]:
                    return stop("diverged_from_ball", f"iterate {m} left the open ball")
            if points_equal(nxt, points[-2]):
                return stop("converged", f"exact fixed point reached at iteration {m - 1}", m - 1)
            c = m - config.window
            if c < 0:
                continue
            mu, nu = membership_grid(space, points[c], points[c + 1 :], ts)
            if np.all((mu > 1.0 - config.epsilon) & (nu < config.epsilon)):
                return stop(
                    "converged",
                    f"window of {config.window} iterates after iteration {c} stayed "
                    f"within epsilon={config.epsilon:g} at every probe t",
                    c,
                )
    return stop("budget_exhausted", f"no fixed point certified within {config.max_iterations} iterations")


def same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def counting_map(map_, raise_at=None):
    """A plain Python map with ``map_``'s images that counts its calls and
    raises a RuntimeError at call ``raise_at``; a solve calls it in step
    order, so that call is step ``raise_at``."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        if calls[0] == raise_at:
            raise RuntimeError(f"map call {raise_at}")
        return map_(x)

    return SelfMap(fn), calls


@settings(max_examples=80, deadline=None)
@given(
    metric=st.sampled_from(METRICS),
    dim=st.integers(1, 3),
    scale=st.sampled_from([0.0, 1e-3, 0.3, 0.6, 0.9, 1.0, 3.0, 1e150]),
    x_scale=st.sampled_from([1.0, 1e3, 1e300]),
    epsilon=st.sampled_from([1e-8, 1e-4, 1e-2, 0.3]),
    # windows below and above the block, and budgets over several blocks
    window=st.integers(1, 10) | st.integers(STEP_BLOCK - 4, STEP_BLOCK + 12),
    max_iterations=st.integers(1, 40) | st.integers(STEP_BLOCK - 2, 3 * STEP_BLOCK + 2),
    ball=st.none() | st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 10.0)),
    raise_at=st.none() | st.integers(1, 3 * STEP_BLOCK),
    data=st.data(),
)
def test_block_solve_matches_per_step_reference(metric, dim, scale, x_scale, epsilon, window,
                                                max_iterations, ball, raise_at, data):
    unit = st.floats(min_value=-1.0, max_value=1.0)
    matrix = scale * np.asarray(data.draw(st.lists(unit, min_size=dim * dim, max_size=dim * dim)))
    offset = np.asarray(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    x0 = x_scale * np.asarray(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    space = induced_from_metric(CoordinateSpace(dim, metric), min_max())
    affine = SelfMap.affine(matrix.reshape(dim, dim), offset)
    config = SolveConfig(epsilon=epsilon, max_iterations=max_iterations, window=window,
                         hypothesis_checks=False)
    if ball is not None:
        ball = BallSpec(np.asarray(data.draw(st.lists(unit, min_size=dim, max_size=dim))), *ball)

    map_, calls = counting_map(affine, raise_at)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(_solve, space, map_, x0, config, (), ball)
    reference_map, reference_calls = counting_map(affine, raise_at)
    with np.errstate(over="ignore"):
        want = outcome(reference_solve, space, reference_map, x0, config, ball)
    # the steps of the last block past the stop are the only extra calls
    assert 0 <= calls[0] - reference_calls[0] < STEP_BLOCK
    if not isinstance(want, SolveResult):
        # the reference reached the raising step before any stop
        assert got == want == (RuntimeError, f"map call {raise_at}")
        return
    assert isinstance(got, SolveResult), got
    assert (got.status, got.stop_reason, got.iterations) == (want.status, want.stop_reason, want.iterations)
    assert len(got.trace.points) == len(want.trace.points)
    assert all(same_bytes(p, q) for p, q in zip(got.trace.points, want.trace.points))
    assert same_bytes(got.trace.step_mu, want.trace.step_mu)
    assert same_bytes(got.trace.step_nu, want.trace.step_nu)
    assert got.trace.ball_flags == want.trace.ball_flags
    assert same_bytes(got.fixed_point, want.fixed_point)
    assert same_bytes(got.residual_mu, want.residual_mu)
    assert same_bytes(got.residual_nu, want.residual_nu)


def parent_solve(space, map_, x0, config, ball=None):
    """The iteration of ``_solve`` before each iterate was checked once: a
    block steps point by point, reading each input through ``apply_point``
    and comparing each image's ``tolist()`` with its predecessor's."""
    ts = np.asarray(config.probe_ts)
    points = [space.domain.as_point(x0)]
    mu_blocks, nu_blocks, near_rows = [], [], []
    flags = None

    def rows(blocks):
        n = len(points) - 1
        return np.concatenate(blocks)[:n] if blocks else np.empty((0, len(ts)))

    def stop(status, reason, c=None, m=None):
        if m is not None:
            del points[m + 1 :]
        if flags is not None:
            del flags[len(points) :]
        trace = IterationTrace(points, tuple(float(t) for t in ts), rows(mu_blocks), rows(nu_blocks), flags)
        if c is None:
            return SolveResult(status, None, len(points) - 1, trace, reason)
        return SolveResult(status, points[c], c, trace, reason,
                           residual_mu=trace.step_mu[c].copy(), residual_nu=trace.step_nu[c].copy())

    def window_stop(candidates):
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

    with np.errstate(over="ignore"):
        if ball is not None:
            flags = _ball_flags(space, ball, points).tolist()
            if not flags[0]:
                return stop("diverged_from_ball", "starting point lies outside the open ball")
        last = np.asarray(points[0]).tolist()
        while True:
            s = len(points)
            kept, fixed = None, False
            for _ in range(min(STEP_BLOCK, config.max_iterations + 1 - s)):
                try:
                    points.append(apply_point(space, map_, points[-1]))
                except Exception as exc:
                    kept = exc
                    break
                last, previous = np.asarray(points[-1]).tolist(), last
                if last == previous:
                    fixed = True
                    break
            e = len(points) - 1
            exit_at = None
            if e >= s:
                mu, nu = membership_grid(space, points[s - 1 : -1], points[s:], ts)
                mu_blocks.append(mu)
                nu_blocks.append(nu)
                near_rows.extend(_near(mu, nu, config.epsilon).all(axis=1).tolist())
                if ball is not None:
                    inside = _ball_flags(space, ball, points[s:]).tolist()
                    flags.extend(inside)
                    if not all(inside):
                        exit_at = s + inside.index(False)
            last_window = e - fixed if exit_at is None else exit_at - 1
            c = window_stop([m - config.window for m in range(max(s, config.window), last_window + 1)
                             if near_rows[m - config.window]])
            if c is not None:
                return stop(
                    "converged",
                    f"window of {config.window} iterates after iteration {c} stayed "
                    f"within epsilon={config.epsilon:g} at every probe t",
                    c, c + config.window,
                )
            if exit_at is not None:
                return stop("diverged_from_ball", f"iterate {exit_at} left the open ball", m=exit_at)
            if fixed:
                return stop("converged", f"exact fixed point reached at iteration {e - 1}", e - 1)
            if isinstance(kept, NonFiniteImageError):
                return stop("diverged", f"iterate {e + 1} overflowed: {kept}")
            if kept is not None:
                raise kept
            if len(points) > config.max_iterations:
                return stop("budget_exhausted", f"no fixed point certified within {config.max_iterations} iterations")


def event_map(step, form, event, at):
    """A map with ``step``'s images in ``form`` (an array, a list or float32)
    that, from call ``at`` on, returns its input (an exact fixed point), or
    at call ``at`` returns an image of another shape, a NaN or an infinity;
    a solve calls it in step order, so the call is the step."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        x = np.asarray(x, float)
        if event == "fixed" and calls[0] >= at:
            y = x.copy()
        elif calls[0] == at and event in ("shape", "nan", "inf"):
            y = (np.zeros(x.size + 1) if event == "shape" else
                 np.where(np.arange(x.size) == 0, np.nan if event == "nan" else -np.inf, x))
        else:
            y = step(x)
        return y.tolist() if form == "list" else y.astype(np.float32) if form == "float32" else y

    return SelfMap(fn)


@settings(max_examples=200, deadline=None)
@given(
    metric=st.sampled_from(METRICS),
    dim=st.integers(1, 3),
    # "affine": SelfMap.affine(scale * I, offset), stepped by its chain form, with no event
    form=st.sampled_from(["array", "list", "float32", "affine"]),
    scale=st.sampled_from([0.0, 0.5, 0.9, 1.0, 2.0, 1e100]),
    event=st.sampled_from([None, "fixed", "shape", "nan", "inf"]),
    # a step inside the first block, at its edges, and in later ones
    at=st.integers(1, STEP_BLOCK - 1) | st.sampled_from([STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 5]),
    epsilon=st.sampled_from([1e-12, 1e-8, 1e-2]),
    window=st.integers(1, 10),
    max_iterations=st.integers(1, 40) | st.integers(STEP_BLOCK - 2, 3 * STEP_BLOCK + 2),
    ball=st.none() | st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 10.0)),
    data=st.data(),
)
def test_solve_matches_the_point_by_point_block_loop(metric, dim, form, scale, event, at, epsilon, window,
                                                     max_iterations, ball, data):
    unit = st.floats(min_value=-1.0, max_value=1.0)
    offset = np.asarray(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    x0 = np.asarray(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    space = induced_from_metric(CoordinateSpace(dim, metric), min_max())
    config = SolveConfig(epsilon=epsilon, max_iterations=max_iterations, window=window,
                         hypothesis_checks=False)
    if ball is not None:
        ball = BallSpec(x0, *ball)  # the start of a closed_ball solve

    def step(x):
        return scale * x + offset

    def new_map():
        return SelfMap.affine(scale * np.eye(dim), offset) if form == "affine" else event_map(step, form, event, at)

    got = outcome(_solve, space, new_map(), x0, config, (), ball)
    with np.errstate(over="ignore"):
        want = outcome(parent_solve, space, new_map(), x0, config, ball)
    if not isinstance(want, SolveResult):
        assert got == want
        return
    assert isinstance(got, SolveResult), got
    assert (got.status, got.stop_reason, got.iterations) == (want.status, want.stop_reason, want.iterations)
    assert len(got.trace.points) == len(want.trace.points)
    assert all(same_bytes(p, q) for p, q in zip(got.trace.points, want.trace.points))
    assert same_bytes(got.trace.step_mu, want.trace.step_mu)
    assert same_bytes(got.trace.step_nu, want.trace.step_nu)
    assert got.trace.ball_flags == want.trace.ball_flags
    assert same_bytes(got.fixed_point, want.fixed_point)
    assert same_bytes(got.residual_mu, want.residual_mu)
    assert same_bytes(got.residual_nu, want.residual_nu)


def test_an_error_past_the_stop_is_computed_and_dropped(line):
    # x -> x + 1 leaves the ball of radius 0.5 about 0 at t = 1 at step 1;
    # the block steps on, and the map fails at step 3, after the stop
    ball = BallSpec([0.0], 0.5, 1.0)
    config = SolveConfig(hypothesis_checks=False)
    shift = SelfMap.affine([[1.0]], [1.0])
    for raise_at in (3, STEP_BLOCK):
        map_, calls = counting_map(shift, raise_at)
        result = _solve(line, map_, [0.0], config, (), ball)
        assert (result.status, result.stop_reason) == ("diverged_from_ball", "iterate 1 left the open ball")
        assert len(result.trace.points) == 2 and result.trace.ball_flags == [True, False]
        assert result.trace.step_mu.shape == (1, len(config.probe_ts)) and calls[0] == raise_at
    # an overflow past the stop is not a divergence either
    blowup = SelfMap(lambda x: x + 1.0 if x[0] < 2.0 else x * 1e308)
    result = _solve(line, blowup, [0.0], config, (), ball)
    assert result.status == "diverged_from_ball" and len(result.trace.points) == 2


def test_a_budget_on_a_block_edge_ends_there_with_every_step_row(line):
    config = SolveConfig(hypothesis_checks=False, max_iterations=2 * STEP_BLOCK)
    map_, calls = counting_map(SelfMap.affine([[1.0]], [1.0]))
    result = _solve(line, map_, [0.0], config, ())
    assert (result.status, result.iterations, calls[0]) == ("budget_exhausted", 2 * STEP_BLOCK, 2 * STEP_BLOCK)
    assert result.trace.step_mu.shape == (2 * STEP_BLOCK, len(config.probe_ts))


def test_overflowing_budget_stop_warns_nothing(line):
    config = SolveConfig(hypothesis_checks=False, max_iterations=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = picard_solve(line, SelfMap.affine([[1.5]], [0.0]), 1e300, config)
    assert result.status == "budget_exhausted"
    assert result.trace.step_mu.shape == (1, len(config.probe_ts))
    assert np.all(result.trace.step_mu == 0.0)


@pytest.mark.parametrize("grid", [[1.0, 2.0], (1.0, 2.0), np.array([1.0, 2.0]), [], np.array([])],
                         ids=["list", "tuple", "numpy", "empty-list", "empty-numpy"])
def test_solve_config_reads_any_probe_grid_sequence(grid):
    # a numpy grid raised numpy's "truth value of an array is ambiguous" before
    expected = SolveConfig(probe_ts=list(grid)).probe_ts
    assert SolveConfig(probe_ts=grid).probe_ts == expected
    assert expected == ((1.0, 2.0) if len(grid) else SolveConfig().probe_ts)


def reference_chain_break(space, map_, points):
    """``chain_break`` as it was, with one ``points_equal`` per step, but for a string
    successor of a coordinate point: it is a break at every dimension, where the old
    comparison broke on a line and raised numpy's ambiguous-truth error from two
    coordinates on."""
    for i in range(len(points) - 1):
        image, successor = apply_point(space, map_, points[i]), points[i + 1]
        if isinstance(successor, str) and not isinstance(image, str) or not points_equal(image, successor):
            return i
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception's type and text are the outcome
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["tabulated", *METRICS]), dim=st.integers(1, 3), n=st.integers(1, 8),
       scale=st.sampled_from([0.0, 0.5, -1.0, 1e308]), as_array=st.booleans(), data=st.data())
def test_chain_break_matches_the_per_step_reference(kind, dim, n, scale, as_array, data):
    if kind == "tabulated":
        space, map_ = STEP_TABLE, SelfMap.table({"a": "b", "b": "c", "c": "d", "d": "b"})
        points = iterate_trace(space, map_, data.draw(st.sampled_from("abcd")), n)
        tampers = st.sampled_from("abcd")
    else:
        space = induced_from_metric(CoordinateSpace(dim, kind), min_max())
        offset = data.draw(st.sampled_from([0.0, 1.0]))
        map_ = SelfMap.affine(scale * np.eye(dim), [offset] * dim)
        x0 = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 1.0, 10.0]), min_size=dim, max_size=dim)))
        with np.errstate(over="ignore"):
            points = iterate_trace(space, map_, x0, n) if scale != 1e308 else [x0] * (n + 1)
        # a one-ulp move, a signed zero, a NaN or an infinity in one coordinate
        tampers = st.sampled_from([np.nextafter(1.0, 2.0), -0.0, np.nan, np.inf, 10.0])
    points = list(points)
    malformed = set()
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(0, n))
        value = data.draw(tampers)
        if kind == "tabulated":
            points[j] = value
        elif j in malformed or data.draw(st.integers(0, 4)) == 0:
            # a whole point replaced by a ragged or a non-numeric one
            points[j] = data.draw(st.sampled_from([[1.0] * (dim + 1), "x"]))
            malformed.add(j)
        else:
            points[j] = points[j].copy()
            points[j][data.draw(st.integers(0, dim - 1))] = value
    if as_array and not malformed:
        points = np.asarray(points, dtype=object if kind == "tabulated" else float)
    with np.errstate(over="ignore"):
        assert outcome(chain_break, space, map_, points) == outcome(reference_chain_break, space, map_, points)


def test_a_break_before_a_malformed_point_is_still_found(line, half_plus_one):
    # reading the chain as one batch raised on the ragged point at index 3,
    # so verify raised where the break at step 1 makes it False
    points = iterate_trace(line, half_plus_one, 0.0, 4)
    points[2] = np.array([7.0])
    points[3] = [1.0, 2.0]
    assert chain_break(line, half_plus_one, points) == 1
    step_mu, step_nu = membership_grid(line, points[:2], points[1:2], SolveConfig().probe_ts)
    trace = IterationTrace(points, SolveConfig().probe_ts, step_mu, step_nu)
    assert trace.verify(line, half_plus_one) is False
    points[2] = half_plus_one(points[1])
    assert chain_break(line, half_plus_one, points) == 2


@pytest.mark.parametrize("chain, step", [([0.0, 0.5, 0.75], None), ([0.0, 0.6, 0.75], 0), ([0.0, 0.5, 0.7], 1)],
                         ids=["holds", "middle-moved", "last-moved"])
def test_a_bare_number_chain_on_a_line_reads_alike_on_both_paths(line, chain, step):
    # x -> x/2 + 1/2 as an affine map is re-mapped in one call, and as a
    # custom callable walked; the walk compared each (1,) image with the bare
    # number stored after it by shape, so the chain that holds broke at step 0
    ts = SolveConfig().probe_ts
    step_mu, step_nu = membership_grid(line, chain[:-1], chain[1:], ts)
    trace = IterationTrace(chain, ts, step_mu, step_nu)
    for map_ in (SelfMap.affine([[0.5]], [0.5]), SelfMap(lambda x: 0.5 * x + 0.5)):
        assert chain_break(line, map_, chain) == step
        assert trace.verify(line, map_) is (step is None)


@pytest.mark.parametrize("kind", ["custom", "table"])
def test_a_malformed_point_of_a_walked_chain_is_read_as_a_point(line, kind):
    # a custom or table map has no row-exact form, so its chain is walked,
    # and each stored point, which comes from a document, is read as a
    # point: a malformed middle or last one is a break at the step before
    # it, and a malformed first one raises
    if kind == "custom":
        space, map_, start = line, SelfMap(lambda x: 0.5 * x + 1.0), 0.0
        bads = [[np.nan], [-np.inf], [1.0, 2.0], "x", None]
    else:
        space, map_, start = STEP_TABLE, SelfMap.table({"a": "b", "b": "c", "c": "d", "d": "b"}), "a"
        bads = ["zz", 3, None, ["a"]]
    points = iterate_trace(space, map_, start, 5)
    for bad in bads:
        for j in (2, 5):
            assert chain_break(space, map_, [*points[:j], bad, *points[j + 1 :]]) == j - 1
        with pytest.raises(ValueError):
            chain_break(space, map_, [bad, *points[1:]])


def test_a_ball_exit_outranks_a_window_at_the_same_step(line):
    # 0 -> 0.5 -> 0.99 -> 1.0: step 3 is 0.01 from step 2, so the window of
    # iterate 2 is full and near at step 3, where 1.0 leaves the ball |x| < 1
    jumps = SelfMap(lambda x: {0.0: 0.5, 0.5: 0.99, 0.99: 1.0}.get(x[0], x[0]))
    ball = BallSpec([0.0], 0.5, 1.0)
    config = SolveConfig(epsilon=0.3, window=1, hypothesis_checks=False)
    result = _solve(line, jumps, [0.0], config, (), ball)
    assert (result.status, result.stop_reason) == ("diverged_from_ball", "iterate 3 left the open ball")
    assert result.trace.ball_flags == reference_solve(line, jumps, [0.0], config, ball).trace.ball_flags
    assert _solve(line, jumps, [0.0], config, ()).stop_reason.startswith("window of 1 iterates after iteration 2")


def test_long_window_memory_stays_bounded():
    # the window grids of a block's candidates in one call peaked at 27.2
    # MiB; split into calls of about BLOCK_CELLS cells, one candidate a call
    # here, 1.6 MiB.  The bound is the streamed sampled checks'.
    space = induced_from_metric(CoordinateSpace(3), min_max())
    config = SolveConfig(max_iterations=10_000, window=2000, hypothesis_checks=False)
    tracemalloc.start()
    try:
        result = picard_solve(space, SelfMap.affine(np.eye(3) * 0.95, [0.0] * 3), [31.3] * 3, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and (result.iterations, len(result.trace.points)) == (482, 2483)
    assert peak < 16 * 2**20


def test_long_solve_memory_stays_bounded():
    # 14.8 MiB when every step row was kept as its own view object
    space = induced_from_metric(CoordinateSpace(3), min_max())
    config = SolveConfig(max_iterations=30_000, hypothesis_checks=False)
    tracemalloc.start()
    try:
        result = picard_solve(space, SelfMap.affine(np.eye(3) * 0.999, [0.0] * 3), [31.3] * 3, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and len(result.trace.points) == 19_884
    assert peak < 11 * 2**20


def reference_uniqueness(space, map_, starts, config):
    """The uniqueness probe as it was: one kernel call per pair of limits,
    and a pair replaces the witness only when its margin is strictly
    smaller, so a NaN margin never does."""
    results = [picard_solve(space, map_, s, config) for s in starts]
    limits = [r.fixed_point for r in results if r.converged]
    eq_eps = min(EQUALITY_SLACK * config.epsilon, 0.5)
    ts = np.asarray(config.probe_ts)
    agreement, worst_pair, worst_margin, max_dist = True, None, np.inf, None
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            mu, nu = membership_grid(space, limits[i], limits[j], ts)
            margins = np.minimum(mu[0] - (1.0 - eq_eps), eq_eps - nu[0])
            t_idx = int(np.argmin(margins))
            margin = float(margins[t_idx])
            agreement = agreement and margin >= 0.0
            if margin < worst_margin:
                worst_margin = margin
                worst_pair = {"i": i, "j": j, "t": float(ts[t_idx]),
                              "mu": float(mu[0, t_idx]), "nu": float(nu[0, t_idx])}
            if space.base_distance is not None:
                d = float(space.base_distance(limits[i], limits[j]))
                max_dist = d if max_dist is None else max(max_dist, d)
    return UniquenessReport(statuses=[r.status for r in results], limits=[point_jsonable(p) for p in limits],
                            equality_epsilon=eq_eps, agreement=agreement, worst_pair=worst_pair,
                            max_pairwise_distance=max_dist, results=results)


def uniqueness_text(report):
    return json_text({key: value for key, value in vars(report).items() if key != "results"})


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([*METRICS, "tabulated"]), dim=st.integers(1, 12), ts=probe_times,
       epsilon=st.sampled_from([1e-12, 1e-8, 1e-4, 0.01, 0.2]), data=st.data())
def test_uniqueness_probe_matches_the_per_pair_reference(kind, dim, ts, epsilon, data):
    # the identity map fixes every start, so the starts are the limits;
    # starts a scaled offset apart put margins on both sides of 0
    count = data.draw(st.integers(0, 6))
    if kind == "tabulated":
        space = STEP_TABLE
        starts = data.draw(st.lists(st.sampled_from(space.domain.labels), min_size=count, max_size=count))
    else:
        space = induced_from_metric(CoordinateSpace(dim, kind), min_max())
        base = np.asarray(data.draw(st.lists(magnitude, min_size=dim, max_size=dim)))
        scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3]))
        starts = [base + scale * np.asarray(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                                                max_size=dim)))
                  for _ in range(count)]
    config = SolveConfig(epsilon=epsilon, probe_ts=tuple(np.sort(ts)), hypothesis_checks=False)
    identity = SelfMap.identity()
    assert uniqueness_text(uniqueness_probe(space, identity, starts, config)) == \
        uniqueness_text(reference_uniqueness(space, identity, starts, config))


def test_a_nan_margin_is_the_uniqueness_witness(line):
    # nu is NaN on pairs 4 apart, the limits 1.0 and 5.0: the per-pair loop
    # never took a NaN margin and named the pair (0, 2), 5 apart
    def membership(x, y, t):
        mu, nu = line.membership(x, y, t)
        return mu, np.where(np.abs(x[..., 0] - y[..., 0]) == 4.0, np.nan, nu)

    space = IfmSpace(domain=line.domain, operators=line.operators, membership=membership,
                     base_distance=line.base_distance)
    config = SolveConfig(hypothesis_checks=False)
    args = (space, SelfMap.identity(), [0.0, 1.0, 5.0], config)
    report, reference = uniqueness_probe(*args), reference_uniqueness(*args)
    assert report.agreement is False and reference.agreement is False
    witness = report.worst_pair
    assert (witness["i"], witness["j"], witness["t"], witness["mu"]) == (1, 2, 0.1, 0.1 / 4.1)
    assert np.isnan(witness["nu"])
    assert (reference.worst_pair["i"], reference.worst_pair["j"]) == (0, 2)
    assert report.max_pairwise_distance == reference.max_pairwise_distance == 5.0


def test_probes_evaluate_all_their_pairs_in_one_kernel_call(monkeypatch, line, three_point_space):
    calls = []
    kernel = IfmSpace.mu_nu

    def counted(space, x, y, t):
        calls.append(np.shape(x))
        return kernel(space, x, y, t)

    def kernel_calls(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr(IfmSpace, "mu_nu", counted)
    pairs = list(zip(*sample_pairs(line, 8, seed=1)))
    assert kernel_calls(lambda: asymptotic_nearness_probe(line, pairs, 1e6, 1e-2)) == 1
    # the two probes below first run their sequence checks or solves, which
    # make calls of their own; then one call serves all the pairs
    xs, ys = [2.0 + 2.0 ** -n for n in range(31)], [5.0 - 3.0 ** -n for n in range(31)]
    checks = kernel_calls(lambda: [sequence_diagnostics(line, seq, window=4, candidate_limit=limit)
                                   for seq, limit in ((xs, 2.0), (ys, 5.0))])
    assert kernel_calls(lambda: joint_continuity_probe(line, xs, 2.0, ys, 5.0, 1.0, 1e-6)) == checks + 1
    config, identity, starts = SolveConfig(hypothesis_checks=False), SelfMap.identity(), [-1.0, 0.0, 1.0]
    solves = kernel_calls(lambda: [picard_solve(line, identity, s, config) for s in starts])
    assert kernel_calls(lambda: uniqueness_probe(line, identity, starts, config)) == solves + 1
    assert calls[-1] == (3, 1, 1)  # the three pairs of three limits
    # the tabulated ball filter tests all labels at once
    assert kernel_calls(lambda: sample_ball_pairs(three_point_space, BallSpec("a", 0.6, 1.0), 10, 0)) == 1


def test_a_custom_map_chain_is_walked_step_by_step():
    # x @ A summed over the rows of A, left to right for a point and right to
    # left for a batch, so a batch row rounds differently from its point on
    # any BLAS; a custom map has no row-exact form, so its chain is walked
    # one apply_point at a time and holds
    space = induced_from_metric(CoordinateSpace(3), min_max())
    a = np.array([[0.3, -0.2, 0.1], [0.05, 0.4, -0.15], [0.2, 0.1, 0.25]])

    def times_a(x):
        terms = [x[..., i, None] * a[i] for i in range(len(a))]
        return functools.reduce(operator.add, terms if x.ndim == 1 else terms[::-1])

    map_ = SelfMap(times_a)
    points = iterate_trace(space, map_, [1.0, -2.0, 3.0], 40)
    batch = np.asarray(points)
    assert map_._rows is None and np.any(map_(batch[:-1]) != batch[1:])
    assert chain_break(space, map_, points) is None


def test_the_solvers_window_is_anchored_where_the_diagnostics_window_is_cauchy(line):
    # x_1 .. x_8 each lie delta from x_0 = 0, so the solver's window at 0
    # holds; the neighbours delta and -delta lie 2 delta apart, so no
    # window of pairs is Cauchy
    delta = 8e-4
    points = [0.0] + [delta, -delta] * 8
    assert _windows(line, points, [0], SolveConfig(epsilon=0.01, window=8)) == {0: True}
    assert sequence_diagnostics(line, points, epsilon=0.01, window=8).cauchy is False


def test_an_affine_map_of_another_dimension_fails_as_its_first_step_does(line):
    # the one-call form cannot map 2-D rows; the walk raises numpy's text
    map_ = SelfMap.affine(np.eye(2), [0.0, 0.0])
    assert outcome(chain_break, line, map_, [[1.0], [1.0]]) == \
        outcome(reference_chain_break, line, map_, [[1.0], [1.0]])
    assert outcome(chain_break, line, map_, [[1.0], [1.0]])[0] is ValueError


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 4), rate=st.floats(0.1, 0.9), data=st.data())
def test_a_converged_solve_obeys_banachs_a_posteriori_bound(dim, rate, data):
    # x -> Ax + b with spectral norm L: every probe residual of a converged
    # solve is closed eps-near, so at the smallest probe time t_min the
    # certified distance d(x_c, T x_c) = t_min (1 - mu) / mu is at most
    # t_min eps / (1 - eps), and d(x_c, x*) <= d(x_c, T x_c) / (1 - L).
    # The residual is the metric one: mu = t / (t + d) on an induced space.
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    matrix = np.asarray(data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    norm = np.linalg.norm(matrix, 2)
    matrix = rate * (matrix / norm if norm > 1e-3 else np.eye(dim))
    offset, x0 = (np.asarray(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
                  for _ in range(2))
    space = induced_from_metric(CoordinateSpace(dim, "euclidean"), min_max())
    map_ = SelfMap.affine(matrix, offset)
    config = SolveConfig()
    result = picard_solve(space, map_, x0, config)
    assert result.converged, result.stop_reason
    x_star = np.linalg.solve(np.eye(dim) - matrix, offset)
    t_min, eps, lip = config.probe_ts[0], config.epsilon, np.linalg.norm(matrix, 2)
    assert np.linalg.norm(result.fixed_point - x_star) <= t_min * eps / ((1 - eps) * (1 - lip))
    d = np.linalg.norm(result.fixed_point - map_(result.fixed_point))
    ts = np.asarray(config.probe_ts)
    np.testing.assert_allclose(result.residual_mu, ts / (ts + d), rtol=1e-12, atol=0)


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev", "absolute-difference"])
def test_the_power_showcase_gate_estimates_its_squares_contraction(metric):
    # the pinned power showcase (x, y) -> (1000 y, 0.00081 x) squares to
    # 0.81 I in every base metric, so the power gate's sampled constant is
    # 0.81 plus the safety margin, up to the rounding of the gaps (an
    # excess of 4.2e-12 to 6.8e-12 at seed 7, so an exact bound fails)
    space = induced_from_metric(CoordinateSpace(2, metric), min_max())
    config = SolveConfig(seed=7)
    power = SelfMap.affine([[0.0, 1000.0], [0.00081, 0.0]], [0.0, 0.0]).power(2)
    report = CHECKS["if_contractive"](space, power, config, space.domain.box(config.sample_halfwidth))
    assert report.passed
    assert report.estimated_k <= (0.81 + K_SAFETY_MARGIN) * (1.0 + 1e-10), report.estimated_k
