import math
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifmlab import (
    BallSpec,
    CoordinateSpace,
    Curve,
    FiniteTabulated,
    IfmSpace,
    OperatorPair,
    asymptotic_nearness_probe,
    axiom_audit,
    ball_contains,
    closedness_probe,
    evaluate,
    finite_tabulated,
    induced_from_metric,
    joint_continuity_probe,
    membership_grid,
    min_max,
    product_probsum,
    sequence_diagnostics,
    time_parameter,
)
from ifmlab.operators import BLOCK_CELLS, idempotency_witness, idempotent_within, unit_scalar
from ifmlab.report import AuditReport, ClauseResult, json_text
from ifmlab.spaces import (
    BASE_METRICS,
    CONTINUITY_BOUND,
    CONTINUITY_REFINEMENT,
    DEFAULT_AUDIT_BOX_HALFWIDTH,
    DEFAULT_PROBE_TS,
    AsymptoticReport,
    DomainEscapeError,
    JointContinuityReport,
    NonFiniteImageError,
    _ball_flags,
    _margin,
    _near,
    label_pairs,
    point_jsonable,
    points_equal,
    probe_grid,
    triangle_shifts,
)

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive_t = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_time_parameter_rejects_nonpositive():
    assert time_parameter(0.5) == 0.5
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            time_parameter(bad)


def test_nonfinite_times_and_points_rejected(line):
    for bad_t in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            evaluate(line, 0.0, 1.0, bad_t)
        with pytest.raises(ValueError, match="finite"):
            axiom_audit(line, 10, t_samples=[1.0, bad_t])
    with pytest.raises(ValueError, match="finite"):
        evaluate(line, float("nan"), 1.0, 1.0)


def test_induced_line_values(line):
    assert evaluate(line, 0.0, 1.0, 1.0) == (0.5, 0.5)
    mu, nu = evaluate(line, 2.0, 5.0, 1.0)
    assert (mu, nu) == (0.25, 0.75)
    mu, nu = evaluate(line, 3.7, 3.7, 0.25)
    assert (mu, nu) == (1.0, 0.0)


def test_induced_requires_idempotent_operators():
    with pytest.raises(ValueError):
        induced_from_metric(CoordinateSpace(1), product_probsum())


def test_base_metric_variants():
    for metric in ("euclidean", "chebyshev", "absolute-difference"):
        space = induced_from_metric(CoordinateSpace(2, metric), min_max())
        assert axiom_audit(space, 300, tolerance=1e-9, seed=5).passed
    with pytest.raises(ValueError):
        CoordinateSpace(2, "manhattan-ish")


def test_three_point_space_evaluates_and_audits(three_point_space):
    assert evaluate(three_point_space, "a", "b", 1.0) == (0.4, 0.5)
    assert evaluate(three_point_space, "b", "b", 7.0) == (1.0, 0.0)
    assert axiom_audit(three_point_space, 300, tolerance=1e-9, seed=2).passed


def test_single_point_space_is_degenerate_but_valid():
    space = finite_tabulated(FiniteTabulated(["p"], {}), min_max())
    assert evaluate(space, "p", "p", 1.0) == (1.0, 0.0)
    report = axiom_audit(space, 50, tolerance=1e-9, seed=0)
    assert report.passed
    assert "no distinct pairs" in report.clause("mu_identity").note


def test_tabulated_construction_rejections():
    with pytest.raises(ValueError, match="nondecreasing"):
        FiniteTabulated(["a", "b"], {("a", "b"): ([[1.0, 0.5], [2.0, 0.4]], 0.3)})
    with pytest.raises(ValueError, match="nonincreasing"):
        FiniteTabulated(["a", "b"], {("a", "b"): (0.5, [[1.0, 0.2], [2.0, 0.3]])})
    with pytest.raises(ValueError, match="missing curve data"):
        FiniteTabulated(["a", "b", "c"], {("a", "b"): (0.4, 0.5), ("a", "c"): (0.4, 0.5)})
    with pytest.raises(ValueError, match="unknown label"):
        FiniteTabulated(["a", "b"], {("a", "z"): (0.4, 0.5), ("a", "b"): (0.4, 0.5)})
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        FiniteTabulated(["a", "b"], {("a", "b"): (0.0, 0.5)})


def test_tabulated_curves_interpolate_and_extend(three_point_space):
    domain = FiniteTabulated(
        ["a", "b"],
        {("a", "b"): ([[1.0, 0.2], [3.0, 0.6]], [[1.0, 0.7], [3.0, 0.3]])},
    )
    space = finite_tabulated(domain, min_max())
    assert evaluate(space, "a", "b", 2.0) == (pytest.approx(0.4), pytest.approx(0.5))
    # constant extension on both sides of the breakpoints
    assert evaluate(space, "a", "b", 0.25) == (0.2, 0.7)
    assert evaluate(space, "a", "b", 100.0) == (0.6, 0.3)


def test_unknown_label_rejected(three_point_space):
    with pytest.raises(ValueError, match="unknown label"):
        evaluate(three_point_space, "a", "z", 1.0)


def test_corrupted_space_fails_bounded_sum(three_point_space):
    def membership(x, y, t):
        xi = three_point_space.domain.indices(x)
        yi = three_point_space.domain.indices(y)
        mu = np.where(xi == yi, 1.0, 0.5)
        nu = np.where(xi == yi, 0.0, 0.7)
        if isinstance(x, str):
            return mu[0], nu[0]
        return mu, nu

    corrupted = IfmSpace(
        domain=three_point_space.domain,
        operators=three_point_space.operators,
        membership=membership,
        description="corrupted",
    )
    report = axiom_audit(corrupted, 200, tolerance=1e-9, seed=1)
    clause = report.clause("bounded_sum")
    assert not clause.passed
    assert clause.worst == pytest.approx(0.2)  # 0.5 + 0.7 - 1


def test_nan_membership_fails_both_lower_bounds_with_a_nan_worst(line):
    # mu (and so nu = 1 - mu) is NaN at t = 2 on every pair; max(0.0, -low)
    # read 0.0 on both lower bounds, while bounded_sum read NaN
    def membership(x, y, t):
        mu = line.membership(x, y, t)[0]
        mu = np.where(np.asarray(t) == 2.0, np.nan, mu)
        return mu, 1.0 - mu

    space = IfmSpace(domain=line.domain, operators=line.operators, membership=membership)
    report = axiom_audit(space, 50, t_samples=(1.0, 2.0, 4.0), seed=0)
    for name in ("bounded_sum", "mu_positive", "nu_nonnegative"):
        clause = report.clause(name)
        assert not clause.passed and math.isnan(clause.worst) and math.isnan(clause.witness["violation"])
        assert clause.witness["t"] == 2.0


def test_audit_rejects_bad_arguments(plane):
    with pytest.raises(ValueError, match="sample_count"):
        axiom_audit(plane, 0)
    with pytest.raises(ValueError, match="tolerance"):
        axiom_audit(plane, 10, tolerance=-1e-3)


def test_audit_is_seed_deterministic(plane):
    a = axiom_audit(plane, 400, tolerance=1e-9, seed=9)
    b = axiom_audit(plane, 400, tolerance=1e-9, seed=9)
    assert a.to_records() == b.to_records()


def test_asymptotic_probe(line, three_point_space):
    report = asymptotic_nearness_probe(line, [(0.0, 1.0)], t_horizon=1000.0, epsilon=1e-2)
    assert report.passed
    assert report.entries[0]["mu"] == pytest.approx(1000.0 / 1001.0)

    assert asymptotic_nearness_probe(line, [(3.0, 3.0)], 0.5, 1e-6).passed

    report = asymptotic_nearness_probe(three_point_space, [("a", "b")], 1e9, 1e-2)
    assert not report.passed  # nearness stays at 0.4 forever


def test_ball_membership(line):
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    assert ball_contains(line, ball, 0.8, mode="open")
    assert ball_contains(line, ball, 0.0, mode="open")
    assert ball_contains(line, ball, 0.0, mode="closed")
    # boundary point: strict containment fails, closed containment holds
    assert not ball_contains(line, ball, 1.0, mode="open")
    assert ball_contains(line, ball, 1.0, mode="closed")
    with pytest.raises(ValueError):
        ball_contains(line, ball, 1.0, mode="interior")


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec(center=0.0, radius=1.0, time=1.0)
    with pytest.raises(ValueError):
        BallSpec(center=0.0, radius=0.5, time=0.0)


def test_open_ball_membership_implies_closed(line):
    rng = np.random.default_rng(4)
    ball = BallSpec(center=0.25, radius=0.3, time=0.7)
    for y in rng.uniform(-2, 2, 64):
        if ball_contains(line, ball, y, mode="open"):
            assert ball_contains(line, ball, y, mode="closed")


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["line", "plane", "tabulated"]), radius=st.floats(0.01, 0.99),
       time=positive_t, coords=st.lists(st.tuples(coord, coord), min_size=2, max_size=8))
@example(kind="line", radius=0.5, time=1.0, coords=[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.8, 0.0)])
@example(kind="tabulated", radius=0.6, time=1.0, coords=[(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
def test_ball_flags_match_ball_contains_point_by_point(kind, radius, time, coords):
    """One batch test gives each point the verdict of its own ball_contains
    call, in both modes.  The first point is the ball's center; a tabulated
    point is the label at its first coordinate's integer part, mod 4."""
    if kind == "tabulated":
        space, points = FOUR_LABELS, ["abcd"[int(x) % 4] for x, _ in coords]
    else:
        space = induced_from_metric(CoordinateSpace(1 if kind == "line" else 2), min_max())
        points = [[x] if kind == "line" else [x, y] for x, y in coords]
    ball = BallSpec(center=points[0], radius=radius, time=time)
    for mode in ("open", "closed"):
        flags = _ball_flags(space, ball, space.domain.batch(points[1:]), closed=mode == "closed")
        assert flags.tolist() == [ball_contains(space, ball, p, mode=mode) for p in points[1:]]


def reference_near(mu, nu, r, closed):
    """The nearness test as each verdict wrote it inline before ``_near``:
    the open form for balls, Picard steps and windows and the Cauchy and
    convergence tests, the closed form for the closed ball, the residual
    certificate, the t-uniform probe and the large-horizon probe."""
    if closed:
        return (mu >= 1.0 - r) & (nu <= r)
    return (mu > 1.0 - r) & (nu < r)


# the t-uniform ladder eps * 2**j below 1, for its default epsilons and any
# epsilon inside (0, 1), and ball radii inside (0, 1)
nearness_radius = st.one_of(
    st.builds(lambda eps, j: eps * 2.0**j, st.sampled_from([0.1, 0.01]), st.integers(-24, 3)),
    st.builds(lambda eps, j: eps * 2.0**j,
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(-24, 0)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
nearness_float = st.one_of(st.floats(), st.floats(0.0, 1.0),
                           st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                            2.2250738585072014e-308, 1.0, 1.7976931348623157e308]))


@settings(max_examples=300, deadline=None)
@given(r=nearness_radius, mu=st.lists(nearness_float, max_size=12), nu=st.lists(nearness_float, max_size=12))
def test_near_and_margin_agree_with_the_inline_nearness_tests(r, mu, nu):
    """``_near`` gives each cell the verdict of the old inline test, in both
    forms, and the sign of ``_margin`` gives the same verdicts: positive for
    the open form, nonnegative for the closed one.  Each (mu, nu) list also
    carries the thresholds ``1 - r`` and ``r`` and their neighbours."""
    edge = [np.nextafter(1.0 - r, -1.0), 1.0 - r, np.nextafter(1.0 - r, 2.0)]
    mu = np.array(mu + edge + [1.0] * 3 + edge)
    nu = np.array(nu + [0.0] * 3 + [np.nextafter(r, -1.0), r, np.nextafter(r, 2.0)] * 2)
    size = min(len(mu), len(nu))
    mu, nu = mu[-size:], nu[-size:]
    for closed in (False, True):
        expected = reference_near(mu, nu, r, closed)
        got = _near(mu, nu, r, closed)
        assert got.dtype == bool and np.array_equal(got, expected)
        assert [_near(float(m), float(n), r, closed) for m, n in zip(mu, nu)] == expected.tolist()
    margin = _margin(mu, nu, r)
    assert np.array_equal(margin > 0.0, reference_near(mu, nu, r, False))
    assert np.array_equal(margin >= 0.0, reference_near(mu, nu, r, True))


def test_sequence_diagnostics_geometric(line):
    prefix = [2.0 ** -n for n in range(41)]
    report = sequence_diagnostics(
        line, prefix, probe_ts=[0.1, 1.0, 10.0], epsilon=0.01, window=8, candidate_limit=0.0
    )
    assert report.cauchy and report.convergent
    assert report.cauchy_from is not None and report.cauchy_from <= 12


def test_sequence_diagnostics_constant(line):
    report = sequence_diagnostics(
        line, [1.5] * 10, epsilon=0.01, window=4, candidate_limit=1.5
    )
    assert report.cauchy and report.cauchy_from == 0
    assert report.convergent and report.convergent_from == 0


def test_sequence_diagnostics_divergent(line):
    report = sequence_diagnostics(line, list(range(20)), probe_ts=[1.0], epsilon=0.01, window=4)
    assert not report.cauchy
    assert report.witness is not None


def test_sequence_report_passes_on_a_cauchy_prefix_with_no_failing_limit(line):
    prefix = [2.0 ** -n for n in range(41)]
    verdicts = [sequence_diagnostics(line, prefix, epsilon=0.01, window=8, candidate_limit=limit)
                for limit in (None, 0.0, 1.0)]
    assert [(r.cauchy, r.convergent, r.passed) for r in verdicts] == [
        (True, None, True), (True, True, True), (True, False, False)]
    divergent = sequence_diagnostics(line, list(range(20)), epsilon=0.01, window=4, candidate_limit=0.0)
    assert (divergent.cauchy, divergent.passed) == (False, False)


def test_sequence_diagnostics_input_errors(line):
    with pytest.raises(ValueError):
        sequence_diagnostics(line, [], epsilon=0.01, window=2)
    with pytest.raises(ValueError):
        sequence_diagnostics(line, [1.0, 2.0], epsilon=0.01, window=4)


def test_joint_continuity_limits(line):
    xs = [2.0 + 2.0 ** -n for n in range(31)]
    ys = [5.0 - 3.0 ** -n for n in range(31)]
    report = joint_continuity_probe(line, xs, 2.0, ys, 5.0, t=1.0, tolerance=1e-6)
    assert report.passed
    assert report.mu_limit == 0.25 and report.nu_limit == 0.75
    assert report.mu_tail == pytest.approx(0.25, abs=1e-6)
    assert report.nu_tail == pytest.approx(0.75, abs=1e-6)


def test_joint_continuity_constant_sequences_exact(line):
    xs = [1.0] * 8
    ys = [4.0] * 8
    report = joint_continuity_probe(line, xs, 1.0, ys, 4.0, t=2.0, tolerance=0.0)
    assert report.passed and report.mu_delta == 0.0 and report.nu_delta == 0.0


def test_joint_continuity_coincident_tail(line):
    xs = [1.0 + 2.0 ** -n for n in range(26)]
    report = joint_continuity_probe(line, xs, 1.0, xs, 1.0, t=0.5, tolerance=1e-6)
    assert report.mu_limit == 1.0 and report.nu_limit == 0.0
    assert report.passed


def test_joint_continuity_rejects_divergent_input(line):
    with pytest.raises(ValueError, match="not convergent"):
        joint_continuity_probe(line, list(range(10)), 0.0, [0.0] * 10, 0.0, t=1.0, tolerance=0.1)


def test_closedness_closed_ball_passes(line):
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    seq = [0.8 * (1 - 2.0 ** -n) for n in range(40)]
    report = closedness_probe(
        line, lambda p: ball_contains(line, ball, p, mode="closed"), [(seq, 0.8)]
    )
    assert report.passed


def test_closedness_singleton(line):
    report = closedness_probe(line, lambda p: float(np.atleast_1d(p)[0]) == 2.0, [([2.0] * 8, 2.0)])
    assert report.passed


def test_closedness_open_ball_fails(line):
    ball = BallSpec(center=0.0, radius=0.5, time=1.0)
    seq = [1.0 - 2.0 ** -n for n in range(1, 40)]
    report = closedness_probe(
        line, lambda p: ball_contains(line, ball, p, mode="open"), [(seq, 1.0)]
    )
    assert not report.passed
    assert report.escapes[0]["limit"] == [1.0]


def test_closedness_rejects_divergent_sequence(line):
    with pytest.raises(ValueError, match="not convergent"):
        closedness_probe(line, lambda p: True, [(list(range(10)), 0.0)])


def test_curve_from_spec_forms():
    assert Curve.from_spec(0.4)(123.0) == 0.4
    curve = Curve.from_spec([[1.0, 0.2], [2.0, 0.3]])
    assert Curve.from_spec(curve) is curve
    with pytest.raises(ValueError, match="strictly increasing"):
        Curve.from_spec([[1.0, 0.2], [1.0, 0.3]])


def reference_is_monotone(values, direction):
    diffs = np.diff(values)
    return bool(np.all(diffs >= 0.0) if direction == "nondecreasing" else np.all(diffs <= 0.0))


EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])


@settings(max_examples=500, deadline=None)
@given(values=st.lists(EDGE_VALUES | st.floats(), max_size=6),
       direction=st.sampled_from(["nondecreasing", "nonincreasing"]))
@example(values=[1e308, -1e308], direction="nonincreasing")
@example(values=[-1e308, 1e308, np.inf], direction="nondecreasing")
@example(values=[np.inf, np.inf], direction="nondecreasing")
@example(values=[0.0, -0.0, 5e-324], direction="nondecreasing")
def test_curve_monotonicity_matches_np_diff(values, direction):
    curve = Curve(tuple(float(t) for t in range(1, len(values) + 1)), tuple(values))
    with np.errstate(all="ignore"):
        assert curve.is_monotone(direction) is reference_is_monotone(values, direction)


@given(x=coord, y=coord, t=positive_t)
@settings(max_examples=80, deadline=None)
def test_induced_complement_symmetry_diagonal(x, y, t):
    space = induced_from_metric(CoordinateSpace(1), min_max())
    mu, nu = evaluate(space, x, y, t)
    assert mu + nu == 1.0  # exact constructor identity
    assert 0.0 < mu <= 1.0 and 0.0 <= nu < 1.0
    mu2, nu2 = evaluate(space, y, x, t)
    assert (mu, nu) == (mu2, nu2)
    assert evaluate(space, x, x, t) == (1.0, 0.0)


@given(x=coord, y=coord, z=coord, s=positive_t, t=positive_t)
@settings(max_examples=80, deadline=None)
def test_induced_triangle_and_monotonicity(x, y, z, s, t):
    space = induced_from_metric(CoordinateSpace(1), min_max())
    mu_xy, _ = evaluate(space, x, y, s)
    mu_yz, _ = evaluate(space, y, z, t)
    mu_xz, nu_xz = evaluate(space, x, z, s + t)
    assert min(mu_xy, mu_yz) <= mu_xz + 1e-12
    _, nu_xy = evaluate(space, x, y, s)
    _, nu_yz = evaluate(space, y, z, t)
    assert max(nu_xy, nu_yz) >= nu_xz - 1e-12
    # nearness grows with t
    assert evaluate(space, x, y, s)[0] <= evaluate(space, x, y, s + t)[0] + 1e-15


FOUR_LABELS = finite_tabulated(
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


def reference_grid(space, xs, ys, ts):
    """One time at a time, one pair at a time, from the domain's primitives."""
    domain = space.domain
    mu = np.empty((len(xs), len(ts)))
    nu = np.empty((len(xs), len(ts)))
    for j, t in enumerate(ts):
        for i, (x, y) in enumerate(zip(xs, ys)):
            if isinstance(domain, CoordinateSpace):
                m = t / (t + domain.distance(x, y))
                mu[i, j], nu[i, j] = m, 1.0 - m
            elif x == y:
                mu[i, j], nu[i, j] = 1.0, 0.0
            else:
                mu_curve, nu_curve = domain.pair_curves[tuple(sorted((domain.index[x], domain.index[y])))]
                mu[i, j], nu[i, j] = mu_curve(t), nu_curve(t)
    return mu, nu


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "chebyshev", "absolute-difference", "tabulated"]),
    dim=st.integers(1, 3),
    n=st.integers(1, 12),
    ts=st.lists(positive_t, min_size=1, max_size=6),
    data=st.data(),
)
def test_membership_grid_matches_per_t_reference_bit_for_bit(kind, dim, n, ts, data):
    if kind == "tabulated":
        space = FOUR_LABELS
        point = st.sampled_from(space.domain.labels)
    else:
        space = induced_from_metric(CoordinateSpace(dim, kind), min_max())
        point = st.lists(coord, min_size=dim, max_size=dim)
    xs = space.domain.batch(data.draw(st.lists(point, min_size=n, max_size=n)))
    ys = space.domain.batch(data.draw(st.lists(point, min_size=n, max_size=n)))

    mu, nu = membership_grid(space, xs, ys, ts)
    ref_mu, ref_nu = reference_grid(space, xs, ys, ts)
    assert mu.shape == (n, len(ts))
    assert np.array_equal(mu, ref_mu) and np.array_equal(nu, ref_nu)

    # a single point pairs with every point of the other side
    mu, nu = membership_grid(space, xs[0], ys, ts)
    ref_mu, ref_nu = reference_grid(space, [xs[0]] * n, ys, ts)
    assert np.array_equal(mu, ref_mu) and np.array_equal(nu, ref_nu)


def reference_triangle_and_continuity(space, sample_count, ts, seed, tolerance=1e-9):
    """The triangle and time-continuity clauses as the audit computed them
    before it worked in sample blocks: one kernel call over all samples per
    time shift s and per probe interval."""
    ts = probe_grid(ts)
    rng = np.random.default_rng(seed)
    xs, ys, zs = (space.domain.draw(rng, sample_count, (-5.0, 5.0)) for _ in range(3))
    mu_xy, nu_xy = membership_grid(space, xs, ys, ts)
    mu_yz, nu_yz = membership_grid(space, ys, zs, ts)
    best = [(-np.inf, None)] * 2
    for i, s in enumerate(ts):
        mu_xz, nu_xz = membership_grid(space, xs, zs, s + ts)
        viols = (np.asarray(space.operators.tnorm(mu_xy[:, i, None], mu_yz), dtype=float) - mu_xz,
                 nu_xz - np.asarray(space.operators.tconorm(nu_xy[:, i, None], nu_yz), dtype=float))
        for side, viol in enumerate(viols):
            # by time, then by sample; only a strictly larger value replaces
            j, m = np.unravel_index(int(np.argmax(viol.T)), viol.T.shape)
            worst = float(viol[m, j])
            if worst > best[side][0]:
                best[side] = worst, {
                    "x": point_jsonable(xs[m]), "y": point_jsonable(ys[m]), "z": point_jsonable(zs[m]),
                    "s": float(s), "t": float(ts[j]), "violation": worst,
                }
    jumps = [0.0, 0.0]
    for lo_t, hi_t in zip(ts[:-1], ts[1:]):
        sub = np.linspace(lo_t, hi_t, CONTINUITY_REFINEMENT + 1)
        jumps = [max(jump, float(np.abs(np.diff(grid, axis=1)).max()))
                 for jump, grid in zip(jumps, membership_grid(space, xs, ys, sub))]
    clauses = {}
    for side, (worst, witness), jump in zip(("mu", "nu"), best, jumps):
        clauses[f"{side}_triangle"] = ClauseResult(
            f"{side}_triangle", passed=worst <= tolerance, worst=max(worst, 0.0), witness=witness)
        clauses[f"{side}_time_continuity"] = ClauseResult(
            f"{side}_time_continuity", passed=jump <= CONTINUITY_BOUND, worst=jump,
            witness={"bound": CONTINUITY_BOUND, "refinement": CONTINUITY_REFINEMENT},
            note="finite-difference modulus on a refined t grid")
    return clauses


def audit_block(k):
    """Samples per block of an audit over ``k`` probe times."""
    return max(1, BLOCK_CELLS // max(k * k, 1 + CONTINUITY_REFINEMENT * (k - 1)))


def small_table(values):
    """Constant curves ``values[p] = (mu, nu)`` for the label pairs of a, b, c in
    order; few distinct values make many exact triangle ties."""
    labels = "abc"[:{0: 1, 1: 2, 3: 3}[len(values)]]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    return finite_tabulated(FiniteTabulated(list(labels), dict(zip(pairs, values))), min_max())


def audit_space(kind, shape):
    """An induced space (``shape`` is its dimension) or a tabulated one
    (``shape`` is ``small_table``'s values, or None for ``FOUR_LABELS``)."""
    if kind in BASE_METRICS:
        return induced_from_metric(CoordinateSpace(shape, kind), min_max())
    return FOUR_LABELS if shape is None else small_table(shape)


CURVE_VALUES = st.tuples(st.sampled_from([0.4, 0.6, 1.0]), st.sampled_from([0.0, 0.3, 0.5]))


@st.composite
def audit_cases(draw):
    kind = draw(st.sampled_from([*BASE_METRICS, "tabulated"]))
    if kind == "tabulated":
        shape = draw(st.none() | st.sampled_from([0, 1, 3]).flatmap(
            lambda n: st.lists(CURVE_VALUES, min_size=n, max_size=n).map(tuple)))
    else:
        shape = draw(st.integers(1, 3))
    ts = sorted(set(draw(st.lists(positive_t, min_size=1, max_size=12))))
    samples = draw(st.integers(1, 4 * audit_block(len(ts))))
    return kind, shape, tuple(ts), samples, draw(st.integers(0, 2**16))


B10 = audit_block(len(DEFAULT_PROBE_TS))


@settings(max_examples=60, deadline=None)
@given(case=audit_cases())
@example(case=("euclidean", 2, DEFAULT_PROBE_TS, B10, 0))
@example(case=("tabulated", ((0.4, 0.3), (0.4, 0.3), (0.6, 0.0)), DEFAULT_PROBE_TS, B10 + 1, 1))
@example(case=("tabulated", None, DEFAULT_PROBE_TS, 2 * B10 + 1, 2))
@example(case=("chebyshev", 3, (0.5, 2.0, 8.0), 2 * audit_block(3) + 1, 3))
def test_blocked_audit_matches_the_per_shift_reference(case):
    kind, shape, ts, samples, seed = case
    space = audit_space(kind, shape)
    report = axiom_audit(space, samples, t_samples=ts, seed=seed)
    reference = reference_triangle_and_continuity(space, samples, ts, seed)
    for name, clause in reference.items():
        assert repr(report.clause(name)) == repr(clause)


@pytest.mark.parametrize("planted", [np.nan, 0.25])
def test_triangle_witness_is_the_first_worst_across_blocks(line, planted):
    # nearness 0.5 everywhere but at two sampled (x, z) pairs, where it is
    # ``planted`` at one sum s + t: the pair at the smaller (s, t) wins,
    # though its sample lies in a later block.  A NaN also beats a real
    # violation of 0.5 before both in (s, t, sample) order.
    ts = (1.0, 3.0, 8.0, 20.0)  # no sum s + t is a probe time
    count = 3 * audit_block(len(ts))
    rng = np.random.default_rng(0)
    xs, _, zs = (line.domain.draw(rng, count, (-5.0, 5.0)) for _ in range(3))
    early, late = count - 1, 0
    plants = [(early, 1.0 + 8.0, planted), (late, 3.0 + 20.0, planted)]
    if math.isnan(planted):
        plants.append((5, 1.0 + 1.0, 0.0))

    def membership(x, y, t):
        mu = np.full(np.broadcast_shapes(x.shape[:-1], np.shape(t)), 0.5)
        for m, at, value in plants:
            mu = np.where((x[..., 0] == xs[m, 0]) & (y[..., 0] == zs[m, 0]) & (t == at), value, mu)
        return mu, 1.0 - mu

    space = IfmSpace(domain=line.domain, operators=line.operators, membership=membership)
    report = axiom_audit(space, count, t_samples=ts, seed=0)
    for side in ("mu", "nu"):
        clause = report.clause(f"{side}_triangle")
        assert not clause.passed
        assert repr(clause.worst) == repr(clause.witness["violation"]) == repr(0.5 - planted)
        assert (clause.witness["x"], clause.witness["z"]) == ([xs[early, 0]], [zs[early, 0]])
        assert (clause.witness["s"], clause.witness["t"]) == (1.0, 8.0)


def _triangle_rank(witness: dict) -> tuple:
    """Order of triangle witnesses: NaN above any value, then by value, then by smaller (s, t)."""
    v = witness["violation"]
    return math.isnan(v), 0.0 if math.isnan(v) else v, -witness["s"], -witness["t"]


def reference_triangle_worst(best, viol, xs, ys, zs, lo, ts):
    """``_triangle_worst`` as it was, building the witness of every block."""
    by_shift = viol.transpose(1, 2, 0)
    i, j, m = np.unravel_index(int(np.argmax(by_shift)), by_shift.shape)
    witness = {**{name: point_jsonable(points[lo + m]) for name, points in zip("xyz", (xs, ys, zs))},
               "s": float(ts[i]), "t": float(ts[j]), "violation": float(viol[m, i, j])}
    return witness if best is None or _triangle_rank(witness) > _triangle_rank(best) else best


def reference_blocked_clauses(space, sample_count, ts, seed, tolerance=1e-9):
    """The triangle and time-continuity clauses as the sample-block loop of
    the audit computed them before it skipped the witness of a block that
    cannot win and reduced the continuity jumps in place."""
    ts = probe_grid(ts)
    sums = triangle_shifts(ts)
    rng = np.random.default_rng(seed)
    xs, ys, zs = (space.domain.draw(rng, sample_count, (-5.0, 5.0)) for _ in range(3))
    mu_xy, nu_xy = membership_grid(space, xs, ys, ts)
    k = ts.size
    fine = np.concatenate([ts[:1], *(np.linspace(lo_t, hi_t, CONTINUITY_REFINEMENT + 1)[1:]
                                     for lo_t, hi_t in zip(ts[:-1], ts[1:]))])
    block = max(1, BLOCK_CELLS // max(sums.size, fine.size))
    mu_yz, nu_yz = membership_grid(space, ys, zs, ts)
    tnorm, tconorm = space.operators.tnorm, space.operators.tconorm
    triangles = [None, None]
    steps = [np.zeros(k - 1), np.zeros(k - 1)]
    for lo in range(0, sample_count, block):
        rows = slice(lo, lo + block)
        mu_xz, nu_xz = (g.reshape(-1, k, k) for g in membership_grid(space, xs[rows], zs[rows], sums))
        viols = (np.asarray(tnorm(mu_xy[rows, :, None], mu_yz[rows, None]), dtype=float) - mu_xz,
                 nu_xz - np.asarray(tconorm(nu_xy[rows, :, None], nu_yz[rows, None]), dtype=float))
        triangles = [reference_triangle_worst(best, viol, xs, ys, zs, lo, ts)
                     for best, viol in zip(triangles, viols)]
        steps = [np.maximum(step, np.abs(np.diff(grid, axis=1))
                            .reshape(len(grid), k - 1, CONTINUITY_REFINEMENT).max(axis=(0, 2)))
                 for step, grid in zip(steps, membership_grid(space, xs[rows], ys[rows], fine))]
    clauses = {}
    for side, triangle, step in zip(("mu", "nu"), triangles, steps):
        # a NaN jump ranks above any value (Python's max dropped it before)
        worst, jump = triangle["violation"], float(np.max(step, initial=0.0))
        clauses[f"{side}_triangle"] = ClauseResult(
            f"{side}_triangle", passed=worst <= tolerance, worst=max(worst, 0.0), witness=triangle)
        clauses[f"{side}_time_continuity"] = ClauseResult(
            f"{side}_time_continuity", passed=jump <= CONTINUITY_BOUND, worst=jump,
            witness={"bound": CONTINUITY_BOUND, "refinement": CONTINUITY_REFINEMENT},
            note="finite-difference modulus on a refined t grid")
    return clauses


def planted_space(levels, plants, bands, planted_ops):
    """A line space whose ``mu = t/(t + |x - y|)`` is rounded to ``levels``
    steps, so triangle violations tie often, with ``nu = 1 - mu``.  Each
    plant ``(side, value)`` sets ``value`` (NaN, an infinity or a number) on
    the cells whose hash of ``(x, y, t)`` falls in its own band of
    ``bands``; rare plants spread equal worst values over blocks.  With
    ``planted_ops``, both operators return NaN, +inf and -inf on three bands
    of a hash of their arguments.  Every value depends on its cell alone, so
    the blocks of an audit cannot change it."""
    def membership(x, y, t):
        t = np.asarray(t, dtype=float)
        mu = np.round(t / (t + np.abs(x[..., 0] - y[..., 0])) * levels) / levels
        sides = {"mu": mu, "nu": 1.0 - mu}
        band = np.floor(((x[..., 0] * 12.9898 + y[..., 0] * 78.233 + t * 37.719) % 1.0) * bands)
        for p, (side, value) in enumerate(plants):
            sides[side] = np.where(band == p, value, sides[side])
        return sides["mu"], sides["nu"]

    def planted(op):
        def apply(a, b):
            out = np.asarray(op(a, b), dtype=float)
            band = np.floor(((a * 45.164 + b * 94.673) % 1.0) * 32)
            return np.where(band == 0, np.nan, np.where(band == 1, np.inf, np.where(band == 2, -np.inf, out)))
        return apply

    ops = OperatorPair("planted", planted(np.minimum), planted(np.maximum)) if planted_ops else min_max()
    return IfmSpace(domain=CoordinateSpace(1), operators=ops, membership=membership)


PLANTED_VALUE = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 0.5, 1.0, 2.0])


@st.composite
def planted_cases(draw):
    levels = draw(st.sampled_from([1, 2, 4, 1000]))
    plants = draw(st.lists(st.tuples(st.sampled_from(["mu", "nu"]), PLANTED_VALUE), max_size=4))
    bands = draw(st.sampled_from([16, 2**9, 2**11, 2**14]))
    ts = sorted(set(draw(st.lists(positive_t, min_size=2, max_size=8))))
    samples = draw(st.integers(1, 3 * audit_block(len(ts)) + 1))
    return levels, tuple(plants), bands, draw(st.booleans()), tuple(ts), samples, draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(case=planted_cases())
# a part-full last block, with ties in every block
@example(case=(2, (), 16, False, (1.0, 3.0, 8.0, 20.0), 2 * audit_block(4) + 7, 0))
# NaN and both infinities in the kernel and in the operators
@example(case=(4, (("mu", np.nan), ("nu", np.inf), ("mu", -np.inf)), 16, True, DEFAULT_PROBE_TS, B10 + 1, 1))
@example(case=(1000, (("nu", np.nan), ("mu", np.inf)), 2**14, False, (0.5, 2.0, 8.0), 3 * audit_block(3), 2))
# an equal worst value, +inf or NaN, in a later block at a smaller (s, t)
@example(case=(1000, (("mu", -np.inf),), 2**9, False, (1.0, 3.0, 8.0, 20.0), 3 * audit_block(4) + 5, 4))
@example(case=(1000, (("nu", np.nan),), 2**11, False, (1.0, 3.0, 8.0, 20.0), 3 * audit_block(4) + 5, 4))
def test_trimmed_audit_matches_the_blocked_reference(case):
    levels, plants, bands, planted_ops, ts, samples, seed = case
    space = planted_space(levels, plants, bands, planted_ops)
    with np.errstate(all="ignore"):
        report = axiom_audit(space, samples, t_samples=ts, seed=seed)
        reference = reference_blocked_clauses(space, samples, ts, seed)
    for name, clause in reference.items():
        assert repr(report.clause(name)) == repr(clause)


def reference_grid_witness(xs, ys, values, ts, extra=None):
    """Witness for the worst entry of a (pairs x times) violation array."""
    flat = int(np.argmax(values))
    i, j = np.unravel_index(flat, values.shape)
    wit = {
        "x": point_jsonable(xs[i]),
        "y": point_jsonable(ys[i]),
        "t": float(ts[j]),
        "violation": float(values[i, j]),
    }
    if extra:
        wit.update(extra)
    return wit


def reference_max_clause(name, viol, xs, ys, ts, tolerance):
    worst = float(viol.max(initial=-np.inf))
    return ClauseResult(name, passed=worst <= tolerance, worst=max(worst, 0.0),
                        witness=reference_grid_witness(xs, ys, viol, ts) if viol.size else None)


REFERENCE_SIDE_RULES = {
    "mu": ("mu_positive", operator.gt, 1.0, "max", operator.lt),
    "nu": ("nu_nonnegative", operator.ge, 0.0, "min", operator.gt),
}


def reference_side_clauses(side, xy, yx, xx, distinct, triangle, jump, xs, ys, ts, tolerance):
    floor_name, floor_ok, coincident, nearest, apart = REFERENCE_SIDE_RULES[side]
    low = float(xy.min())
    diag = np.abs(xx - coincident)
    worst_diag = float(diag.max())
    if np.any(distinct):
        extreme = float(getattr(xy[distinct], nearest)())
        distinct_ok, note = apart(extreme, coincident), ""
    else:
        extreme, distinct_ok, note = float("nan"), True, "no distinct pairs sampled"
    worst_tri = triangle["violation"]
    return [
        ClauseResult(floor_name, passed=floor_ok(low, 0.0), worst=0.0 if -low <= 0.0 else -low,
                     witness=reference_grid_witness(xs, ys, -xy, ts, {f"min_{side}": low})),
        ClauseResult(f"{side}_identity", passed=(worst_diag <= tolerance) and distinct_ok,
                     worst=worst_diag, note=note,
                     witness=reference_grid_witness(xs, xs, diag, ts,
                                                    {f"{nearest}_{side}_distinct": extreme})),
        reference_max_clause(f"{side}_symmetry", np.abs(xy - yx), xs, ys, ts, tolerance),
        ClauseResult(f"{side}_triangle", passed=worst_tri <= tolerance, worst=max(worst_tri, 0.0),
                     witness=triangle),
        ClauseResult(f"{side}_time_continuity", passed=jump <= CONTINUITY_BOUND, worst=jump,
                     witness={"bound": CONTINUITY_BOUND, "refinement": CONTINUITY_REFINEMENT},
                     note="finite-difference modulus on a refined t grid"),
    ]


def reference_whole_grid_audit(space, sample_count, t_samples=None, tolerance=1e-9, seed=0):
    """The audit as it was before every clause ran in sample blocks: the
    sampled pairs, their swaps, the coincident pairs and the (y, z) pairs
    each as one whole-sample grid, and one argmax per clause over a whole
    (samples x times) violation grid."""
    ts = probe_grid(t_samples)
    sums = triangle_shifts(ts)
    rng = np.random.default_rng(seed)
    box = (-DEFAULT_AUDIT_BOX_HALFWIDTH, DEFAULT_AUDIT_BOX_HALFWIDTH)
    xs, ys, zs = (space.domain.draw(rng, sample_count, box) for _ in range(3))

    xy = mu_xy, nu_xy = membership_grid(space, xs, ys, ts)
    yx = membership_grid(space, ys, xs, ts)
    xx = membership_grid(space, xs, xs, ts)

    k = ts.size
    fine = np.concatenate([ts[:1], *(np.linspace(lo_t, hi_t, CONTINUITY_REFINEMENT + 1)[1:]
                                     for lo_t, hi_t in zip(ts[:-1], ts[1:]))])
    block = max(1, BLOCK_CELLS // max(sums.size, fine.size))
    mu_yz, nu_yz = membership_grid(space, ys, zs, ts)
    tnorm, tconorm = space.operators.tnorm, space.operators.tconorm
    triangles = [None, None]
    steps = [np.zeros(k - 1), np.zeros(k - 1)]
    for lo in range(0, sample_count, block):
        rows = slice(lo, lo + block)
        mu_xz, nu_xz = (g.reshape(-1, k, k) for g in membership_grid(space, xs[rows], zs[rows], sums))
        viols = (np.asarray(tnorm(mu_xy[rows, :, None], mu_yz[rows, None]), dtype=float) - mu_xz,
                 nu_xz - np.asarray(tconorm(nu_xy[rows, :, None], nu_yz[rows, None]), dtype=float))
        triangles = [reference_triangle_worst(best, viol, xs, ys, zs, lo, ts)
                     for best, viol in zip(triangles, viols)]
        for step, grid in zip(steps, membership_grid(space, xs[rows], ys[rows], fine)):
            jump = np.subtract(grid[:, 1:], grid[:, :-1])
            np.maximum(step, np.abs(jump, out=jump).max(axis=0)
                       .reshape(k - 1, CONTINUITY_REFINEMENT).max(axis=1), out=step)
    # a NaN jump ranks above any value (Python's max dropped it before)
    jumps = [float(np.max(step, initial=0.0)) for step in steps]

    distinct = space.domain.distinct(xs, ys)
    clauses = [reference_max_clause("bounded_sum", mu_xy + nu_xy - 1.0, xs, ys, ts, tolerance)]
    for side, *grids, triangle, jump in zip(("mu", "nu"), xy, yx, xx, triangles, jumps):
        clauses += reference_side_clauses(side, *grids, distinct, triangle, jump, xs, ys, ts, tolerance)

    wit_t, wit_s = witnesses = idempotency_witness(space.operators)
    idempotent = all(idempotent_within(witnesses, max(tolerance, 1e-12)))
    clauses.append(ClauseResult("idempotent_operators", passed=idempotent, worst=0.0 if idempotent else 1.0,
                                witness={"tnorm": wit_t, "tconorm": wit_s, "pair": space.operators.name}))

    mono_mu = mu_xy[:, :-1] - mu_xy[:, 1:]
    mono_nu = nu_xy[:, 1:] - nu_xy[:, :-1]
    clauses.append(reference_max_clause("mu_nondecreasing_t", mono_mu, xs, ys, ts[:-1], tolerance))
    clauses.append(reference_max_clause("nu_nonincreasing_t", mono_nu, xs, ys, ts[:-1], tolerance))
    return AuditReport(subject=space.description or "space", clauses=clauses)


def assert_same_audit(report, reference):
    assert report.subject == reference.subject
    assert [repr(c) for c in report.clauses] == [repr(c) for c in reference.clauses]


@settings(max_examples=80, deadline=None)
@given(case=planted_cases())
# one probe time: both monotonicity grids are empty
@example(case=(1000, (), 16, False, (1.0,), 1, 0))
@example(case=(4, (("nu", np.nan),), 16, False, (2.0,), 2 * audit_block(1) + 3, 1))
# fewer samples than one block, and a part-full last block
@example(case=(1000, (("mu", 0.0),), 16, False, DEFAULT_PROBE_TS, 5, 2))
@example(case=(2, (), 16, False, (1.0, 3.0, 8.0, 20.0), 2 * audit_block(4) + 7, 0))
# NaN and both infinities in the kernel and in the operators
@example(case=(4, (("mu", np.nan), ("nu", np.inf), ("mu", -np.inf)), 16, True, DEFAULT_PROBE_TS, B10 + 1, 1))
# equal worst values in every block, and rare NaN or infinite plants that
# first show up in a later block
@example(case=(1, (), 16, False, (0.5, 2.0, 8.0), 3 * audit_block(3), 3))
@example(case=(1000, (("nu", np.nan), ("mu", np.inf)), 2**14, False, (0.5, 2.0, 8.0), 3 * audit_block(3), 2))
@example(case=(1000, (("mu", -np.inf),), 2**9, False, (1.0, 3.0, 8.0, 20.0), 3 * audit_block(4) + 5, 4))
def test_streamed_audit_matches_the_whole_grid_reference(case):
    levels, plants, bands, planted_ops, ts, samples, seed = case
    space = planted_space(levels, plants, bands, planted_ops)
    with np.errstate(all="ignore"):
        report = axiom_audit(space, samples, t_samples=ts, seed=seed)
        reference = reference_whole_grid_audit(space, samples, ts, seed=seed)
    assert_same_audit(report, reference)


@settings(max_examples=40, deadline=None)
@given(case=audit_cases(), tolerance=st.sampled_from([0.0, 1e-9, 0.5]))
@example(case=("euclidean", 1, (1.0,), 1, 0), tolerance=1e-9)
@example(case=("tabulated", (), DEFAULT_PROBE_TS, B10 + 1, 1), tolerance=1e-9)
@example(case=("tabulated", None, (0.5, 2.0), 2 * audit_block(2) + 1, 2), tolerance=0.0)
# two labels, and the one pair of the last block is coincident
@example(case=("tabulated", ((0.6, 0.3),), DEFAULT_PROBE_TS, B10 + 1, 0), tolerance=1e-9)
def test_streamed_audit_of_real_spaces_matches_the_whole_grid_reference(case, tolerance):
    kind, shape, ts, samples, seed = case
    space = audit_space(kind, shape)
    report = axiom_audit(space, samples, t_samples=ts, tolerance=tolerance, seed=seed)
    assert_same_audit(report, reference_whole_grid_audit(space, samples, ts, tolerance, seed))


@pytest.mark.parametrize("early, late", [(0.25, 0.25), (0.25, np.nan), (np.nan, np.nan)])
def test_grid_witness_is_the_first_worst_across_blocks(line, early, late):
    # bounded-sum violation 0 everywhere but at one sampled pair of the
    # second block (``early``) and one of the third (``late``): an equal
    # value later does not replace the first, a NaN does replace a number
    ts = (1.0, 3.0, 8.0, 20.0)
    block = audit_block(len(ts))
    count = 3 * block
    rng = np.random.default_rng(0)
    xs, ys = (line.domain.draw(rng, count, (-5.0, 5.0)) for _ in range(2))
    plants = [(block + 3, 8.0, early), (2 * block + 1, 3.0, late)]

    def membership(x, y, t):
        nu = np.full(np.broadcast_shapes(x.shape[:-1], np.shape(t)), 0.5)
        for m, at, value in plants:
            nu = np.where((x[..., 0] == xs[m, 0]) & (y[..., 0] == ys[m, 0]) & (t == at), 0.5 + value, nu)
        return np.full_like(nu, 0.5), nu

    space = IfmSpace(domain=line.domain, operators=line.operators, membership=membership)
    clause = axiom_audit(space, count, t_samples=ts, seed=0).clause("bounded_sum")
    m, at, value = plants[1] if math.isnan(late) and not math.isnan(early) else plants[0]
    assert not clause.passed
    assert repr(clause.worst) == repr(clause.witness["violation"]) == repr(value)
    assert (clause.witness["x"], clause.witness["y"], clause.witness["t"]) == ([xs[m, 0]], [ys[m, 0]], at)


def test_bulk_audit_kernel_work_is_pinned(monkeypatch):
    # kernel calls and evaluated cells, counted as the bench tracer counts
    # them, of a 20,000-sample induced audit and a 16-label tabulated one:
    # 3 calls per block of 225 samples, on 40 + 100 + 145 cells a sample
    # (the four probe-time grids in one call, the sums s + t and the refined
    # continuity grid); an audit that checks fewer cells fails here
    work = []
    kernel = IfmSpace.mu_nu

    def counted(space, x, y, t):
        result = kernel(space, x, y, t)
        work.append(int(np.size(result[0])))
        return result

    monkeypatch.setattr(IfmSpace, "mu_nu", counted)
    axiom_audit(induced_from_metric(CoordinateSpace(3), min_max()), 20_000, seed=1)
    assert (len(work), sum(work)) == (267, 5_700_000)
    labels = [f"p{i:02d}" for i in range(16)]
    pairs = {(a, b): (0.6, 0.3) for i, a in enumerate(labels) for b in labels[i + 1:]}
    work.clear()
    axiom_audit(finite_tabulated(FiniteTabulated(labels, pairs), min_max()), 1000, seed=1)
    assert (len(work), sum(work)) == (15, 285_000)


def test_overflowing_time_shifts_are_rejected(line):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            axiom_audit(line, 10, t_samples=[1.0, 1e308, 1.7e308])
        report = axiom_audit(line, 10, t_samples=[1.0, 8e307])
    assert report.clause("mu_triangle").passed and report.clause("nu_triangle").passed


def test_nan_continuity_jump_fails_the_audit(line):
    # NaN strictly between the probe times 0.1 and 0.2, where only the
    # refined continuity grid looks (at 0.1125 and 0.11875); the jumps were
    # reduced with Python's max, which never picks a NaN, so both continuity
    # clauses passed with worst 0.01515
    def membership(x, y, t):
        mu, nu = line.membership(x, y, t)
        hole = (t > 0.11) & (t < 0.12)
        return np.where(hole, np.nan, mu), np.where(hole, np.nan, nu)

    space = IfmSpace(domain=line.domain, operators=line.operators, membership=membership)
    with np.errstate(invalid="ignore"):
        report = axiom_audit(space, 200, seed=1)
    for side in ("mu", "nu"):
        clause = report.clause(f"{side}_time_continuity")
        assert not clause.passed and math.isnan(clause.worst)
    assert [c.clause for c in report.clauses if not c.passed] == ["mu_time_continuity", "nu_time_continuity"]


def test_axiom_audit_memory_stays_bounded():
    # the whole-sample grids of the triangle and continuity loops peaked at
    # 30.5 MiB, and the whole-sample grids of the other clauses at 19.0 MiB
    space = induced_from_metric(CoordinateSpace(3), min_max())
    tracemalloc.start()
    try:
        axiom_audit(space, 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# ---------------------------------------------------------------------------
# the domain point reader against the rules it replaced


def reference_as_point(domain, p):
    """``as_point`` as it was: a known string, or a finite ``(dim,)`` point
    (a bare number on a line); a TypeError from numpy counts as a rejection."""
    if isinstance(domain, FiniteTabulated):
        if not isinstance(p, str) or p not in domain.index:
            raise ValueError(f"unknown label {p!r}")
        return p
    try:
        arr = np.atleast_1d(np.asarray(p, dtype=float))
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    if arr.shape != (domain.dimension,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"not a point: {p!r}")
    return arr


def reference_read(domain, points):
    """A point sequence as the config loader's whole-sequence check accepted
    it, with each point then read by the old ``as_point``."""
    if isinstance(domain, FiniteTabulated):
        if not all(isinstance(p, str) and p in domain.index for p in points):
            raise ValueError(f"expected labels among {domain.labels}")
        return np.asarray([reference_as_point(domain, p) for p in points], dtype=object)
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected coordinate points: {exc}") from exc
    if arr.ndim == 1 and domain.dimension == 1:  # scalars on a line, as as_point reads them
        arr = arr[:, None]
    if arr.shape != (len(points), domain.dimension) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite points of dimension {domain.dimension}")
    rows = [reference_as_point(domain, p) for p in points]
    return np.asarray(rows, dtype=float).reshape(len(points), domain.dimension)


def outcome(read, *args):
    """What ``read`` gives: ("ok", dtype, shape, values) or ("rejected",)."""
    try:
        got = read(*args)
    except ValueError:
        return ("rejected",)
    got = np.asarray(got)
    values = got.tobytes() if got.dtype == float else got.tolist()
    return "ok", got.dtype, got.shape, values


number = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**6, 10**6) | st.booleans()
coordinate_point = (number | st.none() | st.sampled_from(["1.5", "a", "nan"])
                    | st.lists(number, max_size=4)
                    | st.lists(st.lists(number, max_size=2), min_size=1, max_size=2)
                    | st.dictionaries(st.text(max_size=1), number, max_size=1))
label_point = (st.sampled_from(["a", "b", "c", "d", "z", "", "a,b"]) | st.integers(-2, 2) | st.none()
               | st.floats() | st.lists(st.sampled_from(["a", "b"]), max_size=2))


@st.composite
def domains_and_points(draw):
    if draw(st.booleans()):
        domain, point = FOUR_LABELS.domain, label_point
    else:
        domain, point = CoordinateSpace(draw(st.integers(1, 3))), coordinate_point
    # mostly well-formed sequences, so that acceptance is exercised too
    good = st.lists(st.sampled_from(domain.labels), max_size=5) if domain is FOUR_LABELS.domain else \
        st.lists(st.lists(st.floats(-9.0, 9.0), min_size=domain.dimension, max_size=domain.dimension)
                 | (st.floats(-9.0, 9.0) if domain.dimension == 1 else st.nothing()), max_size=5)
    return domain, draw(good | st.lists(point, max_size=5))


@settings(max_examples=400, deadline=None)
@given(case=domains_and_points())
@example(case=(CoordinateSpace(1), [0.0, [1.0], 2.0]))  # mixed forms on a line: rejected by both
@example(case=(CoordinateSpace(1), [0.0, 1.0, 1.5]))
@example(case=(CoordinateSpace(2), []))
@example(case=(CoordinateSpace(1), []))
@example(case=(CoordinateSpace(2), [[1.0, float("inf")]]))
def test_domain_reader_matches_the_old_point_rules(case):
    domain, points = case
    assert outcome(domain.read, points) == outcome(reference_read, domain, points)
    for p in points:
        assert outcome(domain.as_point, p) == outcome(reference_as_point, domain, p)


@pytest.mark.parametrize("domain, points, message", [
    (CoordinateSpace(2), [[0.0, 1.0], [2.0, float("nan")]], r"point 1 coordinates must be finite"),
    (CoordinateSpace(1), [0.0, float("inf")], r"point 1 coordinates must be finite, got \[inf\]"),
    (FOUR_LABELS.domain, ["a", "z", 3], "unknown label 'z'"),
    (FOUR_LABELS.domain, ["a", 3], "unknown label 3"),
])
def test_domain_reader_names_the_first_bad_point(domain, points, message):
    with pytest.raises(ValueError, match=message):
        domain.read(points)


def test_tabulated_labels_must_be_strings():
    with pytest.raises(ValueError, match="labels must be strings"):
        FiniteTabulated([1, 2], {(1, 2): (0.4, 0.5)})


# ---------------------------------------------------------------------------
# the one-point fast paths against the bodies they shortcut


def reference_floats(domain, values, rank, count=None, image=False):
    """``CoordinateSpace._floats`` as it was before checked float points were taken as they are."""
    def misfit(message):
        return DomainEscapeError(message, point=values) if image else ValueError(message)

    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise misfit(f"expected coordinates: {exc}") from None
    if domain.dimension == 1 and arr.ndim == rank - 1:
        arr = arr[..., None]
    shape = (*(() if rank == 1 else arr.shape[:1] if count is None else (count,)), domain.dimension)
    if arr.shape != shape:
        raise misfit(f"expected {'image' if image else 'point'} shape {shape}, got {arr.shape}")
    finite = np.isfinite(arr).all(axis=-1)
    if not finite.all():
        i = None if rank == 1 else int(np.argmin(finite))
        row, at = (arr, "") if i is None else (arr[i], f" {i}")
        if image:
            raise NonFiniteImageError(f"image{at} {row.tolist()} left the coordinate domain",
                                      point=row, index=i)
        raise ValueError(f"point{at} coordinates must be finite, got {row.tolist()}")
    return arr


def reference_points_equal(a, b):
    """``points_equal`` as it was, through ``np.array_equal``."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return bool(np.array_equal(np.asarray(a, float), np.asarray(b, float)))


def exact_outcome(fn, value):
    """What ``fn(value)`` gives: the error class and message, or the result's
    type, dtype, shape, bytes and whether it is ``value`` itself."""
    try:
        got = fn(value)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "ok", type(got), got.dtype, got.shape, got.tobytes(), got is value


class TaggedArray(np.ndarray):
    pass


TAGGED_FLOAT = np.dtype(np.float64, metadata={"tag": 1})


any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def coordinate_inputs(draw):
    """A dimension and a value to read as one of its points, mostly near the fast path's edges."""
    dim = draw(st.integers(1, 3))
    size = st.integers(0, 4) if draw(st.booleans()) else st.just(dim)
    kind = draw(st.sampled_from(["float64", "float32", "int", "list", "0-d", "column", "subclass",
                                 "byteswapped", "metadata", "strided", "huge"]))
    n = draw(size)
    if kind == "float64":
        return dim, draw(hnp.arrays(np.float64, n, elements=any_float))
    if kind == "float32":
        return dim, draw(hnp.arrays(np.float32, n, elements=st.floats(width=32)))
    if kind == "int":
        return dim, draw(hnp.arrays(np.int64, n))
    if kind == "list":
        return dim, draw(st.lists(any_float | st.integers(-5, 5), min_size=n, max_size=n))
    if kind == "0-d":
        return dim, draw(st.sampled_from([np.asarray, np.float64, float]))(draw(any_float))
    if kind == "column":
        return dim, draw(hnp.arrays(np.float64, (n, 1), elements=any_float))
    if kind == "subclass":
        return dim, draw(hnp.arrays(np.float64, n, elements=any_float)).view(TaggedArray)
    if kind == "byteswapped":
        return dim, draw(hnp.arrays(np.float64, n, elements=any_float)).astype(">f8")
    if kind == "metadata":  # equal to float64, but np.asarray makes a copy
        return dim, draw(hnp.arrays(np.float64, n, elements=any_float)).astype(TAGGED_FLOAT)
    if kind == "strided":
        return dim, draw(hnp.arrays(np.float64, 2 * n, elements=any_float))[::2]
    return dim, [10**400] * n


@settings(max_examples=500, deadline=None)
@given(case=coordinate_inputs())
@example(case=(1, np.asarray(2.0)))
@example(case=(1, np.zeros((1, 1))))
@example(case=(2, np.asarray([1.0, np.nan])))
@example(case=(2, np.asarray([1.0, -np.inf]).view(TaggedArray)))
@example(case=(2, np.asarray([1.0, 2.0]).astype(TAGGED_FLOAT)))
def test_point_and_image_reads_match_the_reference_body(case):
    dim, value = case
    domain = CoordinateSpace(dim)
    assert exact_outcome(domain.as_point, value) == \
        exact_outcome(lambda v: reference_floats(domain, v, 1), value)
    assert exact_outcome(domain.image, value) == \
        exact_outcome(lambda v: reference_floats(domain, v, 1, image=True), value)


equality_operand = (st.sampled_from(["a", "b", "", 0.0, -0.0, math.nan, 1.0])
                    | hnp.arrays(np.float64, st.sampled_from([(), (1,), (2,), (1, 1), (2, 1)]),
                                 elements=st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, 5e-324]))
                    | hnp.arrays(np.int64, st.sampled_from([(1,), (2,)]), elements=st.integers(-1, 1))
                    | st.lists(st.sampled_from([0.0, -0.0, 1.0, math.nan]), max_size=2))


@settings(max_examples=500, deadline=None)
@given(a=equality_operand, b=equality_operand, same=st.booleans())
@example(a=np.asarray([0.0]), b=np.asarray([-0.0]), same=False)
@example(a=np.asarray([math.nan]), b=None, same=True)
@example(a=np.asarray([1.0, 2.0]), b=np.asarray([[1.0], [2.0]]), same=False)
@example(a="a", b=np.asarray([1.0]), same=False)
def test_points_equal_matches_array_equal(a, b, same):
    b = a if same else b
    got, want = points_equal(a, b), reference_points_equal(a, b)
    # a label against an array compares elementwise, in both
    assert (type(got), repr(got)) == (type(want), repr(want))


def reference_asymptotic(space, pairs, t_horizon, epsilon):
    """The large-horizon probe as it was: one evaluate call per pair."""
    t_horizon = time_parameter(t_horizon, "t_horizon")
    report = AsymptoticReport(t_horizon=t_horizon, epsilon=unit_scalar(epsilon, "epsilon"))
    for x, y in pairs:
        mu, nu = evaluate(space, x, y, t_horizon)
        report.entries.append({"x": point_jsonable(x), "y": point_jsonable(y), "mu": mu, "nu": nu,
                               "ok": bool(mu >= 1.0 - report.epsilon and nu <= report.epsilon)})
    return report


def reference_joint_continuity(space, xs, x_limit, ys, y_limit, t, tolerance, window=4):
    """The joint-continuity probe as it was: one evaluate call for the tail
    pair and one for the limit pair."""
    t = time_parameter(t)
    for seq, limit in ((xs, x_limit), (ys, y_limit)):
        if not sequence_diagnostics(space, seq, window=window, candidate_limit=limit).convergent:
            raise ValueError("not convergent")
    mu_tail, nu_tail = evaluate(space, xs[-1], ys[-1], t)
    mu_lim, nu_lim = evaluate(space, x_limit, y_limit, t)
    passed = abs(mu_tail - mu_lim) <= tolerance and abs(nu_tail - nu_lim) <= tolerance
    return JointContinuityReport(mu_tail, nu_tail, mu_lim, nu_lim, tolerance, passed)


def report_text(probe, *args):
    """A probe's report fields as deterministic JSON, or the text of its ValueError."""
    try:
        return json_text(vars(probe(*args)))
    except ValueError as exc:
        return "rejected", str(exc)


@st.composite
def probe_points(draw):
    """A space of either domain kind and a strategy for its points: in each
    form a point is read from, and now and then a malformed one."""
    kind = draw(st.sampled_from([*BASE_METRICS, "tabulated"]))
    if kind == "tabulated":
        return FOUR_LABELS, st.sampled_from(FOUR_LABELS.domain.labels), label_point
    dim = draw(st.integers(1, 3))
    floats = st.floats(-50.0, 50.0)
    point = st.lists(floats, min_size=dim, max_size=dim) | hnp.arrays(np.float64, dim, elements=floats)
    return (induced_from_metric(CoordinateSpace(dim, kind), min_max()),
            point | floats if dim == 1 else point, coordinate_point)


@settings(max_examples=200, deadline=None)
@given(case=probe_points(), data=st.data(), t_horizon=st.floats(1e-3, 1e9), epsilon=st.floats(0.0, 1.0))
def test_asymptotic_probe_matches_the_per_pair_reference(case, data, t_horizon, epsilon):
    space, good, bad = case
    point = good | bad if data.draw(st.booleans()) else good
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=6))
    assert report_text(asymptotic_nearness_probe, space, pairs, t_horizon, epsilon) == \
        report_text(reference_asymptotic, space, pairs, t_horizon, epsilon)


def test_asymptotic_probe_reads_mixed_point_forms_on_a_line(line):
    # a whole-side read rejects this list ("inhomogeneous shape"); each
    # point is read on its own, as evaluate reads it
    pairs = [(0.0, 1.0), (2.0, [2.0])]
    report = asymptotic_nearness_probe(line, pairs, 1e6, 1e-2)
    assert [(e["x"], e["y"]) for e in report.entries] == [([0.0], [1.0]), ([2.0], [2.0])]
    assert json_text(vars(report)) == json_text(vars(reference_asymptotic(line, pairs, 1e6, 1e-2)))


def test_asymptotic_probe_names_points_as_given(line):
    # a numeric string is read as a coordinate; the batched probe reported
    # the read point [1.5] where the per-pair probe kept "1.5"
    pairs = [([0.0], "1.5")]
    report = asymptotic_nearness_probe(line, pairs, 1.0, 0.0)
    assert [(e["x"], e["y"]) for e in report.entries] == [([0.0], "1.5")]
    assert json_text(vars(report)) == json_text(vars(reference_asymptotic(line, pairs, 1.0, 0.0)))


@pytest.mark.parametrize("name", ["line", "plane", "three_point_space", "four_labels"])
def test_an_empty_pair_batch_gives_empty_grids(name, request):
    # the tabulated kernel raised numpy's "need at least one array to stack"
    space = FOUR_LABELS if name == "four_labels" else request.getfixturevalue(name)
    for ts in ([1.0], [0.5, 2.0, 8.0]):
        mu, nu = membership_grid(space, [], [], ts)
        assert mu.shape == nu.shape == (0, len(ts))
    report = asymptotic_nearness_probe(space, [], 1e6, 1e-2)
    assert report.entries == [] and report.passed


@st.composite
def convergent_sequences(draw):
    """A space of either domain kind and two prefixes with their limits:
    labels that settle on their limit, or points that halve their distance
    to it."""
    kind = draw(st.sampled_from([*BASE_METRICS, "tabulated"]))
    if kind == "tabulated":
        label = st.sampled_from(FOUR_LABELS.domain.labels)
        limits = [draw(label), draw(label)]
        return FOUR_LABELS, [draw(st.lists(label, max_size=4)) + [lim] * 6 for lim in limits], limits
    dim = draw(st.integers(1, 3))
    vector = st.lists(st.floats(-50.0, 50.0), min_size=dim, max_size=dim).map(np.asarray)
    limits, offsets = [draw(vector), draw(vector)], [draw(vector) / 50.0, draw(vector) / 50.0]
    seqs = [[(lim + off * 2.0**-n).tolist() for n in range(30)] for lim, off in zip(limits, offsets)]
    return induced_from_metric(CoordinateSpace(dim, kind), min_max()), seqs, [lim.tolist() for lim in limits]


@settings(max_examples=100, deadline=None)
@given(case=convergent_sequences(), t=positive_t, tolerance=st.floats(0.0, 1.0))
def test_joint_continuity_probe_matches_the_two_call_reference(case, t, tolerance):
    space, (xs, ys), (x_limit, y_limit) = case
    args = (space, xs, x_limit, ys, y_limit, t, tolerance)
    assert report_text(joint_continuity_probe, *args) == report_text(reference_joint_continuity, *args)


# ---------------------------------------------------------------------------
# pair sampling on the domains against the sampler bodies it came from

REFERENCE_HALFWIDTH, REFERENCE_MIN_SEPARATION, REFERENCE_MAX_SEPARATION = 8.0, 1e-4, 0.5


def reference_sampling_box(space, halfwidth=REFERENCE_HALFWIDTH, center=None):
    """The sampling box as one function chose it by domain type."""
    if not isinstance(space.domain, CoordinateSpace):
        return None
    c = np.zeros(space.domain.dimension) if center is None else np.asarray(center, float)
    return c - halfwidth, c + halfwidth


def reference_coordinate_pairs(dimension, count, seed, box=None):
    """Coordinate pairs as one function of the dimension drew them."""
    if count < 1:
        raise ValueError("count must be at least 1")
    low, high = box if box is not None else (-REFERENCE_HALFWIDTH, REFERENCE_HALFWIDTH)
    low = np.broadcast_to(np.asarray(low, float), (dimension,))
    high = np.broadcast_to(np.asarray(high, float), (dimension,))
    width = float(np.max(high - low))
    if width <= 0:
        raise ValueError("sampling box must have positive width")
    rng = np.random.default_rng(seed)
    base = rng.uniform(low, high, (count, dimension))
    directions = rng.normal(size=(count, dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions /= norms
    log_lo = np.log(REFERENCE_MIN_SEPARATION * width)
    log_hi = np.log(REFERENCE_MAX_SEPARATION * width)
    separations = np.exp(rng.uniform(log_lo, log_hi, (count, 1)))
    return base, base + separations * directions


def reference_label_pairs(labels, count, seed):
    """Label pairs as they were drawn, before a count below 1 was refused."""
    if len(labels) < 2:
        raise ValueError("need at least two labels to sample distinct pairs")
    rng = np.random.default_rng(seed)
    arr = np.asarray(labels, dtype=object)
    xi = rng.integers(0, len(labels), count)
    offset = rng.integers(1, len(labels), count)
    yi = (xi + offset) % len(labels)
    return arr[xi], arr[yi]


def drawn(sampler, *args):
    """Each side's dtype and bytes (labels as a list), or the rejection.

    In the reference body a box narrower than about 1e-319 puts ``log(0)``
    into the separation range, which numpy's ``uniform`` rejects with an
    OverflowError; the sampler refuses such a box up front."""
    try:
        with np.errstate(divide="ignore"):
            sides = sampler(*args)
    except (ValueError, OverflowError) as exc:
        return "rejected", type(exc).__name__, str(exc)
    return [(side.dtype, side.tolist() if side.dtype == object else side.tobytes()) for side in sides]


def box_bytes(box):
    return None if box is None else [np.asarray(edge).tobytes() for edge in box]


seeds = st.integers(0, 2**64 - 1)
counts = st.integers(1, 50)


@st.composite
def coordinate_boxes(draw):
    """A dimension of 1-4, and a box with no width or more: none, scalar
    edges or per-axis edges; or the halfwidth and center (a point or the
    origin) of a domain box."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["none", "scalar", "per-axis", "centred", "origin"]))
    if kind == "none":
        return dim, None, None
    if kind == "scalar":
        low = draw(st.floats(-20.0, 20.0))
        return dim, (low, low + draw(st.floats(0.0, 40.0))), None
    if kind == "per-axis":
        low = np.asarray(draw(st.lists(st.floats(-20.0, 20.0), min_size=dim, max_size=dim)))
        return dim, (low, low + draw(st.lists(st.floats(0.0, 40.0), min_size=dim, max_size=dim))), None
    center = None if kind == "origin" else draw(st.lists(st.floats(-20.0, 20.0), min_size=dim, max_size=dim))
    return dim, None, (draw(st.floats(1e-3, 20.0)), center)


@settings(max_examples=300, deadline=None)
@given(case=coordinate_boxes(), count=counts, seed=seeds)
@example(case=(1, (0.0, 5e-324), None), count=1, seed=0)
def test_coordinate_pairs_match_the_reference_body(case, count, seed):
    dim, box, around = case
    if around is not None:
        box = CoordinateSpace(dim).box(*around)
        space = induced_from_metric(CoordinateSpace(dim), min_max())
        assert box_bytes(box) == box_bytes(reference_sampling_box(space, *around))
    expected = drawn(reference_coordinate_pairs, dim, count, seed, box)
    if expected[:2] == ("rejected", "OverflowError"):
        width = float(np.max(np.subtract(box[1], box[0])))
        expected = ("rejected", "ValueError",
                    f"sampling box must have a finite width that separates pairs, got {width!r}")
    assert drawn(CoordinateSpace(dim).pairs, count, seed, box) == expected


@settings(max_examples=200, deadline=None)
@given(size=st.integers(2, 6), count=counts, seed=seeds, halfwidth=st.floats(1e-3, 20.0))
def test_label_pairs_match_the_reference_body(size, count, seed, halfwidth):
    labels = ["a", "b", "c", "d", "e", "f"][:size]
    domain = FiniteTabulated(labels, {(a, b): (0.4, 0.5) for i, a in enumerate(labels) for b in labels[i + 1:]})
    expected = drawn(reference_label_pairs, labels, count, seed)
    assert drawn(label_pairs, labels, count, seed) == expected
    assert drawn(domain.pairs, count, seed) == expected
    assert domain.box(halfwidth, labels[0]) is None
    assert reference_sampling_box(finite_tabulated(domain, min_max()), halfwidth, labels[0]) is None
