import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifmlab import (
    BallSpec,
    CoordinateSpace,
    Curve,
    FiniteTabulated,
    IfmSpace,
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
        xi = three_point_space.domain.as_indices(x)
        yi = three_point_space.domain.as_indices(y)
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
    with pytest.raises(ValueError, match="strictly increasing"):
        Curve.from_spec([[1.0, 0.2], [1.0, 0.3]])


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
    xs = space.batch(data.draw(st.lists(point, min_size=n, max_size=n)))
    ys = space.batch(data.draw(st.lists(point, min_size=n, max_size=n)))

    mu, nu = membership_grid(space, xs, ys, ts)
    ref_mu, ref_nu = reference_grid(space, xs, ys, ts)
    assert mu.shape == (n, len(ts))
    assert np.array_equal(mu, ref_mu) and np.array_equal(nu, ref_nu)

    # a single point pairs with every point of the other side
    mu, nu = membership_grid(space, xs[0], ys, ts)
    ref_mu, ref_nu = reference_grid(space, [xs[0]] * n, ys, ts)
    assert np.array_equal(mu, ref_mu) and np.array_equal(nu, ref_nu)
