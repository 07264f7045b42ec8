import numpy as np
import pytest

from ifmlab import (
    BallSpec,
    CoordinateSpace,
    DomainEscapeError,
    IfmSpace,
    SelfMap,
    closed_ball_hypotheses,
    contractive_sequence_check,
    direct_ratio_contractive_check,
    if_contractive_check,
    induced_from_metric,
    iterate_trace,
    min_max,
    self_map_from_spec,
    t_uniform_continuity_probe,
)
from ifmlab.contractions import NonFiniteImageError, apply_batch, apply_point
from ifmlab.sampling import sample_ball_pairs, sample_coordinate_pairs


def random_contraction(rng, dim=2, norm_low=0.1, norm_high=0.95):
    """Random affine map rescaled to a target spectral norm."""
    a = rng.normal(size=(dim, dim))
    target = rng.uniform(norm_low, norm_high)
    a *= target / np.linalg.norm(a, 2)
    return SelfMap.affine(a, rng.normal(size=dim)), target


def test_halving_map_contracts_with_half(line, half_plus_one):
    report = if_contractive_check(line, half_plus_one, 1000, seed=3)
    assert report.passed
    assert report.estimated_k == pytest.approx(0.5, abs=1e-8)


def test_identity_is_not_contractive(line):
    report = if_contractive_check(line, SelfMap.identity(), 500, seed=3)
    assert report.verdict == "fail"
    assert report.details["sup_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert report.estimated_k is None and report.worst_witness is not None


def test_axis_expander_fails_with_second_axis_witness(plane, swap_scale_map):
    report = if_contractive_check(plane, swap_scale_map, 1000, seed=3)
    assert report.verdict == "fail"
    wx = np.asarray(report.worst_witness["x"])
    wy = np.asarray(report.worst_witness["y"])
    delta = np.abs(wx - wy)
    assert delta[1] > delta[0]  # the expansion happens along the second coordinate


def test_power_of_expander_contracts(plane, swap_scale_map):
    report = if_contractive_check(plane, swap_scale_map.power(2), 1000, seed=3)
    assert report.passed
    assert report.estimated_k == pytest.approx(0.25, abs=1e-6)


def test_estimated_k_matches_distance_ratio_oracle(plane):
    rng = np.random.default_rng(17)
    for _ in range(5):
        map_, _ = random_contraction(rng)
        xs, ys = sample_coordinate_pairs(2, 2000, seed=int(rng.integers(1 << 30)))
        report = if_contractive_check(plane, map_, 0, pairs=(xs, ys))
        d_pre = plane.base_distance(xs, ys)
        d_post = plane.base_distance(map_(xs), map_(ys))
        oracle = float(np.max(d_post / d_pre))
        assert report.details["sup_ratio"] == pytest.approx(oracle, abs=1e-9)


def test_composition_constant_is_submultiplicative(plane):
    rng = np.random.default_rng(23)
    for _ in range(4):
        map_, _ = random_contraction(rng)
        k1 = if_contractive_check(plane, map_, 4000, seed=7).estimated_k
        k2 = if_contractive_check(plane, map_.power(2), 4000, seed=7).estimated_k
        assert k2 <= k1**2 + 1e-6


def test_direct_ratio_vacuous_with_coincident_pairs(line, three_point_space, half_plus_one):
    for space, map_ in ((line, half_plus_one), (three_point_space, SelfMap.identity())):
        report = direct_ratio_contractive_check(space, map_, 100, include_coincident=True)
        assert report.verdict == "vacuous"
        assert not report.passed
        assert "k < 1 = mu(x,x,t)" in report.notes


def test_direct_ratio_constant_map_on_tabulated(three_point_space):
    const = SelfMap.table({"a": "c", "b": "c", "c": "c"})
    report = direct_ratio_contractive_check(three_point_space, const, 300, seed=5)
    assert report.passed
    assert report.estimated_k == pytest.approx(0.4, abs=1e-6)
    # nu side contributes ratio 0: images coincide, so non-nearness vanishes
    assert report.details["sup_nu_ratio"] == 0.0


def test_direct_ratio_fails_at_large_t_on_induced_line(line):
    halve = SelfMap.affine([[0.5]], [0.0])
    report = direct_ratio_contractive_check(line, halve, 1000, seed=5)
    assert report.verdict == "fail"
    assert report.worst_witness["t"] == 51.2  # largest probe time
    assert report.details["sup_ratio"] < 1.0  # pointwise below 1, sup still inadmissible
    assert "bounded away from 1" in report.notes


def test_t_uniform_continuity_contraction(line, half_plus_one):
    report = t_uniform_continuity_probe(line, half_plus_one, [0.1], 1000, seed=6)
    assert report.passed
    entry = report.details["table"][0]
    assert entry["r"] is not None and entry["qualifying_samples"] > 0
    # the found threshold certifies the implication on the samples
    assert 0.5 * entry["r"] / (1 - entry["r"]) <= 0.1 / 0.9 + 1e-12


def test_t_uniform_continuity_identity_returns_epsilon(line):
    report = t_uniform_continuity_probe(line, SelfMap.identity(), [0.1, 0.01], 2000, seed=6)
    assert report.passed
    for entry in report.details["table"]:
        assert entry["r"] == pytest.approx(entry["epsilon"])


def test_expanding_map_still_t_uniformly_continuous(line):
    doubler = SelfMap.affine([[2.0]], [0.0])
    assert if_contractive_check(line, doubler, 500, seed=6).verdict == "fail"
    report = t_uniform_continuity_probe(line, doubler, [0.1, 0.01], 2000, seed=6)
    assert report.passed  # continuity is weaker than contraction


def test_contractive_sequence_of_halving_iterates(line, half_plus_one):
    prefix = iterate_trace(line, half_plus_one, 0.0, 20)
    report = contractive_sequence_check(line, prefix, k=0.5)
    assert report.passed
    assert report.estimated_k == 0.5


def test_contractive_sequence_constant(line):
    report = contractive_sequence_check(line, [4.0, 4.0, 4.0, 4.0], k=0.3)
    assert report.passed
    assert "exactly fixed" in report.notes


def test_contractive_sequence_arithmetic_fails_first_triple(line):
    report = contractive_sequence_check(line, [0.0, 1.0, 2.0, 3.0], k=0.5, probe_ts=[1.0])
    assert report.verdict == "fail"
    assert report.worst_witness["n"] == 0
    assert report.worst_witness["lhs"] > report.worst_witness["bound"]


def test_contractive_sequence_validation(line):
    with pytest.raises(ValueError):
        contractive_sequence_check(line, [0.0, 1.0], k=0.5)
    with pytest.raises(ValueError):
        contractive_sequence_check(line, [0.0, 1.0, 2.0], k=1.0)


def test_closed_ball_hypotheses_pass_values(line):
    map_ = SelfMap.affine([[0.5]], [0.4])
    report = closed_ball_hypotheses(line, map_, 0.0, r=0.5, t=1.0, k=0.5)
    assert report.passed
    assert report.details["mu_lhs"] == pytest.approx(0.4, abs=1e-15)
    assert report.details["mu_rhs"] == 0.5
    assert report.details["nu_lhs"] == 2.5
    assert report.details["nu_rhs"] == 2.0


def test_closed_ball_hypotheses_degenerate_fixed_center(line):
    map_ = SelfMap.affine([[0.5]], [0.4])
    report = closed_ball_hypotheses(line, map_, 0.8, r=0.5, t=1.0, k=0.5)
    assert report.passed
    assert report.details["degenerate"]
    assert report.details["mu_lhs"] == 0.0 and report.details["nu_lhs"] == float("inf")


def test_closed_ball_hypotheses_fail_on_larger_offset(line):
    map_ = SelfMap.affine([[0.5]], [0.6])
    report = closed_ball_hypotheses(line, map_, 0.0, r=0.5, t=1.0, k=0.5)
    assert report.verdict == "fail"
    assert "mu side" in report.notes


def test_map_leaving_domain_is_an_error(line, three_point_space):
    blower = SelfMap(lambda x: np.asarray(x, float) + np.inf)
    with pytest.raises(DomainEscapeError):
        if_contractive_check(line, blower, 50, seed=1)
    partial = SelfMap.table({"a": "b"})
    with pytest.raises(DomainEscapeError):
        if_contractive_check(three_point_space, partial, 50, seed=1)
    wrong_dimension = SelfMap.constant([1.0, 2.0])
    with pytest.raises(DomainEscapeError, match="shape"):
        if_contractive_check(line, wrong_dimension, 50, seed=1)


@pytest.mark.parametrize("kind, map_, error", [
    ("line", SelfMap.constant([1.0, 2.0]), DomainEscapeError),
    ("line", SelfMap(lambda x: np.asarray(x, float)[..., :0]), DomainEscapeError),
    ("line", SelfMap(lambda x: "a"), DomainEscapeError),
    ("tabulated", SelfMap.table({"a": "z", "b": "z", "c": "z"}), DomainEscapeError),
    ("tabulated", SelfMap.table({"a": 1, "b": 1, "c": 1}), DomainEscapeError),
    ("tabulated", SelfMap.table({"a": ["a"], "b": ["a"], "c": ["a"]}), DomainEscapeError),
    ("line", SelfMap(lambda x: np.asarray(x, float) + np.inf), NonFiniteImageError),
])
def test_image_errors_keep_their_class(line, three_point_space, kind, map_, error):
    # a wrong shape or an unknown label is a DomainEscapeError, an overflow a
    # NonFiniteImageError, for one point and for a batch alike.  Before one
    # image check served both, a batch overflow was a plain DomainEscapeError,
    # a text image of a coordinate point numpy's ValueError, and a list image
    # of a label a TypeError.
    space, point = (line, [0.5]) if kind == "line" else (three_point_space, "a")
    for apply, points in ((apply_point, point), (apply_batch, [point, point])):
        with pytest.raises(DomainEscapeError) as raised:
            apply(space, map_, points)
        assert type(raised.value) is error


def test_image_checks_return_the_images(line, three_point_space, half_plus_one):
    assert np.array_equal(apply_point(line, half_plus_one, 2.0), [2.0])
    assert np.array_equal(apply_batch(line, half_plus_one, [[0.0], [2.0]]), [[1.0], [2.0]])
    swap = SelfMap.table({"a": "b", "b": "a", "c": "c"})
    assert apply_point(three_point_space, swap, "a") == "b"
    assert apply_batch(three_point_space, swap, ["a", "c"]).tolist() == ["b", "c"]


def test_affine_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        SelfMap.affine([[float("nan")]], [0.0])
    with pytest.raises(ValueError, match="finite"):
        SelfMap.affine([[0.5]], [float("inf")])


def test_self_map_spec_round_trip(plane, swap_scale_map):
    rebuilt = self_map_from_spec(swap_scale_map.spec)
    pt = np.asarray([3.0, -2.0])
    assert np.array_equal(rebuilt(pt), swap_scale_map(pt))
    powered = self_map_from_spec(swap_scale_map.power(2).spec)
    assert np.allclose(powered(pt), pt / 4.0)
    with pytest.raises(ValueError):
        self_map_from_spec({"mystery": {}})


def test_builtin_map_kind():
    identity = self_map_from_spec({"builtin": "identity"})
    assert identity.spec == {"builtin": "identity"}
    assert np.array_equal(identity(np.asarray([3.0, -2.0])), [3.0, -2.0])
    with pytest.raises(ValueError, match="unknown builtin map 'halving'"):
        self_map_from_spec({"builtin": "halving"})


def test_ball_sampler_redraws_the_metric_box():
    # the box of the metric radius t r / (1 - r) = 1 holds about 31% of its
    # draws in 4-D, so the 2 * 1000 members need a second round; a doubled
    # box would accept 16 times fewer and leave an odd count
    space = induced_from_metric(CoordinateSpace(4), min_max())
    xs, ys = sample_ball_pairs(space, BallSpec([0.0] * 4, 0.5, 1.0), 1000, seed=1)
    assert xs.shape == ys.shape == (1000, 4)
    assert np.linalg.norm(xs, axis=1).max() <= 1.0 and np.linalg.norm(ys, axis=1).max() <= 1.0


@pytest.mark.parametrize("seed", range(6))
def test_ball_sampler_keeps_whole_pairs(line, seed):
    # no base metric: the box doubles after each short round, and the few
    # members found in all rounds may be odd in number
    space = IfmSpace(domain=line.domain, operators=line.operators, membership=line.membership)
    ball = BallSpec([0.0], 0.05, 1.0)
    xs, ys = sample_ball_pairs(space, ball, 64, seed)
    assert 0 < len(xs) == len(ys) < 64
    members = np.concatenate([xs, ys])
    assert np.abs(members).max() <= 0.05 / 0.95


def test_power_equals_manual_composition(plane, swap_scale_map):
    rng = np.random.default_rng(2)
    cubed = swap_scale_map.power(3)
    for p in rng.normal(size=(16, 2)):
        manual = swap_scale_map(swap_scale_map(swap_scale_map(p)))
        assert np.array_equal(cubed(p), manual)


def test_checks_are_seed_deterministic(plane, swap_scale_map):
    a = if_contractive_check(plane, swap_scale_map, 500, seed=11)
    b = if_contractive_check(plane, swap_scale_map, 500, seed=11)
    assert a.to_record() == b.to_record()
