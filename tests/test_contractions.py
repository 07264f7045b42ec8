import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifmlab import (
    BallSpec,
    CoordinateSpace,
    DomainEscapeError,
    FiniteTabulated,
    IfmSpace,
    SelfMap,
    ball_contains,
    closed_ball_hypotheses,
    contractive_sequence_check,
    direct_ratio_contractive_check,
    finite_tabulated,
    if_contractive_check,
    induced_from_metric,
    iterate_trace,
    min_max,
    self_map_from_spec,
    t_uniform_continuity_probe,
)
from ifmlab.contractions import (
    K_SAFETY_MARGIN,
    UNIT_RESOLUTION,
    ContractivityReport,
    NonFiniteImageError,
    apply_batch,
    apply_chain,
    apply_point,
)
from ifmlab.operators import BLOCK_CELLS
from ifmlab.report import json_text
from ifmlab.sampling import BALL_SAMPLING_ROUNDS, sample_ball_pairs, sample_pairs
from ifmlab.spaces import BASE_METRICS, DEFAULT_PROBE_TS, label_pairs, membership_grid, point_jsonable, probe_grid


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
        xs, ys = CoordinateSpace(2).pairs(2000, seed=int(rng.integers(1 << 30)))
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


@pytest.mark.parametrize("epsilons", [(0.1, 0.01), (0.01, 0.1)])
def test_t_uniform_witness_is_the_miss_of_the_last_listed_epsilon(epsilons):
    """(a, b) is certain-near at every t and maps to the far pair (a, c), so
    it misses at every threshold of both epsilons; the witness is the miss
    of the epsilon listed last, whichever order they come in."""
    domain = FiniteTabulated(["a", "b", "c"], {("a", "b"): (1.0, 0.0), ("a", "c"): (0.2, 0.7),
                                               ("b", "c"): (0.2, 0.7)})
    space = finite_tabulated(domain, min_max())
    report = t_uniform_continuity_probe(space, SelfMap.table({"a": "a", "b": "c", "c": "c"}), epsilons, 50)
    assert report.verdict == "fail"
    assert [row["r"] for row in report.details["table"]] == [None, None]
    witness = report.worst_witness
    assert witness["epsilon"] == epsilons[-1]
    assert sorted((witness["x"], witness["y"])) == ["a", "b"]
    assert (witness["mu_image"], witness["nu_image"]) == (0.2, 0.7)


def test_contractive_sequence_of_halving_iterates(line, half_plus_one):
    prefix = iterate_trace(line, half_plus_one, 0.0, 20)
    report = contractive_sequence_check(line, prefix, k=0.5)
    assert report.passed
    assert report.estimated_k == 0.5


def test_a_long_halving_prefix_passes_where_nu_rounds_to_zero(line, half_plus_one):
    # x/2 + 1 from 0 comes within 2**-48 of 2 before it is exactly fixed, so
    # nu = d/(t + d) is 0 at the default t = 51.2 on the last steps; their
    # co-gaps are infinite and the nu bound is inf - inf
    prefix = iterate_trace(line, half_plus_one, 0.0, 60)
    _, nu = membership_grid(line, prefix[:-1], prefix[1:], DEFAULT_PROBE_TS)
    assert np.any(nu[:50] == 0.0)
    report = contractive_sequence_check(line, prefix, k=0.5)
    assert report.passed and report.worst_witness is None
    assert "exactly fixed from index 54" in report.notes


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
    # an unhashable name was Python's TypeError text before
    with pytest.raises(ValueError, match=r"unknown builtin map \[1\]"):
        self_map_from_spec({"builtin": [1]})


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


def reference_sample_ball_pairs(space, ball, count, seed):
    """The closed-ball sampler as it was: a tabulated space's labels are
    filtered by one ball_contains call each."""
    domain = space.domain
    if isinstance(domain, FiniteTabulated):
        members = [lab for lab in domain.labels if ball_contains(space, ball, lab, mode="closed")]
        if len(members) < 2:
            raise ValueError("closed ball contains fewer than two labels; nothing to sample")
        return label_pairs(members, count, seed)
    center = domain.as_point(ball.center)
    r = float(ball.radius)
    halfwidth = ball.time * r / (1.0 - r) if space.base_distance is not None else 1.0
    rng = np.random.default_rng(seed)
    kept, found = [], 0
    for _ in range(BALL_SAMPLING_ROUNDS):
        draw = rng.uniform(center - halfwidth, center + halfwidth, (4 * count, domain.dimension))
        mu, nu = membership_grid(space, center, draw, [ball.time])
        kept.append(draw[(mu[:, 0] >= 1.0 - r) & (nu[:, 0] <= r)])
        found += len(kept[-1])
        if found >= 2 * count:
            break
        if space.base_distance is None:
            halfwidth *= 2.0
    if found < 2:
        raise ValueError("could not sample points inside the closed ball")
    pts = np.concatenate(kept)[: 2 * min(count, found // 2)]
    xs, ys = pts[0::2], pts[1::2]
    distinct = domain.distinct(xs, ys)
    return xs[distinct], ys[distinct]


def sampled_or_rejected(sampler, *args):
    try:
        xs, ys = sampler(*args)
    except ValueError as exc:
        return "rejected", str(exc)
    return [(np.asarray(side).dtype, np.asarray(side).tolist()) for side in (xs, ys)]


@st.composite
def ball_cases(draw):
    """A tabulated space of 2-5 labels with constant or breakpoint curves, or
    an induced space with or without its base metric, and a ball in it."""
    kind = draw(st.sampled_from(["tabulated", "induced", "no-metric"]))
    if kind == "tabulated":
        labels = ["a", "b", "c", "d", "e"][:draw(st.integers(2, 5))]
        mu = st.sampled_from([0.3, 0.6, 0.9, 1.0, [[0.5, 0.3], [4.0, 0.9]]])
        nu = st.sampled_from([0.0, 0.1, 0.4, 0.7, [[0.5, 0.6], [4.0, 0.05]]])
        pairs = {(a, b): (draw(mu), draw(nu)) for i, a in enumerate(labels) for b in labels[i + 1:]}
        space = finite_tabulated(FiniteTabulated(labels, pairs), min_max())
        center = draw(st.sampled_from(labels))
    else:
        dim = draw(st.integers(1, 3))
        space = induced_from_metric(CoordinateSpace(dim), min_max())
        if kind == "no-metric":
            space = IfmSpace(domain=space.domain, operators=space.operators, membership=space.membership)
        center = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim))
    ball = BallSpec(center, draw(st.floats(0.01, 0.99)), draw(st.floats(0.1, 10.0)))
    return space, ball, draw(st.integers(1, 40)), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None)
@given(case=ball_cases())
def test_ball_sampler_matches_the_per_label_reference(case):
    assert sampled_or_rejected(sample_ball_pairs, *case) == \
        sampled_or_rejected(reference_sample_ball_pairs, *case)


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


# ---------------------------------------------------------------------------
# the sampled checks against their whole-grid bodies


def reference_reciprocal_gap(v):
    with np.errstate(divide="ignore"):
        return 1.0 / (np.asarray(v, dtype=float) + 0.0) - 1.0


def reference_pair_grids(space, map_, xs, ys, ts):
    mu1, nu1 = membership_grid(space, xs, ys, ts)
    mu2, nu2 = membership_grid(space, apply_batch(space, map_, xs), apply_batch(space, map_, ys), ts)
    return mu1, nu1, mu2, nu2


def reference_worst_side(xs, ys, ts, keys, mu_side, nu_side):
    # each supremum is the ratio at the first argmax, which is r.max() but
    # for its sign when the largest ratio is a zero: the whole-grid max
    # returned either zero, by the lane order of numpy's reduction
    sup_mu, sup_nu = (float(r.flat[np.argmax(r)]) if r.size else 0.0 for r, _, _ in (mu_side, nu_side))
    # the sides rank as the cells do: a NaN above any value, mu on a tie
    # (``sup_mu >= sup_nu`` picked nu whenever either was NaN)
    nu_worse = sup_nu > sup_mu or (math.isnan(sup_nu) and not math.isnan(sup_mu))
    side, (ratios, num, den) = ("nu", nu_side) if nu_worse else ("mu", mu_side)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    witness = {
        "x": point_jsonable(xs[i]),
        "y": point_jsonable(ys[i]),
        "t": float(ts[j]),
        "side": side,
        keys[0]: float(num[i, j]),
        keys[1]: float(den[i, j]),
        "ratio": sup_nu if nu_worse else sup_mu,
    }
    return sup_mu, sup_nu, witness


def reference_if_contractive(space, map_, count, probe_ts, seed, box):
    """``if_contractive_check`` as it was, on whole (pairs x times) grids."""
    ts = probe_grid(probe_ts)
    xs, ys = sample_pairs(space, count, seed, box)
    gap1, co_gap1, gap2, co_gap2 = map(reference_reciprocal_gap, reference_pair_grids(space, map_, xs, ys, ts))
    nu_skip = np.isinf(co_gap2)
    degenerate = gap1 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_ratio = np.where(degenerate | (gap2 == 0.0), 0.0, gap2 / gap1)
        nu_ratio = np.where(degenerate | nu_skip, 0.0, co_gap1 / co_gap2)
    sup_mu, sup_nu, witness = reference_worst_side(xs, ys, ts, ("lhs", "rhs_gap"),
                                                   (mu_ratio, gap2, gap1), (nu_ratio, co_gap1, co_gap2))
    sup = witness["ratio"]
    estimated = sup + K_SAFETY_MARGIN
    skipped = int(np.count_nonzero(nu_skip & ~degenerate))
    notes = ""
    if skipped:
        notes = f"{skipped} nu-side samples with coincident images satisfy the inequality in the limit and were skipped"
    passed = estimated < 1.0
    return ContractivityReport(
        notion="if_contractive",
        verdict="pass" if passed else "fail",
        estimated_k=estimated if passed else None,
        worst_witness=None if passed else witness,
        samples_used=int(gap1.shape[0]),
        notes=notes,
        details={"sup_ratio": sup, "sup_mu_ratio": sup_mu, "sup_nu_ratio": sup_nu,
                 "nu_skipped": skipped, "witness": witness},
    )


def reference_direct_ratio(space, map_, count, probe_ts, seed, box):
    """``direct_ratio_contractive_check`` over distinct pairs as it was."""
    ts = probe_grid(probe_ts)
    xs, ys = sample_pairs(space, count, seed, box)
    mu1, nu1, mu2, nu2 = reference_pair_grids(space, map_, xs, ys, ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_ratio = np.where(mu2 == 0.0, np.inf, mu1 / mu2)
        nu_ratio = np.where(nu2 == 0.0, 0.0, nu2 / nu1)
    sup_mu, sup_nu, witness = reference_worst_side(xs, ys, ts, ("numerator", "denominator"),
                                                   (mu_ratio, mu1, mu2), (nu_ratio, nu2, nu1))
    sup = witness["ratio"]
    estimated = sup + K_SAFETY_MARGIN
    passed = estimated <= 1.0 - UNIT_RESOLUTION
    notes = ""
    if not passed and sup <= 1.0:
        notes = (
            f"ratio supremum {sup:.9f} lies within {UNIT_RESOLUTION:g} of 1 on the probe grid; "
            "no contraction constant bounded away from 1 is admissible"
        )
    return ContractivityReport(
        notion="direct_ratio_contractive",
        verdict="pass" if passed else "fail",
        estimated_k=estimated if passed else None,
        worst_witness=None if passed else witness,
        samples_used=int(np.shape(mu1)[0]),
        notes=notes,
        details={"sup_ratio": sup, "sup_mu_ratio": sup_mu, "sup_nu_ratio": sup_nu,
                 "unit_margin": UNIT_RESOLUTION, "witness": witness},
    )


def reference_t_uniform(space, map_, epsilons, count, probe_ts, seed, box):
    """``t_uniform_continuity_probe`` as it was."""
    ts = probe_grid(probe_ts)
    eps_list = [float(e) for e in epsilons]
    xs, ys = sample_pairs(space, count, seed, box)
    mu1, nu1, mu2, nu2 = reference_pair_grids(space, map_, xs, ys, ts)
    table = []
    witness = None
    all_found = True
    for eps in eps_list:
        image_ok = (mu2 >= 1.0 - eps) & (nu2 <= eps)
        found_r = None
        qualifying = 0
        candidates = [eps * 2.0**j for j in range(4, -25, -1) if eps * 2.0**j < 1.0]
        for r in candidates:
            qualify = (mu1 >= 1.0 - r) & (nu1 <= r)
            if np.all(image_ok[qualify]):
                found_r = r
                qualifying = int(np.count_nonzero(qualify))
                break
        if found_r is None:
            all_found = False
            i, j = np.unravel_index(int(np.argmax(qualify & ~image_ok)), qualify.shape)
            witness = {
                "epsilon": eps,
                "x": point_jsonable(xs[i]),
                "y": point_jsonable(ys[i]),
                "t": float(ts[j]),
                "mu_image": float(mu2[i, j]),
                "nu_image": float(nu2[i, j]),
            }
        table.append({"epsilon": eps, "r": found_r, "qualifying_samples": qualifying})
    return ContractivityReport(
        notion="t_uniform_continuity",
        verdict="pass" if all_found else "fail",
        worst_witness=None if all_found else witness,
        samples_used=int(np.shape(mu1)[0]),
        details={"table": table},
    )


def planted_line(levels, plants, bands):
    """A line space whose ``mu = t/(t + |x - y|)`` is rounded to ``levels``
    steps, so equal ratios recur in every block, with ``nu = 1 - mu``.
    Each plant ``(mu, nu)`` sets its values (None keeps a side) on the cells
    whose hash of ``(x, y, t)`` falls in its own band of ``bands``, pairs and
    image pairs alike.  Every value depends on its cell alone, so the pair
    blocks of a check cannot change it."""
    def membership(x, y, t):
        t = np.asarray(t, dtype=float)
        mu = np.round(t / (t + np.abs(x[..., 0] - y[..., 0])) * levels) / levels
        sides = [mu, 1.0 - mu]
        band = np.floor(((x[..., 0] * 12.9898 + y[..., 0] * 78.233 + t * 37.719) % 1.0) * bands)
        for p, plant in enumerate(plants):
            for s, value in enumerate(plant):
                if value is not None:
                    sides[s] = np.where(band == p, value, sides[s])
        return tuple(sides)

    return IfmSpace(domain=CoordinateSpace(1), operators=min_max(), membership=membership)


def check_block(k):
    """Pairs per block of a sampled check over ``k`` probe times."""
    return max(1, BLOCK_CELLS // (4 * k))


B10 = check_block(len(DEFAULT_PROBE_TS))
CHECK_MAPS = {
    "halve": SelfMap.affine([[0.5]], [0.25]),
    "flip": SelfMap.affine([[-0.9]], [1.0]),
    "double": SelfMap.affine([[2.0]], [0.0]),
    "identity": SelfMap.identity(),
    "constant": SelfMap.constant([0.3]),
}
# NaN, both infinities, zero gaps (mu = 1 or nu = 1) and a near pair whose
# image need not be near
PLANT = st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0, 0.0005, 0.5, 0.999, 1.0])


@st.composite
def planted_checks(draw):
    levels = draw(st.sampled_from([1, 4, 1000]))
    plants = tuple(draw(st.lists(st.tuples(PLANT, PLANT), max_size=3)))
    bands = draw(st.sampled_from([16, 2**9, 2**13]))
    ts = tuple(sorted(set(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6)))))
    count = draw(st.integers(1, 3 * check_block(len(ts)) + 1))
    epsilons = tuple(draw(st.lists(st.sampled_from([0.5, 0.1, 0.01, 1e-6]), min_size=1, max_size=3)))
    return (levels, plants, bands, draw(st.sampled_from(sorted(CHECK_MAPS))), ts, count, epsilons,
            draw(st.sampled_from([0.5, 8.0])), draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(case=planted_checks())
# one pair; exactly one block; a part-full last block with NaN, both
# infinities and zero gaps on both sides of each block edge
@example(case=(4, ((np.nan, None), (None, np.inf)), 16, "double", DEFAULT_PROBE_TS, 1, (0.1,), 8.0, 0))
@example(case=(4, ((1.0, None), (None, -np.inf)), 16, "halve", DEFAULT_PROBE_TS, B10, (0.1, 0.01), 8.0, 1))
@example(case=(1000, ((np.nan, 1.0), (np.inf, None), (None, 0.0)), 2**9, "flip", DEFAULT_PROBE_TS,
               2 * B10 + 7, (0.1, 0.01), 8.0, 2))
# ratios rounded to a few values, so equal maxima fall in every block
@example(case=(4, (), 16, "double", (0.5, 2.0), 3 * check_block(2) + 1, (0.1,), 0.5, 3))
# the first block admits r = 0.05 and 0.005, the second only r = 0.00078
# and 0.000625; and a block after one that admitted r exhausts the ladder
@example(case=(1000, ((0.999, 0.0005),), 2**13, "double", DEFAULT_PROBE_TS, 3 * B10 + 1, (0.1, 0.01), 8.0, 3))
@example(case=(1000, ((1.0, 0.0),), 2**13, "halve", DEFAULT_PROBE_TS, 3 * B10 + 1, (0.1, 0.01), 8.0, 6))
def test_streamed_checks_match_the_whole_grid_reference(case):
    levels, plants, bands, map_name, ts, count, epsilons, halfwidth, seed = case
    space, map_, box = planted_line(levels, plants, bands), CHECK_MAPS[map_name], (-halfwidth, halfwidth)
    with np.errstate(all="ignore"):
        runs = [
            (if_contractive_check(space, map_, count, ts, seed, box),
             reference_if_contractive(space, map_, count, ts, seed, box)),
            (direct_ratio_contractive_check(space, map_, count, ts, seed=seed, box=box),
             reference_direct_ratio(space, map_, count, ts, seed, box)),
            (t_uniform_continuity_probe(space, map_, epsilons, count, ts, seed, box),
             reference_t_uniform(space, map_, epsilons, count, ts, seed, box)),
        ]
    # the reference passed a t-uniform row with no qualifying samples; such a
    # pass is now vacuous, with a note, and otherwise the same report
    t_uniform, reference = runs[2]
    if reference.passed and not all(row["qualifying_samples"] for row in reference.details["table"]):
        assert t_uniform.verdict == "vacuous" and t_uniform.notes.startswith("no sampled pair qualified")
        runs[2] = replace(t_uniform, verdict="pass", notes=""), reference
    for report, reference in runs:
        assert json_text(report.to_record()) == json_text(reference.to_record())


def test_a_t_uniform_row_with_no_qualifying_samples_is_vacuous(line, half_plus_one):
    # an all-NaN kernel qualifies no pair at any threshold, and the probe
    # passed on that, with qualifying_samples 0 in every row
    nan_line = IfmSpace(domain=CoordinateSpace(1), operators=min_max(),
                        membership=lambda x, y, t: (np.full((len(x), len(t)), np.nan),) * 2)
    report = t_uniform_continuity_probe(nan_line, SelfMap.affine([[0.5]], [0.0]), [0.1, 0.01], 200, seed=1)
    assert report.verdict == "vacuous" and not report.passed and report.worst_witness is None
    assert [row["qualifying_samples"] for row in report.details["table"]] == [0, 0]
    assert report.notes == "no sampled pair qualified at the threshold found for epsilon 0.1, 0.01"
    # one empty row is enough; a row that qualifies pairs keeps its pass
    halving = t_uniform_continuity_probe(line, half_plus_one, [0.1, 1e-6], 50, seed=6, box=(-1.0, 1.0))
    assert [row["qualifying_samples"] > 0 for row in halving.details["table"]] == [True, False]
    assert halving.verdict == "vacuous" and halving.notes.endswith("epsilon 1e-06")
    assert t_uniform_continuity_probe(line, half_plus_one, [0.1], 50, seed=6, box=(-1.0, 1.0)).passed


def test_zero_supremum_takes_the_sign_of_its_witness():
    # mu = 0 on x < -0.2 and 2 on the images, out of range on purpose: the
    # ratio there is -1 / inf = -0.0, and +0.0 on every other pair, so the
    # largest ratio is a zero of either sign; it is the first worst one's,
    # +0.0 at the first pair, where the whole-grid max read -0.0
    def membership(x, y, t):
        x0 = x[..., 0] + 0.0 * np.asarray(t)
        mu = np.where(x0 < -0.2, 0.0, np.where(x0 > 10.0, 2.0, 1.0))
        return mu, 1.0 - np.minimum(mu, 1.0)

    space = IfmSpace(domain=CoordinateSpace(1), operators=min_max(), membership=membership)
    with np.errstate(all="ignore"):
        report = if_contractive_check(space, SelfMap.affine([[1.0]], [20.0]), 3000, (1.0, 2.0), 1, (-0.5, 0.5))
    witness = report.details["witness"]
    assert witness["x"][0] >= -0.2 and witness["side"] == "mu"
    assert math.copysign(1.0, report.details["sup_mu_ratio"]) == math.copysign(1.0, witness["ratio"]) == 1.0


def test_sampled_check_kernel_work_is_pinned(monkeypatch):
    # kernel calls and evaluated cells, counted as the bench tracer counts
    # them, of 12,000-pair checks on the default grid: blocks of 819 pairs,
    # two calls a block (the pairs and their images), 15 blocks, 240,000
    # cells.  The whole-grid checks made 2 calls on the same cells.  The
    # t-uniform case whose threshold falls in its second block evaluates
    # its first block once more, to count its samples at the found r.
    work = []
    kernel = IfmSpace.mu_nu

    def counted(space, x, y, t):
        result = kernel(space, x, y, t)
        work.append(int(np.size(result[0])))
        return result

    monkeypatch.setattr(IfmSpace, "mu_nu", counted)
    space = induced_from_metric(CoordinateSpace(3), min_max())
    halve = SelfMap.affine(np.eye(3) * 0.5, [1.0, 0.0, 0.0])
    for check in (lambda: if_contractive_check(space, halve, 12_000, seed=1),
                  lambda: direct_ratio_contractive_check(space, halve, 12_000, seed=1),
                  lambda: t_uniform_continuity_probe(space, halve, [0.1, 0.01], 12_000, seed=1)):
        work.clear()
        check()
        assert (len(work), sum(work)) == (30, 240_000)
    work.clear()
    with np.errstate(all="ignore"):
        t_uniform_continuity_probe(planted_line(1000, ((0.999, 0.0005),), 2**13), CHECK_MAPS["double"],
                                   (0.1, 0.01), 3 * B10 + 1, seed=3, box=(-8.0, 8.0))
    assert (len(work), sum(work)) == (9, 2 * (3 * B10 + 1) * 10 + B10 * 10)


def test_sampled_check_memory_stays_bounded():
    # the whole-grid check of 100,000 pairs in 3-D peaked at 74.0 MiB; the
    # drawn points and their images are 9.2 MiB
    space = induced_from_metric(CoordinateSpace(3), min_max())
    tracemalloc.start()
    try:
        if_contractive_check(space, SelfMap.affine(np.eye(3) * 0.5, [0.0] * 3), 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_empty_pair_batch_is_rejected(line, half_plus_one, three_point_space):
    # numpy's "attempt to get argmax of an empty sequence" before
    empty = np.empty((0, 1))
    with pytest.raises(ValueError, match="the pair batch is empty"):
        if_contractive_check(line, half_plus_one, 0, pairs=(empty, empty))
    # a sampled count of 0 is refused by the label sampler, as by the coordinate one
    const = SelfMap.table({"a": "c", "b": "c", "c": "c"})
    with pytest.raises(ValueError, match="count must be at least 1"):
        direct_ratio_contractive_check(three_point_space, const, 0)
    with pytest.raises(ValueError, match="count must be at least 1"):
        t_uniform_continuity_probe(three_point_space, const, [0.1], 0)


def far_nan_line(side):
    """The induced line ``mu = t/(t + d)``, ``nu = 1 - mu``, with ``side``
    NaN on every pair more than 4 apart."""
    def membership(x, y, t):
        d = np.abs(x[..., 0] - y[..., 0])
        sides = {"mu": t / (t + d)}
        sides["nu"] = 1.0 - sides["mu"]
        sides[side] = np.where(d > 4.0, np.nan, sides[side])
        return sides["mu"], sides["nu"]

    return IfmSpace(domain=CoordinateSpace(1), operators=min_max(), membership=membership)


@pytest.mark.parametrize("side", ["mu", "nu"])
def test_a_nan_ratio_fails_both_ratio_checks_on_either_side(side):
    # Python's max(sup_mu, sup_nu) dropped a NaN nu supremum, so with NaN on
    # nu the check passed with estimated_k 0.5000000010; a NaN mu supremum
    # failed, but with the nu witness
    space, halve = far_nan_line(side), SelfMap.affine([[0.5]], [0.0])
    with np.errstate(invalid="ignore"):
        checks = [if_contractive_check(space, halve, 1000, seed=1),
                  direct_ratio_contractive_check(space, halve, 1000, seed=1)]
    for report in checks:
        assert report.verdict == "fail" and report.estimated_k is None
        assert report.worst_witness["side"] == side and math.isnan(report.worst_witness["ratio"])
        assert math.isnan(report.details["sup_ratio"]) and math.isnan(report.details[f"sup_{side}_ratio"])
        # the direct-ratio note about a supremum within 1e-3 of 1 is not for a NaN
        assert report.notes == ""


def test_a_nan_gap_fails_the_sequence_check():
    # gap > bound is False for NaN, so an all-NaN kernel passed where the
    # honest one fails at n = 0
    nan_line = IfmSpace(domain=CoordinateSpace(1), operators=min_max(),
                        membership=lambda x, y, t: (np.full((len(x), len(t)), np.nan),) * 2)
    report = contractive_sequence_check(nan_line, [0, 1, 5, 100], 0.5)
    assert report.verdict == "fail"
    assert report.worst_witness["n"] == 0 and report.worst_witness["side"] == "mu"
    assert math.isnan(report.worst_witness["lhs"])
    honest = contractive_sequence_check(induced_from_metric(CoordinateSpace(1), min_max()),
                                        [0, 1, 5, 100], 0.5)
    assert honest.verdict == "fail" and honest.worst_witness["n"] == 0


def reference_affine(matrix, offset):
    """The affine map's evaluator as it was: ``x @ a.T + b``."""
    a, b = np.atleast_2d(np.asarray(matrix, float)), np.atleast_1d(np.asarray(offset, float))
    return lambda x: np.asarray(x, dtype=float) @ a.T + b


# finite values, with signed zeros, subnormals and magnitudes whose products overflow
AFFINE_VALUE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 1.0, 0.5])


@st.composite
def affine_inputs(draw):
    """Coefficients of a d-dimensional affine map, and one point or a batch
    in C order, Fortran order or as a strided view."""
    d = draw(st.integers(1, 4))
    a = draw(hnp.arrays(np.float64, (d, d), elements=AFFINE_VALUE))
    b = draw(hnp.arrays(np.float64, d, elements=AFFINE_VALUE))
    batch = draw(st.booleans())
    shape = (draw(st.integers(1, 9)), d) if batch else (d,)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        # every other row and column of a larger array
        wide = draw(hnp.arrays(np.float64, tuple(2 * n for n in shape), elements=AFFINE_VALUE))
        x = wide[(slice(None, None, 2),) * len(shape)]
    else:
        x = np.array(draw(hnp.arrays(np.float64, shape, elements=AFFINE_VALUE)), order=layout)
    return a, b, x


@settings(max_examples=300, deadline=None)
@given(case=affine_inputs())
# at d = 1, dot gives the product -0.0 where @ gives +0.0
@example(case=(np.array([[-0.0]]), np.array([-0.0]), np.array([5e-324])))
# a Fortran-ordered batch with a -0.0 offset
@example(case=(np.eye(2) * 0.5, np.array([-0.0, 5e-324]),
               np.asfortranarray([[-0.0, 1e-310], [3.0, -0.0], [1e308, 4.0]])))
# at d = 4, BLAS gives -0.0 in column 0 of this batch, which a -0.0 offset keeps
@example(case=(np.array([[3.733468626253329e-285, 1e308, 3.202432047275546e-280, 2.2250738585072014e-308],
                         [1.0, 0.0, 9.574239667720827e173, -1.2387743263168362e-30],
                         [1.292951164684709e279, 4.747993187379788e-126, 0.0, 2.2250738585072014e-308],
                         [8.299271042495487e186, -1.4313942795106363e-252, 2.0407619398969418e-98,
                          -8.134195295344778e-28]]),
               np.array([-0.0, 0.0, 0.0, 0.0]),
               np.asfortranarray([[0.0, -0.0, -7.497554511123924e-232, -2.2665206299327095e-73]] * 5)))
def test_affine_images_are_bit_equal_to_the_matmul_reference(case):
    a, b, x = case
    map_, space = SelfMap.affine(a, b), induced_from_metric(CoordinateSpace(len(b)), min_max())
    reference = reference_affine(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        image, expected = map_(x), reference(x)
        assert image.shape == expected.shape and image.tobytes() == expected.tobytes()
        if x.ndim == 2:  # a batch: its exact rows, and the square's batch form and exact rows
            rows = np.asarray([reference(p) for p in x])
            square = map_.power(2)
            for got, want in ((map_._rows(x), rows), (square(x), reference(expected)),
                              (square._rows(x), np.asarray([reference(r) for r in rows]))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        apply = apply_point if x.ndim == 1 else apply_batch
        if np.isfinite(expected).all():
            assert apply(space, map_, x).tobytes() == expected.tobytes()
        else:
            with pytest.raises(NonFiniteImageError):
                apply(space, map_, x)


# coordinates of magnitude 1e-300 to 1e150 of either sign, and signed zeros
ROW_VALUE = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]),
                      st.floats(-300.0, 150.0)) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(1, 3), data=st.data())
def test_exact_rows_are_the_one_point_images_bit_for_bit(d, m, data):
    # gemm rounds a batch row differently from gemv on a point; the row-exact
    # form must not, so a stored chain re-maps in one call as it was stepped
    a = data.draw(hnp.arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0) | st.just(-0.0)))
    b = data.draw(hnp.arrays(np.float64, d, elements=ROW_VALUE))
    xs = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 9)), d), elements=ROW_VALUE))
    map_ = SelfMap.affine(a, b).power(m)
    space = induced_from_metric(CoordinateSpace(d), min_max())
    expected = np.asarray([apply_point(space, map_, x) for x in xs])
    assert map_._rows(xs).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_only_affine_maps_and_their_powers_carry_exact_rows():
    power = SelfMap.affine([[0.5]], [1.0]).power(3)
    assert power._rows is not None and power._chain is not None
    for map_ in (SelfMap(lambda x: x), SelfMap.identity(), SelfMap.constant([1.0]),
                 SelfMap.table({"a": "b"}), SelfMap(lambda x: x).power(2)):
        assert map_._rows is None and map_._chain is None


def walk(space, map_, x, n):
    """``x`` and its next ``n`` images, one :func:`apply_point` call a step, up to the
    first that raises, and that exception's type and text (``None`` if none raised)."""
    chain = [x]
    try:
        for _ in range(n):
            chain.append(apply_point(space, map_, chain[-1]))
    except Exception as exc:
        return chain, (type(exc), str(exc))
    return chain, None


def warned(fn, *args):
    """``fn(*args)`` and the warnings it raised, as (category, text) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4, 9]), m=st.integers(1, 3), n=st.integers(1, 70),
       blowup=st.none() | st.integers(1, 80), data=st.data())
def test_apply_chain_matches_the_apply_point_walk(d, m, n, blowup, data):
    # the chain of an affine map and its powers, and of the same evaluator without a
    # chain form: the points, the batch, the kept exception and the warnings of the walk
    if blowup is None:
        a = data.draw(hnp.arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0) | st.just(-0.0)))
        b = data.draw(hnp.arrays(np.float64, d, elements=ROW_VALUE | st.sampled_from([1e308, -1e308])))
        x = data.draw(hnp.arrays(np.float64, d, elements=ROW_VALUE))
    else:
        # a signed permutation times 2**p maps exactly, so the map's images
        # first overflow at step `blowup` (its m-th power's at the ceiling of blowup / m)
        p = data.draw(st.integers(1, 24))
        signs = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([1.0, -1.0])))
        a = 2.0**p * np.eye(d)[data.draw(st.permutations(range(d)))] * signs
        b = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([0.0, -0.0])))
        x = data.draw(hnp.arrays(np.float64, d, elements=st.floats(1.0, 2.0, exclude_max=True)))
        x *= signs * 2.0 ** (1024 - p * blowup)
    space = induced_from_metric(CoordinateSpace(d), min_max())
    chained = SelfMap.affine(a, b).power(m)
    for map_ in (chained, SelfMap(chained.fn)):
        (want, error), want_warnings = warned(walk, space, map_, x, n)
        (got, batch, kept), got_warnings = warned(apply_chain, space, map_, x, n)
        assert len(got) == len(want) and all(u.tobytes() == v.tobytes() for u, v in zip(got, want))
        assert batch.shape == (len(want), d) and batch.tobytes() == np.asarray(want).tobytes()
        assert (None if kept is None else (type(kept), str(kept))) == error
        assert got_warnings == want_warnings
    if blowup is not None:
        assert (error is not None) == (-(-blowup // m) <= n)
        assert error is None or error[0] is NonFiniteImageError


@pytest.mark.parametrize("m", [1, 2])
def test_apply_chain_warns_once_as_the_walk_warns(line, m):
    # x -> x + 1e308 overflows in the add of step 2; its chain steps on past
    # it silently, and the walk from the last finite image warns and raises
    map_ = SelfMap.affine([[1.0]], [1e308]).power(m)
    (want, error), want_warnings = warned(walk, line, map_, np.array([0.0]), 5)
    (got, _, kept), got_warnings = warned(apply_chain, line, map_, np.array([0.0]), 5)
    assert want_warnings == got_warnings == [(RuntimeWarning, "overflow encountered in add")]
    assert len(got) == len(want) == 3 - m and (type(kept), str(kept)) == error


def test_apply_chain_walks_what_its_chain_form_refuses(line, plane):
    # a start of another dimension than the map's: the walk raises numpy's
    # error at the first step, and the chain keeps it there
    map_ = SelfMap.affine(np.eye(2), [1.0, 2.0])
    chain, batch, kept = apply_chain(line, map_, np.array([1.0]), 5)
    assert len(chain) == 1 and batch.tolist() == [[1.0]] and type(kept) is ValueError
    assert str(kept) == walk(line, map_, np.array([1.0]), 5)[1][1]
    # a budget of no steps is the start alone
    chain, batch, kept = apply_chain(plane, map_, np.array([1.0, 1.0]), 0)
    assert len(chain) == 1 and batch.tolist() == [[1.0, 1.0]] and kept is None


# the induced gap ratios of an affine map x -> A x + b are base-distance ratios,
# at most the operator norm of A in the base metric
OPERATOR_NORMS = {
    "euclidean": lambda a: np.linalg.norm(a, 2),
    "chebyshev": lambda a: np.abs(a).sum(axis=1).max(),
    "absolute-difference": lambda a: np.abs(a).sum(axis=0).max(),
}


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(BASE_METRICS), d=st.sampled_from([1, 2, 3, 4, 9]), norm=st.floats(0.25, 2.0),
       seed=st.integers(0, 2**16), data=st.data())
def test_every_sampled_ratio_is_within_the_operator_norm(metric, d, norm, seed, data):
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = data.draw(hnp.arrays(np.float64, (d, d), elements=unit))
    b = data.draw(hnp.arrays(np.float64, d, elements=unit))
    operator_norm = OPERATOR_NORMS[metric]
    if not operator_norm(a) > 1e-6:
        a = np.eye(d)
    # from norm 0.25 on, the closest image pairs sit far enough from the largest probe
    # time for the rounding of their gaps d/t to stay well inside the tolerance
    a *= norm / operator_norm(a)
    bound = operator_norm(a) * (1.0 + 1e-10)
    space = induced_from_metric(CoordinateSpace(d, metric), min_max())
    details = if_contractive_check(space, SelfMap.affine(a, b), 200, seed=seed).details
    assert details["sup_mu_ratio"] <= bound and details["sup_nu_ratio"] <= bound, (details, bound)


# a direction v along which the base distance of an affine map's images
# grows by the operator norm of A: d(A(x + v), Ax) = ||A|| d(x + v, x)
WORST_DIRECTIONS = {
    "euclidean": lambda a: np.linalg.svd(a)[2][0],  # the top right singular vector
    "chebyshev": lambda a: np.sign(a[np.abs(a).sum(axis=1).argmax()]),  # the signs of the largest row
    "absolute-difference": lambda a: np.eye(len(a))[np.abs(a).sum(axis=0).argmax()],  # the largest column's axis
}


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(BASE_METRICS), d=st.sampled_from([1, 2, 3, 4, 9]), norm=st.floats(0.25, 2.0),
       data=st.data())
def test_pairs_along_the_worst_direction_attain_the_operator_norm(metric, d, norm, data):
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = data.draw(hnp.arrays(np.float64, (d, d), elements=unit))
    b = data.draw(hnp.arrays(np.float64, d, elements=unit))
    operator_norm = OPERATOR_NORMS[metric]
    if not operator_norm(a) > 1e-6:
        a = np.eye(d)
    a *= norm / operator_norm(a)
    xs = data.draw(hnp.arrays(np.float64, (3, d), elements=unit))
    ys = xs + WORST_DIRECTIONS[metric](a)
    space = induced_from_metric(CoordinateSpace(d, metric), min_max())
    details = if_contractive_check(space, SelfMap.affine(a, b), len(xs), pairs=(xs, ys)).details
    for side in ("sup_mu_ratio", "sup_nu_ratio"):
        assert abs(details[side] - operator_norm(a)) <= 1e-10 * operator_norm(a), (side, details, operator_norm(a))


# a pair r-near at t has d <= t r/(1 - r), so the affine image of an r-near pair
# is epsilon-near whenever L r/(1 - r) <= epsilon/(1 - epsilon), with L the
# operator norm of A: every ladder rung up to epsilon/(L(1 - epsilon) + epsilon)
# is admissible, and the probe stops no lower than the largest of them
@settings(max_examples=120, deadline=None)
@given(metric=st.sampled_from(BASE_METRICS), d=st.integers(1, 4),
       log_norm=st.one_of(st.none(), st.floats(-3.0, 3.0)),
       epsilons=st.lists(st.floats(0.001, 0.5, exclude_min=True, exclude_max=True), min_size=1, max_size=3),
       count=st.integers(50, 1000), probe_ts=st.sampled_from([None, (0.1, 1.0, 10.0)]),
       seed=st.integers(0, 2**16), data=st.data())
def test_every_t_uniform_threshold_is_at_least_the_largest_admissible_rung(
        metric, d, log_norm, epsilons, count, probe_ts, seed, data):
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = data.draw(hnp.arrays(np.float64, (d, d), elements=unit))
    b = data.draw(hnp.arrays(np.float64, d, elements=unit))
    operator_norm = OPERATOR_NORMS[metric]
    if log_norm is None or not operator_norm(a) > 1e-6:
        a = np.eye(d)  # the identity, L = 1 in every metric
    else:
        a *= 10.0**log_norm / operator_norm(a)
    lipschitz = operator_norm(a)
    space = induced_from_metric(CoordinateSpace(d, metric), min_max())
    report = t_uniform_continuity_probe(space, SelfMap.affine(a, b), epsilons, count, probe_ts, seed)
    for row in report.details["table"]:
        eps = row["epsilon"]
        # the factor absorbs rounding at the boundary: at L = 1 the bound is the rung epsilon itself
        bound = eps / (lipschitz * (1.0 - eps) + eps) * (1.0 - 1e-9)
        admissible = max(eps * 2.0**j for j in range(4, -25, -1) if eps * 2.0**j <= bound)
        assert row["r"] is not None and row["r"] >= admissible, (row, lipschitz, admissible)
