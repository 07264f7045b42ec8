"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here, not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import ifmlab as m
from ifmlab.cli import main


@contextmanager
def verdict(tag, description):
    try:
        yield
    except BaseException:
        print(f"[{tag}] FAIL  {description}")
        raise
    print(f"[{tag}] PASS  {description}")


def make_line():
    return m.induced_from_metric(m.CoordinateSpace(1), m.min_max())


def make_plane():
    return m.induced_from_metric(m.CoordinateSpace(2), m.min_max())


def make_three_point():
    domain = m.FiniteTabulated(
        ["a", "b", "c"],
        {("a", "b"): (0.4, 0.5), ("a", "c"): (0.4, 0.5), ("b", "c"): (0.4, 0.5)},
    )
    return m.finite_tabulated(domain, m.min_max())


def scaled_affine(rng, norm):
    a = rng.normal(size=(2, 2))
    a *= norm / np.linalg.norm(a, 2)
    return m.SelfMap.affine(a, rng.normal(size=2))


def test_criterion_01_operator_axioms():
    with verdict("criterion-01", "shipped operator pairs pass the grid audit; only min-max is idempotent"):
        started = time.perf_counter()
        for factory in (m.min_max, m.product_probsum, m.lukasiewicz):
            report = m.audit_operator_pair(factory(), 100, tolerance=1e-12)
            assert report.passed, f"{factory.__name__}: {[c.clause for c in report.failures()]}"
        assert m.check_idempotent(m.min_max(), 100) == (True, True)
        assert m.check_idempotent(m.product_probsum(), 100) == (False, False)
        assert m.check_idempotent(m.lukasiewicz(), 100) == (False, False)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"operator audits took {elapsed:.2f}s"


def test_criterion_02_space_axioms_on_plane():
    with verdict("criterion-02", "induced Euclidean plane passes the axiom audit; mu+nu == 1 exactly"):
        started = time.perf_counter()
        plane = make_plane()
        report = m.axiom_audit(plane, 10_000, tolerance=1e-9, seed=42)
        assert report.passed, [c.clause for c in report.failures()]
        xs, ys = m.CoordinateSpace(2).pairs(10_000, seed=43)
        for t in m.DEFAULT_PROBE_TS:
            mu, nu = plane.mu_nu(xs, ys, t)
            assert np.all(mu + nu == 1.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"axiom audit took {elapsed:.2f}s"


def test_criterion_03_separation_witnesses():
    with verdict("criterion-03", "separation witnesses found and re-verified for 1000 random triples"):
        rng = np.random.default_rng(7)
        pairs = [m.min_max(), m.product_probsum()]
        for _ in range(1000):
            lower = rng.uniform(0.01, 0.97)
            upper = rng.uniform(lower + 0.005, 0.995)
            level = rng.uniform(0.01, 0.99)
            for pair in pairs:
                w = m.find_separation_witnesses(pair, upper, lower, level)
                assert float(pair.tnorm(upper, w.tnorm_partner)) > lower
                assert float(pair.tconorm(w.tconorm_partner, lower)) < upper
                assert float(pair.tnorm(w.tnorm_self, w.tnorm_self)) >= level
                assert float(pair.tconorm(w.tconorm_self, w.tconorm_self)) <= level
                for value in w.__dict__.values():
                    assert 0.0 < value < 1.0


def test_criterion_04_contractivity_oracle_equivalence():
    with verdict("criterion-04", "estimated constants match the distance-ratio oracle within 1e-6"):
        plane = make_plane()
        rng = np.random.default_rng(2024)
        for _ in range(20):
            map_ = scaled_affine(rng, rng.uniform(0.05, 0.95))
            xs, ys = m.CoordinateSpace(2).pairs(10_000, seed=int(rng.integers(1 << 30)))
            report = m.if_contractive_check(plane, map_, 0, pairs=(xs, ys))
            assert report.passed
            oracle = float(np.max(plane.base_distance(map_(xs), map_(ys))
                                  / plane.base_distance(xs, ys)))
            assert abs(report.estimated_k - oracle) <= 1e-6
        for norm in (1.1, 1.5, 2.5):
            expanding = scaled_affine(rng, norm)
            report = m.if_contractive_check(plane, expanding, 10_000, seed=5)
            assert report.verdict == "fail"


def test_criterion_05_banach_solve():
    with verdict("criterion-05", "halving map reaches 2.0 within 1e-8 in <= 60 iterations; starts agree"):
        line = make_line()
        halve_shift = m.SelfMap.affine([[0.5]], [1.0])
        result = m.picard_solve(line, halve_shift, 0.0)
        assert result.converged and result.iterations <= 60
        assert abs(float(result.fixed_point[0]) - 2.0) <= 1e-8
        probe = m.uniqueness_probe(line, halve_shift, [-100.0, 0.0, 100.0])
        assert all(s == "converged" for s in probe.statuses)
        for limit in probe.limits:
            assert abs(limit[0] - 2.0) <= 1e-8
        assert probe.max_pairwise_distance <= 1e-8
        assert probe.passed


def test_criterion_06_closed_ball_end_to_end():
    with verdict("criterion-06", "ball hypotheses hold with the stated sides; solve stays in the ball"):
        line = make_line()
        map_ = m.SelfMap.affine([[0.5]], [0.4])
        hyp = m.closed_ball_hypotheses(line, map_, 0.0, r=0.5, t=1.0, k=0.5)
        assert hyp.passed
        assert hyp.details["mu_lhs"] == pytest.approx(0.4, abs=1e-15)
        assert hyp.details["mu_rhs"] == 0.5
        assert hyp.details["nu_lhs"] == 2.5
        assert hyp.details["nu_rhs"] == 2.0

        ball = m.BallSpec(center=0.0, radius=0.5, time=1.0)
        result = m.closed_ball_solve(line, map_, ball, k=0.5)
        assert result.converged
        assert abs(float(result.fixed_point[0]) - 0.8) <= 1e-8
        for p in result.trace.points:
            mu, nu = m.evaluate(line, 0.0, p, 1.0)
            assert mu > 0.5 and nu < 0.5
        assert m.ball_contains(line, ball, result.fixed_point, mode="closed")

        widened = m.SelfMap.affine([[0.5]], [0.6])
        assert m.closed_ball_solve(line, widened, ball, k=0.5).status == "hypothesis_failed"


def test_criterion_07_power_map_end_to_end():
    with verdict("criterion-07", "axis expander fails, its square contracts at 0.25, power solve reaches origin"):
        plane = make_plane()
        expander = m.SelfMap.affine([[0.0, 2.0], [0.125, 0.0]], [0.0, 0.0])
        direct = m.if_contractive_check(plane, expander, 10_000, seed=3)
        assert direct.verdict == "fail"
        delta = np.abs(np.asarray(direct.worst_witness["x"]) - np.asarray(direct.worst_witness["y"]))
        assert delta[1] > delta[0]

        squared = m.if_contractive_check(plane, expander.power(2), 10_000, seed=3)
        assert squared.passed
        assert abs(squared.estimated_k - 0.25) <= 1e-6

        uniform = m.t_uniform_continuity_probe(plane, expander, [0.1, 0.01], 4000, seed=3)
        assert uniform.passed

        result = m.power_map_solve(plane, expander, 2, x0=[1.0, 1.0])
        assert result.converged
        assert float(np.linalg.norm(result.fixed_point)) <= 1e-8


def test_criterion_08_proof_mechanics_properties():
    with verdict("criterion-08", "iterates inherit the estimated constant; contraction implies uniform continuity"):
        plane = make_plane()
        rng = np.random.default_rng(2025)
        for i in range(10):
            map_ = scaled_affine(rng, rng.uniform(0.1, 0.9))
            check = m.if_contractive_check(plane, map_, 10_000, seed=int(rng.integers(1 << 30)))
            assert check.passed
            prefix = m.iterate_trace(plane, map_, rng.uniform(-5, 5, 2), 30)
            # below ~1e-8 the gaps sit at coordinate-rounding scale and the
            # step ratios are quantization noise, not iteration structure
            for j in range(len(prefix) - 1):
                if float(plane.base_distance(prefix[j], prefix[j + 1])) < 1e-8:
                    prefix = prefix[: max(j + 1, 3)]
                    break
            seq = m.contractive_sequence_check(plane, prefix, check.estimated_k)
            assert seq.passed, seq.worst_witness
            uniform = m.t_uniform_continuity_probe(plane, map_, [0.1, 0.01], 2000, seed=i)
            assert uniform.passed, uniform.worst_witness


def test_criterion_09_joint_continuity_values():
    with verdict("criterion-09", "pairwise nearness of convergent sequences reaches (0.25, 0.75) by n=30"):
        line = make_line()
        xs = [2.0 + 2.0 ** -n for n in range(31)]
        ys = [5.0 - 3.0 ** -n for n in range(31)]
        report = m.joint_continuity_probe(line, xs, 2.0, ys, 5.0, t=1.0, tolerance=1e-6)
        assert report.passed
        assert abs(report.mu_tail - 0.25) <= 1e-6
        assert abs(report.nu_tail - 0.75) <= 1e-6


def test_criterion_10_direct_ratio_findings():
    with verdict("criterion-10", "direct-ratio notion: vacuous with coincident pairs, constant-map pass, large-t failure"):
        line = make_line()
        plane = make_plane()
        tab = make_three_point()
        const = m.SelfMap.table({"a": "c", "b": "c", "c": "c"})
        halve = m.SelfMap.affine([[0.5]], [0.0])
        cases = [
            (line, halve),
            (line, m.SelfMap.identity()),
            (plane, m.SelfMap.affine([[0.0, 2.0], [0.125, 0.0]], [0.0, 0.0])),
            (tab, const),
        ]
        for space, map_ in cases:
            report = m.direct_ratio_contractive_check(space, map_, 200, include_coincident=True)
            assert report.verdict == "vacuous" and not report.passed

        distinct = m.direct_ratio_contractive_check(tab, const, 300, seed=1)
        assert distinct.passed
        assert abs(distinct.estimated_k - 0.4) <= 1e-6
        solve = m.direct_ratio_solve(tab, const)
        assert solve.converged and solve.iterations == 1

        failing = m.direct_ratio_contractive_check(line, halve, 1000, seed=1)
        assert failing.verdict == "fail"
        assert failing.worst_witness["t"] == max(m.DEFAULT_PROBE_TS)


CRITERION_6_CONFIG = """
seed: 23
operators: min-max
space:
  induced: {dimension: 1, base_metric: euclidean}
map:
  affine: {matrix: [[0.5]], offset: [0.4]}
action:
  solve:
    regime: closed_ball
    ball: {center: [0.0], radius: 0.5, time: 1.0}
    k: 0.5
output:
  result: ball_result.json
  trace: ball_trace.csv
  report: ball_report.jsonl
"""


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with verdict("criterion-11", "same seed yields byte-identical files; stored certificate re-verifies"):
        cfg = tmp_path / "ball.yaml"
        cfg.write_text(CRITERION_6_CONFIG)
        for run in ("one", "two"):
            (tmp_path / run).mkdir()
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        for name in ("ball_result.json", "ball_trace.csv", "ball_report.jsonl"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        doc = json.loads((tmp_path / "one" / "ball_result.json").read_text())
        assert doc["status"] == "converged"
        assert main(["validate", str(tmp_path / "one" / "ball_result.json")]) == 0
        capsys.readouterr()
