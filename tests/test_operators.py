import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifmlab import (
    NoWitnessError,
    OperatorPair,
    audit_operator_pair,
    check_idempotent,
    find_separation_witnesses,
    lukasiewicz,
    min_max,
    operator_pair,
    product_probsum,
    unit_scalar,
)
from ifmlab.operators import BLOCK_CELLS, _apply
from ifmlab.report import ClauseResult

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
inner_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)

SHIPPED = [min_max, product_probsum, lukasiewicz]


def test_unit_scalar_accepts_bounds_and_rejects_outside():
    assert unit_scalar(0.0) == 0.0
    assert unit_scalar(1.0) == 1.0
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            unit_scalar(bad)


def test_registry_round_trip():
    for name in ("min-max", "product-probsum", "lukasiewicz"):
        assert operator_pair(name).name == name
    with pytest.raises(ValueError):
        operator_pair("hamacher")


def test_min_max_audit_passes_exactly():
    report = audit_operator_pair(min_max(), 100, tolerance=0.0)
    assert report.passed
    # every axiom clause appears for both operators
    names = {c.clause for c in report.clauses}
    for op in ("tnorm", "tconorm"):
        for axiom in ("commutativity", "associativity", "identity", "monotonicity"):
            assert f"{op}.{axiom}" in names


@pytest.mark.parametrize("factory", SHIPPED)
def test_shipped_pairs_pass_audit(factory):
    assert audit_operator_pair(factory(), 60, tolerance=1e-12).passed


def test_identity_on_the_nose():
    pair = min_max()
    assert float(pair.tnorm(0.7, 1.0)) == 0.7
    assert float(pair.tconorm(0.7, 0.0)) == 0.7


def test_broken_operator_fails_identity_with_zero_witness():
    def broken(a, b):
        return np.minimum(a * b + 0.5, 1.0)

    pair = OperatorPair("broken", broken, np.maximum)
    report = audit_operator_pair(pair, 101, tolerance=1e-12)
    clause = report.clause("tnorm.identity")
    assert not clause.passed
    assert clause.witness["a"] == 0.0
    assert clause.worst == pytest.approx(0.5)


def test_out_of_range_operator_reported_as_range_violation():
    pair = OperatorPair("overflow", lambda a, b: a + b, np.maximum)
    report = audit_operator_pair(pair, 51, tolerance=1e-12)
    clause = report.clause("tnorm.range")
    assert not clause.passed
    assert clause.worst == pytest.approx(1.0)  # 1 + 1 = 2


def test_scalar_valued_operator_is_audited_on_the_whole_grid():
    # each associativity slab is broadcast to its (a, b, c) shape, as the
    # range and identity tables are through _apply
    pair = OperatorPair("constant", lambda a, b: 0.5, np.maximum)
    report = audit_operator_pair(pair, 11, tolerance=1e-12)
    assoc = report.clause("tnorm.associativity")
    assert assoc.passed and assoc.witness == {"a": 0.0, "b": 0.0, "c": 0.0, "violation": 0.0}
    assert not report.clause("tnorm.identity").passed


def test_step_discontinuity_caught_by_modulus_clause():
    def drastic(a, b):
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        out = np.zeros_like(a)
        out[b == 1.0] = a[b == 1.0]
        out[a == 1.0] = b[a == 1.0]
        return out

    report = audit_operator_pair(OperatorPair("drastic", drastic, np.maximum), 101)
    assert not report.clause("tnorm.continuity_modulus").passed


def test_nan_step_fails_monotonicity_and_the_continuity_modulus():
    # +inf on a = 1 at b = 0.5 and 0.52: the step between them along b is
    # inf - inf, a NaN, which Python's max over the two step grids dropped,
    # so monotonicity passed with worst 0.0
    def tnorm(a, b):
        return np.where((a == 1.0) & (b >= 0.5) & (b <= 0.52), np.inf, np.minimum(a, b))

    with np.errstate(invalid="ignore"):
        report = audit_operator_pair(OperatorPair("nan-step", tnorm, np.maximum), 51)
    mono = report.clause("tnorm.monotonicity")
    assert not mono.passed and math.isnan(mono.worst)
    assert (mono.witness["a"], mono.witness["b"]) == (1.0, 0.5) and math.isnan(mono.witness["violation"])
    jump = report.clause("tnorm.continuity_modulus")
    assert not jump.passed and math.isnan(jump.worst)
    assert report.clause("tconorm.monotonicity").passed


def test_idempotency_flags():
    assert check_idempotent(min_max(), 101) == (True, True)
    pair = product_probsum()
    assert check_idempotent(pair, 101) == (False, False)

    mixed = OperatorPair("min-probsum", np.minimum, product_probsum().tconorm)
    assert check_idempotent(mixed, 101) == (True, False)


def test_product_idempotency_worst_witness_at_half():
    from ifmlab.operators import idempotency_witness

    wit_t, wit_s = idempotency_witness(product_probsum(), 101)
    assert wit_t["a"] == pytest.approx(0.5)
    assert wit_t["violation"] == pytest.approx(0.25)  # |0.25 - 0.5|
    assert wit_s["a"] == pytest.approx(0.5)


def test_min_max_witnesses_reverify():
    pair = min_max()
    w = find_separation_witnesses(pair, upper=0.8, lower=0.6, level=0.5)
    assert 0.6 < w.tnorm_partner < 1.0
    assert float(pair.tnorm(0.8, w.tnorm_partner)) > 0.6
    assert float(pair.tconorm(w.tconorm_partner, 0.6)) < 0.8
    assert float(pair.tnorm(w.tnorm_self, w.tnorm_self)) >= 0.5
    assert float(pair.tconorm(w.tconorm_self, w.tconorm_self)) <= 0.5


def test_product_witness_solves_the_threshold():
    pair = product_probsum()
    w = find_separation_witnesses(pair, upper=0.9, lower=0.5, level=0.5)
    assert w.tnorm_partner > 5.0 / 9.0
    assert 0.9 * w.tnorm_partner > 0.5


def test_no_witness_for_degenerate_operator():
    dead = OperatorPair("dead", lambda a, b: np.zeros_like(np.asarray(a, float) * b), np.maximum)
    with pytest.raises(NoWitnessError):
        find_separation_witnesses(dead, upper=0.8, lower=0.6, level=0.5)


def test_witness_preconditions():
    with pytest.raises(ValueError):
        find_separation_witnesses(min_max(), upper=0.5, lower=0.6, level=0.5)
    with pytest.raises(ValueError):
        find_separation_witnesses(min_max(), upper=1.0, lower=0.5, level=0.5)


@pytest.mark.parametrize("factory", SHIPPED)
@given(a=unit, b=unit, c=unit, d=unit)
@settings(max_examples=60, deadline=None)
def test_axioms_pointwise(factory, a, b, c, d):
    pair = factory()
    for op, identity in ((pair.tnorm, 1.0), (pair.tconorm, 0.0)):
        assert float(op(a, b)) == pytest.approx(float(op(b, a)), abs=1e-15)
        lhs = float(op(op(a, b), c))
        rhs = float(op(a, op(b, c)))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert float(op(a, identity)) == pytest.approx(a, abs=1e-15)
        lo_a, hi_a = sorted((a, c))
        lo_b, hi_b = sorted((b, d))
        assert float(op(lo_a, lo_b)) <= float(op(hi_a, hi_b)) + 1e-15
        assert 0.0 <= float(op(a, b)) <= 1.0


def doubles_above(x, count):
    for _ in range(count):
        x = float(np.nextafter(x, 1.0))
    return x


def test_witness_gap_below_double_precision_is_value_error():
    # Over the reals the witness exists; no double c < 1 meets the strict
    # inequality, so this is a precision limit, not a malformed operator.
    with pytest.raises(ValueError, match="closer than double precision"):
        find_separation_witnesses(product_probsum(), doubles_above(1e-6, 1), 1e-6, 0.5)
    # the lukasiewicz partner needs a gap above 2**-53; 1000 doubles at 1e-6 are 2.1e-19
    for gap in (1, 16, 1000):
        with pytest.raises(ValueError, match="closer than double precision"):
            find_separation_witnesses(lukasiewicz(), doubles_above(1e-6, gap), 1e-6, 0.5)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1.0))
def test_lukasiewicz_tnorm_keeps_one_as_its_exact_identity(a):
    # a + b - 1 rounded a to the doubles near 1: tnorm(1e-6, 1) was 1e-6 - 8.2e-17
    assert lukasiewicz().tnorm(a, 1.0) == a


@settings(max_examples=100, deadline=None)
@given(upper=inner_unit)
def test_lukasiewicz_partners_separate_exactly_the_gaps_above_two_to_minus_53(upper):
    # 1 - c is at least 2**-53 for a double c < 1, and upper - 2**-53 is exact
    gap = 2.0**-53
    with pytest.raises(ValueError, match="closer than double precision"):
        find_separation_witnesses(lukasiewicz(), upper, upper - gap, 0.5)
    lower = float(np.nextafter(upper - gap, 0.0))
    witnesses = find_separation_witnesses(lukasiewicz(), upper, lower, 0.5)
    assert lukasiewicz().tnorm(upper, witnesses.tnorm_partner) > lower


@pytest.mark.parametrize("factory", [min_max, product_probsum])
@given(upper=inner_unit, lower=inner_unit, level=inner_unit)
@settings(max_examples=40, deadline=None)
# gaps of 1 and 16 doubles at 1e-6.  The first is widened to 2 doubles, the
# tightest gap the product t-norm partner separates; both need a t-conorm
# partner near 1e-22 to 1e-21, far below the 2**-64 that halving the real
# interval reaches
@example(upper=doubles_above(1e-6, 1), lower=1e-6, level=0.5)
@example(upper=doubles_above(1e-6, 16), lower=1e-6, level=0.5)
def test_witnesses_reverify_for_random_levels(factory, upper, lower, level):
    # documented precondition: lower at least two doubles below upper
    upper, lower = max(upper, lower), min(upper, lower)
    upper = max(upper, doubles_above(lower, 2))
    pair = factory()
    w = find_separation_witnesses(pair, upper, lower, level)
    assert float(pair.tnorm(upper, w.tnorm_partner)) > lower
    assert float(pair.tconorm(w.tconorm_partner, lower)) < upper
    assert float(pair.tnorm(w.tnorm_self, w.tnorm_self)) >= level
    assert float(pair.tconorm(w.tconorm_self, w.tconorm_self)) <= level


def full_table_associativity(op, grid, tolerance):
    """The associativity clause over one (a, b, c) table of grid_size**3
    floats, as the audit computed it before it scanned slabs of a."""
    a3, b3, c3 = grid[:, None, None], grid[None, :, None], grid[None, None, :]
    left = _apply(op, _apply(op, a3, b3), c3)
    right = _apply(op, a3, _apply(op, b3, c3))
    viol = np.abs(left - right)
    idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
    witness = {n: float(grid[i]) for n, i in zip("abc", idx)}
    witness["violation"] = float(viol[idx])
    worst = float(viol.max())
    return ClauseResult("tnorm.associativity", worst <= tolerance, worst, witness)


def audited_associativity(op, grid_size, tolerance=1e-12):
    report = audit_operator_pair(OperatorPair("audited", op, np.maximum), grid_size, tolerance)
    return report.clause("tnorm.associativity")


def planted(base, grid, plants):
    """``base`` with ``op(grid[i], grid[j])`` moved by ``bump`` (NaN plants a NaN)
    for each (u, v, bump) of ``plants``, where i and j are u and v of the grid's length."""
    def op(x, y):
        out = np.asarray(base(x, y), dtype=float)
        for u, v, bump in plants:
            i, j = int(u * (grid.size - 1)), int(v * (grid.size - 1))
            out = np.where((x == grid[i]) & (y == grid[j]), out + bump, out)
        return out
    return op


NAN = float("nan")
PLANT = st.tuples(unit, unit, st.sampled_from([1e-9, 1e-3, 0.5, NAN]))


@given(grid_size=st.integers(2, 60), factory=st.sampled_from(SHIPPED),
       side=st.sampled_from(["tnorm", "tconorm"]), plants=st.lists(PLANT, max_size=3))
@settings(max_examples=80, deadline=None)
@example(grid_size=15, factory=min_max, side="tnorm", plants=[])
@example(grid_size=16, factory=lukasiewicz, side="tconorm", plants=[(0.9, 0.2, 0.5)])
@example(grid_size=17, factory=product_probsum, side="tnorm", plants=[(1.0, 0.5, 1e-3)])
@example(grid_size=32, factory=min_max, side="tconorm",
         plants=[(0.0, 0.3, 0.5), (0.6, 0.1, NAN), (1.0, 0.7, NAN)])
@example(grid_size=33, factory=lukasiewicz, side="tnorm", plants=[(0.5, 0.5, NAN)])
# slabs of BLOCK_CELLS = 2**15 floats: 8 rows that fill grid 64, 3 rows with
# a one-row last slab at 91, one row at 129
@example(grid_size=64, factory=product_probsum, side="tconorm",
         plants=[(0.12, 0.3, 0.5), (0.13, 0.3, 0.5)])
@example(grid_size=91, factory=min_max, side="tnorm", plants=[(0.0, 0.2, 0.5), (1.0, 0.5, NAN)])
@example(grid_size=129, factory=lukasiewicz, side="tconorm",
         plants=[(0.5, 0.5, 1e-3), (0.75, 0.25, NAN)])
def test_slabbed_associativity_matches_the_full_table(grid_size, factory, side, plants):
    grid = np.linspace(0.0, 1.0, grid_size)
    op = planted(getattr(factory(), side), grid, plants)
    assert repr(audited_associativity(op, grid_size)) == repr(full_table_associativity(op, grid, 1e-12))


def row_violations(grid, rows):
    """An operator whose associativity violation is ``rows[i]`` on the whole
    row a = grid[i] and 0 elsewhere.  It maps a marked x = grid[i] to rows[i]
    and any other x to 0.  Row values lie off the grid and grid[0] = 0 is
    never marked, so (a*b)*c is 0, while a*(b*c) is the row value of a."""
    def op(x, y):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        for i, value in rows.items():
            out = np.where(x == grid[i], value, out)
        return out
    return op


@given(grid_size=st.integers(2, 60),
       rows=st.dictionaries(st.integers(1, 59), st.sampled_from([1e-3, 2.0, 5.0, NAN]), max_size=4))
@settings(max_examples=80, deadline=None)
@example(grid_size=15, rows={})
@example(grid_size=16, rows={15: 2.0})
@example(grid_size=17, rows={1: 2.0, 16: 2.0})  # a tie across slabs: the first wins
@example(grid_size=32, rows={3: 5.0, 20: NAN, 31: 5.0})  # a NaN after a larger value
@example(grid_size=33, rows={2: 1e-3, 17: NAN, 32: NAN})  # two NaNs: the first wins
@example(grid_size=64, rows={7: 2.0, 8: 2.0})  # a tie across 8-row slabs
@example(grid_size=90, rows={88: 5.0, 89: NAN})  # both in the part-full last slab
@example(grid_size=91, rows={89: NAN, 90: NAN})  # the second in a one-row last slab
@example(grid_size=129, rows={1: 5.0, 2: NAN, 3: NAN})  # one-row slabs
def test_associativity_witness_is_the_first_worst_row(grid_size, rows):
    grid = np.linspace(0.0, 1.0, grid_size)
    rows = {1 + (i - 1) % (grid_size - 1): value for i, value in rows.items()}
    clause = audited_associativity(row_violations(grid, rows), grid_size)
    assert repr(clause) == repr(full_table_associativity(row_violations(grid, rows), grid, 1e-12))
    values = np.array([rows.get(i, 0.0) for i in range(grid_size)])
    first = int(np.argmax(values))  # the first NaN, else the first largest
    assert repr(clause.worst) == repr(float(values[first]))
    assert [clause.witness[n] for n in "abc"] == [grid[first], 0.0, 0.0]


def reference_max_clause(clause, viol, grid, names, tolerance, offset=0):
    """The operator audit's clause builder before every clause went through
    one fold: one argmax over ``viol``, whose first axis starts at grid index
    ``offset``, and its maximum as the worst."""
    idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
    witness = {n: float(grid[i]) for n, i in zip(names, (idx[0] + offset, *idx[1:]))}
    witness["violation"] = float(viol[idx])
    worst = float(viol.max())
    return ClauseResult(clause=clause, passed=worst <= tolerance, worst=worst, witness=witness)


def reference_slab_associativity(label, op, grid, tolerance):
    """The associativity clause as the audit scanned its slabs of a through
    ``_apply``, before the slabs called the operator directly."""
    a = grid[:, None]
    table = _apply(op, a, grid[None, :])
    assoc = None
    rows = max(1, BLOCK_CELLS // grid.size**2)
    buf = np.empty((min(rows, grid.size), grid.size, grid.size))
    for lo in range(0, grid.size, rows):
        viol = buf[:grid.size - lo]
        np.subtract(_apply(op, table[lo:lo + rows, :, None], grid),
                    _apply(op, a[lo:lo + rows, :, None], table), out=viol)
        np.abs(viol, out=viol)
        if assoc is None or not (np.isnan(assoc.worst) or viol.max() <= assoc.worst):
            assoc = reference_max_clause(f"{label}.associativity", viol, grid, "abc", tolerance, lo)
    return assoc


INF = float("inf")


# grids of one 2-row slab (2), one 3-row slab (3), 4-row slabs with a
# part-full last slab (90), a one-row slab (181) and 200
@given(grid_size=st.sampled_from([2, 3, 90, 181, 200]) | st.integers(2, 60),
       factory=st.sampled_from(SHIPPED),
       plants=st.lists(st.tuples(unit, unit, st.sampled_from([0.5, NAN, INF, -INF])), max_size=3))
@settings(max_examples=40, deadline=None)
@example(grid_size=90, factory=min_max, plants=[(0.99, 0.2, INF), (1.0, 0.5, NAN)])
@example(grid_size=181, factory=product_probsum, plants=[(0.5, 0.5, -INF), (0.75, 0.25, INF)])
@example(grid_size=200, factory=lukasiewicz, plants=[(0.1, 0.1, 0.5), (0.9, 0.1, 0.5)])
@example(grid_size=2, factory=min_max, plants=[(1.0, 1.0, NAN)])
@example(grid_size=3, factory=product_probsum, plants=[(0.5, 1.0, -INF)])
def test_direct_slab_calls_match_the_apply_reference(grid_size, factory, plants):
    grid = np.linspace(0.0, 1.0, grid_size)
    pair = factory()
    ops = {label: planted(getattr(pair, label), grid, plants) for label in ("tnorm", "tconorm")}
    with np.errstate(all="ignore"):
        report = audit_operator_pair(OperatorPair("planted", ops["tnorm"], ops["tconorm"]), grid_size)
        for label, op in ops.items():
            clause = report.clause(f"{label}.associativity")
            assert repr(clause) == repr(reference_slab_associativity(label, op, grid, 1e-12))


@pytest.mark.parametrize("name", ["min-max", "product-probsum", "lukasiewicz"])
def test_operator_audit_memory_stays_bounded(name):
    # the full (a, b, c) tables of one grid-200 clause peaked at 245 MiB, and
    # 16-row slabs at 21.5 MiB
    tracemalloc.start()
    try:
        audit_operator_pair(operator_pair(name), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
