"""Triangular norms and conorms on the unit interval.

An :class:`OperatorPair` bundles a t-norm (graded conjunction, identity 1)
with a t-conorm (graded disjunction, identity 0).  Both are audited on
uniform grids: commutativity, associativity, identity element, and joint
monotonicity, plus a range check and a finite-difference continuity
modulus.  Pointwise continuity itself is neither falsifiable nor
certifiable from samples: the modulus check only catches jumps larger than
a few grid steps, and a successful search in
:func:`find_separation_witnesses` only shows that a witness exists for the
given inputs.

Shipped pairs: ``min-max`` (the only idempotent pair), ``product-probsum``,
and ``lukasiewicz``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import AuditReport, ClauseResult, _fold_worst

BinaryOp = Callable[[np.ndarray, np.ndarray], np.ndarray]

DEFAULT_AUDIT_TOLERANCE = 1e-12
# Floats (256 KiB) per block of a bulk audit pass, to stay in cache
BLOCK_CELLS = 2**15


class NoWitnessError(RuntimeError):
    """Raised when a witness search fails for a reason other than precision.

    Over the reals, operators satisfying the identity, continuity and
    monotonicity axioms always have the witnesses, so this cannot happen for
    them.  In double precision it is raised when the operator misses its
    identity at the end of a search (a malformed operator) or the bisection
    budget runs out; inputs that a well-formed operator cannot separate in
    double precision raise :class:`ValueError` instead.
    """


def unit_scalar(value: float, name: str = "value") -> float:
    """Validate and return a scalar in [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


@dataclass
class OperatorPair:
    """A named t-norm/t-conorm pair.

    The callables must accept numpy arrays and broadcast them (scalar
    inputs also work).
    """

    name: str
    tnorm: BinaryOp
    tconorm: BinaryOp

    def __repr__(self) -> str:  # keep reports compact
        return f"OperatorPair({self.name!r})"


def min_max() -> OperatorPair:
    return OperatorPair("min-max", np.minimum, np.maximum)


def product_probsum() -> OperatorPair:
    def probsum(a, b):
        return a + b - a * b

    return OperatorPair("product-probsum", np.multiply, probsum)


def lukasiewicz() -> OperatorPair:
    def luk_norm(a, b):
        # a - (1 - b), not a + b - 1: 1 - b is exact for b in [0.5, 1], so tnorm(a, 1) is a
        return np.maximum(a - (1.0 - b), 0.0)

    def luk_conorm(a, b):
        return np.minimum(a + b, 1.0)

    return OperatorPair("lukasiewicz", luk_norm, luk_conorm)


OPERATOR_FACTORIES: dict[str, Callable[[], OperatorPair]] = {
    "min-max": min_max,
    "product-probsum": product_probsum,
    "lukasiewicz": lukasiewicz,
}


def operator_pair(name: str) -> OperatorPair:
    """Look up a shipped operator pair by name."""
    try:
        return OPERATOR_FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(OPERATOR_FACTORIES))
        raise ValueError(f"unknown operator pair {name!r} (known: {known})") from None


def _apply(op: BinaryOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply ``op`` to broadcast arrays; the result has their broadcast shape."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    return np.broadcast_to(np.asarray(op(a, b), dtype=float), shape)


def _max_clause(clause: str, held: tuple, grid: np.ndarray, names: str, tolerance: float) -> ClauseResult:
    """Clause that passes iff the held worst entry ``(value, i, …)`` is within
    tolerance; its witness is the grid argument at each index, one per letter
    of ``names``, and the value."""
    value, *idx = held
    witness = {n: float(grid[i]) for n, i in zip(names, idx)}
    witness["violation"] = value
    return ClauseResult(clause, passed=value <= tolerance, worst=max(value, 0.0), witness=witness)


def _audit_one_operator(
    label: str, op: BinaryOp, identity: float, grid: np.ndarray, tolerance: float
) -> list[ClauseResult]:
    worst: dict[str, tuple] = {}
    a = grid[:, None]
    b = grid[None, :]
    table = _apply(op, a, b)

    # Range: values outside [0, 1] signal a malformed operator, not an
    # axiom failure, but they invalidate everything downstream.
    _fold_worst(worst, "range", np.maximum(np.maximum(table - 1.0, 0.0), np.maximum(-table, 0.0)))
    _fold_worst(worst, "commutativity", np.abs(table - table.T))

    # Associativity, (a*b)*c against a*(b*c) with the table as both inner
    # applications, over slabs of a of about BLOCK_CELLS floats, calling op
    # directly; numpy allocates each slab (a kept buffer cost page faults), and
    # it is broadcast to its (a, b, c) shape, as an op may return a scalar.
    rows = max(1, BLOCK_CELLS // grid.size**2)
    for lo in range(0, grid.size, rows):
        viol = np.abs(np.asarray(op(table[lo:lo + rows, :, None], grid), dtype=float)
                      - np.asarray(op(a[lo:lo + rows, :, None], table), dtype=float))
        _fold_worst(worst, "associativity",
                    np.broadcast_to(viol, (min(rows, grid.size - lo), grid.size, grid.size)), lo)

    _fold_worst(worst, "identity", np.abs(_apply(op, grid, np.full_like(grid, identity)) - grid))

    # Monotonicity in both arguments reduces to monotonicity along adjacent
    # grid steps: any a <= c, b <= d decomposes into such steps.  The
    # continuity modulus takes a step's absolute value as its jump: jumps
    # between adjacent grid points must stay a small multiple of the grid
    # step.  It catches genuine discontinuities; it cannot certify pointwise
    # continuity.
    for step in (table[:-1, :] - table[1:, :], table[:, :-1] - table[:, 1:]):
        _fold_worst(worst, "monotonicity", step)
        _fold_worst(worst, "continuity_modulus", np.abs(step))

    clauses = [_max_clause(f"{label}.{name}", worst[name], grid, names, tolerance)
               for name, names in (("range", "ab"), ("commutativity", "ab"), ("associativity", "abc"),
                                   ("identity", "a"), ("monotonicity", "ab"))]
    if not clauses[0].passed:
        clauses[0].note = "operator returned a value outside [0, 1]"
    bound = 4.0 * (grid[1] - grid[0]) + tolerance
    jump = worst["continuity_modulus"][0]
    return clauses + [ClauseResult(f"{label}.continuity_modulus", passed=jump <= bound, worst=jump,
                                   witness={"bound": float(bound)},
                                   note=f"max adjacent-grid jump vs bound {bound:.3g}")]


def audit_operator_pair(
    pair: OperatorPair, grid_size: int, tolerance: float = DEFAULT_AUDIT_TOLERANCE
) -> AuditReport:
    """Audit both operators of ``pair`` on a uniform grid over [0, 1].

    Produces one clause per axiom (commutativity, associativity, identity,
    monotonicity) and per operator, each with the maximum observed
    violation and the grid arguments achieving it (the first worst in
    (a, b, c) order, a NaN above any value), plus range and
    continuity-modulus clauses.  Memory is O(grid_size**2) floats: the
    associativity clause scans slabs of ``max(1, BLOCK_CELLS //
    grid_size**2)`` rows of a, and grid_size 200 peaks at 1.53 MiB.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    grid = np.linspace(0.0, 1.0, grid_size)
    clauses = _audit_one_operator("tnorm", pair.tnorm, 1.0, grid, tolerance)
    clauses += _audit_one_operator("tconorm", pair.tconorm, 0.0, grid, tolerance)
    return AuditReport(subject=pair.name, clauses=clauses)


def check_idempotent(
    pair: OperatorPair, grid_size: int = 101, tolerance: float = DEFAULT_AUDIT_TOLERANCE
) -> tuple[bool, bool]:
    """Test a(op)a = a for both operators on a grid, within ``tolerance``."""
    return idempotent_within(idempotency_witness(pair, grid_size), tolerance)


def idempotency_witness(
    pair: OperatorPair, grid_size: int = 101
) -> tuple[dict | None, dict | None]:
    """Worst idempotency violations (or ``None`` for a clean operator).

    A witness's ``violation`` is the largest ``|a (op) a - a|`` on the grid.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    grid = np.linspace(0.0, 1.0, grid_size)
    out = []
    for op in (pair.tnorm, pair.tconorm):
        gap = np.abs(_apply(op, grid, grid) - grid)
        i = int(np.argmax(gap))
        out.append(None if gap[i] == 0.0 else {"a": float(grid[i]), "violation": float(gap[i])})
    return out[0], out[1]


def idempotent_within(
    witnesses: tuple[dict | None, dict | None], tolerance: float = DEFAULT_AUDIT_TOLERANCE
) -> tuple[bool, bool]:
    """Idempotency flags of both operators from their :func:`idempotency_witness`
    results: an operator is idempotent when its violation is within ``tolerance``."""
    return tuple(w is None or w["violation"] <= tolerance for w in witnesses)


@dataclass(frozen=True)
class SeparationWitnesses:
    """Unit-interval scalars witnessing the separation properties.

    Given ``upper > lower`` and a ``level`` in (0, 1):

    - ``tnorm_partner``   combines with ``upper`` to stay above ``lower``;
    - ``tconorm_partner`` combines with ``lower`` to stay below ``upper``;
    - ``tnorm_self``      combined with itself stays at or above ``level``;
    - ``tconorm_self``    combined with itself stays at or below ``level``.

    The partner conditions are strict (``>`` and ``<``).  The IFM
    literature usually states the separation conditions non-strictly (Park
    2004: ``r1 * r3 >= r2``); the paper's abstract does not settle which
    form it uses, and this library keeps the strict one.
    """

    tnorm_partner: float
    tconorm_partner: float
    tnorm_self: float
    tconorm_self: float


# Positive doubles order like their IEEE-754 bit patterns read as int64, so
# bisecting the integers in (0, _ONE_BITS) bisects the doubles of (0, 1):
# each step halves the number of doubles left, and 62 steps reach any one.
_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bisect_doubles(
    predicate: Callable[[float], bool], smallest: bool, iterations: int
) -> tuple[float | None, bool]:
    """Bisect a monotone predicate over the doubles of (0, 1).

    Looks for the smallest double with the predicate true (``smallest``) or
    the largest.  Returns the last double found true, or ``None``, and
    whether the search narrowed to adjacent doubles within ``iterations``.
    """
    lo, hi = 0, _ONE_BITS  # exclusive ends: 0.0 and 1.0
    witness = None
    for _ in range(iterations):
        if hi - lo <= 1:
            break
        mid = (lo + hi) // 2
        holds = predicate(_double(mid))
        if holds:
            witness = mid
        if holds == smallest:
            hi = mid
        else:
            lo = mid
    return (None if witness is None else _double(witness)), hi - lo <= 1


def find_separation_witnesses(
    pair: OperatorPair,
    upper: float,
    lower: float,
    level: float,
    iterations: int = 64,
) -> SeparationWitnesses:
    """Locate the four separation witnesses by monotone bisection.

    Requires ``upper > lower``, all three inputs strictly inside (0, 1).
    Any witness satisfying its defining inequality is acceptable; the
    bisection runs over the doubles of (0, 1) and returns one near the
    boundary of the witness set.

    The contract holds in double precision.  Over the reals a continuous
    monotone pair always has the witnesses: each defining inequality holds
    at the end of [0, 1] where the identity law applies, and so, by
    continuity, just inside it.  Inputs can still be closer than
    double precision can separate: for ``product-probsum`` with ``lower``
    one double below ``upper``, no double ``c < 1`` gives
    ``upper * c > lower``.  When the operator meets its identity at that
    end (within :data:`DEFAULT_AUDIT_TOLERANCE`) but no double satisfies
    the inequality, :class:`ValueError` is raised.  A search that fails
    otherwise raises :class:`NoWitnessError`, which for a continuous
    monotone pair cannot happen over the reals.

    The partner witnesses of ``product-probsum`` exist in double precision
    for any ``lower`` at least two doubles below ``upper``, and those of
    ``min-max`` for any ``lower < upper``; ``lukasiewicz`` computes
    ``a - (1 - c)``, where ``1 - c`` is at least 2**-53 for a double
    ``c < 1``, so its partners exist exactly when ``upper - lower`` exceeds
    2**-53 (about 1.1e-16).
    """
    upper = unit_scalar(upper, "upper")
    lower = unit_scalar(lower, "lower")
    level = unit_scalar(level, "level")
    if not (0.0 < upper < 1.0 and 0.0 < lower < 1.0 and 0.0 < level < 1.0):
        raise ValueError("upper, lower and level must lie strictly inside (0, 1)")
    if upper <= lower:
        raise ValueError(f"need upper > lower, got {upper} <= {lower}")

    tnorm = pair.tnorm
    tconorm = pair.tconorm

    # name, whether the smallest witness is sought (so the identity end is
    # c = 1) or the largest (end c = 0), the combination of c, its value at
    # that end by the identity law, and the defining inequality
    searches = [
        ("tnorm_partner", True, lambda c: tnorm(upper, c), upper, lambda v: v > lower),
        ("tconorm_partner", False, lambda c: tconorm(c, lower), lower, lambda v: v < upper),
        ("tnorm_self", True, lambda c: tnorm(c, c), 1.0, lambda v: v >= level),
        ("tconorm_self", False, lambda c: tconorm(c, c), 0.0, lambda v: v <= level),
    ]
    found: dict[str, float] = {}
    for name, smallest, combine, limit, holds in searches:
        witness, exhausted = _bisect_doubles(
            lambda c: holds(float(combine(c))), smallest, iterations
        )
        if witness is not None:
            found[name] = witness
            continue
        end = 1.0 if smallest else 0.0
        if exhausted and abs(float(combine(end)) - limit) <= DEFAULT_AUDIT_TOLERANCE:
            raise ValueError(
                f"no double in (0, 1) is a {name} witness for pair {pair.name!r} at "
                f"upper={upper!r}, lower={lower!r}, level={level!r}: the inputs are "
                "closer than double precision can separate"
            )
        raise NoWitnessError(
            f"no {name} witness found for pair {pair.name!r} within "
            f"{iterations} bisection steps; the operator likely violates "
            "continuity, monotonicity or its identity"
        )
    return SeparationWitnesses(**found)
