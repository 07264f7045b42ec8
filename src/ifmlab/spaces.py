"""Intuitionistic fuzzy metric spaces: constructors, audits, and probes.

A space assigns every pair of points and every time parameter ``t > 0`` a
degree of nearness ``mu`` and a degree of non-nearness ``nu``, tied to an
idempotent t-norm/t-conorm pair.  Two constructors ship:

- :func:`induced_from_metric` lifts a classical metric ``d`` on a
  coordinate domain via ``mu = t / (t + d)`` and ``nu = 1 - mu``;
- :func:`finite_tabulated` builds desk-scale spaces from per-pair curves
  over ``t``.

The twelve defining clauses plus the monotonicity-in-``t`` facts are not
machine-checkable as stated (they quantify over all points and all
``t > 0``), so :func:`axiom_audit` checks them on seeded samples and a
finite ``t`` grid and reports per-clause worst-case witnesses.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .operators import BLOCK_CELLS, OperatorPair, idempotency_witness, idempotent_within, unit_scalar
from .report import AuditReport, ClauseResult, _fold_worst, _outranks

# Geometric grid spanning two decades; the finite stand-in for "all t > 0".
DEFAULT_PROBE_TS: tuple[float, ...] = tuple(0.1 * 2.0**i for i in range(10))

DEFAULT_AUDIT_BOX_HALFWIDTH = 5.0
DEFAULT_HALFWIDTH = 8.0  # of the sampling box when none is given
MIN_SEPARATION_FRACTION = 1e-4
MAX_SEPARATION_FRACTION = 0.5

BASE_METRICS = ("euclidean", "chebyshev", "absolute-difference")
# numpy sums a contiguous run of fewer floats than this left to right, and a
# longer one pairwise
_PAIRWISE_SUM_LENGTH = 8

# Continuity in t is judged by the largest jump of mu or nu between
# neighbours of a grid that splits each probe interval this many times.
CONTINUITY_BOUND = 0.25
CONTINUITY_REFINEMENT = 16


def time_parameter(t: float, name: str = "t") -> float:
    """Validate and return a finite, strictly positive time parameter."""
    v = float(t)
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError(f"{name} must be finite and strictly positive, got {t!r}")
    return v


def probe_grid(ts: Iterable[float] | None) -> np.ndarray:
    """Normalize a probe grid: finite, positive, strictly increasing."""
    arr = np.asarray(list(DEFAULT_PROBE_TS if ts is None else ts), dtype=float)
    if arr.size == 0:
        raise ValueError("probe grid must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probe times must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("probe times must be strictly positive")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("probe times must be strictly increasing")
    return arr


class DomainEscapeError(RuntimeError):
    """A self-map produced a point outside its space's domain."""

    def __init__(self, message: str, point=None, index: int | None = None):
        super().__init__(message)
        self.point = point
        self.index = index


class NonFiniteImageError(DomainEscapeError):
    """A map sent a coordinate point to a non-finite image (overflow)."""


class MembershipPair(NamedTuple):
    """Degrees of nearness and non-nearness for one evaluation."""

    mu: float
    nu: float


@dataclass(frozen=True)
class CoordinateSpace:
    """Real coordinate domain with a base metric."""

    dimension: int
    base_metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.base_metric not in BASE_METRICS:
            raise ValueError(
                f"unknown base metric {self.base_metric!r} (known: {', '.join(BASE_METRICS)})"
            )

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Base-metric distances over the last axis of two points or batches:
        per-coordinate columns folded left to right, as ``sum(axis=-1)`` adds
        fewer than 8 floats (from 8 on, numpy's pairwise sum stays), bit for bit."""
        x, y = np.asarray(x, float), np.asarray(y, float)
        euclidean = self.base_metric == "euclidean"
        if self.dimension >= _PAIRWISE_SUM_LENGTH and self.base_metric != "chebyshev":
            delta = np.abs(x - y)
            total = (delta * delta if euclidean else delta).sum(axis=-1)
        else:
            columns = (np.abs(x[..., i] - y[..., i]) for i in range(self.dimension))
            fold = np.maximum if self.base_metric == "chebyshev" else np.add
            total = functools.reduce(fold, (c * c for c in columns) if euclidean else columns)
        return np.sqrt(total) if euclidean else total  # absolute-difference: |x - y| on the line

    def read(self, points) -> np.ndarray:
        """A sequence of points as an ``(n, dim)`` float array; a point is ``dim``
        finite numbers or a bare number on a line, and a ValueError names the first bad one."""
        return self._floats(points, 2)

    def as_point(self, p: Any) -> np.ndarray:
        """One point as a ``(dim,)`` array, read as :meth:`read` reads each point."""
        return self._floats(p, 1)

    def image(self, value: Any) -> np.ndarray:
        """A map's image of one point, read as a point is: a wrong shape is a
        DomainEscapeError and a non-finite coordinate (an overflow) a
        NonFiniteImageError."""
        return self._floats(value, 1, image=True)

    def apply(self, fn: Callable, points) -> np.ndarray:
        """The checked images under ``fn`` of a point sequence, mapped in one call."""
        points = self.read(points)
        return self._floats(fn(points), 2, len(points), image=True)

    def _floats(self, values, rank: int, count: int | None = None, image: bool = False) -> np.ndarray:
        """``values`` as floats of ``rank`` 1 (one point) or 2 (a sequence, of
        ``count`` points when given), raising as :meth:`read` says, or as
        :meth:`image` says for a map's images; a finite float64 array of the
        right shape comes back as the same object, as ``np.asarray`` returns it."""
        def misfit(message: str) -> Exception:
            return DomainEscapeError(message, point=values) if image else ValueError(message)

        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise misfit(f"expected coordinates: {exc}") from None
        if self.dimension == 1 and arr.ndim == rank - 1:  # bare numbers on a line
            arr = arr[..., None]
        shape = (*(() if rank == 1 else arr.shape[:1] if count is None else (count,)), self.dimension)
        if arr.shape != shape:
            raise misfit(f"expected {'image' if image else 'point'} shape {shape}, got {arr.shape}")
        if not np.isfinite(arr).all():  # the row scan below only names the first bad row
            i = None if rank == 1 else int(np.argmin(np.isfinite(arr).all(axis=-1)))
            row, at = (arr, "") if i is None else (arr[i], f" {i}")
            if image:
                raise NonFiniteImageError(f"image{at} {row.tolist()} left the coordinate domain",
                                          point=row, index=i)
            raise ValueError(f"point{at} coordinates must be finite, got {row.tolist()}")
        return arr

    def batch(self, points) -> np.ndarray:
        """One point or a sequence of points as an unchecked ``(n, dim)`` batch."""
        return np.asarray(points, dtype=float).reshape(-1, self.dimension)

    def draw(self, rng: np.random.Generator, count: int, box) -> np.ndarray:
        """``count`` audit points, uniform over ``box``."""
        with np.errstate(over="ignore"):
            if not np.isfinite(np.subtract(box[1], box[0])).all():
                raise ValueError("sampling box must have a finite width")
        return rng.uniform(*box, (count, self.dimension))

    @staticmethod
    def distinct(xs, ys) -> np.ndarray:
        """Whether each pair of two row batches of points differs: any coordinate
        ``!=`` (``-0.0`` equals ``0.0``, NaN equals nothing), column by column;
        a ValueError for an input of rank below 2."""
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        if min(xs.ndim, ys.ndim) < 2:
            raise ValueError(f"distinct takes row batches of points, got shapes {xs.shape} and {ys.shape}")
        return functools.reduce(np.logical_or, (xs[..., i] != ys[..., i] for i in range(xs.shape[-1])))

    def default_start(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def box(self, halfwidth: float, center=None) -> tuple[np.ndarray, np.ndarray]:
        """Box of ``halfwidth`` around ``center`` (default the origin)."""
        c = np.zeros(self.dimension) if center is None else np.asarray(center, float)
        return c - halfwidth, c + halfwidth

    def pairs(self, count: int, seed: int, box=None) -> tuple[np.ndarray, np.ndarray]:
        """Distinct point pairs with log-uniform separation scales.

        Base points are uniform over the box; partners sit at a random
        direction and a separation drawn log-uniformly between 1e-4 and 0.5 of
        the box width, so ratio checks see both near and far pairs.  Partners
        may fall slightly outside the box (the domain is the whole space).
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        low, high = box if box is not None else (-DEFAULT_HALFWIDTH, DEFAULT_HALFWIDTH)
        low = np.broadcast_to(np.asarray(low, float), (self.dimension,))
        high = np.broadcast_to(np.asarray(high, float), (self.dimension,))
        with np.errstate(over="ignore"):  # an infinite width is refused below
            width = float(np.max(high - low))
        if width <= 0:
            raise ValueError("sampling box must have positive width")
        if not 0.0 < MIN_SEPARATION_FRACTION * width < math.inf:
            raise ValueError(f"sampling box must have a finite width that separates pairs, got {width!r}")
        rng = np.random.default_rng(seed)
        base = rng.uniform(low, high, (count, self.dimension))
        directions = rng.normal(size=(count, self.dimension))
        if self.dimension >= _PAIRWISE_SUM_LENGTH:
            norms = np.linalg.norm(directions, axis=1)
        else:  # the same sums, left to right, column by column (see distance)
            norms = np.sqrt(functools.reduce(np.add, (c * c for c in directions.T)))
        norms[norms == 0.0] = 1.0
        log_lo = np.log(MIN_SEPARATION_FRACTION * width)
        log_hi = np.log(MAX_SEPARATION_FRACTION * width)
        separations = np.exp(rng.uniform(log_lo, log_hi, count))
        for partner, b in zip(directions.T, base.T):  # base + separation * unit direction
            partner /= norms
            partner *= separations
            partner += b
        return base, directions


@dataclass(frozen=True)
class Curve:
    """Value over ``t``: constant, or linear between breakpoints.

    Extends constantly beyond the first and last breakpoints, which
    preserves monotonicity and continuity by construction.
    """

    ts: tuple[float, ...]
    values: tuple[float, ...]

    @classmethod
    def from_spec(cls, spec: Any) -> "Curve":
        if isinstance(spec, Curve):
            return spec
        if isinstance(spec, (int, float)):
            return cls((1.0,), (float(spec),))
        points = [(time_parameter(t, "breakpoint t"), float(v)) for t, v in spec]
        ts = tuple(t for t, _ in points)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("curve breakpoints must have strictly increasing t")
        return cls(ts, tuple(v for _, v in points))

    def __call__(self, t):
        return np.interp(t, self.ts, self.values)

    def is_monotone(self, direction: str) -> bool:
        v = self.values
        if direction == "nondecreasing":
            return all(b - a >= 0.0 for a, b in zip(v, v[1:]))
        return all(b - a <= 0.0 for a, b in zip(v, v[1:]))


class FiniteTabulated:
    """Finite point set with tabulated nearness curves per unordered pair.

    ``pairwise`` maps label pairs to ``(mu_curve, nu_curve)``; each curve is
    a constant or a list of ``(t, value)`` breakpoints.  Construction
    rejects missing pairs, out-of-range values, nearness curves that
    decrease in ``t``, and non-nearness curves that increase in ``t``.
    """

    def __init__(self, labels: Sequence[str], pairwise: dict[tuple[str, str], tuple[Any, Any]]):
        labels = list(labels)
        if not labels:
            raise ValueError("at least one label is required")
        if not all(isinstance(label, str) for label in labels):
            raise ValueError("labels must be strings")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        self.labels = labels
        self.label_array = np.asarray(labels, dtype=object)
        self.index = {lab: i for i, lab in enumerate(labels)}

        curves: dict[tuple[int, int], tuple[Curve, Curve]] = {}
        for (a, b), (mu_spec, nu_spec) in pairwise.items():
            if a not in self.index or b not in self.index:
                raise ValueError(f"pair ({a!r}, {b!r}) references an unknown label")
            if a == b:
                raise ValueError(f"pair data for coincident labels ({a!r}, {a!r}) is not allowed")
            key = tuple(sorted((self.index[a], self.index[b])))
            if key in curves:
                raise ValueError(f"duplicate data for pair ({a!r}, {b!r})")
            mu_curve = Curve.from_spec(mu_spec)
            nu_curve = Curve.from_spec(nu_spec)
            if not all(0.0 < v <= 1.0 for v in mu_curve.values):
                raise ValueError(f"nearness values for pair ({a!r}, {b!r}) must lie in (0, 1]")
            if not all(0.0 <= v < 1.0 for v in nu_curve.values):
                raise ValueError(f"non-nearness values for pair ({a!r}, {b!r}) must lie in [0, 1)")
            if not mu_curve.is_monotone("nondecreasing"):
                raise ValueError(f"nearness curve for pair ({a!r}, {b!r}) must be nondecreasing in t")
            if not nu_curve.is_monotone("nonincreasing"):
                raise ValueError(f"non-nearness curve for pair ({a!r}, {b!r}) must be nonincreasing in t")
            curves[key] = (mu_curve, nu_curve)

        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if (i, j) not in curves:
                    raise ValueError(f"missing curve data for pair ({labels[i]!r}, {labels[j]!r})")
        self.pair_curves = curves

    def read(self, points) -> np.ndarray:
        """A sequence of labels as an ``(n,)`` object array; a point is a
        known string, and a ValueError names the first that is not."""
        return self.label_array[self.indices(np.fromiter(points, object, len(points)))]

    def as_point(self, p: Any) -> str:
        """One label, read as :meth:`read` reads each point."""
        return self.read([p])[0]

    def image(self, value: Any) -> str:
        """A map's image of one label; a DomainEscapeError unless it is a known label."""
        try:
            return self.as_point(value)
        except ValueError as exc:
            raise DomainEscapeError(f"image {value!r} is not a domain label", point=value) from exc

    def apply(self, fn: Callable, points) -> np.ndarray:
        """The checked images under ``fn`` of a label sequence, mapped one label at a time."""
        return np.asarray([self.image(fn(p)) for p in self.read(points)], dtype=object)

    def indices(self, points) -> np.ndarray:
        """The index of each label of ``points``, an array of any shape; a
        ValueError names the first entry that is not a known string."""
        labels = np.asarray(points, dtype=object)
        flat = labels.ravel()
        try:
            return np.fromiter(map(self.index.__getitem__, flat), int, flat.size).reshape(labels.shape)
        except (KeyError, TypeError):
            bad = next(p for p in flat if not isinstance(p, str) or p not in self.index)
            raise ValueError(f"unknown label {bad!r}") from None

    def batch(self, points) -> np.ndarray:
        """One label or a sequence of labels as an unchecked ``(n,)`` batch."""
        return np.asarray([points] if isinstance(points, str) else points, dtype=object)

    def draw(self, rng: np.random.Generator, count: int, box=None) -> np.ndarray:
        """``count`` audit points, uniform over the labels."""
        return self.label_array[rng.integers(0, len(self.labels), count)]

    @staticmethod
    def distinct(xs, ys) -> np.ndarray:
        """Whether each pair of two row batches of labels differs; a ValueError for a bare label."""
        if isinstance(xs, str) or isinstance(ys, str):
            raise ValueError("distinct takes row batches of labels, not a bare label")
        return np.asarray([a != b for a, b in zip(xs, ys)], bool)

    def default_start(self) -> str:
        return self.labels[0]

    def box(self, halfwidth: float, center=None) -> None:
        """No box: labels are drawn from the whole domain."""
        return None

    def pairs(self, count: int, seed: int, box=None) -> tuple[np.ndarray, np.ndarray]:
        """Distinct label pairs over every label, as :func:`label_pairs` draws them."""
        return label_pairs(self.labels, count, seed)


def label_pairs(labels, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ordered label pairs, uniform with replacement."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(labels) < 2:
        raise ValueError("need at least two labels to sample distinct pairs")
    rng = np.random.default_rng(seed)
    arr = np.asarray(labels, dtype=object)
    xi = rng.integers(0, len(labels), count)
    offset = rng.integers(1, len(labels), count)
    yi = (xi + offset) % len(labels)
    return arr[xi], arr[yi]


PointDomain = CoordinateSpace | FiniteTabulated


@dataclass
class IfmSpace:
    """A point domain with nearness/non-nearness evaluators and operators.

    ``membership(x, y, t)`` is the kernel.  :func:`membership_grid` calls
    it once per grid, with point batches of shape ``(n, 1)`` (``(n, 1,
    dim)`` floats for coordinate domains, ``(n, 1)`` labels for tabulated
    ones; either side may have ``n = 1``) against a ``(k,)`` time vector.
    It returns ``(mu, nu)`` of shape ``(n, k)``, or arrays that broadcast
    to it, in any memory layout (the induced kernel's are pair-contiguous).
    Spaces are immutable after construction and all evaluation is pure.
    """

    domain: PointDomain
    operators: OperatorPair
    membership: Callable[[Any, Any, Any], tuple[np.ndarray, np.ndarray]]
    base_distance: Callable[[Any, Any], np.ndarray] | None = None
    description: str = ""

    def mu_nu(self, x, y, t):
        return self.membership(x, y, t)


def point_jsonable(p):
    if p is None or isinstance(p, str):
        return p
    return [float(v) for v in np.atleast_1d(np.asarray(p, dtype=float))]


def require_idempotent(operators: OperatorPair) -> None:
    """Raise ValueError, naming the worst witnesses, unless both operators are idempotent."""
    wit_t, wit_s = witnesses = idempotency_witness(operators)
    if not all(idempotent_within(witnesses)):
        raise ValueError(
            f"operator pair {operators.name!r} is not idempotent "
            f"(tnorm witness {wit_t}, tconorm witness {wit_s}); "
            "spaces require idempotent operators"
        )


def induced_from_metric(domain: CoordinateSpace, operators: OperatorPair) -> IfmSpace:
    """Space induced by a base metric: ``mu = t/(t+d)``, ``nu = 1 - mu``.

    ``nu`` is computed as the exact floating-point complement of ``mu``,
    so ``mu + nu == 1`` holds bit-exactly (a constructor identity stronger
    than the bounded-sum clause).  Requires idempotent operators.
    """
    if not isinstance(domain, CoordinateSpace):
        raise TypeError("induced_from_metric needs a CoordinateSpace domain")
    require_idempotent(operators)

    def membership(x, y, t):
        t = np.asarray(t, dtype=float)
        mu = np.divide(t, np.add(t, domain.distance(x, y), order="F"), order="F")  # pair-contiguous
        return mu, 1.0 - mu

    return IfmSpace(
        domain=domain,
        operators=operators,
        membership=membership,
        base_distance=domain.distance,
        description=f"induced({domain.base_metric}, dim={domain.dimension})",
    )


def finite_tabulated(domain: FiniteTabulated, operators: OperatorPair) -> IfmSpace:
    """Space evaluating by table lookup and interpolation in ``t``.

    Coincident labels are hard-wired to ``(1, 0)``.  Requires idempotent
    operators; pair coverage and curve monotonicity were already enforced
    when the domain was built.  Each call interpolates only the curves of
    the pairs it is given, once per curve for the whole time vector.
    """
    if not isinstance(domain, FiniteTabulated):
        raise TypeError("finite_tabulated needs a FiniteTabulated domain")
    require_idempotent(operators)

    # curves[pair_id[i, j]] are the (mu, nu) curves of labels i and j; id 0
    # is the coincident pair
    curves = [(Curve((1.0,), (1.0,)), Curve((1.0,), (0.0,))), *domain.pair_curves.values()]
    pair_id = np.zeros((len(domain.labels), len(domain.labels)), dtype=int)
    for p, (i, j) in enumerate(domain.pair_curves, start=1):
        pair_id[i, j] = pair_id[j, i] = p

    def membership(x, y, t):
        ids = pair_id[domain.indices(x), domain.indices(y)]
        used, inverse = np.unique(ids.ravel(), return_inverse=True)
        t = np.asarray(t, dtype=float)
        mu, nu = (np.reshape([curves[p][side](t) for p in used], (len(used), *t.shape)) for side in (0, 1))
        return mu[inverse], nu[inverse]

    return IfmSpace(
        domain=domain,
        operators=operators,
        membership=membership,
        description=f"tabulated({len(domain.labels)} points)",
    )


def evaluate(space: IfmSpace, x, y, t: float) -> MembershipPair:
    """Evaluate one pair at one time; the shared scalar accessor."""
    mu, nu = membership_grid(space, space.domain.as_point(x), space.domain.as_point(y), [time_parameter(t)])
    return MembershipPair(float(mu[0, 0]), float(nu[0, 0]))


def membership_grid(space: IfmSpace, xs, ys, ts) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate point pairs at every time of ``ts`` in one kernel call.

    ``xs`` and ``ys`` are points or point sequences, unchecked (see the
    domains' ``batch``); a single point pairs with every point of the
    other side.  Returns ``(mu, nu)`` of shape ``(n, k)`` for ``n`` pairs and
    ``k`` times: the kernel's arrays or read-only views, in its layout; never
    written into.  A reduction whose value is reported sees them in ``(pair,
    t)`` order, as argmax does, unless they hold no tie of +0.0 and -0.0.
    """
    xs = space.domain.batch(xs)
    ys = space.domain.batch(ys)
    ts = np.asarray(ts, dtype=float)
    mu, nu = space.mu_nu(xs[:, None], ys[:, None], ts)
    shape = (len(xs) if len(ys) == 1 else len(ys), len(ts))
    if np.shape(mu) != shape or np.shape(nu) != shape:
        mu, nu = np.broadcast_to(mu, shape), np.broadcast_to(nu, shape)
    return mu, nu


def _steps(space: IfmSpace, points, ts, first: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """``points`` as one batch, its step rows (row ``i`` pairs points ``i`` and ``i + 1``; one kernel
    call) and ``first`` plus the first row of two equal points (``-0.0`` equal to ``0.0``), or ``None``."""
    pts = space.domain.batch(points)
    same = ~space.domain.distinct(pts[:-1], pts[1:])
    mu, nu = membership_grid(space, pts[:-1], pts[1:], ts)
    return pts, mu, nu, first + int(same.argmax()) if same.any() else None


# ---------------------------------------------------------------------------
# axiom audit


def _grid_witness(xs, ys, ts, i, j, fields: dict) -> dict:
    """The witness at row ``i`` and column ``j`` of a (pair, t) grid: its
    pair, its time, then ``fields``."""
    return {"x": point_jsonable(xs[i]), "y": point_jsonable(ys[i]), "t": float(ts[j]), **fields}


def _max_clause(name, held, xs, ys, ts, tolerance) -> ClauseResult:
    """Clause that passes iff the held worst entry (None: the grid is empty) is within tolerance."""
    worst = -math.inf if held is None else held[0]
    witness = None if held is None else _grid_witness(xs, ys, ts, *held[1:], {"violation": worst})
    return ClauseResult(name, passed=worst <= tolerance, worst=max(worst, 0.0), witness=witness)


def triangle_shifts(ts) -> np.ndarray:
    """Every sum ``s + t`` of a probe grid, ``s``-major; ValueError if one overflows."""
    ts = probe_grid(ts)
    if not math.isfinite(2.0 * float(ts[-1])):
        raise ValueError(f"the time shift s + t = {float(ts[-1])!r} + {float(ts[-1])!r} overflows")
    return (ts[:, None] + ts[None, :]).ravel()


def _triangle_worst(best, viol, xs, ys, zs, lo, ts) -> dict:
    """The worse of witness ``best`` and the worst entry of ``viol``, the
    ``(samples, s, t)`` violations of the sample block starting at ``lo``.

    A block's entries are scanned by ``s``, then ``t``, then sample.  A
    later block replaces ``best`` when its maximum outranks it or, on a
    tie, when its ``(s, t)`` is smaller, so the first worst entry in ``(s,
    t, sample)`` order wins.  The block's witness is built only when
    ``best`` does not outrank its maximum.
    """
    top = float(viol.max())
    if best is not None and _outranks(best["violation"], top):
        return best
    by_shift = viol.transpose(1, 2, 0)
    i, j, m = np.unravel_index(int(np.argmax(by_shift)), by_shift.shape)
    witness = {**{name: point_jsonable(points[lo + m]) for name, points in zip("xyz", (xs, ys, zs))},
               "s": float(ts[i]), "t": float(ts[j]), "violation": float(viol[m, i, j])}
    if best is None or _outranks(top, best["violation"]) or (ts[i], ts[j]) < (best["s"], best["t"]):
        return witness
    return best


# Per side, the clauses that mirror each other: the lower-bound clause and
# its test, the value on coincident pairs, and the distinct-pair extreme
# that must stay strictly on one side of that value.  nu may reach 0 off
# the diagonal only as a limit, so its lower bound is not strict; strict
# positivity for distinct points is part of nu_identity.
_SIDE_RULES = {
    "mu": ("mu_positive", operator.gt, 1.0, "max", operator.lt),
    "nu": ("nu_nonnegative", operator.ge, 0.0, "min", operator.gt),
}


def _side_clauses(side, worst, low, extreme, triangle, jump, xs, ys, ts, tolerance):
    """Lower bound, identity, symmetry, triangle and time continuity of ``side``.

    ``worst`` holds the side's folded worst entries, ``low`` is its least
    value on the sampled pairs, ``extreme`` its distinct-pair extreme (None
    when no pair was distinct), ``triangle`` the witness of its worst
    triangle violation and ``jump`` its largest continuity jump.
    """
    floor_name, floor_ok, coincident, nearest, apart = _SIDE_RULES[side]
    if extreme is None:
        extreme, distinct_ok, note = float("nan"), True, "no distinct pairs sampled"
    else:
        distinct_ok, note = apart(extreme, coincident), ""
    floor, diag = worst[floor_name], worst[f"{side}_identity"]
    worst_tri = triangle["violation"]
    return [
        ClauseResult(floor_name, passed=floor_ok(low, 0.0), worst=0.0 if -low <= 0.0 else -low,
                     witness=_grid_witness(xs, ys, ts, *floor[1:], {"violation": floor[0], f"min_{side}": low})),
        ClauseResult(f"{side}_identity", passed=(diag[0] <= tolerance) and distinct_ok,
                     worst=diag[0], note=note,
                     witness=_grid_witness(xs, xs, ts, *diag[1:],
                                           {"violation": diag[0], f"{nearest}_{side}_distinct": extreme})),
        _max_clause(f"{side}_symmetry", worst[f"{side}_symmetry"], xs, ys, ts, tolerance),
        ClauseResult(f"{side}_triangle", passed=worst_tri <= tolerance, worst=max(worst_tri, 0.0),
                     witness=triangle),
        ClauseResult(f"{side}_time_continuity", passed=jump <= CONTINUITY_BOUND, worst=jump,
                     witness={"bound": CONTINUITY_BOUND, "refinement": CONTINUITY_REFINEMENT},
                     note="finite-difference modulus on a refined t grid"),
    ]


def _fold_pointwise(space, x, y, z, ts, lo, worst, lows, extremes) -> tuple[bool, tuple]:
    """Fold the pointwise clauses of the sample block at ``lo`` into ``worst``, ``lows`` and ``extremes``,
    from one kernel call for the pairs, their swaps, the coincident pairs and the (y, z) pairs; return
    whether a pair is distinct and copies of the (x, y) and (y, z) grids, so the call's other grids can go."""
    k = ts.size
    (mu_xy, mu_yx, mu_xx, mu_yz), (nu_xy, nu_yx, nu_xx, nu_yz) = (
        g.reshape(4, -1, k)
        for g in membership_grid(space, np.concatenate([x, y, x, y]), np.concatenate([y, x, x, z]), ts))
    _fold_worst(worst, "bounded_sum", mu_xy + nu_xy - 1.0, lo)
    apart = space.domain.distinct(x, y)
    for side, xy, yx, xx in (("mu", mu_xy, mu_yx, mu_xx), ("nu", nu_xy, nu_yx, nu_xx)):
        floor_name, _, coincident, nearest, _ = _SIDE_RULES[side]
        _fold_worst(worst, floor_name, -xy, lo)
        ordered = np.ascontiguousarray(xy)  # (pair, t) order decides a tie of +0.0 and -0.0
        lows[side] = float(ordered.min(initial=lows[side]))
        _fold_worst(worst, f"{side}_identity", np.abs(xx - coincident), lo)
        extremes[side] = float(getattr(ordered[apart], nearest)(initial=extremes[side]))
        _fold_worst(worst, f"{side}_symmetry", np.abs(xy - yx), lo)
    _fold_worst(worst, "mu_nondecreasing_t", mu_xy[:, :-1] - mu_xy[:, 1:], lo)
    _fold_worst(worst, "nu_nonincreasing_t", nu_xy[:, 1:] - nu_xy[:, :-1], lo)
    return bool(apart.any()), tuple(map(np.copy, (mu_xy, mu_yz, nu_xy, nu_yz)))


def axiom_audit(
    space: IfmSpace,
    sample_count: int,
    t_samples: Iterable[float] | None = None,
    tolerance: float = 1e-9,
    seed: int = 0,
    box: tuple[float, float] | None = None,
) -> AuditReport:
    """Audit the defining clauses of a space on seeded samples.

    Checks, per clause: bounded sum ``mu + nu <= 1``; positivity of ``mu``
    and nonnegativity of ``nu``; identity of indiscernibles for ``mu`` and
    ``nu`` on coincident and distinct pairs; symmetry; the two
    time-shifted triangle inequalities over sampled triples and ``(s, t)``
    grid pairs; continuity in ``t`` by a refined finite-difference modulus;
    operator idempotency; and monotonicity of ``mu`` (nondecreasing) and
    ``nu`` (nonincreasing) along the ``t`` grid.  Deterministic for a fixed
    seed; failures are report entries, never exceptions.  The triangle and
    continuity clauses run over inner sample blocks of ``b = max(1,
    BLOCK_CELLS // max(k**2, CONTINUITY_REFINEMENT * (k - 1) + 1))`` at
    ``k`` probe times, nested in outer blocks of ``b * max(1, BLOCK_CELLS
    // (4 * k) // b)`` for the other clauses (225 and 675 on the default
    grid), so only the drawn points scale with ``sample_count``: 20,000
    samples in 3-D peak at 3.3 MiB.  A triangle witness is the first worst
    in ``(s, t, sample)`` order and any other grid witness the first worst
    in ``(sample, t)`` order, a NaN above any value; a block builds a
    triangle witness only when its maximum can beat the worst.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    ts = probe_grid(t_samples)
    sums = triangle_shifts(ts)
    rng = np.random.default_rng(seed)
    if box is None:
        box = (-DEFAULT_AUDIT_BOX_HALFWIDTH, DEFAULT_AUDIT_BOX_HALFWIDTH)
    xs, ys, zs = (space.domain.draw(rng, sample_count, box) for _ in range(3))

    # per outer block of samples, one kernel call at the probe times for the
    # pointwise clauses (see _fold_pointwise); per inner block nested in it,
    # one at every sum s + t for the triangle, and one on every probe
    # interval split CONTINUITY_REFINEMENT times
    k = ts.size
    fine = np.concatenate([ts[:1], *(np.linspace(lo_t, hi_t, CONTINUITY_REFINEMENT + 1)[1:]
                                     for lo_t, hi_t in zip(ts[:-1], ts[1:]))])
    inner = max(1, BLOCK_CELLS // max(sums.size, fine.size))
    outer = inner * max(1, BLOCK_CELLS // (4 * k) // inner)
    tnorm, tconorm = space.operators.tnorm, space.operators.tconorm
    worst: dict[str, tuple[float, int, int]] = {}
    lows = {"mu": math.inf, "nu": math.inf}
    # each side's distinct-pair extreme starts at the identity of its max or min
    extremes = {"mu": -math.inf, "nu": math.inf}
    any_distinct = False
    triangles = [None, None]
    jumps = [0.0, 0.0]
    for lo in range(0, sample_count, outer):
        x, y, z = xs[lo:lo + outer], ys[lo:lo + outer], zs[lo:lo + outer]
        apart, (mu_xy, mu_yz, nu_xy, nu_yz) = _fold_pointwise(space, x, y, z, ts, lo, worst, lows, extremes)
        any_distinct = any_distinct or apart
        for start in range(0, len(x), inner):
            rows = slice(start, start + inner)
            mu_xz, nu_xz = (g.reshape(-1, k, k) for g in membership_grid(space, x[rows], z[rows], sums))
            viols = (np.asarray(tnorm(mu_xy[rows, :, None], mu_yz[rows, None]), dtype=float) - mu_xz,
                     nu_xz - np.asarray(tconorm(nu_xy[rows, :, None], nu_yz[rows, None]), dtype=float))
            triangles = [_triangle_worst(best, viol, xs, ys, zs, lo + start, ts)
                         for best, viol in zip(triangles, viols)]
            # each side's largest jump, a NaN above any value; no jump is -0.0
            for side, grid in enumerate(membership_grid(space, x[rows], y[rows], fine)):
                jump = np.subtract(grid[:, 1:], grid[:, :-1])
                jumps[side] = float(np.max(np.abs(jump, out=jump), initial=jumps[side]))
        # freed before the next outer block's kernel call, which lowers the
        # peak RSS; freeing the continuity grids here too made audits slower
        del mu_xy, mu_yz, nu_xy, nu_yz, mu_xz, nu_xz, viols

    clauses = [_max_clause("bounded_sum", worst["bounded_sum"], xs, ys, ts, tolerance)]
    for side, triangle, jump in zip(("mu", "nu"), triangles, jumps):
        extreme = extremes[side] if any_distinct else None
        clauses += _side_clauses(side, worst, lows[side], extreme, triangle, jump, xs, ys, ts, tolerance)

    # operator idempotency
    wit_t, wit_s = witnesses = idempotency_witness(space.operators)
    idempotent = all(idempotent_within(witnesses, max(tolerance, 1e-12)))
    clauses.append(
        ClauseResult(
            "idempotent_operators",
            passed=idempotent,
            worst=0.0 if idempotent else 1.0,
            witness={"tnorm": wit_t, "tconorm": wit_s, "pair": space.operators.name},
        )
    )

    # monotonicity along the t grid
    for name in ("mu_nondecreasing_t", "nu_nonincreasing_t"):
        clauses.append(_max_clause(name, worst.get(name), xs, ys, ts[:-1], tolerance))

    return AuditReport(subject=space.description or "space", clauses=clauses)


# ---------------------------------------------------------------------------
# probes and predicates


@dataclass
class AsymptoticReport:
    """Finite-horizon proxy for nearness approaching certainty as t grows."""

    t_horizon: float
    epsilon: float
    entries: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e["ok"] for e in self.entries)


def asymptotic_nearness_probe(
    space: IfmSpace, pairs: Sequence[tuple[Any, Any]], t_horizon: float, epsilon: float
) -> AsymptoticReport:
    """Check ``mu >= 1 - epsilon`` and ``nu <= epsilon`` at a large horizon.

    The horizon should be large relative to the scale of the pairs; this is
    a finite-horizon stand-in for the limit as ``t`` grows without bound.
    Each point is read as :func:`evaluate` reads it, in pair order, and all
    pairs are evaluated in one kernel call; an entry names its points as
    they were given (a line's ``"1.5"`` stays ``"1.5"``).
    """
    t_horizon = time_parameter(t_horizon, "t_horizon")
    epsilon = unit_scalar(epsilon, "epsilon")
    report = AsymptoticReport(t_horizon=t_horizon, epsilon=epsilon)
    pairs = list(pairs)
    points = [space.domain.as_point(p) for x, y in pairs for p in (x, y)]
    mu, nu = membership_grid(space, points[0::2], points[1::2], [t_horizon])
    for (x, y), m, n in zip(pairs, map(float, mu[:, 0]), map(float, nu[:, 0])):
        report.entries.append({"x": point_jsonable(x), "y": point_jsonable(y), "mu": m, "nu": n,
                               "ok": _near(m, n, epsilon, closed=True)})
    return report


@dataclass(frozen=True)
class BallSpec:
    """Center, radius in (0, 1), and time parameter of a nearness ball."""

    center: Any
    radius: float
    time: float

    def __post_init__(self) -> None:
        if not 0.0 < float(self.radius) < 1.0:
            raise ValueError(f"radius must lie strictly inside (0, 1), got {self.radius!r}")
        time_parameter(self.time, "time")


def _near(mu, nu, r: float, closed: bool = False):
    """The nearness rule ``mu > 1 - r`` and ``nu < r``, or its closure; a NaN is never near."""
    if closed:
        return (mu >= 1.0 - r) & (nu <= r)
    return (mu > 1.0 - r) & (nu < r)


def _margin(mu, nu, r: float):
    """``min(mu - (1 - r), r - nu)``: positive where ``_near`` holds, nonnegative where its closure does."""
    return np.minimum(mu - (1.0 - r), r - nu)


def _ball_flags(space: IfmSpace, ball: BallSpec, points, closed: bool = False) -> np.ndarray:
    """Per point of a batch, whether it lies in the ball, in one kernel call:
    whether it is ``_near`` the centre at the ball's radius and time."""
    mu, nu = membership_grid(space, space.domain.as_point(ball.center), points, [ball.time])
    return _near(mu[:, 0], nu[:, 0], float(ball.radius), closed)


def ball_contains(space: IfmSpace, ball: BallSpec, y, mode: str = "open") -> bool:
    """Ball membership: strict inequalities in open mode, closed otherwise.

    Open mode mirrors the defining strict bounds; closed mode is its
    closure and is what limit points of in-ball sequences satisfy.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    return bool(_ball_flags(space, ball, space.domain.as_point(y), closed=mode == "closed")[0])


# ---------------------------------------------------------------------------
# sequence diagnostics


@dataclass
class SequenceReport:
    """Windowed Cauchy/convergence verdicts for a finite sequence prefix."""

    cauchy: bool
    cauchy_from: int | None
    convergent: bool | None
    convergent_from: int | None
    epsilon: float
    window: int
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        conv_ok = True if self.convergent is None else self.convergent
        return self.cauchy and conv_ok


def sequence_diagnostics(
    space: IfmSpace,
    prefix,
    probe_ts: Iterable[float] | None = None,
    epsilon: float = 1e-2,
    window: int = 8,
    candidate_limit=None,
) -> SequenceReport:
    """Windowed Cauchy test and optional convergence test for a prefix.

    Cauchy verdict: the earliest index ``n0`` such that every pair of
    later entries at most ``window`` apart has ``mu > 1 - epsilon`` and
    ``nu < epsilon`` at every probe time, with at least one full window
    after ``n0``.  Convergence is the same tail test against the candidate
    limit.  Reports the earliest admissible start or the failing witness.
    """
    epsilon = unit_scalar(epsilon, "epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if window < 1:
        raise ValueError("window must be at least 1")
    batch = space.domain.read(prefix)
    length = len(batch)
    if length <= window:
        raise ValueError(f"prefix length {length} must exceed the window {window}")
    ts = probe_grid(probe_ts)

    last_fail = -1
    witness: dict | None = None
    for p in range(1, window + 1):
        mu, nu = membership_grid(space, batch[:-p], batch[p:], ts)
        fails = np.nonzero(~_near(mu, nu, epsilon).all(axis=1))[0]
        if fails.size:
            i = int(fails[-1])
            if i > last_fail:
                last_fail = i
                bad_t = int(np.argmin(_margin(mu[i], nu[i], epsilon)))
                witness = {"n": i, "m": i + p, "t": float(ts[bad_t]),
                           "mu": float(mu[i, bad_t]), "nu": float(nu[i, bad_t])}
    n0 = last_fail + 1
    cauchy = n0 + window <= length - 1

    convergent = None
    conv_from = None
    if candidate_limit is not None:
        mu, nu = membership_grid(space, batch, space.domain.as_point(candidate_limit), ts)
        fails = np.nonzero(~_near(mu, nu, epsilon).all(axis=1))[0]
        m0 = int(fails[-1]) + 1 if fails.size else 0
        convergent = m0 <= length - 1
        conv_from = m0 if convergent else None

    return SequenceReport(
        cauchy=cauchy,
        cauchy_from=n0 if cauchy else None,
        convergent=convergent,
        convergent_from=conv_from,
        epsilon=epsilon,
        window=window,
        witness=witness if not cauchy or convergent is False else None,
    )


@dataclass
class JointContinuityReport:
    """Tail deviation of pairwise nearness along two convergent sequences."""

    mu_tail: float
    nu_tail: float
    mu_limit: float
    nu_limit: float
    tolerance: float
    passed: bool

    @property
    def mu_delta(self) -> float:
        return abs(self.mu_tail - self.mu_limit)

    @property
    def nu_delta(self) -> float:
        return abs(self.nu_tail - self.nu_limit)


def joint_continuity_probe(
    space: IfmSpace,
    xs,
    x_limit,
    ys,
    y_limit,
    t: float,
    tolerance: float,
    seq_epsilon: float = 1e-2,
    probe_ts: Iterable[float] | None = None,
    window: int = 4,
) -> JointContinuityReport:
    """Compare tail values of ``mu(x_n, y_n, t)`` against the limit pair.

    Both prefixes are first verified convergent to their stated limits
    (raises ``ValueError`` otherwise); the probe then evaluates the tail
    pair and the limit pair in one kernel call and passes iff the tail
    deviations of ``mu`` and ``nu`` are within ``tolerance``.
    """
    t = time_parameter(t)
    for seq, limit, name in ((xs, x_limit, "xs"), (ys, y_limit, "ys")):
        diag = sequence_diagnostics(
            space, seq, probe_ts=probe_ts, epsilon=seq_epsilon, window=window, candidate_limit=limit
        )
        if not diag.convergent:
            raise ValueError(f"sequence {name} is not convergent to its stated limit: {diag.witness}")
    read = space.domain.as_point
    mu, nu = membership_grid(space, [read(xs[-1]), read(x_limit)], [read(ys[-1]), read(y_limit)], [t])
    (mu_tail, mu_lim), (nu_tail, nu_lim) = map(float, mu[:, 0]), map(float, nu[:, 0])
    passed = abs(mu_tail - mu_lim) <= tolerance and abs(nu_tail - nu_lim) <= tolerance
    return JointContinuityReport(
        mu_tail=mu_tail,
        nu_tail=nu_tail,
        mu_limit=mu_lim,
        nu_limit=nu_lim,
        tolerance=tolerance,
        passed=passed,
    )
