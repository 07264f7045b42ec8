"""Contraction notions for self-maps of a space, checked on samples.

Two inequality families are supported.  The reciprocal-gap notion bounds
``1/mu - 1`` of image pairs by ``k`` times the same gap of the original
pair (and the mirrored ``nu`` inequality with ``1/k``); on induced spaces
it coincides exactly with classical Lipschitz contraction of the base
metric.  The direct-ratio notion bounds ``mu(x,y,t) / mu(Tx,Ty,t)`` by
``k`` directly; note that it is unsatisfiable once coincident pairs are
included (``k * 1 >= 1`` fails for every ``k < 1``) and, on spaces where
nearness tends to certainty for large ``t``, the ratio supremum tends to 1
so no admissible constant exists either.  The checkers report these
findings honestly instead of repairing the definitions.

All checks are sampled: verdicts hold over a seeded pair stream and a
finite probe grid, never globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .operators import BLOCK_CELLS
from .report import _fold_worst, _outranks
from .sampling import sample_pairs
from .spaces import (  # the domain errors are re-exported here, beside the maps that raise them
    DomainEscapeError,
    IfmSpace,
    NonFiniteImageError,
    _grid_witness,
    _near,
    _steps,
    membership_grid,
    point_jsonable,
    probe_grid,
    time_parameter,
)

# Reported constants carry this safety margin above the observed supremum,
# and sequence comparisons allow the same relative slack.
K_SAFETY_MARGIN = 1e-9

# A sampled ratio supremum this close to 1 is treated as "no constant
# bounded away from 1": the strict existential cannot be met.
UNIT_RESOLUTION = 1e-3


class SelfMap:
    """A self-map of a space's point domain.

    Wraps an evaluator together with a serializable descriptor (used by
    the CLI to reconstruct maps from result documents).  Coordinate-domain
    evaluators must accept both single points ``(dim,)`` and batches
    ``(n, dim)``; label evaluators get one label at a time.  A batch row
    may differ from the one-point image in the last bit (gemm against gemv).
    Affine maps and their powers set two exact forms (``None`` on others): ``_rows``
    maps a batch to its rows' one-point images, bit for bit (:func:`~ifmlab.solver.chain_break`
    re-checks a stored chain by it), and ``_chain(x, n)`` lists the ``n`` successive
    one-point images of ``x``, bit for bit (the solver steps by it, :func:`apply_chain`).
    """

    _rows: Callable | None = None
    _chain: Callable | None = None

    def __init__(self, fn: Callable, label: str = "custom", spec: dict | None = None):
        self.fn = fn
        self.label = label
        self.spec = spec

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self) -> str:
        return f"SelfMap({self.label})"

    @classmethod
    def affine(cls, matrix, offset) -> "SelfMap":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        b = np.atleast_1d(np.asarray(offset, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"incompatible affine shapes: matrix {a.shape}, offset {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("affine coefficients must be finite")

        # dot and @ run one BLAS routine from dim 2 on; at dim 1, dot can give
        # -0.0 where @ gives +0.0 (its product added to +0.0), so there a
        # -0.0 offset is added as +0.0: every image stays x @ a.T + b bit for bit
        at, shift = a.T, (b + 0.0 if b.shape[0] == 1 else b)

        def fn(x):
            return _shifted(np.asarray(x, dtype=float).dot(at), shift)

        affine = cls(fn, label=f"affine(dim={b.shape[0]})",
                     spec={"affine": {"matrix": a.tolist(), "offset": b.tolist()}})
        # a stack of 1-by-dim rows: numpy maps each row as it maps one point
        affine._rows = lambda xs: _shifted(np.matmul(xs[:, None, :], at)[:, 0, :], shift)
        affine._chain = lambda x, n: [x := x.dot(at) + shift for _ in range(n)]
        return affine

    @classmethod
    def table(cls, mapping: dict[str, str]) -> "SelfMap":
        table = dict(mapping)

        def fn(x):
            if x not in table:
                raise DomainEscapeError(f"label {x!r} has no image in the table map", point=x)
            return table[x]

        return cls(fn, label=f"table({len(table)} labels)", spec={"table": table})

    @classmethod
    def constant(cls, value) -> "SelfMap":
        if isinstance(value, str):
            def fn(x):
                return value
        else:
            target = np.atleast_1d(np.asarray(value, dtype=float))

            def fn(x):
                arr = np.asarray(x, dtype=float)
                if arr.ndim <= 1:
                    return target.copy()
                return np.broadcast_to(target, arr.shape[:-1] + target.shape).copy()

        return cls(fn, label="constant", spec={"constant": point_jsonable(value)})

    @classmethod
    def identity(cls) -> "SelfMap":
        return cls(lambda x: x, label="identity", spec={"builtin": "identity"})

    def power(self, m: int) -> "SelfMap":
        """The m-fold composition of this map with itself."""
        if m < 1:
            raise ValueError("power exponent must be at least 1")
        if m == 1:
            return self

        def fn(x, step=self.fn):
            for _ in range(m):
                x = step(x)
            return x

        spec = {"power": {"of": self.spec, "m": m}} if self.spec is not None else None
        power = SelfMap(fn, label=f"{self.label}^{m}", spec=spec)
        if self._rows is not None:
            power._rows = lambda xs: fn(xs, self._rows)
            power._chain = lambda x, n: self._chain(x, n * m)[m - 1 :: m]
        return power


def _shifted(images: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``images + shift``; fresh batch images take it in place, one coordinate column at a time."""
    if images.ndim < 2:
        return images + shift
    for i, b in enumerate(shift):
        images[..., i] += b
    return images


BUILTIN_MAPS: dict[str, Callable[[], SelfMap]] = {
    "identity": SelfMap.identity,
}


def self_map_from_spec(spec: dict) -> SelfMap:
    """Rebuild a map from its serializable descriptor."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"map descriptor must have exactly one kind, got {spec!r}")
    kind, payload = next(iter(spec.items()))
    if kind == "affine":
        return SelfMap.affine(payload["matrix"], payload["offset"])
    if kind == "table":
        return SelfMap.table(payload)
    if kind == "constant":
        return SelfMap.constant(payload)
    if kind == "builtin":
        if not isinstance(payload, str) or payload not in BUILTIN_MAPS:
            raise ValueError(f"unknown builtin map {payload!r}")
        return BUILTIN_MAPS[payload]()
    if kind == "power":
        if isinstance(m := payload["m"], bool) or not isinstance(m, int):
            raise ValueError(f"power exponent must be an integer, got {m!r}")
        return self_map_from_spec(payload["of"]).power(m)
    raise ValueError(f"unknown map kind {kind!r}")


def apply_point(space: IfmSpace, map_: SelfMap, p):
    """Apply a map to one point, read as a point first, validating the image stays in the domain."""
    return space.domain.image(map_(space.domain.as_point(p)))


def apply_chain(space: IfmSpace, map_: SelfMap, x, n: int) -> tuple[list, Any, Exception | None]:
    """``x``, read already, and its next ``n`` images, as a list and as one batch, and the exception
    that cut them short (``None`` if none did).  A chain form (``SelfMap._chain``) maps them in one
    call, checked once; from its first non-finite image, or an ``x`` it refuses, :func:`apply_point`
    walks on as it walks other maps, so the same step raises with the same warnings."""
    chain, kept = [x], None
    if map_._chain is not None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite image is mapped again below
                chain += map_._chain(x, n)
        except (AttributeError, TypeError, ValueError):  # an x it refuses: the walk raises as the map does
            pass
        else:
            if np.isfinite(batch := space.domain.batch(chain)).all():
                return chain, batch, None
            del chain[int(np.isfinite(batch).all(axis=1).argmin()) :]
    try:
        for _ in range(n + 1 - len(chain)):
            chain.append(apply_point(space, map_, chain[-1]))
    except Exception as exc:  # the caller decides whether it is raised
        kept = exc
    return chain, space.domain.batch(chain), kept


def apply_batch(space: IfmSpace, map_: SelfMap, pts):
    """Apply a map to a point sequence in one call, validating the images stay
    in the domain; an image may differ from :func:`apply_point`'s in the last
    bit, as :class:`SelfMap` says."""
    return space.domain.apply(map_, pts)


@dataclass
class ContractivityReport:
    """Outcome of one sampled contraction check.

    ``estimated_k`` is the observed ratio supremum plus a small safety
    margin and is present only on pass; ``worst_witness`` is present on
    fail.  ``details`` carries check-specific numbers (observed supremum,
    skip counts, inequality sides, witness tables).
    """

    notion: str
    verdict: str  # "pass" | "fail" | "vacuous"
    estimated_k: float | None = None
    worst_witness: dict | None = None
    samples_used: int = 0
    notes: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "clause": self.notion,
            "verdict": self.verdict,
            "estimated_k": self.estimated_k,
            "witness": self.worst_witness,
            "samples_used": self.samples_used,
        }
        if self.notes:
            rec["note"] = self.notes
        if self.details:
            rec["details"] = self.details
        return rec


def _pair_blocks(space: IfmSpace, map_: SelfMap, xs, ys, ts):
    """Per block of ``max(1, BLOCK_CELLS // 4k)`` pairs, its rows and the
    ``(mu, nu)`` grids of the pairs, then of their images under the map.

    The images are mapped once, over the whole batch.  The kernel works
    pair by pair, so a block row is the row a whole-batch grid would hold,
    and the four grids of a block hold about ``BLOCK_CELLS`` floats.
    """
    if not len(xs):
        raise ValueError("the pair batch is empty")
    txs, tys = apply_batch(space, map_, xs), apply_batch(space, map_, ys)
    block = max(1, BLOCK_CELLS // (4 * len(ts)))
    for lo in range(0, len(xs), block):
        rows = slice(lo, lo + block)
        yield rows, (*membership_grid(space, xs[rows], ys[rows], ts),
                     *membership_grid(space, txs[rows], tys[rows], ts))


def _reciprocal_gap(v):
    """``1/v - 1`` elementwise; a zero (either sign) gives an infinite gap."""
    with np.errstate(divide="ignore"):
        return 1.0 / (np.asarray(v, dtype=float) + 0.0) - 1.0  # + 0.0 turns -0.0 into 0.0


def _ratio_check(notion: str, space: IfmSpace, map_: SelfMap, xs, ys, ts, sides: Callable,
                 keys: tuple[str, str], passes: Callable[[float], bool]) -> tuple[ContractivityReport, int]:
    """The sampled-ratio scan that both ratio notions run, and its skip count.

    ``sides`` maps a block's grids ``(mu1, nu1, mu2, nu2)`` of the pairs and
    their images to the ``mu`` and the ``nu`` side's ``(ratio, numerator,
    denominator)`` grids and a count of skipped samples.  Each side's
    supremum is its first worst ratio in (pair, t) order, a NaN above any
    value; the sides are ranked as the rows are, ``mu`` on a tie, and the
    worse gives the witness, with its numerator and denominator under
    ``keys``, and the overall supremum.  The reported constant is that
    supremum plus ``K_SAFETY_MARGIN``, and the check passes iff ``passes``
    holds for it.
    """
    worst: dict[str, tuple] = {}
    skipped = 0
    for rows, grids in _pair_blocks(space, map_, xs, ys, ts):
        *per_side, skips = sides(*grids)
        for name, (ratio, num, den) in zip(("mu", "nu"), per_side):
            _fold_worst(worst, name, ratio, rows.start, num, den)
        skipped += skips
    side = "nu" if _outranks(worst["nu"][0], worst["mu"][0]) else "mu"
    sup, i, j, num, den = worst[side]
    witness = _grid_witness(xs, ys, ts, i, j, {"side": side, keys[0]: num, keys[1]: den, "ratio": sup})
    estimated = sup + K_SAFETY_MARGIN
    passed = passes(estimated)
    return ContractivityReport(
        notion=notion, verdict="pass" if passed else "fail", samples_used=len(xs),
        estimated_k=estimated if passed else None, worst_witness=None if passed else witness,
        details={"sup_ratio": sup, "sup_mu_ratio": worst["mu"][0], "sup_nu_ratio": worst["nu"][0],
                 "witness": witness},
    ), skipped


def if_contractive_check(
    space: IfmSpace,
    map_: SelfMap,
    sample_pairs_count: int,
    probe_ts: Iterable[float] | None = None,
    seed: int = 0,
    box: tuple[Any, Any] | None = None,
    pairs: tuple[Any, Any] | None = None,
) -> ContractivityReport:
    """Sampled check of the reciprocal-gap contraction inequalities.

    For each sampled distinct pair and probe time the minimal admissible
    constant is the larger of the gap ratio
    ``(1/mu(Tx,Ty,t) - 1) / (1/mu(x,y,t) - 1)`` and the mirrored ``nu``
    ratio; the reported constant is the supremum over all samples plus a
    1e-9 safety margin, and the verdict is pass iff it stays below 1.
    Coincident images contribute ratio 0 on the ``mu`` side and are
    skipped on the ``nu`` side (their infinite gap satisfies the
    inequality in the limit).

    ``pairs`` overrides the seeded sampler with an explicit pair batch; an
    empty batch is a ValueError.  The pairs are checked in blocks of
    ``max(1, BLOCK_CELLS // 4k)`` at ``k`` probe times (819 on the default
    grid), so memory grows only with the pairs and their images; the
    witness is the first worst pair and time in (pair, t) order, a NaN
    ratio above any value and ``mu`` on a side tie.
    """

    def sides(*grids):
        gap1, co_gap1, gap2, co_gap2 = map(_reciprocal_gap, grids)
        nu_skip = np.isinf(co_gap2)
        degenerate = gap1 <= 0.0  # coincident or mu==1 originals; sampler avoids these
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_ratio = np.where(degenerate | (gap2 == 0.0), 0.0, gap2 / gap1)
            nu_ratio = np.where(degenerate | nu_skip, 0.0, co_gap1 / co_gap2)
        skipped = int(np.count_nonzero(nu_skip & ~degenerate))
        return (mu_ratio, gap2, gap1), (nu_ratio, co_gap1, co_gap2), skipped

    ts = probe_grid(probe_ts)
    xs, ys = sample_pairs(space, sample_pairs_count, seed, box) if pairs is None else pairs
    report, skipped = _ratio_check("if_contractive", space, map_, xs, ys, ts, sides, ("lhs", "rhs_gap"),
                                   lambda k: k < 1.0)
    report.details["nu_skipped"] = skipped
    if skipped:
        report.notes = f"{skipped} nu-side samples with coincident images satisfy the inequality in the limit and were skipped"
    return report


def direct_ratio_contractive_check(
    space: IfmSpace,
    map_: SelfMap,
    sample_pairs_count: int,
    probe_ts: Iterable[float] | None = None,
    include_coincident: bool = False,
    seed: int = 0,
    box: tuple[Any, Any] | None = None,
) -> ContractivityReport:
    """Sampled check of the direct membership-ratio contraction.

    The notion requires ``k * mu(Tx,Ty,t) >= mu(x,y,t)`` and
    ``nu(Tx,Ty,t) <= k * nu(x,y,t)`` for a single ``k`` in (0, 1).  With
    coincident pairs included the requirement collapses to ``k >= 1`` and
    the report is a vacuous fail.  Over distinct pairs the verdict is pass
    iff the ratio supremum stays below ``1 - UNIT_RESOLUTION``: a sampled
    supremum within that margin of 1 means no constant bounded away from 1
    exists on the probe grid (typical for large-``t`` probes on spaces
    whose nearness tends to certainty).  Pairs are checked in blocks, as
    in :func:`if_contractive_check`.
    """
    if include_coincident:
        return ContractivityReport(
            notion="direct_ratio_contractive",
            verdict="vacuous",
            samples_used=0,
            notes=(
                "with coincident pairs the requirement reads k*mu(Tx,Tx,t) = k < 1 = mu(x,x,t) "
                "for every k in (0, 1); no map on any space can satisfy it"
            ),
        )

    def sides(mu1, nu1, mu2, nu2):
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_ratio = np.where(mu2 == 0.0, np.inf, mu1 / mu2)
            nu_ratio = np.where(nu2 == 0.0, 0.0, nu2 / nu1)
        return (mu_ratio, mu1, mu2), (nu_ratio, nu2, nu1), 0

    ts = probe_grid(probe_ts)
    xs, ys = sample_pairs(space, sample_pairs_count, seed, box)
    report, _ = _ratio_check("direct_ratio_contractive", space, map_, xs, ys, ts, sides,
                             ("numerator", "denominator"), lambda k: k <= 1.0 - UNIT_RESOLUTION)
    report.details["unit_margin"] = UNIT_RESOLUTION
    if not report.passed and (sup := report.details["sup_ratio"]) <= 1.0:
        report.notes = (
            f"ratio supremum {sup:.9f} lies within {UNIT_RESOLUTION:g} of 1 on the probe grid; "
            "no contraction constant bounded away from 1 is admissible"
        )
    return report


def t_uniform_continuity_probe(
    space: IfmSpace,
    map_: SelfMap,
    epsilons: Iterable[float],
    sample_pairs_count: int,
    probe_ts: Iterable[float] | None = None,
    seed: int = 0,
    box: tuple[Any, Any] | None = None,
) -> ContractivityReport:
    """Search nearness thresholds certifying t-uniform continuity.

    For each target ``epsilon`` a descending grid of thresholds ``r`` is
    scanned for one where every sampled pair already ``r``-near at some
    probe time maps to an ``epsilon``-near image pair at that time.  The
    probe passes iff a threshold is found for every ``epsilon``; the
    ``(epsilon, r)`` table, with the number of qualifying samples, is
    recorded in the details.  A threshold that no sampled pair qualifies
    at is found on no evidence, so a row with no qualifying samples makes
    the verdict ``vacuous``, unless another row fails.

    Pairs are checked in blocks, as in :func:`if_contractive_check`.  The
    pairs that qualify only shrink as ``r`` falls, so each block is scanned
    from the smallest ``r`` an earlier block needed, and the found ``r`` is
    the one the most demanding block admits; a block counted at a larger
    ``r`` is evaluated once more to count its qualifying samples at the
    found one.  An epsilon with no threshold has a miss: the first pair and
    time in (pair, t) order that qualifies at the smallest ``r`` and maps
    to a pair not ``epsilon``-near.  When several epsilons miss, the
    witness is the miss of the last listed one.
    """
    ts = probe_grid(probe_ts)
    eps_list = [float(e) for e in epsilons]
    if not eps_list or any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValueError("epsilons must be a nonempty collection inside (0, 1)")
    xs, ys = sample_pairs(space, sample_pairs_count, seed, box)
    ladders = [[eps * 2.0**j for j in range(4, -25, -1) if eps * 2.0**j < 1.0] for eps in eps_list]
    # per epsilon, the index into its ladder that every block so far admits,
    # the ladder's length once a block admits none, and that block's miss
    found = [0] * len(eps_list)
    misses: list[dict | None] = [None] * len(eps_list)
    tallies = []  # per block, its rows and each epsilon's (index, qualifying count)
    for rows, (mu1, nu1, mu2, nu2) in _pair_blocks(space, map_, xs, ys, ts):
        tally = []
        for e, (eps, ladder) in enumerate(zip(eps_list, ladders)):
            i, count = found[e], 0
            if i < len(ladder):
                image_bad = ~_near(mu2, nu2, eps, closed=True)
                for i in range(i, len(ladder)):
                    qualify = _near(mu1, nu1, ladder[i], closed=True)
                    if not (qualify & image_bad).any():
                        count = int(np.count_nonzero(qualify))
                        break
                else:
                    # a pair qualified at the smallest threshold and missed its image bound
                    i = len(ladder)
                    m, j = divmod(int(np.argmax(qualify & image_bad)), qualify.shape[1])
                    misses[e] = _grid_witness(xs, ys, ts, rows.start + m, j, {
                        "epsilon": eps, "mu_image": float(mu2[m, j]), "nu_image": float(nu2[m, j])})
            found[e] = i
            tally.append((i, count))
        tallies.append((rows, tally))

    qualifying = [0] * len(eps_list)
    for rows, tally in tallies:
        stale = [e for e, (i, _) in enumerate(tally) if i < found[e] < len(ladders[e])]
        if stale:
            mu1, nu1 = membership_grid(space, xs[rows], ys[rows], ts)
        for e, (_, count) in enumerate(tally):
            if e in stale:
                count = int(np.count_nonzero(_near(mu1, nu1, ladders[e][found[e]], closed=True)))
            qualifying[e] += count
    table = [{"epsilon": eps, "r": ladder[i] if i < len(ladder) else None,
              "qualifying_samples": q if i < len(ladder) else 0}
             for eps, ladder, i, q in zip(eps_list, ladders, found, qualifying)]
    witness = next((miss for miss in reversed(misses) if miss is not None), None)
    empty = [repr(row["epsilon"]) for row in table if not row["qualifying_samples"]]
    verdict = "fail" if witness else "vacuous" if empty else "pass"
    return ContractivityReport(
        notion="t_uniform_continuity",
        verdict=verdict,
        worst_witness=witness,
        samples_used=len(xs),
        notes=f"no sampled pair qualified at the threshold found for epsilon {', '.join(empty)}"
        if verdict == "vacuous" else "",
        details={"table": table},
    )


def contractive_sequence_check(
    space: IfmSpace,
    prefix,
    k: float,
    probe_ts: Iterable[float] | None = None,
) -> ContractivityReport:
    """Verify the per-step gap decay of a sequence for a given constant.

    For every consecutive triple and probe time the reciprocal nearness
    gap of the later step must be at most ``k`` times the earlier one and
    the mirrored ``nu`` inequality must hold with ``1/k``.  Comparisons
    carry a 1e-9 relative allowance matching the constant-estimation
    margin plus a first-order floating-point allowance: the gaps are
    reciprocals of values near 0 or 1, so their absolute rounding error
    grows like ``eps * (1 + gap)**2`` and a fixed relative slack would
    reject exact-ratio sequences once the iterates are nearly coincident.
    A coincident consecutive pair fixes the tail exactly and is treated
    as a pass from that index.  Reports the first violation; a NaN gap is
    one, an infinite one is not (``nu`` rounds to exactly 0 on a close
    enough step).
    """
    if not 0.0 < float(k) < 1.0:
        raise ValueError(f"k must lie strictly inside (0, 1), got {k!r}")
    k = float(k)
    pts = space.domain.read(prefix)
    if len(pts) < 3:
        raise ValueError("prefix must contain at least 3 points")
    ts = probe_grid(probe_ts)
    _, mu, nu, fixed_from = _steps(space, pts, ts, 0)

    # rows n of the step grids compare step (n, n+1) with step (n+1, n+2);
    # steps from an exactly fixed index on pass trivially
    checked = len(pts) - 2 if fixed_from is None else min(fixed_from, len(pts) - 2)
    slack = 1.0 + K_SAFETY_MARGIN
    eps_fp = 4.0 * np.finfo(float).eps
    gap, co_gap = _reciprocal_gap(mu), _reciprocal_gap(nu)
    gap_a, gap_b = gap[:checked], gap[1 : checked + 1]
    co_a, co_b = co_gap[:checked], co_gap[1 : checked + 1]
    with np.errstate(invalid="ignore"):
        mu_bound, nu_bound = k * gap_a, co_a / k
        mu_allow = eps_fp * ((1.0 + gap_b) ** 2 + k * (1.0 + gap_a) ** 2)
        # a NaN gap is a violation; a NaN bound is not, since an infinite
        # earlier co-gap (nu rounded to 0) makes the nu side inf - inf
        mu_bad = (gap_b > mu_bound * slack + mu_allow) | np.isnan(gap_a) | np.isnan(gap_b)
        nu_allow = eps_fp * ((1.0 + co_b) ** 2 + (1.0 + co_a) ** 2 / k)
        nu_bad = (co_b < nu_bound / slack - nu_allow) | np.isnan(co_a) | np.isnan(co_b)
    failed = np.nonzero(np.any(mu_bad | nu_bad, axis=1))[0]
    if failed.size:
        n = int(failed[0])
        side, bad, lhs, bound = (("mu", mu_bad, gap_b, mu_bound) if np.any(mu_bad[n])
                                 else ("nu", nu_bad, co_b, nu_bound))
        j = int(np.argmax(bad[n]))
        return ContractivityReport(
            notion="contractive_sequence",
            verdict="fail",
            worst_witness={"n": n, "t": float(ts[j]), "side": side,
                           "lhs": float(lhs[n, j]), "bound": float(bound[n, j])},
            samples_used=n + 1,
            details={"k": k},
        )
    notes = ""
    if fixed_from is not None:
        notes = f"sequence is exactly fixed from index {fixed_from}; remaining steps pass trivially"
    return ContractivityReport(
        notion="contractive_sequence",
        verdict="pass",
        estimated_k=k,
        samples_used=checked,
        notes=notes,
        details={"k": k},
    )


def closed_ball_hypotheses(
    space: IfmSpace,
    map_: SelfMap,
    x0,
    r: float,
    t: float,
    k: float,
) -> ContractivityReport:
    """Evaluate the strict first-step bounds for contraction on a ball.

    Checks ``1/mu(x0, Tx0, t) - 1 < (1 - k) * (1/(1 - r) - 1)`` and
    ``1/nu(x0, Tx0, t) - 1 > (1/(1 - k)) * (1/r - 1)`` and reports the
    numeric sides.  A center already fixed by the map passes degenerately
    (zero gap on the ``mu`` side, unbounded gap on the ``nu`` side).  The
    constant ``k`` should come from a passing contraction check restricted
    to the ball.
    """
    if not 0.0 < float(r) < 1.0:
        raise ValueError(f"r must lie strictly inside (0, 1), got {r!r}")
    if not 0.0 < float(k) < 1.0:
        raise ValueError(f"k must lie strictly inside (0, 1), got {k!r}")
    t = time_parameter(t)
    r, k = float(r), float(k)
    x0p = space.domain.as_point(x0)
    tx0 = apply_point(space, map_, x0p)

    mu_rhs = (1.0 - k) * (1.0 / (1.0 - r) - 1.0)
    nu_rhs = (1.0 / (1.0 - k)) * (1.0 / r - 1.0)
    degenerate = not space.domain.distinct([x0p], [tx0])[0]
    if degenerate:
        mu_lhs, nu_lhs = 0.0, float("inf")
    else:
        first_step = membership_grid(space, x0p, tx0, [t])
        mu_lhs, nu_lhs = (float(_reciprocal_gap(v[0, 0])) for v in first_step)
    failing = [f"{side} side: {lhs!r} is not {rel} {rhs!r}"
               for side, ok, lhs, rel, rhs in (("mu", mu_lhs < mu_rhs, mu_lhs, "<", mu_rhs),
                                               ("nu", nu_lhs > nu_rhs, nu_lhs, ">", nu_rhs))
               if not ok]
    details = {"mu_lhs": mu_lhs, "mu_rhs": mu_rhs, "nu_lhs": nu_lhs, "nu_rhs": nu_rhs,
               "degenerate": degenerate}
    passed = not failing
    return ContractivityReport(
        notion="closed_ball_hypotheses",
        verdict="pass" if passed else "fail",
        estimated_k=k if passed else None,
        worst_witness=None if passed else {"x0": point_jsonable(x0p), "image": point_jsonable(tx0),
                                           "t": t, **details},
        samples_used=1,
        notes=("center is already fixed by the map; bounds hold degenerately" if degenerate
               else "; ".join(failing)),
        details=details,
    )
