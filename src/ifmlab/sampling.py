"""Seeded, reproducible point-pair sampling for audits and checks.

Contraction ratios degenerate both for nearly-coincident and far-apart
pairs, so coordinate pairs are drawn with log-uniform separations spanning
several decades around a base box.  Identical seeds yield identical
streams; reports built from them are order-independent.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .spaces import BallSpec, CoordinateSpace, FiniteTabulated, IfmSpace, membership_grid

DEFAULT_HALFWIDTH = 8.0
MIN_SEPARATION_FRACTION = 1e-4
MAX_SEPARATION_FRACTION = 0.5
# Rejection rounds of sample_ball_pairs; without a base metric the box
# doubles after each short one.
BALL_SAMPLING_ROUNDS = 12


def sampling_box(space: IfmSpace, halfwidth: float = DEFAULT_HALFWIDTH, center=None):
    """Box of ``halfwidth`` around ``center`` (default the origin) for a
    coordinate space; ``None`` for a tabulated one."""
    if not isinstance(space.domain, CoordinateSpace):
        return None
    c = np.zeros(space.domain.dimension) if center is None else np.asarray(center, float)
    return c - halfwidth, c + halfwidth


def sample_coordinate_pairs(
    dimension: int,
    count: int,
    seed: int,
    box: tuple[Any, Any] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct point pairs with log-uniform separation scales.

    Base points are uniform over the box; partners sit at a random
    direction and a separation drawn log-uniformly between 1e-4 and 0.5 of
    the box width, so ratio checks see both near and far pairs.  Partners
    may fall slightly outside the box (the domain is the whole space).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    low, high = box if box is not None else (-DEFAULT_HALFWIDTH, DEFAULT_HALFWIDTH)
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
    log_lo = np.log(MIN_SEPARATION_FRACTION * width)
    log_hi = np.log(MAX_SEPARATION_FRACTION * width)
    separations = np.exp(rng.uniform(log_lo, log_hi, (count, 1)))
    return base, base + separations * directions


def sample_label_pairs(labels: list[str], count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ordered label pairs, uniform with replacement."""
    if len(labels) < 2:
        raise ValueError("need at least two labels to sample distinct pairs")
    rng = np.random.default_rng(seed)
    arr = np.asarray(labels, dtype=object)
    xi = rng.integers(0, len(labels), count)
    offset = rng.integers(1, len(labels), count)
    yi = (xi + offset) % len(labels)
    return arr[xi], arr[yi]


def sample_pairs(
    space: IfmSpace, count: int, seed: int, box: tuple[Any, Any] | None = None
) -> tuple[Any, Any]:
    """Domain-appropriate distinct pair batches for a space."""
    domain = space.domain
    if isinstance(domain, CoordinateSpace):
        return sample_coordinate_pairs(domain.dimension, count, seed, box)
    return sample_label_pairs(domain.labels, count, seed)


def sample_ball_pairs(space: IfmSpace, ball: BallSpec, count: int, seed: int) -> tuple[Any, Any]:
    """Distinct pairs with both endpoints inside the closed ball.

    Uses rejection sampling from a box around the center.  For induced
    spaces the metric radius of the ball is known exactly
    (``d <= t * r / (1 - r)``), so that box holds the whole ball and is
    drawn again until enough members are found; otherwise the box is grown
    geometrically.  An odd count of members loses its last one.  One
    closed-ball test, ``mu >= 1 - r`` and ``nu <= r`` at the ball's time,
    keeps the members of each draw, and of a tabulated space's labels in
    one kernel call.
    """
    domain = space.domain
    center, r = domain.as_point(ball.center), float(ball.radius)

    def members(points):
        mu, nu = membership_grid(space, center, points, [ball.time])
        return points[(mu[:, 0] >= 1.0 - r) & (nu[:, 0] <= r)]

    if isinstance(domain, FiniteTabulated):
        labels = members(domain.label_array)
        if len(labels) < 2:
            raise ValueError("closed ball contains fewer than two labels; nothing to sample")
        return sample_label_pairs(labels, count, seed)

    if space.base_distance is not None:
        halfwidth = ball.time * r / (1.0 - r)
    else:
        halfwidth = 1.0
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    found = 0
    for _ in range(BALL_SAMPLING_ROUNDS):
        draw = rng.uniform(center - halfwidth, center + halfwidth, (4 * count, domain.dimension))
        kept.append(members(draw))
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
