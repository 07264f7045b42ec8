"""Seeded, reproducible point-pair sampling for audits and checks.

Each point domain draws its own pairs (``CoordinateSpace.pairs``,
``FiniteTabulated.pairs``); this module is the entry point the checks and
solvers call, and the closed-ball sampler.  Identical seeds yield
identical streams; reports built from them are order-independent.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .spaces import BallSpec, FiniteTabulated, IfmSpace, _ball_flags, label_pairs

# Rejection rounds of sample_ball_pairs; without a base metric the box
# doubles after each short one.
BALL_SAMPLING_ROUNDS = 12


def sample_pairs(space: IfmSpace, count: int, seed: int, box=None) -> tuple[Any, Any]:
    """Distinct pair batches as the space's domain draws them; labels ignore ``box``."""
    return space.domain.pairs(count, seed, box)


def sample_ball_pairs(space: IfmSpace, ball: BallSpec, count: int, seed: int) -> tuple[Any, Any]:
    """Distinct pairs with both endpoints inside the closed ball.

    Uses rejection sampling from a box around the center.  For induced
    spaces the metric radius of the ball is known exactly
    (``d <= t * r / (1 - r)``), so that box holds the whole ball and is
    drawn again until enough members are found; otherwise the box is grown
    geometrically.  An odd count of members loses its last one.  One
    closed-ball test keeps the members of each draw, and of a tabulated
    space's labels, in one kernel call.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    domain = space.domain
    center, r = domain.as_point(ball.center), float(ball.radius)

    def members(points):
        return points[_ball_flags(space, ball, points, closed=True)]

    if isinstance(domain, FiniteTabulated):
        labels = members(domain.label_array)
        if len(labels) < 2:
            raise ValueError("closed ball contains fewer than two labels; nothing to sample")
        return label_pairs(labels, count, seed)

    if space.base_distance is not None:
        halfwidth = ball.time * r / (1.0 - r)
    else:
        halfwidth = 1.0
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    found = 0
    for _ in range(BALL_SAMPLING_ROUNDS):
        kept.append(members(domain.draw(rng, 4 * count, domain.box(halfwidth, center))))
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
