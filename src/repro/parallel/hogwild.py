"""Hogwild! asynchronous-update emulation and collision analysis.

odgi-layout parallelises Alg. 1's inner loop across CPU threads with no
synchronisation (Recht et al.'s Hogwild! scheme). The paper's justification
(Sec. III-A) is statistical: pangenome graphs are so sparse that the
probability of two concurrent updates touching the same node is negligible,
so the racy updates almost never interfere.

This module quantifies that argument for any graph: given a concurrency
level, it estimates (analytically) and measures (empirically, over batches
drawn by :func:`~repro.core.fused.draw_segment`) the probability that two
in-flight updates collide on a visualisation point. The batched engines use
the same collision counters to explain why very large batches (Table III)
start degrading quality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.fused import draw_segment
from ..core.params import LayoutParams
from ..core.selection import PairSampler
from ..core.updates import compact_points
from ..graph.lean import LeanGraph
from ..prng.xoshiro import Xoshiro256Plus

__all__ = ["CollisionReport", "expected_collision_probability", "measure_collisions"]


@dataclass(frozen=True)
class CollisionReport:
    """Collision statistics for a given concurrency level."""

    concurrency: int
    n_batches: int
    mean_colliding_fraction: float
    max_colliding_fraction: float
    expected_fraction: float


def expected_collision_probability(n_nodes: int, concurrency: int) -> float:
    """Analytic probability that a term's endpoints collide with another term.

    With ``c`` concurrent terms, each touching 2 of ``2·N`` visualisation
    points chosen approximately uniformly, the chance that a given term
    shares a point with at least one other term is
    ``1 − (1 − 2/(2N))^(2(c−1)) ≈ 1 − exp(−2(c−1)/N)``.
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if concurrency == 1:
        return 0.0
    return float(1.0 - np.exp(-2.0 * (concurrency - 1) / n_nodes))


def measure_collisions(
    graph: LeanGraph,
    concurrency: int,
    n_batches: int = 16,
    params: Optional[LayoutParams] = None,
    seed: int = 0,
) -> CollisionReport:
    """Empirically measure endpoint collisions among ``concurrency`` in-flight terms."""
    params = params or LayoutParams()
    sampler = PairSampler(graph, params)
    rng = Xoshiro256Plus(seed, n_streams=min(concurrency, 1024))
    fractions = []
    for b in range(n_batches):
        batch = draw_segment(sampler, rng, concurrency, 0)
        points = np.concatenate([
            2 * batch.node_i + batch.vis_i,
            2 * batch.node_j + batch.vis_j,
        ])
        # Same touched-point compaction the update hot path uses.
        _, _, counts = compact_points(points)
        colliding_points = counts[counts > 1].sum()
        fractions.append(colliding_points / points.size)
    fractions_arr = np.asarray(fractions)
    return CollisionReport(
        concurrency=concurrency,
        n_batches=n_batches,
        mean_colliding_fraction=float(fractions_arr.mean()),
        max_colliding_fraction=float(fractions_arr.max()),
        expected_fraction=expected_collision_probability(graph.n_nodes, concurrency),
    )
