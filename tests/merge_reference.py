"""Test oracle: the segment merge as one independent sequence per segment.

Every engine path now shares one block kernel
(:func:`repro.core.updates.merge_batch`), so fused-vs-unfused and
serial-reference checks compare that kernel with itself. This module keeps
the earlier per-segment call sequence on plain NumPy as the reference the
kernel is checked against: for each segment, point indices, ``d_ref``
weights and μ, the gather and displacement, the ``[−δ; δ]`` staging, one
``np.unique`` compaction and the merge scatter. Nothing here is shared with
the package, and nothing is hoisted across segments.

``last_writer`` keeps the highest-index contribution of each point through
``np.maximum.at``, whose result does not depend on iteration order.
"""
from __future__ import annotations

from typing import List, Tuple

import numpy as np

MIN_DISTANCE = 1e-9


def compute_displacements(coords: np.ndarray, batch, eta: float
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(point_i, point_j, delta)`` of one segment, reading ``coords``."""
    point_i = batch.node_i * 2 + batch.vis_i
    point_j = batch.node_j * 2 + batch.vis_j
    d_ref = batch.d_ref
    valid = d_ref > 0
    d_safe = np.where(valid, d_ref, 1.0)
    w = 1.0 / (d_safe * d_safe)
    mu = np.minimum(eta * w, 1.0)
    diff = np.take(coords, point_i, axis=0) - np.take(coords, point_j, axis=0)
    mag = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    mag_safe = np.maximum(mag, MIN_DISTANCE)
    delta_scalar = np.where(valid, mu * (mag - d_safe) / 2.0, 0.0)
    unit = diff / mag_safe[:, None]
    unit[mag < MIN_DISTANCE] = [1.0, 0.0]
    return point_i, point_j, unit * delta_scalar[:, None]


def compact_points(points: np.ndarray):
    """``(touched, inverse, counts)`` of one segment's endpoint points."""
    touched, inverse = np.unique(points, return_inverse=True)
    return touched, inverse, np.bincount(inverse, minlength=touched.size)


def merge_scatter(coords, touched, inverse, counts, all_deltas, merge) -> None:
    """Merge one segment's endpoint deltas into ``coords`` in place."""
    if merge == "accumulate":
        coords[touched, 0] += np.bincount(inverse, weights=all_deltas[:, 0])
        coords[touched, 1] += np.bincount(inverse, weights=all_deltas[:, 1])
    elif merge == "hogwild":
        coords[touched, 0] += np.bincount(inverse, weights=all_deltas[:, 0]) / counts
        coords[touched, 1] += np.bincount(inverse, weights=all_deltas[:, 1]) / counts
    elif merge == "last_writer":
        last = np.full(touched.size, -1, dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(inverse.size))
        coords[touched] += all_deltas[last]
    else:
        raise ValueError(f"unknown merge policy {merge!r}")


def merge_batch(coords: np.ndarray, batch, eta: float, merge: str) -> int:
    """Displace and merge one segment; returns its point collisions."""
    point_i, point_j, delta = compute_displacements(coords, batch, eta)
    all_points = np.concatenate([point_i, point_j])
    all_deltas = np.concatenate([-delta, delta])
    touched, inverse, counts = compact_points(all_points)
    merge_scatter(coords, touched, inverse, counts, all_deltas, merge)
    return int(all_points.size - touched.size)


def run_plan(coords: np.ndarray, terms, plan: List[int], eta: float,
             merge: str) -> List[int]:
    """Merge ``terms`` segment by segment in ``plan`` order.

    Returns each segment's collision count; ``coords`` is updated in place.
    """
    collisions = []
    offset = 0
    for size in plan:
        collisions.append(merge_batch(coords, terms.slice(offset, offset + size),
                                      eta, merge))
        offset += size
    return collisions
