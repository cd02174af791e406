"""Path stress: the exact (quadratic-cost) layout-quality metric.

Sec. VI-A defines *path stress* as the normalised stress averaged over every
pair of steps that co-occur on a path:

.. math::

    \\text{path stress} = \\frac{\\sum_{p \\in P} \\sum_{n_i, n_j \\in p}
        \\text{stress}(n_i, n_j)}{N_{\\text{total node pairs}}}

where ``stress(n_i, n_j)`` averages the normalised stress
``((||v_i − v_j|| − d_ref) / d_ref)²`` over all four combinations of the two
nodes' segment endpoints, and only same-path pairs contribute (general-graph
stress would also count pairs the layout algorithm never optimises).

The computation is quadratic in path length, which is exactly the paper's
motivation for the sampled variant (Table V: 194 GPU-hours estimated for
Chr.1); this module therefore processes pairs in vectorised blocks and is
intended for small/medium graphs and for validating the sampled metric
(Fig. 13).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend import cext
from ..core.layout import Layout
from ..graph.lean import LeanGraph

__all__ = ["pair_stress_terms", "path_stress", "count_path_pairs"]


def pair_stress_terms(
    layout: Layout,
    graph: LeanGraph,
    flat_i: np.ndarray,
    flat_j: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalised stress of specific step pairs (averaged over endpoints).

    ``flat_i`` / ``flat_j`` index the graph's flat step arrays and must refer
    to steps of the same path. Pairs with zero reference distance are
    returned as 0 (they carry no information about the layout). The terms
    are written into ``out`` when it is given.

    One call of the compiled kernel (:mod:`repro.backend.cext`) evaluates
    the pairs when it is available and the arguments are within its
    contract; otherwise :func:`numpy_pair_stress_terms` does. Both give the
    same bits.
    """
    flat_i = np.asarray(flat_i, dtype=np.int64)
    flat_j = np.asarray(flat_j, dtype=np.int64)
    # The (2·n_nodes, 2) coordinates viewed flat: endpoint e of node v has
    # its X at element 4v + 2e and its Y at element 4v + 2e + 1.
    args = (layout.coords.reshape(-1), graph.step_nodes, graph.step_positions,
            flat_i, flat_j)
    compiled = cext.kernels()
    if compiled is not None:
        terms = np.empty(flat_i.size) if out is None else out
        if compiled.pair_stress_terms(*args, terms):
            return terms
    terms = numpy_pair_stress_terms(*args)
    if out is None:
        return terms
    out[...] = terms
    return out


def numpy_pair_stress_terms(
    flat: np.ndarray,
    step_nodes: np.ndarray,
    step_positions: np.ndarray,
    flat_i: np.ndarray,
    flat_j: np.ndarray,
) -> np.ndarray:
    """:func:`pair_stress_terms` in NumPy, over the flat coordinate view.

    The reference the compiled kernel is tested against, and the fallback
    when it is unavailable or an argument is outside its contract.
    """
    base_i = 4 * np.take(step_nodes, flat_i)
    base_j = 4 * np.take(step_nodes, flat_j)
    d_ref = np.abs(
        np.take(step_positions, flat_i) - np.take(step_positions, flat_j)
    ).astype(np.float64)
    valid = d_ref > 0
    d_safe = np.where(valid, d_ref, 1.0)
    total = np.zeros(flat_i.size, dtype=np.float64)
    # Average over the four endpoint combinations (paper's definition).
    for ei in (0, 1):
        xi = np.take(flat, base_i + 2 * ei)
        yi = np.take(flat, base_i + 2 * ei + 1)
        for ej in (0, 1):
            dx = xi - np.take(flat, base_j + 2 * ej)
            dy = yi - np.take(flat, base_j + 2 * ej + 1)
            mag = np.sqrt(dx * dx + dy * dy)
            total += ((mag - d_safe) / d_safe) ** 2
    terms = total / 4.0
    return np.where(valid, terms, 0.0)


def count_path_pairs(graph: LeanGraph) -> int:
    """Total number of same-path step pairs N_total (denominator of Eq. 1)."""
    counts = graph.path_step_counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def path_stress(
    layout: Layout,
    graph: LeanGraph,
    block_size: int = 200_000,
    max_pairs: Optional[int] = None,
) -> float:
    """Exact path stress over every same-path step pair.

    Parameters
    ----------
    block_size:
        Number of pairs evaluated per vectorised block (memory control).
    max_pairs:
        Optional safety cap; exceeding it raises ``ValueError`` so callers do
        not accidentally start a quadratic computation on a chromosome-scale
        graph (use :func:`repro.metrics.sampled_stress.sampled_path_stress`).
    """
    n_pairs = count_path_pairs(graph)
    if n_pairs == 0:
        return 0.0
    if max_pairs is not None and n_pairs > max_pairs:
        raise ValueError(
            f"path stress would evaluate {n_pairs} pairs (> max_pairs={max_pairs}); "
            "use sampled_path_stress for large graphs"
        )
    total = 0.0
    buf_i = np.empty(block_size, dtype=np.int64)
    buf_j = np.empty(block_size, dtype=np.int64)
    fill = 0
    for p in range(graph.n_paths):
        sl = graph.path_steps(p)
        n = sl.stop - sl.start
        if n < 2:
            continue
        base = sl.start
        for i_local in range(n - 1):
            m = n - 1 - i_local
            start = 0
            while start < m:
                take = min(m - start, block_size - fill)
                buf_i[fill:fill + take] = base + i_local
                buf_j[fill:fill + take] = base + i_local + 1 + start + np.arange(take)
                fill += take
                start += take
                if fill == block_size:
                    total += float(pair_stress_terms(layout, graph, buf_i, buf_j).sum())
                    fill = 0
    if fill:
        total += float(pair_stress_terms(layout, graph, buf_i[:fill], buf_j[:fill]).sum())
    return total / n_pairs
