"""Path index (XP-style) for reference-distance queries.

``odgi-layout`` consults a *path index* (the ``.xp`` file in the artifact) to
answer, for any two steps of the same path, the nucleotide distance between
them along the path — the reference distance ``d_ref`` in the stress term of
Alg. 1. The index also supports weighted random path selection (probability
proportional to path length, Alg. 1 line 5) and per-node path membership
queries used by the quality metrics.

The implementation is array-based: for every path we keep the sorted step
positions (already available in :class:`~repro.graph.lean.LeanGraph`), a
cumulative step-count table for weighted path sampling, and an inverted
node→steps index built on demand.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .lean import LeanGraph

__all__ = ["PathIndex", "paths_for_uniforms"]


def paths_for_uniforms(cum_steps: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniform [0,1) draws to path indices with probability ∝ |p|: the
    inverse CDF over the cumulative step counts ``cum_steps`` (Alg. 1 line
    5 as odgi-layout realises it), shared by term selection and
    :meth:`PathIndex.sample_paths`."""
    total = cum_steps[-1]
    if total == 0:
        raise ValueError("graph has no path steps to sample")
    targets = np.minimum((uniforms * total).astype(np.int64), total - 1)
    return np.searchsorted(cum_steps, targets, side="right") - 1


class PathIndex:
    """Precomputed structures for path-centric queries over a lean graph."""

    def __init__(self, graph: LeanGraph):
        self.graph = graph
        counts = graph.path_step_counts.astype(np.float64)
        total = counts.sum()
        if total > 0:
            self._path_weights = counts / total
        else:
            self._path_weights = counts
        self._cum_steps = np.concatenate(([0], np.cumsum(graph.path_step_counts)))
        self._node_index: Optional[Dict[int, List[Tuple[int, int]]]] = None

    # ----------------------------------------------------------- path lookup
    @property
    def n_paths(self) -> int:
        """Number of paths in the underlying graph."""
        return self.graph.n_paths

    @property
    def path_weights(self) -> np.ndarray:
        """Per-path selection probabilities (∝ number of steps)."""
        return self._path_weights

    @property
    def cum_steps(self) -> np.ndarray:
        """``(n_paths + 1,)`` cumulative step counts backing path sampling.

        This is the inverse-CDF table :func:`paths_for_uniforms` searches,
        for :meth:`sample_paths` and for term selection alike.
        """
        return self._cum_steps

    def path_of_global_step(self, global_step: np.ndarray) -> np.ndarray:
        """Map flat step indices to the owning path index (vectorised)."""
        global_step = np.asarray(global_step, dtype=np.int64)
        return np.searchsorted(self.graph.path_offsets, global_step, side="right") - 1

    def step_range(self, path_index: int) -> Tuple[int, int]:
        """Return the (start, stop) flat step range of a path."""
        sl = self.graph.path_steps(path_index)
        return sl.start, sl.stop

    # ------------------------------------------------------------ distances
    def reference_distance(
        self, path_index: int, step_a: np.ndarray, step_b: np.ndarray
    ) -> np.ndarray:
        """Nucleotide distance along ``path_index`` between two local steps.

        ``step_a`` / ``step_b`` are indices *within* the path (0-based). The
        distance is measured between step start positions, matching the XP
        index semantics odgi-layout uses for ``d_ref``.
        """
        start, stop = self.step_range(path_index)
        length = stop - start
        step_a = np.asarray(step_a, dtype=np.int64)
        step_b = np.asarray(step_b, dtype=np.int64)
        if np.any((step_a < 0) | (step_a >= length) | (step_b < 0) | (step_b >= length)):
            raise IndexError("step index out of range for path")
        pos = self.graph.step_positions
        return np.abs(pos[start + step_a] - pos[start + step_b])

    def reference_distance_global(
        self, global_a: np.ndarray, global_b: np.ndarray
    ) -> np.ndarray:
        """Distance between flat step indices assumed to lie on the same path."""
        pos = self.graph.step_positions
        global_a = np.asarray(global_a, dtype=np.int64)
        global_b = np.asarray(global_b, dtype=np.int64)
        return np.abs(pos[global_a] - pos[global_b])

    # -------------------------------------------------------- node membership
    def _build_node_index(self) -> Dict[int, List[Tuple[int, int]]]:
        index: Dict[int, List[Tuple[int, int]]] = {}
        offsets = self.graph.path_offsets
        nodes = self.graph.step_nodes
        for p in range(self.n_paths):
            for local, flat in enumerate(range(int(offsets[p]), int(offsets[p + 1]))):
                index.setdefault(int(nodes[flat]), []).append((p, local))
        return index

    def steps_on_node(self, node_id: int) -> List[Tuple[int, int]]:
        """All (path_index, local_step) pairs that visit ``node_id``."""
        if self._node_index is None:
            self._node_index = self._build_node_index()
        return list(self._node_index.get(int(node_id), []))

    def paths_through_node(self, node_id: int) -> List[int]:
        """Sorted unique path indices that visit ``node_id``."""
        return sorted({p for p, _ in self.steps_on_node(node_id)})

    # ------------------------------------------------------------- sampling
    def sample_paths(self, rng_uniform: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) draws to path indices with probability ∝ |p|
        (:func:`paths_for_uniforms` over :attr:`cum_steps`)."""
        return paths_for_uniforms(self._cum_steps,
                                  np.asarray(rng_uniform, dtype=np.float64))

    def memory_bytes(self) -> int:
        """Footprint of the index arrays (excludes the lazy node index)."""
        return int(self._cum_steps.nbytes + self._path_weights.nbytes)
