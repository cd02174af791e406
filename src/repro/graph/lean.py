"""Lean, array-based graph representation used by the layout engines.

The paper (Sec. V-A) observes that ODGI's general-purpose graph structure
carries many fields irrelevant to layout (e.g. the nucleotide *content* of a
node when only its *length* matters) and that the GPU kernel needs flat,
statically-sized arrays rather than dynamic containers. It therefore builds a
"lean data structure" holding only:

* per-node data: sequence length and the four layout coordinates of the two
  visualisation endpoints, and
* per-path data: the node id, orientation and nucleotide position of every
  step, stored as flat arrays with per-path offsets.

:class:`LeanGraph` is that structure. It is constructed once from a
:class:`~repro.graph.variation_graph.VariationGraph` (or directly from arrays
by the synthetic generators, which skips the dictionary-backed representation
entirely for large graphs) and consumed by every layout engine and metric in
the package.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .variation_graph import VariationGraph

__all__ = ["LeanGraph", "ODGI_NODE_OVERHEAD_BYTES", "LEAN_NODE_BYTES"]

# Approximate per-node byte footprint of the full ODGI-style structure
# (sequence string object, id, edge lists, metadata) versus the lean record
# (uint32 length + 4 float32/float64 coordinates). Used by the lean-structure
# accounting in benchmarks; the precise numbers only matter as a ratio.
ODGI_NODE_OVERHEAD_BYTES = 120
LEAN_NODE_BYTES = 4 + 4 * 8


@dataclass
class LeanGraph:
    """Flat array representation of a variation graph for layout.

    Attributes
    ----------
    node_lengths:
        ``(n_nodes,)`` int64 — nucleotide length of each node.
    path_offsets:
        ``(n_paths + 1,)`` int64 — prefix offsets into the flat step arrays;
        path ``p`` owns steps ``path_offsets[p]:path_offsets[p+1]``.
    step_nodes:
        ``(total_steps,)`` int64 — node id visited by each step.
    step_reverse:
        ``(total_steps,)`` bool — orientation of each step.
    step_positions:
        ``(total_steps,)`` int64 — nucleotide offset of the step's start
        within its path. Reference distances ``d_ref`` between two steps of
        the same path are differences of these positions (the XP path index
        odgi-layout queries).
    path_names:
        Path names, index-aligned with ``path_offsets``.
    """

    node_lengths: np.ndarray
    path_offsets: np.ndarray
    step_nodes: np.ndarray
    step_reverse: np.ndarray
    step_positions: np.ndarray
    path_names: List[str] = field(default_factory=list)

    # ------------------------------------------------------------ validation
    def __post_init__(self) -> None:
        self.node_lengths = np.asarray(self.node_lengths, dtype=np.int64)
        self.path_offsets = np.asarray(self.path_offsets, dtype=np.int64)
        self.step_nodes = np.asarray(self.step_nodes, dtype=np.int64)
        self.step_reverse = np.asarray(self.step_reverse, dtype=bool)
        self.step_positions = np.asarray(self.step_positions, dtype=np.int64)
        if self.path_offsets.ndim != 1 or self.path_offsets.size < 1:
            raise ValueError("path_offsets must be a non-empty 1-D array")
        if self.path_offsets[0] != 0:
            raise ValueError("path_offsets must start at 0")
        if np.any(np.diff(self.path_offsets) < 0):
            raise ValueError("path_offsets must be non-decreasing")
        if self.path_offsets[-1] != self.step_nodes.size:
            raise ValueError("path_offsets must end at the total step count")
        if self.step_nodes.size != self.step_reverse.size:
            raise ValueError("step_nodes and step_reverse must align")
        if self.step_nodes.size != self.step_positions.size:
            raise ValueError("step_nodes and step_positions must align")
        if self.step_nodes.size and (
            self.step_nodes.min() < 0
            or self.step_nodes.max() >= self.node_lengths.size
        ):
            raise ValueError("step references a node id out of range")
        if not self.path_names:
            self.path_names = [f"path{i}" for i in range(self.n_paths)]
        if len(self.path_names) != self.n_paths:
            raise ValueError("path_names length must match the number of paths")

    # ------------------------------------------------------------ properties
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return int(self.node_lengths.size)

    @property
    def n_paths(self) -> int:
        """Number of paths."""
        return int(self.path_offsets.size - 1)

    @property
    def total_steps(self) -> int:
        """Total number of path steps Σ|p| — drives N_steps in Alg. 1."""
        return int(self.step_nodes.size)

    @property
    def path_step_counts(self) -> np.ndarray:
        """``(n_paths,)`` number of steps per path."""
        return np.diff(self.path_offsets)

    @property
    def total_sequence_length(self) -> int:
        """Total nucleotides across nodes (# Nuc. in the paper's tables)."""
        return int(self.node_lengths.sum())

    def path_steps(self, path_index: int) -> slice:
        """Slice into the flat step arrays owned by path ``path_index``."""
        if not 0 <= path_index < self.n_paths:
            raise IndexError("path index out of range")
        return slice(int(self.path_offsets[path_index]), int(self.path_offsets[path_index + 1]))

    def path_nucleotide_length(self, path_index: int) -> int:
        """Nucleotide length of one path."""
        sl = self.path_steps(path_index)
        if sl.start == sl.stop:
            return 0
        last = sl.stop - 1
        return int(self.step_positions[last] + self.node_lengths[self.step_nodes[last]])

    # ------------------------------------------------------------ accounting
    def heavy_structure_bytes(self) -> int:
        """Approximate footprint of the full ODGI-style structure."""
        return (
            self.n_nodes * ODGI_NODE_OVERHEAD_BYTES
            + int(self.node_lengths.sum())  # sequence characters
            + self.total_steps * 24
        )

    def lean_structure_bytes(self) -> int:
        """Footprint of this lean structure (what the GPU kernel transfers)."""
        return (
            self.node_lengths.nbytes
            + self.path_offsets.nbytes
            + self.step_nodes.nbytes
            + self.step_reverse.nbytes
            + self.step_positions.nbytes
        )

    # ---------------------------------------------------------- construction
    @classmethod
    def from_variation_graph(cls, graph: VariationGraph) -> "LeanGraph":
        """Extract the lean structure from a full variation graph.

        Node ids are densified in insertion order, which matches the GFA
        parser's segment-name mapping. The paths' walk columns are
        concatenated, and every step position comes from one cumulative sum
        of the visited node lengths, restarted at each path's first step.
        """
        node_ids = np.fromiter(graph.node_ids(), dtype=np.int64, count=graph.node_count)
        node_lengths = graph.node_lengths()
        paths = list(graph.paths())
        counts = np.fromiter((len(path) for path in paths), dtype=np.int64, count=len(paths))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        step_nodes = np.concatenate([np.empty(0, np.int64)] + [p.nodes for p in paths])
        step_reverse = np.concatenate([np.empty(0, bool)] + [p.reverse for p in paths])
        if not np.array_equal(node_ids, np.arange(node_ids.size)):
            order = np.argsort(node_ids)
            step_nodes = order[np.searchsorted(node_ids, step_nodes, sorter=order)]
        ends = np.zeros(step_nodes.size + 1, dtype=np.int64)
        np.cumsum(node_lengths[step_nodes], out=ends[1:])
        path_starts = ends[offsets[:-1]]
        step_positions = ends[:-1]
        step_positions -= np.repeat(path_starts, counts)
        return cls(
            node_lengths=node_lengths,
            path_offsets=offsets,
            step_nodes=step_nodes,
            step_reverse=step_reverse,
            step_positions=step_positions,
            path_names=[path.name for path in paths],
        )

    @classmethod
    def from_paths(
        cls,
        node_lengths: Sequence[int],
        paths: Sequence[Sequence[int]],
        path_names: Optional[Sequence[str]] = None,
        orientations: Optional[Sequence[Sequence[bool]]] = None,
    ) -> "LeanGraph":
        """Build a lean graph directly from node lengths and path node lists.

        This is the fast path used by the synthetic pangenome generators for
        large graphs, bypassing the dictionary-backed representation.
        """
        node_lengths_arr = np.asarray(node_lengths, dtype=np.int64)
        if node_lengths_arr.ndim != 1:
            raise ValueError("node_lengths must be 1-D")
        if np.any(node_lengths_arr < 0):
            raise ValueError("node lengths must be non-negative")
        offsets = [0]
        step_nodes: List[np.ndarray] = []
        step_rev: List[np.ndarray] = []
        step_pos: List[np.ndarray] = []
        for p_idx, path in enumerate(paths):
            nodes = np.asarray(path, dtype=np.int64)
            if nodes.size and (nodes.min() < 0 or nodes.max() >= node_lengths_arr.size):
                raise ValueError(f"path {p_idx} references a node out of range")
            lengths = node_lengths_arr[nodes] if nodes.size else np.empty(0, dtype=np.int64)
            positions = np.concatenate(([0], np.cumsum(lengths)[:-1])) if nodes.size else np.empty(0, dtype=np.int64)
            if orientations is not None:
                rev = np.asarray(orientations[p_idx], dtype=bool)
                if rev.size != nodes.size:
                    raise ValueError(f"orientations for path {p_idx} must align with steps")
            else:
                rev = np.zeros(nodes.size, dtype=bool)
            step_nodes.append(nodes)
            step_rev.append(rev)
            step_pos.append(positions)
            offsets.append(offsets[-1] + nodes.size)
        names = list(path_names) if path_names is not None else None
        return cls(
            node_lengths=node_lengths_arr,
            path_offsets=np.asarray(offsets, dtype=np.int64),
            step_nodes=np.concatenate(step_nodes) if step_nodes else np.empty(0, dtype=np.int64),
            step_reverse=np.concatenate(step_rev) if step_rev else np.empty(0, dtype=bool),
            step_positions=np.concatenate(step_pos) if step_pos else np.empty(0, dtype=np.int64),
            path_names=names or [],
        )

    def subset_paths(self, path_indices: Sequence[int]) -> "LeanGraph":
        """Return a new lean graph containing only the selected paths.

        Node arrays are retained unchanged (ids stay valid); only the step
        arrays are filtered. Useful for per-region experiments.
        """
        indices = list(path_indices)
        offsets = [0]
        nodes_parts: List[np.ndarray] = []
        rev_parts: List[np.ndarray] = []
        pos_parts: List[np.ndarray] = []
        names: List[str] = []
        for idx in indices:
            sl = self.path_steps(idx)
            nodes_parts.append(self.step_nodes[sl])
            rev_parts.append(self.step_reverse[sl])
            pos_parts.append(self.step_positions[sl])
            offsets.append(offsets[-1] + (sl.stop - sl.start))
            names.append(self.path_names[idx])
        return LeanGraph(
            node_lengths=self.node_lengths.copy(),
            path_offsets=np.asarray(offsets, dtype=np.int64),
            step_nodes=np.concatenate(nodes_parts) if nodes_parts else np.empty(0, dtype=np.int64),
            step_reverse=np.concatenate(rev_parts) if rev_parts else np.empty(0, dtype=bool),
            step_positions=np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64),
            path_names=names,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeanGraph(nodes={self.n_nodes}, paths={self.n_paths}, "
            f"steps={self.total_steps}, nuc={self.total_sequence_length})"
        )
