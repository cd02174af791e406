"""Variation graph data model.

A variation graph ``G = (P, V, E)`` (paper Sec. II-A) is a directed graph in
which every *node* carries a nucleotide sequence, every *edge* connects an
ordered, oriented pair of nodes, and every *path* is a walk over oriented
nodes that spells out one of the input genomes. Nodes shared by many paths
represent homologous sequence; nodes private to a few paths are the variants
the layout is meant to reveal.

This module provides the mutable, dictionary-backed "full" representation
analogous to ODGI's graph class: handy for construction, editing and I/O, but
deliberately richer than the layout algorithm needs. The layout engines never
consume it directly — they consume the flat, array-based
:class:`repro.graph.lean.LeanGraph` extracted from it (paper Sec. V-A, the
"lean data structure").

Storage is per id, not per object: a node is its length (plus its sequence
when one was given), an edge is its ``(from_id, from_rev, to_id, to_rev)``
key, and :class:`Node` and :class:`Edge` values are built when a caller asks
for one. A GFA segment given only by ``LN:i`` therefore costs no string.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Node", "Edge", "Path", "VariationGraph"]

#: ``(from_id, from_rev, to_id, to_rev)``: how a graph stores an edge.
EdgeKey = Tuple[int, bool, int, bool]


@dataclass(frozen=True)
class Node:
    """A node holds a nucleotide sequence (or just its length).

    The layout algorithm only ever uses ``len(sequence)``; storing the raw
    string mirrors ODGI, and dropping it is exactly the "lean data structure"
    optimisation the paper describes.
    """

    node_id: int
    sequence: str

    @property
    def length(self) -> int:
        """Number of nucleotides in this node."""
        return len(self.sequence)


@dataclass(frozen=True)
class Edge:
    """A directed edge between two oriented node ends.

    ``from_rev`` / ``to_rev`` express whether the edge leaves/enters the
    reverse complement of the node (GFA orientation signs).
    """

    from_id: int
    to_id: int
    from_rev: bool = False
    to_rev: bool = False

    def key(self) -> Tuple[int, bool, int, bool]:
        """Canonical dictionary key for this edge."""
        return (self.from_id, self.from_rev, self.to_id, self.to_rev)


@dataclass(eq=False)
class Path:
    """A named walk through the graph representing one input genome.

    The walk is stored as two flat, index-aligned columns rather than one
    object per step, so a path of millions of steps costs 9 bytes per step.
    """

    name: str
    #: ``(n_steps,)`` int64 — node id visited by each step.
    nodes: np.ndarray
    #: ``(n_steps,)`` bool — whether each step visits the reverse strand.
    reverse: np.ndarray

    def __len__(self) -> int:
        return int(self.nodes.size)

    def node_ids(self) -> List[int]:
        """The node identifiers visited, in order."""
        return self.nodes.tolist()


class VariationGraph:
    """Mutable variation graph (ODGI-style full representation).

    The class enforces referential integrity: edges and path steps may only
    reference existing nodes, and removing a node removes its incident edges
    and is refused while any path still visits it.
    """

    def __init__(self) -> None:
        #: Node id -> length, in insertion order.
        self._lengths: Dict[int, int] = {}
        #: Node id -> sequence, for the nodes that were given one.
        self._sequences: Dict[int, str] = {}
        #: Edge keys in insertion order (the values are unused).
        self._edges: Dict[EdgeKey, None] = {}
        self._paths: Dict[str, Path] = {}
        #: Undirected neighbour sets, built on first use and kept current
        #: from then on.
        self._adjacency: Optional[Dict[int, set]] = None
        # One past the largest node id ever added. While it equals the node
        # count the ids are exactly 0..n-1, so a path's ids can be checked
        # with one min/max instead of a membership test per step.
        self._id_bound = 0

    def _install(self, lengths: List[int], sequences: Dict[int, str],
                 edges: Dict[EdgeKey, None]) -> None:
        """Load nodes ``0..len(lengths)-1`` and ``edges`` into an empty graph.

        ``sequences`` holds the nodes that have one; the GFA reader builds
        all three in one pass.
        """
        self._lengths = dict(enumerate(lengths))
        self._sequences = sequences
        self._edges = edges
        self._id_bound = len(lengths)

    # ------------------------------------------------------------------ nodes
    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._lengths)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def path_count(self) -> int:
        """Number of paths."""
        return len(self._paths)

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` exists."""
        return node_id in self._lengths

    def add_node(self, node_id: int, sequence: str) -> Node:
        """Add a node; duplicate ids are rejected, empty sequences allowed."""
        if node_id in self._lengths:
            raise ValueError(f"node {node_id} already exists")
        if node_id < 0:
            raise ValueError("node ids must be non-negative")
        self._lengths[node_id] = len(sequence)
        self._sequences[node_id] = sequence
        self._id_bound = max(self._id_bound, node_id + 1)
        if self._adjacency is not None:
            self._adjacency[node_id] = set()
        return Node(node_id, sequence)

    def get_node(self, node_id: int) -> Node:
        """Return the node with ``node_id`` (KeyError if absent).

        A node stored without a sequence reads as ``"N" * length``.
        """
        length = self._lengths[node_id]
        sequence = self._sequences.get(node_id)
        return Node(node_id, "N" * length if sequence is None else sequence)

    def node_length(self, node_id: int) -> int:
        """Sequence length of a node."""
        return self._lengths[node_id]

    def node_lengths(self) -> np.ndarray:
        """``(node_count,)`` int64 node lengths, in insertion order."""
        return np.fromiter(self._lengths.values(), dtype=np.int64,
                           count=len(self._lengths))

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return map(self.get_node, self._lengths)

    def node_ids(self) -> List[int]:
        """All node ids in insertion order."""
        return list(self._lengths)

    def remove_node(self, node_id: int) -> None:
        """Remove an isolated-from-paths node and its incident edges."""
        if node_id not in self._lengths:
            raise KeyError(node_id)
        for path in self._paths.values():
            if np.any(path.nodes == node_id):
                raise ValueError(
                    f"node {node_id} is still referenced by path '{path.name}'"
                )
        doomed = [k for k in self._edges if k[0] == node_id or k[2] == node_id]
        for k in doomed:
            del self._edges[k]
        if self._adjacency is not None:
            for neigh in self._adjacency.pop(node_id):
                self._adjacency.get(neigh, set()).discard(node_id)
        del self._lengths[node_id]
        self._sequences.pop(node_id, None)

    # ------------------------------------------------------------------ edges
    def has_edge(
        self, from_id: int, to_id: int, from_rev: bool = False, to_rev: bool = False
    ) -> bool:
        """Whether the oriented edge exists."""
        return (from_id, from_rev, to_id, to_rev) in self._edges

    def add_edge(
        self, from_id: int, to_id: int, from_rev: bool = False, to_rev: bool = False
    ) -> Edge:
        """Add an edge between existing nodes; duplicates are idempotent."""
        if from_id not in self._lengths:
            raise KeyError(f"edge references missing node {from_id}")
        if to_id not in self._lengths:
            raise KeyError(f"edge references missing node {to_id}")
        key = (from_id, from_rev, to_id, to_rev)
        if key not in self._edges:
            self._edges[key] = None
            if self._adjacency is not None:
                self._adjacency[from_id].add(to_id)
                self._adjacency[to_id].add(from_id)
        return Edge(from_id, to_id, from_rev, to_rev)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order."""
        return (Edge(a, b, a_rev, b_rev) for a, a_rev, b, b_rev in self._edges)

    def neighbors(self, node_id: int) -> set:
        """Undirected neighbourhood of a node."""
        return set(self._neighbour_sets()[node_id])

    def degree(self, node_id: int) -> int:
        """Undirected degree of a node."""
        return len(self._neighbour_sets()[node_id])

    def _neighbour_sets(self) -> Dict[int, set]:
        if self._adjacency is None:
            adjacency: Dict[int, set] = {node_id: set() for node_id in self._lengths}
            for a, _, b, _ in self._edges:
                adjacency[a].add(b)
                adjacency[b].add(a)
            self._adjacency = adjacency
        return self._adjacency

    # ------------------------------------------------------------------ paths
    def has_path(self, name: str) -> bool:
        """Whether a path with this name exists."""
        return name in self._paths

    def add_path(self, name: str, steps: Optional[Iterable[Tuple[int, bool]]] = None) -> Path:
        """Create a path; ``steps`` is an iterable of (node_id, is_reverse)."""
        pairs = [] if steps is None else list(steps)
        return self.add_path_columns(
            name, [node_id for node_id, _ in pairs], [rev for _, rev in pairs]
        )

    def add_path_columns(
        self, name: str, nodes: Sequence[int], reverse: Sequence[bool]
    ) -> Path:
        """Create a path from its walk columns: node ids and orientations."""
        if name in self._paths:
            raise ValueError(f"path '{name}' already exists")
        path = Path(name, np.asarray(nodes, dtype=np.int64),
                    np.asarray(reverse, dtype=bool))
        if path.nodes.ndim != 1 or path.nodes.shape != path.reverse.shape:
            raise ValueError(f"path '{name}': nodes and orientations must be aligned 1-D columns")
        missing = self._missing_nodes(path.nodes)
        if missing.size:
            raise KeyError(f"path step references missing node {int(missing[0])}")
        self._paths[name] = path
        return path

    def _missing_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """The entries of ``nodes`` that name no node, in order."""
        if nodes.size == 0 or (
            len(self._lengths) == self._id_bound
            and nodes.min() >= 0
            and nodes.max() < self._id_bound
        ):
            return nodes[:0]
        known = np.fromiter(self._lengths, dtype=np.int64, count=len(self._lengths))
        return nodes[~np.isin(nodes, known)]

    def get_path(self, name: str) -> Path:
        """Return the path with this name (KeyError if absent)."""
        return self._paths[name]

    def paths(self) -> Iterator[Path]:
        """Iterate over paths in insertion order."""
        return iter(self._paths.values())

    def path_names(self) -> List[str]:
        """All path names in insertion order."""
        return list(self._paths.keys())

    # ------------------------------------------------------------- aggregates
    def total_sequence_length(self) -> int:
        """Total number of nucleotides stored across all nodes (# Nuc.)."""
        return sum(self._lengths.values())

    def total_path_steps(self) -> int:
        """Sum over paths of the number of steps (the paper's Σ|p|)."""
        return sum(len(p) for p in self._paths.values())

    def total_path_nucleotides(self) -> int:
        """Total nucleotide length of all paths (counts shared nodes repeatedly)."""
        return sum(self._walk_nucleotides(p.nodes) for p in self._paths.values())

    def path_length_nucleotides(self, name: str) -> int:
        """Nucleotide length of one path."""
        return self._walk_nucleotides(self._paths[name].nodes)

    def _walk_nucleotides(self, nodes: np.ndarray) -> int:
        """Summed node lengths of a walk, one lookup per distinct node."""
        ids, visits = np.unique(nodes, return_counts=True)
        return sum(self._lengths[i] * k
                   for i, k in zip(ids.tolist(), visits.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VariationGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"paths={self.path_count})"
        )
