"""Layout state: visualisation-point coordinates and their memory layouts.

Each graph node is drawn as a line segment; its two endpoints are the
*visualisation points* of Alg. 1 (``L[n].start`` / ``L[n].end``). The layout
state therefore has ``2·N`` points in 2-D.

Two memory organisations of this state matter for the paper:

* **SoA (struct of arrays)** — ODGI keeps the X coordinates and Y coordinates
  in two separate arrays (and node lengths in a third). Updating one node
  touches three distant memory regions; this is the baseline layout.
* **AoS (array of structs)** — the paper's *cache-friendly data layout*
  (Sec. V-B1) packs ``[length, sx, sy, ex, ey]`` per node contiguously so a
  single access fetches everything a step update needs.

The numerical engines always operate on a canonical ``(2N, 2)`` float64 array
(NumPy handles the arithmetic identically either way); the
:class:`NodeDataLayout` enum plus the address-generation helpers here tell
the GPU/cache simulator which byte addresses a given logical access touches,
which is how Table IX's LLC/DRAM numbers are reproduced.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from ..graph.lean import LeanGraph

__all__ = ["NodeDataLayout", "Layout", "initialize_layout", "node_record_addresses"]

_COORD_BYTES = 8  # float64
_LENGTH_BYTES = 8


class NodeDataLayout(str, Enum):
    """Memory organisation of per-node layout data."""

    SOA = "soa"
    """Separate arrays for lengths, X coordinates and Y coordinates (ODGI)."""

    AOS = "aos"
    """One packed record per node (the cache-friendly data layout, CDL)."""


@dataclass
class Layout:
    """2-D layout of a variation graph.

    Attributes
    ----------
    coords:
        ``(2·n_nodes, 2)`` float64; rows ``2n`` and ``2n+1`` are the start and
        end visualisation points of node ``n``.
    data_layout:
        Declared memory organisation (used by the simulator, not by NumPy).
    """

    coords: np.ndarray
    data_layout: NodeDataLayout = NodeDataLayout.SOA

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2 or self.coords.shape[0] % 2:
            raise ValueError("coords must have shape (2*n_nodes, 2)")

    @property
    def n_nodes(self) -> int:
        """Number of graph nodes represented."""
        return self.coords.shape[0] // 2

    def copy(self) -> "Layout":
        """Deep copy of the layout."""
        return Layout(self.coords.copy(), self.data_layout)

    def start_points(self) -> np.ndarray:
        """View of all node start points, shape ``(n_nodes, 2)``."""
        return self.coords[0::2]

    def end_points(self) -> np.ndarray:
        """View of all node end points, shape ``(n_nodes, 2)``."""
        return self.coords[1::2]

    def node_segment(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """(start, end) coordinates of one node's segment."""
        return self.coords[2 * node_id].copy(), self.coords[2 * node_id + 1].copy()

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of all visualisation points."""
        mins = self.coords.min(axis=0)
        maxs = self.coords.max(axis=0)
        return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])

    def with_data_layout(self, data_layout: NodeDataLayout) -> "Layout":
        """Same coordinates, different declared memory organisation."""
        return Layout(self.coords.copy(), data_layout)

    def to_aos_array(self, node_lengths: np.ndarray) -> np.ndarray:
        """Materialise the packed AoS records ``[len, sx, sy, ex, ey]``."""
        n = self.n_nodes
        node_lengths = np.asarray(node_lengths, dtype=np.float64)
        if node_lengths.size != n:
            raise ValueError("node_lengths must have one entry per node")
        out = np.empty((n, 5), dtype=np.float64)
        out[:, 0] = node_lengths
        out[:, 1] = self.coords[0::2, 0]
        out[:, 2] = self.coords[0::2, 1]
        out[:, 3] = self.coords[1::2, 0]
        out[:, 4] = self.coords[1::2, 1]
        return out

    @classmethod
    def from_aos_array(cls, aos: np.ndarray) -> "Layout":
        """Rebuild a layout from packed AoS records (tagged :attr:`NodeDataLayout.AOS`)."""
        aos = np.asarray(aos, dtype=np.float64)
        if aos.ndim != 2 or aos.shape[1] != 5:
            raise ValueError("AoS array must have shape (n_nodes, 5)")
        coords = np.empty((2 * aos.shape[0], 2), dtype=np.float64)
        coords[0::2, 0] = aos[:, 1]
        coords[0::2, 1] = aos[:, 2]
        coords[1::2, 0] = aos[:, 3]
        coords[1::2, 1] = aos[:, 4]
        return cls(coords, NodeDataLayout.AOS)


def initialize_layout(
    graph: LeanGraph,
    seed: int = 0,
    jitter: float = 1.0,
    data_layout: NodeDataLayout = NodeDataLayout.SOA,
) -> Layout:
    """Path-guided initial layout, as in odgi-layout.

    Every node's X coordinates are seeded from its first nucleotide position
    on the first path that visits it (so the initial state is already roughly
    linear, matching the genomic coordinate system), and the Y coordinates
    get small Gaussian jitter to break symmetry. Nodes visited by no path are
    appended past the longest path.
    """
    rng = np.random.default_rng(seed)  # det-ok: seeded by the caller's explicit seed argument
    n = graph.n_nodes
    first_pos = np.full(n, -1.0, dtype=np.float64)
    nodes = graph.step_nodes
    positions = graph.step_positions.astype(np.float64)
    # First occurrence of each node: the smallest step index naming it.
    first_idx = np.full(n, nodes.size, dtype=np.int64)
    np.minimum.at(first_idx, nodes, np.arange(nodes.size))
    present = first_idx < nodes.size
    first_pos[present] = positions[first_idx[present]]
    # Path-less nodes go past the furthest on-path *extent* (step position plus
    # that node's length), not the furthest step start — otherwise the first
    # appended node can overlap the final on-path node's segment.
    if positions.size:
        max_pos = float((positions + graph.node_lengths[nodes].astype(np.float64)).max())
    else:
        max_pos = 0.0
    missing = first_pos < 0
    if missing.any():
        # Pack the appended nodes end to end from max_pos: an *exclusive*
        # prefix sum of their lengths, so each one starts where the previous
        # one ends regardless of length ordering.
        lengths = graph.node_lengths[missing].astype(np.float64)
        first_pos[missing] = max_pos + np.cumsum(lengths) - lengths
    coords = np.empty((2 * n, 2), dtype=np.float64)
    coords[0::2, 0] = first_pos
    coords[1::2, 0] = first_pos + graph.node_lengths.astype(np.float64)
    coords[0::2, 1] = rng.normal(0.0, jitter, size=n)
    coords[1::2, 1] = coords[0::2, 1] + rng.normal(0.0, jitter * 0.1, size=n)
    return Layout(coords, data_layout)


def node_record_addresses(
    node_ids: np.ndarray,
    endpoint: np.ndarray,
    data_layout: NodeDataLayout,
    n_nodes: int,
    base_address: int = 0,
) -> np.ndarray:
    """Byte addresses touched when loading the selected visualisation points.

    For every (node, endpoint) request the engine must read the node's X and
    Y coordinate (and, in practice, its length for the update bookkeeping).

    * Under :attr:`NodeDataLayout.SOA` the three live in separate arrays
      (lengths, X coords, Y coords), so one request produces three widely
      separated addresses (paper Fig. 9a).
    * Under :attr:`NodeDataLayout.AOS` they are fields of one 40-byte record,
      so the addresses fall in the same cache line (paper Fig. 9b).

    Returns an ``(n_requests, 3)`` int64 array of byte addresses
    (length, x, y), which the cache simulator replays.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    endpoint = np.asarray(endpoint, dtype=np.int64)
    if node_ids.shape != endpoint.shape:
        raise ValueError("node_ids and endpoint must have the same shape")
    out = np.empty((node_ids.size, 3), dtype=np.int64)
    if data_layout == NodeDataLayout.AOS:
        record = base_address + node_ids * (5 * _COORD_BYTES)
        out[:, 0] = record
        out[:, 1] = record + _COORD_BYTES * (1 + 2 * endpoint)
        out[:, 2] = record + _COORD_BYTES * (2 + 2 * endpoint)
    else:
        len_base = base_address
        x_base = len_base + n_nodes * _LENGTH_BYTES
        y_base = x_base + 2 * n_nodes * _COORD_BYTES
        point_index = 2 * node_ids + endpoint
        out[:, 0] = len_base + node_ids * _LENGTH_BYTES
        out[:, 1] = x_base + point_index * _COORD_BYTES
        out[:, 2] = y_base + point_index * _COORD_BYTES
    return out
