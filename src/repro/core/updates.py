"""The stress-gradient update shared by every layout engine.

Implements lines 14–15 of Alg. 1 following the odgi-layout / Zheng-et-al.
formulation: each selected term ``(v_i, v_j, d_ref)`` moves both
visualisation points along their connecting line so the layout distance
approaches the reference distance, with a per-term step size
``μ = min(η · d_ref^-2, 1)``.

A *segment* of terms is applied at once. Within a segment every term reads
the coordinates as they were at the start of the segment and the writes are
merged afterwards — exactly the staleness the paper's Hogwild!/large-batch
analysis discusses (Sec. III-A, IV-A): small segments behave like the serial
algorithm, huge ones accumulate stale updates and degrade quality (Table
III). :func:`merge_batch` is the one entry point.

Three write-merge policies are offered:

* ``"hogwild"`` (default) — colliding terms' displacements are averaged per
  point. Sequentially applied full-strength corrections each pull the point
  toward their own target rather than stacking, so the average is the closest
  batched proxy for asynchronous Hogwild stores; collision-free terms are
  unaffected.
* ``"accumulate"`` — displacements of colliding terms add up; faithful to a
  pure gradient-sum formulation but can overshoot when the per-term step is
  saturated (μ = 1), so it is exposed for sensitivity studies only.
* ``"last_writer"`` — only one colliding term survives per point, modelling a
  racy unsynchronised store; provided to study collision sensitivity.

Cost discipline (paper Sec. V-B): the update step is memory-bound, so the
merge must never touch more state than the batch itself. All three policies
operate on the *compacted* index space of the points the batch actually
touches (:func:`compact_points`), making a merge O(batch) — independent of
the graph size — and an :class:`UpdateWorkspace` of preallocated scratch
buffers removes the per-batch allocation of the large staging arrays.

Hoisting: a run of equal-size segments is merged as one *block*
(:func:`merge_batch` with ``segments > 1``). Everything that reads no
coordinate — endpoint point indices, ``d_ref`` weights, μ and every
segment's compaction — is computed once per block (:func:`prepare_block`),
so the per-segment loop holds only the gather, the displacement arithmetic
and the scatter. Segments still run strictly in order, each reading the
coordinates as of its own start, so blocks change no value.

Compiled merge: the per-segment loop of a whole block runs as one C call
(:meth:`repro.backend.cext.CompiledKernels.merge_block`) that evaluates
:func:`merge_segments`' operations in the same order, so layouts and
collision counts are bit-identical. Its scratch is the
workspace's per-segment buffers. The compaction stays in NumPy, and
:func:`merge_segments` runs whenever the kernels are unavailable or an
array is outside their contract.

Backend kernels: the compaction, the merge scatters and the row-wise norm
are methods of :data:`~repro.backend.NUMPY_BACKEND`, the one execution
backend, called through it so that a wrapper on the class attribute
(perfbench's layer spans) sees every call. Everything else is plain NumPy
on host arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..backend import NUMPY_BACKEND, cext
from .selection import StepBatch

__all__ = [
    "UpdateWorkspace",
    "TermBlock",
    "compact_points",
    "prepare_block",
    "compute_displacements",
    "merge_segments",
    "merge_batch",
    "batch_stress",
]

_MIN_DISTANCE = 1e-9


class UpdateWorkspace:
    """Reusable scratch buffers for the update hot path.

    One workspace is created per :meth:`LayoutEngine.run` (sized to the
    largest batch of the engine's plan) and threaded through every
    :func:`merge_batch` call of the run, so the
    dominant temporaries are allocated once instead of once per batch. Two
    groups of buffers, each with its own capacity:

    * per-segment (:attr:`max_batch` terms) — gathered coordinates,
      displacement vectors and the merge staging arrays;
    * per-block (:attr:`max_block` terms) — the coordinate-free state
      :func:`prepare_block` hoists out of the segment loop: endpoint point
      indices, compaction keys, ``valid``, ``d_safe`` and μ.

    Buffers grow on demand (engines that expand batches after planning,
    e.g. warp-shuffle data reuse, stay correct; the fused path's first
    block grows the block group once) and never shrink.

    The buffers hold no state between calls; sharing one workspace across
    engines is safe as long as calls do not interleave mid-update.
    """

    def __init__(self, max_batch: int = 1):
        self.max_batch = 0
        self.max_block = 0
        n = max(int(max_batch), 1)
        self.ensure(n, n)

    def _grow(self, n: int) -> None:
        self.max_batch = n
        self.gather = np.empty((2 * n, 2), dtype=np.float64)
        self.diff = np.empty((n, 2), dtype=np.float64)
        self.mag = np.empty(n, dtype=np.float64)
        self.mag_safe = np.empty(n, dtype=np.float64)
        self.term_delta = np.empty((n, 2), dtype=np.float64)
        self.merge_delta = np.empty((2 * n, 2), dtype=np.float64)

    def _grow_block(self, n: int) -> None:
        self.max_block = n
        self.merge_points = np.empty(2 * n, dtype=np.int64)
        self.merge_keys = np.empty(2 * n, dtype=np.int64)
        self.valid = np.empty(n, dtype=bool)
        self.d_safe = np.empty(n, dtype=np.float64)
        self.mu = np.empty(n, dtype=np.float64)

    def ensure(self, batch_size: int, block_terms: int = 0) -> None:
        """Grow the buffers for ``batch_size``-term segments and
        ``block_terms``-term blocks, if either exceeds the capacity."""
        if batch_size > self.max_batch:
            self._grow(int(batch_size))
        if block_terms > self.max_block:
            self._grow_block(int(block_terms))


@dataclass(slots=True)
class TermBlock:
    """The coordinate-free state of a block of equal-size segments.

    Built once per block by :func:`prepare_block`; row ``s`` of a 2-D
    array, and terms ``s · size`` to ``(s + 1) · size`` of a per-term one,
    belong to segment ``s``. The arrays are views into the
    workspace's block buffers or the compaction's own output, so a block
    is O(block) and is overwritten by the next one.
    """

    size: int
    """Terms per segment."""
    points: np.ndarray
    """``(segments, 2·size)`` flat point indices: the ``i`` endpoints, then
    the ``j`` endpoints — the merge's endpoint order."""
    valid: np.ndarray
    """``d_ref > 0`` per term, in batch order."""
    d_safe: np.ndarray
    """``d_ref`` per term, or 1.0 where it is not positive."""
    mu: np.ndarray
    """Step size ``min(η / d_safe², 1)`` per term."""
    touched: np.ndarray
    """Compacted points of every segment, segment after segment, each
    segment's run sorted."""
    inverse: np.ndarray
    """``(segments, 2·size)`` slot of each endpoint within its segment's
    run of :attr:`touched`."""
    counts: np.ndarray
    """Endpoint occurrences per slot, aligned with :attr:`touched`."""
    bounds: List[int]
    """Segment ``s`` owns slots ``bounds[s]:bounds[s + 1]``."""

    @property
    def n_collisions(self) -> int:
        """Endpoint occurrences beyond the first per point, summed over segments."""
        return int(self.points.size) - self.bounds[-1]


def compact_points(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact flat point indices onto the touched-point index space.

    Returns ``(unique_points, inverse, counts)`` from a single sort-based
    pass (``np.unique(..., return_inverse=True)``): ``inverse`` maps every
    entry of ``points`` to its slot in ``unique_points`` and ``counts`` is
    the per-slot multiplicity. The same compaction serves the bincount-based
    write merges *and* the collision counter, so the hot path never
    materialises graph-sized scratch arrays and never sorts twice.
    """
    return NUMPY_BACKEND.compact_points(points)


def prepare_block(
    batch: StepBatch,
    eta: float,
    workspace: UpdateWorkspace,
    segments: int = 1,
    n_points: int = 0,
) -> TermBlock:
    """Everything ``segments`` equal segments of ``batch`` need but coordinates.

    ``batch`` holds the segments back to back (its length must be a
    multiple of ``segments``). Computes, into the workspace's block
    buffers, the endpoint point indices, ``valid``, ``d_safe`` and μ of
    every term, and every segment's compaction. The compaction is one
    :meth:`~repro.backend.NumpyBackend.compact_points` call over
    ``segment · n_points + point`` keys (``n_points`` is the coordinate
    row count; one segment needs no keys): sorted keys group by segment,
    so each segment's touched points, counts and local inverse are a
    contiguous run of the block's.
    """
    n = len(batch)
    if n < 1 or segments < 1 or n % segments:
        raise ValueError(f"cannot split {n} terms into {segments} equal segments")
    if segments > 1 and n_points < 1:
        raise ValueError("a block of several segments needs n_points >= 1")
    size = n // segments
    workspace.ensure(size, n)
    shape = (segments, size)

    staged = workspace.merge_points[: 2 * n].reshape(segments, 2, size)
    point_i, point_j = staged[:, 0], staged[:, 1]
    np.multiply(batch.node_i.reshape(shape), 2, out=point_i)
    point_i += batch.vis_i.reshape(shape)
    np.multiply(batch.node_j.reshape(shape), 2, out=point_j)
    point_j += batch.vis_j.reshape(shape)
    points = staged.reshape(segments, 2 * size)

    # Term-major, like the batch: segment s owns [s * size, (s + 1) * size).
    d_ref = batch.d_ref
    valid = np.greater(d_ref, 0, out=workspace.valid[:n])
    d_safe = workspace.d_safe[:n]
    d_safe[...] = 1.0
    np.copyto(d_safe, d_ref, where=valid)
    # mu = min(eta * (1 / d_safe²), 1), evaluated in place op for op.
    mu = np.multiply(d_safe, d_safe, out=workspace.mu[:n])
    np.divide(1.0, mu, out=mu)
    np.multiply(mu, eta, out=mu)
    np.minimum(mu, 1.0, out=mu)

    if segments == 1:
        touched, inverse, counts = NUMPY_BACKEND.compact_points(points.reshape(-1))
        bounds = [0, int(touched.shape[0])]
    else:
        base = np.arange(segments + 1, dtype=np.int64) * n_points
        keys = np.add(points, base[:-1, None],
                      out=workspace.merge_keys[: 2 * n].reshape(points.shape))
        keys, inverse, counts = NUMPY_BACKEND.compact_points(keys.reshape(-1))
        starts = np.searchsorted(keys, base)
        touched = np.remainder(keys, n_points)
        inverse = inverse.reshape(points.shape) - starts[:-1, None]
        bounds = starts.tolist()
    return TermBlock(size=size, points=points, valid=valid, d_safe=d_safe,
                     mu=mu, touched=touched,
                     inverse=inverse.reshape(points.shape), counts=counts,
                     bounds=bounds)


def compute_displacements(
    coords: np.ndarray,
    block: TermBlock,
    segment: int,
    workspace: UpdateWorkspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-term displacement vectors for both endpoints of one segment.

    Reads segment ``segment`` of a prepared ``block`` and the current
    ``coords``. Returns
    ``(point_i, point_j, delta)`` where ``point_*`` are flat indices into
    the ``(2N, 2)`` coordinate array and ``delta`` is the displacement to
    subtract from point ``i`` (and add to point ``j``). All three are views
    (into the block and the workspace) that the next call overwrites.
    """
    n = block.size
    points = block.points[segment]
    lo = segment * n
    valid = block.valid[lo:lo + n]
    d_safe = block.d_safe[lo:lo + n]
    mu = block.mu[lo:lo + n]

    gathered = np.take(coords, points, axis=0, out=workspace.gather[: 2 * n])
    diff = np.subtract(gathered[:n], gathered[n:], out=workspace.diff[:n])
    mag = NUMPY_BACKEND.rowwise_sqnorm(diff, out=workspace.mag[:n])
    np.sqrt(mag, out=mag)
    mag_safe = np.maximum(mag, _MIN_DISTANCE, out=workspace.mag_safe[:n])
    delta_scalar = np.where(valid, mu * (mag - d_safe) / 2.0, 0.0)
    # Degenerate coincident points: nudge along x to separate them.
    unit = np.divide(diff, mag_safe[:, None], out=workspace.term_delta[:n])
    coincident = mag < _MIN_DISTANCE
    if bool(coincident.any()):
        unit[coincident] = (1.0, 0.0)
    delta = np.multiply(unit, delta_scalar[:, None], out=unit)
    return points[:n], points[n:], delta


def merge_segments(coords: np.ndarray, block: TermBlock, merge: str,
                   workspace: UpdateWorkspace,
                   displace=compute_displacements) -> None:
    """Merge the segments of a prepared ``block`` into ``coords``, in order.

    The array-at-a-time merge: the fallback of the compiled one
    (:meth:`repro.backend.cext.CompiledKernels.merge_block`) and the
    reference it is self-tested against. Segment by segment, ``displace``
    reads the coordinates as of the segment's start, the ``[−δ; δ]``
    deltas are staged, and ``NumpyBackend.merge_scatter`` writes them
    through the segment's precomputed compaction.

    ``displace`` defaults to :func:`compute_displacements` as defined
    here. :func:`merge_batch` passes the module's current binding instead,
    so a timing wrapper installed on that name (perfbench's layer spans)
    sees every fallback segment and none of the self-test's.
    """
    size = block.size
    bounds = block.bounds
    all_deltas = workspace.merge_delta[: 2 * size]
    for segment in range(len(bounds) - 1):
        _, _, delta = displace(coords, block, segment, workspace)
        np.negative(delta, out=all_deltas[:size])
        all_deltas[size:] = delta
        lo, hi = bounds[segment], bounds[segment + 1]
        NUMPY_BACKEND.merge_scatter(coords, block.touched[lo:hi],
                                    block.inverse[segment],
                                    block.counts[lo:hi], all_deltas, merge)


def merge_batch(
    coords: np.ndarray,
    batch: StepBatch,
    eta: float,
    merge: str,
    workspace: UpdateWorkspace,
    segments: int = 1,
) -> int:
    """Displace and merge ``segments`` equal segments of ``batch`` into ``coords``.

    The one merge implementation: the fused iteration path
    (:mod:`repro.core.fused`) calls it once per block of equal segments;
    a bare ``batch`` is one segment. :func:`prepare_block` computes the block's
    coordinate-free state, compaction included, once. When
    :func:`repro.backend.cext.kernels` loads, one compiled call then
    merges the whole block, segment by segment and bit for bit as
    :func:`merge_segments` does; otherwise :func:`merge_segments` runs. No
    statistics are computed here.

    Returns the block's point-collision count.
    """
    block = prepare_block(batch, eta, workspace, segments, coords.shape[0])
    compiled = cext.kernels()
    if compiled is None or not compiled.merge_block(
            coords, block, merge, workspace.term_delta, workspace.merge_delta):
        merge_segments(coords, block, merge, workspace, compute_displacements)
    return block.n_collisions


def batch_stress(coords: np.ndarray, batch: StepBatch) -> float:
    """Mean normalised stress of the batch's terms under the current layout.

    This is the quantity minimised by the algorithm (Alg. 1 line 14) and the
    building block of the path-stress metrics in :mod:`repro.metrics`.
    """
    valid = batch.d_ref > 0
    if not bool(valid.any()):
        return 0.0
    point_i = 2 * batch.node_i + batch.vis_i
    point_j = 2 * batch.node_j + batch.vis_j
    diff = coords[point_i] - coords[point_j]
    mag = np.sqrt(NUMPY_BACKEND.rowwise_sqnorm(diff))
    d = batch.d_ref
    terms = ((mag[valid] - d[valid]) / d[valid]) ** 2
    return float(terms.mean())
