"""The stress-gradient update shared by every layout engine.

Implements lines 14–15 of Alg. 1 following the odgi-layout / Zheng-et-al.
formulation: each selected term ``(v_i, v_j, d_ref)`` moves both
visualisation points along their connecting line so the layout distance
approaches the reference distance, with a per-term step size
``μ = min(η · d_ref^-2, 1)``.

A *batch* of terms is applied at once. Within a batch every term reads the
coordinates as they were at the start of the batch and the writes are merged
afterwards — exactly the staleness the paper's Hogwild!/large-batch analysis
discusses (Sec. III-A, IV-A): small batches behave like the serial algorithm,
huge batches accumulate stale updates and degrade quality (Table III).

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
touches (:func:`compact_points`), making ``apply_batch`` O(batch) per batch
— independent of the graph size — and an :class:`UpdateWorkspace` of
preallocated scratch buffers removes the per-batch allocation of the large
staging arrays.

Hoisting: a run of equal-size segments is merged as one *block*
(:func:`merge_batch` with ``segments > 1``). Everything that reads no
coordinate — endpoint point indices, ``d_ref`` weights, μ and every
segment's compaction — is computed once per block (:func:`prepare_block`),
so the per-segment loop holds only the gather, the displacement arithmetic
and the scatter. Segments still run strictly in order, each reading the
coordinates as of its own start, so blocks change no value.

Compiled merge: on the NumPy backend the per-segment loop of a whole block
runs as one C call (:meth:`repro.backend.cext.CompiledKernels.merge_block`)
that evaluates :func:`merge_segments`' operations in the same order, so
layouts and collision counts are bit-identical. Its scratch is the
workspace's per-segment buffers. The compaction stays in NumPy, and
:func:`merge_segments` runs whenever the kernels are unavailable or an
array is outside their contract.

Backend dispatch: every array operation goes through an
:class:`~repro.backend.ArrayBackend` — the workspace buffers are allocated
from the backend's namespace, the merge scatters are backend kernels, and
batch inputs are coerced with ``backend.asarray`` (a no-op on host
backends). Callers that pass neither a ``workspace`` nor a ``backend`` get
the NumPy reference backend, which issues byte-for-byte the historical call
sequence; engines resolve their backend once (``LayoutParams.backend`` /
``REPRO_BACKEND``) and thread it here via their per-run workspace.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..backend import ArrayBackend, cext, get_backend
from .selection import StepBatch

__all__ = [
    "UpdateStats",
    "UpdateWorkspace",
    "TermBlock",
    "compact_points",
    "prepare_block",
    "compute_displacements",
    "merge_segments",
    "merge_batch",
    "apply_batch",
    "batch_stress",
]

_MIN_DISTANCE = 1e-9


def _default_backend() -> ArrayBackend:
    """The NumPy reference backend, the low-level default.

    Bare calls to the functions in this module receive host arrays, so the
    host reference backend is the only safe default; environment-driven
    backend selection (``REPRO_BACKEND``) is applied where the coordinate
    state is created — at engine level — not here.
    """
    return get_backend("numpy")


def _resolve_backend(workspace: Optional["UpdateWorkspace"],
                     backend: Optional[ArrayBackend]) -> ArrayBackend:
    """One backend per call: the workspace's, an explicit one, or the default."""
    if workspace is not None:
        if backend is not None and backend is not workspace.backend:
            raise ValueError(
                f"backend mismatch: workspace is on {workspace.backend.name!r} "
                f"but backend={backend.name!r} was passed")
        return workspace.backend
    return backend if backend is not None else _default_backend()


@dataclass
class UpdateStats:
    """Counters describing one applied batch (consumed by profiling models)."""

    n_terms: int
    n_zero_ref: int
    n_point_collisions: int


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

    The buffers live in the memory space of the workspace's
    :class:`~repro.backend.ArrayBackend` (host NumPy by default), which also
    fixes the backend used by every call the workspace is threaded through.

    The buffers hold no state between calls; sharing one workspace across
    engines is safe as long as calls do not interleave mid-update.
    """

    def __init__(self, max_batch: int = 1, backend: Optional[ArrayBackend] = None):
        self.backend = backend if backend is not None else _default_backend()
        self.max_batch = 0
        self.max_block = 0
        n = max(int(max_batch), 1)
        self.ensure(n, n)

    def _grow(self, n: int) -> None:
        be = self.backend
        self.max_batch = n
        self.gather = be.empty((2 * n, 2), dtype=np.float64)
        self.diff = be.empty((n, 2), dtype=np.float64)
        self.mag = be.empty(n, dtype=np.float64)
        self.mag_safe = be.empty(n, dtype=np.float64)
        self.term_delta = be.empty((n, 2), dtype=np.float64)
        self.merge_delta = be.empty((2 * n, 2), dtype=np.float64)

    def _grow_block(self, n: int) -> None:
        be = self.backend
        self.max_block = n
        self.merge_points = be.empty(2 * n, dtype=np.int64)
        self.merge_keys = be.empty(2 * n, dtype=np.int64)
        self.valid = be.empty(n, dtype=bool)
        self.d_safe = be.empty(n, dtype=np.float64)
        self.mu = be.empty(n, dtype=np.float64)

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
    points: Any
    """``(segments, 2·size)`` flat point indices: the ``i`` endpoints, then
    the ``j`` endpoints — the merge's endpoint order."""
    valid: Any
    """``d_ref > 0`` per term, in batch order."""
    d_safe: Any
    """``d_ref`` per term, or 1.0 where it is not positive."""
    mu: Any
    """Step size ``min(η / d_safe², 1)`` per term."""
    touched: Any
    """Compacted points of every segment, segment after segment, each
    segment's run sorted."""
    inverse: Any
    """``(segments, 2·size)`` slot of each endpoint within its segment's
    run of :attr:`touched`."""
    counts: Any
    """Endpoint occurrences per slot, aligned with :attr:`touched`."""
    bounds: List[int]
    """Segment ``s`` owns slots ``bounds[s]:bounds[s + 1]``."""

    @property
    def n_collisions(self) -> int:
        """Endpoint occurrences beyond the first per point, summed over segments."""
        return int(self.points.size) - self.bounds[-1]


def compact_points(
    points: np.ndarray, backend: Optional[ArrayBackend] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact flat point indices onto the touched-point index space.

    Returns ``(unique_points, inverse, counts)`` from a single sort-based
    pass (``np.unique(..., return_inverse=True)``): ``inverse`` maps every
    entry of ``points`` to its slot in ``unique_points`` and ``counts`` is
    the per-slot multiplicity. The same compaction serves the bincount-based
    write merges *and* the collision counter, so the hot path never
    materialises graph-sized scratch arrays and never sorts twice.

    Dispatches to ``backend`` (NumPy reference when omitted).
    """
    be = backend if backend is not None else _default_backend()
    return be.compact_points(points)


def prepare_block(
    batch: StepBatch,
    eta: float,
    workspace: UpdateWorkspace,
    segments: int = 1,
    n_points: int = 0,
) -> TermBlock:
    """Everything ``segments`` equal segments of ``batch`` need but coordinates.

    ``batch`` holds the segments back to back (its length must be a
    multiple of ``segments``). Computes, in the workspace backend's
    namespace and into its block buffers, the endpoint point indices,
    ``valid``, ``d_safe`` and μ of every term, and every segment's
    compaction. The compaction is one :meth:`ArrayBackend.compact_points`
    call over ``segment · n_points + point`` keys (``n_points`` is the
    coordinate row count; one segment needs no keys): sorted keys group by
    segment, so each segment's touched points, counts and local inverse are
    a contiguous run of the block's.
    """
    be = workspace.backend
    xp = be.xp
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
    xp.multiply(be.asarray(batch.node_i).reshape(shape), 2, out=point_i)
    point_i += be.asarray(batch.vis_i).reshape(shape)
    xp.multiply(be.asarray(batch.node_j).reshape(shape), 2, out=point_j)
    point_j += be.asarray(batch.vis_j).reshape(shape)
    points = staged.reshape(segments, 2 * size)

    # Term-major, like the batch: segment s owns [s * size, (s + 1) * size).
    d_ref = be.asarray(batch.d_ref)
    valid = xp.greater(d_ref, 0, out=workspace.valid[:n])
    d_safe = workspace.d_safe[:n]
    d_safe[...] = 1.0
    xp.copyto(d_safe, d_ref, where=valid)
    # mu = min(eta * (1 / d_safe²), 1), evaluated in place op for op.
    mu = xp.multiply(d_safe, d_safe, out=workspace.mu[:n])
    xp.divide(1.0, mu, out=mu)
    xp.multiply(mu, eta, out=mu)
    xp.minimum(mu, 1.0, out=mu)

    if segments == 1:
        touched, inverse, counts = be.compact_points(points.reshape(-1))
        bounds = [0, int(touched.shape[0])]
    else:
        base = xp.arange(segments + 1, dtype=np.int64) * n_points
        keys = xp.add(points, base[:-1, None],
                      out=workspace.merge_keys[: 2 * n].reshape(points.shape))
        keys, inverse, counts = be.compact_points(keys.reshape(-1))
        starts = xp.searchsorted(keys, base)
        touched = xp.remainder(keys, n_points)
        inverse = inverse.reshape(points.shape) - starts[:-1, None]
        bounds = be.to_host(starts).tolist()
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
    ``coords`` (in the workspace backend's memory space). Returns
    ``(point_i, point_j, delta)`` where ``point_*`` are flat indices into
    the ``(2N, 2)`` coordinate array and ``delta`` is the displacement to
    subtract from point ``i`` (and add to point ``j``). All three are views
    (into the block and the workspace) that the next call overwrites.
    """
    be = workspace.backend
    xp = be.xp
    n = block.size
    points = block.points[segment]
    lo = segment * n
    valid = block.valid[lo:lo + n]
    d_safe = block.d_safe[lo:lo + n]
    mu = block.mu[lo:lo + n]

    gathered = xp.take(coords, points, axis=0, out=workspace.gather[: 2 * n])
    diff = xp.subtract(gathered[:n], gathered[n:], out=workspace.diff[:n])
    mag = be.rowwise_sqnorm(diff, out=workspace.mag[:n])
    xp.sqrt(mag, out=mag)
    mag_safe = xp.maximum(mag, _MIN_DISTANCE, out=workspace.mag_safe[:n])
    delta_scalar = xp.where(valid, mu * (mag - d_safe) / 2.0, 0.0)
    # Degenerate coincident points: nudge along x to separate them.
    unit = xp.divide(diff, mag_safe[:, None], out=workspace.term_delta[:n])
    coincident = mag < _MIN_DISTANCE
    if bool(coincident.any()):
        unit[coincident] = be.asarray([1.0, 0.0])
    delta = xp.multiply(unit, delta_scalar[:, None], out=unit)
    return points[:n], points[n:], delta


def merge_segments(coords: np.ndarray, block: TermBlock, merge: str,
                   workspace: UpdateWorkspace,
                   displace=compute_displacements) -> None:
    """Merge the segments of a prepared ``block`` into ``coords``, in order.

    The array-at-a-time merge: the fallback of the compiled one
    (:meth:`repro.backend.cext.CompiledKernels.merge_block`) and the
    reference it is self-tested against. Segment by segment, ``displace``
    reads the coordinates as of the segment's start, the ``[−δ; δ]``
    deltas are staged, and the backend's ``merge_scatter`` writes them
    through the segment's precomputed compaction.

    ``displace`` defaults to :func:`compute_displacements` as defined
    here. :func:`merge_batch` passes the module's current binding instead,
    so a timing wrapper installed on that name (perfbench's layer spans)
    sees every fallback segment and none of the self-test's.
    """
    be = workspace.backend
    xp = be.xp
    size = block.size
    bounds = block.bounds
    all_deltas = workspace.merge_delta[: 2 * size]
    for segment in range(len(bounds) - 1):
        _, _, delta = displace(coords, block, segment, workspace)
        xp.negative(delta, out=all_deltas[:size])
        all_deltas[size:] = delta
        lo, hi = bounds[segment], bounds[segment + 1]
        be.merge_scatter(coords, block.touched[lo:hi], block.inverse[segment],
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

    The one merge implementation: :func:`apply_batch` calls it with one
    segment, the fused iteration path (:mod:`repro.core.fused`) with a
    block of equal segments. :func:`prepare_block` computes the block's
    coordinate-free state, compaction included, once. On the NumPy
    backend, when :func:`repro.backend.cext.kernels` loads, one compiled
    call then merges the whole block, segment by segment and bit for bit as
    :func:`merge_segments` does; otherwise :func:`merge_segments` runs. No
    statistics are computed here.

    Returns the block's point-collision count.
    """
    be = workspace.backend
    block = prepare_block(batch, eta, workspace, segments, coords.shape[0])
    compiled = cext.kernels() if be.name == "numpy" else None
    if compiled is None or not compiled.merge_block(
            coords, block, merge, workspace.term_delta, workspace.merge_delta):
        merge_segments(coords, block, merge, workspace, compute_displacements)
    return block.n_collisions


def apply_batch(
    coords: np.ndarray,
    batch: StepBatch,
    eta: float,
    merge: str = "hogwild",
    workspace: Optional[UpdateWorkspace] = None,
    backend: Optional[ArrayBackend] = None,
) -> UpdateStats:
    """Apply one batch of updates to ``coords`` in place and return statistics.

    Every merge policy works over the compacted touched-point space, so the
    per-batch cost is O(batch · log batch), independent of the graph size.
    Passing the run's :class:`UpdateWorkspace` additionally removes the
    steady-state allocation of all batch-shaped staging arrays and selects
    the execution backend (an explicit ``backend`` must agree with it).
    """
    if merge not in ("hogwild", "accumulate", "last_writer"):
        raise ValueError("merge must be 'hogwild', 'accumulate' or 'last_writer'")
    if len(batch) == 0:
        return UpdateStats(0, 0, 0)
    be = _resolve_backend(workspace, backend)
    n = len(batch)
    ws = workspace if workspace is not None else UpdateWorkspace(n, backend=be)
    n_collisions = merge_batch(coords, batch, eta, merge, ws)
    return UpdateStats(
        n_terms=n,
        n_zero_ref=int((batch.d_ref <= 0).sum()),
        n_point_collisions=n_collisions,
    )


def batch_stress(
    coords: np.ndarray, batch: StepBatch, backend: Optional[ArrayBackend] = None
) -> float:
    """Mean normalised stress of the batch's terms under the current layout.

    This is the quantity minimised by the algorithm (Alg. 1 line 14) and the
    building block of the path-stress metrics in :mod:`repro.metrics`.
    ``coords`` must live in ``backend``'s memory space (host NumPy default).
    """
    valid = batch.d_ref > 0
    if not bool(valid.any()):
        return 0.0
    be = backend if backend is not None else _default_backend()
    xp = be.xp
    point_i = be.asarray(2 * batch.node_i + batch.vis_i)
    point_j = be.asarray(2 * batch.node_j + batch.vis_j)
    diff = coords[point_i] - coords[point_j]
    mag = xp.sqrt(be.rowwise_sqnorm(diff))
    d = be.asarray(batch.d_ref)
    valid_dev = be.asarray(valid)
    terms = ((mag[valid_dev] - d[valid_dev]) / d[valid_dev]) ** 2
    return float(terms.mean())
