"""Random path and node-pair selection (Alg. 1 lines 5–13).

Every update step of the path-guided SGD algorithm selects

1. a path ``p`` with probability proportional to its step count,
2. a pair of steps ``(i, j)`` on that path — uniformly during the exploration
   phase, or with a Zipf-distributed hop distance during the *cooling* phase
   (second half of the run plus a coin flip earlier), so that late updates
   refine local structure, and
3. one visualisation endpoint (segment start or end) per node, by coin flip.

The paper identifies this randomness as both essential for quality
(Sec. III-C, Fig. 6) and the source of the workload's irregular memory
accesses. All selection here is vectorised over a batch of steps, driven by
any of the multi-stream PRNGs in :mod:`repro.prng`.

Selection runs on host NumPy, where the PRNG streams produce their draws;
the selected :class:`StepBatch` is host-resident and the update kernels
coerce it into their backend's namespace.
A :class:`DrawRecipe` says what one plan segment draws and how its terms
are selected; :meth:`PairSampler.select_chunk` selects a chunk at once.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, NamedTuple, Optional, Protocol

import numpy as np

from ..graph.lean import LeanGraph
from ..graph.path_index import PathIndex
from .params import LayoutParams

__all__ = ["DrawRecipe", "SAMPLE_VECTORS", "STOCK_RECIPE", "StepBatch",
           "PairSampler", "SelectionArrays", "zipf_hop_distances"]

#: Uniform vectors one term draws in the stock recipe: 6 path/cooling/pair
#: vectors and 2 endpoint coin flips.
SAMPLE_VECTORS = 8


class _MultiStreamRNG(Protocol):
    """The minimal PRNG interface the sampler needs (uniform doubles).

    ``next_double`` (one call, one value per stream) is the portable core.
    Generators additionally exposing ``n_streams`` and a bulk
    ``next_double_block(n_calls)`` (:class:`~repro.prng.xoshiro.Xoshiro256Plus`)
    let the sampler fill its uniform blocks without a Python loop per call;
    the draw order is identical either way.
    """

    def next_double(self) -> np.ndarray: ...  # pragma: no cover - protocol


class SelectionArrays(NamedTuple):
    """The graph/index arrays term selection reads.

    The sampler builds one bundle over the lean graph's NumPy arrays; the
    shared-memory workers rebuild it over views into their shared segment
    (:meth:`PairSampler.from_arrays`).
    """

    cum_steps: np.ndarray
    """``(n_paths + 1,)`` cumulative step counts (inverse-CDF path sampling)."""
    path_offsets: np.ndarray
    """``(n_paths + 1,)`` flat step offsets per path."""
    path_counts: np.ndarray
    """``(n_paths,)`` step count per path."""
    step_nodes: np.ndarray
    """``(total_steps,)`` node id per flat step."""
    step_positions: np.ndarray
    """``(total_steps,)`` nucleotide position per flat step."""


@dataclass
class StepBatch:
    """One batch of selected update terms.

    All arrays have the same length (the batch size). ``flat_i`` / ``flat_j``
    index into the lean graph's flat step arrays; ``node_i`` / ``node_j`` are
    the corresponding graph nodes; ``vis_i`` / ``vis_j`` select the segment
    endpoint (0 = start, 1 = end); ``d_ref`` is the reference nucleotide
    distance along the shared path; ``in_cooling`` records which branch chose
    the pair (used by the warp-divergence model).
    """

    path: np.ndarray
    flat_i: np.ndarray
    flat_j: np.ndarray
    node_i: np.ndarray
    node_j: np.ndarray
    vis_i: np.ndarray
    vis_j: np.ndarray
    d_ref: np.ndarray
    in_cooling: np.ndarray

    def __len__(self) -> int:
        return int(self.flat_i.size)

    def slice(self, start: int, stop: int) -> "StepBatch":
        """Zero-copy view of terms ``[start, stop)`` (shares this batch's arrays).

        The fused iteration path selects a whole iteration's terms in one
        vectorised pass and walks the planned segments as views; mutating a
        slice mutates the parent.
        """
        return StepBatch(
            path=self.path[start:stop],
            flat_i=self.flat_i[start:stop],
            flat_j=self.flat_j[start:stop],
            node_i=self.node_i[start:stop],
            node_j=self.node_j[start:stop],
            vis_i=self.vis_i[start:stop],
            vis_j=self.vis_j[start:stop],
            d_ref=self.d_ref[start:stop],
            in_cooling=self.in_cooling[start:stop],
        )

    def nonzero_terms(self) -> "StepBatch":
        """Drop terms whose reference distance is zero (no gradient defined).

        In the common case every sampled pair has ``d_ref > 0`` (two distinct
        steps of one path start at distinct nucleotide positions unless a
        zero-length node intervenes); the batch is then returned *as is* —
        no 9-array fancy-index copy on the hot path. Callers must treat the
        result as read-only aliasing of the input, which they already did:
        the filtered batch was always backed by fresh copies only when the
        mask removed something.
        """
        keep = self.d_ref > 0
        if bool(keep.all()):
            return self
        return StepBatch(
            path=self.path[keep],
            flat_i=self.flat_i[keep],
            flat_j=self.flat_j[keep],
            node_i=self.node_i[keep],
            node_j=self.node_j[keep],
            vis_i=self.vis_i[keep],
            vis_j=self.vis_j[keep],
            d_ref=self.d_ref[keep],
            in_cooling=self.in_cooling[keep],
        )


@dataclass(eq=False)
class DrawRecipe:
    """What one plan segment draws from the PRNG streams, and how it selects.

    A ``size``-term segment draws, with ``warp`` > 0, one vector of
    ``ceil(size / warp)`` per-warp cooling uniforms (warp merging) and, with
    ``warp_paths``, one of per-warp paths (data reuse); then the 8 per-term
    vectors of :meth:`PairSampler.select_from_uniforms`, or with ``hop`` > 0
    the 4 of :meth:`PairSampler.select_fixed_hop`. A vector of ``n`` values
    takes ``ceil(n / n_streams)`` calls, vector-major and call-minor: the
    order the engines' per-batch draws consumed the streams in. ``reuse`` >
    1 expands each selected segment (:meth:`PairSampler.warp_shuffle`).
    ``cooling_sum``/``cooling_segments`` tally the fraction of warps in the
    cooling branch, one addend per segment in draw order.
    """

    warp: int = 0
    warp_paths: bool = False
    reuse: int = 1
    hop: int = 0
    cooling_sum: float = 0.0
    cooling_segments: int = 0

    @property
    def stock(self) -> bool:
        """Whether this is the 8-vector recipe of Alg. 1 with nothing added."""
        return not (self.warp or self.hop)

    @property
    def vectors(self) -> int:
        """Per-term uniform vectors of one segment."""
        return 4 if self.hop else SAMPLE_VECTORS

    def lead_calls(self, size: int, n_streams: int) -> int:
        """PRNG calls of a ``size``-term segment's per-warp vectors."""
        if not self.warp:
            return 0
        warps = -(-int(size) // self.warp)
        return (1 + int(self.warp_paths)) * -(-warps // n_streams)

    def segment_calls(self, size: int, n_streams: int) -> int:
        """PRNG calls of one ``size``-term segment, per-warp vectors included."""
        return (self.lead_calls(size, n_streams)
                + self.vectors * -(-int(size) // n_streams))


#: The recipe of every CPU engine and of the batched engine.
STOCK_RECIPE = DrawRecipe()


def zipf_hop_distances(
    uniform: np.ndarray, theta: float, space_max: int
) -> np.ndarray:
    """Map uniform draws to Zipf(θ)-distributed hop distances in [1, space_max].

    Uses the standard inverse-CDF approximation for the (truncated) Zipf
    distribution ("rejection-inversion" simplified to its inversion step),
    which is what odgi-layout's ``dirty_zipfian_int_distribution`` computes.
    For θ→1 the distribution approaches ``P(k) ∝ 1/k``.
    """
    if space_max < 1:
        raise ValueError("space_max must be >= 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    u = np.clip(np.asarray(uniform, dtype=np.float64), 0.0, 1.0 - 1e-12)
    if space_max == 1:
        return np.ones_like(u, dtype=np.int64)
    one_minus_theta = 1.0 - theta
    if abs(one_minus_theta) < 1e-9:
        # θ == 1: CDF(k) ∝ log(k), invert directly.
        k = np.exp(u * np.log(space_max + 1.0))
    else:
        h_max = ((space_max + 1.0) ** one_minus_theta - 1.0) / one_minus_theta
        h = u * h_max
        k = (h * one_minus_theta + 1.0) ** (1.0 / one_minus_theta)
    return np.clip(np.floor(k).astype(np.int64), 1, space_max)


class PairSampler:
    """Vectorised sampler of update terms over a lean graph."""

    def __init__(self, graph: LeanGraph, params: LayoutParams,
                 index: Optional[PathIndex] = None):
        self.graph = graph
        self.params = params
        self.index = index if index is not None else PathIndex(graph)
        if graph.total_steps == 0:
            raise ValueError("cannot sample node pairs from a graph without path steps")
        self._offsets = graph.path_offsets
        self._counts = graph.path_step_counts
        # Everything selection reads, in one bundle.
        self.arrays = SelectionArrays(
            cum_steps=self.index.cum_steps,
            path_offsets=graph.path_offsets,
            path_counts=graph.path_step_counts,
            step_nodes=graph.step_nodes,
            step_positions=graph.step_positions,
        )

    @classmethod
    def from_arrays(cls, arrays: SelectionArrays,
                    params: LayoutParams) -> "PairSampler":
        """Sampler over a bare :class:`SelectionArrays` bundle — no graph.

        The shared-memory workers (:mod:`repro.parallel.shm`) receive the
        selection arrays as views into one shared segment rather than a
        pickled :class:`LeanGraph`; this constructor rebuilds a sampler
        around them. :meth:`sample` and :meth:`select_from_uniforms` read
        only ``params`` and the bundle, so batches drawn here are
        byte-identical to the graph-built sampler's. Graph-dependent extras
        (``sample_fixed_hop``) are unavailable — ``graph``/``index`` are
        ``None``.
        """
        self = cls.__new__(cls)
        self.graph = None
        self.index = None
        self.params = params
        self._offsets = arrays.path_offsets
        self._counts = arrays.path_counts
        self.arrays = arrays
        return self

    # ------------------------------------------------------------------ API
    def sample(
        self,
        rng: _MultiStreamRNG,
        batch_size: int,
        iteration: int,
        forced_cooling: Optional[bool] = None,
        cooling_mask: Optional[np.ndarray] = None,
        path_override: Optional[np.ndarray] = None,
    ) -> StepBatch:
        """Draw ``batch_size`` update terms for ``iteration``.

        ``forced_cooling`` overrides the cooling decision for every term and
        ``cooling_mask`` overrides it per term (used by the warp-merging
        kernel, where one control thread decides for the whole warp, and by
        the quality study of Fig. 6). ``path_override`` forces the selected
        path per term (used by the warp-shuffle data-reuse scheme, which
        keeps every warp on one path).
        """
        # One bulk draw covers everything the batch needs: vectors 0-5 drive
        # path/cooling/pair selection and vectors 6-7 the endpoint coin flips
        # of lines 12-13. Drawing all 8 at once halves the Python-level call
        # overhead while consuming the PRNG streams in the exact order the
        # historical two-call scheme did, so sampled batches are unchanged.
        draws = self._uniforms(rng, batch_size, 8)
        return self.select_from_uniforms(
            draws,
            batch_size,
            iteration,
            forced_cooling=forced_cooling,
            cooling_mask=cooling_mask,
            path_override=path_override,
        )

    def select_from_uniforms(
        self,
        draws: np.ndarray,
        batch_size: int,
        iteration: int,
        forced_cooling: Optional[bool] = None,
        cooling_mask: Optional[np.ndarray] = None,
        path_override: Optional[np.ndarray] = None,
    ) -> StepBatch:
        """Term selection over a pre-drawn ``(8, batch_size)`` uniform block.

        This is the selection half of :meth:`sample` — the exact historical
        call sequence, with the PRNG draws supplied by the caller instead of
        drawn here. :meth:`select_chunk` calls it once over a whole chunk's
        re-laid megablock; every operation is elementwise, so the selected
        terms are byte-identical to one call per segment.
        """
        arrays = self.arrays
        # Line 5: path selection proportional to step count — inverse CDF
        # over the cumulative step counts (PathIndex.sample_paths verbatim).
        if path_override is not None:
            paths = np.asarray(path_override, dtype=np.int64)
            if paths.size != batch_size:
                raise ValueError("path_override must have one entry per term")
        else:
            total = arrays.cum_steps[-1]
            targets = np.minimum((draws[0] * total).astype(np.int64), total - 1)
            paths = np.searchsorted(arrays.cum_steps, targets, side="right") - 1
        starts = arrays.path_offsets[paths]
        counts = arrays.path_counts[paths]
        # Line 6: cooling decision = (iter >= iter_max/2) or coin flip.
        if cooling_mask is not None:
            cooling = np.asarray(cooling_mask, dtype=bool)
            if cooling.size != batch_size:
                raise ValueError("cooling_mask must have one entry per term")
        elif forced_cooling is None:
            always = iteration >= self.params.first_cooling_iteration()
            cooling = np.full(batch_size, always, dtype=bool) | (draws[1] < 0.5)
        else:
            cooling = np.full(batch_size, bool(forced_cooling))
        # First step of the pair: uniform within the path.
        local_i = np.minimum((draws[2] * counts).astype(np.int64), counts - 1)
        # Second step: uniform (exploration) or Zipf hop (cooling).
        local_j_uniform = np.minimum((draws[3] * counts).astype(np.int64), counts - 1)
        hops = zipf_hop_distances(draws[4], self.params.zipf_theta,
                                  self.params.zipf_space_max)
        hops = np.minimum(hops, np.maximum(counts - 1, 1))
        direction = np.where(draws[5] < 0.5, -1, 1)
        local_j_zipf = local_i + direction * hops
        # Reflect out-of-range hops back into the path.
        local_j_zipf = np.where(local_j_zipf < 0, local_i + hops, local_j_zipf)
        local_j_zipf = np.where(local_j_zipf >= counts, local_i - hops, local_j_zipf)
        local_j_zipf = np.clip(local_j_zipf, 0, np.maximum(counts - 1, 0))
        local_j = np.where(cooling, local_j_zipf, local_j_uniform)
        # Avoid degenerate i == j pairs where the path has room.
        same = (local_j == local_i) & (counts > 1)
        local_j = np.where(same, (local_i + 1) % counts, local_j)

        flat_i = starts + local_i
        flat_j = starts + local_j
        node_i = arrays.step_nodes[flat_i]
        node_j = arrays.step_nodes[flat_j]
        d_ref = np.abs(
            arrays.step_positions[flat_i] - arrays.step_positions[flat_j]
        ).astype(np.float64)
        # Lines 12-13: endpoint coin flips (vectors 6-7 of the bulk draw).
        vis_i = (draws[6] < 0.5).astype(np.int64)
        vis_j = (draws[7] < 0.5).astype(np.int64)
        return StepBatch(
            path=paths,
            flat_i=flat_i,
            flat_j=flat_j,
            node_i=node_i,
            node_j=node_j,
            vis_i=vis_i,
            vis_j=vis_j,
            d_ref=d_ref,
            in_cooling=cooling,
        )

    def select_chunk(self, uniforms: np.ndarray, draws, plan: List[int],
                     n_streams: int, iteration: int, recipe: DrawRecipe
                     ) -> StepBatch:
        """Select a chunk's terms in one call, before data reuse.

        ``uniforms`` is the chunk's ``(calls, n_streams)`` megablock laid out
        by ``recipe``, ``draws`` its per-term vectors re-laid side by side
        (:func:`repro.core.fused.iteration_draws`).
        """
        n_terms = draws.shape[1]
        if recipe.hop:
            return self.select_fixed_hop(draws, n_terms, recipe.hop)
        if not recipe.warp:
            return self.select_from_uniforms(draws, n_terms, iteration)
        cooling, paths = self._warp_lanes(uniforms, plan, n_streams,
                                          iteration, recipe)
        return self.select_from_uniforms(draws, n_terms, iteration,
                                         cooling_mask=cooling,
                                         path_override=paths)

    def _warp_lanes(self, uniforms: np.ndarray, plan: List[int],
                    n_streams: int, iteration: int, recipe: DrawRecipe):
        """Per-term cooling mask and path override of a per-warp recipe.

        Each segment's warp rows sit ahead of its per-term vectors in
        ``uniforms``: one control thread per warp decides the cooling branch
        for all its lanes (warp merging), and under data reuse one path.
        """
        warp = recipe.warp
        always = iteration >= self.params.first_cooling_iteration()
        cooling: List[np.ndarray] = []
        paths: List[np.ndarray] = []
        row = 0
        for size in plan:
            n_warps = -(-size // warp)
            need = -(-n_warps // n_streams)
            warp_draws = uniforms[row:row + need].reshape(-1)[:n_warps]
            warp_cooling = np.full(n_warps, always, dtype=bool) | (warp_draws < 0.5)
            cooling.append(np.repeat(warp_cooling, warp)[:size])
            recipe.cooling_sum += float(warp_cooling.mean())
            recipe.cooling_segments += 1
            if recipe.warp_paths:
                path_draw = uniforms[row + need:row + 2 * need].reshape(-1)[:n_warps]
                paths.append(np.repeat(self.index.sample_paths(path_draw), warp)[:size])
            row += recipe.segment_calls(size, n_streams)
        return np.concatenate(cooling), (np.concatenate(paths) if paths else None)

    def warp_shuffle(self, terms: StepBatch, plan: List[int],
                     recipe: DrawRecipe) -> StepBatch:
        """Expand every segment ``recipe.reuse``-fold by intra-warp shuffles.

        Warp-shuffle data reuse (Sec. VII-D): round ``r`` pairs lane ``l``'s
        ``node_i`` with lane ``(l + r) % warp``'s ``node_j``, data already in
        the warp's registers (no extra memory traffic, less random pairs); a
        partner on another path keeps the term's own ``j``. Each segment
        becomes its base terms followed by its ``reuse - 1`` rounds.
        """
        warp = recipe.warp
        pos = self.arrays.step_positions
        parts: List[StepBatch] = []
        offset = 0
        for n in plan:
            batch = terms.slice(offset, offset + n)
            offset += n
            parts.append(batch)
            lane = np.arange(n)
            for shift in range(1, recipe.reuse):
                partner = np.minimum(lane // warp * warp + (lane % warp + shift) % warp,
                                     n - 1)
                flat_j = np.where(batch.path == batch.path[partner],
                                  batch.flat_j[partner], batch.flat_j)
                parts.append(replace(
                    batch, flat_j=flat_j, node_j=self.arrays.step_nodes[flat_j],
                    vis_j=batch.vis_j[partner],
                    d_ref=np.abs(pos[batch.flat_i] - pos[flat_j]).astype(np.float64)))
        return StepBatch(*(np.concatenate([getattr(p, f.name) for p in parts])
                           for f in fields(StepBatch)))

    def sample_fixed_hop(self, rng: _MultiStreamRNG, batch_size: int, hop: int) -> StepBatch:
        """Degenerate sampler forcing every pair to be exactly ``hop`` steps apart.

        Reproduces the Fig. 6 experiment: removing randomness from node-pair
        selection prevents convergence.
        """
        if hop < 1:
            raise ValueError("hop must be >= 1")
        # Single 4-vector bulk draw (path, step, both endpoints) — same stream
        # consumption order as the historical two 2-vector draws.
        draws = self._uniforms(rng, batch_size, 4)
        return self.select_fixed_hop(draws, batch_size, hop)

    def select_fixed_hop(self, draws: np.ndarray, batch_size: int,
                         hop: int) -> StepBatch:
        """Fixed-hop selection over a pre-drawn ``(4, batch_size)`` block."""
        paths = self.index.sample_paths(draws[0])
        starts = self._offsets[paths]
        counts = self._counts[paths]
        local_i = np.minimum((draws[1] * counts).astype(np.int64), counts - 1)
        local_j = np.clip(local_i + hop, 0, np.maximum(counts - 1, 0))
        flat_i = starts + local_i
        flat_j = starts + local_j
        d_ref = np.abs(
            self.graph.step_positions[flat_i] - self.graph.step_positions[flat_j]
        ).astype(np.float64)
        vis = draws[2:]
        return StepBatch(
            path=paths,
            flat_i=flat_i,
            flat_j=flat_j,
            node_i=self.graph.step_nodes[flat_i],
            node_j=self.graph.step_nodes[flat_j],
            vis_i=(vis[0] < 0.5).astype(np.int64),
            vis_j=(vis[1] < 0.5).astype(np.int64),
            d_ref=d_ref,
            in_cooling=np.zeros(batch_size, dtype=bool),
        )

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _uniforms(rng: _MultiStreamRNG, batch_size: int, n_vectors: int) -> np.ndarray:
        """Draw ``n_vectors`` independent uniform vectors of length ``batch_size``.

        Multi-stream PRNGs return one value per stream per call; when the
        stream count differs from the batch size the draws are tiled/cropped,
        which preserves decorrelation across the batch because consecutive
        calls advance every stream.

        The whole ``(n_vectors × batch_size)`` block comes from one bulk
        ``next_double_block`` fill (generators without the bulk API fall back
        to a flat per-call loop). The consumption order (vector-major,
        call-minor) is the sampler's determinism contract: every call
        advances each stream once, and call ``c`` of vector ``v`` is PRNG
        call ``v · ceil(batch/streams) + c`` — byte-identical between the
        bulk and per-call fills (pinned by ``tests/test_update_hotpath.py``).
        Changing this order changes every sampled batch and therefore
        requires regenerating the committed smoke baseline (see ROADMAP).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if n_vectors < 1:
            raise ValueError("n_vectors must be >= 1")
        n_streams = getattr(rng, "n_streams", 0)
        if n_streams and hasattr(rng, "next_double_block"):
            need_calls = -(-batch_size // n_streams)
            block = rng.next_double_block(n_vectors * need_calls)
        else:
            first = np.asarray(rng.next_double(), dtype=np.float64)
            n_streams = first.size
            need_calls = int(np.ceil(batch_size / n_streams))
            block = np.empty((n_vectors * need_calls, n_streams), dtype=np.float64)
            block[0] = first
            for call in range(1, block.shape[0]):
                block[call] = rng.next_double()
        return block.reshape(n_vectors, need_calls * n_streams)[:, :batch_size]
