"""Test oracle: the per-batch layout loop every engine used to run.

Every engine now steps through the fused iteration
(:func:`repro.core.base.step_units` → ``backend.run_iteration``), with the
GPU model's warp merging and data reuse, the batched engine's launch
accounting, the fixed-hop sampler and the ``record_history`` stress probe
folded into it. This module keeps the loop they replaced, as the reference
the fused iteration is checked against: per iteration, per planned batch,
``draw_batch`` → ``on_batch`` → ``merge_batch``, and after batch 0 the
history's ``batch_stress`` probe.

The hooks are the deleted engine methods:
``LayoutEngine.draw_batch``/``on_batch``, ``OptimizedGpuEngine.draw_batch``/
``on_batch``/``_apply_warp_shuffle_reuse``/``make_workspace``,
``BatchedLayoutEngine.on_batch`` and ``_FixedHopRun.draw_batch``/
``batch_plan``. They are verbatim except for the draw: each batch fills
its own uniform block (:func:`draw_block`, one ``next_double_block`` per
call, the fill the deleted ``PairSampler._uniforms`` made) and selects
from it with ``select_from_uniforms`` or ``select_fixed_hop``, so nothing
here goes through the run's re-lay (``uniform_call_plan`` /
``iteration_draws``). :class:`PerBatchRun` wraps an engine and forwards every
other attribute to it, so the hooks read the engine's graph, params,
sampler and config as they did. The run loop is ``LayoutEngine.run`` with
the per-batch branch of its session, minus tracing.
"""
from __future__ import annotations

from typing import List, Optional
from unittest import mock

import numpy as np

import repro.core.gpu_kernel as gpu_kernel
from repro.core import (
    PYTORCH_OP_SEQUENCE,
    BatchedLayoutEngine,
    IterationRecord,
    LayoutEngine,
    LayoutResult,
    OptimizedGpuEngine,
    SerialReferenceEngine,
    StepBatch,
    UpdateWorkspace,
    batch_stress,
    initialize_layout,
    merge_batch,
)
from repro.core.layout import Layout
from repro.prng import Xoshiro256Plus


# --------------------------------------------------------------------------
# The hooks
# --------------------------------------------------------------------------
def draw_block(rng: Xoshiro256Plus, batch_size: int, n_vectors: int) -> np.ndarray:
    """``n_vectors`` uniform vectors of ``batch_size`` values from one bulk
    fill, vector-major and call-minor: call ``c`` of vector ``v`` is PRNG
    call ``v · ceil(batch_size / n_streams) + c``."""
    need = -(-batch_size // rng.n_streams)
    block = rng.next_double_block(n_vectors * need)
    return block.reshape(n_vectors, need * rng.n_streams)[:, :batch_size]


def _stock_draw_batch(
    self, rng: Xoshiro256Plus, batch_size: int, iteration: int, batch_index: int
) -> StepBatch:
    """Draw one batch of update terms (engines may override the policy)."""
    return self.sampler.select_from_uniforms(draw_block(rng, batch_size, 8),
                                             batch_size, iteration)


def _stock_on_batch(self, batch: StepBatch, iteration: int, batch_index: int) -> StepBatch:
    """Hook for engines to transform or account a batch before applying it."""
    return batch


def _stock_make_workspace(self, plan: List[int]) -> UpdateWorkspace:
    return UpdateWorkspace(max(plan) if plan else 1)


def _gpu_make_workspace(self, plan: List[int]) -> UpdateWorkspace:
    # Warp-shuffle data reuse expands every planned batch DRF-fold in
    # on_batch, so the scratch buffers are pre-sized to the expanded
    # batches instead of growing on the first wave.
    base = max(plan) if plan else 1
    return UpdateWorkspace(base * self.config.data_reuse_factor)


def _gpu_draw_batch(
    self, rng: Xoshiro256Plus, batch_size: int, iteration: int, batch_index: int
) -> StepBatch:
    warp = self.config.warp_size
    cooling_mask = None
    path_override = None
    if self.config.warp_merging or self.config.data_reuse_factor > 1:
        # Control-thread decision per warp, broadcast to the whole warp.
        # The sampler's bulk draw consumes the PRNG streams in the same
        # order the historical concatenate-until-full loop did.
        n_warps = int(np.ceil(batch_size / warp))
        warp_draws = draw_block(rng, n_warps, 1)[0]
        always = iteration >= self.params.first_cooling_iteration()
        warp_cooling = np.full(n_warps, always, dtype=bool) | (warp_draws < 0.5)
        cooling_mask = np.repeat(warp_cooling, warp)[:batch_size]
        self._warp_cooling_fraction_sum += float(warp_cooling.mean())
        self._warp_cooling_batches += 1
    if self.config.data_reuse_factor > 1:
        # Path-coherent warps: every lane of a warp samples from the same
        # path so warp-shuffled pairs stay on one path.
        n_warps = int(np.ceil(batch_size / warp))
        path_draw = draw_block(rng, n_warps, 1)[0]
        warp_paths = self.index.sample_paths(path_draw)
        path_override = np.repeat(warp_paths, warp)[:batch_size]
    return self.sampler.select_from_uniforms(
        draw_block(rng, batch_size, 8),
        batch_size,
        iteration,
        cooling_mask=cooling_mask,
        path_override=path_override,
    )


def _gpu_on_batch(self, batch: StepBatch, iteration: int, batch_index: int) -> StepBatch:
    drf = self.config.data_reuse_factor
    if drf <= 1:
        return batch
    return self._apply_warp_shuffle_reuse(batch, drf)


def _apply_warp_shuffle_reuse(self, batch: StepBatch, drf: int) -> StepBatch:
    """Create ``drf - 1`` extra terms per base term via intra-warp shuffles."""
    warp = self.config.warp_size
    n = len(batch)
    parts = [batch]
    pos = self.graph.step_positions
    for r in range(1, drf):
        shift = r  # deterministic lane shift per reuse round
        lane = np.arange(n)
        warp_id = lane // warp
        lane_in_warp = lane % warp
        partner = warp_id * warp + (lane_in_warp + shift) % warp
        partner = np.minimum(partner, n - 1)
        # Only valid when both lanes are on the same path.
        same_path = batch.path == batch.path[partner]
        flat_j = np.where(same_path, batch.flat_j[partner], batch.flat_j)
        node_j = self.graph.step_nodes[flat_j]
        d_ref = np.abs(pos[batch.flat_i] - pos[flat_j]).astype(np.float64)
        parts.append(
            StepBatch(
                path=batch.path,
                flat_i=batch.flat_i,
                flat_j=flat_j,
                node_i=batch.node_i,
                node_j=node_j,
                vis_i=batch.vis_i,
                vis_j=batch.vis_j[partner],
                d_ref=d_ref,
                in_cooling=batch.in_cooling,
            )
        )
    return StepBatch(
        path=np.concatenate([p.path for p in parts]),
        flat_i=np.concatenate([p.flat_i for p in parts]),
        flat_j=np.concatenate([p.flat_j for p in parts]),
        node_i=np.concatenate([p.node_i for p in parts]),
        node_j=np.concatenate([p.node_j for p in parts]),
        vis_i=np.concatenate([p.vis_i for p in parts]),
        vis_j=np.concatenate([p.vis_j for p in parts]),
        d_ref=np.concatenate([p.d_ref for p in parts]),
        in_cooling=np.concatenate([p.in_cooling for p in parts]),
    )


def _batched_on_batch(self, batch: StepBatch, iteration: int, batch_index: int) -> StepBatch:
    self.op_profile.record_batch(len(batch))
    self.add_counter("kernel_launches", float(len(PYTORCH_OP_SEQUENCE)))
    return batch


def _fixed_hop_batch_plan(self, steps_per_iteration: int) -> List[int]:
    return [steps_per_iteration]


def _fixed_hop_draw_batch(self, rng: Xoshiro256Plus, batch_size: int, iteration: int,
                          batch_index: int) -> StepBatch:
    return self.sampler.select_fixed_hop(draw_block(rng, batch_size, 4),
                                         batch_size, self.hop)


# --------------------------------------------------------------------------
# The per-batch run
# --------------------------------------------------------------------------
class PerBatchRun:
    """An engine run through the per-batch loop.

    ``hop`` runs a :class:`SerialReferenceEngine` the way its fixed-hop
    run did. The GPU model's warp-cooling tally and the batched engine's
    launch accounting land on this object and on ``engine``'s metrics, as
    they landed on the engine; pass an engine that is not also run through
    the fused path.
    """

    def __init__(self, engine: LayoutEngine, hop: Optional[int] = None):
        self.engine = engine
        self.hop = hop
        self._warp_cooling_fraction_sum = 0.0
        self._warp_cooling_batches = 0
        self._draw = _stock_draw_batch
        self._on_batch = _stock_on_batch
        self._workspace = _stock_make_workspace
        self._plan = type(engine).batch_plan
        if isinstance(engine, OptimizedGpuEngine):
            self._draw = _gpu_draw_batch
            self._on_batch = _gpu_on_batch
            self._workspace = _gpu_make_workspace
        elif isinstance(engine, BatchedLayoutEngine):
            self._on_batch = _batched_on_batch
        if hop is not None:
            assert isinstance(engine, SerialReferenceEngine)
            self._draw = _fixed_hop_draw_batch
            self._plan = _fixed_hop_batch_plan

    def __getattr__(self, name: str):
        return getattr(self.engine, name)

    # The hooks, bound to this run.
    def draw_batch(self, rng, batch_size, iteration, batch_index):
        return self._draw(self, rng, batch_size, iteration, batch_index)

    def on_batch(self, batch, iteration, batch_index):
        return self._on_batch(self, batch, iteration, batch_index)

    def _apply_warp_shuffle_reuse(self, batch, drf):
        return _apply_warp_shuffle_reuse(self, batch, drf)

    def make_workspace(self, plan):
        return self._workspace(self, plan)

    def batch_plan(self, steps_per_iteration):
        return self._plan(self, steps_per_iteration)

    @property
    def warp_cooling_fraction(self) -> float:
        return (self._warp_cooling_fraction_sum / self._warp_cooling_batches
                if self._warp_cooling_batches else 0.0)

    def run(self, initial: Optional[Layout] = None) -> LayoutResult:
        """``LayoutEngine.run`` with the per-batch session step."""
        params = self.params
        layout = (
            initial.copy()
            if initial is not None
            else initialize_layout(self.graph, seed=params.seed, data_layout=self.data_layout())
        )
        history: List[IterationRecord] = []
        total_terms = 0
        coords = layout.coords
        rng = self.make_rng()
        steps_per_iter = params.steps_per_iteration(self.graph.total_steps)
        plan = self.batch_plan(steps_per_iter)
        workspace = self.make_workspace(plan)
        merge = self.merge_policy()
        self.add_counter("fused_iterations", 0.0)
        for iteration in range(params.iter_max):
            eta = float(self.schedule[iteration])
            # The per-batch step.
            n_terms = 0
            n_collisions = 0
            stress = 0.0
            for batch_index, batch_size in enumerate(plan):
                batch = self.draw_batch(rng, batch_size, iteration, batch_index)
                batch = self.on_batch(batch, iteration, batch_index)
                n_collisions += merge_batch(coords, batch, eta, merge,
                                            workspace)
                n_terms += len(batch)
                if params.record_history and batch_index == 0:
                    stress = batch_stress(coords, batch)
            total_terms += n_terms
            self.add_counter("update_dispatches", float(len(plan)))
            self.add_counter("point_collisions", float(n_collisions))
            if params.record_history:
                history.append(IterationRecord(
                    iteration=iteration,
                    eta=eta,
                    sampled_stress=stress,
                    n_terms=n_terms,
                    n_collisions=n_collisions,
                ))
        layout.data_layout = self.data_layout()
        return LayoutResult(
            layout=layout,
            params=params,
            engine=self.name,
            iterations=params.iter_max,
            total_terms=total_terms,
            history=history,
            counters=self.metrics.counter_values(),
            metrics=self.metrics.snapshot(),
        )

    def profile(self, **kwargs):
        """``OptimizedGpuEngine.profile`` with its sample batch drawn by
        this run's ``draw_batch`` and its warp-cooling fraction read from
        this run's tally, as the profile of a per-batch run computed them."""
        engine = self.engine

        def draw(sampler, rng, size, iteration, recipe):
            batch = self.draw_batch(rng, size, iteration, 0)
            recipe.cooling_sum = self._warp_cooling_fraction_sum
            recipe.cooling_segments = self._warp_cooling_batches
            return batch

        with mock.patch.object(gpu_kernel, "draw_segment", draw):
            return OptimizedGpuEngine.profile(engine, **kwargs)

