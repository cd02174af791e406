"""The fused iteration: one backend dispatch per iteration chunk.

The paper's headline speedup comes from running an entire SGD iteration as a
*single* CUDA kernel launch (Sec. V; Table IV counts the launches), where the
batched tensor formulation pays per-batch launch overhead. The Python
analogue of that overhead is interpreter dispatch, so every engine runs its
iterations below the backend seam:

1. the engine pre-draws the iteration's full term budget as one uniform
   megablock (:meth:`~repro.prng.xoshiro.Xoshiro256Plus.next_double_block`),
2. hands it — plus this :class:`FusedIterationPlan` — to
   :meth:`~repro.backend.base.ArrayBackend.run_iteration`, one call per
   iteration, which performs selection + displacement + merge for every
   planned batch segment internally, and
3. receives aggregate :class:`FusedIterationStats` back.

The plan's :class:`~repro.core.selection.DrawRecipe` fixes what each
segment draws: the stock 8 vectors, the GPU model's per-warp cooling and
path draws before them, or the fixed hop's 4. The megablock consumes the
PRNG streams segment after segment in the order the engines' historical
per-batch draws did, so every engine samples the terms it always sampled.

Segments execute sequentially: each term reads the coordinates as of its
segment's start, and the write merge per segment is the hogwild/accumulate/
last_writer scatter. Runs of equal-size segments are merged as blocks
(:func:`block_plan`): the work that reads no coordinate is computed once per
block, and the coordinate work still runs segment by segment in plan order,
so blocks change no value. Under data reuse the blocks are built over the
expanded segments.

Memory is bounded, not O(iteration). A whole iteration in flight costs
its megablock plus ~320 bytes of other transient state per term (see
:data:`FUSED_BYTES_PER_TERM`), which is fine at smoke scale and fatal at
the paper's chromosome-scale workloads (~10^8 terms/iteration). Under
``LayoutParams(memory_budget=...)`` the engine therefore splits each
iteration's plan into contiguous segment *chunks* (:func:`chunk_spans` /
:func:`build_iteration_plans`) and runs one dispatch per chunk. Chunk
boundaries are segment boundaries and the bulk PRNG draw is
interchangeable mid-stream, so drawing and dispatching the chunks in plan
order consumes identical stream state and executes the identical
per-segment computation — budgeted layouts are byte-identical to
unbudgeted ones on the NumPy backend, for every budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .selection import STOCK_RECIPE, DrawRecipe, PairSampler, StepBatch
from .updates import UpdateWorkspace, batch_stress, merge_batch

__all__ = [
    "BLOCK_TERMS",
    "FUSED_BYTES_PER_TERM",
    "FusedIterationStats",
    "FusedIterationPlan",
    "block_plan",
    "build_iteration_plans",
    "chunk_spans",
    "draw_segment",
    "uniform_call_plan",
    "run_iteration_host",
    "slice_plan",
]

#: Conservative estimate of the fused path's peak transient bytes per term
#: on one PRNG stream, used by :func:`chunk_spans` to turn a byte budget
#: into segment chunks. The dominant residents while a chunk is in flight:
#: the uniform megablock (8 vectors × 8 B = 64 B/term on one stream), the
#: re-laid selection block (64), its transpose/reshape temporary (64), and
#: the selection pass's per-term index/distance vectors plus the StepBatch
#: views (~190). On ``n`` streams a segment's megablock rows are ``n``
#: wide however few terms it has, so :func:`chunk_spans` prices the
#: megablock per segment and only the rest per term. Measured peaks on the
#: ``scale`` bench suite sit below this figure; keeping the estimate
#: conservative means a budget is an upper bound, not a target.
FUSED_BYTES_PER_TERM = 384

#: Term bound of one merge block (:func:`block_plan`). A block's hoisted
#: state (:func:`~repro.core.updates.prepare_block`: point indices,
#: compaction keys, weights, one compaction) is O(block), so this constant,
#: not the chunk or iteration size, fixes its footprint: 4,096 terms is 64
#: of the CPU baseline's 64-term segments and under 1 MiB of buffers and
#: sort temporaries. Blocks of 8,192 terms merged no faster on a 2-vCPU
#: x86-64 VM (numpy 2.4) and raised ``chr1-flat``'s peak RSS by another
#: 0.3 MiB there.
BLOCK_TERMS = 4096


def uniform_call_plan(plan: List[int], n_streams: int,
                      recipe: DrawRecipe = STOCK_RECIPE
                      ) -> Tuple[np.ndarray, int]:
    """PRNG calls each batch segment consumes from the per-iteration megablock.

    Segment ``s`` of ``plan[s]`` terms needs ``ceil(plan[s] / n_streams)``
    calls per per-term vector, plus ``recipe``'s per-warp vectors. Returns
    the per-segment per-vector call counts and the chunk's total.
    """
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    need = np.asarray([-(-int(b) // n_streams) for b in plan], dtype=np.int64)
    return need, sum(recipe.segment_calls(b, n_streams) for b in plan)


def block_plan(plan: List[int]) -> List[Tuple[int, int]]:
    """Group a batch plan into merge blocks of equal-size segments.

    Returns ``(segments, size)`` pairs that cover ``plan`` in order: each
    block is a run of consecutive segments of one ``size``, at most
    ``BLOCK_TERMS // size`` of them and never fewer than one, so a segment
    larger than :data:`BLOCK_TERMS` is a block of its own. The fused path
    merges each block with one :func:`~repro.core.updates.merge_batch`
    call, which hoists the block's coordinate-free work out of its segment
    loop.
    """
    blocks: List[Tuple[int, int]] = []
    for size in plan:
        size = int(size)
        if blocks:
            count, last = blocks[-1]
            if last == size and (count + 1) * size <= BLOCK_TERMS:
                blocks[-1] = (count + 1, size)
                continue
        blocks.append((1, size))
    return blocks


def slice_plan(plan: List[int], workers: int) -> List[List[int]]:
    """Partition a batch plan into contiguous per-worker sub-plans.

    The process-parallel engine (:mod:`repro.parallel.shm`) hands each
    worker a contiguous run of the iteration's batch segments; boundaries
    are chosen on the cumulative term count, so worker loads stay balanced
    even when the plan ends in a small remainder segment. Segments are
    never split — each sub-plan is a valid plan for a worker-local
    :class:`FusedIterationPlan` — and the effective worker count is clamped
    to ``len(plan)`` so every returned sub-plan is non-empty. With
    ``workers=1`` the single sub-plan is the plan itself, which is what
    pins the one-worker engine byte-identical to the flat path.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    plan = [int(b) for b in plan]
    if not plan:
        return [[]]
    n_workers = min(int(workers), len(plan))
    if n_workers == 1:
        return [plan]
    cum = np.cumsum(plan)
    total = int(cum[-1])
    bounds = [0]
    for k in range(1, n_workers):
        target = total * k / n_workers
        idx = int(np.searchsorted(cum, target))
        # Keep every part non-empty: leave room for the remaining workers.
        bounds.append(min(max(idx, bounds[-1] + 1), len(plan) - (n_workers - k)))
    bounds.append(len(plan))
    return [plan[bounds[k]:bounds[k + 1]] for k in range(n_workers)]


def chunk_spans(plan: List[int], memory_budget: Optional[int] = None,
                bytes_per_term: int = FUSED_BYTES_PER_TERM,
                n_streams: int = 1,
                recipe: DrawRecipe = STOCK_RECIPE) -> List[Tuple[int, int]]:
    """Pack a batch plan's segments into contiguous budget-sized chunks.

    Returns half-open ``(start, end)`` segment-index spans covering ``plan``
    in order. ``memory_budget=None`` returns the single whole-plan span —
    the historical one-dispatch-per-iteration behaviour. Otherwise segments
    are packed greedily so each chunk's cost stays within
    ``memory_budget`` bytes. A segment costs its megablock rows,
    ``recipe.segment_calls(size, n_streams) × n_streams`` doubles, plus
    ``bytes_per_term`` less the megablock's one-stream 8 B per vector for
    each term data reuse expands it to; with one stream and the stock
    recipe that is ``bytes_per_term`` per term. Segments are the
    merge-semantics quantum and are never split, so a budget smaller than
    one segment degrades to one segment per chunk (the footprint floor)
    rather than failing. Chunk boundaries land on segment boundaries by
    construction, which is what lets the draw-order contract guarantee
    budgeted runs are byte-identical to unbudgeted ones.
    """
    n_seg = len(plan)
    if n_seg == 0:
        return []
    if memory_budget is None:
        return [(0, n_seg)]
    if memory_budget < 1:
        raise ValueError("memory_budget must be a positive number of bytes")
    per_vector = 8  # megablock bytes per term and vector on one stream
    if bytes_per_term <= per_vector * recipe.vectors:
        raise ValueError("bytes_per_term must exceed the one-stream megablock "
                         f"share of {per_vector * recipe.vectors} B")
    rest = (int(bytes_per_term) - per_vector * recipe.vectors) * recipe.reuse
    spans: List[Tuple[int, int]] = []
    start = 0
    cost = 0
    for seg, batch in enumerate(plan):
        batch = int(batch)
        seg_cost = (per_vector * n_streams * recipe.segment_calls(batch, n_streams)
                    + rest * batch)
        if seg > start and cost + seg_cost > memory_budget:
            spans.append((start, seg))
            start = seg
            cost = 0
        cost += seg_cost
    spans.append((start, n_seg))
    return spans


def build_iteration_plans(sampler: PairSampler, workspace: UpdateWorkspace,
                          merge: str, plan: List[int], n_streams: int,
                          memory_budget: Optional[int] = None,
                          tracer=None,
                          recipe: DrawRecipe = STOCK_RECIPE,
                          probe: bool = False,
                          ) -> List["FusedIterationPlan"]:
    """One :class:`FusedIterationPlan` per budget chunk, in plan order.

    The chunked analogue of building a single whole-iteration plan: with no
    budget the returned list holds exactly one plan over the full batch plan
    (one dispatch per iteration); with a budget, :func:`chunk_spans` cuts
    it into chunks priced by their segments' real megablocks on
    ``n_streams`` streams under ``recipe``. All chunks share the caller's
    workspace *and* one :attr:`~FusedIterationPlan.draws` buffer sized to
    the widest chunk: chunks run strictly sequentially, so the re-laid
    draws state totals one chunk, not the whole iteration.

    Each iteration runs the chunks in order through
    :func:`repro.core.base.step_units`, one bulk draw and one backend
    dispatch per chunk. The bulk draw is interchangeable mid-stream (see
    ``next_double_block``), so the sequential per-chunk draws consume
    exactly the stream state one whole-iteration draw would have — chunked
    execution is byte-identical to unchunked on the NumPy backend.

    Every chunk draws by ``recipe``; ``probe`` goes to the first chunk.
    """
    plan = [int(b) for b in plan]
    spans = chunk_spans(plan, memory_budget, n_streams=n_streams,
                        recipe=recipe) or [(0, 0)]
    widest = max(sum(plan[start:end]) for start, end in spans)
    # Allocated once per run, before the first iteration; every chunk of
    # every iteration re-lays its draws into a view of it.
    draws = np.empty((recipe.vectors, widest), dtype=np.float64)
    return [
        FusedIterationPlan(sampler=sampler, workspace=workspace, merge=merge,
                           plan=plan[start:end], n_streams=n_streams,
                           draws=draws, tracer=tracer, recipe=recipe,
                           probe=probe and start == 0)
        for start, end in spans
    ]


@dataclass
class FusedIterationStats:
    """Aggregate counters one fused iteration hands back to the engine."""

    n_terms: int
    n_point_collisions: int
    #: The first segment's stress from a probing plan, else ``None``.
    stress: Optional[float] = None


@dataclass
class FusedIterationPlan:
    """Everything a backend needs to run whole iterations without the engine.

    Built once per :meth:`LayoutEngine.run` (one per budget chunk) and
    passed to every ``backend.run_iteration`` call of the run.
    """

    sampler: PairSampler
    workspace: UpdateWorkspace
    merge: str
    plan: List[int]
    n_streams: int
    need_calls: np.ndarray = field(init=False)
    calls_per_iteration: int = field(init=False)
    #: Merge blocks of :attr:`plan` (:func:`block_plan`) as data reuse
    #: expands its segments.
    blocks: List[Tuple[int, int]] = field(init=False)
    #: ``(recipe.vectors, ≥ sum(plan))`` float64 buffer the chunk's draws
    #: are re-laid into every iteration. :func:`build_iteration_plans`
    #: shares one, sized to the widest chunk, across a run's chunks; a plan
    #: built without one allocates its own.
    draws: Optional[np.ndarray] = None
    #: Optional :class:`repro.obs.tracer.Tracer` (duck-typed to avoid a core
    #: -> obs import at dataclass-field level). When live, host-path fused
    #: execution attributes selection/merge time per chunk; ``None`` or a
    #: disabled tracer costs one attribute read per run_iteration call.
    tracer: Optional[object] = None
    recipe: DrawRecipe = STOCK_RECIPE
    #: Sample the first segment's stress right after its merge (the
    #: ``record_history`` probe); that segment is then a block of its own.
    probe: bool = False

    def __post_init__(self) -> None:
        self.plan = [int(b) for b in self.plan]
        if any(b < 1 for b in self.plan):
            raise ValueError("batch plan segments must all be >= 1")
        self.need_calls, self.calls_per_iteration = uniform_call_plan(
            self.plan, self.n_streams, self.recipe)
        self.blocks = block_plan([self.recipe.reuse * b for b in self.plan])
        if self.probe and self.blocks and self.blocks[0][0] > 1:
            count, size = self.blocks[0]
            self.blocks[:1] = [(1, size), (count - 1, size)]
        if self.draws is None:
            self.draws = np.empty((self.recipe.vectors, sum(self.plan)),
                                  dtype=np.float64)


def iteration_draws(uniforms, plan: List[int], need_calls: np.ndarray,
                    n_streams: int, out=None,
                    recipe: DrawRecipe = STOCK_RECIPE):
    """Re-lay the megablock's per-term vectors into one selection block.

    Segment ``s``'s rows are its ``recipe.lead_calls`` per-warp rows, then
    ``rows.reshape(vectors, need·streams)[:, :batch]``; this concatenates
    those per-term vectors in plan order into ``(vectors, total_terms)``,
    coalescing runs of equally-sized segments into a single
    reshape/transpose (the common plan is uniform batches plus one
    remainder, so an iteration re-lays in ~2 array ops). Every element
    keeps its per-segment value — the transform is pure layout.

    ``out``, when given, must be a ``(vectors, total_terms)`` float64
    array; it is filled and returned instead of allocating.
    :func:`run_iteration_host` passes a view of the plan's
    :attr:`~FusedIterationPlan.draws` buffer, so steady-state iterations
    allocate nothing here (the hot path's zero steady-state-allocation
    contract).
    """
    vectors = recipe.vectors
    n_terms = sum(int(b) for b in plan)
    if out is None:
        out = np.empty((vectors, n_terms), dtype=np.float64)  # alloc-ok: fallback for direct callers only; the fused run path passes the plan's shared draws buffer
    elif out.shape != (vectors, n_terms):
        raise ValueError(
            f"out must have shape {(vectors, n_terms)}, got {out.shape}")
    n_seg = len(plan)
    seg = 0
    row = 0
    col = 0
    while seg < n_seg:
        batch = plan[seg]
        need = int(need_calls[seg])
        run_end = seg
        while (run_end + 1 < n_seg and plan[run_end + 1] == batch
               and int(need_calls[run_end + 1]) == need):
            run_end += 1
        k = run_end - seg + 1
        lead = recipe.lead_calls(batch, n_streams)
        rows = lead + vectors * need
        block = uniforms[row:row + k * rows]
        if lead:
            block = block.reshape(k, rows, n_streams)[:, lead:]
        block = block.reshape(k, vectors, need * n_streams)[:, :, :batch]
        out[:, col:col + k * batch] = block.transpose(1, 0, 2).reshape(
            vectors, k * batch)
        row += k * rows
        col += k * batch
        seg = run_end + 1
    return out


def draw_segment(sampler: PairSampler, rng, size: int, iteration: int,
                 recipe: DrawRecipe = STOCK_RECIPE) -> StepBatch:
    """Draw and select one ``size``-term segment exactly as a run does,
    before data reuse (the GPU model's profile sample)."""
    need, calls = uniform_call_plan([size], rng.n_streams, recipe)
    uniforms = rng.next_double_block(calls)
    draws = iteration_draws(uniforms, [size], need, rng.n_streams,
                            recipe=recipe)
    return sampler.select_chunk(uniforms, draws, [size], rng.n_streams,
                                iteration, recipe)


def run_iteration_host(backend, plan: FusedIterationPlan, coords,
                       uniforms: np.ndarray, eta: float,
                       iteration: int) -> FusedIterationStats:
    """Generic fused iteration: host selection, merges through ``backend``.

    The reference implementation of the ``run_iteration`` contract, split
    the way the data dependencies allow:

    * **selection is batch-free** — a term's identity depends only on its
      own uniforms and the static graph arrays, never on the coordinates —
      so the *whole chunk's* terms are selected in one vectorised pass
      over the re-laid megablock (every selection op is elementwise, so the
      per-term values are byte-identical to segment-at-a-time selection),
      then data reuse expands each segment;
    * **merges stay sequential** — the plan's merge blocks walk the
      selected terms as views; :func:`~repro.core.updates.merge_batch`
      computes a block's coordinate-free state once, then merges its
      segments in order, each reading coordinates as of its segment start
      and scattering through the backend's merge kernel; a probing plan
      samples the first segment's stress right after its merge.
    """
    sampler = plan.sampler
    recipe = plan.recipe
    n_terms = sum(plan.plan)  # this plan's terms: one budget chunk, not the iteration
    # Span attribution (repro.obs): selection is the one vectorised pass,
    # merge is the sequential segment walk — the interpreter analogue of the
    # paper's per-kernel Table IV split. One event per chunk, not per
    # segment, so event volume stays O(iterations x chunks).
    tracer = plan.tracer
    trace = tracer is not None and tracer.enabled
    t_sel = tracer.now() if trace else 0.0
    draws = iteration_draws(uniforms, plan.plan, plan.need_calls,
                            plan.n_streams, out=plan.draws[:, :n_terms],
                            recipe=recipe)
    terms = sampler.select_chunk(uniforms, draws, plan.plan, plan.n_streams,
                                 iteration, recipe)
    if recipe.reuse > 1:
        terms = sampler.warp_shuffle(terms, plan.plan, recipe)
    if trace:
        tracer.emit("selection", t_sel, tracer.now() - t_sel, iteration,
                    count=n_terms)
    t_mrg = tracer.now() if trace else 0.0
    n_collisions = 0
    stress = None
    offset = 0
    for segments, size in plan.blocks:
        end = offset + segments * size
        n_collisions += merge_batch(coords, terms.slice(offset, end), eta,
                                    plan.merge, plan.workspace, segments)
        offset = end
        if plan.probe and stress is None:
            stress = batch_stress(coords, terms.slice(0, size),
                                  backend=backend)
    if trace:
        tracer.emit("merge", t_mrg, tracer.now() - t_mrg, iteration,
                    count=len(plan.plan))
    return FusedIterationStats(n_terms=offset,
                               n_point_collisions=n_collisions,
                               stress=stress)
