"""Fused per-iteration execution path: one backend dispatch per iteration.

The paper's headline speedup comes from running an entire SGD iteration as a
*single* CUDA kernel launch (Sec. V; Table IV counts the launches), where the
batched tensor formulation pays per-batch launch overhead. The Python
analogue of that overhead is interpreter dispatch: the classic
:meth:`~repro.core.base.LayoutEngine.run` loop crosses the engine→backend
seam once per batch (``sampler.sample`` → ``apply_batch``), and on
Chr.1-like graphs that dispatch now rivals the O(batch) numeric work.

The fused path hoists the whole iteration below the backend seam:

1. the engine pre-draws the iteration's full term budget as one uniform
   megablock (:meth:`~repro.prng.xoshiro.Xoshiro256Plus.next_double_block`),
2. hands it — plus this :class:`FusedIterationPlan` — to
   :meth:`~repro.backend.base.ArrayBackend.run_iteration`, one call per
   iteration, which performs selection + displacement + merge for every
   planned batch segment internally, and
3. receives aggregate :class:`FusedIterationStats` back.

Segment semantics are *unchanged*: segments execute sequentially, each term
reads the coordinates as of its segment's start, and the write merge per
segment is the same hogwild/accumulate/last_writer scatter — so the fused
path is a re-sequencing of the historical computation, not a new algorithm.
Runs of equal-size segments are merged as blocks (:func:`block_plan`): the
work that reads no coordinate is computed once per block, and the
coordinate work still runs segment by segment in plan order. The unfused
loop merges through the same kernel with one-segment blocks (only the
per-batch *statistics* reductions differ, which touch no coordinate
state), so on the NumPy backend fused layouts are byte-identical to
unfused ones; other backends are held to the conformance matrix's 1e-9.

The megablock consumes the PRNG streams in the exact order the per-batch
draws did (vector-major, call-minor per segment, segments in plan order), so
fused and unfused runs see identical sampled terms.

Memory is bounded, not O(iteration). The whole-iteration megablock costs
~:data:`FUSED_BYTES_PER_TERM` bytes of transient state per term, which is
fine at smoke scale and fatal at the paper's chromosome-scale workloads
(~10^8 terms/iteration). Under ``LayoutParams(memory_budget=...)`` the
engine therefore splits each iteration's plan into contiguous segment
*chunks* (:func:`chunk_spans` / :func:`build_iteration_plans`) and runs one
dispatch per chunk. Chunk boundaries are segment boundaries and the bulk
PRNG draw is interchangeable mid-stream, so drawing and dispatching the
chunks in plan order consumes identical stream state and executes the
identical per-segment computation — budgeted layouts are byte-identical to
unbudgeted ones on the NumPy backend, for every budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .params import LayoutParams
from .selection import PairSampler, SelectionArrays
from .updates import UpdateWorkspace, merge_batch

__all__ = [
    "BLOCK_TERMS",
    "FUSED_BYTES_PER_TERM",
    "FusedIterationStats",
    "FusedIterationPlan",
    "block_plan",
    "build_iteration_plans",
    "chunk_spans",
    "uniform_call_plan",
    "run_iteration_host",
    "slice_plan",
]

#: Uniform vectors consumed per term by the default selection branch
#: (6 path/cooling/pair vectors + 2 endpoint coin flips).
SAMPLE_VECTORS = 8

#: Conservative estimate of the fused path's peak transient bytes per term,
#: used by :func:`chunk_spans` to turn a byte budget into a term budget. The
#: dominant residents while a chunk is in flight: the uniform megablock
#: (``SAMPLE_VECTORS × 8`` = 64 B/term), the re-laid selection block (64),
#: its transpose/reshape temporary (64), and the selection pass's per-term
#: index/distance vectors plus the StepBatch views (~190). Measured peaks on
#: the ``scale`` bench suite sit below this figure; keeping the estimate
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


def uniform_call_plan(plan: List[int], n_streams: int) -> Tuple[np.ndarray, int]:
    """PRNG calls each batch segment consumes from the per-iteration megablock.

    Segment ``s`` of ``plan[s]`` terms needs ``ceil(plan[s] / n_streams)``
    calls per uniform vector, hence ``SAMPLE_VECTORS ×`` that many calls in
    total — exactly what the unfused per-batch ``PairSampler._uniforms``
    would have drawn, in the same stream order. Returns the per-segment
    per-vector call counts and the iteration's total call count.
    """
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    need = np.asarray([-(-int(b) // n_streams) for b in plan], dtype=np.int64)
    return need, int(SAMPLE_VECTORS * need.sum())


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
                bytes_per_term: int = FUSED_BYTES_PER_TERM) -> List[Tuple[int, int]]:
    """Pack a batch plan's segments into contiguous budget-sized chunks.

    Returns half-open ``(start, end)`` segment-index spans covering ``plan``
    in order. ``memory_budget=None`` returns the single whole-plan span —
    the historical one-dispatch-per-iteration behaviour. Otherwise segments
    are packed greedily so each chunk's term count stays within
    ``memory_budget // bytes_per_term``; segments are the merge-semantics
    quantum and are never split, so a budget smaller than one segment
    degrades to one segment per chunk (the footprint floor) rather than
    failing. Chunk boundaries land on segment boundaries by construction,
    which is what lets the draw-order contract guarantee budgeted runs are
    byte-identical to unbudgeted ones.
    """
    n_seg = len(plan)
    if n_seg == 0:
        return []
    if memory_budget is None:
        return [(0, n_seg)]
    if memory_budget < 1:
        raise ValueError("memory_budget must be a positive number of bytes")
    if bytes_per_term < 1:
        raise ValueError("bytes_per_term must be >= 1")
    target_terms = max(1, int(memory_budget) // int(bytes_per_term))
    spans: List[Tuple[int, int]] = []
    start = 0
    terms = 0
    for seg, batch in enumerate(plan):
        batch = int(batch)
        if seg > start and terms + batch > target_terms:
            spans.append((start, seg))
            start = seg
            terms = 0
        terms += batch
    spans.append((start, n_seg))
    return spans


def build_iteration_plans(sampler: PairSampler, workspace: UpdateWorkspace,
                          merge: str, plan: List[int], n_streams: int,
                          memory_budget: Optional[int] = None,
                          tracer=None,
                          ) -> List["FusedIterationPlan"]:
    """One :class:`FusedIterationPlan` per budget chunk, in plan order.

    The chunked analogue of building a single whole-iteration plan: with no
    budget the returned list holds exactly one plan over the full batch plan
    (identical dispatch economics to PR 5), with a budget each chunk gets
    its *own* plan object — and therefore its own :attr:`cache`, because
    backends stash chunk-shaped derived state there (the numba arg tuple
    embeds the chunk's plan array and call counts). All chunks share the
    caller's workspace *and* one :attr:`scratch` dict: chunks run strictly
    sequentially, so chunk-invariant derived state — device copies of the
    selection arrays, the re-laid draws buffer sized to the widest chunk —
    lives once per run, not once per chunk. Without the shared scratch the
    per-chunk caches would collectively re-materialise the whole
    iteration's footprint, defeating the budget.

    Per-iteration usage is one ``rng.next_double_block(chunk.calls_per_iteration)``
    + ``backend.run_iteration(chunk, ...)`` per chunk, in order. The bulk
    draw is interchangeable mid-stream (see ``next_double_block``), so the
    sequential per-chunk draws consume exactly the stream state one
    whole-iteration draw would have — chunked execution is byte-identical
    to unchunked on the NumPy backend.
    """
    plan = [int(b) for b in plan]
    spans = chunk_spans(plan, memory_budget)
    if not spans:
        spans = [(0, 0)]
    scratch: Dict[str, object] = {}
    return [
        FusedIterationPlan(sampler=sampler, workspace=workspace, merge=merge,
                           plan=plan[start:end], n_streams=n_streams,
                           scratch=scratch, tracer=tracer)
        for start, end in spans
    ]


@dataclass
class FusedIterationStats:
    """Aggregate counters one fused iteration hands back to the engine."""

    n_terms: int
    n_point_collisions: int


@dataclass
class FusedIterationPlan:
    """Everything a backend needs to run whole iterations without the engine.

    Built once per :meth:`LayoutEngine.run` (one per budget chunk) and
    passed to every ``backend.run_iteration`` call of the run. Backends may
    stash derived state in two places, split by what it depends on:

    * :attr:`cache` — *chunk-shaped* state (the numba arg pair embedding
      this plan's segment array and call counts). Private to this plan.
    * :attr:`scratch` — *chunk-invariant* state (device copies of the
      selection arrays, the re-laid draws buffer). Shared by every chunk of
      one :func:`build_iteration_plans` call; since chunks run sequentially
      this keeps cached state O(chunk + graph) instead of O(iteration).
    """

    sampler: PairSampler
    workspace: UpdateWorkspace
    merge: str
    plan: List[int]
    n_streams: int
    need_calls: np.ndarray = field(init=False)
    calls_per_iteration: int = field(init=False)
    #: Merge blocks of :attr:`plan` (:func:`block_plan`).
    blocks: List[Tuple[int, int]] = field(init=False)
    cache: Dict[str, object] = field(default_factory=dict)
    scratch: Dict[str, object] = field(default_factory=dict)
    #: Optional :class:`repro.obs.tracer.Tracer` (duck-typed to avoid a core
    #: -> obs import at dataclass-field level). When live, host-path fused
    #: execution attributes selection/merge time per chunk; ``None`` or a
    #: disabled tracer costs one attribute read per run_iteration call.
    tracer: Optional[object] = None

    def __post_init__(self) -> None:
        self.plan = [int(b) for b in self.plan]
        if any(b < 1 for b in self.plan):
            raise ValueError("batch plan segments must all be >= 1")
        self.need_calls, self.calls_per_iteration = uniform_call_plan(
            self.plan, self.n_streams)
        self.blocks = block_plan(self.plan)

    # ------------------------------------------------------------ accessors
    @property
    def params(self) -> LayoutParams:
        """Layout parameters governing selection (zipf/cooling knobs)."""
        return self.sampler.params

    @property
    def host_arrays(self) -> SelectionArrays:
        """Host-resident selection arrays (the sampler's own bundle)."""
        return self.sampler.arrays

    def device_arrays(self, backend) -> SelectionArrays:
        """Selection arrays in ``backend``'s memory space, converted once.

        Host backends get the sampler's bundle back untouched; device
        backends pay one upload per run and afterwards select terms without
        touching host memory.
        """
        key = f"arrays/{backend.name}"
        arrays = self.scratch.get(key)
        if arrays is None:
            host = self.host_arrays
            if backend.asarray(host.cum_steps) is host.cum_steps:
                arrays = host
            else:
                arrays = SelectionArrays(*(backend.asarray(a) for a in host))
            self.scratch[key] = arrays
        return arrays


def iteration_draws(uniforms, plan: List[int], need_calls: np.ndarray,
                    n_streams: int, xp=np, out=None):
    """Re-lay the megablock into one ``(8, total_terms)`` selection block.

    Segment ``s``'s unfused draws are
    ``megablock_rows.reshape(8, need·streams)[:, :batch]``; this concatenates
    those per-segment vectors in plan order, coalescing runs of equally-sized
    segments into a single reshape/transpose (the common plan is uniform
    batches plus one remainder, so an iteration re-lays in ~2 array ops).
    Every element keeps its per-segment value — the transform is pure layout.

    ``out``, when given, must be a ``(SAMPLE_VECTORS, total_terms)`` float64
    array in ``xp``'s namespace; it is filled and returned instead of
    allocating. :func:`run_iteration_host` passes a view of the chunk-shared
    scratch buffer, so steady-state iterations allocate nothing here (the
    PR 2 zero steady-state-allocation contract).
    """
    n_terms = sum(int(b) for b in plan)
    if out is None:
        out = xp.empty((SAMPLE_VECTORS, n_terms), dtype=np.float64)  # alloc-ok: fallback for direct callers only; the fused run path passes the chunk-shared scratch buffer
    elif out.shape != (SAMPLE_VECTORS, n_terms):
        raise ValueError(
            f"out must have shape {(SAMPLE_VECTORS, n_terms)}, got {out.shape}")
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
        rows = SAMPLE_VECTORS * need
        block = uniforms[row:row + k * rows].reshape(
            k, SAMPLE_VECTORS, need * n_streams)[:, :, :batch]
        out[:, col:col + k * batch] = block.transpose(1, 0, 2).reshape(
            SAMPLE_VECTORS, k * batch)
        row += k * rows
        col += k * batch
        seg = run_end + 1
    return out


def run_iteration_host(backend, plan: FusedIterationPlan, coords,
                       uniforms: np.ndarray, eta: float,
                       iteration: int) -> FusedIterationStats:
    """Generic fused iteration over the backend's array namespace.

    The reference implementation of the ``run_iteration`` contract, split
    the way the data dependencies allow:

    * **selection is batch-free** — a term's identity depends only on its
      own uniforms and the static graph arrays, never on the coordinates —
      so the *whole iteration's* terms are selected in one vectorised pass
      over the re-laid megablock (every selection op is elementwise, so the
      per-term values are byte-identical to segment-at-a-time selection);
    * **merges stay sequential** — the plan's merge blocks walk the
      selected terms as views; :func:`~repro.core.updates.merge_batch`
      computes a block's coordinate-free state once, then merges its
      segments in order, each reading coordinates as of its segment start
      and scattering through the backend's merge kernel, exactly the
      unfused staleness/merge semantics.

    On host backends the pass runs on NumPy; a backend advertising
    ``fused_device_selection`` gets the megablock uploaded once per
    iteration and selection executed in its own namespace over a
    device-resident :class:`SelectionArrays` bundle, which is what stops
    per-batch host→device round trips on CuPy.
    """
    sampler = plan.sampler
    if getattr(backend, "fused_device_selection", False):
        xp = backend.xp
        arrays = plan.device_arrays(backend)
        uniforms = backend.asarray(uniforms)
        draws_key = f"draws/{backend.name}"
        draws_xp = xp
    else:
        xp = None
        arrays = None
        draws_key = "draws/host"
        draws_xp = np
    n_terms = sum(plan.plan)  # this plan's terms: one budget chunk, not the iteration
    buf = plan.scratch.get(draws_key)
    if buf is None or buf.shape[1] < n_terms:
        # Grown to the widest chunk during the first iteration, then reused
        # by every chunk of every later one — the scratch is shared across
        # the run's chunk plans (they execute sequentially), so the cached
        # draws state totals one chunk, not the whole iteration. Hoisting
        # this (8, n_terms) block out of the per-iteration path is what
        # keeps fused steady-state allocation-free.
        buf = draws_xp.empty((SAMPLE_VECTORS, n_terms), dtype=np.float64)  # alloc-ok: warm-up allocation; kept in the chunk-shared scratch and reused by later chunks and iterations
        plan.scratch[draws_key] = buf
    out = buf if buf.shape[1] == n_terms else buf[:, :n_terms]
    # Span attribution (repro.obs): selection is the one vectorised pass,
    # merge is the sequential segment walk — the interpreter analogue of the
    # paper's per-kernel Table IV split. One event per chunk, not per
    # segment, so event volume stays O(iterations x chunks).
    tracer = plan.tracer
    trace = tracer is not None and tracer.enabled
    t_sel = tracer.now() if trace else 0.0
    draws = iteration_draws(uniforms, plan.plan, plan.need_calls,
                            plan.n_streams, xp=draws_xp, out=out)
    terms = sampler.select_from_uniforms(draws, n_terms, iteration,
                                         xp=xp, arrays=arrays)
    if trace:
        tracer.emit("selection", t_sel, tracer.now() - t_sel, iteration,
                    count=n_terms)
    t_mrg = tracer.now() if trace else 0.0
    n_collisions = 0
    offset = 0
    for segments, size in plan.blocks:
        end = offset + segments * size
        _, collisions = merge_batch(coords, terms.slice(offset, end), eta,
                                    plan.merge, plan.workspace, segments)
        offset = end
        n_collisions += collisions
    if trace:
        tracer.emit("merge", t_mrg, tracer.now() - t_mrg, iteration,
                    count=len(plan.plan))
    return FusedIterationStats(n_terms=n_terms,
                               n_point_collisions=n_collisions)
