"""Shared machinery for the layout engines: the one iteration driver.

Every engine — the CPU baseline, the batched "PyTorch-style" engine, the
optimized GPU kernel, the shared-memory workers and their inline
serialisation — runs Alg. 1 through :meth:`LayoutEngine.run`: for each
iteration take the scheduled learning rate, advance the run by one
iteration, and account it. An engine supplies only its :meth:`session`:
the set-up before the first iteration, the per-iteration step, and the
tear-down after the last. Every step bottoms out in :func:`step_units`,
one megablock draw and one ``backend.run_iteration`` per chunk. The
engines differ in batch granularity (their batch plan), in how randomness
is organised (per thread / per warp / per worker, their
:class:`~repro.core.selection.DrawRecipe`), and in which hardware counters
they expose — what the paper varies.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)


from ..backend import ArrayBackend, get_backend
from ..graph.lean import LeanGraph
from ..graph.path_index import PathIndex
from ..memtrack import PeakTracker
from ..obs import clock as obs_clock
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.trace_file import merge_events, write_trace
from ..obs.tracer import NULL_TRACER, TraceEvent, Tracer
from ..prng.xoshiro import Xoshiro256Plus
from .fused import FusedIterationPlan, build_iteration_plans
from .layout import Layout, NodeDataLayout, initialize_layout
from .params import LayoutParams
from .schedule import make_schedule
from .selection import STOCK_RECIPE, DrawRecipe, PairSampler
from .updates import UpdateWorkspace

__all__ = ["IterationRecord", "LayoutResult", "LayoutEngine",
           "ProgressCallback", "Session", "StepStats", "Unit",
           "split_into_batches", "step_units"]

#: Signature of the live-progress hook (``LayoutEngine.on_progress``,
#: threaded through :func:`repro.core.api.layout_graph`): called after each
#: completed iteration with ``(completed, total, phase_stats)`` where
#: ``completed`` counts from 1 to ``total`` and ``phase_stats`` is a small
#: flat dict (engine, eta, terms, collisions). The CLI renders it as a live
#: line; a job server would stream it — this is the hook ROADMAP open
#: item 1's progress streaming builds on.
ProgressCallback = Callable[[int, int, Dict[str, Any]], None]


def split_into_batches(total: int, chunk: int) -> List[int]:
    """Split ``total`` update terms into ``chunk``-sized batches plus remainder.

    The shared building block of every engine's :meth:`LayoutEngine.batch_plan`:
    ``chunk`` is clamped to ``[1, total]`` and the final batch carries the
    remainder, so the plan always sums to ``total``.
    """
    total = int(total)
    if total <= 0:
        return []
    chunk = max(1, min(int(chunk), total))
    full, rem = divmod(total, chunk)
    plan = [chunk] * full
    if rem:
        plan.append(rem)
    return plan


#: One execution unit: a generator and the fused chunk plans it draws for.
#: A flat fused run has one unit; a worker has one per sub-plan it runs.
Unit = Tuple[Xoshiro256Plus, List[FusedIterationPlan]]


def step_units(units: List[Unit], backend: ArrayBackend, coords, eta: float,
               iteration: int, tracer: Tracer, t0: float) -> "StepStats":
    """Advance every unit by one fused iteration, chunk by chunk, in order.

    Each chunk is one ``rng.next_double_block`` draw and one
    ``backend.run_iteration`` dispatch. Sequential per-chunk draws consume
    exactly the stream state one whole-iteration draw would (the bulk draw
    is interchangeable mid-stream), so chunking never moves a sampled term.
    One ``draw``/``dispatch`` span pair, stamped ``t0``, covers all chunks:
    O(iterations) events regardless of chunk count, and one guarded clock
    read pair per chunk keeps the untraced path at a single bool test.
    Returns the terms, point collisions and chunks, and the stress a
    probing chunk sampled.
    """
    trace = tracer.enabled
    draw_s = 0.0
    disp_s = 0.0
    n_terms = 0
    n_collisions = 0
    n_chunks = 0
    stress = None
    for rng, plans in units:
        n_chunks += len(plans)
        for chunk in plans:
            c0 = tracer.now() if trace else 0.0
            block = rng.next_double_block(chunk.calls_per_iteration)  # mem-ok: chunk plans are budget-bounded (a worker's by its budget share); the unbudgeted single chunk is the documented opt-in default
            c1 = tracer.now() if trace else 0.0
            stats = backend.run_iteration(chunk, coords, block, eta, iteration)
            # Free this chunk's megablock before the next chunk draws its
            # own: a budget prices one chunk in flight, not two.
            del block
            if trace:
                draw_s += c1 - c0
                disp_s += tracer.now() - c1
            n_terms += stats.n_terms
            n_collisions += stats.n_point_collisions
            if stats.stress is not None:
                stress = stats.stress
    if trace:
        tracer.emit("draw", t0, draw_s, iteration, count=n_chunks)
        tracer.emit("dispatch", t0, disp_s, iteration, count=n_chunks)
    return StepStats(n_terms, n_collisions, n_chunks, stress=stress)


class StepStats(NamedTuple):
    """One iteration as an engine's step reports it to the driver."""

    terms: int
    collisions: int
    #: Backend dispatches (fused chunks) the iteration took.
    dispatches: int
    #: Live workers of a parallel run: the ``iteration`` span's count and
    #: the progress hook's ``workers``; ``None`` on a single process.
    workers: Optional[int] = None
    #: Stress of the iteration's first segment right after its merge, for
    #: the history; only flat runs under ``record_history`` probe it.
    stress: Optional[float] = None


@dataclass
class Session:
    """An engine's set-up handed to the driver (:meth:`LayoutEngine.session`)."""

    #: ``step(eta, iteration, t_iter)`` advances the run by one iteration;
    #: ``t_iter`` is the start of the driver's ``iteration`` span.
    step: Callable[[float, int, float], StepStats]
    #: Worker count the trace file reports.
    workers: int
    #: Per-worker trace streams, filled from the workers' per-iteration
    #: replies and merged by start time into the trace file.
    streams: List[List[TraceEvent]] = field(default_factory=list)


@dataclass
class IterationRecord:
    """Per-iteration diagnostics recorded when ``params.record_history``."""

    iteration: int
    eta: float
    sampled_stress: float
    n_terms: int
    n_collisions: int


@dataclass
class LayoutResult:
    """Outcome of one layout run."""

    layout: Layout
    params: LayoutParams
    engine: str
    iterations: int
    total_terms: int
    history: List[IterationRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    metrics: Optional[MetricsSnapshot] = None
    """Typed metrics snapshot (:mod:`repro.obs.metrics`) behind the flat
    ``counters`` view; ``None`` for results built outside an engine run."""

    def final_stress(self) -> Optional[float]:
        """Last recorded sampled stress (None when history is disabled)."""
        if not self.history:
            return None
        return self.history[-1].sampled_stress

    def summary(self) -> Dict[str, Any]:
        """Stable flat summary of the run — the external reporting contract.

        Bench cases, the CLI, and any future serving layer read *this*
        instead of reaching into engine internals: engine name, a params
        echo, iteration/term totals, wall time, the dispatch counters, and
        the collision statistics the hogwild analysis consumes. Keys only
        ever get added, never renamed.
        """
        return {
            "engine": self.engine,
            "n_points": int(self.layout.coords.shape[0]),
            "iterations": int(self.iterations),
            "total_terms": int(self.total_terms),
            "wall_time_s": float(self.wall_time_s),
            "point_collisions": int(self.counters.get("point_collisions", 0)),
            "collision_fraction": (
                float(self.counters.get("point_collisions", 0))
                / max(int(self.total_terms), 1)
            ),
            "update_dispatches": int(self.counters.get("update_dispatches", 0)),
            "fused_iterations": int(self.counters.get("fused_iterations", 0)),
            "fused_chunks": int(self.counters.get("fused_chunks", 0)),
            "workers": int(self.params.workers),
            # Supervised-runtime health (repro.parallel.supervise): flat
            # engines report the trivially healthy figures — effective
            # workers equal to the configured count, nothing failed.
            "effective_workers": int(
                self.counters.get("effective_workers", self.params.workers)),
            "degraded": bool(self.counters.get("degraded", 0.0)),
            "worker_failures": int(self.counters.get("worker_failures", 0)),
            "worker_restarts": int(self.counters.get("worker_restarts", 0)),
            "workers_killed": int(self.counters.get("workers_killed", 0)),
            # Peak-memory accounting (repro.memtrack): max RSS is sampled on
            # every run; the traced peak only exists when the caller had
            # tracemalloc active around the run (e.g. the scale bench suite).
            "peak_rss_bytes": (
                int(self.counters["peak_rss_bytes"])
                if "peak_rss_bytes" in self.counters else None
            ),
            "traced_peak_bytes": (
                int(self.counters["traced_peak_bytes"])
                if "traced_peak_bytes" in self.counters else None
            ),
            "final_stress": self.final_stress(),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict: :meth:`summary` plus the full params echo and the
        raw counter map (layout coordinates are deliberately excluded)."""
        return {
            **self.summary(),
            "params": asdict(self.params),
            "counters": dict(self.counters),
            "metrics": (self.metrics.to_dicts()
                        if self.metrics is not None else None),
        }


class LayoutEngine:
    """Base class implementing the iteration structure of Alg. 1."""

    name = "base"

    def __init__(self, graph: LeanGraph, params: Optional[LayoutParams] = None):
        self.graph = graph
        self.params = params if params is not None else LayoutParams()
        # Resolved once per engine: params.backend -> REPRO_BACKEND -> numpy.
        # An unavailable backend fails here, before any work is done.
        self.backend: ArrayBackend = get_backend(self.params.backend)
        self.index = PathIndex(graph)
        self.sampler = PairSampler(graph, self.params, self.index)
        self.schedule = make_schedule(graph, self.params)
        # Observability (repro.obs): the typed metrics registry replaces the
        # old flat counter dict (add_counter/max_counter delegate into it);
        # the tracer is live only when the params request a trace file, and
        # callers (multilevel driver, bench cases, tests) may swap in their
        # own bound tracer before run(). on_progress is the live-progress
        # hook — assigned, not constructor-passed, because callables do not
        # belong in the frozen/serialisable LayoutParams.
        self.metrics = MetricsRegistry(labels={"engine": self.name,
                                               "backend": self.backend.name})
        self.tracer: Tracer = (Tracer(labels={"engine": self.name})
                               if self.params.trace else NULL_TRACER)
        self.on_progress: Optional[ProgressCallback] = None

    # ------------------------------------------------------------ interface
    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        """Split one iteration's step budget into engine-specific batch sizes."""
        raise NotImplementedError

    def make_rng(self) -> Xoshiro256Plus:
        """PRNG used to drive the sampler (engines may override stream count)."""
        return Xoshiro256Plus(self.params.seed, n_streams=256)

    #: What each plan segment draws and how its terms are selected
    #: (:class:`~repro.core.selection.DrawRecipe`); the GPU model and the
    #: fixed-hop run set their own.
    recipe: DrawRecipe = STOCK_RECIPE

    def make_workspace(self, plan: List[int]) -> UpdateWorkspace:
        """Per-run scratch buffers sized to the largest segment of ``plan``
        as data reuse expands it, on the engine's backend."""
        return UpdateWorkspace(max(plan) * self.recipe.reuse if plan else 1,
                               backend=self.backend)

    # ------------------------------------------------------------------ run
    def run(self, initial: Optional[Layout] = None) -> LayoutResult:
        """Execute the full layout optimisation and return the result.

        The one iteration loop of every engine: it owns the schedule, the
        ``update_dispatches``/``point_collisions`` counters, the
        ``iteration`` span, ``on_progress``, the history, the trace file and
        the result. The engine's :meth:`session` supplies the rest.
        """
        # Wall-clock reads route through the obs.clock seam (OBS001): the
        # trace stays stub-able and the contract linter can prove no raw
        # time.* read feeds layout math.
        t_start = obs_clock.perf_counter()
        tracer = self.tracer
        trace = tracer.enabled
        params = self.params
        layout = (
            initial.copy()
            if initial is not None
            else initialize_layout(self.graph, seed=params.seed, data_layout=self.data_layout())
        )
        history: List[IterationRecord] = []
        total_terms = 0
        with self.session(layout) as session:
            for iteration in range(params.iter_max):
                eta = float(self.schedule[iteration])
                t_iter = tracer.now() if trace else 0.0
                stats = session.step(eta, iteration, t_iter)
                total_terms += stats.terms
                self.add_counter("update_dispatches", float(stats.dispatches))
                self.add_counter("point_collisions", float(stats.collisions))
                if trace:
                    tracer.emit("iteration", t_iter, tracer.now() - t_iter,
                                iteration, count=stats.workers or 1)
                if self.on_progress is not None:
                    progress = {
                        "engine": self.name,
                        "eta": eta,
                        "terms": stats.terms,
                        "collisions": stats.collisions,
                    }
                    if stats.workers is not None:
                        progress["workers"] = stats.workers
                    self.on_progress(iteration + 1, params.iter_max, progress)
                if stats.stress is not None:
                    history.append(IterationRecord(
                        iteration=iteration,
                        eta=eta,
                        sampled_stress=stats.stress,
                        n_terms=stats.terms,
                        n_collisions=stats.collisions,
                    ))
        if params.trace:
            # This run owns the trace file (the multilevel driver keeps
            # ``trace`` out of its level engines' params). Worker streams
            # merge by start time; the engine's own events keep emission
            # order.
            events = (merge_events([tracer.events] + session.streams)
                      if session.streams else tracer.events)
            write_trace(params.trace, events, meta={
                "engine": self.name,
                "backend": self.backend.name,
                "iterations": params.iter_max,
                "workers": session.workers,
            })
        return LayoutResult(
            layout=layout,
            params=params,
            engine=self.name,
            iterations=params.iter_max,
            total_terms=total_terms,
            history=history,
            counters=self.metrics.counter_values(),
            wall_time_s=obs_clock.perf_counter() - t_start,
            metrics=self.metrics.snapshot(),
        )

    @contextmanager
    def session(self, layout: Layout) -> Iterator[Session]:
        """Set-up, per-iteration step and tear-down of a single-process run.

        The tear-down leaves the final coordinates in ``layout``.
        """
        tracer = self.tracer
        trace = tracer.enabled
        params = self.params
        # Coordinate state lives in the backend's memory space for the whole
        # run: one upload here, one download at the end (both identities on
        # host backends, where ``coords`` *is* ``layout.coords``).
        t_up = tracer.now() if trace else 0.0
        coords = self.backend.from_host(layout.coords)
        if trace:
            tracer.emit("transfer", t_up, tracer.now() - t_up)
        t_sched = tracer.now() if trace else 0.0
        rng = self.make_rng()
        steps_per_iter = params.steps_per_iteration(self.graph.total_steps)
        # The plan depends only on the per-iteration step budget, so it is
        # computed once; its largest segment sizes the per-run scratch
        # buffers every merge of the run reuses (no graph-sized scratch and
        # no re-allocation of the staging arrays in the memory-bound hot
        # path, paper Sec. V-B).
        plan = self.batch_plan(steps_per_iter)
        workspace = self.make_workspace(plan)
        merge = self.merge_policy()
        # Peak-memory accounting: max RSS always (cheap getrusage read);
        # the tracemalloc delta only when a caller already pays for tracing.
        # It starts before the plans are built, so it counts their shared
        # draws buffer with the per-iteration transients.
        mem = PeakTracker(trace=None).start()
        # The whole iteration — selection, displacement, merge — runs below
        # the backend seam over pre-drawn uniform megablocks
        # (repro.core.fused). Without a memory budget that is one plan
        # covering the whole batch plan (one dispatch per iteration); with
        # params.memory_budget the plan is split into contiguous segment
        # chunks dispatched in order, bounding the per-dispatch transient
        # footprint while staying byte-identical on the NumPy backend.
        units = [(rng, build_iteration_plans(
            sampler=self.sampler,
            workspace=workspace,
            merge=merge,
            plan=plan,
            n_streams=rng.n_streams,
            memory_budget=params.memory_budget,
            tracer=tracer,
            recipe=self.recipe,
            probe=params.record_history,
        ))]
        self.max_counter("fused_chunks", float(len(units[0][1])))

        def step(eta: float, iteration: int, t_iter: float) -> StepStats:
            return step_units(units, self.backend, coords, eta, iteration,
                              tracer, t_iter)

        self.add_counter("fused_iterations", float(params.iter_max))
        if trace:
            tracer.emit("schedule", t_sched, tracer.now() - t_sched)
        yield Session(step, workers=params.workers)
        self.backend.synchronize()
        mem.stop()
        for key, value in mem.as_counters().items():
            self.max_counter(key, value)
        t_down = tracer.now() if trace else 0.0
        layout.coords = self.backend.to_host(coords)
        layout.data_layout = self.data_layout()
        if trace:
            tracer.emit("transfer", t_down, tracer.now() - t_down)

    # -------------------------------------------------------------- helpers
    def merge_policy(self) -> str:
        """Write-merge policy used for colliding in-batch updates."""
        return self.params.merge_policy

    def data_layout(self) -> NodeDataLayout:
        """Memory organisation this engine declares for node data."""
        return NodeDataLayout.SOA

    def add_counter(self, key: str, value: float) -> None:
        """Accumulate a named counter exposed in the result."""
        self.metrics.counter(key).add(float(value))

    def max_counter(self, key: str, value: float) -> None:
        """Record a high-water counter (max semantics, not accumulation).

        Used for quantities where re-running or nesting must not inflate the
        figure — peak memory, chunk counts — in contrast to the event
        counters :meth:`add_counter` accumulates.
        """
        self.metrics.gauge(key).record_max(float(value))
