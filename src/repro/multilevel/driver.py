"""V-cycle multilevel layout driver.

``MultilevelDriver`` composes the coarsener, any flat layout engine and the
prolongation operator into a coarse-to-fine optimisation: build the chain-
contraction hierarchy, lay out the coarsest graph first (where each
iteration costs a fraction of a fine-level one because N_steps scales with
Σ|p|), then repeatedly lift the result one level down and continue
optimising. The levels share **one** global ``make_schedule`` annealing
sweep, computed over the finest graph and sliced contiguously across the
hierarchy — the coarsest level takes the hot ``η_max`` iterations (cheap
untangling), the finest the cool refinement tail. Re-annealing each level
from ``η_max`` would destroy the structure prolongation just inherited;
slicing is what makes the V-cycle strictly cheaper than a flat run at equal
quality. Contraction preserves nucleotide distances, so the fine schedule's
``d_min``/``d_max`` bounds describe every level's coordinate system.

Determinism contract: the hierarchy is a pure function of the input graph;
per-level engine seeds and prolongation jitter derive from the master
``params.seed`` via SplitMix64 with stable string labels; and a driver whose
hierarchy is flat (``levels=1``, or a graph that does not contract) delegates
to the wrapped engine untouched — byte-identical to a flat run.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.base import IterationRecord, LayoutResult, ProgressCallback
from ..core.layout import Layout
from ..core.params import LayoutParams
from ..graph.lean import LeanGraph
from ..obs import clock as obs_clock
from ..obs.metrics import MetricsRegistry
from ..obs.trace_file import write_trace
from ..obs.tracer import NULL_TRACER, Tracer
from ..prng.splitmix import derive_seed
from .coarsen import Hierarchy, build_hierarchy
from .prolong import prolongate, restrict

__all__ = ["MultilevelDriver", "split_iterations"]

#: Magnitude of the symmetry-breaking prolongation jitter, matching the
#: Gaussian y-jitter scale of ``initialize_layout`` (nucleotide units).
_PROLONG_JITTER = 1.0

#: Level-engine counters the hierarchy reports as sums over its levels.
_SUMMED_COUNTERS = ("update_dispatches", "fused_iterations",
                    "point_collisions")
#: Level-engine counters the hierarchy reports as the maximum over levels.
_PEAK_COUNTERS = ("peak_rss_bytes", "traced_peak_bytes", "fused_chunks")


def split_iterations(total: int, depth: int, split: float) -> List[int]:
    """Split ``total`` iterations across ``depth`` levels, finest first.

    At every level boundary the coarser part of the hierarchy collectively
    receives a ``split`` fraction of the remaining budget (rounded), the
    current level the rest; every level gets at least one iteration, so for
    ``total < depth`` the overall budget grows to ``depth``.
    """
    if total < 1:
        raise ValueError("total iterations must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie strictly between 0 and 1")
    out: List[int] = []
    budget = total
    for index in range(depth - 1):
        coarser_levels = depth - 1 - index
        coarser = min(max(int(round(budget * split)), coarser_levels),
                      max(budget - 1, coarser_levels))
        out.append(max(budget - coarser, 1))
        budget = coarser
    out.append(max(budget, 1))
    return out


def _offset_progress(callback: ProgressCallback, offset: int,
                     grand_total: int, level: int) -> ProgressCallback:
    """Wrap a progress hook to report hierarchy-global completion counts."""
    def hook(completed: int, total: int, stats) -> None:
        callback(offset + completed, grand_total, dict(stats, level=level))
    return hook


class MultilevelDriver:
    """Coarse-to-fine layout over a chain-contraction hierarchy.

    Exposes the same ``run(initial=None) -> LayoutResult`` surface as the
    flat :class:`~repro.core.base.LayoutEngine` family and works with every
    registered engine kind, backend and merge policy — the per-level engines
    are constructed through :func:`repro.core.api.make_engine` from the
    driver's own params. ``params.fused`` rides along unchanged, so every
    level of the V-cycle takes the fused per-iteration path under the same
    auto/force rules as a flat run (byte-identical layouts on NumPy either
    way, fused or not).
    """

    name = "multilevel"

    def __init__(
        self,
        graph: LeanGraph,
        params: Optional[LayoutParams] = None,
        engine: str = "cpu",
        gpu_config=None,
    ):
        self.graph = graph
        self.params = params if params is not None else LayoutParams()
        self.engine_kind = engine
        self.gpu_config = gpu_config
        self.hierarchy: Hierarchy = build_hierarchy(
            graph, self.params.levels, self.params.coarsen_min_nodes)
        # Observability (repro.obs): one tracer and one metrics registry for
        # the whole V-cycle — level engines get ``level=k``-labelled views
        # of the driver's tracer, so every level's spans land in a single
        # ordered stream and the driver alone writes the trace file.
        self.tracer: Tracer = (Tracer(labels={"engine": self.name})
                               if self.params.trace else NULL_TRACER)
        self.metrics = MetricsRegistry(labels={"engine": self.name})
        self.on_progress: Optional[ProgressCallback] = None

    # -------------------------------------------------------------- helpers
    def _make_level_engine(self, level_graph: LeanGraph, level: int,
                           eta_slice: np.ndarray):
        from ..core.api import make_engine  # runtime import: core must not
        # import multilevel at module scope, so the dependency points one way.

        level_params = self.params.with_(
            iter_max=int(eta_slice.size),
            seed=derive_seed(self.params.seed, f"multilevel/level{level}"),
            # The driver owns the run's one trace file; a level engine must
            # never write its own. Its spans still flow into the shared
            # stream through the bound tracer installed below.
            trace=None,
        )
        engine = make_engine(level_graph, self.engine_kind, level_params,
                             self.gpu_config)
        # The engine computed a full annealing sweep for its own graph;
        # replace it with this level's slice of the shared global schedule.
        engine.schedule = np.asarray(eta_slice, dtype=np.float64)
        engine.tracer = self.tracer.bind(level=str(level))
        return engine

    def level_iterations(self) -> List[int]:
        """Per-level iteration budget (finest first) for this hierarchy."""
        return split_iterations(self.params.iter_max, self.hierarchy.depth,
                                self.params.level_iter_split)

    def level_schedules(self) -> List[np.ndarray]:
        """Per-level η slices (finest first) of the global annealing sweep.

        The global schedule is ``make_schedule`` over the finest graph with
        the summed per-level budget; the coarsest level owns its leading
        (hottest) slice and the finest level the trailing (coolest) one.
        """
        from ..core.schedule import make_schedule

        iters = self.level_iterations()
        schedule = make_schedule(self.graph,
                                 self.params.with_(iter_max=sum(iters)))
        slices: List[np.ndarray] = []
        consumed = 0
        for level_iters in reversed(iters):  # coarsest first
            slices.append(schedule[consumed:consumed + level_iters])
            consumed += level_iters
        slices.reverse()  # finest first, aligned with level_iterations()
        return slices

    # ------------------------------------------------------------------ run
    def run(self, initial: Optional[Layout] = None) -> LayoutResult:
        """Execute the V-cycle and return the finest-level result."""
        from ..core.api import make_engine

        hierarchy = self.hierarchy
        if hierarchy.depth == 1:
            # Flat hierarchy: delegate untouched (the levels=1 byte-identity
            # contract — same engine, same params, same seed, same draws).
            # The engine owns the trace file here: params.trace passes
            # through, so the delegation is observably a flat run too.
            return make_engine(self.graph, self.engine_kind, self.params,
                               self.gpu_config,
                               on_progress=self.on_progress).run(initial)

        t_start = obs_clock.perf_counter()
        tracer = self.tracer
        trace = tracer.enabled
        schedules = self.level_schedules()
        # Restrict an explicit initial layout down to the coarsest level;
        # with the default initialisation every level seeds itself.
        level_initial: Optional[Layout] = initial
        restricted: List[Optional[Layout]] = [level_initial]
        if initial is not None:
            for lv in hierarchy.levels:
                level_initial = restrict(level_initial, lv)
                restricted.append(level_initial)
        else:
            restricted.extend([None] * len(hierarchy.levels))

        history: List[IterationRecord] = []
        self.metrics.gauge("multilevel_depth").set(float(hierarchy.depth))
        total_terms = 0
        total_iterations = 0
        # Global progress: level runs report completed iterations offset by
        # the levels already finished, against the hierarchy-wide total —
        # one monotonic 1..grand_total sweep, coarsest level first.
        grand_total = sum(self.level_iterations())
        current: Optional[Layout] = restricted[-1]
        for level in range(hierarchy.depth - 1, -1, -1):
            engine = self._make_level_engine(hierarchy.graphs[level], level,
                                             schedules[level])
            if self.on_progress is not None:
                engine.on_progress = _offset_progress(
                    self.on_progress, total_iterations, grand_total, level)
            t_level = tracer.now() if trace else 0.0
            result = engine.run(initial=current)
            if trace:
                tracer.emit("level", t_level, tracer.now() - t_level,
                            count=result.iterations)
            total_terms += result.total_terms
            for record in result.history:
                history.append(IterationRecord(
                    iteration=total_iterations + record.iteration,
                    eta=record.eta,
                    sampled_stress=record.sampled_stress,
                    n_terms=record.n_terms,
                    n_collisions=record.n_collisions,
                ))
            total_iterations += result.iterations
            # Per-level figures as labelled gauges: one metric name per
            # quantity, the level in the label (``level_nodes{level=k}``).
            lvl = str(level)
            self.metrics.gauge("level_nodes", level=lvl).set(
                float(hierarchy.graphs[level].n_nodes))
            self.metrics.gauge("level_terms", level=lvl).set(
                float(result.total_terms))
            self.metrics.gauge("level_iterations", level=lvl).set(
                float(result.iterations))
            # Event counters add up over the levels; high-water counters
            # carry max semantics: the hierarchy's peak is its worst level.
            for key in _SUMMED_COUNTERS:
                self.metrics.counter(key).add(result.counters.get(key, 0.0))
            for key in _PEAK_COUNTERS:
                if key in result.counters:
                    self.metrics.gauge(key).record_max(result.counters[key])
            current = result.layout
            if level > 0:
                t_pro = tracer.now() if trace else 0.0
                current = prolongate(
                    current,
                    hierarchy.levels[level - 1],
                    jitter=_PROLONG_JITTER,
                    seed=derive_seed(self.params.seed,
                                     f"multilevel/prolong{level - 1}"),
                    data_layout=current.data_layout,
                )
                if trace:
                    tracer.bind(level=str(level - 1)).emit(
                        "prolong", t_pro, tracer.now() - t_pro)
        if self.params.trace:
            write_trace(self.params.trace, tracer.events, meta={
                "engine": f"{self.name}[{self.engine_kind}]",
                "iterations": total_iterations,
                "levels": hierarchy.depth,
            })
        return LayoutResult(
            layout=current,
            params=self.params,
            engine=f"{self.name}[{self.engine_kind}]",
            iterations=total_iterations,
            total_terms=total_terms,
            history=history,
            counters=self.metrics.counter_values(),
            wall_time_s=obs_clock.perf_counter() - t_start,
            metrics=self.metrics.snapshot(),
        )
