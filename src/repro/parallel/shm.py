"""Process-parallel hogwild layout over POSIX shared memory.

This is the *measured* realisation of the race that
:mod:`repro.parallel.hogwild` models and the CPU-baseline engine emulates:
the coordinate array lives in one ``multiprocessing.shared_memory`` segment,
``params.workers`` OS processes each run the fused per-iteration path
(:meth:`~repro.backend.NumpyBackend.run_iteration`) over a disjoint
contiguous slice of the iteration's batch plan
(:func:`~repro.core.fused.slice_plan`), and every worker scatters its merged
deltas straight into the shared buffer — no locks, last-store-wins at the
byte level, exactly the Hogwild! regime of the paper's CPU baseline
(Sec. III-A) and of odgi-layout itself.

Seed / stream contract
----------------------
Worker ``0`` draws from *the same* Xoshiro256+ streams the flat
:class:`~repro.core.cpu_baseline.CpuBaselineEngine` would construct
(``Xoshiro256Plus(params.seed, n_streams)``); workers ``1..W-1`` draw from
``n_streams`` additional streams appended via
:meth:`~repro.prng.xoshiro.Xoshiro256Plus.jump_streams`, seeded with
``derive_seed(params.seed, "shm-workers")``. Consequences, both pinned by
the test-suite:

* ``workers=1`` runs the full plan on the base streams — **byte-identical**
  to the flat engine;
* ``workers=N`` draws are decorrelated across workers and fully determined
  by ``params.seed`` — only the store interleaving is racy, never the
  sampled terms.

Recovery (degrade / restart) mints *additional* streams under
``derive_seed(params.seed, "shm-respawn")`` and
``derive_seed(params.seed, "shm-degrade")`` — never the dead worker's
streams, whose crashed half-iteration consumed an unknowable prefix.

Supervision
-----------
All barriers route through :class:`~repro.parallel.supervise.WorkerSupervisor`
— the parent never calls a bare ``Connection.recv()`` or an untimed
``Process.join()`` (the ROBUST001 contract). A worker that dies or stalls
surfaces as a typed :class:`~repro.parallel.supervise.ParallelRuntimeError`
and is resolved per ``params.on_worker_failure``: ``fail`` raises promptly,
``degrade`` re-slices the dead worker's plan across survivors (workers
accept ``("extend", plan, state)`` messages mid-run for exactly this), and
``restart`` respawns the slot with fresh streams before degrading. The
seeded chaos harness lives in :mod:`repro.parallel.faults`; workers fire
the run's :class:`~repro.parallel.faults.FaultPlan` (engine hook or
``REPRO_FAULTS``) at setup (``iteration=-1``) and at each iteration start.

Shared-memory lifecycle
-----------------------
The parent ``create()``\\ s one segment holding the coordinate array plus the
five :class:`~repro.core.selection.SelectionArrays` (graph data ships once,
via the segment — never pickled per batch); workers ``attach()`` by name and
``close()`` their mapping on exit; the parent alone ``unlink()``\\ s, inside a
``finally`` that also escalates straggler teardown
(``terminate()`` → ``kill()``, counted in ``workers_killed``), so a crashed
run leaves no segment and no process behind. Re-registration of the same
segment by every attaching process is harmless: the resource tracker's
registry is a set, and only the parent ever unregisters it (via ``unlink``).

Workers are long-lived — one process per worker for the whole run, fed one
message per iteration over a pipe — so each worker's PRNG streams advance
across iterations exactly like the flat engine's single generator does.

Tracing
-------
Each worker answers every iteration with ``(terms, collisions, events)``.
On a traced run ``events`` is the list of spans the worker recorded during
that iteration; the parent gives them the engine's labels plus
``worker=<id>``, appends them to that worker's stream and counts them in
``trace_events{worker=<id>}``. Untraced replies carry an empty list. A
worker that dies mid-iteration loses that iteration's spans; survivors,
however much work they adopt, lose none.
"""
from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..backend import NUMPY_BACKEND
from ..core.base import LayoutResult, Session, StepStats, Unit, step_units
from ..core.cpu_baseline import CpuBaselineEngine
from ..core.fused import build_iteration_plans, slice_plan
# initialize_layout is no longer called here (the driver in repro.core.base
# initialises every layout), but perfbench/layers.py patches this name.
from ..core.layout import Layout, initialize_layout  # noqa: F401
from ..core.params import LayoutParams
from ..core.selection import PairSampler, SelectionArrays
from ..core.updates import UpdateWorkspace
from ..obs import clock as obs_clock
from ..obs.tracer import NULL_TRACER, Tracer
from ..prng.splitmix import SplitMix64, derive_seed, expand_streams
from ..prng.xoshiro import Xoshiro256Plus
from .faults import FaultPlan, resolve_fault_plan
from .supervise import DEFAULT_BARRIER_TIMEOUT, DEFAULT_JOIN_TIMEOUT, \
    DEFAULT_READY_TIMEOUT, WorkerSupervisor

__all__ = [
    "SharedArrayBlock",
    "ShmHogwildEngine",
    "budget_share",
    "worker_stream_states",
    "recovery_stream_states",
    "run_workers_inline",
    "resolve_start_method",
]

#: Environment variable selecting the multiprocessing start method
#: (``fork`` / ``spawn`` / ``forkserver``). CI's parallel job sets ``spawn``
#: to exercise the pickling seams; the default prefers ``fork`` where the
#: platform offers it because it skips the interpreter re-import per worker.
START_METHOD_ENV = "REPRO_SHM_START"

_ALIGN = 16

#: Picklable description of one packed array: (key, dtype string, shape,
#: byte offset into the segment).
Manifest = List[Tuple[str, str, Tuple[int, ...], int]]


def resolve_start_method(explicit: Optional[str] = None) -> str:
    """Start method for worker processes: explicit > env > platform default."""
    method = explicit or os.environ.get(START_METHOD_ENV)
    if method:
        if method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {method!r} unavailable on this platform; "
                f"choose from {mp.get_all_start_methods()}")
        return method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class SharedArrayBlock:
    """Named NumPy arrays packed into one shared-memory segment.

    ``create()`` (parent) lays the arrays out back to back, 16-byte aligned,
    and copies them in; ``attach()`` (worker) maps the same segment and
    rebuilds zero-copy views from the picklable :data:`Manifest`. Views are
    plain ``np.ndarray`` objects backed by the mapping, so in-place writes
    (the hogwild scatter) are immediately visible to every process.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: Manifest,
                 owner: bool):
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        self._views: Dict[str, np.ndarray] = {}
        for key, dtype, shape, offset in manifest:
            arr = np.ndarray(shape, dtype=np.dtype(dtype),
                             buffer=shm.buf, offset=offset)
            self._views[key] = arr

    # ----------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayBlock":
        """Allocate a segment sized for ``arrays`` and copy them in."""
        manifest: Manifest = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = -(-offset // _ALIGN) * _ALIGN
            manifest.append((key, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        block = cls(shm, manifest, owner=True)
        for key, arr in arrays.items():
            block._views[key][...] = arr
        return block

    @classmethod
    def attach(cls, name: str, manifest: Manifest) -> "SharedArrayBlock":
        """Map an existing segment by name (worker side)."""
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, manifest, owner=False)

    @property
    def name(self) -> str:
        """OS-level segment name workers attach by."""
        return self._shm.name

    def view(self, key: str) -> np.ndarray:
        """Zero-copy array view into the segment."""
        return self._views[key]

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self._views.clear()
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the OS (parent only, exactly once)."""
        if self._owner:
            self._shm.unlink()
            self._owner = False


def budget_share(memory_budget: Optional[int], workers: int) -> Optional[int]:
    """Per-worker slice of the run's memory budget.

    Workers run concurrently, so their transient footprints add up — each
    worker chunks its sub-plan under ``memory_budget // workers`` so the
    *sum* stays within the run's budget. ``None`` (no budget) passes
    through; the share is floored at one byte, which
    :func:`~repro.core.fused.chunk_spans` degrades to one segment per chunk
    (the footprint floor). Chunking never moves a sampled term, so any
    share keeps worker layouts byte-identical to their unbudgeted runs.
    """
    if memory_budget is None:
        return None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return max(1, int(memory_budget) // int(workers))


def worker_stream_states(base: Xoshiro256Plus, workers: int,
                         seed: int) -> List[np.ndarray]:
    """Per-worker Xoshiro256+ state blocks under the shm seed contract.

    Worker 0 receives ``base``'s streams verbatim (the flat engine's
    generator — this is what makes ``workers=1`` byte-identical); each
    further worker receives ``base.n_streams`` decorrelated streams appended
    via ``jump_streams`` under the stable sub-seed
    ``derive_seed(seed, "shm-workers")``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return [base.state.copy()]
    n = base.n_streams
    extended = base.jump_streams(n * (workers - 1),
                                 seed=derive_seed(seed, "shm-workers"))
    return [extended.state[w * n:(w + 1) * n].copy() for w in range(workers)]


def recovery_stream_states(seed: int, n_streams: int
                           ) -> Callable[[str, int], List[np.ndarray]]:
    """Mint fresh per-worker stream states for supervised recovery.

    Returns the ``fresh_states(kind, n)`` callback
    :class:`~repro.parallel.supervise.WorkerSupervisor` consumes. Each kind
    (``"respawn"`` / ``"degrade"``) holds one persistent SplitMix64
    expansion under a stable sub-seed of the master seed; every call emits
    only the expansion's next tail (:func:`~repro.prng.splitmix.
    expand_streams` — prefix-stable, so the states are exactly the slices a
    single grown :func:`~repro.prng.splitmix.seed_streams` call would
    yield, without re-deriving the prefix per failure). State blocks are
    therefore distinct across *every* call — a respawned worker never
    replays streams any earlier incarnation (or the original cohort)
    consumed.
    """
    gens = {"respawn": SplitMix64(derive_seed(seed, "shm-respawn"), 1),
            "degrade": SplitMix64(derive_seed(seed, "shm-degrade"), 1)}

    def fresh_states(kind: str, n: int) -> List[np.ndarray]:
        block = expand_streams(gens[kind], n * n_streams,
                               Xoshiro256Plus.STATE_WORDS)
        return [block[i * n_streams:(i + 1) * n_streams].copy()
                for i in range(n)]

    return fresh_states


def _selection_arrays_payload(arrays: SelectionArrays) -> Dict[str, np.ndarray]:
    return {f"sel/{field}": np.asarray(getattr(arrays, field))
            for field in SelectionArrays._fields}


def _build_unit(plan: List[int], state: np.ndarray, sampler: PairSampler,
                params: LayoutParams, share: Optional[int], tracer) -> Unit:
    """One execution unit: a generator plus its chunked iteration plans.

    A worker starts with a single unit (its contractual sub-plan) and gains
    one more per ``extend`` message it adopts from a degraded sibling —
    each adopted plan keeps its own streams and its own workspace-sized
    chunking under the same per-worker budget share.
    """
    rng = Xoshiro256Plus(state)
    workspace = UpdateWorkspace(max(plan))
    plans = build_iteration_plans(
        sampler=sampler, workspace=workspace, merge=params.merge_policy,
        plan=plan, n_streams=rng.n_streams, memory_budget=share,
        tracer=tracer)
    return rng, plans


def _worker_main(worker_id: int, shm_name: str, manifest: Manifest,
                 params: LayoutParams, sub_plan: List[int],
                 stream_state: np.ndarray, conn,
                 fault_plan: Optional[FaultPlan] = None) -> None:
    """Worker loop: attach, rebuild the sampler, run fused sub-iterations.

    Runs in a child process (module-level so ``spawn`` can pickle it by
    reference). The graph never crosses the pickle boundary — selection
    arrays are views into the shared segment; only params, the sub-plan and
    a ``(n_streams, 4)`` PRNG state ride along in the spawn args.

    Each ``iter`` message is answered with ``(terms, collisions, events)``:
    ``events`` holds the spans the worker recorded during that iteration
    (empty when the run is untraced). Besides ``iter`` and ``stop``, the
    loop accepts ``("extend", plan, state)`` — a degraded sibling's
    re-sliced share, adopted as an extra execution unit and acknowledged
    with ``("extended", id, n_chunks)``. An injected
    :class:`~repro.parallel.faults.FaultPlan` fires at setup
    (``iteration=-1``) and at the top of each iteration body.
    """
    faults = resolve_fault_plan(fault_plan)
    block = SharedArrayBlock.attach(shm_name, manifest)
    try:
        if faults:
            faults.fire(worker_id, -1)
        coords = block.view("coords")
        arrays = SelectionArrays(
            *(block.view(f"sel/{field}") for field in SelectionArrays._fields))
        sampler = PairSampler.from_arrays(arrays, params)
        # Tracing: the worker records into a plain, label-free list and
        # ships each iteration's spans with that iteration's reply; the
        # parent attaches the labels.
        tracer = Tracer() if params.trace else NULL_TRACER
        trace = tracer.enabled
        # Each worker chunks its plans under its share of the run budget
        # (workers race concurrently, so shares must sum to the budget). The
        # share is derived from params here rather than shipped as an extra
        # spawn arg — every worker computes the same figure.
        share = budget_share(params.memory_budget, params.workers)
        units = [_build_unit(sub_plan, stream_state, sampler, params, share,
                             tracer)]
        conn.send(("ready", worker_id, len(units[0][1])))
        while True:
            msg = conn.recv()  # robust-ok: worker side of the pipe; parent liveness is the supervisor's concern, and a dead parent collapses this daemon anyway
            if msg[0] == "stop":
                break
            if msg[0] == "extend":
                _, extra_plan, extra_state = msg
                units.append(_build_unit(extra_plan, extra_state, sampler,
                                         params, share, tracer))
                conn.send(("extended", worker_id, len(units[-1][1])))
                continue
            _, iteration, eta = msg
            if faults:
                faults.fire(worker_id, iteration)
            t_iter = tracer.now() if trace else 0.0
            stats = step_units(units, NUMPY_BACKEND, coords, eta, iteration,
                               tracer, t_iter)
            if trace:
                tracer.emit("iteration", t_iter, tracer.now() - t_iter,
                            iteration)
            # send() pickles the list before it returns, so emptying it
            # afterwards cannot touch the reply.
            conn.send((stats.terms, stats.collisions, tracer.events))
            if trace:
                tracer.events.clear()
    finally:
        conn.close()
        block.close()


class ShmHogwildEngine(CpuBaselineEngine):
    """Real multi-process hogwild over a shared coordinate buffer.

    Subclasses :class:`CpuBaselineEngine` so the batch plan and the PRNG
    stream count are *exactly* the flat engine's — the parallel engine is a
    partition of the flat engine's work, not a different workload. Its
    :meth:`session` replaces the flat set-up and step: per iteration the
    parent sends the scheduled learning rate to every worker, the workers
    race their fused sub-plans into the shared buffer, and the parent
    collects the per-worker term/collision counts and trace spans.
    Iteration boundaries are synchronised (the eta schedule must advance
    globally); stores within an iteration are not.

    All worker lifecycle — spawn, barriers, failure handling per
    ``params.on_worker_failure``, teardown escalation — is delegated to
    :class:`~repro.parallel.supervise.WorkerSupervisor`. The keyword-only
    constructor knobs (timeouts, restart backoff, ``fault_plan``) exist for
    the chaos suite; production runs take the defaults.

    The workers update the shared mapping in place: it *is* the coordinate
    state.
    """

    name = "shm-hogwild"

    def __init__(self, graph, params: Optional[LayoutParams] = None,
                 hogwild_round: int = 64, start_method: Optional[str] = None,
                 *, fault_plan: Optional[FaultPlan] = None,
                 ready_timeout: float = DEFAULT_READY_TIMEOUT,
                 barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
                 join_timeout: float = DEFAULT_JOIN_TIMEOUT,
                 max_restarts: int = 2,
                 restart_backoff: float = 0.1):
        super().__init__(graph, params, hogwild_round=hogwild_round)
        self.start_method = resolve_start_method(start_method)
        self.fault_plan = fault_plan
        self.ready_timeout = ready_timeout
        self.barrier_timeout = barrier_timeout
        self.join_timeout = join_timeout
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff

    # ------------------------------------------------------------- helpers
    def _worker_plans(self) -> Tuple[List[List[int]], List[np.ndarray]]:
        """Per-worker sub-plans and PRNG states under the seed contract."""
        steps_per_iter = self.params.steps_per_iteration(self.graph.total_steps)
        sub_plans = slice_plan(self.batch_plan(steps_per_iter),
                               self.params.workers)
        states = worker_stream_states(self.make_rng(), len(sub_plans),
                                      self.params.seed)
        return sub_plans, states

    def _worker_setup(self, layout: Layout):
        """Sub-plans, per-worker PRNG states and the shared block for a run."""
        sub_plans, states = self._worker_plans()
        payload = {"coords": layout.coords}
        payload.update(_selection_arrays_payload(self.sampler.arrays))
        block = SharedArrayBlock.create(payload)  # shm-ok: ownership transfers to session(), whose finally unlinks
        return sub_plans, states, block

    def _make_supervisor(self, block: SharedArrayBlock,
                         n_streams: int) -> WorkerSupervisor:
        """The supervised runtime for one run over ``block``."""
        params = self.params
        ctx = mp.get_context(self.start_method)
        # Resolve REPRO_FAULTS in the parent so the plan rides the spawn
        # args — workers see the identical schedule under every start
        # method, and the engine hook still wins over the env.
        fault_plan = resolve_fault_plan(self.fault_plan)

        def spawn(worker_id: int, plan: List[int], state: np.ndarray):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, block.name, block.manifest, params, plan,
                      state, child_conn, fault_plan),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            return proc, parent_conn

        return WorkerSupervisor(
            spawn, policy=params.on_worker_failure,
            fresh_states=recovery_stream_states(params.seed, n_streams),
            ready_timeout=self.ready_timeout,
            barrier_timeout=self.barrier_timeout,
            join_timeout=self.join_timeout,
            max_restarts=self.max_restarts,
            backoff_base=self.restart_backoff,
            tracer=self.tracer)

    # ------------------------------------------------------------- session
    @contextmanager
    def session(self, layout: Layout) -> Iterator[Session]:
        """Spawn the workers over the shared block, step them through the
        supervisor's barriers, then stop them and read the block back."""
        tracer = self.tracer
        trace = tracer.enabled
        params = self.params
        t_setup = obs_clock.perf_counter()
        t_sched = tracer.now() if trace else 0.0
        sub_plans, states, block = self._worker_setup(layout)
        n_workers = len(sub_plans)
        supervisor = self._make_supervisor(block, states[0].shape[0])
        try:
            supervisor.start(sub_plans, states)
            total_chunks = supervisor.await_ready()
            self.max_counter("fused_chunks", float(total_chunks))
            t_ready = obs_clock.perf_counter()
            self.add_counter("parallel_setup_s", t_ready - t_setup)
            if trace:
                tracer.emit("schedule", t_sched, tracer.now() - t_sched,
                            count=n_workers)

            # Workers trace when the params name a trace file. Their spans
            # join one stream per worker slot, labelled with the engine's
            # labels plus the worker's id.
            streams = [[] for _ in range(n_workers)] if params.trace else []
            labels = [dict(tracer.labels, worker=str(w))
                      for w in range(n_workers)]

            def step(eta: float, iteration: int, t_iter: float) -> StepStats:
                supervisor.send_iter(iteration, eta)
                n_terms = 0
                n_collisions = 0
                for w, (terms, collisions, events) in supervisor.collect(
                        iteration):
                    n_terms += terms
                    n_collisions += collisions
                    # Labelled per-worker metrics: the flat counter view
                    # renders these as ``worker_terms{worker=N}``, alongside
                    # the label-free totals the summary() contract pins.
                    self.metrics.counter("worker_terms",
                                         worker=str(w)).add(float(terms))
                    if events:
                        for event in events:
                            event.labels = labels[w]
                        streams[w].extend(events)
                        self.metrics.counter(
                            "trace_events", worker=str(w)).add(
                                float(len(events)))
                # Dispatches per iteration track the *live* decomposition —
                # the figure shrinks and re-grows as degradation re-slices.
                # The parent's iteration span covers the barrier-to-barrier
                # wall time; the workers' own spans arrive with their replies.
                return StepStats(n_terms, n_collisions,
                                 supervisor.total_chunks(),
                                 workers=supervisor.live_count())

            yield Session(step, workers=n_workers, streams=streams)
            self.add_counter("parallel_iterate_s",
                             obs_clock.perf_counter() - t_ready)
            # Graceful stop inside the try: workers must have joined before
            # the raced coordinates are read back (the finally's shutdown()
            # is then an idempotent no-op).
            supervisor.shutdown()
            layout.coords[...] = block.view("coords")
        finally:
            # Idempotent: a no-op after the graceful path, the straggler
            # escalation (terminate -> kill, counted) after a raise.
            supervisor.shutdown()
            block.close()
            block.unlink()
            # Supervision counters land in the finally so a raised run
            # (policy "fail", exhausted recovery) still reports what the
            # supervisor saw — the chaos suite asserts on these after
            # catching the typed error.
            self.add_counter("effective_workers",
                             float(supervisor.live_count()))
            self.add_counter("worker_failures",
                             float(supervisor.worker_failures))
            self.add_counter("worker_restarts",
                             float(supervisor.worker_restarts))
            self.add_counter("workers_killed",
                             float(supervisor.workers_killed))
            if supervisor.degraded:
                self.add_counter("degraded", 1.0)
        self.add_counter("fused_iterations", float(params.iter_max))

    # ------------------------------------------------------------- inline
    def run_inline(self, initial: Optional[Layout] = None) -> LayoutResult:
        """The worker decomposition executed sequentially in-process.

        Runs every worker's fused sub-plan with its contractual PRNG streams,
        workers in index order within each iteration — one *valid*
        serialisation of the hogwild race, with no processes and therefore
        fully deterministic. Property tests quantify the worker
        decomposition against the serial layout through this path without
        inheriting scheduler noise; it is also the natural fallback on
        single-core boxes.
        """
        return _InlineRun(self).run(initial)


class _InlineRun(ShmHogwildEngine):
    """A shm engine's run with its worker units stepped in this process."""

    name = f"{ShmHogwildEngine.name}-inline"

    def __init__(self, engine: ShmHogwildEngine):
        # The run shares the engine's state — graph, sampler, schedule,
        # metrics, tracer, progress hook — and reports into it as run() does.
        vars(self).update(vars(engine))

    @contextmanager
    def session(self, layout: Layout) -> Iterator[Session]:
        """One unit per worker, all stepped in worker order in this process."""
        tracer = self.tracer
        trace = tracer.enabled
        params = self.params
        t_sched = tracer.now() if trace else 0.0
        sub_plans, states = self._worker_plans()
        coords = layout.coords
        # Per-worker tracer views share the parent's event list but carry a
        # ``worker=N`` label — the inline analogue of the process path's
        # per-worker streams, with no merge step needed.
        wtracers = [tracer.bind(worker=str(w)) for w in range(len(sub_plans))]
        # Same decomposition the worker processes build: each worker's
        # sub-plan chunked under its share of the run's memory budget.
        share = budget_share(params.memory_budget, params.workers)
        units = [_build_unit(sub_plan, state, self.sampler, params, share,
                             wtracer)
                 for sub_plan, state, wtracer in zip(sub_plans, states,
                                                     wtracers)]
        total_chunks = sum(len(plans) for _, plans in units)
        self.max_counter("fused_chunks", float(total_chunks))
        if trace:
            tracer.emit("schedule", t_sched, tracer.now() - t_sched,
                        count=len(sub_plans))

        def step(eta: float, iteration: int, t_iter: float) -> StepStats:
            n_terms = 0
            n_collisions = 0
            for unit, wtracer in zip(units, wtracers):
                stats = step_units(
                    [unit], self.backend, coords, eta, iteration, wtracer,
                    wtracer.now() if trace else 0.0)
                n_terms += stats.terms
                n_collisions += stats.collisions
            return StepStats(n_terms, n_collisions, total_chunks,
                             workers=len(units))

        yield Session(step, workers=len(sub_plans))
        self.add_counter("fused_iterations", float(params.iter_max))
        self.add_counter("effective_workers", float(len(sub_plans)))


def run_workers_inline(graph, params: Optional[LayoutParams] = None,
                       hogwild_round: int = 64,
                       initial: Optional[Layout] = None) -> LayoutResult:
    """Deterministic in-process execution of the worker decomposition.

    Convenience wrapper over :meth:`ShmHogwildEngine.run_inline` — see its
    docstring for the interleaving semantics.
    """
    engine = ShmHogwildEngine(graph, params, hogwild_round=hogwild_round)
    return engine.run_inline(initial=initial)
