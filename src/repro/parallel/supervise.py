"""Supervised parallel runtime: liveness-checked barriers, failure policies.

The process-parallel engine (:mod:`repro.parallel.shm`) synchronises its
workers at two barriers — the post-spawn ``ready`` handshake and the
per-iteration result collection. Before this module existed both barriers
were a bare ``Connection.recv()``: a worker that died (OOM kill, a
segfaulting backend, an exception after ``ready``) left the parent blocked
forever, with no exitcode inspection and no recovery path. The supervisor
replaces every blocking wait with a *liveness-checked* wait and turns
worker death into a typed, policy-driven event.

Failure taxonomy
----------------
All supervision failures derive from :class:`ParallelRuntimeError`:

:class:`WorkerCrash`
    The worker *process* died — discovered either by exitcode inspection
    during a wait or by a broken pipe on send. Carries the worker id and
    the OS exitcode (negative = killed by that signal number).
:class:`WorkerStall`
    The worker process is alive but failed to deliver its iteration-barrier
    message within ``barrier_timeout`` seconds. Stalled workers are
    forcibly reaped before any recovery (they still hold a mapping of the
    shared coordinate buffer).
:class:`BarrierTimeout`
    The worker process is alive but never completed the ``ready``
    handshake within ``ready_timeout`` seconds — setup (attach, plan
    build) wedged rather than the iteration loop.

Liveness-checked waits
----------------------
:meth:`WorkerSupervisor._wait` polls the worker's pipe in short ticks
(:data:`POLL_TICK`) against a monotonic deadline; every tick doubles as a
heartbeat — ``Process.is_alive()`` plus exitcode inspection — so a crash
is detected within one tick even when the deadline is generous. Deadlines
only bound *stalls*: a healthy slow iteration never trips anything, and a
dead worker never costs more than one tick.

Failure policies (``LayoutParams.on_worker_failure``)
-----------------------------------------------------
``fail``
    Raise the typed error promptly. The run never hangs and never
    silently produces a layout missing a worker's contribution.
``degrade``
    Re-slice the dead worker's remaining sub-plan across the survivors
    (:func:`repro.core.fused.slice_plan` — the same machinery that built
    the original decomposition) and continue with fewer processes. The
    result is flagged ``degraded`` and ``effective_workers`` reflects the
    survivor count. The failed iteration's contribution from the dead
    worker is lost; coverage is restored from the next iteration on.
``restart``
    Respawn the worker over the same shared segment with *fresh* PRNG
    streams, SplitMix64-seeded under ``derive_seed(seed, "shm-respawn")``
    (reusing the dead worker's streams could replay draws its crashed
    half-iteration already consumed), waiting ``backoff_base * 2^k``
    (capped) between attempts.
    After ``max_restarts`` failed respawns the worker degrades as above.

Recovery always runs at an iteration barrier: a failure discovered during
the ``iter`` broadcast is deferred until that iteration's results are
collected (the survivors' pipes carry in-flight results that recovery
must not interleave with), and a worker respawned at the barrier idles
until the next ``iter`` message. The failed iteration's contribution from
the dead worker is lost under both recovery policies.

Determinism caveats: multi-worker layouts were never byte-reproducible
(the store race), and recovery adds to that — degraded/restarted runs draw
the recovered plan's terms from recovery streams, not the dead worker's.
What *is* deterministic: which terms each surviving decomposition samples
given the same seed and the same failure point, which is what the seeded
fault-injection harness (:mod:`repro.parallel.faults`) exploits in tests.

The ROBUST001 contract (enforced by ``repro analyze``): code under
``parallel/`` may not call a bare ``Connection.recv()`` or an untimed
``Process.join()`` — every barrier wait routes through this module, whose
own internal reads are poll-guarded and pragma-documented.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import clock as obs_clock
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ParallelRuntimeError",
    "WorkerCrash",
    "WorkerStall",
    "BarrierTimeout",
    "WorkerHandle",
    "WorkerSupervisor",
    "POLL_TICK",
    "DEFAULT_READY_TIMEOUT",
    "DEFAULT_BARRIER_TIMEOUT",
    "DEFAULT_JOIN_TIMEOUT",
]

#: Seconds per liveness tick: the pipe is polled and the worker's process
#: state inspected at this cadence, so a crash is detected within one tick
#: regardless of how generous the enclosing deadline is.
POLL_TICK = 0.05

#: Default deadline for the post-spawn ``ready`` handshake (covers
#: interpreter start under ``spawn`` plus plan construction).
DEFAULT_READY_TIMEOUT = 120.0

#: Default deadline for one iteration barrier. Deliberately generous —
#: it only bounds *stalls*; crashes are caught within one poll tick.
DEFAULT_BARRIER_TIMEOUT = 900.0

#: Default graceful-join deadline at shutdown, after which teardown
#: escalates terminate() -> kill().
DEFAULT_JOIN_TIMEOUT = 5.0


class ParallelRuntimeError(RuntimeError):
    """Base class for supervised parallel-runtime failures."""

    def __init__(self, message: str, worker_id: Optional[int] = None,
                 exitcode: Optional[int] = None):
        super().__init__(message)
        self.worker_id = worker_id
        self.exitcode = exitcode


class WorkerCrash(ParallelRuntimeError):
    """A worker process died (nonzero exit, signal, or broken pipe)."""


class WorkerStall(ParallelRuntimeError):
    """A live worker missed the iteration-barrier deadline."""


class BarrierTimeout(ParallelRuntimeError):
    """A live worker never completed the ready handshake in time."""


@dataclass
class WorkerHandle:
    """Supervisor-side state for one worker slot.

    ``worker_id`` is the stable slot index (trace streams, labels and
    respawns all key on it); ``proc``/``conn`` are replaced on respawn. ``plans`` is
    every sub-plan the slot is responsible for — its original slice plus
    any slices adopted from degraded siblings — which is what gets
    redistributed if this worker dies in turn.
    """

    worker_id: int
    proc: Any
    conn: Any
    plans: List[List[int]]
    chunks: int = 0
    restarts: int = 0
    dead: bool = False
    failure: Optional[ParallelRuntimeError] = field(default=None, repr=False)

    def flat_plan(self) -> List[int]:
        """Every batch segment this slot currently owns, in plan order."""
        return [seg for plan in self.plans for seg in plan]


#: Engine-supplied callback spawning one worker process:
#: ``spawn(worker_id, sub_plan, stream_state) -> (process, parent_conn)``.
SpawnFn = Callable[[int, List[int], np.ndarray], Tuple[Any, Any]]

#: Engine-supplied callback minting fresh decorrelated PRNG stream states
#: for recovery: ``fresh_states(kind, n) -> [state, ...]`` with ``kind``
#: one of ``"respawn"`` / ``"degrade"``. Every call must return states
#: disjoint from all previously issued ones.
FreshStatesFn = Callable[[str, int], List[np.ndarray]]

#: Worker-failure policies accepted by the supervisor (and by
#: ``LayoutParams.on_worker_failure``).
FAILURE_POLICIES = ("fail", "degrade", "restart")


class WorkerSupervisor:
    """Owns the worker processes of one shm run: spawn, barriers, teardown.

    The engine drives it through five calls — :meth:`start`,
    :meth:`await_ready`, :meth:`send_iter`, :meth:`collect`,
    :meth:`shutdown` — and never touches a pipe or a process directly.
    Failures discovered at any barrier are resolved according to
    ``policy`` before the call returns; counters
    (:attr:`worker_failures`, :attr:`worker_restarts`,
    :attr:`workers_killed`, :attr:`degraded`) accumulate for the engine's
    result summary.

    ``sleep`` is injectable so tests exercise the restart backoff without
    real delays.
    """

    def __init__(self, spawn: SpawnFn, policy: str = "fail", *,
                 fresh_states: Optional[FreshStatesFn] = None,
                 ready_timeout: float = DEFAULT_READY_TIMEOUT,
                 barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
                 join_timeout: float = DEFAULT_JOIN_TIMEOUT,
                 max_restarts: int = 2,
                 backoff_base: float = 0.1,
                 backoff_cap: float = 2.0,
                 tracer: Tracer = NULL_TRACER,
                 sleep: Callable[[float], None] = time.sleep):
        if policy not in FAILURE_POLICIES:
            raise ValueError(
                f"on_worker_failure must be one of {FAILURE_POLICIES}, "
                f"got {policy!r}")
        if policy != "fail" and fresh_states is None:
            raise ValueError(
                f"policy {policy!r} needs a fresh_states callback to mint "
                "recovery PRNG streams")
        self.spawn = spawn
        self.policy = policy
        self.fresh_states = fresh_states
        self.ready_timeout = float(ready_timeout)
        self.barrier_timeout = float(barrier_timeout)
        self.join_timeout = float(join_timeout)
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.tracer = tracer
        self._sleep = sleep
        self.handles: List[WorkerHandle] = []
        #: Failures discovered while an iteration is in flight (broken pipe
        #: during the ``iter`` broadcast). Recovery over the survivors'
        #: pipes must wait until their iteration results are drained, so
        #: these handles are resolved at the end of the next collect().
        self._pending_recovery: List[WorkerHandle] = []
        self.worker_failures = 0
        self.worker_restarts = 0
        self.workers_killed = 0
        self.degraded = False
        self._shut_down = False

    # ------------------------------------------------------------ queries
    def live(self) -> List[WorkerHandle]:
        """Handles still participating in barriers."""
        return [h for h in self.handles if not h.dead]

    def live_count(self) -> int:
        return len(self.live())

    def total_chunks(self) -> int:
        """Fused chunk dispatches per iteration across live workers."""
        return sum(h.chunks for h in self.live())

    # ------------------------------------------------------------- spawn
    def start(self, sub_plans: Sequence[List[int]],
              states: Sequence[np.ndarray]) -> None:
        """Spawn one worker per sub-plan (no waiting — see await_ready)."""
        for w, (sub_plan, state) in enumerate(zip(sub_plans, states)):
            proc, conn = self.spawn(w, list(sub_plan), state)
            self.handles.append(
                WorkerHandle(worker_id=w, proc=proc, conn=conn,
                             plans=[list(sub_plan)]))

    # ----------------------------------------------------- liveness waits
    def _wait(self, handle: WorkerHandle, timeout: float, phase: str):
        """One liveness-checked message wait; raises the typed failure.

        Polls in :data:`POLL_TICK` slices against a monotonic deadline;
        every slice inspects the process (the heartbeat), so worker death
        surfaces as :class:`WorkerCrash` within one tick while the
        deadline itself only bounds stalls.
        """
        deadline = obs_clock.monotonic() + timeout
        while True:
            remaining = deadline - obs_clock.monotonic()
            if remaining <= 0.0:
                exc_type = (BarrierTimeout if phase == "ready"
                            else WorkerStall)
                raise exc_type(
                    f"worker {handle.worker_id} sent nothing for "
                    f"{timeout:.1f}s at the {phase} barrier and is still "
                    "alive (stall); it will be reaped",
                    worker_id=handle.worker_id)
            try:
                if handle.conn.poll(min(POLL_TICK, remaining)):
                    # robust-ok: poll() above guarantees this recv never blocks; this loop IS the supervisor seam
                    return handle.conn.recv()
            except (EOFError, OSError):
                raise self._crash(handle, phase) from None
            if not handle.proc.is_alive():
                # Drain a final message that raced the exit (a worker may
                # deliver its result and die before the next barrier).
                try:
                    if handle.conn.poll(0):
                        # robust-ok: poll() above guarantees this recv never blocks (post-mortem drain)
                        return handle.conn.recv()
                except (EOFError, OSError):
                    pass
                raise self._crash(handle, phase)

    def _crash(self, handle: WorkerHandle, phase: str) -> WorkerCrash:
        handle.proc.join(timeout=self.join_timeout)
        exitcode = handle.proc.exitcode
        return WorkerCrash(
            f"worker {handle.worker_id} died at the {phase} barrier "
            f"(exitcode {exitcode})",
            worker_id=handle.worker_id, exitcode=exitcode)

    # ----------------------------------------------------------- barriers
    def _expect_ready(self, handle: WorkerHandle) -> None:
        msg = self._wait(handle, self.ready_timeout, "ready")
        if not (isinstance(msg, tuple) and len(msg) == 3
                and msg[0] == "ready"):
            raise ParallelRuntimeError(
                f"worker {handle.worker_id} broke the ready protocol: "
                f"expected ('ready', id, chunks), got {msg!r}",
                worker_id=handle.worker_id)
        handle.chunks = int(msg[2])

    def await_ready(self) -> int:
        """Complete the ready handshake for every worker; apply policy.

        Returns the total fused-chunk count across live workers.
        """
        failed: List[WorkerHandle] = []
        for handle in list(self.handles):
            try:
                self._expect_ready(handle)
            except ParallelRuntimeError as exc:
                self._note_failure(handle, exc)
                failed.append(handle)
        self._recover(failed, iteration=-1)
        return self.total_chunks()

    def send_iter(self, iteration: int, eta: float) -> None:
        """Broadcast one iteration message; broken pipes become failures.

        A failure detected here is *deferred*: every survivor has already
        received its ``iter`` message and will deliver a result next, so
        recovering now would interleave the ``extend`` exchange (or a
        respawn's missing ``iter``) with in-flight results — degrade would
        misread a survivor's result as a broken ack and cascade. The dead
        handle is reaped immediately but its plan is recovered at the end
        of this iteration's collect(), once the survivors' pipes are quiet.
        """
        failed: List[WorkerHandle] = []
        for handle in self.live():
            try:
                handle.conn.send(("iter", iteration, eta))
            except (BrokenPipeError, OSError):
                exc = self._crash(handle, f"send(iter {iteration})")
                self._note_failure(handle, exc)
                failed.append(handle)
        self._pending_recovery.extend(failed)

    def collect(self, iteration: int) -> List[Tuple[int, Tuple]]:
        """Gather one iteration's results from every live worker.

        Returns ``[(worker_id, result), ...]`` for the workers that
        delivered; failures — both those stashed by send_iter and those
        discovered mid-barrier here — are recovered *after* the surviving
        results are in (recovery talks over the same pipes, so it must not
        interleave with in-flight result messages; a worker respawned here
        idles until the next send_iter rather than blocking a barrier).
        """
        results: List[Tuple[int, Tuple]] = []
        failed: List[WorkerHandle] = list(self._pending_recovery)
        self._pending_recovery = []
        for handle in self.live():
            try:
                results.append(
                    (handle.worker_id,
                     self._wait(handle, self.barrier_timeout,
                                f"iteration {iteration}")))
            except ParallelRuntimeError as exc:
                self._note_failure(handle, exc)
                failed.append(handle)
        self._recover(failed, iteration)
        return results

    # ----------------------------------------------------------- recovery
    def _note_failure(self, handle: WorkerHandle, exc: ParallelRuntimeError
                      ) -> None:
        """Mark a worker dead and reap its process (stalls still run!)."""
        handle.dead = True
        handle.failure = exc
        self.worker_failures += 1
        # A stalled worker still holds a mapping of the shared coordinate
        # buffer and may still be scattering into it — force it out before
        # any recovery re-covers its plan.
        self._reap(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        if self.policy == "fail":
            raise exc

    def _reap(self, handle: WorkerHandle) -> None:
        """Terminate, then kill: no worker outlives its failure handling."""
        proc = handle.proc
        if not proc.is_alive():
            proc.join(timeout=self.join_timeout)
            return
        proc.terminate()
        proc.join(timeout=self.join_timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=self.join_timeout)
            self.workers_killed += 1

    def _recover(self, failed: List[WorkerHandle], iteration: int) -> None:
        """Resolve a barrier's failures per policy (restart, then degrade)."""
        if not failed:
            return
        trace = self.tracer.enabled
        t0 = self.tracer.now() if trace else 0.0
        for handle in failed:
            restarted = False
            if self.policy == "restart":
                restarted = self._try_restart(handle)
            if not restarted:
                self._degrade(handle)
        if self.live_count() == 0:
            raise ParallelRuntimeError(
                "all workers failed; nothing left to degrade onto "
                f"(last failure: {failed[-1].failure})",
                worker_id=failed[-1].worker_id,
                exitcode=failed[-1].failure.exitcode
                if failed[-1].failure else None)
        if trace:
            self.tracer.emit("recovery", t0, self.tracer.now() - t0,
                             iteration, count=len(failed))

    def _try_restart(self, handle: WorkerHandle) -> bool:
        """Respawn a dead worker's slot; True once it is ready again.

        Fresh seeded streams per attempt (never the dead worker's — its
        crashed half-iteration already consumed an unknowable prefix of
        them), capped exponential backoff between attempts, and a fall
        back to degradation after ``max_restarts`` failures.
        """
        plan = handle.flat_plan()
        while handle.restarts < self.max_restarts:
            self._sleep(min(self.backoff_base * (2 ** handle.restarts),
                            self.backoff_cap))
            handle.restarts += 1
            self.worker_restarts += 1
            (state,) = self.fresh_states("respawn", 1)
            proc, conn = self.spawn(handle.worker_id, plan, state)
            handle.proc, handle.conn = proc, conn
            try:
                self._expect_ready(handle)
            except ParallelRuntimeError as exc:
                handle.failure = exc
                self.worker_failures += 1
                self._reap(handle)
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            handle.dead = False
            handle.plans = [plan]
            return True
        return False

    def _degrade(self, handle: WorkerHandle) -> None:
        """Re-slice a dead worker's plan across the survivors."""
        from ..core.fused import slice_plan

        self.degraded = True
        survivors = self.live()
        plan = handle.flat_plan()
        handle.plans = []
        handle.chunks = 0
        if not survivors or not plan:
            return
        extras = slice_plan(plan, len(survivors))
        states = self.fresh_states("degrade", len(extras))
        still_failed: List[WorkerHandle] = []
        for survivor, extra, state in zip(survivors, extras, states):
            try:
                survivor.conn.send(("extend", extra, state))
                ack = self._wait(survivor, self.ready_timeout, "ready")
            except ParallelRuntimeError as exc:
                self._note_failure(survivor, exc)
                still_failed.append(survivor)
                continue
            if not (isinstance(ack, tuple) and len(ack) == 3
                    and ack[0] == "extended"):
                exc = ParallelRuntimeError(
                    f"worker {survivor.worker_id} broke the extend "
                    f"protocol: expected ('extended', id, chunks), "
                    f"got {ack!r}", worker_id=survivor.worker_id)
                self._note_failure(survivor, exc)
                still_failed.append(survivor)
                continue
            survivor.plans.append(list(extra))
            survivor.chunks += int(ack[2])
        # A survivor that died while adopting work cascades: its plan
        # (original + adopted) re-slices across whoever is left.
        for casualty in still_failed:
            self._degrade(casualty)

    # ----------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Stop workers and escalate on stragglers; idempotent.

        Live workers get a graceful ``stop`` plus a ``join_timeout`` join;
        whoever survives that is ``terminate()``d and re-joined, and
        whoever survives *that* is ``kill()``ed and joined again, counted
        in :attr:`workers_killed` — a terminate-resistant worker must
        never outlive the run.
        """
        if self._shut_down:
            return
        self._shut_down = True
        for handle in self.live():
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self.live():
            handle.proc.join(timeout=self.join_timeout)
        for handle in self.handles:
            proc = handle.proc
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self.join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self.join_timeout)
                self.workers_killed += 1
            try:
                handle.conn.close()
            except OSError:
                pass
