"""Chaos suite for the supervised parallel runtime (PR 10).

Every test injures *real* worker processes at seeded ``(worker, iteration)``
points via :mod:`repro.parallel.faults` and asserts the supervisor resolves
the failure per policy — promptly (a hard SIGALRM deadline wraps every
test: the one behaviour this suite exists to kill is the hang), with the
documented counters, and without leaking a single shared-memory segment.
"""
from __future__ import annotations

import multiprocessing as mp
import os
import signal
from collections import deque

import numpy as np
import pytest

from repro.core import CpuBaselineEngine, layout_graph
from repro.obs.trace_file import read_trace
from repro.parallel.faults import (
    CRASH_EXITCODE,
    FaultPlan,
    FaultSpec,
    resolve_fault_plan,
)
from repro.parallel.shm import ShmHogwildEngine, recovery_stream_states, \
    worker_stream_states
from repro.parallel.supervise import (
    BarrierTimeout,
    ParallelRuntimeError,
    WorkerCrash,
    WorkerStall,
    WorkerSupervisor,
)
from repro.prng.splitmix import derive_seed, seed_streams
from repro.prng.xoshiro import Xoshiro256Plus

#: Outer bound on any single chaos test. Generous relative to the engine
#: timeouts below; its only job is to turn "the runtime hung" into a crisp
#: TimeoutError instead of a stuck CI job.
HARD_DEADLINE_S = 120

START_METHODS = [m for m in ("fork", "spawn")
                 if m in mp.get_all_start_methods()]


@pytest.fixture(autouse=True)
def hard_deadline():
    """Fail loudly if a chaos path hangs instead of resolving."""

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded the {HARD_DEADLINE_S}s hard deadline — "
            "the supervised runtime hung")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm")
            if name.startswith(("psm_", "wnsm_"))}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every chaos run must unlink its segment, however it exits."""
    before = _segments()
    yield
    assert _segments() - before == set()


def _engine(graph, params, **kwargs):
    kwargs.setdefault("restart_backoff", 0.01)
    return ShmHogwildEngine(graph, params, **kwargs)


def _chaos_params(fast_params, policy, workers=3, iter_max=4):
    return fast_params.with_(backend="numpy", workers=workers,
                             iter_max=iter_max, on_worker_failure=policy)


class TestFailPolicy:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_crash_raises_typed_error_promptly(self, small_synthetic,
                                               fast_params, start_method):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail"),
                         fault_plan=FaultPlan.of(FaultSpec("crash", 1, 1)),
                         start_method=start_method)
        with pytest.raises(WorkerCrash) as exc_info:
            engine.run()
        assert exc_info.value.worker_id == 1
        assert exc_info.value.exitcode == CRASH_EXITCODE
        # The raised run still reports what the supervisor saw.
        counters = engine.metrics.counter_values()
        assert counters["worker_failures"] == 1.0
        assert counters["effective_workers"] == 2.0

    def test_exception_fault_surfaces_as_crash(self, small_synthetic,
                                               fast_params):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail"),
                         fault_plan=FaultPlan.of(
                             FaultSpec("exception", 0, 0)))
        with pytest.raises(WorkerCrash) as exc_info:
            engine.run()
        assert exc_info.value.worker_id == 0
        assert exc_info.value.exitcode not in (0, None)

    def test_stall_raises_within_deadline(self, small_synthetic, fast_params):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail", workers=2),
                         fault_plan=FaultPlan.of(FaultSpec("stall", 1, 1)),
                         barrier_timeout=1.0)
        with pytest.raises(WorkerStall) as exc_info:
            engine.run()
        assert exc_info.value.worker_id == 1

    def test_setup_stall_raises_barrier_timeout(self, small_synthetic,
                                                fast_params):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail", workers=2),
                         fault_plan=FaultPlan.of(FaultSpec("stall", 0, -1)),
                         ready_timeout=1.0)
        with pytest.raises(BarrierTimeout):
            engine.run()

    def test_terminate_resistant_worker_is_killed(self, small_synthetic,
                                                  fast_params):
        # The hang fault ignores SIGTERM, so reaping must escalate to
        # kill() — the teardown-escalation satellite, counted.
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail", workers=2),
                         fault_plan=FaultPlan.of(FaultSpec("hang", 0, 1)),
                         barrier_timeout=1.0, join_timeout=0.5)
        with pytest.raises(WorkerStall):
            engine.run()
        assert engine.metrics.counter_values()["workers_killed"] >= 1.0


class TestDegradePolicy:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_crash_degrades_onto_survivors(self, small_synthetic,
                                           fast_params, start_method):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "degrade"),
                         fault_plan=FaultPlan.of(FaultSpec("crash", 1, 1)),
                         start_method=start_method)
        result = engine.run()
        summary = result.summary()
        assert summary["effective_workers"] == 2
        assert summary["degraded"] is True
        assert summary["worker_failures"] == 1
        assert summary["worker_restarts"] == 0
        assert np.isfinite(result.layout.coords).all()

    def test_stalled_worker_is_reaped_then_degraded(self, small_synthetic,
                                                    fast_params):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "degrade"),
                         fault_plan=FaultPlan.of(FaultSpec("stall", 2, 1)),
                         barrier_timeout=1.0)
        result = engine.run()
        summary = result.summary()
        assert summary["effective_workers"] == 2
        assert summary["degraded"] is True

    def test_two_crashes_leave_one_survivor(self, small_synthetic,
                                            fast_params):
        plan = FaultPlan.of(FaultSpec("crash", 0, 1), FaultSpec("crash", 2, 2))
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "degrade"),
                         fault_plan=plan)
        result = engine.run()
        summary = result.summary()
        assert summary["effective_workers"] == 1
        assert summary["worker_failures"] == 2
        assert np.isfinite(result.layout.coords).all()

    def test_all_workers_dead_still_raises(self, small_synthetic,
                                           fast_params):
        # Degradation needs a survivor; total loss must raise, not hang
        # and not return a half-finished layout as success.
        plan = FaultPlan.of(FaultSpec("crash", 0, 1), FaultSpec("crash", 1, 1))
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "degrade", workers=2),
                         fault_plan=plan)
        with pytest.raises(ParallelRuntimeError):
            engine.run()

    def test_degraded_run_total_terms_reasonable(self, small_synthetic,
                                                 fast_params):
        # The dead worker's share is lost for its failure iteration only;
        # every other (iteration, slice) cell is covered.
        params = _chaos_params(fast_params, "degrade")
        healthy = _engine(small_synthetic, params).run()
        degraded = _engine(small_synthetic, params,
                           fault_plan=FaultPlan.of(
                               FaultSpec("crash", 1, 1))).run()
        assert degraded.total_terms > healthy.total_terms // 2
        assert degraded.total_terms < healthy.total_terms

    def test_degraded_trace_keeps_every_survivor_span(self, small_synthetic,
                                                      fast_params, tmp_path):
        # Survivors adopt the dead worker's chunks and so emit more spans
        # per iteration than they started with. Each reply carries its
        # iteration's spans, so none is dropped, and the dead worker keeps
        # the iterations it finished.
        path = tmp_path / "degraded.jsonl"
        params = _chaos_params(fast_params, "degrade",
                               iter_max=12).with_(trace=str(path))
        result = _engine(small_synthetic, params,
                         fault_plan=FaultPlan.of(
                             FaultSpec("crash", 1, 1))).run()
        assert result.summary()["degraded"] is True
        doc = read_trace(str(path))
        assert doc.dropped == 0

        def iterations(worker):
            return [e.iteration for e in doc.events
                    if e.name == "iteration"
                    and e.labels.get("worker") == worker]

        assert iterations("0") == list(range(12))
        assert iterations("2") == list(range(12))
        assert iterations("1") == [0]


class TestRestartPolicy:
    def test_crash_respawns_and_completes(self, small_synthetic, fast_params):
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "restart"),
                         fault_plan=FaultPlan.of(FaultSpec("crash", 1, 1)))
        result = engine.run()
        summary = result.summary()
        assert summary["worker_restarts"] >= 1
        assert summary["effective_workers"] == 3
        assert summary["degraded"] is False
        assert np.isfinite(result.layout.coords).all()

    def test_setup_fault_exhausts_restarts_then_degrades(self,
                                                         small_synthetic,
                                                         fast_params):
        # A fault at iteration -1 re-fires in every respawned incarnation,
        # so the restart budget drains and the slot degrades.
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "restart"),
                         fault_plan=FaultPlan.of(FaultSpec("crash", 1, -1)),
                         max_restarts=2)
        result = engine.run()
        summary = result.summary()
        assert summary["worker_restarts"] == 2
        assert summary["degraded"] is True
        assert summary["effective_workers"] == 2


class _FakeProc:
    """Process stand-in: scriptable liveness and exitcode, no OS process."""

    def __init__(self):
        self.alive = True
        self.exitcode = None

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.alive = False
        self.exitcode = -signal.SIGTERM

    def kill(self):
        self.alive = False
        self.exitcode = -signal.SIGKILL


class _FakeConn:
    """Scripted parent-side pipe: ``recv`` pops the inbox, ``extend``
    auto-acks (the worker loop's behaviour), ``broken`` scripts a dead
    peer's ``BrokenPipeError`` on send."""

    def __init__(self, inbox=()):
        self.inbox = deque(inbox)
        self.sent = []
        self.broken = False
        self.closed = False

    def send(self, msg):
        if self.broken:
            raise BrokenPipeError("scripted broken pipe")
        self.sent.append(msg)
        if msg[0] == "extend":
            self.inbox.append(("extended", 0, max(1, len(msg[1]))))

    def poll(self, timeout=None):
        return bool(self.inbox)

    def recv(self):
        if not self.inbox:
            raise EOFError
        return self.inbox.popleft()

    def close(self):
        self.closed = True


class TestMidIterationFailures:
    """Failures discovered during the ``iter`` broadcast (send_iter).

    Every survivor has already received its iteration message at that
    point and will deliver a result next, so recovery must wait
    for collect() to drain those results — these tests script exactly the
    pipe states the review of the original implementation flagged: eager
    recovery misread a survivor's in-flight result as a broken extend ack
    (degrade cascaded to total loss), and an eager respawn missed the
    current iteration's message (collect stalled on it for the full
    barrier deadline).
    """

    def _supervisor(self, policy, n_workers=3, **kwargs):
        procs, conns = [], []

        def spawn(worker_id, plan, state):
            proc, conn = _FakeProc(), _FakeConn([("ready", worker_id, 1)])
            procs.append(proc)
            conns.append(conn)
            return proc, conn

        kwargs.setdefault("barrier_timeout", 2.0)
        sup = WorkerSupervisor(
            spawn, policy=policy,
            fresh_states=lambda kind, n: [np.ones((1, 4), np.uint64)] * n,
            sleep=lambda s: None, **kwargs)
        sup.start([[4, 3]] * n_workers, [np.ones((1, 4), np.uint64)] * n_workers)
        assert sup.await_ready() == n_workers
        return sup, procs, conns

    @staticmethod
    def _kill_worker(procs, conns, w):
        procs[w].alive = False
        procs[w].exitcode = CRASH_EXITCODE
        conns[w].broken = True

    def test_send_failure_defers_recovery_past_in_flight_results(self):
        # Degrade policy: worker 1's pipe breaks during the broadcast while
        # workers 0 and 2 already hold their iteration results. Recovery
        # must not run until those results are collected — eagerly it would
        # read a result as the extend ack and reap both healthy survivors.
        sup, procs, conns = self._supervisor("degrade")
        self._kill_worker(procs, conns, 1)
        conns[0].inbox.append((10, 0))
        conns[2].inbox.append((12, 0))
        sup.send_iter(0, 0.5)
        assert sup.live_count() == 2
        assert all(msg[0] != "extend"
                   for conn in conns for msg in conn.sent)
        results = sup.collect(0)
        assert sorted(results) == [(0, (10, 0)), (2, (12, 0))]
        assert sup.degraded
        assert sup.live_count() == 2
        assert sup.worker_failures == 1
        # Both survivors adopted a slice of the dead worker's plan.
        for w in (0, 2):
            assert ("iter", 0, 0.5) in conns[w].sent
            assert any(msg[0] == "extend" for msg in conns[w].sent)
            assert len(sup.handles[w].plans) == 2

    def test_send_failure_restart_rejoins_at_next_iteration(self):
        # Restart policy: the respawn must happen at the iteration barrier
        # (after collect), and the fresh worker idles until the *next*
        # send_iter — a mid-iteration respawn would never receive the
        # current iter message and collect would stall on it.
        sup, procs, conns = self._supervisor("restart")
        self._kill_worker(procs, conns, 1)
        conns[0].inbox.append((10, 0))
        conns[2].inbox.append((12, 0))
        sup.send_iter(0, 0.5)
        assert len(conns) == 3  # no respawn while the iteration is in flight
        results = sup.collect(0)
        assert sorted(results) == [(0, (10, 0)), (2, (12, 0))]
        assert sup.worker_restarts == 1
        assert sup.live_count() == 3
        assert not sup.degraded
        assert len(conns) == 4
        # The respawn saw only the ready handshake, no stale iter message...
        assert conns[3].sent == []
        # ...and participates normally from the next iteration on.
        sup.send_iter(1, 0.4)
        assert conns[3].sent == [("iter", 1, 0.4)]
        for conn in conns[0], conns[2], conns[3]:
            conn.inbox.append((7, 0))
        assert len(sup.collect(1)) == 3


class TestSupervisedIdentity:
    def test_workers1_byte_identical_to_flat(self, small_synthetic,
                                             fast_params):
        # The byte-identity contract must survive the supervised path:
        # worker 0 still runs the flat engine's streams over the full plan.
        params = fast_params.with_(backend="numpy")
        flat = CpuBaselineEngine(small_synthetic, params).run()
        supervised = _engine(small_synthetic, params.with_(workers=1)).run()
        np.testing.assert_array_equal(flat.layout.coords,
                                      supervised.layout.coords)
        summary = supervised.summary()
        assert summary["effective_workers"] == 1
        assert summary["worker_failures"] == 0
        assert summary["degraded"] is False

    def test_healthy_run_reports_clean_counters(self, small_synthetic,
                                                fast_params):
        result = _engine(small_synthetic,
                         _chaos_params(fast_params, "fail")).run()
        summary = result.summary()
        assert summary["effective_workers"] == 3
        assert summary["worker_failures"] == 0
        assert summary["worker_restarts"] == 0
        assert summary["workers_killed"] == 0
        assert summary["degraded"] is False


class TestFaultPlan:
    def test_parse_encode_roundtrip(self):
        plan = FaultPlan.parse("crash@1:1,stall@0:2*30")
        assert plan.specs == (FaultSpec("crash", 1, 1),
                              FaultSpec("stall", 0, 2, arg=30.0))
        assert FaultPlan.parse(plan.encode()) == plan

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("meteor@0:0")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash@x:0")
        with pytest.raises(ValueError):
            FaultSpec("nonsense", 0, 0)

    def test_env_resolution_and_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_fault_plan(None) is None
        monkeypatch.setenv("REPRO_FAULTS", "crash@1:0")
        assert resolve_fault_plan(None) == FaultPlan.of(
            FaultSpec("crash", 1, 0))
        explicit = FaultPlan.of(FaultSpec("stall", 0, 2))
        assert resolve_fault_plan(explicit) is explicit

    def test_from_seed_is_deterministic_and_in_range(self):
        a = FaultPlan.from_seed(77, workers=3, iterations=5, n_faults=4)
        b = FaultPlan.from_seed(77, workers=3, iterations=5, n_faults=4)
        assert a == b
        assert a != FaultPlan.from_seed(78, workers=3, iterations=5,
                                        n_faults=4)
        for spec in a.specs:
            assert 0 <= spec.worker < 3
            assert 0 <= spec.iteration < 5

    def test_seeded_plan_drives_recovery(self, small_synthetic, fast_params):
        # The acceptance-criteria shape: a FaultPlan derived from the
        # master seed kills a worker mid-run and degrade absorbs it.
        plan = FaultPlan.from_seed(fast_params.seed, workers=3, iterations=4,
                                   n_faults=1, kinds=("crash",))
        engine = _engine(small_synthetic,
                         _chaos_params(fast_params, "degrade"),
                         fault_plan=plan)
        summary = engine.run().summary()
        assert summary["effective_workers"] == 2
        assert summary["degraded"] is True


class TestRecoveryStreams:
    def test_states_distinct_across_calls_and_kinds(self):
        fresh = recovery_stream_states(seed=123, n_streams=4)
        blocks = (fresh("respawn", 1) + fresh("respawn", 2)
                  + fresh("degrade", 2))
        seen = set()
        for state in blocks:
            assert state.shape == (4, 4)
            key = state.tobytes()
            assert key not in seen
            seen.add(key)

    def test_incremental_states_match_grown_expansion(self):
        # The persistent-generator implementation must emit exactly the
        # tail slices one big seed_streams expansion would — the
        # prefix-stability contract, now without O(total^2) regeneration.
        n_streams = 3
        fresh = recovery_stream_states(seed=99, n_streams=n_streams)
        issued = fresh("respawn", 2) + fresh("respawn", 1)
        grown = seed_streams(derive_seed(99, "shm-respawn"),
                             3 * n_streams, Xoshiro256Plus.STATE_WORDS)
        np.testing.assert_array_equal(np.concatenate(issued, axis=0), grown)

    def test_disjoint_from_worker_streams(self):
        base = Xoshiro256Plus(123, 4)
        cohort = worker_stream_states(base, 3, seed=123)
        fresh = recovery_stream_states(seed=123, n_streams=4)
        recovery = fresh("respawn", 2) + fresh("degrade", 2)
        cohort_rows = {row.tobytes() for state in cohort for row in state}
        for state in recovery:
            for row in state:
                assert row.tobytes() not in cohort_rows


class TestSupervisorValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_worker_failure"):
            WorkerSupervisor(lambda *a: None, policy="retry")

    def test_recovery_policies_need_fresh_states(self):
        with pytest.raises(ValueError, match="fresh_states"):
            WorkerSupervisor(lambda *a: None, policy="degrade")

    def test_params_validate_policy(self, fast_params):
        with pytest.raises(ValueError, match="on_worker_failure"):
            fast_params.with_(on_worker_failure="explode")


class TestRunApi:
    def test_layout_graph_routes_policy(self, small_synthetic, fast_params,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@1:1")
        result = layout_graph(small_synthetic, params=fast_params,
                              workers=3, iter_max=4, backend="numpy",
                              on_worker_failure="degrade")
        summary = result.summary()
        assert summary["effective_workers"] == 2
        assert summary["degraded"] is True

    def test_flat_engine_summary_reports_healthy_defaults(self,
                                                          small_synthetic,
                                                          fast_params):
        result = CpuBaselineEngine(small_synthetic, fast_params).run()
        summary = result.summary()
        assert summary["effective_workers"] == summary["workers"]
        assert summary["degraded"] is False
        assert summary["worker_failures"] == 0
        assert summary["workers_killed"] == 0
