"""CI smoke case gating the supervised parallel runtime's healthy path.

``perf_supervised_overhead`` answers the one question fault tolerance must
keep answering forever: *what does supervision cost when nothing fails?*
It drives the same worker processes twice over the smoke workload —

* the **pre-supervision barrier loop**: the exact parent loop the shm
  engine ran before PR 10 (bare ``conn.recv()`` handshake and iteration
  barriers, untimed joins), reconstructed here as the reference;
* the **supervised engine**: every barrier routed through
  :class:`~repro.parallel.supervise.WorkerSupervisor`'s poll-with-deadline
  liveness loop, policy machinery armed but never triggered —

and gates three things: the two paths stay **byte-identical** at
``workers=1`` (supervision must never touch draw order or the
store pattern), the supervised/bare iterate-time ratio stays under a
floored guard (the poll loop blocks on the pipe exactly like ``recv`` when
the worker is healthy, so the overhead is wakeup noise — the guard trips
only if the supervisor ever grows real per-barrier cost), and the healthy
run's ``worker_failures`` stays at exactly ``0.0`` — a machine-independent
tripwire that the fault machinery never misfires on a clean run.
"""
from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from ...core.layout import initialize_layout
from ...parallel.shm import ShmHogwildEngine, _worker_main
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Floor applied to the supervised/bare iterate-time ratio. Healthy runs
#: sit near 1.0 (the liveness poll blocks on the pipe just like the bare
#: recv did); the 10% compare threshold then only trips past ~2.75 —
#: supervision costing multiples of the barrier loop it replaced.
_RATIO_FLOOR = 2.5

#: Repeats per variant; best (minimum) iterate time is recorded.
_REPEATS = 3

#: Iterations per measured run.
_ITER_MAX = 4


def _bare_barrier_run(graph, params):
    """The pre-supervision parent loop, verbatim: the overhead reference.

    Spawns the *same* worker processes the engine does, but drives them
    with the original blocking barriers — bare ``recv()`` for the ready
    handshake and per-iteration collection. Living outside ``parallel/``,
    this reference is exempt from ROBUST001 by construction; it exists
    only to price the supervisor against what it replaced.

    Returns ``(iterate_seconds, final_coords)``.
    """
    engine = ShmHogwildEngine(graph, params)
    layout = initialize_layout(graph, seed=params.seed,
                               data_layout=engine.data_layout())
    sub_plans, states, block = engine._worker_setup(layout)
    ctx_mp = mp.get_context(engine.start_method)
    procs, conns = [], []
    try:
        for w, (sub_plan, state) in enumerate(zip(sub_plans, states)):
            parent_conn, child_conn = ctx_mp.Pipe()
            proc = ctx_mp.Process(
                target=_worker_main,
                args=(w, block.name, block.manifest, params, sub_plan,
                      state, child_conn, None),
                daemon=True)
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        for conn in conns:
            msg = conn.recv()
            assert msg[0] == "ready"
        t0 = time.perf_counter()
        for iteration in range(params.iter_max):
            eta = float(engine.schedule[iteration])
            for conn in conns:
                conn.send(("iter", iteration, eta))
            for conn in conns:
                conn.recv()
        iterate_s = time.perf_counter() - t0
        for conn in conns:
            conn.send(("stop",))
        for proc in procs:
            proc.join(timeout=30.0)
        layout.coords[...] = block.view("coords")
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        block.close()
        block.unlink()
    return iterate_s, layout.coords.copy()


@bench_case("perf_supervised_overhead",
            source="PR 10 (supervised runtime, healthy path)",
            suites=("smoke",))
def run_supervised_overhead(ctx) -> CaseResult:
    """Supervision is free when healthy: identical bytes, bounded overhead."""
    graph = ctx.chr1_graph
    params = ctx.smoke_params.with_(iter_max=_ITER_MAX, workers=1)

    bare_s = float("inf")
    bare_coords = None
    for _ in range(_REPEATS):
        elapsed, coords = _bare_barrier_run(graph, params)
        bare_s = min(bare_s, elapsed)
        bare_coords = coords

    supervised_s = float("inf")
    supervised = None
    for _ in range(_REPEATS):
        candidate = ShmHogwildEngine(graph, params).run()
        supervised_s = min(supervised_s,
                           candidate.counters["parallel_iterate_s"])
        supervised = candidate

    # Byte-identity gate: the supervised path must reproduce the
    # pre-supervision loop bit for bit (workers=1 — the deterministic cell
    # of the engine matrix).
    assert np.array_equal(supervised.layout.coords, bare_coords)

    ratio = supervised_s / max(bare_s, 1e-12)
    failures = supervised.counters.get("worker_failures", 0.0)

    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("bare_iterate_ms", bare_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("supervised_iterate_ms", supervised_s * 1e3, unit="ms",
            direction="lower", deterministic=False)
    out.add("supervised_overhead_ratio", ratio, unit="x", direction="info",
            deterministic=False)
    out.add("supervised_overhead_guard", max(ratio, _RATIO_FLOOR), unit="x",
            direction="lower", deterministic=False)
    # Machine-independent tripwire: a healthy run records exactly zero
    # failures — any drift means the supervisor misdiagnosed a live worker.
    out.add("worker_failures", failures, direction="lower")
    out.add("effective_workers", supervised.counters["effective_workers"],
            direction="info")
    out.tables.append(format_table(
        ["Barrier loop", "Iterate (ms)", "Failures"],
        [["pre-supervision (bare recv)", f"{bare_s * 1e3:.1f}", "n/a"],
         ["supervised (poll + liveness)", f"{supervised_s * 1e3:.1f}",
          f"{failures:.0f}"]],
        title="Smoke: supervised runtime healthy-path overhead",
    ))
    return out
