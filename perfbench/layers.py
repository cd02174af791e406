"""Span timers around the program's public call sites, and the per-layer
metrics derived from them.

The benchmark does not trace from inside the program. It replaces a call
site with a timing wrapper: a class attribute, or the module global the
caller looks the function up in. Each wrapper records its inclusive time,
the time of wrapped calls made while it ran (its children) and a call count,
so a layer's self time is inclusive minus children. The pipeline's own
top-level steps go through the same timer, which makes the self times of
all spans sum to the time covered by the top-level steps.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Spans whose self time is kernel work on the SGD hot path.
KERNEL_SPANS = ("prng.draw", "core.selection", "core.relayout",
                "core.displace", "core.merge", "backend.run_iteration",
                "backend.compact", "backend.scatter")
#: Spans that read the GFA into a validated graph.
GRAPH_SPANS = ("graph.parse", "graph.lean", "graph.validate")
#: Spans that write and score the finished layout.
OUTPUT_SPANS = ("io.write_lay", "render.svg", "metrics.stress")


class LayerTimer:
    """Inclusive time, child time and call counts per span name.

    Spans nest through an explicit stack of child-time accumulators; one
    process runs one pipeline, so the stack is never shared between threads.
    """

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.children: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._patched: List[Tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, result)`` adds to
        ``counts[name]``."""
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.children[name] += stack.pop()
                self.inclusive[name] += elapsed
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return timed

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class attribute or module global) with a
        timed wrapper; :meth:`restore` puts the original back."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))
        self._patched.append((owner, attr, original, own))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def self_time(self, name: str) -> float:
        return self.inclusive.get(name, 0.0) - self.children.get(name, 0.0)

    def self_sum(self) -> float:
        return sum(self.self_time(name) for name in self.inclusive)


def install_layer_spans(timer: LayerTimer) -> None:
    """Wrap every call site the per-layer metrics read.

    Each entry names the object the *caller* looks the function up on, so
    the wrapper is what the program actually calls.
    """
    import repro.core.base as core_base
    import repro.core.fused as core_fused
    import repro.core.updates as core_updates
    import repro.parallel.shm as shm
    from repro.backend.numpy_backend import NumpyBackend
    from repro.core.selection import PairSampler
    from repro.parallel.supervise import WorkerSupervisor
    from repro.prng.xoshiro import Xoshiro256Plus

    timer.patch(core_base, "initialize_layout", "core.init_layout")
    timer.patch(shm, "initialize_layout", "core.init_layout")
    timer.patch(core_base, "build_iteration_plans", "core.plan")
    timer.patch(Xoshiro256Plus, "next_double_block", "prng.draw",
                count=lambda args, out: out.size)
    timer.patch(NumpyBackend, "run_iteration", "backend.run_iteration")
    timer.patch(core_fused, "iteration_draws", "core.relayout")
    timer.patch(PairSampler, "select_from_uniforms", "core.selection",
                count=lambda args, out: int(args[2]))
    timer.patch(core_fused, "merge_batch", "core.merge")
    timer.patch(core_updates, "compute_displacements", "core.displace")
    timer.patch(NumpyBackend, "compact_points", "backend.compact")
    timer.patch(NumpyBackend, "merge_scatter", "backend.scatter")
    timer.patch(WorkerSupervisor, "start", "parallel.start")
    timer.patch(WorkerSupervisor, "await_ready", "parallel.ready")
    timer.patch(WorkerSupervisor, "send_iter", "parallel.send_iter")
    timer.patch(WorkerSupervisor, "collect", "parallel.collect")
    timer.patch(WorkerSupervisor, "shutdown", "parallel.shutdown")


def layer_metrics(timer: LayerTimer, wall_s: float, steps: int,
                  stress_samples: int, summary: Dict,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    Layers a workload does not exercise report 0 (``parallel.*`` on a flat
    run; the kernel split on a shm run, whose kernels run in the workers).
    """
    inc = timer.inclusive
    calls = timer.calls
    counts = timer.counts
    selfs = timer.self_time

    def per(total: float, n: float, unit: float) -> float:
        return total / n * unit if n else 0.0

    ingest = inc["graph.parse"] + inc["graph.lean"]
    draws = counts["prng.draw"]
    sel_terms = counts["core.selection"]
    segments = calls["core.merge"]
    out = {
        "graph.parse_s": inc["graph.parse"],
        "graph.lean_s": inc["graph.lean"],
        "graph.validate_s": inc["graph.validate"],
        "graph.ns_per_step": per(ingest, steps, 1e9),
        "core.engine_init_s": inc["core.engine_init"],
        "core.init_layout_s": inc["core.init_layout"],
        "core.plan_s": inc["core.plan"],
        "prng.draw_s": inc["prng.draw"],
        "prng.calls": float(calls["prng.draw"]),
        "prng.draws": float(draws),
        "prng.ns_per_draw": per(inc["prng.draw"], draws, 1e9),
        "core.selection_s": inc["core.selection"],
        "core.selection_ns_per_term": per(inc["core.selection"], sel_terms, 1e9),
        "core.relayout_s": inc["core.relayout"],
        "core.displace_s": inc["core.displace"],
        "core.merge_s": inc["core.merge"],
        "core.merge_self_s": selfs("core.merge"),
        "core.segments": float(segments),
        "core.merge_us_per_segment": per(inc["core.merge"], segments, 1e6),
        "core.loop_self_s": selfs("core.run"),
        "core.terms": float(summary["total_terms"]),
        "core.collision_fraction": float(summary["collision_fraction"]),
        "backend.run_iteration_s": inc["backend.run_iteration"],
        "backend.self_s": selfs("backend.run_iteration"),
        "backend.dispatches": float(calls["backend.run_iteration"]),
        "backend.compact_s": inc["backend.compact"],
        "backend.scatter_s": inc["backend.scatter"],
        "io.write_lay_s": inc["io.write_lay"],
        "render.svg_s": inc["render.svg"],
        "metrics.stress_s": inc["metrics.stress"],
        "metrics.stress_ns_per_sample": per(inc["metrics.stress"],
                                            stress_samples, 1e9),
    }
    worker_terms = [v for k, v in counters.items()
                    if k.startswith("worker_terms{")]
    parallel = calls["parallel.start"] > 0
    out.update({
        "parallel.ready_s": inc["parallel.start"] + inc["parallel.ready"],
        "parallel.barrier_s": inc["parallel.send_iter"] + inc["parallel.collect"],
        "parallel.shutdown_s": inc["parallel.shutdown"],
        "parallel.imbalance": (max(worker_terms) * len(worker_terms) / sum(worker_terms)
                               if sum(worker_terms) else 0.0),
        "parallel.collision_fraction": (float(summary["collision_fraction"])
                                        if parallel else 0.0),
    })
    kernel = sum(selfs(name) for name in KERNEL_SPANS)
    graph = sum(selfs(name) for name in GRAPH_SPANS)
    output = sum(selfs(name) for name in OUTPUT_SPANS)
    out.update({
        "share.kernel": kernel / wall_s,
        "share.graph": graph / wall_s,
        "share.output": output / wall_s,
        "trace.self_sum_fraction": timer.self_sum() / wall_s,
    })
    return out
