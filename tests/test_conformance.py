"""Cross-engine conformance matrix.

Ground truth is :class:`SerialReferenceEngine`: the exact term-at-a-time
Alg. 1. Every engine must reproduce it bit for bit, through every
write-merge policy, when configured so its trajectory collapses to the
serial algorithm (singleton batches, one PRNG stream — stream 0 of the
multi-stream Xoshiro is invariant to the stream count, which is what makes
this exact). Any deviation is an engine arithmetic bug, not a batching
artefact.

Around it:

* a **multilevel axis**: a one-level hierarchy lays out exactly as the
  flat engine;
* a **fused axis** (``TestFusedConformance``): every engine × merge run
  through the fused per-iteration path vs both the serial reference and
  the per-batch loop it replaced (``tests/per_batch_reference.py``) —
  byte-identical, with counters proving every engine really fused. Its
  references (the per-batch loop, the unbudgeted run) always run on the
  NumPy fallback of the compiled merge and draw, so every engine × merge ×
  budget (None, 1, "64MB") compares the compiled path's coordinate bytes
  and ``point_collisions`` with NumPy's; ``TestFusedConformanceOnFallback``
  repeats the axis with the fallback on both sides;
* a **process-parallel axis**: one shm worker is the flat engine;
* a **kernel axis**: heavily colliding batches through ``merge_batch``,
  compiled against the NumPy fallback.
"""
from __future__ import annotations

import numpy as np
import pytest

from per_batch_reference import PerBatchRun
from repro.core import (
    BatchedLayoutEngine,
    CpuBaselineEngine,
    GpuKernelConfig,
    LayoutParams,
    OptimizedGpuEngine,
    PairSampler,
    SerialReferenceEngine,
    UpdateWorkspace,
    draw_segment,
    initialize_layout,
    merge_batch,
)
from repro.prng import Xoshiro256Plus
from repro.synth import PangenomeConfig, simulate_pangenome

MERGES = ("hogwild", "accumulate", "last_writer")


@pytest.fixture(scope="module")
def conf_graph():
    """Small synthetic pangenome: several paths, bubbles, a loop."""
    cfg = PangenomeConfig(
        n_backbone_nodes=60,
        n_paths=4,
        mean_node_length=5.0,
        bubble_rate=0.1,
        deletion_rate=0.02,
        n_structural_variants=1,
        sv_length_nodes=6,
        loop_rate=0.1,
        seed=5,
        name="conformance",
    )
    return simulate_pangenome(cfg)


def _params(merge: str) -> LayoutParams:
    return LayoutParams(iter_max=3, steps_per_step_unit=1.0, seed=17,
                        merge_policy=merge)


#: The serial reference depends only on the merge policy (3 runs), not on
#: the engine axis of the matrix — cache it per merge.
_REFERENCE_CACHE: dict = {}


def _serial_reference(graph, merge: str):
    if merge not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[merge] = SerialReferenceEngine(
            graph, _params(merge)).run().layout.coords
    return _REFERENCE_CACHE[merge]


def _serial_degenerate_engine(kind: str, graph, params: LayoutParams):
    """An engine whose batch plan and PRNG collapse to the serial algorithm."""
    if kind == "cpu":
        return CpuBaselineEngine(graph, params, hogwild_round=1)
    if kind == "batch":
        return BatchedLayoutEngine(graph, params.with_(batch_size=1))
    if kind == "gpu":
        return OptimizedGpuEngine(graph, params, GpuKernelConfig(
            warp_size=1, concurrent_threads=1, warp_merging=False,
            cache_friendly_layout=False, coalesced_random_states=False))
    raise AssertionError(kind)


def _default_engine(kind: str, graph, params: LayoutParams):
    """The engine in its stock batched configuration (real merge collisions)."""
    if kind == "cpu":
        return CpuBaselineEngine(graph, params.with_(simulated_threads=4))
    if kind == "batch":
        return BatchedLayoutEngine(graph, params.with_(batch_size=64))
    if kind == "gpu":
        return OptimizedGpuEngine(graph, params)
    raise AssertionError(kind)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestSerialReferenceConformance:
    def test_matches_serial_reference(self, conf_graph, engine_kind, merge):
        reference = _serial_reference(conf_graph, merge)
        engine = _serial_degenerate_engine(engine_kind, conf_graph,
                                           _params(merge))
        np.testing.assert_array_equal(engine.run().layout.coords, reference)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestMultilevelConformance:
    """Multilevel axis: a flat hierarchy must not perturb any engine.

    ``MultilevelDriver(levels=1)`` (and any driver whose graph does not
    contract) delegates to the wrapped flat engine; the contract is
    byte-identity — same params, same seed, same PRNG draws — for every
    engine × merge policy.
    """

    def test_levels1_byte_identical_to_flat_engine(self, conf_graph,
                                                   engine_kind, merge):
        from repro.core.api import make_engine
        from repro.multilevel import MultilevelDriver

        # Realistic batched configuration (same knobs _default_engine turns),
        # expressed through params so driver and flat engine see one config.
        params = _params(merge).with_(simulated_threads=4, batch_size=64)
        flat = make_engine(conf_graph, engine_kind, params).run()
        driver = MultilevelDriver(conf_graph, params, engine=engine_kind)
        multi = driver.run()
        assert driver.hierarchy.depth == 1
        assert multi.total_terms == flat.total_terms
        np.testing.assert_array_equal(multi.layout.coords, flat.layout.coords)


@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestFusedConformance:
    """Fused axis: the per-iteration execution path must not move layouts.

    Every engine runs through ``backend.run_iteration`` (one dispatch per
    iteration) and must match, byte for byte, the serial reference in the
    degenerate configs and the per-batch loop ("unfused", run by the
    oracle) in the stock configs.
    """

    def test_fused_matches_serial_reference(self, conf_graph, engine_kind,
                                            merge):
        reference = _serial_reference(conf_graph, merge)
        engine = _serial_degenerate_engine(engine_kind, conf_graph,
                                           _params(merge))
        np.testing.assert_array_equal(engine.run().layout.coords, reference)

    def test_fused_matches_unfused_default_config(self, conf_graph,
                                                  engine_kind, merge,
                                                  on_fallback):
        params = _params(merge)
        unfused = on_fallback(PerBatchRun(_default_engine(
            engine_kind, conf_graph, params)).run)
        fused = _default_engine(engine_kind, conf_graph, params).run()
        assert fused.total_terms == unfused.total_terms
        assert (fused.counters["point_collisions"]
                == unfused.counters["point_collisions"])
        np.testing.assert_array_equal(fused.layout.coords,
                                      unfused.layout.coords)
        # Not vacuous: every engine really took the fused path.
        assert fused.counters["fused_iterations"] == fused.iterations
        assert fused.counters["update_dispatches"] == fused.iterations

    @pytest.mark.parametrize("budget", (1, "64MB"))
    def test_memory_budget_preserves_layout(self, conf_graph, engine_kind,
                                            merge, budget, on_fallback):
        """Chunked megablock (PR 8): the budget is an execution knob only.

        A 1-byte budget forces one chunk per segment — the maximally
        chunked schedule — while "64MB" covers the whole iteration and
        must degrade to the single unchunked dispatch. Both must leave the
        layout byte-identical.
        """
        params = _params(merge)
        unbudgeted = on_fallback(
            _default_engine(engine_kind, conf_graph, params).run)
        budgeted = _default_engine(
            engine_kind, conf_graph,
            params.with_(memory_budget=budget)).run()
        assert budgeted.total_terms == unbudgeted.total_terms
        assert (budgeted.counters["point_collisions"]
                == unbudgeted.counters["point_collisions"])
        np.testing.assert_array_equal(budgeted.layout.coords,
                                      unbudgeted.layout.coords)
        if engine_kind == "cpu" and budget == 1:
            # Not vacuous: a 1-byte budget yields exactly one chunk per
            # batch-plan segment (chunking never splits inside a segment).
            engine = _default_engine(engine_kind, conf_graph, params)
            plan = engine.batch_plan(
                engine.params.steps_per_iteration(conf_graph.total_steps))
            assert budgeted.counters["fused_chunks"] == len(plan)


@pytest.mark.usefixtures("no_kernels")
class TestFusedConformanceOnFallback(TestFusedConformance):
    """The fused axis with the engine on the NumPy fallback too."""


@pytest.mark.parametrize("merge", MERGES)
class TestShmConformance:
    """Process-parallel axis: one shm worker must not move any layout.

    ``ShmHogwildEngine(workers=1)`` runs the flat engine's full batch plan
    on the flat engine's PRNG streams inside a real worker process over a
    real shared-memory mapping; the contract is *byte*-identity with the
    flat engine for every merge policy — the process machinery is pure
    plumbing, never arithmetic. The deterministic in-process serialisation
    of the multi-worker race (``run_inline``) must conserve the term budget
    and reproduce itself.
    """

    def test_workers1_byte_identical_to_flat_engine(self, conf_graph, merge):
        from repro.parallel.shm import ShmHogwildEngine

        params = _params(merge).with_(simulated_threads=4)
        flat = CpuBaselineEngine(conf_graph, params).run()
        shm = ShmHogwildEngine(conf_graph, params.with_(workers=1)).run()
        assert shm.total_terms == flat.total_terms
        np.testing.assert_array_equal(shm.layout.coords, flat.layout.coords)

    def test_inline_two_workers_deterministic(self, conf_graph, merge):
        from repro.parallel.shm import run_workers_inline

        params = _params(merge).with_(simulated_threads=4, workers=2)
        flat = CpuBaselineEngine(conf_graph, params).run()
        a = run_workers_inline(conf_graph, params)
        b = run_workers_inline(conf_graph, params)
        assert a.total_terms == flat.total_terms
        assert np.all(np.isfinite(a.layout.coords))
        np.testing.assert_array_equal(a.layout.coords, b.layout.coords)


@pytest.mark.parametrize("merge", MERGES)
class TestKernelLevelConformance:
    def test_merge_batch_matches_fallback(self, conf_graph, merge,
                                          on_fallback):
        """Heavily colliding sampled batches through the bare kernels: the
        merge callers take (compiled when it loads) against the NumPy
        fallback, coordinate bytes and collision counts."""
        sampler = PairSampler(conf_graph, LayoutParams())
        rng = Xoshiro256Plus(23, n_streams=64)
        base = initialize_layout(conf_graph, seed=2).coords
        for batch_size in (1, 33, 256):
            batch = draw_segment(sampler, rng, batch_size, 0)
            expect = base.copy()
            ref_collisions = on_fallback(merge_batch, expect, batch, 0.8,
                                         merge, UpdateWorkspace(batch_size))
            got = base.copy()
            got_collisions = merge_batch(got, batch, 0.8, merge,
                                         UpdateWorkspace(batch_size))
            assert got.tobytes() == expect.tobytes()
            assert got_collisions == ref_collisions
