"""Cross-engine / cross-backend conformance matrix.

Ground truth is :class:`SerialReferenceEngine` on the NumPy reference
backend: the exact term-at-a-time Alg. 1. Every registered backend must
reproduce it — through every engine and every write-merge policy — within
1e-9 (and bit-for-bit on the NumPy backend itself).

Two matrices:

* **Serial-degenerate**: each engine configured so its trajectory collapses
  to the serial algorithm (singleton batches, one PRNG stream — stream 0 of
  the multi-stream Xoshiro is invariant to the stream count, which is what
  makes this exact). Any deviation is a backend/engine arithmetic bug, not a
  batching artefact.
* **Cross-backend**: each engine in its *default* batched configuration run
  on backend B vs the NumPy backend — real batches, real collisions, so the
  merge kernels are exercised under load.

plus a **fused axis** (``TestFusedConformance``): every engine × merge ×
backend run through the fused per-iteration path vs both the serial
reference and the per-batch loop it replaced
(``tests/per_batch_reference.py``) — byte-identical on NumPy, ≤1e-9
elsewhere, with counters proving every engine really fused.

A registered backend whose toolchain is absent skips cleanly with the
registry's recorded reason. Registering a new backend makes
it appear in these matrices with no test changes — passing this module is
the acceptance bar for any future backend PR (see ROADMAP).
"""
from __future__ import annotations

import numpy as np
import pytest

from per_batch_reference import PerBatchRun
from repro.backend import available_backends, backend_failures, backend_names, get_backend
from repro.core import (
    BatchedLayoutEngine,
    CpuBaselineEngine,
    GpuKernelConfig,
    LayoutParams,
    OptimizedGpuEngine,
    PairSampler,
    SerialReferenceEngine,
    UpdateWorkspace,
    apply_batch,
    initialize_layout,
)
from repro.prng import Xoshiro256Plus
from repro.synth import PangenomeConfig, simulate_pangenome

MERGES = ("hogwild", "accumulate", "last_writer")
BACKENDS = backend_names()
ATOL = 1e-9


def _backend_or_skip(name: str):
    if name not in available_backends():
        pytest.skip(f"backend {name!r} unavailable: "
                    f"{backend_failures().get(name, 'not registered')}")
    return get_backend(name)


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


def _params(merge: str, backend: str) -> LayoutParams:
    return LayoutParams(iter_max=3, steps_per_step_unit=1.0, seed=17,
                        merge_policy=merge, backend=backend)


#: The serial reference depends only on the merge policy (3 runs), not on the
#: (engine × backend) axes of the 27-case matrix — cache it per merge.
_REFERENCE_CACHE: dict = {}


def _serial_reference(graph, merge: str):
    if merge not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[merge] = SerialReferenceEngine(
            graph, _params(merge, "numpy")).run().layout.coords
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


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestSerialReferenceConformance:
    def test_matches_serial_reference(self, conf_graph, engine_kind, merge,
                                      backend_name):
        _backend_or_skip(backend_name)
        reference = _serial_reference(conf_graph, merge)
        engine = _serial_degenerate_engine(
            engine_kind, conf_graph, _params(merge, backend_name))
        got = engine.run().layout.coords
        np.testing.assert_allclose(got, reference, atol=ATOL, rtol=0)
        if backend_name == "numpy":
            # The reference backend is held to bit-identity, not closeness.
            np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestCrossBackendConformance:
    def test_default_config_matches_numpy_backend(self, conf_graph, engine_kind,
                                                  merge, backend_name):
        _backend_or_skip(backend_name)
        baseline = _default_engine(
            engine_kind, conf_graph, _params(merge, "numpy")).run()
        candidate = _default_engine(
            engine_kind, conf_graph, _params(merge, backend_name)).run()
        assert candidate.total_terms == baseline.total_terms
        np.testing.assert_allclose(candidate.layout.coords,
                                   baseline.layout.coords, atol=ATOL, rtol=0)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestMultilevelConformance:
    """Multilevel axis: a flat hierarchy must not perturb any engine.

    ``MultilevelDriver(levels=1)`` (and any driver whose graph does not
    contract) delegates to the wrapped flat engine; the contract is
    byte-identity — same params, same seed, same PRNG draws — for every
    engine × merge policy × backend the registry reports available.
    """

    def test_levels1_byte_identical_to_flat_engine(self, conf_graph,
                                                   engine_kind, merge,
                                                   backend_name):
        from repro.core.api import make_engine
        from repro.multilevel import MultilevelDriver

        _backend_or_skip(backend_name)
        # Realistic batched configuration (same knobs _default_engine turns),
        # expressed through params so driver and flat engine see one config.
        params = _params(merge, backend_name).with_(simulated_threads=4,
                                                    batch_size=64)
        flat = make_engine(conf_graph, engine_kind, params).run()
        driver = MultilevelDriver(conf_graph, params, engine=engine_kind)
        multi = driver.run()
        assert driver.hierarchy.depth == 1
        assert multi.total_terms == flat.total_terms
        np.testing.assert_array_equal(multi.layout.coords, flat.layout.coords)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
@pytest.mark.parametrize("engine_kind", ("cpu", "batch", "gpu"))
class TestFusedConformance:
    """Fused axis: the per-iteration execution path must not move layouts.

    Every engine runs through ``backend.run_iteration`` (one dispatch per
    iteration). The bar mirrors the rest of the suite: ≤1e-9 against the
    serial reference in the degenerate configs, agreement with the
    per-batch loop ("unfused", run by the oracle on the same backend) in
    the stock configs, and *byte*-identity for both on the NumPy backend.
    """

    def test_fused_matches_serial_reference(self, conf_graph, engine_kind,
                                            merge, backend_name):
        _backend_or_skip(backend_name)
        reference = _serial_reference(conf_graph, merge)
        engine = _serial_degenerate_engine(
            engine_kind, conf_graph, _params(merge, backend_name))
        got = engine.run().layout.coords
        np.testing.assert_allclose(got, reference, atol=ATOL, rtol=0)
        if backend_name == "numpy":
            np.testing.assert_array_equal(got, reference)

    def test_fused_matches_unfused_default_config(self, conf_graph,
                                                  engine_kind, merge,
                                                  backend_name):
        _backend_or_skip(backend_name)
        params = _params(merge, backend_name)
        unfused = PerBatchRun(_default_engine(engine_kind, conf_graph,
                                              params)).run()
        fused = _default_engine(engine_kind, conf_graph, params).run()
        assert fused.total_terms == unfused.total_terms
        np.testing.assert_allclose(fused.layout.coords, unfused.layout.coords,
                                   atol=ATOL, rtol=0)
        if backend_name == "numpy":
            np.testing.assert_array_equal(fused.layout.coords,
                                          unfused.layout.coords)
        # Not vacuous: every engine really took the fused path.
        assert fused.counters["fused_iterations"] == fused.iterations
        assert fused.counters["update_dispatches"] == fused.iterations

    @pytest.mark.parametrize("budget", (1, "64MB"))
    def test_memory_budget_preserves_layout(self, conf_graph, engine_kind,
                                            merge, backend_name, budget):
        """Chunked megablock (PR 8): the budget is an execution knob only.

        A 1-byte budget forces one chunk per segment — the maximally
        chunked schedule — while "64MB" covers the whole iteration and
        must degrade to the single unchunked dispatch. Both must leave the
        layout untouched: ≤1e-9 everywhere, byte-identical on NumPy.
        """
        _backend_or_skip(backend_name)
        params = _params(merge, backend_name)
        unbudgeted = _default_engine(engine_kind, conf_graph, params).run()
        budgeted = _default_engine(
            engine_kind, conf_graph,
            params.with_(memory_budget=budget)).run()
        assert budgeted.total_terms == unbudgeted.total_terms
        np.testing.assert_allclose(budgeted.layout.coords,
                                   unbudgeted.layout.coords,
                                   atol=ATOL, rtol=0)
        if backend_name == "numpy":
            np.testing.assert_array_equal(budgeted.layout.coords,
                                          unbudgeted.layout.coords)
        if engine_kind == "cpu" and budget == 1:
            # Not vacuous: a 1-byte budget yields exactly one chunk per
            # batch-plan segment (chunking never splits inside a segment).
            engine = _default_engine(engine_kind, conf_graph, params)
            plan = engine.batch_plan(
                engine.params.steps_per_iteration(conf_graph.total_steps))
            assert budgeted.counters["fused_chunks"] == len(plan)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
class TestShmConformance:
    """Process-parallel axis: one shm worker must not move any layout.

    ``ShmHogwildEngine(workers=1)`` runs the flat engine's full batch plan
    on the flat engine's PRNG streams inside a real worker process over a
    real shared-memory mapping; the contract is *byte*-identity with the
    flat engine for every merge policy on every host-resident backend —
    the process machinery is pure plumbing, never arithmetic. The
    deterministic in-process serialisation of the multi-worker race
    (``run_inline``) must conserve the term budget and reproduce itself.
    """

    @staticmethod
    def _host_backend_or_skip(backend_name: str):
        be = _backend_or_skip(backend_name)
        probe = np.zeros(1)
        if be.from_host(probe) is not probe:
            pytest.skip(f"backend {backend_name!r} is not host-resident; "
                        "the shm engine needs host-mapped coordinates")
        return be

    def test_workers1_byte_identical_to_flat_engine(self, conf_graph, merge,
                                                    backend_name):
        from repro.parallel.shm import ShmHogwildEngine

        self._host_backend_or_skip(backend_name)
        params = _params(merge, backend_name).with_(simulated_threads=4)
        flat = CpuBaselineEngine(conf_graph, params).run()
        shm = ShmHogwildEngine(conf_graph, params.with_(workers=1)).run()
        assert shm.total_terms == flat.total_terms
        np.testing.assert_array_equal(shm.layout.coords, flat.layout.coords)

    def test_inline_two_workers_deterministic(self, conf_graph, merge,
                                              backend_name):
        from repro.parallel.shm import run_workers_inline

        self._host_backend_or_skip(backend_name)
        params = _params(merge, backend_name).with_(simulated_threads=4,
                                                    workers=2)
        flat = CpuBaselineEngine(conf_graph, params).run()
        a = run_workers_inline(conf_graph, params)
        b = run_workers_inline(conf_graph, params)
        assert a.total_terms == flat.total_terms
        assert np.all(np.isfinite(a.layout.coords))
        np.testing.assert_array_equal(a.layout.coords, b.layout.coords)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("merge", MERGES)
class TestKernelLevelConformance:
    def test_apply_batch_matches_numpy_backend(self, conf_graph, merge,
                                               backend_name):
        """Heavily colliding sampled batches through the bare kernels."""
        be = _backend_or_skip(backend_name)
        ref_be = get_backend("numpy")
        sampler = PairSampler(conf_graph, LayoutParams())
        rng = Xoshiro256Plus(23, n_streams=64)
        base = initialize_layout(conf_graph, seed=2).coords
        for batch_size in (1, 33, 256):
            batch = sampler.sample(rng, batch_size, iteration=0)
            expect_host = base.copy()
            ref_stats = apply_batch(expect_host, batch, 0.8, merge=merge,
                                    workspace=UpdateWorkspace(batch_size,
                                                              backend=ref_be))
            coords_dev = be.from_host(base.copy())
            got_stats = apply_batch(coords_dev, batch, 0.8, merge=merge,
                                    workspace=UpdateWorkspace(batch_size,
                                                              backend=be))
            np.testing.assert_allclose(be.to_host(coords_dev), expect_host,
                                       atol=ATOL, rtol=0)
            assert got_stats.n_point_collisions == ref_stats.n_point_collisions
            assert got_stats.n_terms == ref_stats.n_terms
