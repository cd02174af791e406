"""Property-based fused/unfused agreement across random graphs (hypothesis).

The example-based fused tests pin byte-identity on a handful of fixed
graphs; this module drives the same contract over *randomised* small
pangenomes × merge policies × engine shapes: for every drawn configuration
the fused per-iteration path and the per-batch loop it replaced
(``tests/per_batch_reference.py``) must produce layouts within 1e-9 — and
byte-identical on the NumPy backend, which is the stronger form actually
asserted (any available non-NumPy backend is held to the 1e-9 form in
``tests/test_conformance.py``'s fused axis).

``hypothesis`` is an optional dev dependency: when it is not installed the
module skips at collection time, keeping the tier-1 suite runnable from the
runtime-only install.
"""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from per_batch_reference import PerBatchRun  # noqa: E402
from repro.core import (  # noqa: E402
    CpuBaselineEngine,
    LayoutParams,
    SerialReferenceEngine,
)
from repro.synth import PangenomeConfig, simulate_pangenome  # noqa: E402

#: Layout runs are ~10 ms each and every example runs two; keep the example
#: count modest and the deadline off so loaded CI boxes pass.
FUSED_SETTINGS = settings(deadline=None, max_examples=25,
                          suppress_health_check=[HealthCheck.too_slow])

_GRAPH_CACHE: dict = {}


def _graph_for(seed: int, backbone: int, paths: int, bubble_pct: int,
               loop_pct: int):
    key = (seed, backbone, paths, bubble_pct, loop_pct)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = simulate_pangenome(PangenomeConfig(
            n_backbone_nodes=backbone,
            n_paths=paths,
            mean_node_length=4.0,
            bubble_rate=bubble_pct / 100.0,
            deletion_rate=0.02,
            n_structural_variants=1,
            sv_length_nodes=3,
            loop_rate=loop_pct / 100.0,
            seed=seed,
            name=f"fused-prop-{seed}",
        ))
    return _GRAPH_CACHE[key]


@given(
    graph_seed=st.integers(min_value=0, max_value=7),
    backbone=st.integers(min_value=12, max_value=60),
    paths=st.integers(min_value=2, max_value=4),
    bubble_pct=st.integers(min_value=0, max_value=20),
    loop_pct=st.integers(min_value=0, max_value=15),
    merge=st.sampled_from(["hogwild", "accumulate", "last_writer"]),
    engine_seed=st.integers(min_value=0, max_value=2**31 - 1),
    iter_max=st.integers(min_value=1, max_value=4),
    hogwild_round=st.sampled_from([1, 7, 64]),
    cooling_start=st.sampled_from([0.0, 0.5, 1.0]),
)
@FUSED_SETTINGS
def test_fused_equals_unfused_on_random_graphs(graph_seed, backbone, paths,
                                               bubble_pct, loop_pct, merge,
                                               engine_seed, iter_max,
                                               hogwild_round, cooling_start):
    graph = _graph_for(graph_seed, backbone, paths, bubble_pct, loop_pct)
    params = LayoutParams(
        iter_max=iter_max,
        steps_per_step_unit=1.0,
        seed=engine_seed,
        merge_policy=merge,
        cooling_start=cooling_start,
        backend="numpy",
    )
    unfused = PerBatchRun(CpuBaselineEngine(
        graph, params, hogwild_round=hogwild_round)).run()
    fused = CpuBaselineEngine(graph, params, hogwild_round=hogwild_round).run()
    assert fused.counters["fused_iterations"] == fused.iterations
    assert fused.total_terms == unfused.total_terms
    # ≤1e-9 is the cross-backend contract; NumPy is held to byte-identity.
    np.testing.assert_allclose(fused.layout.coords, unfused.layout.coords,
                               atol=1e-9, rtol=0)
    np.testing.assert_array_equal(fused.layout.coords, unfused.layout.coords)


@given(
    graph_seed=st.integers(min_value=0, max_value=7),
    backbone=st.integers(min_value=12, max_value=60),
    paths=st.integers(min_value=2, max_value=4),
    bubble_pct=st.integers(min_value=0, max_value=20),
    loop_pct=st.integers(min_value=0, max_value=15),
    merge=st.sampled_from(["hogwild", "accumulate", "last_writer"]),
    engine_seed=st.integers(min_value=0, max_value=2**31 - 1),
    iter_max=st.integers(min_value=1, max_value=3),
    # 1 byte forces one-segment chunks (budget < any segment); huge budgets
    # degrade to the unchunked single dispatch; the middle draws arbitrary
    # chunk geometries in between.
    budget=st.one_of(st.just(1), st.just("1GB"),
                     st.integers(min_value=256, max_value=1 << 20)),
)
@FUSED_SETTINGS
def test_memory_budget_never_moves_layout(graph_seed, backbone, paths,
                                          bubble_pct, loop_pct, merge,
                                          engine_seed, iter_max, budget):
    """Chunked ≡ unchunked, bit for bit, for *every* budget (PR 8 tentpole)."""
    graph = _graph_for(graph_seed, backbone, paths, bubble_pct, loop_pct)
    params = LayoutParams(
        iter_max=iter_max,
        steps_per_step_unit=1.0,
        seed=engine_seed,
        merge_policy=merge,
        backend="numpy",
    )
    unchunked = CpuBaselineEngine(graph, params).run()
    chunked = CpuBaselineEngine(graph,
                                params.with_(memory_budget=budget)).run()
    assert chunked.total_terms == unchunked.total_terms
    np.testing.assert_array_equal(chunked.layout.coords,
                                  unchunked.layout.coords)


@given(
    engine_seed=st.integers(min_value=0, max_value=2**31 - 1),
    workers=st.sampled_from([2, 3]),
    budget=st.sampled_from([1, 4096, "64MB"]),
)
@settings(deadline=None, max_examples=10,
          suppress_health_check=[HealthCheck.too_slow])
def test_memory_budget_never_moves_worker_sliced_layout(engine_seed, workers,
                                                        budget):
    """Per-worker budget shares keep the deterministic shm schedule intact."""
    from repro.parallel.shm import run_workers_inline

    graph = _graph_for(1, 30, 3, 10, 5)
    params = LayoutParams(iter_max=2, steps_per_step_unit=1.0,
                          seed=engine_seed, backend="numpy", workers=workers)
    unchunked = run_workers_inline(graph, params)
    chunked = run_workers_inline(graph, params.with_(memory_budget=budget))
    np.testing.assert_array_equal(chunked.layout.coords,
                                  unchunked.layout.coords)


@given(
    merge=st.sampled_from(["hogwild", "accumulate", "last_writer"]),
    engine_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(deadline=None, max_examples=10)
def test_fused_serial_reference_equals_unfused(merge, engine_seed):
    """Single-term segments (the serial engine's plan) fuse identically too."""
    graph = _graph_for(0, 16, 2, 10, 0)
    params = LayoutParams(iter_max=2, steps_per_step_unit=1.0,
                          seed=engine_seed, merge_policy=merge,
                          backend="numpy")
    unfused = PerBatchRun(SerialReferenceEngine(graph, params)).run()
    fused = SerialReferenceEngine(graph, params).run()
    np.testing.assert_array_equal(fused.layout.coords, unfused.layout.coords)
