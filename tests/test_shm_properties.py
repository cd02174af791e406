"""Property-based tests (hypothesis) for the worker decomposition.

The multi-worker runs here go through ``run_workers_inline`` — the
deterministic in-process serialisation of the hogwild race — so the
properties quantify the *decomposition* (plan slicing, appended streams,
per-worker fused plans) without inheriting OS scheduler noise.
"""
from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CpuBaselineEngine, LayoutParams
from repro.core.fused import slice_plan
from repro.graph import LeanGraph
from repro.metrics import sampled_path_stress
from repro.parallel.shm import run_workers_inline, worker_stream_states
from repro.prng import Xoshiro256Plus

settings.register_profile(
    "repro-shm", deadline=None, max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro-shm")


@st.composite
def batch_plans(draw):
    """Realistic plans: uniform chunks plus an optional remainder."""
    chunk = draw(st.integers(min_value=1, max_value=256))
    full = draw(st.integers(min_value=1, max_value=40))
    rem = draw(st.integers(min_value=0, max_value=chunk - 1))
    return [chunk] * full + ([rem] if rem else [])


@st.composite
def layout_graphs(draw):
    """Random small lean graphs with enough steps to drive a layout."""
    n_nodes = draw(st.integers(min_value=4, max_value=30))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=20),
                            min_size=n_nodes, max_size=n_nodes))
    n_paths = draw(st.integers(min_value=1, max_value=4))
    paths = []
    for _ in range(n_paths):
        length = draw(st.integers(min_value=3, max_value=25))
        path = draw(st.lists(st.integers(min_value=0, max_value=n_nodes - 1),
                             min_size=length, max_size=length))
        paths.append(path)
    return LeanGraph.from_paths(lengths, paths)


class TestSlicePlanProperties:
    @given(batch_plans(), st.integers(min_value=1, max_value=12))
    def test_partition_exact(self, plan, workers):
        parts = slice_plan(plan, workers)
        assert sum(parts, []) == plan          # contiguous, order-preserving
        assert len(parts) == min(workers, len(plan))
        assert all(parts)                      # every worker gets work

    @given(batch_plans(), st.integers(min_value=1, max_value=12))
    def test_no_part_exceeds_fair_share_by_one_segment(self, plan, workers):
        parts = slice_plan(plan, workers)
        fair = sum(plan) / len(parts)
        assert max(sum(p) for p in parts) <= fair + max(plan)


class TestWorkerStreamProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=6))
    def test_streams_unique_and_worker0_invariant(self, seed, n_streams,
                                                  workers):
        base = Xoshiro256Plus(seed, n_streams=n_streams)
        states = worker_stream_states(
            Xoshiro256Plus(seed, n_streams=n_streams), workers, seed)
        assert len(states) == workers
        np.testing.assert_array_equal(states[0], base.state)
        stacked = np.vstack(states)
        assert len({tuple(r) for r in stacked.tolist()}) == stacked.shape[0]


class TestWorkerLayoutQuality:
    @given(layout_graphs(), st.integers(min_value=2, max_value=4))
    def test_n_worker_layout_within_tolerance_of_serial(self, graph, workers):
        params = LayoutParams(iter_max=5, steps_per_step_unit=1.5, seed=42)
        serial = CpuBaselineEngine(graph, params).run()
        parallel = run_workers_inline(graph, params.with_(workers=workers))
        assert parallel.total_terms == serial.total_terms
        assert np.all(np.isfinite(parallel.layout.coords))
        s_serial = sampled_path_stress(serial.layout, graph,
                                       samples_per_step=8, seed=1).value
        s_parallel = sampled_path_stress(parallel.layout, graph,
                                         samples_per_step=8, seed=1).value
        # Hogwild decomposition may not land on the identical layout, but it
        # must stay in the same quality regime as the serial optimisation
        # (paper Sec. III-A); the band is generous because tiny random
        # graphs are noisy at this iteration budget.
        assert s_parallel <= 5.0 * s_serial + 0.05
