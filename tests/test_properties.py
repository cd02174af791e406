"""Property-based tests (hypothesis) on core data structures and invariants."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import format_hms, geometric_mean
from repro.core import (
    LayoutParams,
    PairSampler,
    UpdateWorkspace,
    draw_segment,
    initialize_layout,
    make_schedule,
    merge_batch,
    zipf_hop_distances,
)
from repro.core.layout import Layout, NodeDataLayout, node_record_addresses
from repro.graph import LeanGraph
from repro.gpusim import merge_branch_decisions, sectors_for_request, simulate_warp_execution
from repro.io import read_lay, write_lay
from repro.metrics import path_stress, sampled_path_stress
from repro.prng import Xoshiro256Plus, seed_streams
import io


# ---------------------------------------------------------------- strategies
@st.composite
def lean_graphs(draw):
    """Random small lean graphs: valid node lengths and same-node-set paths."""
    n_nodes = draw(st.integers(min_value=2, max_value=40))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=50),
                            min_size=n_nodes, max_size=n_nodes))
    n_paths = draw(st.integers(min_value=1, max_value=5))
    paths = []
    for _ in range(n_paths):
        length = draw(st.integers(min_value=2, max_value=30))
        path = draw(st.lists(st.integers(min_value=0, max_value=n_nodes - 1),
                             min_size=length, max_size=length))
        paths.append(path)
    return LeanGraph.from_paths(lengths, paths)


settings.register_profile(
    "repro", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


class TestGraphProperties:
    @given(lean_graphs())
    def test_step_positions_monotone_per_path(self, graph):
        for p in range(graph.n_paths):
            sl = graph.path_steps(p)
            assert np.all(np.diff(graph.step_positions[sl]) >= 0)

    @given(lean_graphs())
    def test_positions_consistent_with_lengths(self, graph):
        for p in range(graph.n_paths):
            sl = graph.path_steps(p)
            nodes = graph.step_nodes[sl]
            expected = np.concatenate(([0], np.cumsum(graph.node_lengths[nodes])[:-1]))
            assert np.array_equal(graph.step_positions[sl], expected)

    @given(lean_graphs())
    def test_offsets_partition_steps(self, graph):
        assert graph.path_offsets[0] == 0
        assert graph.path_offsets[-1] == graph.total_steps
        assert int(graph.path_step_counts.sum()) == graph.total_steps


class TestSamplerProperties:
    @given(lean_graphs(), st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_sampled_pairs_share_a_path(self, graph, batch_size, seed):
        params = LayoutParams(seed=seed)
        sampler = PairSampler(graph, params)
        rng = Xoshiro256Plus(seed, n_streams=64)
        batch = draw_segment(sampler, rng, batch_size, 0)
        offsets = graph.path_offsets
        assert np.all(batch.flat_i >= offsets[batch.path])
        assert np.all(batch.flat_i < offsets[batch.path + 1])
        assert np.all(batch.flat_j >= offsets[batch.path])
        assert np.all(batch.flat_j < offsets[batch.path + 1])
        assert np.all(batch.d_ref >= 0)
        assert np.all((batch.vis_i == 0) | (batch.vis_i == 1))

    @given(lean_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_update_preserves_finiteness(self, graph, seed):
        params = LayoutParams(seed=seed)
        layout = initialize_layout(graph, seed=seed)
        sampler = PairSampler(graph, params)
        rng = Xoshiro256Plus(seed, n_streams=64)
        sched = make_schedule(graph, params)
        batch = draw_segment(sampler, rng, 64, 0)
        merge_batch(layout.coords, batch, float(sched[0]), "hogwild",
                    UpdateWorkspace(64))
        assert np.all(np.isfinite(layout.coords))


class TestScheduleProperties:
    @given(lean_graphs(), st.integers(min_value=2, max_value=60))
    def test_schedule_positive_and_decreasing(self, graph, iters):
        sched = make_schedule(graph, LayoutParams(iter_max=iters))
        assert sched.shape == (iters,)
        assert np.all(sched > 0)
        assert np.all(np.diff(sched) <= 0)


class TestZipfProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                    min_size=1, max_size=200),
           st.floats(min_value=0.3, max_value=2.5),
           st.integers(min_value=1, max_value=5000))
    def test_zipf_in_range(self, uniforms, theta, space_max):
        hops = zipf_hop_distances(np.array(uniforms), theta, space_max)
        assert np.all(hops >= 1)
        assert np.all(hops <= space_max)


class TestMetricProperties:
    @given(lean_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_stress_non_negative_and_sampled_consistent(self, graph, seed):
        layout = initialize_layout(graph, seed=seed)
        exact = path_stress(layout, graph, max_pairs=200_000)
        sampled = sampled_path_stress(layout, graph, samples_per_step=30, seed=seed)
        assert exact >= 0
        assert sampled.value >= 0
        assert sampled.ci_low <= sampled.value <= sampled.ci_high

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=40),
           st.floats(min_value=0.25, max_value=20.0),
           st.integers(min_value=0, max_value=1000))
    def test_uniform_scaling_of_a_converged_layout_increases_stress(self, lengths, factor, seed):
        # Stress is zero-minimised at the correct distances: for a single-path
        # line graph whose layout places every node exactly at its path
        # position, the path stress is 0, and any uniform rescaling away from
        # the reference distances can only increase it.
        graph = LeanGraph.from_paths(lengths, [list(range(len(lengths)))])
        coords = np.zeros((2 * graph.n_nodes, 2))
        sl = graph.path_steps(0)
        for flat in range(sl.start, sl.stop):
            node = graph.step_nodes[flat]
            coords[2 * node] = (graph.step_positions[flat], 0.0)
            coords[2 * node + 1] = (graph.step_positions[flat], 0.0)
        base = Layout(coords)
        scaled = Layout(coords * factor)
        s_base = sampled_path_stress(base, graph, samples_per_step=20, seed=seed).value
        s_scaled = sampled_path_stress(scaled, graph, samples_per_step=20, seed=seed).value
        assert s_base == pytest.approx(0.0, abs=1e-12)
        assert s_scaled >= s_base - 1e-12


class TestAddressProperties:
    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=2, max_value=10_000))
    def test_aos_record_addresses_stay_in_record(self, n_requests, n_nodes):
        rng = np.random.default_rng(n_requests)
        nodes = rng.integers(0, n_nodes, size=n_requests)
        endpoints = rng.integers(0, 2, size=n_requests)
        addrs = node_record_addresses(nodes, endpoints, NodeDataLayout.AOS, n_nodes)
        record_start = nodes * 40
        assert np.all(addrs[:, 0] >= record_start)
        assert np.all(addrs.max(axis=1) < record_start + 40)

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=8, max_value=128))
    def test_sectors_bounded(self, n_threads, access_bytes, sector_bytes):
        rng = np.random.default_rng(n_threads * access_bytes)
        addrs = rng.integers(0, 1 << 20, size=n_threads)
        sectors = sectors_for_request(addrs, access_bytes, sector_bytes)
        max_possible = n_threads * (1 + (access_bytes - 1) // sector_bytes + 1)
        assert 1 <= sectors <= max_possible


class TestWarpProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=256),
           st.integers(min_value=1, max_value=64))
    def test_merged_decisions_uniform_per_warp(self, decisions, warp_size):
        arr = np.array(decisions, dtype=bool)
        merged = merge_branch_decisions(arr, warp_size)
        for start in range(0, arr.size, warp_size):
            chunk = merged[start:start + warp_size]
            assert np.all(chunk == chunk[0])

    @given(st.lists(st.booleans(), min_size=1, max_size=512))
    def test_merging_never_increases_instructions(self, decisions):
        arr = np.array(decisions, dtype=bool)
        plain = simulate_warp_execution(arr, warp_merging=False)
        merged = simulate_warp_execution(arr, warp_merging=True)
        assert merged.executed_instructions <= plain.executed_instructions
        assert merged.avg_active_threads >= plain.avg_active_threads - 1e-9


class TestRoundTripProperties:
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_lay_round_trip_arbitrary_coords(self, n_nodes, seed):
        rng = np.random.default_rng(seed)
        layout = Layout(rng.normal(0, 1e6, size=(2 * n_nodes, 2)))
        buf = io.BytesIO()
        write_lay(layout, buf)
        buf.seek(0)
        assert np.array_equal(read_lay(buf).coords, layout.coords)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_format_hms_parses_back(self, seconds):
        text = format_hms(seconds)
        h, m, s = text.split(":")
        assert int(h) * 3600 + int(m) * 60 + int(s) == seconds
        assert 0 <= int(m) < 60 and 0 <= int(s) < 60


class TestPrngProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=1, max_value=128))
    def test_seed_streams_shape_and_nonzero(self, seed, n):
        words = seed_streams(seed, n)
        assert words.shape == (n, 4)
        assert not np.any(np.all(words == 0, axis=1))

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=1_000_000))
    def test_next_below_always_in_range(self, seed, n_streams, bound):
        gen = Xoshiro256Plus(seed, n_streams=n_streams)
        vals = gen.next_below(bound)
        assert np.all((vals >= 0) & (vals < bound))

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=30))
    def test_geometric_mean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) * (1 - 1e-9) <= gm <= max(values) * (1 + 1e-9)
