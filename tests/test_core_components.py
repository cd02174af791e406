"""Tests for layout params, schedule, layout state, selection and updates."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LayoutParams,
    Layout,
    NodeDataLayout,
    PairSampler,
    UpdateWorkspace,
    batch_stress,
    compute_displacements,
    distance_bounds,
    draw_segment,
    initialize_layout,
    make_schedule,
    merge_batch,
    node_record_addresses,
    prepare_block,
    zipf_hop_distances,
)
from repro.core.selection import DrawRecipe, SelectionArrays
from repro.prng import Xoshiro256Plus


class TestParams:
    def test_defaults_match_paper(self):
        p = LayoutParams()
        assert p.iter_max == 30
        assert p.steps_per_step_unit == 10.0
        assert p.cooling_start == 0.5

    def test_steps_per_iteration(self):
        p = LayoutParams(steps_per_step_unit=10.0)
        assert p.steps_per_iteration(1000) == 10000
        assert p.steps_per_iteration(0) == p.min_term_updates

    def test_first_cooling_iteration(self):
        p = LayoutParams(iter_max=30, cooling_start=0.5)
        assert p.first_cooling_iteration() == 15

    def test_with_replaces_fields(self):
        p = LayoutParams().with_(iter_max=5, seed=1)
        assert p.iter_max == 5 and p.seed == 1
        assert LayoutParams().iter_max == 30

    @pytest.mark.parametrize("kwargs", [
        {"iter_max": 0},
        {"steps_per_step_unit": 0},
        {"eps": 0},
        {"cooling_start": 1.5},
        {"zipf_theta": -1},
        {"zipf_space_max": 0},
        {"simulated_threads": 0},
        {"workers": 0},
        {"batch_size": 0},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            LayoutParams(**kwargs)


class TestSchedule:
    def test_distance_bounds(self, tiny_graph):
        d_min, d_max = distance_bounds(tiny_graph)
        assert d_min >= 1.0
        assert d_max >= d_min
        # Longest path spans 15 nucleotides.
        assert d_max == 15.0

    def test_schedule_monotone_decreasing(self, small_synthetic):
        p = LayoutParams(iter_max=20)
        sched = make_schedule(small_synthetic, p)
        assert sched.shape == (20,)
        assert np.all(np.diff(sched) < 0)

    def test_schedule_endpoints(self, small_synthetic):
        p = LayoutParams(iter_max=10, eps=0.05)
        d_min, d_max = distance_bounds(small_synthetic)
        sched = make_schedule(small_synthetic, p)
        assert sched[0] == pytest.approx(d_max ** 2)
        assert sched[-1] == pytest.approx(p.eps * d_min ** 2, rel=1e-6)

    def test_single_iteration_schedule(self, tiny_graph):
        sched = make_schedule(tiny_graph, LayoutParams(iter_max=1))
        assert sched.shape == (1,)

    def test_eta_max_override(self, tiny_graph):
        sched = make_schedule(tiny_graph, LayoutParams(iter_max=5, eta_max=100.0))
        assert sched[0] == pytest.approx(100.0)


class TestLayoutState:
    def test_initialize_shape_and_positions(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=1)
        assert layout.coords.shape == (10, 2)
        # Node 0's start X is its first path position (0); end X adds its length.
        assert layout.coords[0, 0] == pytest.approx(0.0)
        assert layout.coords[1, 0] == pytest.approx(3.0)

    def test_initialize_unvisited_nodes(self):
        from repro.graph import LeanGraph
        g = LeanGraph.from_paths([2, 2, 2], [[0, 1]])
        layout = initialize_layout(g, seed=0)
        # Unvisited node 2 is placed past the visited span.
        assert layout.coords[4, 0] > layout.coords[2, 0]

    def test_initialize_unvisited_nodes_clear_final_extent(self):
        from repro.graph import LeanGraph
        # Node 0 (length 5) is the only on-path node; path-less node 1
        # (length 2) must start past node 0's *end* (x=5), not its step
        # start (x=0) — the seed placed it at x=2, inside node 0's segment.
        g = LeanGraph.from_paths([5, 2], [[0]])
        layout = initialize_layout(g, seed=0)
        on_path_end_x = layout.coords[1, 0]
        appended_start_x = layout.coords[2, 0]
        assert on_path_end_x == pytest.approx(5.0)
        assert appended_start_x >= on_path_end_x

    def test_initialize_unvisited_nodes_do_not_overlap_each_other(self):
        from repro.graph import LeanGraph
        # A longer path-less node followed by a shorter one: with an
        # inclusive prefix sum node 2 would land inside node 1's segment.
        g = LeanGraph.from_paths([3, 5, 2], [[0]])
        layout = initialize_layout(g, seed=0)
        spans = [(layout.coords[2 * n, 0], layout.coords[2 * n + 1, 0])
                 for n in range(3)]
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert start_b >= end_a

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Layout(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Layout(np.zeros((4, 3)))

    def test_views_and_segment(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        assert layout.start_points().shape == (5, 2)
        assert layout.end_points().shape == (5, 2)
        s, e = layout.node_segment(2)
        assert s.shape == (2,) and e.shape == (2,)

    def test_bounding_box(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        min_x, min_y, max_x, max_y = layout.bounding_box()
        assert min_x <= max_x and min_y <= max_y

    def test_aos_round_trip(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=3)
        aos = layout.to_aos_array(tiny_graph.node_lengths)
        assert aos.shape == (5, 5)
        back = Layout.from_aos_array(aos)
        assert np.allclose(back.coords, layout.coords)
        # A layout rebuilt from packed AoS records carries the AoS tag.
        assert back.data_layout == NodeDataLayout.AOS

    def test_aos_requires_matching_lengths(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=3)
        with pytest.raises(ValueError):
            layout.to_aos_array(np.ones(3))

    def test_copy_independent(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        clone = layout.copy()
        clone.coords += 1.0
        assert not np.allclose(clone.coords, layout.coords)

    def test_with_data_layout(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        aos = layout.with_data_layout(NodeDataLayout.AOS)
        assert aos.data_layout == NodeDataLayout.AOS
        assert np.allclose(aos.coords, layout.coords)


class TestNodeRecordAddresses:
    def test_aos_addresses_within_one_record(self):
        addrs = node_record_addresses(np.array([7]), np.array([1]),
                                      NodeDataLayout.AOS, n_nodes=100)
        assert addrs.shape == (1, 3)
        span = addrs.max() - addrs.min()
        assert span < 5 * 8  # all fields inside the 40-byte record

    def test_soa_addresses_spread_across_arrays(self):
        addrs = node_record_addresses(np.array([7]), np.array([0]),
                                      NodeDataLayout.SOA, n_nodes=100)
        span = addrs.max() - addrs.min()
        assert span > 100 * 8  # length / X / Y arrays are far apart

    def test_endpoint_changes_address(self):
        a0 = node_record_addresses(np.array([3]), np.array([0]), NodeDataLayout.AOS, 10)
        a1 = node_record_addresses(np.array([3]), np.array([1]), NodeDataLayout.AOS, 10)
        assert a0[0, 1] != a1[0, 1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            node_record_addresses(np.array([1, 2]), np.array([0]), NodeDataLayout.AOS, 10)


class TestZipf:
    def test_bounds(self, rng):
        hops = zipf_hop_distances(rng.random(5000), theta=0.99, space_max=100)
        assert hops.min() >= 1
        assert hops.max() <= 100

    def test_small_hops_dominate(self, rng):
        hops = zipf_hop_distances(rng.random(20000), theta=0.99, space_max=1000)
        # A uniform draw would put only 1% of mass on hops <= 10 and ~63% on
        # hops in the largest decade; the Zipf distribution concentrates mass
        # on short hops instead.
        assert (hops <= 10).mean() > 0.25
        assert (hops > 500).mean() < 0.15

    def test_space_max_one(self, rng):
        hops = zipf_hop_distances(rng.random(100), theta=1.0, space_max=1)
        assert np.all(hops == 1)

    def test_theta_one_exact_branch(self, rng):
        hops = zipf_hop_distances(rng.random(1000), theta=1.0, space_max=50)
        assert hops.min() >= 1 and hops.max() <= 50

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_hop_distances(np.array([0.5]), theta=0.9, space_max=0)
        with pytest.raises(ValueError):
            zipf_hop_distances(np.array([0.5]), theta=0, space_max=10)


class TestPairSampler:
    def _sampler(self, graph, **kwargs):
        params = LayoutParams(**kwargs) if kwargs else LayoutParams()
        return PairSampler(graph, params), Xoshiro256Plus(0, n_streams=256)

    def test_batch_fields_consistent(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        batch = draw_segment(sampler, rng, 512, 0)
        assert len(batch) == 512
        # Nodes must match the steps they were derived from.
        assert np.array_equal(batch.node_i, small_synthetic.step_nodes[batch.flat_i])
        assert np.array_equal(batch.node_j, small_synthetic.step_nodes[batch.flat_j])
        # Both steps must belong to the selected path.
        offsets = small_synthetic.path_offsets
        assert np.all(batch.flat_i >= offsets[batch.path])
        assert np.all(batch.flat_i < offsets[batch.path + 1])
        assert np.all(batch.flat_j >= offsets[batch.path])
        assert np.all(batch.flat_j < offsets[batch.path + 1])

    def test_d_ref_matches_positions(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        batch = draw_segment(sampler, rng, 256, 0)
        expected = np.abs(
            small_synthetic.step_positions[batch.flat_i]
            - small_synthetic.step_positions[batch.flat_j]
        )
        assert np.array_equal(batch.d_ref, expected.astype(float))

    def test_endpoints_binary(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        batch = draw_segment(sampler, rng, 256, 0)
        assert set(np.unique(batch.vis_i)) <= {0, 1}
        assert set(np.unique(batch.vis_j)) <= {0, 1}

    def test_cooling_always_in_second_half(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic, iter_max=10)
        late = draw_segment(sampler, rng, 256, 9)
        assert np.all(late.in_cooling)

    def test_cooling_mixed_in_first_half(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic, iter_max=10)
        early = draw_segment(sampler, rng, 2048, 0)
        frac = early.in_cooling.mean()
        assert 0.3 < frac < 0.7

    def test_cooling_pairs_are_closer(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic, zipf_space_max=50)
        draws = rng.next_double_block(8 * 8).reshape(8, 2048)
        cool = sampler.select_from_uniforms(
            draws, 2048, 0, cooling_mask=np.ones(2048, dtype=bool))
        hot = sampler.select_from_uniforms(
            draws, 2048, 0, cooling_mask=np.zeros(2048, dtype=bool))
        hop_cool = np.abs(cool.flat_i - cool.flat_j)
        hop_hot = np.abs(hot.flat_i - hot.flat_j)
        assert np.median(hop_cool) < np.median(hop_hot)

    def test_cooling_mask_override(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        mask = np.zeros(128, dtype=bool)
        mask[::2] = True
        draws = rng.next_double_block(8)[:, :128]
        batch = sampler.select_from_uniforms(draws, 128, 0, cooling_mask=mask)
        assert np.array_equal(batch.in_cooling, mask)

    def test_path_override(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        override = np.full(64, 2, dtype=np.int64)
        draws = rng.next_double_block(8)[:, :64]
        batch = sampler.select_from_uniforms(draws, 64, 0, path_override=override)
        assert np.all(batch.path == 2)

    def test_fixed_hop_sampler(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        batch = draw_segment(sampler, rng, 256, 0, DrawRecipe(hop=10))
        hop = np.abs(batch.flat_i - batch.flat_j)
        assert np.all(hop <= 10)
        assert np.median(hop) == 10

    def test_batch_slice_returns_views(self, small_synthetic):
        sampler, rng = self._sampler(small_synthetic)
        batch = draw_segment(sampler, rng, 32, 0)
        part = batch.slice(4, 12)
        assert len(part) == 8
        assert part.node_i.base is batch.node_i
        np.testing.assert_array_equal(part.d_ref, batch.d_ref[4:12])

    def test_empty_graph_rejected(self):
        from repro.graph import LeanGraph
        empty = LeanGraph.from_paths([1, 1], [])
        with pytest.raises(ValueError):
            PairSampler(empty, LayoutParams())

    @pytest.mark.parametrize("recipe", [
        dict(),                                       # stock (CPU, batched)
        dict(warp=32),                                # warp merging
        dict(warp=32, warp_paths=True, reuse=2),      # data reuse
        dict(hop=3),                                  # fixed hop
    ], ids=["stock", "warp-merging", "data-reuse", "hop"])
    def test_from_arrays_selects_like_the_graph_built_sampler(
            self, small_synthetic, recipe):
        """A sampler over bare copies of the selection arrays (what a
        shared-memory worker builds) selects the graph-built sampler's
        terms byte for byte, data reuse included."""
        params = LayoutParams(iter_max=10)
        built = PairSampler(small_synthetic, params)
        bare = PairSampler.from_arrays(
            SelectionArrays(*(a.copy() for a in built.arrays)), params)
        for iteration in (0, 9):
            terms = []
            for sampler in (built, bare):
                r = DrawRecipe(**recipe)
                batch = draw_segment(sampler, Xoshiro256Plus(5, n_streams=64),
                                     200, iteration, r)
                if r.reuse > 1:
                    batch = sampler.warp_shuffle(batch, [200], r)
                terms.append((batch, r.cooling_sum))
            (got, got_cooling), (expect, expect_cooling) = terms[1], terms[0]
            assert got_cooling == expect_cooling
            for name in ("path", "flat_i", "flat_j", "node_i", "node_j",
                         "vis_i", "vis_j", "d_ref", "in_cooling"):
                a, b = getattr(got, name), getattr(expect, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestUpdates:
    def test_single_term_moves_points_toward_reference(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        coords = layout.coords
        sampler = PairSampler(tiny_graph, LayoutParams())
        rng = Xoshiro256Plus(3, n_streams=8)
        batch = draw_segment(sampler, rng, 8, 0)
        before = batch_stress(coords, batch)
        merge_batch(coords, batch, 1.0, "hogwild", UpdateWorkspace(8))
        after = batch_stress(coords, batch)
        assert after <= before

    def test_displacements_antisymmetric(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=0)
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(1, n_streams=64)
        batch = draw_segment(sampler, rng, 64, 0)
        ws = UpdateWorkspace(64)
        block = prepare_block(batch, 0.5, ws)
        pi, pj, delta = compute_displacements(layout.coords, block, 0, ws)
        assert pi.shape == pj.shape == (64,)
        assert delta.shape == (64, 2)
        # Zero-reference terms get zero displacement.
        assert np.all(delta[batch.d_ref <= 0] == 0)

    def test_merge_policies_touch_same_points(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(5, n_streams=128)
        batch = draw_segment(sampler, rng, 128, 0)
        base = initialize_layout(small_synthetic, seed=2).coords
        results = {}
        for merge in ("hogwild", "accumulate", "last_writer"):
            coords = base.copy()
            merge_batch(coords, batch, 0.5, merge, UpdateWorkspace(128))
            results[merge] = coords
        # All policies move the layout somewhere (but not necessarily equally).
        for merge, coords in results.items():
            assert not np.allclose(coords, base), merge

    def test_invalid_merge_policy(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(5, n_streams=16)
        batch = draw_segment(sampler, rng, 16, 0)
        coords = initialize_layout(small_synthetic).coords
        before = coords.copy()
        with pytest.raises(ValueError, match="merge policy"):
            merge_batch(coords, batch, 0.1, "bogus", UpdateWorkspace(16))
        np.testing.assert_array_equal(coords, before)

    def test_empty_batch_rejected(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(5, n_streams=16)
        empty = draw_segment(sampler, rng, 16, 0).slice(0, 0)
        coords = initialize_layout(small_synthetic).coords
        before = coords.copy()
        with pytest.raises(ValueError, match="equal segments"):
            merge_batch(coords, empty, 0.1, "hogwild", UpdateWorkspace(4))
        np.testing.assert_array_equal(coords, before)

    def test_mu_cap_prevents_overshoot(self, tiny_graph):
        # With a huge learning rate a single term must not overshoot past the
        # reference distance by more than the pre-update error.
        layout = initialize_layout(tiny_graph, seed=0)
        coords = layout.coords
        sampler = PairSampler(tiny_graph, LayoutParams())
        rng = Xoshiro256Plus(7, n_streams=1)
        batch = draw_segment(sampler, rng, 1, 0)
        assert batch.d_ref[0] > 0
        pi = 2 * batch.node_i + batch.vis_i
        pj = 2 * batch.node_j + batch.vis_j
        before_err = abs(np.linalg.norm(coords[pi] - coords[pj]) - batch.d_ref[0])
        merge_batch(coords, batch, 1e12, "hogwild", UpdateWorkspace(1))
        after_err = abs(np.linalg.norm(coords[pi] - coords[pj]) - batch.d_ref[0])
        assert after_err <= before_err + 1e-6
