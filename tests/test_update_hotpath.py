"""Hot-path regression tests: O(batch) merges, workspace reuse, bulk draws.

The reworked ``apply_batch`` compacts over the touched points instead of
allocating graph-sized scratch per batch; these tests pin its numerical
equivalence (within 1e-9) to the seed implementation for every merge policy,
the collision counters, the degenerate cases, and the sampler's single-loop
bulk uniform draw (byte-identical to the historical nested-loop draw order).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LayoutParams,
    PairSampler,
    StepBatch,
    UpdateWorkspace,
    apply_batch,
    compact_points,
    compute_displacements,
    initialize_layout,
    prepare_block,
    split_into_batches,
)
from repro.core.updates import _MIN_DISTANCE
from repro.prng import Xoshiro256Plus


# --------------------------------------------------------------------------
# Seed (pre-rework) reference implementations, kept verbatim for equivalence.
# --------------------------------------------------------------------------

def seed_apply_batch(coords, batch, eta, merge):
    """The original full-array implementation of apply_batch's write merge."""
    d_ref = batch.d_ref
    valid = d_ref > 0
    d_safe = np.where(valid, d_ref, 1.0)
    mu = np.minimum(eta / (d_safe * d_safe), 1.0)
    point_i = 2 * batch.node_i + batch.vis_i
    point_j = 2 * batch.node_j + batch.vis_j
    diff = coords[point_i] - coords[point_j]
    mag = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    mag_safe = np.maximum(mag, _MIN_DISTANCE)
    delta_scalar = np.where(valid, mu * (mag - d_safe) / 2.0, 0.0)
    unit = diff / mag_safe[:, None]
    coincident = mag < _MIN_DISTANCE
    if np.any(coincident):
        unit[coincident] = np.array([1.0, 0.0])
    delta = unit * delta_scalar[:, None]
    all_points = np.concatenate([point_i, point_j])
    all_deltas = np.concatenate([-delta, delta])
    n_collisions = int(all_points.size - np.unique(all_points).size)
    if merge == "accumulate":
        np.add.at(coords, all_points, all_deltas)
    elif merge == "hogwild":
        summed = np.zeros_like(coords)
        counts = np.zeros(coords.shape[0], dtype=np.float64)
        np.add.at(summed, all_points, all_deltas)
        np.add.at(counts, all_points, 1.0)
        touched = counts > 0
        coords[touched] += summed[touched] / counts[touched, None]
    else:
        reversed_points = all_points[::-1]
        _, first_in_reversed = np.unique(reversed_points, return_index=True)
        keep = all_points.size - 1 - first_in_reversed
        coords[all_points[keep]] += all_deltas[keep]
    return n_collisions


def seed_uniforms(rng, batch_size, n_vectors):
    """The original nested-loop _uniforms (defines the draw-order contract)."""
    first = np.asarray(rng.next_double(), dtype=np.float64)
    n_streams = first.size
    need_calls = int(np.ceil(batch_size / n_streams))
    rows = np.empty((n_vectors, need_calls * n_streams), dtype=np.float64)
    rows[0, :n_streams] = first
    for c in range(1, need_calls):
        rows[0, c * n_streams:(c + 1) * n_streams] = rng.next_double()
    for v in range(1, n_vectors):
        for c in range(need_calls):
            rows[v, c * n_streams:(c + 1) * n_streams] = rng.next_double()
    return rows[:, :batch_size]


def make_batch(node_i, node_j, vis_i, vis_j, d_ref):
    n = len(node_i)
    return StepBatch(
        path=np.zeros(n, dtype=np.int64),
        flat_i=np.zeros(n, dtype=np.int64),
        flat_j=np.zeros(n, dtype=np.int64),
        node_i=np.asarray(node_i, dtype=np.int64),
        node_j=np.asarray(node_j, dtype=np.int64),
        vis_i=np.asarray(vis_i, dtype=np.int64),
        vis_j=np.asarray(vis_j, dtype=np.int64),
        d_ref=np.asarray(d_ref, dtype=np.float64),
        in_cooling=np.zeros(n, dtype=bool),
    )


MERGES = ("hogwild", "accumulate", "last_writer")


class TestMergeEquivalence:
    @pytest.mark.parametrize("merge", MERGES)
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
    def test_matches_seed_implementation(self, small_synthetic, merge, batch_size):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(11, n_streams=64)
        batch = sampler.sample(rng, batch_size, iteration=0)
        base = initialize_layout(small_synthetic, seed=4).coords
        expected = base.copy()
        seed_collisions = seed_apply_batch(expected, batch, 0.7, merge)
        got = base.copy()
        stats = apply_batch(got, batch, 0.7, merge=merge)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert stats.n_point_collisions == seed_collisions

    @pytest.mark.parametrize("merge", MERGES)
    def test_heavily_colliding_batch(self, merge):
        # Every term hits the same two points: maximal collisions.
        n = 32
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [5.0, 0.0], [6.0, 1.0]])
        batch = make_batch([0] * n, [1] * n, [0] * n, [1] * n, [2.0] * n)
        expected = coords.copy()
        seed_collisions = seed_apply_batch(expected, batch, 1.0, merge)
        got = coords.copy()
        stats = apply_batch(got, batch, 1.0, merge=merge)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert stats.n_point_collisions == seed_collisions == 2 * n - 2

    @pytest.mark.parametrize("merge", MERGES)
    def test_coincident_points_get_degeneracy_nudge(self, merge):
        # Both endpoints at the same location: the x-nudge branch fires.
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        batch = make_batch([0, 0], [1, 1], [0, 1], [0, 1], [3.0, 3.0])
        expected = coords.copy()
        seed_apply_batch(expected, batch, 1.0, merge)
        got = coords.copy()
        apply_batch(got, batch, 1.0, merge=merge)
        np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)
        assert not np.allclose(got, coords)

    @pytest.mark.parametrize("merge", MERGES)
    def test_zero_reference_terms_do_not_move(self, merge):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        batch = make_batch([0], [1], [0], [0], [0.0])
        got = coords.copy()
        stats = apply_batch(got, batch, 1.0, merge=merge)
        np.testing.assert_array_equal(got, coords)
        assert stats.n_zero_ref == 1

    def test_empty_batch_with_workspace(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(5, n_streams=16)
        batch = sampler.sample(rng, 16, iteration=0)
        empty = StepBatch(**{k: getattr(batch, k)[:0] for k in (
            "path", "flat_i", "flat_j", "node_i", "node_j",
            "vis_i", "vis_j", "d_ref", "in_cooling")})
        coords = initialize_layout(small_synthetic).coords
        before = coords.copy()
        stats = apply_batch(coords, empty, 0.1, workspace=UpdateWorkspace(4))
        assert stats.n_terms == 0
        np.testing.assert_array_equal(coords, before)


class TestWorkspace:
    def test_workspace_and_default_paths_agree(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(3, n_streams=128)
        batch = sampler.sample(rng, 128, iteration=0)
        base = initialize_layout(small_synthetic, seed=1).coords
        for merge in MERGES:
            with_ws = base.copy()
            without = base.copy()
            ws = UpdateWorkspace(128)
            s1 = apply_batch(with_ws, batch, 0.5, merge=merge, workspace=ws)
            s2 = apply_batch(without, batch, 0.5, merge=merge)
            np.testing.assert_array_equal(with_ws, without)
            assert s1 == s2

    def test_workspace_reused_across_batches(self, small_synthetic):
        # The same buffers back successive calls: no steady-state growth.
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=64)
        coords = initialize_layout(small_synthetic, seed=2).coords
        ws = UpdateWorkspace(64)
        buffers = (ws.merge_points, ws.merge_delta, ws.term_delta)
        for _ in range(4):
            batch = sampler.sample(rng, 64, iteration=0)
            apply_batch(coords, batch, 0.3, workspace=ws)
        assert (ws.merge_points, ws.merge_delta, ws.term_delta) == buffers

    def test_workspace_grows_on_demand(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=64)
        ws = UpdateWorkspace(8)
        batch = sampler.sample(rng, 200, iteration=0)
        coords = initialize_layout(small_synthetic, seed=2).coords
        apply_batch(coords, batch, 0.3, workspace=ws)
        assert ws.max_batch >= 200

    def test_displacement_views_come_from_workspace(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(9, n_streams=32)
        batch = sampler.sample(rng, 32, iteration=0)
        coords = initialize_layout(small_synthetic, seed=2).coords
        ws = UpdateWorkspace(32)
        block = prepare_block(batch, 0.5, ws)
        _, _, delta = compute_displacements(coords, block, 0, ws)
        assert delta.base is ws.term_delta


class TestCompactPoints:
    def test_compaction_matches_unique(self):
        points = np.array([5, 3, 5, 9, 3, 5])
        uniq, inverse, counts = compact_points(points)
        np.testing.assert_array_equal(uniq, [3, 5, 9])
        np.testing.assert_array_equal(uniq[inverse], points)
        np.testing.assert_array_equal(counts, [2, 3, 1])

    def test_collision_free_batch(self):
        uniq, inverse, counts = compact_points(np.array([1, 2, 3]))
        assert uniq.size == 3
        assert np.all(counts == 1)


class TestSplitIntoBatches:
    def test_even_and_remainder(self):
        assert split_into_batches(10, 4) == [4, 4, 2]
        assert split_into_batches(8, 4) == [4, 4]

    def test_chunk_clamped(self):
        assert split_into_batches(3, 100) == [3]
        assert split_into_batches(3, 0) == [1, 1, 1]

    def test_empty(self):
        assert split_into_batches(0, 4) == []


class TestBulkUniforms:
    @pytest.mark.parametrize("n_streams", [1, 3, 64, 256])
    @pytest.mark.parametrize("batch_size", [1, 5, 63, 64, 65, 256, 300])
    def test_matches_seed_draw_order(self, n_streams, batch_size):
        r_new = Xoshiro256Plus(7, n_streams=n_streams)
        r_old = Xoshiro256Plus(7, n_streams=n_streams)
        got = PairSampler._uniforms(r_new, batch_size, 8)
        # The historical scheme: a 6-vector draw followed by a 2-vector draw.
        expected = np.vstack([seed_uniforms(r_old, batch_size, 6),
                              seed_uniforms(r_old, batch_size, 2)])
        np.testing.assert_array_equal(got, expected)
        # Both consumed the exact same number of PRNG calls.
        np.testing.assert_array_equal(r_new.state, r_old.state)

    def test_shape_and_range(self):
        rng = Xoshiro256Plus(1, n_streams=16)
        block = PairSampler._uniforms(rng, 40, 3)
        assert block.shape == (3, 40)
        assert np.all((block >= 0.0) & (block < 1.0))

    def test_single_stream_single_term(self):
        rng = Xoshiro256Plus(2, n_streams=1)
        block = PairSampler._uniforms(rng, 1, 2)
        assert block.shape == (2, 1)

    def test_more_streams_than_batch(self):
        rng = Xoshiro256Plus(2, n_streams=512)
        block = PairSampler._uniforms(rng, 10, 4)
        assert block.shape == (4, 10)

    def test_invalid_sizes_rejected(self):
        rng = Xoshiro256Plus(2, n_streams=4)
        with pytest.raises(ValueError):
            PairSampler._uniforms(rng, 0, 2)
        with pytest.raises(ValueError):
            PairSampler._uniforms(rng, 4, 0)

    def test_uniforms_block_fill_matches_per_call_fallback(self):
        """The next_double_block fast path equals the per-call legacy fill.

        ``_uniforms`` consults ``n_streams``/``next_double_block`` when the
        generator has them; a minimal next_double-only generator takes the
        historical loop. Both must consume the streams identically — this is
        the draw-order contract that keeps the smoke baseline pinned.
        """

        class CallOnly:
            def __init__(self, inner):
                self.inner = inner

            def next_double(self):
                return self.inner.next_double()

        for n_streams, batch in ((1, 9), (16, 40), (64, 64), (64, 130)):
            fast = Xoshiro256Plus(31, n_streams=n_streams)
            legacy = CallOnly(Xoshiro256Plus(31, n_streams=n_streams))
            got = PairSampler._uniforms(fast, batch, 8)
            expect = PairSampler._uniforms(legacy, batch, 8)
            np.testing.assert_array_equal(got, expect)
            np.testing.assert_array_equal(fast.state, legacy.inner.state)

    def test_sample_unchanged_by_call_merging(self, small_synthetic):
        """sample()'s one 8-vector draw equals the historical 6+2 split."""
        sampler = PairSampler(small_synthetic, LayoutParams())
        rng = Xoshiro256Plus(13, n_streams=64)
        reference = Xoshiro256Plus(13, n_streams=64)
        batch = sampler.sample(rng, 100, iteration=0)
        draws = seed_uniforms(reference, 100, 6)
        vis = seed_uniforms(reference, 100, 2)
        np.testing.assert_array_equal(
            batch.path, sampler.index.sample_paths(draws[0]))
        np.testing.assert_array_equal(batch.vis_i, (vis[0] < 0.5).astype(np.int64))
        np.testing.assert_array_equal(batch.vis_j, (vis[1] < 0.5).astype(np.int64))
        np.testing.assert_array_equal(rng.state, reference.state)
