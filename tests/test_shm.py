"""Process-parallel shared-memory engine: blocks, slicing, streams, runs, API.

The cross-engine byte-identity matrix lives in ``tests/test_conformance.py``
(``TestShmConformance``); this module covers the engine's building blocks
and the redesigned run API around it.
"""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import CpuBaselineEngine, LayoutParams, layout_graph, make_engine
from repro.core.fused import slice_plan
from repro.core.params import replace_params
from repro.parallel.hogwild import expected_collision_probability, measure_collisions
from repro.parallel.shm import (
    SharedArrayBlock,
    ShmHogwildEngine,
    resolve_start_method,
    run_workers_inline,
    worker_stream_states,
)
from repro.prng.xoshiro import Xoshiro256Plus


class TestSharedArrayBlock:
    def test_roundtrip_and_visibility(self):
        arrays = {
            "coords": np.arange(12, dtype=np.float64).reshape(6, 2),
            "ids": np.array([3, 1, 4], dtype=np.int64),
            "flags": np.array([True, False]),
        }
        block = SharedArrayBlock.create(arrays)
        try:
            attached = SharedArrayBlock.attach(block.name, block.manifest)
            try:
                for key, arr in arrays.items():
                    np.testing.assert_array_equal(attached.view(key), arr)
                # In-place writes through one mapping are visible in the other
                # (this is the hogwild write channel).
                attached.view("coords")[0, 0] = -7.5
                assert block.view("coords")[0, 0] == -7.5
            finally:
                attached.close()
        finally:
            block.close()
            block.unlink()

    def test_offsets_are_aligned(self):
        arrays = {"a": np.zeros(3, dtype=np.int8), "b": np.zeros(5, dtype=np.float64)}
        block = SharedArrayBlock.create(arrays)
        try:
            for _, _, _, offset in block.manifest:
                assert offset % 16 == 0
        finally:
            block.close()
            block.unlink()

    def test_unlink_removes_segment(self):
        block = SharedArrayBlock.create({"x": np.zeros(4)})
        name, manifest = block.name, block.manifest
        block.close()
        block.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArrayBlock.attach(name, manifest)

    def test_attach_side_never_unlinks(self):
        block = SharedArrayBlock.create({"x": np.arange(4.0)})
        try:
            attached = SharedArrayBlock.attach(block.name, block.manifest)
            attached.close()
            attached.unlink()  # non-owner: must be a no-op
            again = SharedArrayBlock.attach(block.name, block.manifest)
            np.testing.assert_array_equal(again.view("x"), np.arange(4.0))
            again.close()
        finally:
            block.close()
            block.unlink()


class TestSlicePlan:
    def test_workers1_is_identity(self):
        plan = [64, 64, 64, 17]
        assert slice_plan(plan, 1) == [plan]

    def test_partition_is_exact_and_contiguous(self):
        plan = [64] * 7 + [11]
        parts = slice_plan(plan, 3)
        assert sum(parts, []) == plan
        assert all(parts)

    def test_balanced_by_terms(self):
        plan = [64] * 10
        parts = slice_plan(plan, 2)
        shares = [sum(p) for p in parts]
        assert max(shares) / min(shares) <= 1.5

    def test_workers_clamped_to_segments(self):
        parts = slice_plan([5, 5], 8)
        assert parts == [[5], [5]]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            slice_plan([1], 0)


class TestWorkerStreams:
    def test_worker0_is_the_base_generator(self):
        base = Xoshiro256Plus(17, n_streams=8)
        states = worker_stream_states(base, 3, seed=17)
        np.testing.assert_array_equal(states[0],
                                      Xoshiro256Plus(17, n_streams=8).state)

    def test_streams_distinct_across_workers(self):
        base = Xoshiro256Plus(17, n_streams=8)
        states = worker_stream_states(base, 4, seed=17)
        stacked = np.vstack(states)
        assert len({tuple(row) for row in stacked.tolist()}) == stacked.shape[0]

    def test_derivation_is_seed_deterministic(self):
        a = worker_stream_states(Xoshiro256Plus(5, n_streams=4), 3, seed=5)
        b = worker_stream_states(Xoshiro256Plus(5, n_streams=4), 3, seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)

    def test_single_worker_shape(self):
        base = Xoshiro256Plus(1, n_streams=6)
        states = worker_stream_states(base, 1, seed=1)
        assert len(states) == 1 and states[0].shape == (6, 4)


class TestShmEngine:
    def test_workers1_byte_identical_to_flat(self, small_synthetic, fast_params):
        flat = CpuBaselineEngine(small_synthetic, fast_params).run()
        shm = ShmHogwildEngine(small_synthetic,
                               fast_params.with_(workers=1)).run()
        assert shm.total_terms == flat.total_terms
        np.testing.assert_array_equal(shm.layout.coords, flat.layout.coords)

    def test_two_workers_end_to_end(self, small_synthetic, fast_params):
        flat = CpuBaselineEngine(small_synthetic, fast_params).run()
        result = ShmHogwildEngine(small_synthetic,
                                  fast_params.with_(workers=2)).run()
        assert result.total_terms == flat.total_terms
        assert np.all(np.isfinite(result.layout.coords))
        assert result.counters["effective_workers"] == 2.0
        assert result.counters["parallel_setup_s"] > 0.0
        assert result.counters["parallel_iterate_s"] > 0.0
        assert result.wall_time_s > 0.0

    def test_spawn_start_method(self, small_synthetic, fast_params, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_START", "spawn")
        flat = CpuBaselineEngine(small_synthetic, fast_params).run()
        engine = ShmHogwildEngine(small_synthetic,
                                  fast_params.with_(workers=1))
        assert engine.start_method == "spawn"
        result = engine.run()
        np.testing.assert_array_equal(result.layout.coords, flat.layout.coords)

    def test_inline_matches_process_run_for_one_worker(self, small_synthetic,
                                                       fast_params):
        params = fast_params.with_(workers=1)
        proc = ShmHogwildEngine(small_synthetic, params).run()
        inline = run_workers_inline(small_synthetic, params)
        np.testing.assert_array_equal(inline.layout.coords, proc.layout.coords)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError):
            resolve_start_method("osthread")

    def test_seed_changes_two_worker_layout(self, small_synthetic, fast_params):
        a = run_workers_inline(small_synthetic, fast_params.with_(workers=2))
        b = run_workers_inline(small_synthetic,
                               fast_params.with_(workers=2, seed=777))
        assert not np.allclose(a.layout.coords, b.layout.coords)


class TestRunApi:
    def test_layout_graph_workers2(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, params=fast_params, workers=2)
        assert result.engine == "shm-hogwild"
        assert result.params.workers == 2
        assert np.all(np.isfinite(result.layout.coords))

    def test_overrides_do_not_mutate_params(self, small_synthetic, fast_params):
        layout_graph(small_synthetic, params=fast_params, iter_max=2)
        assert fast_params.iter_max == 6

    def test_unknown_override_rejected(self, small_synthetic):
        with pytest.raises(TypeError, match="valid names"):
            layout_graph(small_synthetic, bogus_knob=3)

    def test_workers_require_cpu_engine(self, small_synthetic, fast_params):
        with pytest.raises(ValueError, match="cpu"):
            layout_graph(small_synthetic, engine="gpu", params=fast_params,
                         workers=2)

    def test_workers_exclude_multilevel(self, small_synthetic, fast_params):
        with pytest.raises(ValueError, match="levels"):
            layout_graph(small_synthetic, params=fast_params, workers=2,
                         levels=2)

    def test_make_engine_shm_name(self, small_synthetic, fast_params):
        engine = make_engine(small_synthetic, "shm", fast_params)
        assert isinstance(engine, ShmHogwildEngine)

    def test_make_engine_accepts_overrides(self, small_synthetic, fast_params):
        engine = make_engine(small_synthetic, "cpu", fast_params, seed=99)
        assert engine.params.seed == 99

    def test_replace_params_noop_returns_same_object(self, fast_params):
        assert replace_params(fast_params, {}) is fast_params


class TestDeprecatedThreadsAlias:
    def test_removed_alias_is_rejected(self):
        with pytest.raises(TypeError, match="n_threads"):
            LayoutParams(n_threads=4)
        with pytest.raises(TypeError, match="unknown layout parameter"):
            LayoutParams().with_(n_threads=8)
        assert not hasattr(LayoutParams(), "n_threads")

    def test_new_name_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = LayoutParams(simulated_threads=2).with_(simulated_threads=5)
        assert p.simulated_threads == 5

    def test_cli_threads_flag_is_gone(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "MHC", "--threads", "4"])

    def test_cli_simulated_threads_flag(self, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--dataset", "MHC", "--simulated-threads", "6", "--workers", "2"])
        assert args.simulated_threads == 6
        assert args.workers == 2
        assert "deprecated" not in capsys.readouterr().err


class TestResultSummary:
    def test_summary_contract(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, params=fast_params, workers=2)
        summary = result.summary()
        for key in ("engine", "n_points", "iterations", "total_terms",
                    "wall_time_s", "point_collisions", "collision_fraction",
                    "update_dispatches", "fused_iterations", "workers",
                    "final_stress"):
            assert key in summary
        assert summary["engine"] == "shm-hogwild"
        assert summary["workers"] == 2
        assert summary["total_terms"] > 0
        assert 0.0 <= summary["collision_fraction"] <= 1.0

    def test_to_dict_is_json_ready(self, small_synthetic, fast_params):
        result = layout_graph(small_synthetic, params=fast_params)
        payload = result.to_dict()
        assert payload["params"]["seed"] == fast_params.seed
        assert "n_threads" not in payload["params"]
        assert isinstance(payload["counters"], dict)
        json.dumps(payload)  # must not raise

    def test_flat_engine_summary_counters(self, small_synthetic, fast_params):
        result = CpuBaselineEngine(small_synthetic, fast_params).run()
        summary = result.summary()
        assert summary["workers"] == 1
        assert summary["update_dispatches"] >= fast_params.iter_max
        assert summary["wall_time_s"] > 0.0


class TestCollisionBracket:
    """Measured collision rates bracket the analytic model (Sec. III-A)."""

    @pytest.mark.parametrize("concurrency", [32, 128])
    def test_expected_brackets_measured(self, small_synthetic, concurrency):
        report = measure_collisions(small_synthetic, concurrency,
                                    n_batches=8, seed=3)
        expected = expected_collision_probability(small_synthetic.n_nodes,
                                                  concurrency)
        # The model counts the per-term collision probability, the
        # measurement the colliding-point fraction; empirically the model
        # sits between the measured mean and a few times it.
        assert report.mean_colliding_fraction <= expected
        assert expected <= 4.0 * report.mean_colliding_fraction
        assert report.max_colliding_fraction >= report.mean_colliding_fraction

    def test_measured_fraction_grows_with_concurrency(self, small_synthetic):
        fractions = [
            measure_collisions(small_synthetic, c, n_batches=8, seed=3)
            .mean_colliding_fraction
            for c in (8, 64, 256)
        ]
        assert fractions == sorted(fractions)

    def test_engine_collision_counter_in_model_ballpark(self, small_synthetic,
                                                        fast_params):
        result = CpuBaselineEngine(small_synthetic, fast_params).run()
        frac = result.summary()["collision_fraction"]
        expected = expected_collision_probability(small_synthetic.n_nodes, 64)
        assert 0.0 < frac < 1.0
        # Same regime as the model at the engine's round concurrency of 64.
        assert frac <= 3.0 * expected
