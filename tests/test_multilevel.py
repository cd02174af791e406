"""Tests for the multilevel subsystem: coarsener, transfer operators, driver.

Hypothesis-based property tests of the coarsening invariants live in
``tests/test_multilevel_properties.py`` (optional dependency, like
``test_update_properties.py``); this module is the always-on tier-1 coverage:
hand-built graphs with known contraction structure, the iteration/eta split,
determinism, the ``levels=1`` flat-delegation contract and the CLI wiring.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import LayoutParams, initialize_layout, make_engine
from repro.core.layout import Layout
from repro.core.schedule import make_schedule
from repro.graph import LeanGraph
from repro.multilevel import (
    MultilevelDriver,
    build_hierarchy,
    chain_merge_links,
    coarsen_graph,
    prolongate,
    restrict,
    split_iterations,
)

FAST = LayoutParams(iter_max=4, steps_per_step_unit=1.0, seed=11)


def linear_graph(k: int, n_paths: int = 2) -> LeanGraph:
    """k nodes in a chain, every path traversing all of them forward."""
    return LeanGraph.from_paths(
        node_lengths=list(range(1, k + 1)),
        paths=[list(range(k))] * n_paths,
    )


def bubble_graph() -> LeanGraph:
    """Two paths diverging through a bubble: nothing is contractible."""
    return LeanGraph.from_paths(
        node_lengths=[3, 1, 2, 4],
        paths=[[0, 1, 3], [0, 2, 3]],
    )


class TestChainMergeLinks:
    def test_linear_chain_fully_linked(self):
        links = chain_merge_links(linear_graph(5))
        assert links.tolist() == [1, 2, 3, 4, -1]

    def test_bubble_breaks_links(self):
        assert chain_merge_links(bubble_graph()).tolist() == [-1] * 4

    def test_divergent_successor_breaks_link(self):
        g = LeanGraph.from_paths(node_lengths=[1, 1, 1],
                                 paths=[[0, 1], [0, 2]])
        assert chain_merge_links(g)[0] == -1

    def test_path_terminal_occurrence_breaks_link(self):
        # Node 1 ends path 1, so it cannot merge forward into node 2.
        g = LeanGraph.from_paths(node_lengths=[1, 1, 1],
                                 paths=[[0, 1, 2], [0, 1]])
        links = chain_merge_links(g)
        assert links[0] == 1  # 0 -> 1 still merges (1's preds are all 0)
        assert links[1] == -1

    def test_reverse_step_blocks_merge(self):
        g = LeanGraph.from_paths(
            node_lengths=[1, 1, 1],
            paths=[[0, 1, 2]],
            orientations=[[False, True, False]],
        )
        links = chain_merge_links(g)
        assert links[0] == -1 and links[1] == -1

    def test_loop_repeat_merges_span(self):
        # Path x,y,x,y: every x is followed by y, every y preceded by x, but
        # y ends the path once -> only x->y links.
        g = LeanGraph.from_paths(node_lengths=[2, 3], paths=[[0, 1, 0, 1]])
        assert chain_merge_links(g).tolist() == [1, -1]

    def test_pathless_nodes_unlinked(self):
        g = LeanGraph.from_paths(node_lengths=[1, 1, 1], paths=[[0, 1]])
        assert chain_merge_links(g)[2] == -1


class TestCoarsenGraph:
    def test_linear_graph_contracts_to_one_node(self):
        g = linear_graph(6)
        level = coarsen_graph(g)
        assert level.n_coarse == 1
        assert level.coarse.node_lengths.tolist() == [g.node_lengths.sum()]
        assert level.projection.tolist() == [0] * 6
        assert level.member_offset.tolist() == [0, 1, 3, 6, 10, 15]
        assert level.coarse.total_steps == g.n_paths

    def test_bubble_graph_is_fixpoint(self):
        level = coarsen_graph(bubble_graph())
        assert level.n_coarse == level.fine.n_nodes

    def test_loop_coarse_path_preserves_traversals(self):
        g = LeanGraph.from_paths(node_lengths=[2, 3], paths=[[0, 1, 0, 1]])
        level = coarsen_graph(g)
        assert level.n_coarse == 1
        assert level.coarse.step_nodes.tolist() == [0, 0]
        assert level.coarse.step_positions.tolist() == [0, 5]
        assert level.coarse.path_nucleotide_length(0) == g.path_nucleotide_length(0)

    def test_max_chain_splits_runs(self):
        g = linear_graph(5)
        level = coarsen_graph(g, max_chain=2)
        assert level.chain_sizes().tolist() == [2, 2, 1]
        # Split chains stay contiguous: member offsets restart per chain.
        assert level.member_offset.tolist() == [0, 1, 0, 3, 0]

    def test_nucleotide_lengths_preserved_per_path(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        assert level.coarse.n_nodes < small_synthetic.n_nodes
        assert level.coarse.total_sequence_length == small_synthetic.total_sequence_length
        for p in range(small_synthetic.n_paths):
            assert (level.coarse.path_nucleotide_length(p)
                    == small_synthetic.path_nucleotide_length(p))

    def test_expanding_coarse_steps_reproduces_fine_sequence(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        co, cm = level.chain_offsets, level.chain_members
        for p in range(small_synthetic.n_paths):
            fine_steps = small_synthetic.step_nodes[small_synthetic.path_steps(p)]
            coarse_steps = level.coarse.step_nodes[level.coarse.path_steps(p)]
            expanded = np.concatenate(
                [cm[co[c]:co[c + 1]] for c in coarse_steps]) if coarse_steps.size \
                else np.empty(0, dtype=np.int64)
            np.testing.assert_array_equal(expanded, fine_steps)

    def test_deterministic(self, small_synthetic):
        a = coarsen_graph(small_synthetic)
        b = coarsen_graph(small_synthetic)
        np.testing.assert_array_equal(a.projection, b.projection)
        np.testing.assert_array_equal(a.chain_members, b.chain_members)
        np.testing.assert_array_equal(a.coarse.step_nodes, b.coarse.step_nodes)


class TestHierarchy:
    def test_levels_one_is_flat(self, small_synthetic):
        h = build_hierarchy(small_synthetic, 1)
        assert h.depth == 1 and not h.levels

    def test_depth_bounded_and_shrinking(self, small_synthetic):
        h = build_hierarchy(small_synthetic, 4, min_nodes=8)
        assert h.depth <= 4
        counts = h.node_counts()
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_stops_at_fixpoint(self):
        h = build_hierarchy(bubble_graph(), 5, min_nodes=1)
        assert h.depth == 1

    def test_min_nodes_stops_coarsening(self, small_synthetic):
        h = build_hierarchy(small_synthetic, 4,
                            min_nodes=small_synthetic.n_nodes)
        assert h.depth == 1

    def test_validation(self, small_synthetic):
        with pytest.raises(ValueError):
            build_hierarchy(small_synthetic, 0)
        with pytest.raises(ValueError):
            build_hierarchy(small_synthetic, 2, min_nodes=0)


class TestTransferOperators:
    def test_prolongate_places_members_by_offset(self):
        g = linear_graph(3)  # lengths 1,2,3 -> one chain of length 6
        level = coarsen_graph(g)
        coarse = Layout(np.array([[0.0, 0.0], [6.0, 0.0]]))
        fine = prolongate(coarse, level)
        # Members occupy [0,1], [1,3], [3,6] of the 6-long segment.
        np.testing.assert_allclose(fine.coords[0::2, 0], [0.0, 1.0, 3.0])
        np.testing.assert_allclose(fine.coords[1::2, 0], [1.0, 3.0, 6.0])
        np.testing.assert_allclose(fine.coords[:, 1], 0.0)

    def test_restrict_prolongate_round_trip(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        coarse = initialize_layout(level.coarse, seed=3)
        back = restrict(prolongate(coarse, level), level)
        np.testing.assert_allclose(back.coords, coarse.coords, atol=1e-9)

    def test_prolongate_touches_every_node(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        coarse = initialize_layout(level.coarse, seed=5)
        fine = prolongate(coarse, level, jitter=0.5, seed=9)
        assert fine.n_nodes == small_synthetic.n_nodes
        assert np.isfinite(fine.coords).all()

    def test_jitter_deterministic_and_seeded(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        coarse = initialize_layout(level.coarse, seed=5)
        a = prolongate(coarse, level, jitter=0.5, seed=9)
        b = prolongate(coarse, level, jitter=0.5, seed=9)
        c = prolongate(coarse, level, jitter=0.5, seed=10)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_jitter_skips_singleton_chains(self):
        g = bubble_graph()
        level = coarsen_graph(g)  # all chains are singletons
        coarse = initialize_layout(level.coarse, seed=1)
        fine = prolongate(coarse, level, jitter=10.0, seed=2)
        np.testing.assert_array_equal(fine.coords, coarse.coords)

    def test_zero_length_chain_spaced_by_rank(self):
        g = LeanGraph.from_paths(node_lengths=[0, 0], paths=[[0, 1], [0, 1]])
        level = coarsen_graph(g)
        assert level.n_coarse == 1
        coarse = Layout(np.array([[2.0, 3.0], [10.0, 7.0]]))
        fine = prolongate(coarse, level)
        # Rank fallback: the two members split the segment at its midpoint.
        np.testing.assert_allclose(
            fine.coords,
            [[2.0, 3.0], [6.0, 5.0], [6.0, 5.0], [10.0, 7.0]])

    def test_shape_mismatch_rejected(self, small_synthetic):
        level = coarsen_graph(small_synthetic)
        wrong = Layout(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            prolongate(wrong, level)
        with pytest.raises(ValueError):
            restrict(wrong, level)


class TestSplitIterations:
    def test_sums_to_total(self):
        assert sum(split_iterations(30, 3, 0.5)) == 30
        assert split_iterations(30, 1, 0.5) == [30]

    def test_each_level_gets_at_least_one(self):
        assert split_iterations(2, 4, 0.5) == [1, 1, 1, 1]

    def test_split_shifts_budget_coarse(self):
        fine_heavy = split_iterations(20, 3, 0.25)
        coarse_heavy = split_iterations(20, 3, 0.75)
        assert fine_heavy[0] > coarse_heavy[0]

    def test_validation(self):
        for bad in ((0, 2, 0.5), (10, 0, 0.5), (10, 2, 0.0), (10, 2, 1.0)):
            with pytest.raises(ValueError):
                split_iterations(*bad)


class TestMultilevelDriver:
    def test_levels1_byte_identical_to_flat(self, small_synthetic):
        flat = make_engine(small_synthetic, "cpu", FAST).run()
        multi = MultilevelDriver(small_synthetic, FAST, engine="cpu").run()
        np.testing.assert_array_equal(multi.layout.coords, flat.layout.coords)
        assert multi.total_terms == flat.total_terms

    def test_uncoarsenable_graph_delegates_flat(self):
        g = bubble_graph()
        flat = make_engine(g, "cpu", FAST).run()
        multi = MultilevelDriver(g, FAST.with_(levels=3), engine="cpu").run()
        np.testing.assert_array_equal(multi.layout.coords, flat.layout.coords)

    def test_vcycle_runs_and_is_deterministic(self, small_synthetic):
        params = FAST.with_(levels=3)
        a = MultilevelDriver(small_synthetic, params, engine="batch").run()
        b = MultilevelDriver(small_synthetic, params, engine="batch").run()
        assert a.layout.n_nodes == small_synthetic.n_nodes
        assert np.isfinite(a.layout.coords).all()
        np.testing.assert_array_equal(a.layout.coords, b.layout.coords)
        assert a.engine == "multilevel[batch]"
        assert a.counters["multilevel_depth"] >= 2

    def test_vcycle_cheaper_than_flat(self, small_synthetic):
        flat = make_engine(small_synthetic, "cpu", FAST).run()
        multi = MultilevelDriver(small_synthetic, FAST.with_(levels=3),
                                 engine="cpu").run()
        assert 0 < multi.total_terms < flat.total_terms

    def test_explicit_initial_is_restricted(self, small_synthetic):
        rng = np.random.default_rng(0)
        scram = Layout(rng.uniform(0, 10, (2 * small_synthetic.n_nodes, 2)))
        result = MultilevelDriver(small_synthetic, FAST.with_(levels=2),
                                  engine="cpu").run(initial=scram)
        assert result.layout.n_nodes == small_synthetic.n_nodes
        assert np.isfinite(result.layout.coords).all()

    def test_level_schedules_slice_global_sweep(self, small_synthetic):
        driver = MultilevelDriver(small_synthetic, FAST.with_(levels=3,
                                                              iter_max=9))
        iters = driver.level_iterations()
        slices = driver.level_schedules()
        assert [s.size for s in slices] == iters
        joined = np.concatenate(list(reversed(slices)))  # coarsest first
        expected = make_schedule(small_synthetic,
                                 FAST.with_(iter_max=sum(iters)))
        np.testing.assert_array_equal(joined, expected)
        # Coarse levels take the hot etas, the finest the cool tail.
        assert slices[-1][0] >= slices[0][-1]

    def test_every_level_engine_metric_carries_over(self, small_synthetic,
                                                    monkeypatch):
        driver = MultilevelDriver(small_synthetic, FAST.with_(levels=3),
                                  engine="batch")
        levels = []
        make_level_engine = driver._make_level_engine

        def recording(*args):
            engine = make_level_engine(*args)
            run = engine.run

            def run_and_record(initial=None):
                levels.append(run(initial))
                return levels[-1]

            monkeypatch.setattr(engine, "run", run_and_record)
            return engine

        monkeypatch.setattr(driver, "_make_level_engine", recording)
        result = driver.run()
        assert len(levels) == 3
        # Counters add up over the levels, gauges keep the worst level.
        launches = [r.counters["kernel_launches"] for r in levels]
        assert min(launches) > 0
        assert result.counters["kernel_launches"] == sum(launches)
        assert result.counters["update_dispatches"] == sum(
            r.counters["update_dispatches"] for r in levels)
        assert result.counters["peak_rss_bytes"] == max(
            r.counters["peak_rss_bytes"] for r in levels)

    def test_history_concatenated_across_levels(self, small_synthetic):
        params = FAST.with_(levels=2, record_history=True)
        result = MultilevelDriver(small_synthetic, params, engine="cpu").run()
        assert len(result.history) == result.iterations
        assert [r.iteration for r in result.history] == list(range(result.iterations))


class TestMultilevelCli:
    def test_layout_levels_flag(self, capsys):
        code = main(["layout", "--dataset", "HLA-DRB1", "--scale", "0.05",
                     "--iter-max", "3", "--steps-factor", "1.0",
                     "--levels", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "levels=3" in out
        assert "layout complete" in out

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LayoutParams(levels=0)
        with pytest.raises(ValueError):
            LayoutParams(coarsen_min_nodes=0)
        with pytest.raises(ValueError):
            LayoutParams(level_iter_split=1.0)
