"""Tests for path stress, sampled path stress and quality classification."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import initialize_layout, layout_graph
from repro.core.layout import Layout
from repro.graph import LeanGraph
from repro.metrics import (
    QualityBand,
    classify_quality,
    correlation_study,
    count_path_pairs,
    pair_stress_terms,
    path_stress,
    sampled_path_stress,
    stress_ratio,
)


def _perfect_linear_layout(graph: LeanGraph) -> Layout:
    """A layout where every node sits exactly at its first path position.

    For a single-path graph this makes every layout distance equal to the
    reference distance, so the path stress is exactly zero.
    """
    coords = np.zeros((2 * graph.n_nodes, 2))
    sl = graph.path_steps(0)
    for flat in range(sl.start, sl.stop):
        node = graph.step_nodes[flat]
        pos = graph.step_positions[flat]
        coords[2 * node] = (pos, 0.0)
        coords[2 * node + 1] = (pos, 0.0)
    return Layout(coords)


@pytest.fixture(scope="module")
def line_graph():
    """Single path over 20 unit-length nodes."""
    return LeanGraph.from_paths([1] * 20, [list(range(20))])


class TestPathStress:
    def test_zero_for_perfect_layout(self, line_graph):
        layout = _perfect_linear_layout(line_graph)
        assert path_stress(layout, line_graph) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_random_layout(self, line_graph, rng):
        layout = Layout(rng.uniform(0, 100, size=(40, 2)))
        assert path_stress(layout, line_graph) > 0.1

    def test_count_path_pairs(self, line_graph, fig1_lean):
        assert count_path_pairs(line_graph) == 20 * 19 // 2
        assert count_path_pairs(fig1_lean) == 15 + 10 + 21

    def test_scaling_layout_increases_stress(self, line_graph):
        perfect = _perfect_linear_layout(line_graph)
        stretched = Layout(perfect.coords * 3.0)
        assert path_stress(stretched, line_graph) > path_stress(perfect, line_graph)

    def test_max_pairs_guard(self, medium_synthetic):
        layout = initialize_layout(medium_synthetic)
        with pytest.raises(ValueError):
            path_stress(layout, medium_synthetic, max_pairs=10)

    def test_block_size_invariance(self, fig1_lean):
        layout = initialize_layout(fig1_lean, seed=5)
        a = path_stress(layout, fig1_lean, block_size=7)
        b = path_stress(layout, fig1_lean, block_size=100000)
        assert a == pytest.approx(b, rel=1e-12)

    def test_pair_stress_terms_zero_dref(self, fig1_lean):
        layout = initialize_layout(fig1_lean, seed=1)
        # Same step twice -> d_ref == 0 -> contributes 0.
        terms = pair_stress_terms(layout, fig1_lean, np.array([0]), np.array([0]))
        assert terms[0] == 0.0

    def test_empty_path_graph(self):
        g = LeanGraph.from_paths([1, 1], [[0]])
        layout = initialize_layout(g)
        assert path_stress(layout, g) == 0.0


class TestSampledPathStress:
    def test_close_to_exact(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        exact = path_stress(layout, small_synthetic)
        sampled = sampled_path_stress(layout, small_synthetic, samples_per_step=60, seed=1)
        assert sampled.value == pytest.approx(exact, rel=0.35)

    def test_confidence_interval_contains_value(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        s = sampled_path_stress(layout, small_synthetic, samples_per_step=30)
        assert s.ci_low <= s.value <= s.ci_high
        assert s.n_samples > 0
        assert s.ci_width >= 0

    def test_float_fields_are_python_floats(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        s = sampled_path_stress(layout, small_synthetic, samples_per_step=5)
        assert [type(v) for v in (s.value, s.ci_low, s.ci_high, s.std)] == [float] * 4
        assert type(s.n_samples) is int

    def test_more_samples_tighter_ci(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        few = sampled_path_stress(layout, small_synthetic, samples_per_step=5, seed=0)
        many = sampled_path_stress(layout, small_synthetic, samples_per_step=80, seed=0)
        assert many.ci_width < few.ci_width

    def test_seed_consistency(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        a = sampled_path_stress(layout, small_synthetic, samples_per_step=20, seed=4)
        b = sampled_path_stress(layout, small_synthetic, samples_per_step=20, seed=4)
        assert a.value == b.value
        # Different sampling seeds stay statistically consistent (paper checks
        # sampled path stress is stable across seeds); the initial-layout
        # stress distribution is heavy-tailed, so only same-order agreement is
        # demanded at this sample size.
        c = sampled_path_stress(layout, small_synthetic, samples_per_step=80, seed=5)
        d = sampled_path_stress(layout, small_synthetic, samples_per_step=80, seed=6)
        assert 0.2 < c.value / d.value < 5.0

    def test_max_total_samples_cap(self, medium_synthetic):
        layout = initialize_layout(medium_synthetic, seed=1)
        s = sampled_path_stress(layout, medium_synthetic, samples_per_step=100,
                                max_total_samples=5000)
        assert s.n_samples <= 5500

    def test_zero_when_no_pairs(self):
        g = LeanGraph.from_paths([1, 1], [[0]])
        layout = initialize_layout(g)
        s = sampled_path_stress(layout, g)
        assert s.value == 0.0 and s.n_samples == 0

    def test_invalid_samples_per_step(self, small_synthetic):
        layout = initialize_layout(small_synthetic)
        with pytest.raises(ValueError):
            sampled_path_stress(layout, small_synthetic, samples_per_step=0)

    def test_ratio(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=3)
        a = sampled_path_stress(layout, small_synthetic, samples_per_step=20, seed=0)
        assert stress_ratio(a, a) == pytest.approx(1.0)

    def test_better_layout_has_lower_stress(self, small_synthetic, quality_params):
        scrambled = Layout(np.random.default_rng(0).uniform(0, 500,
                                                            (2 * small_synthetic.n_nodes, 2)))
        optimised = layout_graph(small_synthetic, engine="cpu", params=quality_params)
        s_bad = sampled_path_stress(scrambled, small_synthetic, samples_per_step=15).value
        s_good = sampled_path_stress(optimised.layout, small_synthetic, samples_per_step=15).value
        assert s_good < s_bad / 10


class TestCorrelation:
    def test_exact_vs_sampled_correlation(self):
        # Small layouts of widely varying quality, as in Fig. 13.
        from repro.synth import small_graph_collection

        graphs = small_graph_collection(n_graphs=8, seed=3)
        pairs = []
        rng = np.random.default_rng(0)
        for i, g in enumerate(graphs):
            if i % 2 == 0:
                layout = initialize_layout(g, seed=i)
            else:
                layout = Layout(rng.uniform(0, 200, (2 * g.n_nodes, 2)))
            exact = path_stress(layout, g, max_pairs=2_000_000)
            sampled = sampled_path_stress(layout, g, samples_per_step=40, seed=i).value
            pairs.append((exact, sampled))
        corr = correlation_study(pairs)
        assert corr > 0.95  # paper reports 0.995

    def test_correlation_validation(self):
        with pytest.raises(ValueError):
            correlation_study([(1.0, 1.0)])
        with pytest.raises(ValueError):
            correlation_study([(1.0, 2.0), (1.0, 3.0)])


class TestQualityBands:
    def test_bands(self):
        assert classify_quality(1.0, 1.0) == QualityBand.GOOD
        assert classify_quality(1.9, 1.0) == QualityBand.GOOD
        assert classify_quality(5.0, 1.0) == QualityBand.SATISFYING
        assert classify_quality(20.0, 1.0) == QualityBand.POOR

    def test_zero_reference(self):
        assert classify_quality(0.0, 0.0) == QualityBand.GOOD
        assert classify_quality(0.5, 0.0) == QualityBand.POOR

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify_quality(-1.0, 1.0)
        with pytest.raises(ValueError):
            classify_quality(1.0, 1.0, good_threshold=5, satisfying_threshold=2)
