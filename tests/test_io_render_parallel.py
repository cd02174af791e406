"""Tests for layout I/O, rendering, Hogwild analysis, thread scaling and the CLI."""
from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import initialize_layout
from repro.core.layout import Layout
from repro.io import LayFormatError, read_lay, read_tsv, write_lay, write_tsv
from repro.parallel import (
    chunk_schedule,
    cpu_thread_scaling,
    expected_collision_probability,
    measure_collisions,
)
from repro.render import layout_similarity, rasterize, render_svg, save_svg, write_ppm
from repro.bench import format_hms, format_markdown_table, format_sci, format_table


class TestLayoutIO:
    def test_lay_round_trip(self, small_synthetic, tmp_path):
        layout = initialize_layout(small_synthetic, seed=8)
        path = tmp_path / "g.lay"
        write_lay(layout, path)
        back = read_lay(path)
        assert np.allclose(back.coords, layout.coords)

    def test_lay_round_trip_via_handles(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=1)
        buf = io.BytesIO()
        write_lay(layout, buf)
        buf.seek(0)
        back = read_lay(buf)
        assert np.allclose(back.coords, layout.coords)

    def test_lay_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lay"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(LayFormatError):
            read_lay(path)

    def test_lay_truncated(self, tmp_path, tiny_graph):
        layout = initialize_layout(tiny_graph)
        path = tmp_path / "t.lay"
        write_lay(layout, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(LayFormatError):
            read_lay(path)

    def test_lay_too_small(self):
        with pytest.raises(LayFormatError):
            read_lay(io.BytesIO(b"RP"))

    def test_tsv_round_trip(self, tiny_graph, tmp_path):
        layout = initialize_layout(tiny_graph, seed=2)
        path = tmp_path / "layout.tsv"
        write_tsv(layout, path)
        back = read_tsv(path)
        assert np.allclose(back.coords, layout.coords, atol=1e-5)

    def test_tsv_bad_row(self):
        with pytest.raises(LayFormatError):
            read_tsv(io.StringIO("#header\n1\t2\t3\n"))

    def test_tsv_empty(self):
        with pytest.raises(LayFormatError):
            read_tsv(io.StringIO("#only a header\n"))

    def test_tsv_rows_placed_by_node_id(self, tiny_graph):
        # Reordered rows must land on their node's slots, not on file order.
        layout = initialize_layout(tiny_graph, seed=2)
        buf = io.StringIO()
        write_tsv(layout, buf)
        lines = buf.getvalue().strip().splitlines()
        header, rows = lines[0], lines[1:]
        shuffled = "\n".join([header] + rows[::-1]) + "\n"
        back = read_tsv(io.StringIO(shuffled))
        assert np.allclose(back.coords, layout.coords, atol=1e-5)

    def test_tsv_duplicate_node_id(self):
        text = ("#h\n0\t0\t0\t1\t1\n0\t2\t2\t3\t3\n")
        with pytest.raises(LayFormatError, match="duplicate"):
            read_tsv(io.StringIO(text))

    def test_tsv_non_contiguous_node_ids(self):
        text = ("#h\n0\t0\t0\t1\t1\n2\t2\t2\t3\t3\n")
        with pytest.raises(LayFormatError, match="contiguous"):
            read_tsv(io.StringIO(text))

    def test_tsv_non_integer_node_id(self):
        with pytest.raises(LayFormatError, match="node_id"):
            read_tsv(io.StringIO("#h\nx\t0\t0\t1\t1\n"))


class TestRendering:
    def test_svg_contains_all_segments(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        svg = render_svg(layout, graph=tiny_graph)
        assert svg.startswith("<svg")
        assert svg.count("<line") == tiny_graph.n_nodes

    def test_svg_without_graph(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        svg = render_svg(layout)
        assert svg.count("<line") == tiny_graph.n_nodes

    def test_svg_margin_validation(self, tiny_graph):
        layout = initialize_layout(tiny_graph)
        with pytest.raises(ValueError):
            render_svg(layout, width=20, height=20, margin=20)

    def test_save_svg(self, tiny_graph, tmp_path):
        layout = initialize_layout(tiny_graph)
        out = tmp_path / "layout.svg"
        save_svg(layout, out, graph=tiny_graph)
        assert out.exists() and out.stat().st_size > 100

    def test_rasterize_shape_and_range(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=1)
        grid = rasterize(layout, width=80, height=60)
        assert grid.shape == (60, 80)
        assert 0.0 <= grid.min() and grid.max() <= 1.0
        assert grid.sum() > 0

    def test_rasterize_invalid(self, tiny_graph):
        with pytest.raises(ValueError):
            rasterize(initialize_layout(tiny_graph), width=1, height=10)

    def test_similarity_self_is_one(self, small_synthetic):
        layout = initialize_layout(small_synthetic, seed=1)
        assert layout_similarity(layout, layout) == pytest.approx(1.0)

    def test_similarity_detects_difference(self, small_synthetic, rng):
        a = initialize_layout(small_synthetic, seed=1)
        b = Layout(rng.uniform(0, 100, a.coords.shape))
        assert layout_similarity(a, b) < layout_similarity(a, a)

    def test_write_ppm(self, tiny_graph, tmp_path):
        grid = rasterize(initialize_layout(tiny_graph), width=32, height=16)
        out = tmp_path / "img.ppm"
        write_ppm(grid, out)
        data = out.read_bytes()
        assert data.startswith(b"P6\n32 16\n255\n")
        assert len(data) == len(b"P6\n32 16\n255\n") + 32 * 16 * 3

    def test_write_ppm_validates(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros(5), tmp_path / "x.ppm")

    # ----------------------------- degenerate bounding boxes (regression)
    # A 1-node graph (or a fully contracted multilevel layout) can produce
    # coordinates with zero extent on one or both axes; rendering must not
    # divide by zero or emit non-finite geometry.

    def _single_node_layout(self):
        # Zero-length node: both visualisation points coincide exactly.
        return Layout(np.full((2, 2), 7.25, dtype=np.float64))

    def test_svg_single_node_degenerate_bbox(self):
        from repro.graph import LeanGraph

        graph = LeanGraph.from_paths(node_lengths=[0], paths=[[0]])
        svg = render_svg(self._single_node_layout(), graph=graph)
        assert svg.count("<line") == 1
        assert "nan" not in svg.lower() and "inf" not in svg.lower()

    def test_svg_degenerate_single_axis(self, tiny_graph):
        layout = initialize_layout(tiny_graph, seed=0)
        layout.coords[:, 1] = 3.0  # collapse the Y extent only
        svg = render_svg(layout)
        assert svg.count("<line") == tiny_graph.n_nodes
        assert "nan" not in svg.lower() and "inf" not in svg.lower()

    def test_rasterize_single_node_degenerate_bbox(self):
        grid = rasterize(self._single_node_layout(), width=16, height=8)
        assert grid.shape == (8, 16)
        assert np.isfinite(grid).all()
        assert grid.max() == 1.0  # the single point is drawn

    def test_similarity_degenerate_layouts(self):
        layout = self._single_node_layout()
        assert layout_similarity(layout, layout) == pytest.approx(1.0)

    def test_ppm_single_node_degenerate_bbox(self, tmp_path):
        grid = rasterize(self._single_node_layout(), width=8, height=8)
        out = tmp_path / "dot.ppm"
        write_ppm(grid, out)
        assert out.read_bytes().startswith(b"P6\n8 8\n255\n")


class TestHogwild:
    def test_expected_probability_monotone(self):
        p1 = expected_collision_probability(10_000, 32)
        p2 = expected_collision_probability(10_000, 1024)
        assert 0 <= p1 < p2 < 1
        assert expected_collision_probability(10_000, 1) == 0.0

    def test_expected_probability_validation(self):
        with pytest.raises(ValueError):
            expected_collision_probability(0, 4)
        with pytest.raises(ValueError):
            expected_collision_probability(100, 0)

    def test_measured_collisions_small_for_sparse_graph(self, medium_synthetic):
        report = measure_collisions(medium_synthetic, concurrency=32, n_batches=4)
        # Paper Sec. III-A: collisions are rare on sparse pangenome graphs.
        assert report.mean_colliding_fraction < 0.2
        assert report.concurrency == 32

    def test_more_concurrency_more_collisions(self, small_synthetic):
        low = measure_collisions(small_synthetic, concurrency=8, n_batches=4)
        high = measure_collisions(small_synthetic, concurrency=256, n_batches=4)
        assert high.mean_colliding_fraction > low.mean_colliding_fraction


class TestThreadScaling:
    def test_scaling_near_linear(self, small_synthetic, fast_params):
        result = cpu_thread_scaling(small_synthetic, "small", fast_params,
                                    thread_counts=[1, 2, 4, 8, 16, 32],
                                    n_trace_terms=512)
        speedups = result.speedup()
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[32] > 10          # Fig. 4: near-linear scaling
        assert speedups[2] > 1.6
        eff = result.parallel_efficiency()
        assert all(0 < e <= 1.01 for e in eff.values())

    def test_times_decrease_with_threads(self, small_synthetic, fast_params):
        result = cpu_thread_scaling(small_synthetic, "small", fast_params,
                                    thread_counts=[1, 4, 16], n_trace_terms=512)
        assert result.times_s[1] > result.times_s[4] > result.times_s[16]

    def test_chunk_schedule_covers_all_steps(self):
        seen = []
        for round_assignments in chunk_schedule(1000, n_workers=7, round_size=13):
            for start, stop in round_assignments:
                seen.extend(range(start, stop))
        assert seen == list(range(1000))

    def test_chunk_schedule_round_sizes(self):
        rounds = list(chunk_schedule(100, n_workers=4, round_size=10))
        for assignments in rounds[:-1]:
            assert sum(stop - start for start, stop in assignments) == 40

    def test_chunk_schedule_validation(self):
        with pytest.raises(ValueError):
            list(chunk_schedule(-1, 2, 2))
        with pytest.raises(ValueError):
            list(chunk_schedule(10, 0, 2))


class TestBenchTables:
    def test_format_hms(self):
        assert format_hms(0) == "0:00:00"
        assert format_hms(9158) == "2:32:38"
        with pytest.raises(ValueError):
            format_hms(-1)

    def test_format_sci(self):
        assert format_sci(1.1e7) == "1.1e7"
        assert format_sci(0) == "0"
        assert format_sci(2.2e4) == "2.2e4"

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text and "a" in text and "2.5" in text
        assert len(text.splitlines()) == 5

    def test_format_markdown_table(self):
        md = format_markdown_table(["col"], [[1.23456]])
        assert md.splitlines()[1] == "|---|"
        assert "1.23" in md


class TestCLI:
    def test_parser_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_run_with_outputs(self, tmp_path, capsys):
        lay = tmp_path / "out.lay"
        svg = tmp_path / "out.svg"
        code = main([
            "layout", "--dataset", "HLA-DRB1", "--scale", "0.05", "--gpu",
            "--iter-max", "3", "--steps-factor", "1.0",
            "--out-lay", str(lay), "--out-svg", str(svg), "--stress",
        ])
        assert code == 0
        assert lay.exists() and svg.exists()
        out = capsys.readouterr().out
        assert "sampled path stress" in out

    def test_gfa_input(self, tmp_path, fig1_graph, capsys):
        from repro.graph import write_gfa

        gfa = tmp_path / "toy.gfa"
        write_gfa(fig1_graph, gfa)
        tsv = tmp_path / "toy.tsv"
        code = main(["layout", "--gfa", str(gfa), "--iter-max", "2",
                     "--steps-factor", "1.0", "--out-tsv", str(tsv)])
        assert code == 0
        assert tsv.exists()
        assert "layout complete" in capsys.readouterr().out
