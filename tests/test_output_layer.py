"""Output layer byte-identity: stress terms, SVG and TSV against the oracle.

``tests/output_reference.py`` keeps the per-row form of the output layer
(2-D row gathers and ``einsum`` for the stress terms, one scalar-formatted
line per node for the SVG and TSV documents). Every comparison here is on
bytes: term arrays via ``tobytes()``, every :class:`SampledStress` field,
``tail_pair_stress``, ``path_stress``, and the document text. The committed
``tests/data/golden/tiny_cpu.svg`` and ``tiny_cpu.tsv`` pin the documents
that ``repro layout`` writes for the golden cpu layout.
"""
from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import output_reference as ref
from repro.backend import cext
from repro.cli import main
from repro.core import LayoutParams, layout_graph
from repro.core.layout import Layout, initialize_layout
from repro.graph import LeanGraph, figure1_example, parse_gfa
from repro.io import read_lay, write_tsv
from repro.metrics import path_stress, sampled_path_stress
from repro.metrics.sampled_stress import sample_step_pairs, tail_pair_stress
from repro.metrics.stress import numpy_pair_stress_terms, pair_stress_terms
from repro.render import render_svg
from repro.render.svg import _node_path_multiplicity
from repro.synth import chr1_like, hla_drb1_like, mhc_like

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

HAVE_CC = cext.find_compiler() is not None

#: Coordinates the compiled kernel must handle as NumPy does: signed zeros,
#: subnormals, squares that overflow, and non-finite values.
SPECIAL_COORDS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e154, 1e300, -1e300, np.finfo(np.float64).max, np.inf,
                  -np.inf, np.nan]

GRAPHS = {
    "tiny": lambda: LeanGraph.from_variation_graph(
        parse_gfa(GOLDEN_DIR / "tiny.gfa")),
    "fig1": lambda: LeanGraph.from_variation_graph(figure1_example()),
    "hla": lambda: hla_drb1_like(scale=0.25),
    "mhc": lambda: mhc_like(scale=0.1),
    "chr1": lambda: chr1_like(scale=0.05),
}


@pytest.fixture(scope="module")
def cases():
    """Per graph, ``(graph, layouts)``: the initial layout and a short cpu run."""
    out = {}
    for name, build in GRAPHS.items():
        graph = build()
        start = initialize_layout(graph, seed=5)
        laid_out = layout_graph(graph, params=LayoutParams(
            iter_max=3, steps_per_step_unit=1.0, seed=5)).layout
        out[name] = (graph, (start, laid_out))
    return out


@pytest.fixture(params=sorted(GRAPHS))
def case(request, cases):
    return cases[request.param]


def _pairs(graph: LeanGraph, seed: int):
    """Same-path pairs: a sample, its coincident pairs, and adjacent steps."""
    flat_i, flat_j = sample_step_pairs(graph, samples_per_step=30, seed=seed)
    steps = np.arange(graph.total_steps - 1)
    return (np.concatenate([flat_i, flat_i[:50], steps]),
            np.concatenate([flat_j, flat_i[:50], steps + 1]))


def _assert_terms_match(layout: Layout, graph: LeanGraph, flat_i, flat_j):
    got = pair_stress_terms(layout, graph, flat_i, flat_j)
    want = ref.pair_stress_terms(layout.coords, graph, flat_i, flat_j)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    _assert_compiled_bits(layout.coords, graph, flat_i, flat_j)


def _assert_compiled_bits(coords, graph: LeanGraph, flat_i, flat_j):
    """The compiled kernel writes the NumPy fallback's bits, NaN where NaN.
    Without a C compiler there is no compiled kernel to compare."""
    if not HAVE_CC:
        return
    compiled = cext.kernels()
    assert compiled is not None, cext.status()
    args = (np.ascontiguousarray(coords).reshape(-1), graph.step_nodes,
            graph.step_positions, np.asarray(flat_i, dtype=np.int64),
            np.asarray(flat_j, dtype=np.int64))
    got = np.full(args[3].size, -1.0)
    assert compiled.pair_stress_terms(*args, got)
    with np.errstate(all="ignore"):  # non-finite layouts overflow on purpose
        want = numpy_pair_stress_terms(*args)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestStressMatchesOracle:
    def test_term_arrays(self, case):
        graph, layouts = case
        flat_i, flat_j = _pairs(graph, seed=3)
        for layout in layouts:
            _assert_terms_match(layout, graph, flat_i, flat_j)
            # Column-major storage: the flat view is then a copy.
            _assert_terms_match(Layout(np.asfortranarray(layout.coords)),
                                graph, flat_i, flat_j)
            _assert_terms_match(layout, graph, flat_i[:1], flat_j[:1])
            _assert_terms_match(layout, graph, flat_i[:0], flat_j[:0])

    def test_every_sampled_stress_field(self, case):
        graph, layouts = case
        for layout in layouts:
            for kwargs in ({"samples_per_step": 25, "seed": 9},
                           {"samples_per_step": 3, "seed": 1,
                            "max_total_samples": 500}):
                got = sampled_path_stress(layout, graph, **kwargs)
                want = ref.sampled_path_stress(layout.coords, graph, **kwargs)
                assert (got.value, got.ci_low, got.ci_high, got.n_samples,
                        got.std) == want

    def test_tail_pair_stress(self, case):
        graph, layouts = case
        flat_i, flat_j = sample_step_pairs(graph, samples_per_step=10, seed=0)
        for layout in layouts:
            want = float(np.quantile(
                ref.pair_stress_terms(layout.coords, graph, flat_i, flat_j),
                0.99))
            assert tail_pair_stress(layout, graph) == want

    # Exact path stress is quadratic in path length: the larger graphs
    # would take minutes, at block size 7 even the HLA-DRB1-like one.
    @pytest.mark.parametrize("name, block_size", [
        ("tiny", 7), ("fig1", 7), ("tiny", 200_000), ("fig1", 200_000),
        ("hla", 200_000)])
    def test_path_stress(self, cases, name, block_size):
        graph, layouts = cases[name]
        for layout in layouts:
            assert (path_stress(layout, graph, block_size=block_size)
                    == ref.path_stress(layout.coords, graph, block_size))


class TestSvgMatchesOracle:
    def test_multiplicity(self, case):
        graph, _ = case
        assert np.array_equal(_node_path_multiplicity(graph),
                              ref.node_path_multiplicity(graph))

    @pytest.mark.parametrize("kwargs", [
        {},
        {"color_by_multiplicity": False},
        {"width": 640, "height": 480, "margin": 7, "stroke_width": 0.5},
    ])
    def test_documents(self, case, kwargs):
        graph, layouts = case
        for layout in layouts:
            for with_graph in (graph, None):
                assert (render_svg(layout, graph=with_graph, **kwargs)
                        == ref.render_svg(layout.coords, graph=with_graph,
                                          **kwargs))

    @pytest.mark.parametrize("axis", [0, 1, None])
    def test_degenerate_extent(self, case, axis):
        graph, (layout, _) = case
        collapsed = layout.copy()
        if axis is None:
            collapsed.coords[:] = 7.25  # every point coincides
        else:
            collapsed.coords[:, axis] = 3.0
        assert (render_svg(collapsed, graph=graph)
                == ref.render_svg(collapsed.coords, graph=graph))

    def test_orphans_and_repeated_nodes(self):
        # Node 5 is on no path; nodes 1 and 2 repeat within path "a".
        graph = LeanGraph.from_paths(
            node_lengths=[3, 1, 2, 5, 4, 6],
            paths=[[0, 1, 2, 1, 2, 3], [0, 2, 4], [0, 3, 3]],
            path_names=["a", "b", "c"])
        layout = initialize_layout(graph, seed=2)
        assert np.array_equal(_node_path_multiplicity(graph),
                              [3, 1, 2, 2, 1, 0])
        assert (render_svg(layout, graph=graph)
                == ref.render_svg(layout.coords, graph=graph))

    def test_graph_smaller_than_layout_rejected(self, tiny_graph):
        layout = Layout(np.zeros((2 * (tiny_graph.n_nodes + 1), 2)))
        with pytest.raises(ValueError, match="nodes"):
            render_svg(layout, graph=tiny_graph)


class TestTsvMatchesOracle:
    def test_documents(self, case):
        _, layouts = case
        for layout in layouts:
            buf = io.StringIO()
            write_tsv(layout, buf)
            assert buf.getvalue() == ref.write_tsv_text(layout.coords)

    def test_signed_zero_nan_and_inf(self):
        coords = np.array([[-0.0, 0.0], [np.nan, -np.inf],
                           [np.inf, -1e-9], [1e300, -2.5]])
        buf = io.StringIO()
        write_tsv(Layout(coords), buf)
        text = buf.getvalue()
        assert text == ref.write_tsv_text(coords)
        assert "-0.000000\t0.000000\tnan\t-inf" in text


@given(
    graph_seed=st.integers(min_value=0, max_value=2**16),
    n_nodes=st.integers(min_value=1, max_value=40),
    n_paths=st.integers(min_value=1, max_value=4),
    coord_scale=st.sampled_from([1e-3, 1.0, 1e3, 1e7]),
    coincident=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_layouts_and_pairs_match_oracle(graph_seed, n_nodes, n_paths,
                                               coord_scale, coincident, seed):
    rng = np.random.default_rng(graph_seed)
    paths = [rng.integers(0, n_nodes, size=int(rng.integers(1, 30))).tolist()
             for _ in range(n_paths)]
    graph = LeanGraph.from_paths(
        node_lengths=rng.integers(0, 9, size=n_nodes).tolist(), paths=paths)
    coords = rng.normal(0.0, coord_scale, size=(2 * n_nodes, 2))
    if coincident:  # snap to a coarse grid: coincident and aligned points
        coords = np.round(coords / coord_scale * 2)
    layout = Layout(coords)
    flat_i, flat_j = sample_step_pairs(graph, samples_per_step=7, seed=seed)
    _assert_terms_match(layout, graph, flat_i, flat_j)
    kwargs = {"samples_per_step": 5, "seed": seed}
    got = sampled_path_stress(layout, graph, **kwargs)
    assert ((got.value, got.ci_low, got.ci_high, got.n_samples, got.std)
            == ref.sampled_path_stress(coords, graph, **kwargs))
    assert render_svg(layout, graph=graph) == ref.render_svg(coords, graph=graph)
    buf = io.StringIO()
    write_tsv(layout, buf)
    assert buf.getvalue() == ref.write_tsv_text(coords)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@given(
    graph_seed=st.integers(min_value=0, max_value=2**16),
    n_nodes=st.integers(min_value=1, max_value=12),
    specials=st.lists(st.tuples(st.integers(min_value=0),
                                st.sampled_from(SPECIAL_COORDS)), max_size=16),
    coincident=st.booleans(),
)
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_terms_keep_numpy_bits_on_special_coordinates(
        graph_seed, n_nodes, specials, coincident):
    rng = np.random.default_rng(graph_seed)
    # Zero-length nodes and repeated steps give d_ref = 0 pairs.
    graph = LeanGraph.from_paths(
        node_lengths=rng.integers(0, 4, size=n_nodes).tolist(),
        paths=[rng.integers(0, n_nodes, size=int(rng.integers(1, 12))).tolist()
               for _ in range(2)])
    coords = rng.normal(0.0, 10.0, size=(2 * n_nodes, 2))
    if coincident:  # both endpoints of every node at one point
        coords[1::2] = coords[0::2]
    flat = coords.reshape(-1)
    for position, value in specials:
        flat[position % flat.size] = value
    steps = np.arange(graph.total_steps)
    flat_i, flat_j = np.repeat(steps, steps.size), np.tile(steps, steps.size)
    _assert_compiled_bits(coords, graph, flat_i, flat_j)


class TestGoldenDocuments:
    """The SVG and TSV of the golden cpu layout, as ``repro layout`` writes them."""

    def test_library_writes_golden_bytes(self):
        graph = GRAPHS["tiny"]()
        layout = read_lay(GOLDEN_DIR / "tiny_cpu.lay")
        svg = (GOLDEN_DIR / "tiny_cpu.svg").read_text(encoding="utf-8")
        assert render_svg(layout, graph=graph) == svg
        buf = io.StringIO()
        write_tsv(layout, buf)
        assert buf.getvalue() == (GOLDEN_DIR / "tiny_cpu.tsv").read_text(
            encoding="utf-8")

    def test_cli_writes_golden_bytes_and_stress(self, tmp_path, capsys):
        svg, tsv = tmp_path / "tiny.svg", tmp_path / "tiny.tsv"
        code = main(["layout", "--gfa", str(GOLDEN_DIR / "tiny.gfa"),
                     "--out-svg", str(svg), "--out-tsv", str(tsv), "--stress"])
        assert code == 0
        assert svg.read_bytes() == (GOLDEN_DIR / "tiny_cpu.svg").read_bytes()
        assert tsv.read_bytes() == (GOLDEN_DIR / "tiny_cpu.tsv").read_bytes()
        out = capsys.readouterr().out
        assert ("sampled path stress: 0.0359 (95% CI [0.0265, 0.0453], n=700)"
                in out.splitlines())
