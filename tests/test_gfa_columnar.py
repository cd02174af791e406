"""The columnar GFA reader: differential tests against the per-step reader it
replaced (``tests/gfa_reference.py``), GFA 1.1 walks, the ``LeanGraph``
writer, and the column-backed path model."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gfa_reference import reference_parse
from repro.cli import main
from repro.graph import (
    GFAError,
    LeanGraph,
    VariationGraph,
    figure1_example,
    gfa_to_text,
    parse_gfa,
    parse_gfa_text,
    write_gfa,
)
from repro.io import read_lay
from repro.synth import chr1_like

DATA = Path(__file__).parent / "data"
LEAN_ARRAYS = ("node_lengths", "path_offsets", "step_nodes", "step_reverse",
               "step_positions")


def assert_same_lean(lean: LeanGraph, expected: LeanGraph) -> None:
    for name in LEAN_ARRAYS:
        got, want = getattr(lean, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert lean.path_names == expected.path_names


def assert_matches_reference(text: str) -> VariationGraph:
    """Both readers give the same lean arrays, path names, edges and
    segment names for ``text``."""
    graph = parse_gfa_text(text)
    reference = reference_parse(text)
    assert_same_lean(LeanGraph.from_variation_graph(graph), reference.lean())
    assert [edge.key() for edge in graph.edges()] == reference.edge_keys()
    assert graph.segment_names == reference.segment_names
    return graph


def walks_as_p_lines(text: str) -> str:
    """Rewrite each W line as the P line it should read as."""
    def p_line(match: re.Match) -> str:
        sample, hap, seq_id, start, end, walk = match.groups()
        rng = "" if "*" in (start, end) else f":{start}-{end}"
        steps = ",".join(name + ("-" if mark == "<" else "+")
                         for mark, name in re.findall(r"([<>])([^<>]+)", walk))
        return f"P\t{sample}#{hap}#{seq_id}{rng}\t{steps}\t*"
    return re.sub(r"(?m)^W\t([^\t]*)\t([^\t]*)\t([^\t]*)\t([^\t]*)\t([^\t]*)\t([^\t\n]*)$",
                  p_line, text)


# ------------------------------------------------------------ differential
class TestMatchesPerStepReader:
    def test_golden_tiny(self):
        assert_matches_reference((DATA / "golden" / "tiny.gfa").read_text())

    def test_figure1(self):
        assert_matches_reference(gfa_to_text(figure1_example()))

    def test_chr1_like(self):
        generated = chr1_like(scale=0.05)
        text = gfa_to_text(generated)
        graph = assert_matches_reference(text)
        assert_same_lean(LeanGraph.from_variation_graph(graph), generated)

    def test_forward_references_are_applied_after_eager_records(self):
        text = ("P\tlate\tb+,a-\t*\nS\ta\tAC\nL\ta\t+\tb\t-\t0M\n"
                "P\tearly\ta+,a+\t*\nS\tb\tT\nL\ta\t+\ta\t+\t0M\n")
        graph = assert_matches_reference(text)
        assert graph.path_names() == ["early", "late"]


SEGMENT_NAME = st.text(alphabet="ab+-*<>#:é中ß0", min_size=1, max_size=4)


@st.composite
def gfa_documents(draw):
    """GFA v1 documents with awkward names, forward references, ``*``
    paths, duplicate links and repeated and reverse steps."""
    names = draw(st.lists(SEGMENT_NAME, min_size=1, max_size=8, unique=True))
    records = []
    for name in names:
        if draw(st.booleans()):
            records.append(f"S\t{name}\t{draw(st.text(alphabet='ACGT', max_size=6))}")
        else:
            records.append(f"S\t{name}\t*\tLN:i:{draw(st.integers(0, 9))}")
    oriented = st.tuples(st.sampled_from(names), st.sampled_from("+-"))
    for (a, ra), (b, rb) in draw(st.lists(st.tuples(oriented, oriented), max_size=6)):
        records.append(f"L\t{a}\t{ra}\t{b}\t{rb}\t0M")
    path_names = draw(st.lists(st.text(alphabet="pq+-é#", min_size=1, max_size=3),
                               max_size=4, unique=True))
    for path_name in path_names:
        steps = draw(st.lists(oriented, max_size=12))
        field = ",".join(n + o for n, o in steps) if steps else "*"
        records.append(f"P\t{path_name}\t{field}\t*")
    records = draw(st.permutations(records))
    return "H\tVN:Z:1.0\n" + "\n".join(records) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gfa_documents())
# Every feature at once: names with '+', '-' and non-ASCII characters, a
# forward reference, a '*' path, repeated and reverse steps.
@example("P\tp\ta++,-b-,a++,中é+\t*\nS\ta+\tAC\nS\t-b\t*\tLN:i:3\n"
         "P\tq\t*\t*\nS\t中é\tG\nL\ta+\t+\t-b\t-\t0M\n")
def test_generated_documents_match_reference(text):
    assert_matches_reference(text)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gfa_documents(), st.data())
def test_mutated_documents_fail_alike(text, data):
    """One changed character: both readers raise GFAError, or agree."""
    pos = data.draw(st.integers(0, len(text) - 1))
    text = text[:pos] + data.draw(st.sampled_from("+-,*\t\nab")) + text[pos + 1:]
    try:
        reference_parse(text)
    except GFAError:
        with pytest.raises(GFAError):
            parse_gfa_text(text)
        return
    assert_matches_reference(text)


# ------------------------------------------------------------------ walks
class TestWalks:
    def test_walk_only_fixture(self):
        text = (DATA / "walks" / "walk_only.gfa").read_text()
        lean = LeanGraph.from_variation_graph(parse_gfa_text(text))
        assert lean.path_names == ["CHM13#0#chr1:0-9", "HG002#1#chr1:0-6",
                                   "HG002#1#chr1:6-10", "HG002#2#chr1"]
        assert lean.step_nodes.tolist() == [0, 1, 3, 4, 0, 2, 3, 4, 4, 3, 2, 0]
        assert lean.step_reverse.tolist() == [False] * 8 + [True] * 4
        assert lean.step_positions.tolist() == [0, 4, 5, 8, 0, 4, 0, 3, 0, 1, 4, 6]
        assert_same_lean(lean, reference_parse(walks_as_p_lines(text)).lean())

    def test_mixed_p_and_w_fixture(self):
        text = (DATA / "walks" / "mixed_p_w.gfa").read_text()
        graph = parse_gfa(DATA / "walks" / "mixed_p_w.gfa")
        lean = LeanGraph.from_variation_graph(graph)
        # ref_rev resolves at once; the others name s3 before its S line.
        assert lean.path_names == ["ref_rev", "ref", "HG002#1#chr1:0-8",
                                   "HG002#2#chr1:0-5"]
        assert lean.step_positions.tolist() == [0, 4, 5, 0, 4, 5, 0, 4, 0, 4]
        assert_same_lean(lean, reference_parse(walks_as_p_lines(text)).lean())

    def test_segment_names_with_orientation_characters(self):
        text = "S\ta+\tAC\nS\t-b-\tT\nW\ts\t0\tc\t0\t3\t>a+<-b->a+\n"
        lean = LeanGraph.from_variation_graph(parse_gfa_text(text))
        assert lean.step_nodes.tolist() == [0, 1, 0]
        assert lean.step_reverse.tolist() == [False, True, False]

    def test_walk_only_gfa_lays_out_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "walks.lay"
        code = main(["layout", "--gfa", str(DATA / "walks" / "walk_only.gfa"),
                     "--iter-max", "3", "--steps-factor", "1.0",
                     "--out-lay", str(out)])
        assert code == 0
        assert "4 paths, 12 steps" in capsys.readouterr().out
        coords = read_lay(str(out)).coords
        assert coords.shape == (10, 2)
        assert np.isfinite(coords).all()


# ------------------------------------------------------------ lean writer
class TestLeanWriter:
    def test_round_trip(self, tmp_path):
        lean = LeanGraph.from_paths(
            node_lengths=[3, 0, 2, 5],
            paths=[[0, 1, 2, 1, 3], [], [3, 3, 0]],
            path_names=["a", "empty", "c"],
            orientations=[[False, True, False, True, False], [], [True, True, False]],
        )
        path = tmp_path / "lean.gfa"
        write_gfa(lean, path)
        assert_same_lean(LeanGraph.from_variation_graph(parse_gfa(path)), lean)

    def test_one_link_per_distinct_oriented_step_pair(self):
        lean = LeanGraph.from_paths(
            node_lengths=[1, 1, 1],
            paths=[[0, 1, 0, 1], [1, 2], [0, 1]],
            orientations=[[False, False, False, False], [True, False], [False, True]],
        )
        links = [line for line in gfa_to_text(lean).splitlines() if line[0] == "L"]
        # Pairs never span two paths: 2 -> 1 (path 0 to path 1) and
        # 3 -> 1 (path 1 to path 2) are not links.
        assert links == ["L\t1\t+\t2\t+\t0M", "L\t1\t+\t2\t-\t0M",
                         "L\t2\t+\t1\t+\t0M", "L\t2\t-\t3\t+\t0M"]


# ------------------------------------------------------- column-backed paths
class TestColumnPaths:
    def test_columns_must_align(self):
        graph = VariationGraph()
        graph.add_node(0, "A")
        with pytest.raises(ValueError, match="aligned"):
            graph.add_path_columns("p", [0, 0], [False])

    def test_missing_node_detected_with_sparse_ids(self):
        graph = VariationGraph()
        for node_id in (0, 2, 5):
            graph.add_node(node_id, "A")
        graph.add_path_columns("ok", [5, 0, 2], [False, True, False])
        with pytest.raises(KeyError, match="missing node 1"):
            graph.add_path_columns("bad", [0, 1], [False, False])

    def test_missing_node_detected_after_removal(self):
        graph = VariationGraph()
        for node_id in range(3):
            graph.add_node(node_id, "A")
        graph.remove_node(1)
        with pytest.raises(KeyError, match="missing node 1"):
            graph.add_path("p", [(0, False), (1, False)])

    def test_lean_densifies_ids_in_insertion_order(self):
        graph = VariationGraph()
        for node_id, seq in ((9, "AAA"), (2, "C"), (5, "GG")):
            graph.add_node(node_id, seq)
        graph.add_path("p", [(5, False), (9, True), (2, False), (5, True)])
        graph.add_path("q", [(2, False)])
        lean = LeanGraph.from_variation_graph(graph)
        assert lean.node_lengths.tolist() == [3, 1, 2]
        assert lean.step_nodes.tolist() == [2, 0, 1, 2, 1]
        assert lean.step_reverse.tolist() == [False, True, False, True, False]
        assert lean.step_positions.tolist() == [0, 2, 5, 6, 0]
        assert graph.path_length_nucleotides("p") == 8
        assert graph.total_path_nucleotides() == 9
