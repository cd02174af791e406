"""Graph objects built on demand and the packed P-line lookup.

``VariationGraph`` stores node lengths, the sequences it was given and edge
keys, and builds ``Node`` and ``Edge`` values when asked; the GFA reader
fills that storage in bulk. A parsed graph must read exactly like the same
graph built one ``add_node``/``add_edge``/``add_path`` call at a time. The
reader maps a P line whose segment names fit in 8 bytes through packed
``uint64`` keys; every other line goes through the name dictionary, and the
two must agree with the per-step reader (``tests/gfa_reference.py``).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from gfa_reference import reference_parse
from repro.graph import (
    GFAError,
    Node,
    VariationGraph,
    figure1_example,
    gfa_to_text,
    parse_gfa_text,
)
from repro.graph import gfa as gfa_module
from repro.synth import chr1_like
from test_gfa_columnar import assert_matches_reference

DATA = Path(__file__).parent / "data"

DOCUMENTS = {
    "tiny": lambda: (DATA / "golden" / "tiny.gfa").read_text(),
    "figure1": lambda: gfa_to_text(figure1_example()),
    # LN:i-only segments, 1,152 of them.
    "chr1_like": lambda: gfa_to_text(chr1_like(scale=0.05)),
}


def built_one_at_a_time(text: str) -> VariationGraph:
    """The graph of ``text`` built through ``add_node``, ``add_edge`` and
    ``add_path``, from what the per-step reader read."""
    reference = reference_parse(text)
    graph = VariationGraph()
    for node_id, sequence in reference.sequences.items():
        graph.add_node(node_id, sequence)
    for from_id, from_rev, to_id, to_rev in reference.edges:
        graph.add_edge(from_id, to_id, from_rev, to_rev)
    for name, steps in reference.paths.items():
        graph.add_path(name, steps)
    return graph


@pytest.fixture(params=sorted(DOCUMENTS))
def document(request) -> str:
    return DOCUMENTS[request.param]()


class TestParsedGraphReadsLikeBuiltGraph:
    def test_nodes(self, document):
        parsed, built = parse_gfa_text(document), built_one_at_a_time(document)
        assert parsed.node_ids() == built.node_ids()
        assert list(parsed.nodes()) == list(built.nodes())
        assert [parsed.get_node(i) for i in built.node_ids()] == list(built.nodes())
        lengths = parsed.node_lengths()
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [node.length for node in built.nodes()]
        np.testing.assert_array_equal(built.node_lengths(), lengths)
        assert parsed.total_sequence_length() == built.total_sequence_length()

    def test_edges_and_adjacency(self, document):
        parsed, built = parse_gfa_text(document), built_one_at_a_time(document)
        assert list(parsed.edges()) == list(built.edges())
        for edge in built.edges():
            for from_rev in (False, True):
                for to_rev in (False, True):
                    args = (edge.from_id, edge.to_id, from_rev, to_rev)
                    assert parsed.has_edge(*args) == built.has_edge(*args)
        for node_id in built.node_ids():
            assert parsed.neighbors(node_id) == built.neighbors(node_id)
            assert parsed.degree(node_id) == built.degree(node_id)

    def test_length_only_segment_reads_as_ns(self):
        graph = parse_gfa_text("S\ta\t*\tLN:i:3\nS\tb\tAC\nS\tc\t*\tLN:i:0\n")
        assert list(graph.nodes()) == [Node(0, "NNN"), Node(1, "AC"), Node(2, "")]
        assert graph.get_node(0).length == graph.node_length(0) == 3
        assert graph.node_lengths().tolist() == [3, 2, 0]
        assert graph.total_sequence_length() == 5


@pytest.mark.parametrize("adjacency_first", [False, True])
def test_remove_node_on_parsed_graph(adjacency_first):
    graph = parse_gfa_text("S\ta\tA\nS\tb\tCC\nS\tc\tG\nL\ta\t+\tb\t+\t0M\n"
                           "L\tb\t+\tc\t-\t0M\nL\tc\t+\ta\t+\t0M\nP\tp\ta+,c+\t*\n")
    if adjacency_first:
        assert graph.neighbors(0) == {1, 2}
    graph.remove_node(1)
    assert graph.node_ids() == [0, 2]
    assert graph.node_lengths().tolist() == [1, 1]
    assert [edge.key() for edge in graph.edges()] == [(2, False, 0, False)]
    assert not graph.has_edge(0, 1)
    assert graph.neighbors(0) == {2} and graph.neighbors(2) == {0}
    assert graph.degree(0) == 1
    with pytest.raises(KeyError):
        graph.get_node(1)
    with pytest.raises(KeyError):
        graph.degree(1)
    graph.add_node(1, "TTT")
    graph.add_edge(1, 0)
    assert graph.neighbors(0) == {1, 2}
    assert graph.get_node(1) == Node(1, "TTT")


class TestPackedStepLookup:
    @pytest.fixture
    def dict_lookups(self, monkeypatch):
        """Step counts of the lines mapped through the name dictionary."""
        calls = []
        resolve = gfa_module._resolve

        def counting(name_to_id, names):
            calls.append(len(names))
            return resolve(name_to_id, names)

        monkeypatch.setattr(gfa_module, "_resolve", counting)
        return calls

    def test_names_that_prefix_each_other(self, dict_lookups):
        graph = assert_matches_reference(
            "S\t1\tA\nS\t10\tCC\nS\t100\tGGG\nS\t1000\tT\n"
            "P\tp\t100+,1-,10+,1000-,1+\t*\nP\tq\t10+,100-\t*\n")
        assert dict_lookups == []
        assert graph.get_path("p").nodes.tolist() == [2, 0, 1, 3, 0]

    def test_non_ascii_names_of_7_and_8_bytes(self, dict_lookups):
        # "abcdeé" is 7 UTF-8 bytes, "中中é" and "abcdefé" are 8.
        assert_matches_reference("S\tabcdeé\tA\nS\t中中é\tC\nS\tabcdefé\tG\n"
                                 "P\tp\t中中é+,abcdeé-,abcdefé+\t*\n")
        assert dict_lookups == []

    def test_one_nine_byte_name_sends_every_line_to_the_dictionary(self, dict_lookups):
        # "中中中" is 9 UTF-8 bytes.
        assert_matches_reference("S\ta\tA\nS\t中中中\tC\nS\tabcdeé\tG\n"
                                 "P\tp\ta+,abcdeé-\t*\nP\tq\t中中中+,a+\t*\n")
        assert dict_lookups == [2, 2]

    def test_longer_step_name_is_not_its_8_byte_prefix(self):
        with pytest.raises(GFAError) as info:
            parse_gfa_text("S\t中中é\tA\nP\tp\t中中éx+\t*\n")
        assert str(info.value) == "line 2: path 'p' references unknown segment '中中éx'"

    def test_nul_byte_in_step_name_is_not_its_prefix(self):
        with pytest.raises(GFAError) as info:
            parse_gfa_text("S\ta\tA\nP\tp\ta\0+\t*\n")
        assert str(info.value) == (
            "line 2: path 'p' references unknown segment " + repr("a\0"))

    def test_nul_byte_in_segment_names(self):
        graph = assert_matches_reference("S\ta\tA\nS\ta\0\tC\nP\tp\ta\0+,a-\t*\n")
        assert graph.get_path("p").nodes.tolist() == [1, 0]

    def test_step_naming_a_later_segment(self, dict_lookups):
        text = ("S\t1\tA\nP\tlate\t1+,3-\t*\nP\tearly\t1+\t*\nS\t2\tCC\n"
                "P\tmid\t2+,1+\t*\nS\t3\tG\nP\tlast\t3+,2-\t*\n")
        graph = assert_matches_reference(text)
        assert graph.path_names() == ["early", "mid", "last", "late"]
        # "late" and "mid" miss the keys built at line 2; three segments are
        # more than twice the one those keys cover, so "last" finds new keys.
        assert dict_lookups == [2, 2]

    def test_unknown_step_name_message(self):
        with pytest.raises(GFAError) as info:
            parse_gfa_text("S\t1\tA\nS\t2\tC\nP\tp\t1+,12+,2-\t*\n")
        assert str(info.value) == "line 3: path 'p' references unknown segment '12'"
        assert info.value.lineno == 3
