"""Fuzz-ish negative tests: malformed inputs raise *typed* errors.

Contract under test: whatever bytes arrive, :mod:`repro.graph.gfa` raises
:class:`GFAError` and :mod:`repro.io.layout_file` raises
:class:`LayFormatError` (both ``ValueError`` subclasses) — never a bare
``KeyError``/``IndexError``/``struct.error`` escaping from parser internals,
and never a crash. Covers truncated records, bad ids, empty paths, binary
garbage and seeded random mutations of valid documents.
"""
from __future__ import annotations

import io
import random
import string

import numpy as np
import pytest

from repro.core import LayoutParams, PairSampler
from repro.core.layout import Layout
from repro.graph import LeanGraph, parse_gfa_text
from repro.graph.gfa import GFAError, gfa_to_text
from repro.io import read_lay, read_tsv, write_lay, write_tsv
from repro.io.layout_file import LayFormatError

VALID_GFA = (
    "H\tVN:Z:1.0\n"
    "S\ta\tACGT\n"
    "S\tb\tTT\n"
    "S\tc\t*\tLN:i:7\n"
    "L\ta\t+\tb\t+\t0M\n"
    "L\tb\t+\tc\t-\t0M\n"
    "P\tp1\ta+,b+,c-\t*\n"
    "P\tp2\ta+,c+\t*\n"
)


class TestGfaNegative:
    @pytest.mark.parametrize("text,reason", [
        ("S\ta\n", "S line missing sequence"),
        ("S\n", "S line with no fields"),
        ("S\ta\tACGT\nS\ta\tTT\n", "duplicate segment"),
        ("S\ta\t*\n", "* sequence without LN tag"),
        ("S\ta\t*\tLN:i:x\n", "unparseable LN tag"),
        ("S\ta\t*\tLN:i:-3\n", "negative LN tag"),
        ("S\ta\tA\nL\ta\t+\ta\n", "truncated L record"),
        ("S\ta\tA\nL\ta\t?\ta\t+\t0M\n", "bad L orientation"),
        ("S\ta\tA\nL\ta\t+\tmissing\t+\t0M\n", "L references unknown id"),
        ("P\tp\ta+\t*\n", "P references unknown id"),
        ("S\ta\tA\nP\tp\ta\t*\n", "path step without orientation"),
        ("S\ta\tA\nP\tp\t,\t*\n", "empty path step"),
        ("S\ta\tA\nP\tp\n", "truncated P record"),
        ("S\ta\tA\nP\tp\ta+\t*\nP\tp\ta+\t*\n", "duplicate path name"),
        ("X\twhatever\n", "unknown record type"),
        ("\x00\x07\tbinary\n", "binary garbage line"),
    ])
    def test_malformed_documents_raise_gfa_error(self, text, reason):
        with pytest.raises(GFAError):
            parse_gfa_text(text)

    @pytest.mark.parametrize("text,line", [
        ("S\ta\n", 1),
        ("S\n", 1),
        ("S\ta\tACGT\nS\ta\tTT\n", 2),
        ("S\ta\t*\n", 1),
        ("S\ta\t*\tLN:i:x\n", 1),
        ("S\ta\t*\tLN:i:-3\n", 1),
        ("S\ta\tA\nL\ta\t+\ta\n", 2),
        ("S\ta\tA\nL\ta\t?\ta\t+\t0M\n", 2),
        # An orientation is exactly "+" or "-": not empty, not "+-".
        ("S\t1\tA\nL\t1\t\t2\t+\t0M\nS\t2\tC\n", 2),
        ("S\t1\tA\nL\t1\t+-\t2\t+\t0M\nS\t2\tC\n", 2),
        ("S\t1\tA\nS\t2\tC\nL\t1\t+\t2\t\t0M\n", 3),
        ("S\ta\tA\nL\ta\t+\tmissing\t+\t0M\nS\tb\tC\n", 2),
        ("P\tp\ta+\t*\n", 1),
        ("H\tVN:Z:1.0\nP\tp\ta+,b+\t*\nS\ta\tA\n", 2),
        ("S\ta\tA\nP\tp\ta\t*\n", 2),
        ("S\ta\tA\nP\tp\t,\t*\n", 2),
        ("S\ta\tA\nP\tp\n", 2),
        ("S\ta\tA\nP\tp\ta+\t*\nP\tp\ta+\t*\n", 3),
        # The spilled record is the duplicate: it is applied at end of input.
        ("P\tp\tb+\t*\nS\ta\tA\nP\tp\ta+\t*\nS\tb\tC\n", 1),
        ("# comment\n\nS\ta\tA\nP\tp\tz+\t*\n", 4),
        # Several faults: the first in file order is raised, except that
        # records resolved at end of input come last, links before paths.
        ("S\ta\tA\nP\tp\ta\t*\nS\tb\n", 2),
        ("S\ta\tA\nP\tp\ta+\t*\nP\tp\ta+\t*\nS\tb\n", 3),
        ("S\ta\tA\nP\tp\tb+\t*\nL\ta\t+\tb\t+\t0M\n", 3),
        ("X\twhatever\n", 1),
        ("\x00\x07\tbinary\n", 1),
        # GFA 1.1 walks.
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t+a\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\ta>a\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t>a<<a\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t>a>\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\tx\t1\t>a\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1.5\t>a\n", 2),
        ("S\ta\tA\nW\ts\th\tc\t0\t1\t>a\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t>a>zz\n", 2),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\n", 2),
        ("W\ts\t0\tc\t0\t1\t>a\nS\ta\tA\nW\ts\t0\tc\t0\t1\t>a\n", 1),
        ("S\ta\tA\nW\ts\t0\tc\t0\t1\t>\ud800\n", 2),
        # Lengths are int64 columns: 2^63 does not fit.
        ("S\ta\t*\tLN:i:99999999999999999999\nP\tp\ta+\t*\n", 1),
        ("S\ta\t*\tLN:i:9223372036854775808\n", 1),
    ])
    def test_error_names_the_line(self, text, line):
        with pytest.raises(GFAError, match=f"^line {line}: ") as info:
            parse_gfa_text(text)
        assert info.value.lineno == line

    def test_empty_paths_are_typed_not_crashes(self):
        # `P name * *` is legal GFA (an empty path); layout then refuses the
        # zero-step graph with a typed error instead of dividing by zero.
        graph = parse_gfa_text("S\ta\tACGT\nP\tempty\t*\t*\n")
        lean = LeanGraph.from_variation_graph(graph)
        assert lean.total_steps == 0
        with pytest.raises(ValueError, match="without path steps"):
            PairSampler(lean, LayoutParams())

    def test_truncated_valid_document_prefixes(self):
        """Every prefix of a valid document parses or raises GFAError."""
        for cut in range(len(VALID_GFA)):
            try:
                parse_gfa_text(VALID_GFA[:cut])
            except GFAError:
                pass

    def test_seeded_random_line_mutations(self):
        """Mutating single characters never escapes the typed-error contract."""
        rng = random.Random(1234)
        alphabet = string.printable + "\x00\xff"
        for _ in range(300):
            pos = rng.randrange(len(VALID_GFA))
            char = rng.choice(alphabet)
            mutated = VALID_GFA[:pos] + char + VALID_GFA[pos + 1:]
            try:
                parse_gfa_text(mutated)
            except GFAError:
                pass

    def test_round_trip_survives(self):
        graph = parse_gfa_text(VALID_GFA)
        again = parse_gfa_text(gfa_to_text(graph))
        assert again.node_count == graph.node_count
        assert again.path_count == graph.path_count


def _valid_lay_bytes() -> bytes:
    coords = np.arange(12, dtype=np.float64).reshape(6, 2)
    buf = io.BytesIO()
    write_lay(Layout(coords), buf)
    return buf.getvalue()


class TestLayNegative:
    @pytest.mark.parametrize("data,reason", [
        (b"", "empty file"),
        (b"RPL", "shorter than magic"),
        (b"NOPE" + b"\x00" * 32, "bad magic"),
        (b"RPLY" + b"\x00" * 4, "truncated header"),
        (b"RPLY" + b"\xff" * 12, "unsupported version"),
    ])
    def test_malformed_headers(self, data, reason):
        with pytest.raises(LayFormatError):
            read_lay(io.BytesIO(data))

    def test_truncated_payload_every_cut(self):
        data = _valid_lay_bytes()
        for cut in range(len(data)):
            with pytest.raises(LayFormatError):
                read_lay(io.BytesIO(data[:cut]))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(LayFormatError, match="size mismatch"):
            read_lay(io.BytesIO(_valid_lay_bytes() + b"extra"))

    def test_huge_node_count_rejected_without_allocation(self):
        # n_nodes = 2^60: the size check must fire before any array allocation.
        import struct
        data = b"RPLY" + struct.pack("<IQ", 1, 1 << 60) + b"\x00" * 64
        with pytest.raises(LayFormatError, match="size mismatch"):
            read_lay(io.BytesIO(data))

    def test_seeded_random_byte_flips(self):
        data = _valid_lay_bytes()
        rng = random.Random(99)
        for _ in range(200):
            pos = rng.randrange(len(data))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            try:
                layout = read_lay(io.BytesIO(bytes(flipped)))
                assert layout.coords.shape == (6, 2)  # payload flip: still shaped
            except LayFormatError:
                pass


class TestTsvNegative:
    def _tsv(self) -> str:
        coords = np.arange(12, dtype=np.float64).reshape(6, 2)
        buf = io.StringIO()
        write_tsv(Layout(coords), buf)
        return buf.getvalue()

    @pytest.mark.parametrize("text,reason", [
        ("", "empty document"),
        ("#header only\n", "no data rows"),
        ("0\t1\t2\t3\n", "too few columns"),
        ("0\t1\t2\t3\t4\t5\n", "too many columns"),
        ("zero\t1\t2\t3\t4\n", "non-integer id"),
        ("0\tx\t2\t3\t4\n", "non-float coordinate"),
        ("0\t1\t2\t3\t4\n0\t1\t2\t3\t4\n", "duplicate node id"),
        ("1\t1\t2\t3\t4\n", "ids not starting at 0"),
        ("0\t1\t2\t3\t4\n2\t1\t2\t3\t4\n", "gap in node ids"),
        ("-1\t1\t2\t3\t4\n", "negative node id"),
    ])
    def test_malformed_rows(self, text, reason):
        with pytest.raises(LayFormatError):
            read_tsv(io.StringIO(text))

    def test_reordered_rows_round_trip(self):
        lines = self._tsv().strip().split("\n")
        shuffled = [lines[0]] + lines[:0:-1]
        layout = read_tsv(io.StringIO("\n".join(shuffled) + "\n"))
        np.testing.assert_array_equal(
            layout.coords, np.arange(12, dtype=np.float64).reshape(6, 2))

    def test_seeded_random_field_mutations(self):
        text = self._tsv()
        rng = random.Random(7)
        for _ in range(200):
            pos = rng.randrange(len(text))
            mutated = text[:pos] + rng.choice("abc\t\n-.") + text[pos + 1:]
            try:
                read_tsv(io.StringIO(mutated))
            except LayFormatError:
                pass
