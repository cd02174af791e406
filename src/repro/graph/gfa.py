"""GFA v1 parsing and serialisation.

The HPRC pangenomes evaluated in the paper are distributed as GFA files and
converted to ODGI's binary format before layout. This module implements the
subset of GFA v1 that variation graphs use:

* ``H`` header lines (version tag),
* ``S`` segment lines (``S <name> <sequence>``), optionally with ``LN:i:``
  length tags in place of an explicit sequence,
* ``L`` link lines (``L <from> <+/-> <to> <+/-> <overlap>``),
* ``P`` path lines (``P <name> <steps> <overlaps>``), where steps are
  comma-separated ``<segment><+/->`` items,
* GFA 1.1 ``W`` walk lines (``W <sample> <hap> <seqid> <start> <end>
  <walk>``), where the walk is a run of ``>segment`` / ``<segment`` steps.
  A walk becomes a path named ``sample#hap#seqid:start-end`` (PanSN), so
  the fragments of one haplotype stay distinct.

Segment names may be arbitrary strings; they are mapped to dense integer node
ids in input order, and the mapping is preserved on round-trip so layouts can
be joined back to the original names.

Path steps are read per line, never per step: the step field is split once
into segment names, its orientation marks are read from the line's bytes,
and the names are mapped to node ids in one dictionary pass into an int64
column. Each path is stored as that id column plus a bool orientation
column, which is what :meth:`LeanGraph.from_variation_graph` concatenates.

Parsing is single-pass with O(pending) transient memory: ``L``/``P``/``W``
records are resolved against the name map and applied to the graph as soon
as they are read (GFA segments overwhelmingly precede their uses), and only
*true forward references* — records naming a segment not yet declared — are
spilled to a small list resolved once at end of input, after every
eagerly-resolved record. Every :class:`GFAError` carries the 1-based line
number of the offending record, including those resolved at end of input.
"""
from __future__ import annotations

import io
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .lean import LeanGraph
from .variation_graph import VariationGraph

__all__ = ["parse_gfa", "parse_gfa_text", "write_gfa", "gfa_to_text", "GFAError"]

#: The orientation mark opening each step of a W-line walk.
_W_MARK = re.compile(r"[<>]")
_UINT = re.compile(r"[0-9]+")
_COMMA, _MINUS, _GT, _LT = (ord(c) for c in ",-><")


class GFAError(ValueError):
    """Raised when a GFA document is malformed.

    ``lineno`` is the 1-based line of the offending record; the message
    starts with it.
    """

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _open_maybe(path_or_handle: Union[str, os.PathLike, TextIO]) -> Tuple[TextIO, bool]:
    if hasattr(path_or_handle, "read"):
        return path_or_handle, False  # type: ignore[return-value]
    return open(path_or_handle, "r", encoding="utf-8"), True


def parse_gfa(source: Union[str, os.PathLike, TextIO]) -> VariationGraph:
    """Parse a GFA v1 file (path or handle) into a :class:`VariationGraph`."""
    handle, owned = _open_maybe(source)
    try:
        return _parse_lines(handle)
    finally:
        if owned:
            handle.close()


def parse_gfa_text(text: str) -> VariationGraph:
    """Parse GFA v1 from an in-memory string."""
    return _parse_lines(io.StringIO(text))


def _parse_lines(handle: Iterable[str]) -> VariationGraph:
    graph = VariationGraph()
    name_to_id: Dict[str, int] = {}
    # True forward references only, each with its line number. L/P/W records
    # whose segment names all resolve are applied immediately; a record
    # naming a not-yet-declared segment is spilled here and resolved once
    # at end of input, so transient memory is O(pending), not O(file).
    spilled_links: List[Tuple[int, str, bool, str, bool]] = []
    spilled_paths: List[Tuple[int, str, List[str], np.ndarray]] = []

    for lineno, raw in enumerate(handle, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "H":
            continue
        if tag == "S":
            if len(fields) < 3:
                raise GFAError("S line needs name and sequence", lineno)
            name, seq = fields[1], fields[2]
            if name in name_to_id:
                raise GFAError(f"duplicate segment '{name}'", lineno)
            if seq == "*":
                seq = _sequence_from_tags(fields[3:], lineno)
            node_id = len(name_to_id)
            name_to_id[name] = node_id
            graph.add_node(node_id, seq)
        elif tag == "L":
            if len(fields) < 5:
                raise GFAError("L line needs 5 fields", lineno)
            if fields[2] not in "+-" or fields[4] not in "+-":
                raise GFAError("invalid orientation in L line", lineno)
            from_name, from_rev = fields[1], fields[2] == "-"
            to_name, to_rev = fields[3], fields[4] == "-"
            from_id = name_to_id.get(from_name)
            to_id = name_to_id.get(to_name)
            if from_id is None or to_id is None:
                spilled_links.append((lineno, from_name, from_rev, to_name, to_rev))
            else:
                graph.add_edge(from_id, to_id, from_rev, to_rev)
        elif tag in ("P", "W"):
            if tag == "P":
                if len(fields) < 3:
                    raise GFAError("P line needs name and steps", lineno)
                path_name = fields[1]
                names, reverse = _path_steps(fields[2], lineno)
            else:
                path_name = _walk_name(fields, lineno)
                names, reverse = _walk_steps(fields[6], lineno)
            node_ids = _resolve(name_to_id, names)
            if node_ids is None:
                spilled_paths.append((lineno, path_name, names, reverse))
            else:
                _add_path_checked(graph, lineno, path_name, node_ids, reverse)
        elif tag in ("C", "J"):
            # Containments / jumps are valid GFA but unused by layout.
            continue
        else:
            raise GFAError(f"unknown record type '{tag}'", lineno)

    for lineno, from_name, from_rev, to_name, to_rev in spilled_links:
        try:
            graph.add_edge(
                name_to_id[from_name], name_to_id[to_name], from_rev, to_rev
            )
        except KeyError as exc:
            raise GFAError(f"link references unknown segment {exc}", lineno) from exc

    for lineno, path_name, names, reverse in spilled_paths:
        try:
            node_ids = [name_to_id[n] for n in names]
        except KeyError as exc:
            raise GFAError(
                f"path '{path_name}' references unknown segment {exc}", lineno
            ) from exc
        _add_path_checked(graph, lineno, path_name, node_ids, reverse)

    graph.segment_names = {v: k for k, v in name_to_id.items()}  # type: ignore[attr-defined]
    return graph


def _resolve(name_to_id: Dict[str, int], names: List[str]) -> Optional[np.ndarray]:
    """Node ids of ``names`` as an int64 column, or None if one is unknown."""
    try:
        return np.fromiter(map(name_to_id.__getitem__, names), dtype=np.int64,
                           count=len(names))
    except KeyError:
        return None


def _add_path_checked(graph: VariationGraph, lineno: int, path_name: str,
                      node_ids: Sequence[int], reverse: np.ndarray) -> None:
    try:
        graph.add_path_columns(path_name, node_ids, reverse)
    except ValueError as exc:  # e.g. duplicate path names
        raise GFAError(f"invalid path '{path_name}': {exc}", lineno) from exc


def _sequence_from_tags(tags: List[str], lineno: int) -> str:
    for tag in tags:
        if tag.startswith("LN:i:"):
            try:
                length = int(tag[5:])
            except ValueError as exc:
                raise GFAError(f"bad LN tag '{tag}'", lineno) from exc
            if length < 0:
                raise GFAError("negative LN tag", lineno)
            return "N" * length
    raise GFAError("segment with '*' sequence requires an LN:i: tag", lineno)


def _path_steps(step_field: str, lineno: int) -> Tuple[List[str], np.ndarray]:
    """Segment names and orientations of a P line's step field."""
    if step_field == "*":
        return [], np.zeros(0, dtype=bool)
    # Well formed means every step ends in a mark: the field does, and so
    # does every item before a comma.
    if step_field[-1:] in ("+", "-") and step_field.count(",") == (
        step_field.count("+,") + step_field.count("-,")
    ):
        data = np.frombuffer(step_field.encode(), dtype=np.uint8)
        marks = np.append(data[np.flatnonzero(data == _COMMA) - 1], data[-1])
        # Segment names may contain ``+`` and ``-``: only a mark directly
        # before a comma ends a step, so split on "[+-]," (as "+," after
        # folding "-," into it, which str does twice as fast as re).
        names = step_field[:-1].replace("-,", "+,").split("+,")
        return names, marks == _MINUS
    # Malformed: name the first bad step.
    bad = next(item for item in step_field.split(",") if not item or item[-1] not in "+-")
    raise GFAError(f"path step '{bad}' lacks orientation" if bad else "empty path step",
                   lineno)


def _walk_name(fields: List[str], lineno: int) -> str:
    """The PanSN path name ``sample#hap#seqid:start-end`` of a W line."""
    if len(fields) < 7:
        raise GFAError("W line needs sample, haplotype, sequence, start, end and walk",
                       lineno)
    sample, hap, seq_id, start, end = fields[1:6]
    if not _UINT.fullmatch(hap):
        raise GFAError(f"W line haplotype index '{hap}' is not an integer", lineno)
    for bound in (start, end):
        if bound != "*" and not _UINT.fullmatch(bound):
            raise GFAError(f"W line range bound '{bound}' is not an integer", lineno)
    if "*" in (start, end):
        return f"{sample}#{hap}#{seq_id}"
    return f"{sample}#{hap}#{seq_id}:{start}-{end}"


def _walk_steps(walk: str, lineno: int) -> Tuple[List[str], np.ndarray]:
    """Segment names and orientations of a W line's ``>``/``<`` walk."""
    data = np.frombuffer(walk.encode(), dtype=np.uint8)
    is_mark = (data == _GT) | (data == _LT)
    starts = np.flatnonzero(is_mark)
    if not walk or not is_mark[0]:
        raise GFAError(f"walk step '{_W_MARK.split(walk)[0]}' lacks a '>' or '<' mark",
                       lineno)
    if is_mark[-1] or np.any(np.diff(starts) == 1):
        raise GFAError("empty walk step", lineno)
    return _W_MARK.split(walk)[1:], data[starts] == _LT


# ------------------------------------------------------------------ writing
def _p_line(name: str, steps: List[str]) -> str:
    return f"P\t{name}\t{','.join(steps) if steps else '*'}\t*"


def _lean_lines(graph: LeanGraph) -> List[str]:
    """``S`` lines with ``LN:i`` lengths, one ``L`` line per distinct
    consecutive oriented step pair, one ``P`` line per path; segment ``i``
    is named ``i + 1``."""
    out = [f"S\t{i}\t*\tLN:i:{n}" for i, n in enumerate(graph.node_lengths.tolist(), 1)]
    nodes, rev = graph.step_nodes, graph.step_reverse
    path_of = np.repeat(np.arange(graph.n_paths), graph.path_step_counts)
    same_path = path_of[:-1] == path_of[1:]
    # An oriented node end is 2 * node + reverse; a step pair is one integer
    # key, so the distinct pairs come out of one sort, in (a, ra, b, rb) order.
    ends = 2 * nodes + rev
    span = 2 * max(graph.n_nodes, 1)
    keys = np.unique((ends[:-1] * span + ends[1:])[same_path])
    for a, b in zip((keys // span).tolist(), (keys % span).tolist()):
        out.append(f"L\t{(a >> 1) + 1}\t{'-' if a & 1 else '+'}\t"
                   f"{(b >> 1) + 1}\t{'-' if b & 1 else '+'}\t0M")
    steps = [f"{n + 1}{'-' if r else '+'}" for n, r in zip(nodes.tolist(), rev.tolist())]
    offsets = graph.path_offsets.tolist()
    for p, name in enumerate(graph.path_names):
        out.append(_p_line(name, steps[offsets[p]:offsets[p + 1]]))
    return out


def _variation_lines(graph: VariationGraph, store_sequence: bool) -> List[str]:
    names = getattr(graph, "segment_names", None) or {}
    out: List[str] = []
    for node in graph.nodes():
        name = names.get(node.node_id, str(node.node_id + 1))
        if store_sequence:
            out.append(f"S\t{name}\t{node.sequence if node.sequence else '*'}"
                       + ("" if node.sequence else "\tLN:i:0"))
        else:
            out.append(f"S\t{name}\t*\tLN:i:{node.length}")
    for edge in graph.edges():
        fn = names.get(edge.from_id, str(edge.from_id + 1))
        tn = names.get(edge.to_id, str(edge.to_id + 1))
        out.append(
            "L\t{}\t{}\t{}\t{}\t0M".format(
                fn, "-" if edge.from_rev else "+", tn, "-" if edge.to_rev else "+"
            )
        )
    for path in graph.paths():
        out.append(_p_line(path.name, [
            f"{names.get(n, str(n + 1))}{'-' if r else '+'}"
            for n, r in zip(path.nodes.tolist(), path.reverse.tolist())
        ]))
    return out


def gfa_to_text(graph: Union[VariationGraph, LeanGraph], store_sequence: bool = True) -> str:
    """Serialise a graph to a GFA v1 string.

    When ``store_sequence`` is ``False``, sequences are written as ``*`` with
    ``LN:i:`` length tags — the lean form sufficient for layout. A
    :class:`LeanGraph` has no sequences or edge list: it is always written in
    the lean form, with one ``L`` line per distinct consecutive oriented step
    pair and segment ``i`` named ``i + 1``.
    """
    if isinstance(graph, LeanGraph):
        body = _lean_lines(graph)
    else:
        body = _variation_lines(graph, store_sequence)
    return "\n".join(["H\tVN:Z:1.0"] + body) + "\n"


def write_gfa(
    graph: Union[VariationGraph, LeanGraph],
    destination: Union[str, os.PathLike, TextIO],
    store_sequence: bool = True,
) -> None:
    """Write a graph as GFA v1 to a path or file handle."""
    text = gfa_to_text(graph, store_sequence=store_sequence)
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(text)
