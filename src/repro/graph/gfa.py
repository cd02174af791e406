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

Records become columns, not objects: an ``S`` line appends its name, its
length and any sequence it has; an ``L`` line appends its names,
orientations and line number and how many segments had been declared by
then, and all links are resolved in one dictionary pass after the last
line. A ``P`` line is mapped to node ids as a whole: while every segment
name is at most 8 UTF-8 bytes, the names are packed into sorted big-endian
``uint64`` keys, and a step field maps with one ``np.searchsorted`` over the
keys its comma positions give. A line that does not fit (a longer name, a
NUL byte, a name not among the keys) is split and mapped through the name
dictionary instead. Each path is stored as an int64 id column plus a bool
orientation column, which is what :meth:`LeanGraph.from_variation_graph`
concatenates.

Every check that can fail on one line runs while that line is read, so the
error raised is the first in file order. Only *true forward references* —
records naming a segment not yet declared — are resolved at end of input:
their links follow the others, their paths are added after every path whose
segments were declared before its line, and an unknown name raises there.
Every :class:`GFAError` carries the 1-based line number of the offending
record, including those resolved at end of input.
"""
from __future__ import annotations

import io
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .lean import LeanGraph
from .variation_graph import EdgeKey, VariationGraph

__all__ = ["parse_gfa", "parse_gfa_text", "write_gfa", "gfa_to_text", "GFAError"]

#: The orientation mark opening each step of a W-line walk.
_W_MARK = re.compile(r"[<>]")
_UINT = re.compile(r"[0-9]+")
_COMMA, _PLUS, _MINUS, _GT, _LT = (ord(c) for c in ",+-><")
#: The orientation of an ``L`` line end: exactly one of these.
_MARKS = ("+", "-")
#: ``_KEY_MASKS[n]`` keeps the first ``n`` bytes of a big-endian 8-byte word.
_KEY_MASKS = np.array([0] + [(1 << 64) - (1 << (64 - 8 * n)) for n in range(1, 9)],
                      dtype=np.uint64)


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
    # Segment columns; a segment's node id is its declaration order.
    name_to_id: Dict[str, int] = {}
    lengths: List[int] = []
    sequences: Dict[int, str] = {}
    # (lineno, segments declared by then, from, from_rev, to, to_rev).
    links: List[Tuple[int, int, str, bool, str, bool]] = []
    # Paths whose segments were all declared before their line, in file
    # order. A path naming a segment not yet declared is spilled with its
    # names and resolved at end of input.
    paths: Dict[str, Tuple[Sequence[int], np.ndarray]] = {}
    spilled_paths: List[Tuple[int, str, List[str], np.ndarray]] = []
    packed = _PackedNames(name_to_id)

    for lineno, raw in enumerate(handle, start=1):
        line = raw.rstrip("\n")
        if not line or line[0] == "#":
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
                lengths.append(_length_from_tags(fields[3:], lineno))
            else:
                sequences[len(lengths)] = seq
                lengths.append(len(seq))
            name_to_id[name] = len(name_to_id)
        elif tag == "L":
            if len(fields) < 5:
                raise GFAError("L line needs 5 fields", lineno)
            if fields[2] not in _MARKS or fields[4] not in _MARKS:
                raise GFAError("invalid orientation in L line", lineno)
            links.append((lineno, len(lengths), fields[1], fields[2] == "-",
                          fields[3], fields[4] == "-"))
        elif tag in ("P", "W"):
            if tag == "P":
                if len(fields) < 3:
                    raise GFAError("P line needs name and steps", lineno)
                path_name = fields[1]
                data, marks, reverse = _path_steps(fields[2], lineno)
                node_ids = packed.lookup(fields[2], data, marks)
                if node_ids is None:
                    names = _path_names(fields[2])
                    node_ids = _resolve(name_to_id, names)
            else:
                path_name = _walk_name(fields, lineno)
                names, reverse = _walk_steps(fields[6], lineno)
                node_ids = _resolve(name_to_id, names)
            if node_ids is None:
                spilled_paths.append((lineno, path_name, names, reverse))
            elif path_name in paths:
                raise _duplicate_path(path_name, lineno)
            else:
                paths[path_name] = (node_ids, reverse)
        elif tag in ("C", "J"):
            # Containments / jumps are valid GFA but unused by layout.
            continue
        else:
            raise GFAError(f"unknown record type '{tag}'", lineno)

    edges = dict.fromkeys(_link_keys(links, name_to_id))
    for lineno, path_name, names, reverse in spilled_paths:
        try:
            node_ids = [name_to_id[n] for n in names]
        except KeyError as exc:
            raise GFAError(
                f"path '{path_name}' references unknown segment {exc}", lineno
            ) from exc
        if path_name in paths:
            raise _duplicate_path(path_name, lineno)
        paths[path_name] = (node_ids, reverse)

    graph = VariationGraph()
    graph._install(lengths, sequences, edges)
    for path_name, (node_ids, reverse) in paths.items():
        graph.add_path_columns(path_name, node_ids, reverse)
    graph.segment_names = dict(enumerate(name_to_id))  # type: ignore[attr-defined]
    return graph


def _link_keys(links: List[Tuple[int, int, str, bool, str, bool]],
               name_to_id: Dict[str, int]) -> List[EdgeKey]:
    """Edge keys of the ``L`` records, in the order a reader applying each
    record when it can gives them: the links whose segments were declared
    before the line, then the forward references, each in file order."""
    unknown = len(name_to_id)
    eager: List[EdgeKey] = []
    forward: List[EdgeKey] = []
    for lineno, declared, from_name, from_rev, to_name, to_rev in links:
        from_id = name_to_id.get(from_name, unknown)
        to_id = name_to_id.get(to_name, unknown)
        if from_id == unknown or to_id == unknown:
            name = from_name if from_id == unknown else to_name
            raise GFAError(f"link references unknown segment {name!r}", lineno)
        key = (from_id, from_rev, to_id, to_rev)
        if from_id < declared and to_id < declared:
            eager.append(key)
        else:
            forward.append(key)
    return eager + forward


def _duplicate_path(path_name: str, lineno: int) -> GFAError:
    return GFAError(f"invalid path '{path_name}': path '{path_name}' already exists",
                    lineno)


def _resolve(name_to_id: Dict[str, int], names: List[str]) -> Optional[np.ndarray]:
    """Node ids of ``names`` as an int64 column, or None if one is unknown."""
    try:
        return np.fromiter(map(name_to_id.__getitem__, names), dtype=np.int64,
                           count=len(names))
    except KeyError:
        return None


class _PackedNames:
    """Segment names as sorted big-endian ``uint64`` keys, so that a whole
    P line maps to node ids with one ``np.searchsorted``.

    A name of at most 8 UTF-8 bytes without a NUL byte, zero-padded to 8
    bytes, is one integer that no other such name shares. The keys cover the
    segments declared when they were built, and are built again once twice
    as many are declared. If a covered name does not fit, there are no keys
    and every line goes through the name dictionary.
    """

    def __init__(self, name_to_id: Dict[str, int]):
        self._name_to_id = name_to_id
        self._covered = 0
        self._keys: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None

    def _build(self) -> None:
        names = list(self._name_to_id)
        self._covered = len(names)
        self._keys = self._ids = None
        # surrogatepass: a str handed to parse_gfa_text may hold lone
        # surrogates, which strict UTF-8 cannot encode.
        encoded = [name.encode("utf-8", "surrogatepass") for name in names]
        if max(map(len, encoded)) > 8 or "\0" in "".join(names):
            return
        keys = np.frombuffer(b"".join(e.ljust(8, b"\0") for e in encoded),
                             dtype=">u8").astype(np.uint64)
        self._ids = np.argsort(keys)
        self._keys = keys[self._ids]

    def lookup(self, step_field: str, data: np.ndarray,
               marks: np.ndarray) -> Optional[np.ndarray]:
        """Node ids of a step field's names, or None when one is not a key:
        longer than 8 bytes, holding a NUL byte, or not declared when the
        keys were built."""
        if len(self._name_to_id) > 2 * self._covered:
            self._build()
        if self._keys is None or not marks.size or "\0" in step_field:
            return None
        starts = np.empty_like(marks)
        starts[0] = 0
        starts[1:] = marks[:-1] + 2
        sizes = marks - starts
        if sizes.max() > 8:
            return None
        # Each step's first 8 bytes as one word, masked to the name's bytes.
        padded = np.zeros(data.size + 8, dtype=np.uint8)
        padded[:data.size] = data
        words = np.ndarray(data.size, dtype=">u8", buffer=padded, strides=(1,))
        keys = words.take(starts) & _KEY_MASKS.take(sizes)
        slots = np.searchsorted(self._keys, keys)
        if not np.array_equal(self._keys.take(slots, mode="clip"), keys):
            return None
        return self._ids.take(slots)


def _length_from_tags(tags: List[str], lineno: int) -> int:
    for tag in tags:
        if tag.startswith("LN:i:"):
            try:
                length = int(tag[5:])
            except ValueError as exc:
                raise GFAError(f"bad LN tag '{tag}'", lineno) from exc
            if length < 0:
                raise GFAError("negative LN tag", lineno)
            if length >= 2**63:
                raise GFAError(f"LN tag '{tag}' does not fit a 64-bit length", lineno)
            return length
    raise GFAError("segment with '*' sequence requires an LN:i: tag", lineno)


def _path_steps(step_field: str, lineno: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A P line's step field as its UTF-8 bytes, the byte offset of each
    step's orientation mark, and the orientations."""
    if step_field == "*":
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    # surrogatepass, as for the keys: a malformed field must reach the
    # per-item check below.
    data = np.frombuffer(step_field.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # Well formed means every step ends in a mark: the byte before each
    # comma does, and so does the last byte.
    marks = np.append(np.flatnonzero(data == _COMMA), data.size) - 1
    if marks[0] >= 0:
        found = data.take(marks)
        reverse = found == _MINUS
        if np.all(reverse | (found == _PLUS)):
            return data, marks, reverse
    # Malformed: name the first bad step.
    bad = next(item for item in step_field.split(",") if not item or item[-1] not in "+-")
    raise GFAError(f"path step '{bad}' lacks orientation" if bad else "empty path step",
                   lineno)


def _path_names(step_field: str) -> List[str]:
    """Segment names of a well-formed P line step field."""
    if step_field == "*":
        return []
    # Segment names may contain ``+`` and ``-``: only a mark directly
    # before a comma ends a step, so split on "[+-]," (as "+," after
    # folding "-," into it, which str does twice as fast as re).
    return step_field[:-1].replace("-,", "+,").split("+,")


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
    # surrogatepass, as for P lines: a lone surrogate is a name like any
    # other, and an unknown one raises the typed error naming the line.
    data = np.frombuffer(walk.encode("utf-8", "surrogatepass"), dtype=np.uint8)
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
