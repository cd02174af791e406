"""The per-step GFA reader that ``repro.graph.gfa`` replaced, kept as a test oracle.

This is the earlier ``_parse_lines`` and ``LeanGraph.from_variation_graph``
loop, unchanged in logic except that an ``L`` line's orientations must be
exactly ``+`` or ``-`` (as in the reader), writing into a minimal stand-in
graph instead of ``VariationGraph``: one ``(node_id, is_reverse)`` tuple per step, positions
accumulated step by step. It reads P lines only (W lines were skipped).
The differential tests check the columnar reader against it; nothing under
``src/`` imports it.
"""
from __future__ import annotations

import io
from typing import Dict, List, Tuple

import numpy as np

from repro.graph import GFAError, LeanGraph


class ReferenceGraph:
    """What the old reader stored: nodes, edge keys and per-step path lists."""

    def __init__(self) -> None:
        self.sequences: Dict[int, str] = {}
        self.edges: Dict[Tuple[int, bool, int, bool], None] = {}
        self.paths: Dict[str, List[Tuple[int, bool]]] = {}
        self.segment_names: Dict[int, str] = {}

    def add_path(self, name: str, steps: List[Tuple[int, bool]]) -> None:
        if name in self.paths:
            raise ValueError(f"path '{name}' already exists")
        self.paths[name] = list(steps)

    def edge_keys(self) -> List[Tuple[int, bool, int, bool]]:
        return list(self.edges)

    def lean(self) -> LeanGraph:
        """The old ``LeanGraph.from_variation_graph``: one step at a time."""
        node_ids = list(self.sequences)
        id_to_dense = {nid: i for i, nid in enumerate(node_ids)}
        node_lengths = np.fromiter(
            (len(self.sequences[nid]) for nid in node_ids), dtype=np.int64,
            count=len(node_ids))
        offsets = [0]
        step_nodes: List[int] = []
        step_rev: List[bool] = []
        step_pos: List[int] = []
        for steps in self.paths.values():
            pos = 0
            for node_id, is_reverse in steps:
                dense = id_to_dense[node_id]
                step_nodes.append(dense)
                step_rev.append(is_reverse)
                step_pos.append(pos)
                pos += int(node_lengths[dense])
            offsets.append(len(step_nodes))
        return LeanGraph(
            node_lengths=node_lengths,
            path_offsets=np.asarray(offsets, dtype=np.int64),
            step_nodes=np.asarray(step_nodes, dtype=np.int64),
            step_reverse=np.asarray(step_rev, dtype=bool),
            step_positions=np.asarray(step_pos, dtype=np.int64),
            path_names=list(self.paths),
        )


def _error(message: str) -> GFAError:
    # The old reader kept no line for records resolved at end of input.
    return GFAError(message, 0)


def reference_parse(text: str) -> ReferenceGraph:
    """Parse GFA text the way the per-step reader did."""
    graph = ReferenceGraph()
    name_to_id: Dict[str, int] = {}
    spilled_links: List[Tuple[str, bool, str, bool]] = []
    spilled_paths: List[Tuple[str, List[Tuple[str, bool]]]] = []

    for lineno, raw in enumerate(io.StringIO(text), start=1):
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
            graph.sequences[node_id] = seq
        elif tag == "L":
            if len(fields) < 5:
                raise GFAError("L line needs 5 fields", lineno)
            if fields[2] not in ("+", "-") or fields[4] not in ("+", "-"):
                raise GFAError("invalid orientation in L line", lineno)
            from_name, from_rev = fields[1], fields[2] == "-"
            to_name, to_rev = fields[3], fields[4] == "-"
            from_id = name_to_id.get(from_name)
            to_id = name_to_id.get(to_name)
            if from_id is None or to_id is None:
                spilled_links.append((from_name, from_rev, to_name, to_rev))
            else:
                graph.edges[(from_id, from_rev, to_id, to_rev)] = None
        elif tag == "P":
            if len(fields) < 3:
                raise GFAError("P line needs name and steps", lineno)
            steps = _parse_path_steps(fields[2], lineno)
            id_steps: List[Tuple[int, bool]] = []
            for step_name, rev in steps:
                step_id = name_to_id.get(step_name)
                if step_id is None:
                    id_steps = None  # type: ignore[assignment]
                    break
                id_steps.append((step_id, rev))
            if id_steps is None:
                spilled_paths.append((fields[1], steps))
            else:
                _add_path_checked(graph, fields[1], id_steps)
        elif tag in ("W", "C", "J"):
            continue
        else:
            raise GFAError(f"unknown record type '{tag}'", lineno)

    for from_name, from_rev, to_name, to_rev in spilled_links:
        try:
            key = (name_to_id[from_name], from_rev, name_to_id[to_name], to_rev)
        except KeyError as exc:
            raise _error(f"link references unknown segment {exc}") from exc
        graph.edges[key] = None

    for path_name, steps in spilled_paths:
        try:
            resolved = [(name_to_id[n], rev) for n, rev in steps]
        except KeyError as exc:
            raise _error(f"path '{path_name}' references unknown segment {exc}") from exc
        _add_path_checked(graph, path_name, resolved)

    graph.segment_names = {v: k for k, v in name_to_id.items()}
    return graph


def _add_path_checked(graph: ReferenceGraph, path_name: str,
                      id_steps: List[Tuple[int, bool]]) -> None:
    try:
        graph.add_path(path_name, id_steps)
    except ValueError as exc:
        raise _error(f"invalid path '{path_name}': {exc}") from exc


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


def _parse_path_steps(step_field: str, lineno: int) -> List[Tuple[str, bool]]:
    steps: List[Tuple[str, bool]] = []
    if step_field == "*":
        return steps
    for item in step_field.split(","):
        if not item:
            raise GFAError("empty path step", lineno)
        orient = item[-1]
        if orient not in "+-":
            raise GFAError(f"path step '{item}' lacks orientation", lineno)
        steps.append((item[:-1], orient == "-"))
    return steps
