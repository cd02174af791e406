"""Structural validation of variation graphs and lean graphs.

Layout quality depends on the structural sanity of the input graph: paths
must reference existing nodes, step positions must be consistent with node
lengths, and for a pangenome the graph should be connected along each path.
These checks are cheap relative to layout and catch generator / parser bugs
early; the CLI runs them before launching a layout unless asked not to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from .lean import LeanGraph
from .variation_graph import VariationGraph

__all__ = ["ValidationReport", "validate_graph", "validate_lean"]


@dataclass
class ValidationReport:
    """Outcome of a validation pass: errors are fatal, warnings are not."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no errors were found."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` summarising all errors, if any."""
        if self.errors:
            raise ValueError("graph validation failed:\n  " + "\n  ".join(self.errors))


def validate_lean(graph: LeanGraph) -> ValidationReport:
    """Validate a lean graph's internal consistency."""
    report = ValidationReport()
    if graph.n_nodes == 0:
        report.errors.append("graph has no nodes")
        return report
    if np.any(graph.node_lengths < 0):
        report.errors.append("negative node length")
    if graph.n_paths == 0:
        report.warnings.append("graph has no paths; layout is undefined without paths")
    # Step positions must equal the running sum of node lengths along the path.
    for p in range(graph.n_paths):
        sl = graph.path_steps(p)
        nodes = graph.step_nodes[sl]
        if nodes.size == 0:
            report.warnings.append(f"path {graph.path_names[p]!r} is empty")
            continue
        lengths = graph.node_lengths[nodes]
        expected = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        if not np.array_equal(expected, graph.step_positions[sl]):
            report.errors.append(
                f"path {graph.path_names[p]!r}: step positions inconsistent with node lengths"
            )
        if graph.step_positions[sl][0] != 0:
            report.errors.append(f"path {graph.path_names[p]!r}: first step position is not 0")
    # Orphan nodes are legal but worth flagging: they get no layout forces.
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[graph.step_nodes] = True
    orphans = int((~visited).sum())
    if orphans:
        report.warnings.append(f"{orphans} node(s) are not visited by any path")
    if len(set(graph.path_names)) != len(graph.path_names):
        report.errors.append("duplicate path names")
    return report


def validate_graph(graph: Union[VariationGraph, LeanGraph]) -> ValidationReport:
    """Validate either representation (full graphs get extra edge checks)."""
    if isinstance(graph, LeanGraph):
        return validate_lean(graph)
    report = ValidationReport()
    if graph.node_count == 0:
        report.errors.append("graph has no nodes")
        return report
    # Edges referencing missing nodes cannot be constructed through the API,
    # but path-adjacent node pairs lacking an edge indicate a malformed GFA.
    missing_edges = 0
    for path in graph.paths():
        nodes, rev = path.nodes.tolist(), path.reverse.tolist()
        for a, ra, b, rb in zip(nodes, rev, nodes[1:], rev[1:]):
            if not (graph.has_edge(a, b, ra, rb) or graph.has_edge(b, a, not rb, not ra)):
                missing_edges += 1
    if missing_edges:
        report.warnings.append(
            f"{missing_edges} path adjacencies have no corresponding edge record"
        )
    lean = LeanGraph.from_variation_graph(graph)
    sub = validate_lean(lean)
    report.errors.extend(sub.errors)
    report.warnings.extend(sub.warnings)
    return report
