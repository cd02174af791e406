"""Variation-graph substrate (ODGI stand-in).

Provides the full mutable graph model, GFA v1 I/O, the lean array-based
structure consumed by the layout engines, the XP-style path index used for
reference-distance queries, statistics for the paper's dataset tables, and
structural validation.
"""
from .variation_graph import VariationGraph, Node, Edge, Path
from .gfa import parse_gfa, parse_gfa_text, write_gfa, gfa_to_text, GFAError
from .lean import LeanGraph, ODGI_NODE_OVERHEAD_BYTES, LEAN_NODE_BYTES
from .path_index import PathIndex
from .stats import GraphStats, compute_stats, aggregate_stats, estimate_edge_count
from .validate import ValidationReport, validate_graph, validate_lean
from .builder import (
    Variant,
    snv,
    insertion,
    deletion,
    GraphBuilder,
    build_from_variants,
    figure1_example,
)

__all__ = [
    "VariationGraph",
    "Node",
    "Edge",
    "Path",
    "parse_gfa",
    "parse_gfa_text",
    "write_gfa",
    "gfa_to_text",
    "GFAError",
    "LeanGraph",
    "ODGI_NODE_OVERHEAD_BYTES",
    "LEAN_NODE_BYTES",
    "PathIndex",
    "GraphStats",
    "compute_stats",
    "aggregate_stats",
    "estimate_edge_count",
    "ValidationReport",
    "validate_graph",
    "validate_lean",
    "Variant",
    "snv",
    "insertion",
    "deletion",
    "GraphBuilder",
    "build_from_variants",
    "figure1_example",
]
