"""Layout rendering to SVG (odgi draw stand-in).

The paper's qualitative evaluation (Figs. 2, 6, 12, 14) inspects rendered
layouts: every node is a line segment between its two visualisation points,
coloured by how many paths traverse it so variants stand out against the
shared backbone. This module emits standalone SVG documents with no external
dependencies, which the examples use to produce the qualitative figures.
"""
from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from ..core.layout import Layout
from ..graph.lean import LeanGraph

__all__ = ["render_svg", "save_svg"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _node_path_multiplicity(graph: LeanGraph) -> np.ndarray:
    """Number of distinct paths visiting each node (for colouring)."""
    counts = np.zeros(graph.n_nodes, dtype=np.int64)
    for p in range(graph.n_paths):
        # A node a path visits twice is still one path: repeated indices
        # of one fancy-indexed ``+=`` all store the same incremented value.
        counts[graph.step_nodes[graph.path_steps(p)]] += 1
    return counts


def render_svg(
    layout: Layout,
    graph: Optional[LeanGraph] = None,
    width: int = 1000,
    height: int = 600,
    margin: int = 20,
    stroke_width: float = 1.0,
    color_by_multiplicity: bool = True,
) -> str:
    """Render a layout as an SVG string.

    When ``graph`` is provided, segments are coloured by path multiplicity
    (backbone nodes shared by all paths appear in the first palette colour,
    private variant nodes in later colours).
    """
    if width <= 2 * margin or height <= 2 * margin:
        raise ValueError("canvas too small for the requested margin")
    coords = layout.coords
    min_x, min_y, max_x, max_y = layout.bounding_box()
    # Degenerate bounding boxes (a single node, or a fully contracted layout
    # whose points coincide) must not divide by zero or blow the scale up to
    # ~1e12: an axis with no extent contributes no scale constraint, and a
    # layout with no extent at all renders at scale 0 (every point lands on
    # the margin corner, a well-formed one-dot document).
    span_x = max_x - min_x
    span_y = max_y - min_y
    scales = []
    if span_x > 0:
        scales.append((width - 2 * margin) / span_x)
    if span_y > 0:
        scales.append((height - 2 * margin) / span_y)
    scale = min(scales) if scales else 0.0

    if graph is not None and color_by_multiplicity:
        multiplicity = _node_path_multiplicity(graph)
        if multiplicity.size < layout.n_nodes:
            raise ValueError(
                f"graph has {multiplicity.size} nodes, layout has {layout.n_nodes}")
        max_mult = max(int(multiplicity.max()), 1)
        # Shared nodes -> dark blue; rarer nodes -> warmer palette colours.
        rarity = 1.0 - (multiplicity[:layout.n_nodes] / max_mult)
        last = len(_PALETTE) - 1
        shade = np.minimum((rarity * last).astype(np.int64), last)
        colors = [_PALETTE[k] for k in shade.tolist()]
    else:
        colors = [_PALETTE[0]] * layout.n_nodes

    xs = (margin + (coords[:, 0] - min_x) * scale).tolist()
    ys = (margin + (coords[:, 1] - min_y) * scale).tolist()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    lines.extend(
        f'<line x1="{sx:.2f}" y1="{sy:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
        f'stroke="{color}" stroke-width="{stroke_width}" stroke-linecap="round"/>'
        for sx, sy, ex, ey, color in zip(xs[0::2], ys[0::2], xs[1::2], ys[1::2],
                                         colors)
    )
    lines.append("</svg>")
    return "\n".join(lines)


def save_svg(
    layout: Layout,
    destination: Union[str, os.PathLike],
    graph: Optional[LeanGraph] = None,
    **kwargs,
) -> None:
    """Render and write an SVG file."""
    svg = render_svg(layout, graph=graph, **kwargs)
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(svg)
