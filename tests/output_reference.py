"""Test oracle: the output layer as one scalar step per node or endpoint.

The package computes path-stress terms with 1-D gathers from a flat view
of the coordinates and formats the SVG and TSV documents from whole coordinate arrays. This module
keeps the earlier per-row form on plain NumPy as the reference those are
checked against, byte for byte:

* :func:`pair_stress_terms` gathers ``(n, 2)`` endpoint rows with 2-D fancy
  indexing and takes the squared length with ``einsum``, over all pairs at
  once; :func:`sampled_path_stress` concatenates its per-path terms and
  :func:`path_stress` sums its fixed-size blocks;
* :func:`render_svg` transforms and formats each node from NumPy scalars,
  with :func:`node_path_multiplicity` running one ``np.unique`` per path;
* :func:`write_tsv_text` formats each node's two rows from NumPy scalars.

Nothing here is shared with the package.
"""
from __future__ import annotations

import numpy as np

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def pair_stress_terms(coords: np.ndarray, graph, flat_i, flat_j) -> np.ndarray:
    """Normalised stress of step pairs, averaged over the four endpoint pairs."""
    flat_i = np.asarray(flat_i, dtype=np.int64)
    flat_j = np.asarray(flat_j, dtype=np.int64)
    node_i = graph.step_nodes[flat_i]
    node_j = graph.step_nodes[flat_j]
    d_ref = np.abs(
        graph.step_positions[flat_i] - graph.step_positions[flat_j]
    ).astype(np.float64)
    valid = d_ref > 0
    d_safe = np.where(valid, d_ref, 1.0)
    total = np.zeros(flat_i.size, dtype=np.float64)
    for ei in (0, 1):
        for ej in (0, 1):
            vi = coords[2 * node_i + ei]
            vj = coords[2 * node_j + ej]
            diff = vi - vj
            mag = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            total += ((mag - d_safe) / d_safe) ** 2
    terms = total / 4.0
    return np.where(valid, terms, 0.0)


def sampled_path_stress(coords: np.ndarray, graph, samples_per_step: int = 100,
                        seed: int = 0, max_total_samples: int = 5_000_000):
    """``(value, ci_low, ci_high, n_samples, std)`` of the sampled path stress."""
    rng = np.random.default_rng(seed)
    counts = graph.path_step_counts
    eligible = counts >= 2
    if not np.any(eligible):
        return (0.0, 0.0, 0.0, 0, 0.0)
    per_path = counts * samples_per_step
    per_path = np.where(eligible, per_path, 0)
    total_requested = int(per_path.sum())
    if total_requested > max_total_samples:
        scale = max_total_samples / total_requested
        per_path = np.maximum((per_path * scale).astype(np.int64),
                              np.where(eligible, 1, 0))
    all_terms = []
    offsets = graph.path_offsets
    for p in range(graph.n_paths):
        n_samples = int(per_path[p])
        if n_samples == 0:
            continue
        start, stop = int(offsets[p]), int(offsets[p + 1])
        count = stop - start
        local_i = rng.integers(0, count, size=n_samples)
        local_j = rng.integers(0, count, size=n_samples)
        same = local_i == local_j
        if np.any(same):
            local_j[same] = rng.integers(0, count, size=int(same.sum()))
        all_terms.append(pair_stress_terms(coords, graph, start + local_i,
                                           start + local_j))
    terms = np.concatenate(all_terms)
    n = terms.size
    mu = float(terms.mean())
    sigma = float(terms.std(ddof=1)) if n > 1 else 0.0
    half = 1.96 * sigma / np.sqrt(n) if n > 0 else 0.0
    return (mu, mu - half, mu + half, n, sigma)


def path_stress(coords: np.ndarray, graph, block_size: int = 200_000) -> float:
    """Exact path stress, summed over blocks of ``block_size`` pairs."""
    counts = graph.path_step_counts.astype(np.int64)
    n_pairs = int((counts * (counts - 1) // 2).sum())
    if n_pairs == 0:
        return 0.0
    total = 0.0
    buf_i = np.empty(block_size, dtype=np.int64)
    buf_j = np.empty(block_size, dtype=np.int64)
    fill = 0
    for p in range(graph.n_paths):
        sl = graph.path_steps(p)
        n = sl.stop - sl.start
        if n < 2:
            continue
        base = sl.start
        for i_local in range(n - 1):
            m = n - 1 - i_local
            start = 0
            while start < m:
                take = min(m - start, block_size - fill)
                buf_i[fill:fill + take] = base + i_local
                buf_j[fill:fill + take] = base + i_local + 1 + start + np.arange(take)
                fill += take
                start += take
                if fill == block_size:
                    total += float(pair_stress_terms(coords, graph, buf_i, buf_j).sum())
                    fill = 0
    if fill:
        total += float(pair_stress_terms(coords, graph, buf_i[:fill], buf_j[:fill]).sum())
    return total / n_pairs


def node_path_multiplicity(graph) -> np.ndarray:
    """Number of distinct paths visiting each node."""
    counts = np.zeros(graph.n_nodes, dtype=np.int64)
    for p in range(graph.n_paths):
        sl = graph.path_steps(p)
        nodes = np.unique(graph.step_nodes[sl])
        counts[nodes] += 1
    return counts


def render_svg(coords: np.ndarray, graph=None, width: int = 1000,
               height: int = 600, margin: int = 20, stroke_width: float = 1.0,
               color_by_multiplicity: bool = True) -> str:
    """The SVG document, one node at a time."""
    mins = coords.min(axis=0)
    maxs = coords.max(axis=0)
    min_x, min_y = float(mins[0]), float(mins[1])
    max_x, max_y = float(maxs[0]), float(maxs[1])
    span_x = max_x - min_x
    span_y = max_y - min_y
    scales = []
    if span_x > 0:
        scales.append((width - 2 * margin) / span_x)
    if span_y > 0:
        scales.append((height - 2 * margin) / span_y)
    scale = min(scales) if scales else 0.0

    def tx(x):
        return margin + (x - min_x) * scale

    def ty(y):
        return margin + (y - min_y) * scale

    if graph is not None and color_by_multiplicity:
        multiplicity = node_path_multiplicity(graph)
        max_mult = max(int(multiplicity.max()), 1)
    else:
        multiplicity = None
        max_mult = 1
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for node in range(coords.shape[0] // 2):
        sx, sy = coords[2 * node]
        ex, ey = coords[2 * node + 1]
        if multiplicity is not None:
            rarity = 1.0 - (multiplicity[node] / max_mult)
            color = PALETTE[min(int(rarity * (len(PALETTE) - 1)), len(PALETTE) - 1)]
        else:
            color = PALETTE[0]
        lines.append(
            f'<line x1="{tx(sx):.2f}" y1="{ty(sy):.2f}" x2="{tx(ex):.2f}" y2="{ty(ey):.2f}" '
            f'stroke="{color}" stroke-width="{stroke_width}" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def write_tsv_text(coords: np.ndarray) -> str:
    """The TSV document, one node at a time."""
    lines = ["#node_id\tstart_x\tstart_y\tend_x\tend_y"]
    for node in range(coords.shape[0] // 2):
        sx, sy = coords[2 * node]
        ex, ey = coords[2 * node + 1]
        lines.append(f"{node}\t{sx:.6f}\t{sy:.6f}\t{ex:.6f}\t{ey:.6f}")
    return "\n".join(lines) + "\n"
