"""Sampled path stress: the scalable layout-quality metric (paper Sec. VI-B).

Full path stress is quadratic in path length; the sampled variant estimates
it by drawing ``n = samples_per_step × |p|`` random same-path step pairs per
path (the paper uses 100 samples per step) and averaging their stress terms.
Because the estimate is a sample mean, the central limit theorem gives a 95%
confidence interval ``μ ± 1.96 σ / √n`` that the paper reports alongside
every value (Table VIII).

This module also provides the GPU/CPU comparison helper (the SPS ratio of
Table VIII) and the correlation study against exact path stress (Fig. 13).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.layout import Layout
from ..graph.lean import LeanGraph
from .stress import pair_stress_terms

__all__ = ["SampledStress", "sampled_path_stress", "sample_step_pairs",
           "tail_pair_stress", "stress_ratio", "correlation_study"]


@dataclass(frozen=True)
class SampledStress:
    """Result of a sampled-path-stress evaluation."""

    value: float
    ci_low: float
    ci_high: float
    n_samples: int
    std: float

    @property
    def ci_width(self) -> float:
        """Width of the 95% confidence interval."""
        return self.ci_high - self.ci_low

    def as_tuple(self) -> tuple:
        """(value, ci_low, ci_high) convenience tuple."""
        return (self.value, self.ci_low, self.ci_high)


def sampled_path_stress(
    layout: Layout,
    graph: LeanGraph,
    samples_per_step: int = 100,
    seed: int = 0,
    max_total_samples: int = 5_000_000,
) -> SampledStress:
    """Estimate path stress by random same-path pair sampling.

    Every path contributes ``samples_per_step × |p|`` pairs (so each step is
    expected to be sampled ``samples_per_step`` times within its path, as in
    the paper), capped globally at ``max_total_samples`` with proportional
    thinning for extremely large graphs.
    """
    if samples_per_step < 1:
        raise ValueError("samples_per_step must be >= 1")
    rng = np.random.default_rng(seed)  # det-ok: seeded by the caller's explicit seed argument
    counts = graph.path_step_counts
    eligible = counts >= 2
    if not np.any(eligible):
        return SampledStress(0.0, 0.0, 0.0, 0, 0.0)
    per_path = counts * samples_per_step
    per_path = np.where(eligible, per_path, 0)
    total_requested = int(per_path.sum())
    if total_requested > max_total_samples:
        scale = max_total_samples / total_requested
        per_path = np.maximum((per_path * scale).astype(np.int64), np.where(eligible, 1, 0))
    n = int(per_path.sum())
    terms = np.empty(n, dtype=np.float64)
    filled = 0
    offsets = graph.path_offsets
    for p in range(graph.n_paths):
        n_samples = int(per_path[p])
        if n_samples == 0:
            continue
        start, stop = int(offsets[p]), int(offsets[p + 1])
        count = stop - start
        local_i = rng.integers(0, count, size=n_samples)
        local_j = rng.integers(0, count, size=n_samples)
        # Re-draw coincident picks once; residual equal pairs contribute 0.
        same = local_i == local_j
        if np.any(same):
            local_j[same] = rng.integers(0, count, size=int(same.sum()))
        pair_stress_terms(layout, graph, start + local_i, start + local_j,
                          out=terms[filled:filled + n_samples])
        filled += n_samples
    mu = float(terms.mean())
    sigma = float(terms.std(ddof=1)) if n > 1 else 0.0
    half = 1.96 * sigma / math.sqrt(n) if n > 0 else 0.0
    return SampledStress(mu, mu - half, mu + half, n, sigma)


def sample_step_pairs(
    graph: LeanGraph,
    samples_per_step: int = 10,
    seed: int = 0,
) -> tuple:
    """Draw a fixed same-path step-pair sample ``(flat_i, flat_j)``.

    The sample is a pure function of ``(graph, samples_per_step, seed)``, so
    two layouts evaluated on it see *identical* pairs — a paired design that
    removes pair-selection variance from layout comparisons (used by
    :func:`tail_pair_stress` and the multilevel benchmark gate). Pairs with
    coincident steps are dropped rather than re-drawn.
    """
    if samples_per_step < 1:
        raise ValueError("samples_per_step must be >= 1")
    rng = np.random.default_rng(seed)  # det-ok: seeded by the caller's explicit seed argument
    offsets = graph.path_offsets
    flat_i = []
    flat_j = []
    for p in range(graph.n_paths):
        start, stop = int(offsets[p]), int(offsets[p + 1])
        count = stop - start
        if count < 2:
            continue
        n_samples = count * samples_per_step
        local_i = rng.integers(0, count, size=n_samples)
        local_j = rng.integers(0, count, size=n_samples)
        keep = local_i != local_j
        flat_i.append(start + local_i[keep])
        flat_j.append(start + local_j[keep])
    if not flat_i:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return (np.concatenate(flat_i), np.concatenate(flat_j))


def tail_pair_stress(
    layout: Layout,
    graph: LeanGraph,
    quantile: float = 0.99,
    samples_per_step: int = 10,
    seed: int = 0,
) -> float:
    """Upper-``quantile`` pair stress over a fixed master-seeded pair sample.

    The *mean* sampled path stress has an extremely heavy tail (one badly
    placed short-range pair can dominate half a million samples), which makes
    it a noisy comparison statistic; the upper quantile measures how tangled
    the worst pairs are — exactly the global structure the multilevel V-cycle
    untangles — while staying stable across sampling seeds. Evaluating two
    layouts with the same ``(samples_per_step, seed)`` compares them on
    identical pairs.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    flat_i, flat_j = sample_step_pairs(graph, samples_per_step, seed)
    if flat_i.size == 0:
        return 0.0
    terms = pair_stress_terms(layout, graph, flat_i, flat_j)
    return float(np.quantile(terms, quantile))


def stress_ratio(
    candidate: SampledStress, reference: SampledStress, floor: float = 1e-12
) -> float:
    """SPS ratio = candidate / reference (Table VIII's GPU/CPU column)."""
    return candidate.value / max(reference.value, floor)


def correlation_study(
    pairs: list,
) -> float:
    """Pearson correlation between exact and sampled stress values (Fig. 13).

    ``pairs`` is a list of ``(path_stress_value, sampled_stress_value)``
    tuples collected over many layouts; the paper reports r = 0.995.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (exact, sampled) pairs")
    x, y = arr[:, 0], arr[:, 1]
    if np.allclose(x.std(), 0) or np.allclose(y.std(), 0):
        raise ValueError("degenerate inputs: zero variance")
    return float(np.corrcoef(x, y)[0, 1])
