"""CI smoke cases gating the pipeline outside the kernels: ingest and output.

``perf_gfa_ingest`` writes the full-scale Chr.1-like graph (≈10⁶ path
steps, the size of the repository benchmark's ``gfa-ingest`` workload) as a
GFA file once, reads it back the way ``repro layout --gfa`` does, and
asserts that the parsed lean arrays and path names equal the generator's
before recording:

* ``ingest_ns_per_step`` — best-of-:data:`_REPEATS` wall time of parse +
  lean build per path step. Wall time: hard-gated in the same timing
  environment, a warning across machines.
* ``ingest_peak_bytes_per_step`` — the tracemalloc peak of one parse +
  lean build per path step. NumPy routes its buffers through tracemalloc,
  so this counts the step columns exactly; it is memory, not time, and is
  hard-gated on every machine. A reader that builds one Python object per
  step again (≈200 B/step) trips it at once.

``perf_output_layer`` times the output layer ``repro layout`` runs after
the SGD, on the same graph with a seeded initial layout:

* ``stress_ns_per_sample`` — best-of-:data:`_REPEATS` wall time of
  ``sampled_path_stress`` per sampled pair (unit ``ns``: wall time).
* ``svg_ns_per_node`` — best-of-:data:`_REPEATS` wall time of
  ``render_svg`` with path-multiplicity colouring, per node.
* ``stress_samples`` — pairs the stress evaluation drew (``info``).

Byte-identity of both outputs with their per-row form is pinned by
``tests/test_output_layer.py``, not here.
"""
from __future__ import annotations

import gc
import os
import tempfile
import time

import numpy as np

from ...core.layout import initialize_layout
from ...graph import LeanGraph, parse_gfa, write_gfa
from ...memtrack import PeakTracker
from ...metrics import sampled_path_stress
from ...render import render_svg
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: Untraced timing repeats; the best (minimum) wall time is recorded.
_REPEATS = 2

_LEAN_ARRAYS = ("node_lengths", "path_offsets", "step_nodes", "step_reverse",
                "step_positions")


#: Stress samples per path step: 10⁶ pairs on the full-scale graph.
_STRESS_SAMPLES_PER_STEP = 1


def _ingest(path: str) -> LeanGraph:
    return LeanGraph.from_variation_graph(parse_gfa(path))


def _best_s(fn) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@bench_case("perf_gfa_ingest", source="Sec. V-A (lean data structure)",
            suites=("smoke",))
def run_gfa_ingest(ctx) -> CaseResult:
    """GFA text to lean arrays: time and peak memory per path step."""
    graph = ctx.perf_graph
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chr1.gfa")
        write_gfa(graph, path)
        gfa_bytes = os.path.getsize(path)

        best_s = _best_s(lambda: _ingest(path))

        gc.collect()
        with PeakTracker(trace=True) as mem:
            parsed = _ingest(path)
        peak = mem.traced_peak_bytes

    for name in _LEAN_ARRAYS:
        assert np.array_equal(getattr(parsed, name), getattr(graph, name)), name
    assert parsed.path_names == graph.path_names

    steps = graph.total_steps
    ns_per_step = best_s * 1e9 / steps
    peak_per_step = peak / steps
    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("ingest_ns_per_step", ns_per_step, unit="ns", direction="lower",
            deterministic=False)
    out.add("ingest_peak_bytes_per_step", peak_per_step, unit="B/step",
            direction="lower", deterministic=False)
    out.add("lean_bytes_per_step", parsed.lean_structure_bytes() / steps,
            unit="B/step", direction="info")
    out.tables.append(format_table(
        ["Quantity", "Value"],
        [["GFA size", f"{gfa_bytes / 2**20:.1f} MiB"],
         ["path steps", f"{steps:,}"],
         ["parse + lean (best)", f"{best_s * 1e3:.0f} ms"],
         ["ns per step", f"{ns_per_step:.0f}"],
         ["traced peak", f"{peak / 2**20:.1f} MiB"],
         ["peak bytes per step", f"{peak_per_step:.1f}"],
         ["lean bytes per step", f"{parsed.lean_structure_bytes() / steps:.1f}"]],
        title="Smoke: GFA ingest (parse_gfa + LeanGraph.from_variation_graph)",
    ))
    return out


@bench_case("perf_output_layer", source="Sec. VI-B (sampled path stress)",
            suites=("smoke",))
def run_output_layer(ctx) -> CaseResult:
    """Sampled path stress and SVG render: ns per sample and per node."""
    graph = ctx.perf_graph
    layout = initialize_layout(graph, seed=ctx.seed_for("perf_output_layer/layout"))
    seed = ctx.seed_for("perf_output_layer/stress")
    stress = sampled_path_stress(layout, graph,
                                 samples_per_step=_STRESS_SAMPLES_PER_STEP,
                                 seed=seed)
    assert np.isfinite(stress.value) and stress.n_samples > 0
    svg = render_svg(layout, graph=graph)
    assert svg.count("<line ") == graph.n_nodes

    stress_s = _best_s(lambda: sampled_path_stress(
        layout, graph, samples_per_step=_STRESS_SAMPLES_PER_STEP, seed=seed))
    svg_s = _best_s(lambda: render_svg(layout, graph=graph))
    ns_per_sample = stress_s * 1e9 / stress.n_samples
    ns_per_node = svg_s * 1e9 / graph.n_nodes
    out = CaseResult(graph_properties=ctx.graph_properties(graph))
    out.add("stress_ns_per_sample", ns_per_sample, unit="ns",
            direction="lower", deterministic=False)
    out.add("svg_ns_per_node", ns_per_node, unit="ns", direction="lower",
            deterministic=False)
    out.add("stress_samples", stress.n_samples, direction="info")
    out.tables.append(format_table(
        ["Quantity", "Value"],
        [["stress samples", f"{stress.n_samples:,}"],
         ["sampled path stress (best)", f"{stress_s * 1e3:.0f} ms"],
         ["ns per sample", f"{ns_per_sample:.0f}"],
         ["render_svg (best)", f"{svg_s * 1e3:.0f} ms"],
         ["ns per node", f"{ns_per_node:.0f}"]],
        title="Smoke: output layer (sampled_path_stress + render_svg)",
    ))
    return out
