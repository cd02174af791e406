"""Golden-layout regression test: end-to-end byte-level determinism.

A tiny fixture pangenome (``tests/data/golden/tiny.gfa``) is laid out at the
default seed (odgi's 9399) by the three batched engines, the serial
reference engine, the in-process two-worker decomposition and the fixed-hop
variant, and the resulting ``.lay`` bytes are compared against committed
golden files. This pins the
*whole* pipeline — GFA parsing, lean-graph construction, initialisation,
PRNG streams, sampler draw order, schedule, update kernels, ``.lay``
serialisation — so any refactor that silently changes a layout (a reordered
draw, a different reduction order, a backend that isn't byte-faithful on
the default path) fails here with a precise diff, not as a mysterious smoke
baseline drift.

Regenerating (only when a layout change is *intended*, e.g. a draw-order
rework — the same commits that must regenerate the smoke baseline)::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_layout.py

and commit the rewritten ``tests/data/golden/*.lay`` with the change.
"""
from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import LayoutParams, SerialReferenceEngine, layout_graph
from repro.graph import LeanGraph, parse_gfa
from repro.io import read_lay, write_lay
from repro.parallel.shm import run_workers_inline

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: Stock parameters at odgi's default seed; small enough that every run
#: below stays well under a second on the 12-node fixture.
GOLDEN_PARAMS = LayoutParams(seed=9399)

#: One golden file ``tiny_<name>.lay`` per run. ``inline2`` splits the
#: 5-segment cpu plan into two worker sub-plans run in worker order.
RUNS = {
    "cpu": lambda g: layout_graph(g, engine="cpu", params=GOLDEN_PARAMS),
    "batch": lambda g: layout_graph(g, engine="batch", params=GOLDEN_PARAMS),
    "gpu": lambda g: layout_graph(g, engine="gpu", params=GOLDEN_PARAMS),
    "serial": lambda g: layout_graph(g, engine="serial", params=GOLDEN_PARAMS),
    "inline2": lambda g: run_workers_inline(
        g, GOLDEN_PARAMS.with_(workers=2)),
    "fixedhop": lambda g: SerialReferenceEngine(
        g, GOLDEN_PARAMS).run_fixed_hop(hop=10),
}


@pytest.fixture(scope="module")
def golden_graph() -> LeanGraph:
    graph = parse_gfa(GOLDEN_DIR / "tiny.gfa")
    lean = LeanGraph.from_variation_graph(graph)
    # The fixture is part of the contract: changing it invalidates the goldens.
    assert lean.n_nodes == 12
    assert lean.n_paths == 3
    assert lean.total_steps == 28
    return lean


def _lay_bytes(graph: LeanGraph, run: str) -> bytes:
    result = RUNS[run](graph)
    buf = io.BytesIO()
    write_lay(result.layout, buf)
    return buf.getvalue()


@pytest.mark.parametrize("run", RUNS)
def test_layout_matches_golden_bytes(golden_graph, run):
    golden_path = GOLDEN_DIR / f"tiny_{run}.lay"
    produced = _lay_bytes(golden_graph, run)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden_path.write_bytes(produced)
        pytest.skip(f"regenerated {golden_path.name}")
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path.name}; run with "
        "REPRO_REGEN_GOLDEN=1 to create it")
    expected = golden_path.read_bytes()
    if produced != expected:
        got = read_lay(io.BytesIO(produced)).coords
        want = read_lay(io.BytesIO(expected)).coords
        worst = float(np.abs(got - want).max())
        raise AssertionError(
            f"{run} layout diverged from {golden_path.name}: "
            f"max |Δcoord| = {worst:.3e}. If this change is intended "
            "(sampler draw order / schedule / kernel rework), regenerate the "
            "goldens AND the smoke baseline in this commit.")


@pytest.mark.parametrize("run", RUNS)
def test_layout_is_run_to_run_deterministic(golden_graph, run):
    assert _lay_bytes(golden_graph, run) == _lay_bytes(golden_graph, run)


def test_goldens_differ_across_engines(golden_graph):
    """Every run batches or samples differently, so their layouts must
    differ — guards against a fixture so degenerate the golden test can't
    discriminate."""
    blobs = {run: (GOLDEN_DIR / f"tiny_{run}.lay").read_bytes()
             for run in RUNS
             if (GOLDEN_DIR / f"tiny_{run}.lay").exists()}
    if len(blobs) < len(RUNS):
        pytest.skip("goldens not generated yet")
    assert len(set(blobs.values())) == len(RUNS)
