"""Shared fixtures: small graphs, fast layout parameters, and the compiled
kernels switched on or off."""
from __future__ import annotations

import numpy as np
import pytest

from repro.backend import cext
from repro.core import LayoutParams
from repro.graph import LeanGraph, figure1_example
from repro.synth import PangenomeConfig, simulate_pangenome


@pytest.fixture(scope="session")
def fig1_graph():
    """The paper's Fig. 1 toy variation graph (full representation)."""
    return figure1_example()


@pytest.fixture(scope="session")
def fig1_lean(fig1_graph):
    """Lean form of the Fig. 1 graph."""
    return LeanGraph.from_variation_graph(fig1_graph)


@pytest.fixture(scope="session")
def tiny_graph():
    """A two-path, hand-built lean graph with known positions."""
    # node lengths: 0..4 -> 3,1,2,5,4
    return LeanGraph.from_paths(
        node_lengths=[3, 1, 2, 5, 4],
        paths=[[0, 1, 2, 3, 4], [0, 2, 4]],
        path_names=["alpha", "beta"],
    )


@pytest.fixture(scope="session")
def small_synthetic():
    """A small but non-trivial synthetic pangenome (deterministic)."""
    cfg = PangenomeConfig(
        n_backbone_nodes=300,
        n_paths=8,
        mean_node_length=6.0,
        bubble_rate=0.1,
        deletion_rate=0.03,
        n_structural_variants=1,
        sv_length_nodes=12,
        loop_rate=0.2,
        seed=7,
        name="test",
    )
    return simulate_pangenome(cfg)


@pytest.fixture(scope="session")
def medium_synthetic():
    """A slightly larger synthetic pangenome for engine/metric tests."""
    cfg = PangenomeConfig(
        n_backbone_nodes=900,
        n_paths=10,
        mean_node_length=8.0,
        bubble_rate=0.08,
        deletion_rate=0.02,
        n_structural_variants=2,
        sv_length_nodes=20,
        loop_rate=0.1,
        seed=21,
        name="medium",
    )
    return simulate_pangenome(cfg)


@pytest.fixture(scope="session")
def fast_params():
    """Layout parameters small enough for unit tests."""
    return LayoutParams(iter_max=6, steps_per_step_unit=1.0, seed=123)


@pytest.fixture(scope="session")
def quality_params():
    """Parameters strong enough to reach a converged layout on small graphs."""
    return LayoutParams(iter_max=20, steps_per_step_unit=3.0, seed=123)


@pytest.fixture()
def rng():
    """Fresh NumPy generator per test."""
    return np.random.default_rng(1234)


def _unavailable() -> str:
    return "compiled kernels made unavailable by the test"


@pytest.fixture()
def no_kernels(monkeypatch):
    """The compiled kernels unavailable for the whole test: every caller
    (merge, draw, stress terms) takes its NumPy fallback."""
    monkeypatch.setattr(cext, "_load", _unavailable)


@pytest.fixture()
def on_fallback(monkeypatch):
    """``on_fallback(fn, *args)`` calls ``fn`` with the compiled kernels
    unavailable, for a NumPy reference run inside a compiled test."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(cext, "_load", _unavailable)
            return fn(*args, **kwargs)
    return call


@pytest.fixture()
def compiled():
    """The loaded compiled kernels, which every caller then runs; skips
    only when no C compiler is on ``PATH``."""
    if cext.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    kernels = cext.kernels()
    assert kernels is not None, cext.status()
    return kernels
