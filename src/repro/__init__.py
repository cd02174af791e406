"""repro — reproduction of "Rapid GPU-Based Pangenome Graph Layout" (SC 2024).

The package implements the paper's path-guided SGD pangenome layout algorithm
and every substrate its evaluation depends on:

* :mod:`repro.graph` — variation-graph model, GFA I/O, lean layout structure,
  path index (the ODGI stand-in);
* :mod:`repro.synth` — synthetic pangenome generation (HPRC dataset stand-in);
* :mod:`repro.prng` — Xoshiro256+ / XORWOW generators with AoS/SoA states;
* :mod:`repro.core` — the CPU baseline, the batched PyTorch-style engine and
  the optimized GPU kernel with the paper's three optimisations;
* :mod:`repro.backend` — the hot path's one execution backend (NumPy) and
  the compiled exact C kernels (:mod:`repro.backend.cext`);
* :mod:`repro.multilevel` — path-preserving chain-contraction hierarchy and
  the coarse-to-fine V-cycle driver (``LayoutParams(levels=N)``);
* :mod:`repro.gpusim` — the GPU execution-model simulator (coalescing, caches,
  warp divergence, analytical timing) standing in for the CUDA hardware;
* :mod:`repro.metrics` — path stress and sampled path stress;
* :mod:`repro.parallel` — Hogwild collision analysis and the
  process-parallel shared-memory engine (``repro.parallel.shm``,
  ``LayoutParams(workers=N)``);
* :mod:`repro.render`, :mod:`repro.io`, :mod:`repro.bench` — rendering,
  persistence and the benchmark harness.

Quickstart::

    from repro.synth import hla_drb1_like
    from repro.core import layout_graph
    from repro.metrics import sampled_path_stress

    graph = hla_drb1_like(scale=0.2)
    # Any LayoutParams field works as a keyword override; unknown names
    # raise TypeError with the valid-name list.
    result = layout_graph(graph, engine="gpu",
                          iter_max=10, steps_per_step_unit=2.0)
    print(sampled_path_stress(result.layout, graph).value)
    print(result.summary())          # engine, wall time, dispatch counters

    # Real multi-core hogwild: N processes racing over shared memory.
    result = layout_graph(graph, workers=4, iter_max=10)
"""
from . import (
    backend,
    bench,
    core,
    gpusim,
    graph,
    io,
    metrics,
    multilevel,
    parallel,
    prng,
    render,
    synth,
)
from .core import LayoutParams, layout_graph, make_engine
from .multilevel import MultilevelDriver

__version__ = "1.0.0"

__all__ = [
    "backend",
    "bench",
    "core",
    "gpusim",
    "graph",
    "io",
    "metrics",
    "multilevel",
    "MultilevelDriver",
    "parallel",
    "prng",
    "render",
    "synth",
    "LayoutParams",
    "layout_graph",
    "make_engine",
    "__version__",
]
