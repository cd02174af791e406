"""High-level public API: lay out a pangenome graph with one call.

:func:`layout_graph` is the entry point most users (and the examples) need:
pick an engine, hand it a graph in any supported representation, get a
:class:`~repro.core.base.LayoutResult` back. The individual engine classes
remain available for experiments that need their extra knobs.
"""
from __future__ import annotations

from typing import Optional, Union

from ..graph.lean import LeanGraph
from ..graph.variation_graph import VariationGraph
from .base import LayoutResult, ProgressCallback
from .batch_engine import BatchedLayoutEngine
from .cpu_baseline import CpuBaselineEngine, SerialReferenceEngine
from .gpu_kernel import GpuKernelConfig, OptimizedGpuEngine
from .params import LayoutParams, replace_params

__all__ = ["ENGINES", "layout_graph", "make_engine"]

ENGINES = ("cpu", "serial", "batch", "gpu", "gpu-base", "shm")
"""Engine names accepted by :func:`layout_graph`."""


def _as_lean(graph: Union[VariationGraph, LeanGraph]) -> LeanGraph:
    if isinstance(graph, LeanGraph):
        return graph
    if isinstance(graph, VariationGraph):
        return LeanGraph.from_variation_graph(graph)
    raise TypeError(
        "graph must be a VariationGraph or LeanGraph, got " + type(graph).__name__
    )


def make_engine(
    graph: Union[VariationGraph, LeanGraph],
    engine: str = "cpu",
    params: Optional[LayoutParams] = None,
    gpu_config: Optional[GpuKernelConfig] = None,
    on_progress: Optional[ProgressCallback] = None,
    **overrides,
):
    """Construct (but do not run) the requested layout engine.

    Parameters
    ----------
    graph:
        The pangenome graph to lay out.
    engine:
        ``"cpu"`` — Hogwild-emulating CPU baseline (odgi-layout);
        ``"serial"`` — exact serial reference (small graphs only);
        ``"batch"`` — PyTorch-style batched engine;
        ``"gpu"`` — optimized GPU kernel (all optimisations on);
        ``"gpu-base"`` — base CUDA kernel (no optimisations);
        ``"shm"`` — process-parallel shared-memory hogwild engine
        (:class:`repro.parallel.shm.ShmHogwildEngine`, ``params.workers``
        OS processes).
    params:
        Layout hyper-parameters; defaults to :class:`LayoutParams`.
    gpu_config:
        Optional kernel configuration for the ``"gpu"`` engine.
    on_progress:
        Optional live-progress hook (:data:`repro.core.base
        .ProgressCallback`) installed on the constructed engine — a
        convenience for the common construct-and-run flow; assigning
        ``engine.on_progress`` afterwards is equivalent.
    overrides:
        Per-call :class:`LayoutParams` field overrides applied on top of
        ``params`` (e.g. ``workers=4``, ``seed=7``); unknown names
        raise ``TypeError``.
    """
    lean = _as_lean(graph)
    params = params if params is not None else LayoutParams()
    params = replace_params(params, overrides)
    if engine == "cpu":
        eng = CpuBaselineEngine(lean, params)
    elif engine == "serial":
        eng = SerialReferenceEngine(lean, params)
    elif engine == "batch":
        eng = BatchedLayoutEngine(lean, params)
    elif engine == "gpu":
        cfg = gpu_config if gpu_config is not None else GpuKernelConfig()
        eng = OptimizedGpuEngine(lean, params, cfg)
    elif engine == "gpu-base":
        cfg = gpu_config if gpu_config is not None else GpuKernelConfig.baseline()
        eng = OptimizedGpuEngine(lean, params, cfg)
    elif engine == "shm":
        # Runtime import: parallel depends on core, never the reverse.
        from ..parallel.shm import ShmHogwildEngine

        eng = ShmHogwildEngine(lean, params)
    else:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if on_progress is not None:
        eng.on_progress = on_progress
    return eng


def layout_graph(
    graph: Union[VariationGraph, LeanGraph],
    engine: str = "cpu",
    params: Optional[LayoutParams] = None,
    gpu_config: Optional[GpuKernelConfig] = None,
    on_progress: Optional[ProgressCallback] = None,
    **overrides,
) -> LayoutResult:
    """Compute a 2-D layout of ``graph`` with the chosen engine.

    This is the one run entry point the quickstart, the examples and the
    CLI all share. Keyword ``overrides`` are per-call
    :class:`LayoutParams` field replacements applied on top of ``params``
    (``dataclasses.replace`` semantics, unknown names rejected with a
    ``TypeError`` listing the valid knobs), so one-knob changes never
    require hand-building a frozen dataclass::

        layout_graph(graph, workers=4)            # process-parallel run
        layout_graph(graph, engine="gpu", seed=7)

    Routing on the resolved params:

    * ``levels > 1`` — the multilevel V-cycle driver
      (:class:`repro.multilevel.MultilevelDriver`) coarsens the graph and
      runs the chosen engine per hierarchy level;
    * ``workers > 1`` — the process-parallel shared-memory engine
      (:class:`repro.parallel.shm.ShmHogwildEngine`); only the ``"cpu"``
      engine (whose work it partitions) and flat runs (``levels == 1``)
      support it;
    * otherwise the flat single-process engine, untouched.

    ``on_progress`` is the live-progress hook (:data:`repro.core.base
    .ProgressCallback`): whichever runner the routing picks calls it after
    each completed iteration — per-iteration for flat and shm runs, with
    global completed/total counts across all hierarchy levels for
    multilevel runs. ``trace=...`` (a params field, so also usable as an
    override here) writes the run's span trace as schema-versioned JSONL;
    see :mod:`repro.obs`.

    Examples
    --------
    >>> from repro.synth import hla_drb1_like
    >>> from repro.core import layout_graph
    >>> graph = hla_drb1_like(scale=0.05)
    >>> result = layout_graph(graph, engine="gpu", iter_max=5,
    ...                       steps_per_step_unit=1.0)
    >>> result.layout.coords.shape[0] == 2 * graph.n_nodes
    True
    """
    params = params if params is not None else LayoutParams()
    params = replace_params(params, overrides)
    if params.workers > 1 or engine == "shm":
        if engine not in ("cpu", "shm"):
            raise ValueError(
                f"workers={params.workers} requires the 'cpu' engine (the "
                f"shm engine partitions its work), got engine={engine!r}")
        if params.levels > 1:
            # workers > 1 × levels > 1 is already rejected when the params
            # are constructed; this only catches the explicit engine="shm"
            # spelling (workers == 1), with the identical message.
            raise ValueError(
                "workers > 1 and levels > 1 cannot be combined yet; run the "
                "multilevel driver single-process or the shm engine flat")
        return make_engine(graph, "shm", params,
                           on_progress=on_progress).run()
    if params.levels > 1:
        # Runtime import: multilevel depends on core, never the reverse.
        from ..multilevel.driver import MultilevelDriver

        driver = MultilevelDriver(_as_lean(graph), params, engine=engine,
                                  gpu_config=gpu_config)
        driver.on_progress = on_progress
        return driver.run()
    return make_engine(graph, engine, params, gpu_config,
                       on_progress=on_progress).run()
