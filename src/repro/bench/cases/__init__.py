"""Built-in benchmark cases (one module per paper figure/table + CI smoke).

Importing this package registers every case with the global registry.
``benchmarks/bench_*.py`` keep thin pytest shims over these modules, so the
same case bodies back three entry points: ``repro bench run``, ``pytest
benchmarks/`` and ``python benchmarks/bench_<name>.py``.
"""
from __future__ import annotations

from . import (  # noqa: F401  (imports register the cases)
    fig04_cpu_scaling,
    fig05_bottleneck,
    fig07_kernel_breakdown,
    fig12_quality_levels,
    fig13_correlation,
    fig15_scalability,
    fig16_ablation_ladder,
    fig17_data_reuse_dse,
    perf_fused,
    perf_hotpath,
    perf_ingest,
    perf_merge,
    perf_multilevel,
    perf_parallel,
    perf_supervised,
    perf_trace,
    scale_chunked,
    smoke,
    table01_graph_properties,
    table02_cache_profile,
    table03_batch_sweep,
    table04_kernel_launches,
    table05_metric_runtime,
    table06_dataset_properties,
    table07_speedup,
    table08_quality,
    table09_cdl,
    table10_crs,
    table11_warp_merging,
)
