"""Path-guided SGD pangenome graph layout — the paper's core contribution.

Exposes the layout parameters and schedule, the three engines (CPU baseline,
batched PyTorch-style, optimized GPU kernel), the layout state with its
SoA/AoS memory organisations, and the high-level :func:`layout_graph` API.
"""
from .params import LayoutParams
from .schedule import make_schedule, distance_bounds
from .layout import Layout, NodeDataLayout, initialize_layout, node_record_addresses
from .selection import PairSampler, SelectionArrays, StepBatch, zipf_hop_distances
from .updates import (
    TermBlock,
    UpdateWorkspace,
    batch_stress,
    compact_points,
    compute_displacements,
    merge_batch,
    prepare_block,
)
from .fused import (
    FusedIterationPlan,
    FusedIterationStats,
    draw_segment,
    run_iteration_host,
    uniform_call_plan,
)
from .base import IterationRecord, LayoutEngine, LayoutResult, split_into_batches
from .cpu_baseline import CpuBaselineEngine, SerialReferenceEngine
from .batch_engine import BatchedLayoutEngine, OpProfile, KernelOp, PYTORCH_OP_SEQUENCE
from .gpu_kernel import GpuKernelConfig, GpuProfile, OptimizedGpuEngine
from .api import ENGINES, layout_graph, make_engine

__all__ = [
    "LayoutParams",
    "make_schedule",
    "distance_bounds",
    "Layout",
    "NodeDataLayout",
    "initialize_layout",
    "node_record_addresses",
    "PairSampler",
    "SelectionArrays",
    "StepBatch",
    "zipf_hop_distances",
    "TermBlock",
    "UpdateWorkspace",
    "batch_stress",
    "compact_points",
    "compute_displacements",
    "merge_batch",
    "prepare_block",
    "FusedIterationPlan",
    "FusedIterationStats",
    "draw_segment",
    "run_iteration_host",
    "uniform_call_plan",
    "IterationRecord",
    "LayoutEngine",
    "LayoutResult",
    "split_into_batches",
    "CpuBaselineEngine",
    "SerialReferenceEngine",
    "BatchedLayoutEngine",
    "OpProfile",
    "KernelOp",
    "PYTORCH_OP_SEQUENCE",
    "GpuKernelConfig",
    "GpuProfile",
    "OptimizedGpuEngine",
    "ENGINES",
    "layout_graph",
    "make_engine",
]
