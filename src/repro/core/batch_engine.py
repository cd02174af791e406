"""Batched "PyTorch-style" layout engine (paper Sec. IV).

The paper's first GPU attempt expresses the layout update as mini-batched
tensor operations: gather the coordinates of a batch of node pairs, evaluate
the stress gradient with elementwise tensor kernels, and scatter the updates
back. That design has two structural properties the paper measures:

* every batch costs a fixed number of *kernel launches* (one per tensor op),
  so small batches drown in launch overhead (Table IV) while huge batches
  degrade layout quality through stale updates (Table III);
* the gather/scatter ("index") kernels dominate the per-batch time because
  their memory access pattern is irregular (Fig. 7).

:class:`BatchedLayoutEngine` reproduces both: it runs the numerically
identical batched update through the same fused iteration as every engine
(its batch plan's segments are the tensor batches), derives the tensor-op
kernel launches the PyTorch formulation would have issued from that plan,
and attributes modelled time to each op class using a bytes-moved /
effective-bandwidth cost model so the breakdown percentages can be compared
to Fig. 7.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..graph.lean import LeanGraph
from ..prng.xoshiro import Xoshiro256Plus
from .base import LayoutEngine, Session, split_into_batches
from .layout import Layout, NodeDataLayout
from .params import LayoutParams

__all__ = ["KernelOp", "OpProfile", "BatchedLayoutEngine", "PYTORCH_OP_SEQUENCE",
           "LAUNCHES_PER_BATCH"]

#: Tensor-op kernels issued per batch by the PyTorch formulation of the
#: update, with the bytes each moves per batch element and the relative
#: memory-efficiency of its access pattern (1.0 = perfectly streaming,
#: smaller = irregular). The "index" ops are gathers/scatters over the layout
#: array; everything else is a streaming elementwise op over batch-sized
#: temporaries.
PYTORCH_OP_SEQUENCE: List[tuple] = [
    ("index", 4, 64, 0.18),      # gather coords of v_i, v_j (x and y, both nodes)
    ("index", 1, 8, 0.25),       # gather d_ref
    ("sub", 1, 48, 1.0),         # coordinate differences
    ("pow", 2, 32, 1.0),         # squared components / squared error
    ("add", 1, 32, 1.0),         # sum of squares
    ("sqrt", 1, 16, 1.0),        # layout distance
    ("sub", 1, 16, 1.0),         # (mag - d_ref)
    ("div", 1, 16, 1.0),         # normalise by d_ref / magnitude
    ("mul", 3, 48, 1.0),         # learning rate, weight, displacement scaling
    ("where", 2, 32, 1.0),       # μ capping and zero-distance guards
    ("index", 2, 64, 0.18),      # scatter updates back to both endpoints
    ("reduction", 1, 8, 0.8),    # batch loss reduction (monitoring)
]

#: Kernel launches one batch issues: the launch column of
#: :data:`PYTORCH_OP_SEQUENCE`.
LAUNCHES_PER_BATCH = sum(launches for _, launches, _, _ in PYTORCH_OP_SEQUENCE)


@dataclass
class KernelOp:
    """Aggregate statistics of one kernel class."""

    launches: int = 0
    bytes_moved: float = 0.0
    modelled_time: float = 0.0


@dataclass
class OpProfile:
    """Kernel-level profile of a batched run (feeds Fig. 7 / Table IV)."""

    ops: Dict[str, KernelOp] = field(default_factory=dict)
    launch_overhead_s: float = 10e-6
    device_bandwidth_gbs: float = 768.0

    def record_batch(self, batch_elements: int) -> None:
        """Account one batch's worth of kernel launches."""
        for name, launches, bytes_per_elem, efficiency in PYTORCH_OP_SEQUENCE:
            op = self.ops.setdefault(name, KernelOp())
            op.launches += launches
            moved = launches * batch_elements * bytes_per_elem
            op.bytes_moved += moved
            effective_bw = self.device_bandwidth_gbs * 1e9 * efficiency
            op.modelled_time += launches * self.launch_overhead_s + moved / effective_bw

    @property
    def total_launches(self) -> int:
        """Total CUDA kernel launches (Table IV row 1)."""
        return sum(op.launches for op in self.ops.values())

    @property
    def total_time(self) -> float:
        """Total modelled GPU time, seconds."""
        return sum(op.modelled_time for op in self.ops.values())

    @property
    def api_overhead_fraction(self) -> float:
        """Fraction of total time spent in launch overhead (Table IV row 2)."""
        total = self.total_time
        if total <= 0:
            return 0.0
        overhead = self.total_launches * self.launch_overhead_s
        return overhead / total

    def time_breakdown(self) -> Dict[str, float]:
        """Fraction of modelled time per kernel class (Fig. 7)."""
        total = self.total_time
        if total <= 0:
            return {name: 0.0 for name in self.ops}
        return {name: op.modelled_time / total for name, op in self.ops.items()}


class BatchedLayoutEngine(LayoutEngine):
    """Mini-batched tensor-style engine with kernel accounting."""

    name = "batched-pytorch-style"

    def __init__(
        self,
        graph: LeanGraph,
        params: Optional[LayoutParams] = None,
        launch_overhead_s: float = 10e-6,
        device_bandwidth_gbs: float = 768.0,
    ):
        super().__init__(graph, params)
        self.op_profile = OpProfile(
            launch_overhead_s=launch_overhead_s,
            device_bandwidth_gbs=device_bandwidth_gbs,
        )

    def data_layout(self) -> NodeDataLayout:
        # The naive tensor formulation keeps ODGI's separate coordinate
        # arrays — exactly the layout the CDL optimisation later replaces.
        return NodeDataLayout.SOA

    def make_rng(self) -> Xoshiro256Plus:
        return Xoshiro256Plus(self.params.seed, n_streams=1024)

    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        return split_into_batches(steps_per_iteration, self.params.batch_size)

    @contextmanager
    def session(self, layout: Layout) -> Iterator[Session]:
        """The flat session, then each iteration's launch accounting: a
        function of the batch plan, every batch recorded in
        :attr:`op_profile` in plan order and counted in ``kernel_launches``
        — the Table IV contrast being modelled."""
        with super().session(layout) as session:
            yield session
        plan = self.batch_plan(
            self.params.steps_per_iteration(self.graph.total_steps))
        for _ in range(self.params.iter_max):
            for size in plan:
                self.op_profile.record_batch(size)
        self.add_counter("kernel_launches", float(
            self.params.iter_max * len(plan) * LAUNCHES_PER_BATCH))

    # ------------------------------------------------------------- analysis
    def kernel_launches_for(self, total_terms: int) -> int:
        """Kernel launches needed to process ``total_terms`` at the current batch size."""
        batch = self.params.batch_size
        n_batches = int(np.ceil(total_terms / batch))
        return n_batches * LAUNCHES_PER_BATCH
