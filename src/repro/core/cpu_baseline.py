"""CPU baseline: the odgi-layout reference implementation.

``odgi-layout`` runs Alg. 1's inner loop on a pool of CPU threads that update
the layout asynchronously in Hogwild! fashion — no locks, races tolerated
because pangenome graphs are sparse enough that two threads rarely touch the
same node at the same time (paper Sec. III-A).

Two modes are provided:

* :class:`CpuBaselineEngine` — the practical mode. Steps are processed in
  "rounds" of ``simulated_threads × hogwild_round`` terms; every term in a
  round reads the coordinates as of the round start and the writes are
  merged, which is the same staleness window a real Hogwild pool of that
  size exhibits. With ``simulated_threads=1`` and ``hogwild_round=1`` it
  degenerates to the exact serial algorithm. (Real OS-level parallelism is
  the separate ``workers`` knob — :mod:`repro.parallel.shm`.)
* :class:`SerialReferenceEngine` — a deliberately slow, term-at-a-time
  reference used by the test-suite on tiny graphs to validate that the
  batched engines do not change the optimisation semantics.

Both engines draw the stock recipe and run through the fused
per-iteration path (:mod:`repro.core.fused`) like every engine; the serial
engine's segments are one term each. Its fixed-hop run
(:meth:`SerialReferenceEngine.run_fixed_hop`) swaps in the 4-vector
fixed-hop recipe.

The engine also exposes :meth:`CpuBaselineEngine.access_trace`, which
replays a segment of update terms (:func:`~repro.core.fused.draw_segment`)
into byte-level memory addresses under either node-data layout; the cache
simulator consumes that trace for the CPU rows of Tables II and IX.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graph.lean import LeanGraph
from ..prng.xoshiro import Xoshiro256Plus
from .base import LayoutEngine, LayoutResult, split_into_batches
from .fused import draw_segment
from .layout import NodeDataLayout, node_record_addresses
from .params import LayoutParams
from .selection import DrawRecipe

__all__ = ["CpuBaselineEngine", "SerialReferenceEngine"]


class CpuBaselineEngine(LayoutEngine):
    """Hogwild-style multithreaded CPU baseline (emulated)."""

    name = "cpu-baseline"

    def __init__(
        self,
        graph: LeanGraph,
        params: Optional[LayoutParams] = None,
        hogwild_round: int = 64,
        data_layout: NodeDataLayout = NodeDataLayout.SOA,
    ):
        super().__init__(graph, params)
        if hogwild_round < 1:
            raise ValueError("hogwild_round must be >= 1")
        self.hogwild_round = hogwild_round
        self._data_layout = data_layout

    def data_layout(self) -> NodeDataLayout:
        return self._data_layout

    def make_rng(self) -> Xoshiro256Plus:
        # One Xoshiro256+ stream per emulated (thread, round-slot) pair — each
        # thread of odgi-layout owns its own generator, and giving every slot
        # of the Hogwild round its own decorrelated stream keeps the batched
        # emulation's draws independent without per-step Python overhead.
        streams = min(max(self.params.simulated_threads, 1) * self.hogwild_round,
                      8192)
        return Xoshiro256Plus(self.params.seed, n_streams=streams)

    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        chunk = max(1, self.params.simulated_threads * self.hogwild_round)
        return split_into_batches(steps_per_iteration, chunk)

    # ------------------------------------------------------------- tracing
    def access_trace(
        self,
        n_terms: int = 4096,
        iteration: int = 0,
        seed: Optional[int] = None,
        data_layout: Optional[NodeDataLayout] = None,
    ) -> np.ndarray:
        """Byte-address trace of ``n_terms`` update terms' node-data loads.

        Each term loads both endpoints' records (length, x, y for node i and
        node j); the returned flat int64 array lists the addresses in access
        order. The trace is what the LLC / DRAM models replay to produce the
        CPU cache statistics (Table II) and the CDL ablation (Table IX).
        """
        layout = data_layout if data_layout is not None else self._data_layout
        rng = Xoshiro256Plus(self.params.seed if seed is None else seed, n_streams=64)
        batch = draw_segment(self.sampler, rng, n_terms, iteration)
        addr_i = node_record_addresses(
            batch.node_i, batch.vis_i, layout, self.graph.n_nodes
        )
        addr_j = node_record_addresses(
            batch.node_j, batch.vis_j, layout, self.graph.n_nodes
        )
        # Interleave i/j accesses term by term, preserving temporal order.
        stacked = np.concatenate([addr_i, addr_j], axis=1)  # (n_terms, 6)
        return stacked.reshape(-1)


class SerialReferenceEngine(LayoutEngine):
    """Exact serial Alg. 1: one term sampled, applied, then the next.

    Only suitable for small graphs (used by tests and the Fig. 6 style
    quality studies); complexity is Python-loop bound.
    """

    name = "cpu-serial-reference"

    def __init__(self, graph: LeanGraph, params: Optional[LayoutParams] = None):
        super().__init__(graph, params)

    def make_rng(self) -> Xoshiro256Plus:
        return Xoshiro256Plus(self.params.seed, n_streams=1)

    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        return [1] * steps_per_iteration

    def run_fixed_hop(self, hop: int) -> LayoutResult:
        """Run the degenerate fixed-hop variant (Fig. 6's non-converging layout)."""
        return _FixedHopRun(self, hop).run()


class _FixedHopRun(SerialReferenceEngine):
    """A serial engine's run with fixed-hop sampling: per iteration, one
    segment of the whole step budget, drawn and selected by the fixed-hop
    recipe (:meth:`PairSampler.select_fixed_hop`'s 4 vectors)."""

    name = f"{SerialReferenceEngine.name}-fixed-hop"

    def __init__(self, engine: SerialReferenceEngine, hop: int):
        # The run shares the engine's state — graph, sampler, schedule,
        # metrics, tracer, progress hook — and reports into it as run() does.
        vars(self).update(vars(engine))
        if hop < 1:
            raise ValueError("hop must be >= 1")
        self.recipe = DrawRecipe(hop=hop)

    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        return [steps_per_iteration]
