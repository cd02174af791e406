"""Optimized GPU-kernel engine (paper Sec. V) with its three optimisations.

The engine organises every batch of update terms as *warps* of 32 "threads"
(batch entries), exactly as the paper's single CUDA kernel per iteration
does, and exposes toggles for the paper's optimisations:

* **Cache-friendly data layout (CDL)** — node records are declared AoS
  instead of ODGI's SoA. Arithmetic is unchanged; the byte addresses of node
  accesses change, which is what the cache simulator measures (Table IX).
* **Coalesced random states (CRS)** — the per-thread XORWOW state is stored
  SoA so a warp's accesses to one state field are contiguous (Table X).
* **Warp merging (WM)** — one control thread per warp draws the cooling
  branch decision and shares it with its 31 siblings, removing warp
  divergence (Table XI). This changes *which* node pairs are sampled (the
  decision is per warp, not per thread), matching the paper's argument that
  the overall branch mix is preserved across many warps.
* **Warp-shuffle data reuse (DRF / SRF)** — Sec. VII-D's case study: each
  selected node is reused ``DRF`` times to form extra pairs within the warp
  (data comes from other lanes' registers), while the step count per
  iteration shrinks by ``SRF``. Reuse trades randomness (and thus layout
  quality) for speed (Fig. 17).

Numerically the engine runs the same fused iteration as every other
engine: warp merging and data reuse are its
:class:`~repro.core.selection.DrawRecipe` — one per-warp cooling draw and,
under data reuse, one per-warp path draw ahead of each segment's 8 vectors,
and a warp-shuffle expansion of each selected segment before its merge.
:meth:`OptimizedGpuEngine.profile` generates address traces and branch
masks from a sample batch drawn through the same selection and pushes them
through :mod:`repro.gpusim` to produce the counters and modelled run times
the paper's evaluation reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..graph.lean import LeanGraph
from ..prng.xorshift import state_addresses, AOS, SOA
from ..prng.xoshiro import Xoshiro256Plus
from ..gpusim.cache import CacheConfig, CacheHierarchy
from ..gpusim.coalescing import analyze_warp_requests
from ..gpusim.device import DeviceSpec, RTX_A6000
from ..gpusim.profiler import MemoryTrafficProfile, WorkloadCounters
from ..gpusim.timing import TimingBreakdown, gpu_runtime
from ..gpusim.warp import WarpExecutionStats, simulate_warp_execution
from .base import LayoutEngine, split_into_batches
from .fused import draw_segment
from .layout import NodeDataLayout, node_record_addresses
from .params import LayoutParams
from .selection import DrawRecipe

__all__ = ["GpuKernelConfig", "GpuProfile", "OptimizedGpuEngine"]


@dataclass(frozen=True)
class GpuKernelConfig:
    """Optimisation toggles of the GPU kernel."""

    cache_friendly_layout: bool = True
    coalesced_random_states: bool = True
    warp_merging: bool = True
    data_reuse_factor: int = 1
    step_reduction_factor: float = 1.0
    warp_size: int = 32
    concurrent_threads: int = 4096
    """Terms processed per simulated kernel wave (controls update staleness)."""

    def __post_init__(self) -> None:
        if self.data_reuse_factor < 1:
            raise ValueError("data_reuse_factor must be >= 1")
        if self.step_reduction_factor < 1.0:
            raise ValueError("step_reduction_factor must be >= 1")
        if self.warp_size < 1:
            raise ValueError("warp_size must be >= 1")
        if self.concurrent_threads < self.warp_size:
            raise ValueError("concurrent_threads must be at least one warp")

    @staticmethod
    def baseline() -> "GpuKernelConfig":
        """The base CUDA kernel: no optimisations enabled."""
        return GpuKernelConfig(
            cache_friendly_layout=False,
            coalesced_random_states=False,
            warp_merging=False,
        )

    def label(self) -> str:
        """Short human-readable description of the enabled optimisations."""
        parts = []
        parts.append("CDL" if self.cache_friendly_layout else "soa")
        parts.append("CRS" if self.coalesced_random_states else "aos-rng")
        parts.append("WM" if self.warp_merging else "diverge")
        if self.data_reuse_factor > 1 or self.step_reduction_factor > 1:
            parts.append(f"reuse({self.data_reuse_factor},{self.step_reduction_factor})")
        return "+".join(parts)


@dataclass
class GpuProfile:
    """Counters and modelled run time of one kernel configuration."""

    config: GpuKernelConfig
    device: DeviceSpec
    n_terms_total: float
    traffic: MemoryTrafficProfile
    node_sectors_per_request: float
    rng_sectors_per_request: float
    warp_stats: WarpExecutionStats
    kernel_launches: int
    timing: TimingBreakdown
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def runtime_s(self) -> float:
        """Modelled run time in seconds."""
        return self.timing.total_s


class OptimizedGpuEngine(LayoutEngine):
    """Warp-structured layout engine with the paper's GPU optimisations."""

    name = "gpu-optimized"

    def __init__(
        self,
        graph: LeanGraph,
        params: Optional[LayoutParams] = None,
        config: Optional[GpuKernelConfig] = None,
    ):
        super().__init__(graph, params)
        self.config = config if config is not None else GpuKernelConfig()
        cfg = self.config
        reuse = cfg.data_reuse_factor
        # Data reuse also draws one cooling decision and one path per warp,
        # so warp-shuffled pairs stay on the warp's path.
        self.recipe = DrawRecipe(
            warp=cfg.warp_size if (cfg.warp_merging or reuse > 1) else 0,
            warp_paths=reuse > 1,
            reuse=reuse,
        )

    # ----------------------------------------------------------- engine API
    def data_layout(self) -> NodeDataLayout:
        return (
            NodeDataLayout.AOS
            if self.config.cache_friendly_layout
            else NodeDataLayout.SOA
        )

    def make_rng(self) -> Xoshiro256Plus:
        return Xoshiro256Plus(self.params.seed, n_streams=self.config.concurrent_threads)

    def batch_plan(self, steps_per_iteration: int) -> List[int]:
        effective = max(1, int(steps_per_iteration / self.config.step_reduction_factor))
        # Each wave covers `concurrent_threads` base terms; data reuse adds
        # DRF-1 shuffled terms per base term after selection, so the plan
        # counts base terms only. The wave is additionally capped relative to
        # the graph size: the paper's quality argument (Sec. III-A, VI) relies
        # on in-flight updates being sparse over the node set, so running a
        # chromosome-sized wave against a gene-sized graph would break the
        # Hogwild assumption rather than model the hardware.
        warp = self.config.warp_size
        graph_cap = max(warp, (self.graph.n_nodes // 4 // warp) * warp)
        wave = min(self.config.concurrent_threads, graph_cap)
        return split_into_batches(effective, wave)

    # -------------------------------------------------------------- profiling
    def kernel_launches(self) -> int:
        """One kernel per iteration plus one initialisation kernel (Sec. V-A)."""
        return self.params.iter_max + 1

    def total_terms(self) -> float:
        """Total update terms of a full run under this configuration."""
        per_iter = self.params.steps_per_iteration(self.graph.total_steps)
        effective = per_iter / self.config.step_reduction_factor
        return self.params.iter_max * effective * self.config.data_reuse_factor

    def profile(
        self,
        device: DeviceSpec = RTX_A6000,
        n_sample_terms: int = 4096,
        iteration: int = 0,
        seed: Optional[int] = None,
    ) -> GpuProfile:
        """Measure counters on a sample batch and model the run time.

        The sample is one segment drawn through the run's own selection
        (:func:`~repro.core.fused.draw_segment`, before data reuse), so
        its warp decisions add to the run's warp-cooling tally.
        """
        cfg = self.config
        warp = cfg.warp_size
        n_sample_terms = max(warp, (n_sample_terms // warp) * warp)
        rng = Xoshiro256Plus(self.params.seed if seed is None else seed,
                             n_streams=min(cfg.concurrent_threads, n_sample_terms))
        batch = draw_segment(self.sampler, rng, n_sample_terms, iteration,
                             self.recipe)

        # --- node-data accesses through the L1/L2 hierarchy ----------------
        layout_kind = self.data_layout()
        addr_i = node_record_addresses(batch.node_i, batch.vis_i, layout_kind, self.graph.n_nodes)
        addr_j = node_record_addresses(batch.node_j, batch.vis_j, layout_kind, self.graph.n_nodes)
        node_addresses = np.concatenate([addr_i, addr_j], axis=1).reshape(-1)

        # Warp-level coalescing of the node loads: per warp, per field.
        warp_requests = []
        n_warps = n_sample_terms // warp
        for w in range(n_warps):
            rows = slice(w * warp, (w + 1) * warp)
            for col in range(3):
                warp_requests.append(addr_i[rows, col])
                warp_requests.append(addr_j[rows, col])
        node_coalescing = analyze_warp_requests(
            warp_requests, access_bytes=8, sector_bytes=device.sector_bytes
        )

        # --- RNG-state accesses --------------------------------------------
        rng_layout = SOA if cfg.coalesced_random_states else AOS
        rng_requests = []
        rng_addresses = []
        fields_touched = 6
        for w in range(n_warps):
            base = (w % 64) * 6 * 4 * warp  # states of resident warps share the cache
            for f in range(fields_touched):
                addrs = state_addresses(warp, f, layout=rng_layout, base_address=base)
                rng_requests.append(addrs)
                rng_addresses.append(addrs)
        rng_coalescing = analyze_warp_requests(
            rng_requests, access_bytes=4, sector_bytes=device.sector_bytes
        )
        rng_address_trace = np.concatenate(rng_addresses) if rng_addresses else np.empty(0, dtype=np.int64)
        # Keep RNG state in a distinct address region from node data.
        rng_address_trace = rng_address_trace + (1 << 40)

        # --- cache hierarchy replay -----------------------------------------
        # Cache capacities are scaled by the dataset's scale factor so the
        # working-set to cache ratio matches a full-scale chromosome run (see
        # DESIGN.md §4 and gpusim.device.scaled_cache_bytes). The trace models
        # one SM's slice of the work, so per-SM shares are used.
        from ..gpusim.device import scaled_cache_bytes

        # GPU caches fill from DRAM at sector (32 B) granularity, not the full
        # 128 B line, so the hierarchy is modelled with sector-sized lines;
        # request-level (intra-warp) inefficiency is captured separately by
        # the sectors-per-request coalescing penalty.
        l1_bytes = scaled_cache_bytes(device.l1_kb_per_sm * 1024, self.graph.n_nodes,
                                      device.sector_bytes, 4, min_lines=16)
        l1 = CacheConfig("L1", l1_bytes, line_bytes=device.sector_bytes, associativity=4)
        l2_full_share = max(int(device.l2_mb * 1024 * 1024 / device.n_sms), 64 * 1024)
        l2_bytes = scaled_cache_bytes(l2_full_share, self.graph.n_nodes,
                                      device.sector_bytes, 16, min_lines=64)
        l2 = CacheConfig("L2", l2_bytes, line_bytes=device.sector_bytes, associativity=16)
        hierarchy = CacheHierarchy([l1, l2])
        interleaved = np.empty(node_addresses.size + rng_address_trace.size, dtype=np.int64)
        # Interleave node and RNG accesses the way the kernel issues them.
        n_node, n_rng = node_addresses.size, rng_address_trace.size
        interleaved[:n_node] = node_addresses
        interleaved[n_node:] = rng_address_trace
        hierarchy.access_trace(interleaved)
        traffic_sample = MemoryTrafficProfile.from_hierarchy(
            hierarchy, sectors_per_request=node_coalescing.sectors_per_request
        )
        # L1 request-level bytes follow from coalescing (sector fills).
        traffic_sample.l1_bytes = float(
            node_coalescing.bytes_transferred + rng_coalescing.bytes_transferred
        )

        # --- warp divergence --------------------------------------------------
        warp_stats = simulate_warp_execution(
            batch.in_cooling[:n_sample_terms],
            warp_size=warp,
            warp_merging=False,  # the decisions already reflect WM if enabled
        )

        # --- scale to the full run and model the run time --------------------
        # Memory traffic is proportional to the number of *base* (memory-
        # incurring) terms: warp-shuffle data reuse creates its extra DRF-1
        # terms from data already resident in registers, so those terms add
        # compute but no memory traffic (Sec. VII-D).
        n_total = self.total_terms()
        n_memory_terms = n_total / max(self.config.data_reuse_factor, 1)
        scale = n_memory_terms / float(len(batch))
        traffic = traffic_sample.scaled(scale)
        counters = WorkloadCounters()
        combined_spr = (
            node_coalescing.sectors_per_request * 0.6
            + rng_coalescing.sectors_per_request * 0.4
        )
        # Fixed per-launch costs shrink with the dataset scale factor, like the
        # cache capacities, so that full-scale time ratios are preserved.
        from ..gpusim.device import PAPER_REFERENCE_NODE_COUNT

        overhead_scale = min(1.0, self.graph.n_nodes / PAPER_REFERENCE_NODE_COUNT)
        timing = gpu_runtime(
            device,
            n_terms=n_total,
            traffic=traffic,
            counters=counters,
            kernel_launches=self.kernel_launches(),
            sectors_per_request=combined_spr,
            avg_active_threads=warp_stats.avg_active_threads,
            warp_size=warp,
            launch_overhead_scale=overhead_scale,
        )
        return GpuProfile(
            config=cfg,
            device=device,
            n_terms_total=n_total,
            traffic=traffic,
            node_sectors_per_request=node_coalescing.sectors_per_request,
            rng_sectors_per_request=rng_coalescing.sectors_per_request,
            warp_stats=warp_stats,
            kernel_launches=self.kernel_launches(),
            timing=timing,
            detail={
                "sample_terms": float(len(batch)),
                "scale_factor": scale,
                "combined_sectors_per_request": combined_spr,
                "warp_cooling_fraction": (
                    self.recipe.cooling_sum / self.recipe.cooling_segments
                    if self.recipe.cooling_segments
                    else 0.0
                ),
            },
        )
