"""Shared execution context for benchmark cases.

One :class:`BenchContext` is built per ``repro bench run`` invocation (and
per :func:`~repro.bench.runner.run_case` call). It carries the cached
datasets and layout parameters, and **every stochastic choice a case makes
is derived from a single explicit master seed**, so two runs of the same
suite on the same commit produce byte-identical metric values.

Seed discipline
---------------
``seed_for(label)`` hashes a stable string label (convention:
``"<case>/<purpose>"``) together with the master seed through SplitMix64 and
returns a 31-bit seed. Cases use it for layout scrambles, engine seeds and
metric sampling. The *datasets themselves* keep the calibrated seeds of their
:class:`~repro.synth.datasets.DatasetSpec` — they are the benchmark's fixed
inputs, like GFA files on disk, and changing them would detach the suite from
the paper-calibrated graph shapes.
"""
from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..backend import ArrayBackend, get_backend, resolve_backend_name
from ..core.params import LayoutParams
from ..graph.lean import LeanGraph
from ..prng.splitmix import derive_seed
from ..synth import (
    chr1_like,
    chromosome_suite,
    hla_drb1_like,
    mhc_like,
    scale_graph,
    small_graph_collection,
)

__all__ = ["BenchContext", "DEFAULT_MASTER_SEED"]

#: odgi-layout's default path-SGD seed; kept as the suite default so the
#: committed baselines correspond to the documented upstream seed.
DEFAULT_MASTER_SEED = 9399


class BenchContext:
    """Datasets, layout parameters and derived seeds shared by bench cases."""

    def __init__(self, master_seed: int = DEFAULT_MASTER_SEED,
                 backend: Optional[str] = None) -> None:
        if not 0 <= int(master_seed) < 2**63:
            raise ValueError("master_seed must be a non-negative 63-bit integer")
        self.master_seed = int(master_seed)
        # Resolved eagerly (name + instance) so an unavailable backend fails
        # before any case runs, with the registry's recorded reason.
        self.backend_name = resolve_backend_name(backend)
        self.backend: ArrayBackend = get_backend(self.backend_name)
        self._graphs: Dict[str, object] = {}

    # ------------------------------------------------------------------ seeds
    def seed_for(self, label: str) -> int:
        """Deterministic 31-bit seed for ``label`` under the master seed."""
        return derive_seed(self.master_seed, label)

    def rng(self, label: str) -> np.random.Generator:
        """Fresh NumPy generator seeded from :meth:`seed_for`."""
        return np.random.default_rng(self.seed_for(label))  # det-ok: seed_for() derives the stream from the master seed via derive_seed

    # ----------------------------------------------------------------- params
    @property
    def bench_params(self) -> LayoutParams:
        """Layout parameters for speed-oriented workloads (reduced schedule).

        The engine seed is the master seed itself (the historical conftest
        hardcoded odgi's 9399 here), so the default run reproduces the
        calibrated legacy trajectories exactly.
        """
        return LayoutParams(iter_max=10, steps_per_step_unit=2.0,
                            seed=self.master_seed, backend=self.backend_name)

    @property
    def quality_bench_params(self) -> LayoutParams:
        """Stronger schedule used when layout quality (not speed) is measured."""
        return LayoutParams(iter_max=20, steps_per_step_unit=4.0,
                            seed=self.master_seed, backend=self.backend_name)

    @property
    def smoke_params(self) -> LayoutParams:
        """Minimal schedule for the CI smoke gate (tiny graphs, seconds total)."""
        return LayoutParams(iter_max=6, steps_per_step_unit=1.5,
                            seed=self.seed_for("params/smoke"),
                            backend=self.backend_name)

    @property
    def scale_params(self) -> LayoutParams:
        """Parameters for the ``scale`` suite's memory-ceiling workload.

        A deliberately short schedule (two iterations — the per-iteration
        transient footprint being gated is identical every iteration) over a
        small fraction of the huge step count, with ``simulated_threads``
        raised so the CPU baseline's Hogwild rounds are large enough that
        per-segment Python overhead does not dominate the measurement. The
        case layers ``memory_budget`` on top with ``with_()``.
        """
        return LayoutParams(iter_max=2, steps_per_step_unit=0.2,
                            simulated_threads=64,
                            seed=self.seed_for("params/scale"),
                            backend=self.backend_name)

    # --------------------------------------------------------------- datasets
    def _cached(self, key: str, build):
        if key not in self._graphs:
            self._graphs[key] = build()
        return self._graphs[key]

    @property
    def hla_graph(self) -> LeanGraph:
        """HLA-DRB1-like graph at reduced scale."""
        return self._cached("hla", lambda: hla_drb1_like(scale=0.25))

    @property
    def mhc_graph(self) -> LeanGraph:
        """MHC-like graph at reduced scale."""
        return self._cached("mhc", lambda: mhc_like(scale=0.15))

    @property
    def chr1_graph(self) -> LeanGraph:
        """Chr.1-like graph at reduced scale."""
        return self._cached("chr1", lambda: chr1_like(scale=0.1))

    @property
    def perf_graph(self) -> LeanGraph:
        """Full-scale Chr.1-like graph for the hot-path wall-time cases.

        The update-kernel scaling bug the perf cases guard against (O(N)
        scratch per batch) only shows on a graph whose node count dwarfs the
        batch size, so these cases run at scale 1.0 (~23k nodes); build time
        is well under the smoke budget.
        """
        return self._cached("chr1_full", lambda: chr1_like(scale=1.0))

    @property
    def scale_graph(self) -> LeanGraph:
        """Synthetic 10⁶-node / 10⁷-step graph for the ``scale`` suite.

        Big enough that an *unchunked* fused iteration would materialise
        hundreds of megabytes of transients (~FUSED_BYTES_PER_TERM × the
        per-iteration term count), so the chunked path's budget actually
        binds. Built fully vectorised (:func:`repro.synth.scale_graph`);
        the seed is the dataset-identity seed, like the named specs.
        """
        return self._cached("scale", lambda: scale_graph())

    @property
    def representative_graphs(self) -> Dict[str, LeanGraph]:
        """The three representative pangenomes of Table I (scaled)."""
        return {"HLA-DRB1": self.hla_graph, "MHC": self.mhc_graph,
                "Chr.1": self.chr1_graph}

    @property
    def chromosome_graphs(self) -> Dict[str, LeanGraph]:
        """The 24-chromosome suite (quick scale)."""
        return self._cached("chromosomes",
                            lambda: chromosome_suite(scale=0.35, quick=True))

    @property
    def smoke_graph(self) -> LeanGraph:
        """Tiny HLA-DRB1-like graph used by the CI smoke suite."""
        return self._cached("smoke_hla", lambda: hla_drb1_like(scale=0.05))

    @property
    def smoke_graph_mhc(self) -> LeanGraph:
        """Tiny MHC-like graph used by the CI smoke suite."""
        return self._cached("smoke_mhc", lambda: mhc_like(scale=0.03))

    def small_graphs(self, n_graphs: int, seed: int) -> List[LeanGraph]:
        """Collection of small graphs for correlation-style studies.

        ``seed`` is a dataset-identity seed (like the spec seeds of the named
        graphs), not derived from the master seed — the collection is a fixed
        input, the measurement randomness on top of it is master-seeded.
        """
        return self._cached(
            f"small/{n_graphs}/{seed}",
            lambda: small_graph_collection(n_graphs=n_graphs, seed=seed),
        )

    def graph_properties(self, graph: LeanGraph) -> Dict[str, float]:
        """Schema-ready size description of one input graph."""
        return {
            "n_nodes": float(graph.n_nodes),
            "n_paths": float(graph.n_paths),
            "total_steps": float(graph.total_steps),
        }
