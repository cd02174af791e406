"""Layout parameters shared by every PG-SGD engine.

The defaults follow ``odgi-layout`` (and the paper's experimental setup):
30 iterations, ``N_steps = 10 × Σ|p|`` updates per iteration, a Zipf-like
"cooling" node-pair distribution that activates in the second half of the
run, and the Zheng-et-al. exponentially decaying learning-rate schedule.

For the scaled datasets used in this reproduction the per-iteration step
budget is configurable (``steps_per_step_unit``), because the paper's 10×
multiplier targets million-node graphs; the ratios studied in the benchmarks
are insensitive to the multiplier.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

__all__ = ["MERGE_POLICIES", "LayoutParams", "parse_memory_budget",
           "replace_params", "warn_fused_deprecated"]

#: The write-merge policies for colliding in-batch updates
#: (:mod:`repro.core.updates`), in the order the CLI lists them.
MERGE_POLICIES = ("hogwild", "accumulate", "last_writer")

#: Binary size-suffix multipliers accepted by :func:`parse_memory_budget`.
#: ``KB``/``KiB``/``K`` are synonyms (1024 bytes), and so on through ``T``.
_MEMORY_UNITS = {
    "": 1,
    "B": 1,
    "K": 1024, "KB": 1024, "KIB": 1024,
    "M": 1024 ** 2, "MB": 1024 ** 2, "MIB": 1024 ** 2,
    "G": 1024 ** 3, "GB": 1024 ** 3, "GIB": 1024 ** 3,
    "T": 1024 ** 4, "TB": 1024 ** 4, "TIB": 1024 ** 4,
}

_MEMORY_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*$")


def parse_memory_budget(value: Union[int, str, None]) -> Optional[int]:
    """Normalise a memory budget to a positive byte count (or ``None``).

    Accepts ``None`` (no budget), a positive ``int`` byte count, or a
    human-readable string such as ``"64MB"``, ``"512KiB"``, ``"1.5g"`` or
    plain ``"1048576"``. Suffixes are binary — ``K``/``KB``/``KiB`` all
    mean 1024 bytes — because the budget sizes array allocations, not disk.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError("memory_budget must be None, a byte count or a "
                         "size string such as '64MB'")
    if isinstance(value, int):
        budget = value
    elif isinstance(value, str):
        match = _MEMORY_RE.match(value)
        if match is None:
            raise ValueError(
                f"invalid memory budget {value!r}: expected a byte count "
                "with an optional K/M/G/T suffix, e.g. '64MB'")
        number, unit = match.groups()
        try:
            scale = _MEMORY_UNITS[unit.upper()]
        except KeyError:
            raise ValueError(
                f"invalid memory budget unit {unit!r} in {value!r}: "
                "expected one of B, K[i]B, M[i]B, G[i]B, T[i]B") from None
        budget = int(float(number) * scale)
    else:
        raise ValueError("memory_budget must be None, a byte count or a "
                         "size string such as '64MB'")
    if budget < 1:
        raise ValueError("memory_budget must be a positive number of bytes")
    return budget


def warn_fused_deprecated() -> None:
    """Warn that ``LayoutParams.fused`` is deprecated and changes nothing."""
    warnings.warn(
        "the fused option is deprecated and has no effect: every run takes "
        "the fused iteration", FutureWarning, stacklevel=2)


@dataclass(frozen=True)
class LayoutParams:
    """Hyper-parameters of the path-guided SGD layout (Alg. 1)."""

    iter_max: int = 30
    """Total number of outer iterations (N_iters in Alg. 1)."""

    steps_per_step_unit: float = 10.0
    """Updates per iteration expressed as a multiple of Σ|p| (paper: 10)."""

    min_term_updates: int = 10
    """Lower bound on updates per iteration for tiny graphs."""

    eps: float = 0.01
    """Learning-rate floor parameter (η_min = eps / w_max)."""

    eta_max: Optional[float] = None
    """Explicit η_max override; default is d_max² (1 / w_min)."""

    cooling_start: float = 0.5
    """Fraction of iterations after which every step uses the cooling branch."""

    zipf_theta: float = 0.99
    """Exponent of the Zipf distribution used for cooling node-pair selection."""

    zipf_space_max: int = 1000
    """Maximum hop distance the Zipf cooling distribution can select."""

    seed: int = 9399
    """PRNG seed (odgi-layout's default seed is 9399 for the path SGD)."""

    simulated_threads: int = 1
    """*Simulated* thread count for the Hogwild CPU-baseline emulation and
    the Fig. 4 scaling *model*. This knob never spawns OS threads or
    processes — it only widens the staleness window the single-process
    engine emulates. Real multi-core execution is :attr:`workers`."""

    workers: int = 1
    """Real OS worker-process count for the process-parallel shared-memory
    engine (:mod:`repro.parallel.shm`). ``1`` (the default) runs the flat
    single-process path; ``N > 1`` puts the coordinate array in
    ``multiprocessing.shared_memory`` and runs ``N`` hogwild workers over
    disjoint slices of each iteration's batch plan."""

    on_worker_failure: str = "fail"
    """Failure policy of the supervised process-parallel runtime
    (:mod:`repro.parallel.supervise`), consulted when a shm worker dies or
    stalls mid-run. ``"fail"`` (the default) raises a typed
    ``ParallelRuntimeError`` promptly — the run never hangs and never
    silently drops a worker's contribution; ``"degrade"`` re-slices the
    dead worker's sub-plan across the survivors and continues (the result
    is flagged ``degraded``); ``"restart"`` respawns the worker with fresh
    decorrelated streams, with capped exponential backoff, degrading only
    after the restart budget is exhausted. Irrelevant when ``workers=1``
    runs flat."""

    batch_size: int = 65536
    """Node-pair batch size for the batched (PyTorch-style) engine."""

    record_history: bool = False
    """Whether engines record per-iteration stress snapshots."""

    merge_policy: str = "hogwild"
    """Write-merge policy for colliding in-batch updates (``hogwild`` /
    ``accumulate`` / ``last_writer``; see :mod:`repro.core.updates`)."""

    backend: Optional[str] = None
    """Execution backend name: ``"numpy"``, the one backend
    (:mod:`repro.backend`), or ``None``, which means the same. Any other
    name raises ``ValueError`` here."""

    fused: Optional[bool] = None
    """Deprecated; has no effect. Every engine runs each iteration as one
    fused backend dispatch per chunk (:mod:`repro.core.fused`); there is no
    per-batch loop left to select. An explicit ``True`` or ``False`` warns
    (:func:`warn_fused_deprecated`). The field stays while the repository
    benchmark's workload params still name it."""

    memory_budget: Optional[Union[int, str]] = None
    """Soft ceiling, in bytes, on the fused path's per-iteration transient
    footprint. ``None`` (the default) keeps the historical behaviour: the
    whole iteration's uniform megablock and selection block are materialised
    at once (one backend dispatch per iteration). A budget makes the engine
    split each iteration's batch plan into contiguous segment *chunks* sized
    to fit (:func:`repro.core.fused.chunk_spans`) and dispatch once per
    chunk; chunk boundaries are segment boundaries, so layouts stay
    byte-identical for every budget. Accepts an ``int``
    byte count or a size string (``"64MB"``), normalised to bytes by
    :func:`parse_memory_budget` at construction."""

    levels: int = 1
    """Maximum depth of the multilevel coarsening hierarchy
    (:mod:`repro.multilevel`). ``1`` (the default) runs the flat engine
    untouched; ``N > 1`` coarsens up to ``N - 1`` times and optimises coarse
    to fine."""

    coarsen_min_nodes: int = 32
    """Coarsening stops once a hierarchy level has this many nodes or fewer
    (tiny graphs gain nothing from further contraction)."""

    level_iter_split: float = 0.5
    """Fraction of the remaining iteration budget handed to the *coarser*
    part of the hierarchy at each level boundary (strictly between 0 and 1);
    see :func:`repro.multilevel.split_iterations`."""

    trace: Optional[str] = None
    """Path of a JSONL run-trace file (:mod:`repro.obs`). ``None`` (the
    default) disables tracing entirely — engines hold the null tracer and
    the hot path pays one branch per guarded site. A path makes the run
    record phase-attributed spans (schedule/selection/dispatch/merge/...)
    and write them, schema-versioned, at the end of ``run()``;
    shm workers send their spans with each iteration's reply, and the
    parent merges the per-worker streams into the one file. Tracing never
    touches coordinates or PRNG draw order, so traced layouts are
    byte-identical to untraced ones."""

    def __post_init__(self) -> None:
        if self.iter_max < 1:
            raise ValueError("iter_max must be >= 1")
        if self.steps_per_step_unit <= 0:
            raise ValueError("steps_per_step_unit must be positive")
        if self.min_term_updates < 1:
            raise ValueError("min_term_updates must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 <= self.cooling_start <= 1.0:
            raise ValueError("cooling_start must lie in [0, 1]")
        if self.zipf_theta <= 0:
            raise ValueError("zipf_theta must be positive")
        if self.zipf_space_max < 1:
            raise ValueError("zipf_space_max must be >= 1")
        if self.simulated_threads < 1:
            raise ValueError("simulated_threads must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.on_worker_failure not in ("fail", "degrade", "restart"):
            raise ValueError(
                "on_worker_failure must be 'fail', 'degrade' or 'restart'")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.merge_policy not in MERGE_POLICIES:
            raise ValueError(
                "merge_policy must be 'hogwild', 'accumulate' or 'last_writer'")
        if self.backend not in (None, "numpy"):
            raise ValueError(
                f"backend must be None or 'numpy', got {self.backend!r}")
        if self.fused is not None and not isinstance(self.fused, bool):
            raise ValueError("fused must be None, True or False")
        if self.fused is not None:
            warn_fused_deprecated()
        # Normalise "64MB"-style budgets to a byte count once, here, so every
        # consumer (engine, shm workers, CLI echo) deals in plain ints.
        object.__setattr__(self, "memory_budget",
                           parse_memory_budget(self.memory_budget))
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.coarsen_min_nodes < 1:
            raise ValueError("coarsen_min_nodes must be >= 1")
        if not 0.0 < self.level_iter_split < 1.0:
            raise ValueError("level_iter_split must lie strictly between 0 and 1")
        if self.trace is not None and (not isinstance(self.trace, str)
                                       or not self.trace):
            raise ValueError("trace must be None or a non-empty output path")
        # Reject the unsupported combination at construction time, so
        # replace_params-built configs fail here with the same message the
        # late layout_graph() check used to raise.
        if self.workers > 1 and self.levels > 1:
            raise ValueError(
                "workers > 1 and levels > 1 cannot be combined yet; run the "
                "multilevel driver single-process or the shm engine flat")

    def with_(self, **kwargs) -> "LayoutParams":
        """Return a copy with the given fields replaced (unknown names rejected)."""
        return replace_params(self, kwargs)

    def steps_per_iteration(self, total_path_steps: int) -> int:
        """N_steps for a graph with ``total_path_steps`` = Σ|p| (Alg. 1 line 1)."""
        return max(self.min_term_updates, int(self.steps_per_step_unit * total_path_steps))

    def first_cooling_iteration(self) -> int:
        """Iteration index at which the cooling branch becomes unconditional."""
        return int(self.cooling_start * self.iter_max)


#: Names accepted as per-call overrides by :func:`replace_params` (and thus
#: by ``LayoutParams.with_`` and ``layout_graph(**overrides)``): every init
#: field.
PARAM_FIELD_NAMES = tuple(f.name for f in fields(LayoutParams) if f.init)


def replace_params(params: LayoutParams, overrides) -> LayoutParams:
    """``dataclasses.replace`` with unknown-name rejection.

    The backing of the one-knob override API (``layout_graph(g, workers=4)``,
    ``params.with_(seed=7)``): overrides are validated against the
    :class:`LayoutParams` field names before replacement, so a typo raises
    ``TypeError`` naming the valid knobs instead of surfacing as an opaque
    dataclass error.
    """
    overrides = dict(overrides)
    if not overrides:
        return params
    unknown = sorted(set(overrides) - set(PARAM_FIELD_NAMES))
    if unknown:
        raise TypeError(
            f"unknown layout parameter(s) {', '.join(map(repr, unknown))}; "
            f"valid names: {', '.join(PARAM_FIELD_NAMES)}")
    return replace(params, **overrides)
