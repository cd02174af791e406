"""Suite runner: execute registered benchmark cases and emit result documents.

The runner owns everything the individual cases must not care about: suite
resolution, warmup/repeat wall-time measurement, metric-determinism checking
across repeats, progress reporting, optional per-case cProfile artifacts
(``--profile``), and assembling the schema-versioned result document written
to ``BENCH_<suite>.json``.
"""
from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional

from .context import DEFAULT_MASTER_SEED, BenchContext
from .env import environment_fingerprint
from .registry import (
    BenchCase,
    BenchError,
    BenchRegistry,
    CaseResult,
    load_builtin_cases,
    metrics_as_plain,
)
from .schema import SCHEMA_VERSION, default_output_path, metric_values, write_results

__all__ = ["run_suite", "run_case", "SuiteRunError"]


class SuiteRunError(BenchError):
    """A case failed, or repeats disagreed on supposedly deterministic metrics."""


def _measure(case: BenchCase, ctx: BenchContext, warmup: int,
             repeats: int) -> tuple[CaseResult, List[float]]:
    """Run one case ``warmup + repeats`` times; verify metric determinism."""
    for _ in range(warmup):
        case.run(ctx)
    times: List[float] = []
    result: Optional[CaseResult] = None
    for repeat in range(repeats):
        t0 = time.perf_counter()
        current = case.run(ctx)
        times.append(time.perf_counter() - t0)
        if result is not None:
            # Measured wall-clock metrics (deterministic=False) legitimately
            # vary between repeats; only the modelled metrics are held to the
            # byte-identity contract.
            previous = {k: m.value for k, m in result.metrics.items()
                        if m.deterministic}
            observed = {k: m.value for k, m in current.metrics.items()
                        if m.deterministic}
            if previous != observed:
                drift = sorted(k for k in set(previous) | set(observed)
                               if previous.get(k) != observed.get(k))
                raise SuiteRunError(
                    f"case {case.name!r} is nondeterministic across repeats "
                    f"(repeat {repeat + 1} changed metrics: {drift}); every "
                    "stochastic choice must come from ctx.seed_for/ctx.rng"
                )
        result = current
    assert result is not None
    return result, times


#: Lines of the cumulative-time ranking written per profiled case.
_PROFILE_TOP = 40


def _profile_case(case: BenchCase, ctx: BenchContext, directory: str) -> str:
    """Run ``case`` once under cProfile; write a summary artifact, return its path.

    The artifact is a plain-text cumulative-time ranking (top
    :data:`_PROFILE_TOP` functions) — enough to see *where* a dispatch
    regression lives (per-batch sampler round trips, PRNG call loops,
    backend seam crossings) straight from a CI artifact, without rerunning
    anything locally — plus the profiled run's peak RSS
    (:class:`repro.memtrack.PeakTracker`), so a memory blow-up shows in the
    same forensics file as the time ranking.
    """
    import cProfile
    import io
    import pstats

    from ..memtrack import PeakTracker

    profiler = cProfile.Profile()
    mem = PeakTracker(trace=False).start()
    profiler.enable()
    try:
        case.run(ctx)
    finally:
        profiler.disable()
        mem.stop()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{case.name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"cProfile summary: case={case.name} "
                     f"(top {_PROFILE_TOP} by cumulative time)\n")
        if mem.rss_peak_bytes is not None:
            handle.write(f"peak RSS: {mem.rss_peak_bytes} bytes "
                         f"({mem.rss_peak_bytes / 2**20:.1f} MiB, process "
                         "high-water)\n")
        handle.write(buffer.getvalue())
    return path


def profile_dir_for(out_path: str) -> str:
    """Directory the per-case profile artifacts go to for ``out_path``."""
    root, _ = os.path.splitext(out_path)
    return f"{root}_profile"


def run_case(
    name: str,
    master_seed: int = DEFAULT_MASTER_SEED,
    registry: Optional[BenchRegistry] = None,
    echo: Callable[[str], None] = print,
) -> CaseResult:
    """Execute one registered case by name and echo its tables::

        python -c "from repro.bench import run_case; run_case('<name>')"
    """
    if registry is None:
        registry = load_builtin_cases()
    case = registry.get(name)
    ctx = BenchContext(master_seed=master_seed)
    result = case.run(ctx)
    for table in result.tables:
        echo(table)
    return result


def run_suite(
    suite: str,
    master_seed: int = DEFAULT_MASTER_SEED,
    warmup: int = 0,
    repeats: int = 1,
    out_path: Optional[str] = None,
    registry: Optional[BenchRegistry] = None,
    echo: Callable[[str], None] = print,
    show_tables: bool = False,
    backend: Optional[str] = None,
    profile: bool = False,
) -> Dict:
    """Run every case of ``suite`` and return (and optionally write) results.

    ``repeats >= 2`` both tightens the wall-time estimate and *proves* the
    determinism contract: any metric whose value changes between repeats
    aborts the run with :class:`SuiteRunError`. ``profile=True`` additionally
    runs each case once under cProfile and writes one summary artifact per
    case to ``<out>_profile/`` (the profiled run is extra — it never feeds
    the recorded wall times).
    """
    if warmup < 0 or repeats < 1:
        raise ValueError("warmup must be >= 0 and repeats >= 1")
    if registry is None:
        registry = load_builtin_cases()
    cases = registry.suite(suite)
    if not cases:
        raise SuiteRunError(f"suite {suite!r} resolved to zero cases")

    ctx = BenchContext(master_seed=master_seed, backend=backend)
    echo(f"bench run: suite={suite} cases={len(cases)} master_seed={master_seed} "
         f"warmup={warmup} repeats={repeats} backend={ctx.backend_name}")
    profile_dir = None
    if profile:
        profile_dir = profile_dir_for(out_path if out_path
                                      else default_output_path(suite))

    case_docs = []
    suite_t0 = time.perf_counter()
    for position, case in enumerate(cases, start=1):
        echo(f"[{position}/{len(cases)}] {case.name} ({case.source or 'no source'}) ...")
        t0 = time.perf_counter()
        try:
            result, times = _measure(case, ctx, warmup, repeats)
        except SuiteRunError:
            raise
        except AssertionError as exc:
            raise SuiteRunError(
                f"case {case.name!r} failed its reproduction-shape assertions: {exc}"
            ) from exc
        elapsed = time.perf_counter() - t0
        if profile_dir is not None:
            artifact = _profile_case(case, ctx, profile_dir)
            echo(f"    profile -> {artifact}")
        if show_tables:
            for table in result.tables:
                echo(table)
        echo(f"    done in {elapsed:.2f}s "
             f"({len(result.metrics)} metrics, min wall {min(times):.3f}s)")
        case_docs.append({
            "name": case.name,
            "source": case.source,
            "suites": sorted(case.suites),
            "wall_time": {
                "repeats": repeats,
                "times_s": [round(t, 6) for t in times],
                "min_s": round(min(times), 6),
                "mean_s": round(sum(times) / len(times), 6),
            },
            "metrics": metrics_as_plain(result.metrics),
            "graph_properties": dict(sorted(result.graph_properties.items())),
        })

    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "master_seed": master_seed,
        "environment": environment_fingerprint(),
        # ``backend`` is runner metadata, not part of the timing-environment
        # fingerprint: documents produced before the key existed still
        # compare cleanly against new ones.
        "runner": {"warmup": warmup, "repeats": repeats,
                   "backend": ctx.backend_name},
        "cases": case_docs,
    }
    echo(f"suite {suite!r} complete in {time.perf_counter() - suite_t0:.2f}s: "
         f"{sum(len(c['metrics']) for c in case_docs)} metrics over {len(cases)} cases")
    if out_path is None:
        out_path = default_output_path(suite)
    if out_path:
        write_results(doc, out_path)
        echo(f"wrote {out_path}")
    return doc


def deterministic_payload(doc: Dict) -> Dict[str, Dict[str, float]]:
    """The portion of a result document required to be run-invariant."""
    return metric_values(doc)


def _main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Minimal direct entry (``python -m repro.bench.runner <suite>``)."""
    suite = (argv or sys.argv[1:] or ["smoke"])[0]
    run_suite(suite)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
