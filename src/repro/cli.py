"""Command-line interface: ``repro``.

Subcommands:

* ``repro layout`` — read a GFA (or generate a named synthetic dataset), run
  the chosen engine, write the layout and optionally an SVG rendering, and
  report the sampled path stress. Mirrors the shape of ``odgi layout``; the
  ``--gpu`` flag selects the optimized kernel, matching the paper's statement
  that GPU acceleration is enabled in the ODGI pipeline by simply adding
  ``--gpu``.
* ``repro bench`` — benchmark orchestration: ``run`` executes a registered
  suite (``smoke``/``figures``/``tables``/``all``) and writes a versioned
  ``BENCH_<suite>.json``; ``compare`` diffs two result files and exits
  nonzero on regressions beyond a threshold; ``list`` shows registered cases.
* ``repro analyze`` — the AST-based contract linter (:mod:`repro.analysis`):
  checks the determinism (DET001/DET002), zero-alloc (ALLOC001),
  memory-ceiling (MEM001), backend-dispatch (XP001), shm-lifecycle
  (SHM001), clock-seam (OBS001), no-unbounded-blocking (ROBUST001) and
  native-library-loading (CEXT001) invariants over the given paths and
  exits nonzero on violations (``--strict`` also fails on warnings — the
  CI configuration).
* ``repro trace`` — run-telemetry tooling over the JSONL traces that
  ``repro layout --trace out.jsonl`` (or ``LayoutParams(trace=...)``)
  records: ``summarize`` prints the per-phase time breakdown of one trace,
  ``compare`` diffs two traces phase by phase.

Any other first argument prints these four subcommands and exits 2. The
``repro-layout`` script runs ``repro layout`` directly.
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core import GpuKernelConfig, layout_graph
from .core.params import MERGE_POLICIES
from .graph import LeanGraph, parse_gfa, validate_lean
from .io import write_lay, write_tsv
from .metrics import sampled_path_stress
from .render import save_svg
from .synth import REPRESENTATIVE_SPECS, load_dataset

__all__ = ["main", "build_parser", "build_bench_parser", "build_analyze_parser",
           "build_trace_parser", "bench_main", "layout_main", "analyze_main",
           "trace_main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``layout`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-layout",
        description="Path-guided SGD pangenome graph layout (SC'24 reproduction)",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--gfa", help="input GFA v1 file")
    source.add_argument(
        "--dataset",
        choices=sorted(REPRESENTATIVE_SPECS),
        help="generate a named synthetic dataset instead of reading a GFA",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor for synthetic datasets (default 1.0)")
    parser.add_argument("--gpu", action="store_true",
                        help="use the optimized GPU kernel engine")
    parser.add_argument("--engine", default=None,
                        choices=["cpu", "serial", "batch", "gpu", "gpu-base",
                                 "shm"],
                        help="explicit engine selection (overrides --gpu)")
    parser.add_argument("--iter-max", type=int, default=30, help="SGD iterations")
    parser.add_argument("--steps-factor", type=float, default=10.0,
                        help="updates per iteration as a multiple of total path steps")
    parser.add_argument("--seed", type=int, default=9399, help="PRNG seed")
    parser.add_argument("--levels", type=int, default=1,
                        help="multilevel hierarchy depth: 1 runs the flat "
                             "engine (default); N>1 coarsens path-identical "
                             "chains up to N-1 times and optimises coarse to "
                             "fine (repro.multilevel V-cycle)")
    parser.add_argument("--level-split", type=float, default=0.5,
                        help="fraction of the remaining iteration budget "
                             "given to the coarser levels at each boundary "
                             "(default 0.5; only used with --levels > 1)")
    parser.add_argument("--merge-policy", default="hogwild",
                        choices=list(MERGE_POLICIES),
                        help="write-merge policy for colliding in-batch "
                             "updates (default: hogwild)")
    parser.add_argument("--backend", default=None, choices=["numpy"],
                        help="execution backend; numpy, the only one, is "
                             "the default")
    parser.add_argument("--simulated-threads", dest="simulated_threads",
                        type=int, default=1,
                        help="emulated Hogwild thread count for the CPU "
                             "engine's staleness window (no OS threads are "
                             "spawned; see --workers for real parallelism)")
    parser.add_argument("--workers", type=int, default=1,
                        help="real OS worker processes for the "
                             "process-parallel shared-memory hogwild engine "
                             "(N>1 routes the run through repro.parallel.shm; "
                             "cpu engine only)")
    parser.add_argument("--on-worker-failure", dest="on_worker_failure",
                        default="fail", choices=["fail", "degrade", "restart"],
                        help="policy when a shm worker process dies or "
                             "stalls mid-run: fail raises a typed error "
                             "promptly (default), degrade re-slices the dead "
                             "worker's share across the survivors and "
                             "finishes with fewer workers, restart respawns "
                             "the worker with fresh streams before degrading "
                             "(only meaningful with --workers > 1)")
    parser.add_argument("--memory-budget", dest="memory_budget", default=None,
                        help="ceiling on the fused path's per-iteration "
                             "transient footprint, as bytes or a size string "
                             "('64MB'): the iteration's batch plan is split "
                             "into budget-sized segment chunks dispatched in "
                             "order; layouts are byte-identical to the "
                             "unbudgeted run (workers split the budget "
                             "evenly; default: no budget, one dispatch per "
                             "iteration)")
    parser.add_argument("--trace", default=None, metavar="OUT.JSONL",
                        help="record the run's span trace (schema-versioned "
                             "JSONL; one merged, ordered file even for "
                             "--workers > 1 and --levels > 1 runs — inspect "
                             "it with 'repro trace summarize')")
    parser.add_argument("--progress", action="store_true",
                        help="render live per-iteration progress on stderr "
                             "(the on_progress callback API, drawn as an "
                             "updating one-line status)")
    parser.add_argument("--out-lay", help="write the layout to a .lay binary file")
    parser.add_argument("--out-tsv", help="write the layout to a TSV file")
    parser.add_argument("--out-svg", help="render the layout to an SVG file")
    parser.add_argument("--stress", action="store_true",
                        help="report the sampled path stress of the result")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip structural validation of the input graph")
    return parser


def _progress_line(completed: int, total: int, stats) -> None:
    """Render one live-progress update (the ``--progress`` callback).

    Draws a carriage-return-refreshed status line on stderr — stdout stays
    reserved for the machine-readable summary output.
    """
    pct = 100.0 * completed / max(total, 1)
    extra = ""
    if "level" in stats:
        extra += f" level={stats['level']}"
    if "workers" in stats:
        extra += f" workers={stats['workers']}"
    sys.stderr.write(
        f"\r[{pct:5.1f}%] iteration {completed}/{total} "
        f"eta={stats.get('eta', 0.0):.3g} terms={stats.get('terms', 0)}"
        f"{extra}  ")
    sys.stderr.flush()


def layout_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro layout`` entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.gfa:
        graph = LeanGraph.from_variation_graph(parse_gfa(args.gfa))
        source_name = args.gfa
    else:
        graph = load_dataset(args.dataset, scale=args.scale)
        source_name = f"{args.dataset} (scale={args.scale})"

    if not args.no_validate:
        report = validate_lean(graph)
        for warning in report.warnings:
            print(f"[warn] {warning}", file=sys.stderr)
        report.raise_if_invalid()

    engine = args.engine or ("gpu" if args.gpu else "cpu")
    multilevel_note = f", levels={args.levels}" if args.levels > 1 else ""
    workers_note = f", workers={args.workers}" if args.workers > 1 else ""
    print(f"laying out {source_name}: {graph.n_nodes} nodes, {graph.n_paths} paths, "
          f"{graph.total_steps} steps, engine={engine}"
          f"{multilevel_note}{workers_note}, merge={args.merge_policy}")
    # One run path for CLI, quickstart and examples: layout_graph with
    # per-call param overrides (unknown names raise before any work starts).
    result = layout_graph(
        graph,
        engine=engine,
        gpu_config=GpuKernelConfig() if engine == "gpu" else None,
        on_progress=_progress_line if args.progress else None,
        iter_max=args.iter_max,
        steps_per_step_unit=args.steps_factor,
        seed=args.seed,
        simulated_threads=args.simulated_threads,
        workers=args.workers,
        on_worker_failure=args.on_worker_failure,
        backend=args.backend,
        merge_policy=args.merge_policy,
        memory_budget=args.memory_budget,
        levels=args.levels,
        level_iter_split=args.level_split,
        trace=args.trace,
    )
    if args.progress:
        print(file=sys.stderr)  # finish the live line before the summary
    if args.trace:
        print(f"wrote run trace to {args.trace}")
    summary = result.summary()
    print(f"layout complete in {summary['wall_time_s']:.2f}s "
          f"({summary['total_terms']} update terms, "
          f"{summary['update_dispatches']} dispatches, "
          f"collision fraction {summary['collision_fraction']:.3f})")
    if summary["degraded"] or summary["worker_failures"]:
        # Surface supervised-runtime health whenever anything went wrong —
        # CI's chaos job greps this line to validate graceful degradation.
        print(f"run degraded: effective_workers="
              f"{summary['effective_workers']}/{summary['workers']} after "
              f"{summary['worker_failures']} worker failure(s), "
              f"{summary['worker_restarts']} restart(s)")

    if args.out_lay:
        write_lay(result.layout, args.out_lay)
        print(f"wrote layout to {args.out_lay}")
    if args.out_tsv:
        write_tsv(result.layout, args.out_tsv)
        print(f"wrote TSV to {args.out_tsv}")
    if args.out_svg:
        save_svg(result.layout, args.out_svg, graph=graph)
        print(f"wrote SVG to {args.out_svg}")
    if args.stress:
        sps = sampled_path_stress(result.layout, graph, samples_per_step=25, seed=args.seed)
        print(f"sampled path stress: {sps.value:.4f} "
              f"(95% CI [{sps.ci_low:.4f}, {sps.ci_high:.4f}], n={sps.n_samples})")
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    """Construct the ``repro bench`` argument parser."""
    from .bench.context import DEFAULT_MASTER_SEED
    from .bench.registry import KNOWN_SUITES

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark orchestration and perf-regression gate",
    )
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run_p = sub.add_parser("run", help="run a benchmark suite and write BENCH_<suite>.json")
    run_p.add_argument("--suite", default="smoke", choices=list(KNOWN_SUITES),
                       help="suite to run (default: smoke)")
    run_p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                       help="master seed threaded through every case "
                            f"(default: {DEFAULT_MASTER_SEED})")
    run_p.add_argument("--warmup", type=int, default=0,
                       help="unmeasured runs per case before timing (default: 0)")
    run_p.add_argument("--repeats", type=int, default=1,
                       help="measured runs per case; >=2 also verifies metric "
                            "determinism (default: 1)")
    run_p.add_argument("--out", default=None,
                       help="output path (default: BENCH_<suite>.json in the CWD)")
    run_p.add_argument("--tables", action="store_true",
                       help="print each case's human-readable reproduction tables")
    run_p.add_argument("--profile", action="store_true",
                       help="additionally run each case once under cProfile "
                            "and write a per-case summary artifact next to "
                            "the result file (dispatch-regression forensics)")

    cmp_p = sub.add_parser("compare",
                           help="diff two result files; exit 1 on regression")
    cmp_p.add_argument("old", help="baseline BENCH_*.json")
    cmp_p.add_argument("new", help="candidate BENCH_*.json")
    cmp_p.add_argument("--max-regress", default="10%",
                       help="allowed worsening per tracked metric, e.g. '10%%' "
                            "or '0.1' (default: 10%%)")
    cmp_p.add_argument("--allow-missing", action="store_true",
                       help="do not fail when a tracked case/metric disappears")
    cmp_p.add_argument("--quiet", action="store_true",
                       help="only print regressions and the verdict line")

    list_p = sub.add_parser("list", help="list registered cases and their suites")
    list_p.add_argument("--suite", default="all", choices=list(KNOWN_SUITES),
                        help="restrict the listing to one suite")
    return parser


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro bench`` entry point; returns the process exit code."""
    from .bench.compare import compare_files, parse_threshold
    from .bench.registry import BenchError, load_builtin_cases
    from .bench.runner import SuiteRunError, run_suite
    from .bench.schema import SchemaError
    from .bench.tables import format_table

    args = build_bench_parser().parse_args(argv)
    try:
        if args.bench_command == "run":
            run_suite(
                args.suite,
                master_seed=args.seed,
                warmup=args.warmup,
                repeats=args.repeats,
                out_path=args.out,
                show_tables=args.tables,
                profile=args.profile,
            )
            return 0
        if args.bench_command == "compare":
            report = compare_files(
                args.old, args.new,
                max_regress=parse_threshold(args.max_regress),
                allow_missing=args.allow_missing,
            )
            print(report.format(include_ok=not args.quiet))
            return report.exit_code
        if args.bench_command == "list":
            registry = load_builtin_cases()
            rows = [[c.name, c.source, ",".join(sorted(c.suites)), c.summary]
                    for c in registry.suite(args.suite)]
            print(format_table(["case", "source", "suites", "summary"], rows,
                               title=f"Registered benchmark cases ({args.suite})"))
            return 0
    except BrokenPipeError:
        return 0
    except (BenchError, SuiteRunError, SchemaError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def build_analyze_parser() -> argparse.ArgumentParser:
    """Construct the ``repro analyze`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="AST-based contract linter: determinism (DET001/DET002), "
                    "zero-alloc hot loops (ALLOC001), bounded iteration "
                    "memory (MEM001), backend dispatch (XP001), shm "
                    "lifecycle (SHM001), the obs clock seam (OBS001), "
                    "no unbounded blocking waits in the parallel runtime "
                    "(ROBUST001) and shared libraries loaded only by "
                    "repro.backend.cext (CEXT001)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--strict", action="store_true",
                        help="also fail on warnings (the CI configuration)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    return parser


def analyze_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro analyze`` entry point; returns the process exit code."""
    from .analysis import AnalysisError, run_analysis

    args = build_analyze_parser().parse_args(argv)
    try:
        report = run_analysis(args.paths)
        if args.format == "json":
            print(report.format_json())
        else:
            print(report.format_text(strict=args.strict))
        return report.exit_code(strict=args.strict)
    except BrokenPipeError:
        return 0
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_trace_parser() -> argparse.ArgumentParser:
    """Construct the ``repro trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect JSONL run traces recorded by "
                    "'repro layout --trace' / LayoutParams(trace=...)",
    )
    sub = parser.add_subparsers(dest="trace_command", required=True)

    sum_p = sub.add_parser("summarize",
                           help="per-phase time breakdown of one trace")
    sum_p.add_argument("trace", help="trace JSONL file")

    cmp_p = sub.add_parser("compare",
                           help="phase-by-phase diff of two traces")
    cmp_p.add_argument("old", help="baseline trace JSONL file")
    cmp_p.add_argument("new", help="candidate trace JSONL file")
    return parser


def trace_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro trace`` entry point; returns the process exit code."""
    from .obs.summarize import render_compare, render_summary
    from .obs.trace_file import TraceSchemaError, read_trace

    args = build_trace_parser().parse_args(argv)
    try:
        if args.trace_command == "summarize":
            print(render_summary(read_trace(args.trace), source=args.trace))
            return 0
        if args.trace_command == "compare":
            print(render_compare(read_trace(args.old), read_trace(args.new)))
            return 0
    except BrokenPipeError:
        return 0
    except (TraceSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


#: The top-level ``repro`` program's subcommands and their entry points.
_SUBCOMMANDS = {
    "layout": layout_main,
    "bench": bench_main,
    "analyze": analyze_main,
    "trace": trace_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Top-level CLI dispatch; returns the process exit code.

    The first argument names the subcommand. ``-h``/``--help`` print this
    module's overview; anything else prints the subcommands and exits 2.
    """
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[args[0]](args[1:])
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    got = f"unknown command {args[0]!r}" if args else "missing command"
    print(f"repro: {got}; choose one of: {', '.join(_SUBCOMMANDS)}",
          file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
