"""One benchmark run: GFA in, layout, SVG and stress out, in this process.

Run by ``perfbench/run.py`` as a fresh child process per run::

    python3 perfbench/pipeline.py '<json config>'

The config holds only the GFA path, the layout params, the output directory
and the trace flag. The run calls the public functions ``repro layout``
calls, in the same order, times them after all imports are done, checks
the outputs and prints one JSON object as its last line of stdout. The
reference workload of ``calibrate.py`` is timed just before and just after
the pipeline to calibrate the end-to-end timings.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, reference_seconds  # noqa: E402
from layers import LayerTimer, install_layer_spans, layer_metrics  # noqa: E402
from repro.core.api import make_engine  # noqa: E402
from repro.core.params import LayoutParams  # noqa: E402
from repro.graph import LeanGraph, parse_gfa, validate_lean  # noqa: E402
from repro.io import read_lay, write_lay  # noqa: E402
from repro.metrics import sampled_path_stress  # noqa: E402
from repro.parallel.faults import FaultPlan  # noqa: E402
from repro.parallel.supervise import WorkerSupervisor  # noqa: E402
from repro.render import save_svg  # noqa: E402

#: Samples per path step of the stress metric, as ``repro layout --stress``.
STRESS_SAMPLES_PER_STEP = 25
MIB = 1024.0 * 1024.0


def vm_hwm_bytes(pid) -> int:
    """Resident-set high-water mark of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def record_worker_peaks(peaks: dict) -> None:
    """Read each shm worker's RSS high-water mark just before shutdown
    stops it, while /proc still has it."""
    original = WorkerSupervisor.shutdown

    def shutdown(supervisor):
        for handle in supervisor.handles:
            if handle.proc.is_alive():
                peaks[handle.worker_id] = vm_hwm_bytes(handle.proc.pid)
        return original(supervisor)

    WorkerSupervisor.shutdown = shutdown


def lean_digest(graph: LeanGraph) -> str:
    """Content hash of a graph's layout-relevant arrays."""
    h = hashlib.sha256()
    for arr in (graph.node_lengths, graph.path_offsets, graph.step_nodes,
                graph.step_reverse, graph.step_positions):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update("\n".join(graph.path_names).encode())
    return h.hexdigest()


def run(cfg: dict) -> dict:
    trace = bool(cfg["trace"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    lay_path = out_dir / "layout.lay"
    svg_path = out_dir / "layout.svg"
    params = LayoutParams(**cfg["params"])
    engine_name = "shm" if params.workers > 1 else "cpu"

    worker_peaks: dict = {}
    record_worker_peaks(worker_peaks)
    timer = LayerTimer()
    if trace:
        install_layer_spans(timer)

    ref_before = reference_seconds(params.workers)
    t0 = time.perf_counter()
    variation = timer.call("graph.parse", parse_gfa, cfg["gfa"])
    graph = timer.call("graph.lean", LeanGraph.from_variation_graph, variation)
    del variation
    report = timer.call("graph.validate", validate_lean, graph)
    report.raise_if_invalid()
    ingest_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    engine = timer.call("core.engine_init", make_engine, graph, engine_name,
                        params)
    if engine_name == "shm":
        # No injected faults, whatever the environment says.
        engine.fault_plan = FaultPlan.of()
    t_setup = time.perf_counter()
    result = timer.call("core.run", engine.run)
    t_run = time.perf_counter()
    timer.call("io.write_lay", write_lay, result.layout, str(lay_path))
    timer.call("render.svg", save_svg, result.layout, str(svg_path), graph=graph)
    stress = timer.call("metrics.stress", sampled_path_stress, result.layout,
                        graph, samples_per_step=STRESS_SAMPLES_PER_STEP,
                        seed=params.seed)
    t_end = time.perf_counter()
    ref_after = reference_seconds(params.workers)
    timer.restore()
    peak = vm_hwm_bytes("self") + sum(worker_peaks.values())

    # Output checks, untimed.
    coords = np.asarray(result.layout.coords)
    data = lay_path.read_bytes()
    back = read_lay(str(lay_path))
    rewritten = io.BytesIO()
    write_lay(back, rewritten)
    summary = result.summary()
    problems = []
    if coords.shape != (2 * graph.n_nodes, 2):
        problems.append(f"point count {coords.shape[0]} != 2*{graph.n_nodes}")
    if not np.isfinite(coords).all():
        problems.append("non-finite coordinate")
    if rewritten.getvalue() != data or not np.array_equal(back.coords, coords):
        problems.append("read_lay does not round-trip the written bytes")
    if summary["degraded"]:
        problems.append("shm run degraded")

    wall_s = t_end - t0
    run_s = t_run - t_setup
    ref_s = (ref_before + ref_after) / 2
    scale = REFERENCE_S / ref_s
    record = {
        "end_to_end": {
            "wall_s": wall_s * scale,
            "setup_s": (t_setup - t0) * scale,
            "sgd_terms_per_s": summary["total_terms"] / (run_s * scale),
            "output_s": (t_end - t_run) * scale,
            "peak_rss_mb": peak / MIB,
        },
        "wall_s": wall_s,
        "setup_s": t_setup - t0,
        "run_s": run_s,
        "output_s": t_end - t_run,
        "ref_s": ref_s,
        "path_stress": float(stress.value),
        "stress_samples": int(stress.n_samples),
        "lay_sha256": hashlib.sha256(data).hexdigest(),
        "lean_sha256": lean_digest(graph),
        "problems": problems,
        "backend": engine.backend.name,
        "start_method": getattr(engine, "start_method", None),
        "workers": summary["workers"],
        "effective_workers": summary["effective_workers"],
        "nodes": graph.n_nodes,
        "steps": graph.total_steps,
        "terms_per_iteration": params.steps_per_iteration(graph.total_steps),
        "total_terms": summary["total_terms"],
    }
    if trace:
        layers = layer_metrics(timer, wall_s, graph.total_steps,
                               stress.n_samples, summary, result.counters)
        layers["graph.rss_mb"] = ingest_rss / MIB
        record["layers"] = layers
    return record


if __name__ == "__main__":
    if os.environ.get("REPRO_FAULTS"):
        sys.exit("refusing to run with REPRO_FAULTS set")
    print(json.dumps(run(json.loads(sys.argv[1]))))
