"""Optional CuPy backend: coordinate state and merges on a CUDA device.

``xp`` is the ``cupy`` namespace, so the workspace buffers, the gathered
coordinates and the merge staging arrays live in device memory; the generic
:class:`~repro.backend.base.ArrayBackend` arithmetic runs as CUDA kernels.
Selection stays on the host (``host_xp`` is NumPy — the multi-stream PRNGs
produce host arrays), and each block's index/distance inputs are uploaded by
the ``asarray`` calls inside ``prepare_block``; ``to_host`` downloads the
final coordinates once per run.

Deviations from the generic base:

* ``last_writer`` cannot use boolean/fancy scatter-assignment — CuPy leaves
  the surviving value undefined under duplicate indices — so the "last
  occurrence wins" rule is recovered with ``cupyx.scatter_max`` over the
  occurrence indices, which is deterministic.
* ``synchronize`` blocks on the current stream so wall-clock timings (the
  perf smoke cases) measure completed work, not launch overhead.
* Stock-recipe iterations run with **device-resident selection**
  (``fused_device_selection``): the selection arrays are uploaded once per
  run, each chunk uploads its uniform megablock in one transfer, and
  selection + displacement + merge all execute in the ``cupy`` namespace —
  no per-batch host→device round trip. The GPU model's and the fixed hop's
  recipes select on the host and upload each block's inputs. Selected
  indices are exact integer arithmetic; the Zipf inverse-CDF uses device
  ``pow``/``exp``, so cross-checks against the host reference are held to
  the conformance matrix's 1e-9, not bit-identity. Note the caveat: a
  device-libm ulp landing on the other side of a ``floor`` boundary would
  flip a *selected pair* (a discrete change, not a rounding one), so the
  conformance matrix must be run on real CUDA hardware before trusting
  device selection on a new driver/toolkit — host selection via
  ``fused_device_selection = False`` is the fallback if it ever trips.
* ``LayoutParams.memory_budget`` bounds *device* transients the same way it
  bounds host ones: the engine dispatches budget-sized chunk plans, each
  chunk's megablock upload and device selection block are sized to the
  chunk (the draws buffer is cached under ``draws/cupy`` in the scratch all
  chunk plans share, and the device selection arrays are uploaded once per
  run, not per chunk), so VRAM peak no longer scales with terms/iteration.

Importing this module raises :class:`ImportError` when cupy is missing, and
the registration self-test exercises a real device allocation — a machine
with cupy installed but no usable GPU is reported unavailable instead of
failing mid-run.
"""
from __future__ import annotations

import cupy  # the ImportError from a missing cupy is the availability probe
import cupyx
import numpy as np

from .base import ArrayBackend

__all__ = ["CupyBackend"]


class CupyBackend(ArrayBackend):
    """Device-resident backend over CuPy (requires a CUDA device)."""

    name = "cupy"
    xp = cupy
    host_xp = np
    # One megablock upload per iteration + device-side selection instead of
    # per-batch uploads (see repro.core.fused.run_iteration_host).
    fused_device_selection = True

    def __init__(self) -> None:  # pragma: no cover - requires CUDA hardware
        if cupy.cuda.runtime.getDeviceCount() < 1:
            raise RuntimeError("cupy is importable but no CUDA device is visible")

    def from_host(self, a: np.ndarray):  # pragma: no cover - requires CUDA hardware
        return cupy.asarray(a)

    def to_host(self, a) -> np.ndarray:  # pragma: no cover - requires CUDA hardware
        return cupy.asnumpy(a)

    def synchronize(self) -> None:  # pragma: no cover - requires CUDA hardware
        cupy.cuda.get_current_stream().synchronize()

    def merge_scatter(self, coords, touched, inverse, counts, all_deltas,
                      merge: str) -> None:  # pragma: no cover - requires CUDA hardware
        if merge == "last_writer":
            m = int(touched.size)
            last = cupy.full(m, -1, dtype=cupy.int64)
            cupyx.scatter_max(last, inverse, cupy.arange(inverse.shape[0],
                                                         dtype=cupy.int64))
            coords[touched] += all_deltas[last]
            return
        super().merge_scatter(coords, touched, inverse, counts, all_deltas, merge)
