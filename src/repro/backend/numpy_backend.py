"""The execution backend: the layout hot path's kernels over NumPy.

Every engine, shm worker and bench case runs on the one instance,
:data:`NUMPY_BACKEND`. Its kernels are the historical hot path: every
method performs the same floating-point operations, in the same order, as
the pre-backend code, so layouts are byte-identical to the seed
implementation and the committed smoke baseline does not move.

``run_iteration`` is one fused iteration chunk
(:func:`repro.core.fused.run_iteration_host`): one vectorised selection
pass (every selection op is elementwise, so per-term values cannot change)
followed by the block merge, which hoists only coordinate-free work out of
the segment loop and keeps each segment's displacement and merge
expressions, so every engine's layouts are byte-identical to the
historical per-batch loop (``tests/per_batch_reference.py``). A block's
segment loop runs as one compiled call when :mod:`repro.backend.cext`
loads, with the same expressions in the same order; ``merge_scatter`` and
``rowwise_sqnorm`` then serve the NumPy fallback, and the compiled
kernels' self-test runs against them. The ``last_writer`` merge picks each
point's surviving contribution with ``np.maximum.at`` (order-free) instead
of a repeated-index assignment, whose order NumPy leaves unspecified; the
survivor is the same highest-index contribution. The same argument covers
the chunked fused path (``LayoutParams.memory_budget``): chunk boundaries
are segment boundaries and the bulk PRNG draw is interchangeable
mid-stream, so budgeted layouts are byte-identical to unbudgeted ones for
every budget, the anchor the chunk-boundary property tests pin.

The kernels are methods called through the instance, so a wrapper set on
the class attribute (perfbench's layer spans, the tests' call counters)
sees every call of the run.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["NUMPY_BACKEND", "NumpyBackend"]


class NumpyBackend:
    """The layout hot path's kernels over host NumPy arrays."""

    name = "numpy"

    def compact_points(self, points) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(unique_points, inverse, counts)`` of a flat point-index array,
        from one sort-based pass."""
        points = np.asarray(points)
        unique_points, inverse = np.unique(points, return_inverse=True)
        counts = np.bincount(inverse, minlength=unique_points.size)
        return unique_points, inverse, counts

    def rowwise_sqnorm(self, a, out=None) -> np.ndarray:
        """Per-row squared L2 norm of an ``(n, 2)`` array."""
        # einsum with ``out=`` is both the fastest NumPy spelling and the
        # historical one; ``(a*a).sum(axis=1)`` is numerically identical
        # (two-term sums) but allocates a temporary.
        return np.einsum("ij,ij->i", a, a, out=out)

    def merge_scatter(self, coords, touched, inverse, counts, all_deltas,
                      merge: str) -> None:
        """Merge per-term deltas into ``coords`` over the compacted point space.

        ``touched``/``inverse``/``counts`` come from :meth:`compact_points`
        over the term endpoints; ``all_deltas`` holds one delta row per
        endpoint occurrence. Mutates ``coords`` in place.
        """
        # Per-column views: 1-D fancy indexing on a strided column is
        # markedly cheaper than mixed ``coords[touched, 0]`` indexing, and
        # ``touched`` is unique, so the values written are the same.
        if merge == "accumulate":
            x, y = coords[:, 0], coords[:, 1]
            x[touched] += np.bincount(inverse, weights=all_deltas[:, 0])
            y[touched] += np.bincount(inverse, weights=all_deltas[:, 1])
        elif merge == "hogwild":
            x, y = coords[:, 0], coords[:, 1]
            x[touched] += np.bincount(inverse, weights=all_deltas[:, 0]) / counts
            y[touched] += np.bincount(inverse, weights=all_deltas[:, 1]) / counts
        elif merge == "last_writer":
            # Each slot keeps its highest-index occurrence. ``maximum.at``
            # is unbuffered and order-free; every slot occurs at least
            # once, so the zero start never wins over a real index.
            last = np.zeros(touched.size, dtype=np.int64)
            np.maximum.at(last, inverse, np.arange(all_deltas.shape[0]))
            coords[touched] += np.take(all_deltas, last, axis=0)
        else:  # pragma: no cover - callers validate before dispatch
            raise ValueError(f"unknown merge policy {merge!r}")

    def run_iteration(self, plan, coords, uniforms, eta: float,
                      iteration: int):
        """Run one fused iteration chunk: selection, displacement and merge
        for every segment of ``plan`` over the pre-drawn ``uniforms``
        megablock (see :func:`repro.core.fused.run_iteration_host`)."""
        from ..core.fused import run_iteration_host  # runtime import: the
        # module dependency points core -> backend, never the reverse.

        return run_iteration_host(plan, coords, uniforms, eta, iteration)


#: The one backend instance every engine, worker and kernel caller uses.
NUMPY_BACKEND = NumpyBackend()
