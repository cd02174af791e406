"""The always-available NumPy reference backend.

This backend *is* the historical implementation: every override below
performs the same floating-point operations, in the same order, as the
pre-backend hot path, so layouts on the default backend are byte-identical
to the seed implementation and the committed smoke baseline does not move.
Other backends are validated against this one (registry self-test +
``tests/test_conformance.py``).

The fused iteration path (``run_iteration``, inherited from the generic
base) is held to the same bar: one vectorised selection pass (every
selection op is elementwise, so per-term values cannot change) followed by
the shared block merge, which hoists only coordinate-free work out of the
segment loop and keeps each segment's displacement and merge expressions —
making every engine's layouts byte-identical to the historical per-batch
loop on this backend (``tests/per_batch_reference.py``). On this backend
the block's segment loop runs as one compiled call when
:mod:`repro.backend.cext` loads, with the same expressions in the same
order; ``merge_scatter`` and ``rowwise_sqnorm`` then serve the NumPy
fallback, and the compiled kernels' self-test runs against them. The
``last_writer`` merge picks each point's surviving contribution with
``np.maximum.at`` (order-free) instead of a repeated-index assignment,
whose order NumPy leaves unspecified; the survivor is the same highest-index
contribution. The same argument covers
the chunked fused path (``LayoutParams.memory_budget``): chunk boundaries
are segment boundaries and the bulk PRNG draw is interchangeable
mid-stream, so budgeted layouts are byte-identical to unbudgeted ones here
for every budget — the anchor the chunk-boundary property tests pin.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host-resident reference backend over plain NumPy."""

    name = "numpy"
    xp = np

    # Transfers are identities: coordinate state already lives on the host,
    # and returning the input array keeps in-place updates visible.
    def from_host(self, a: np.ndarray) -> np.ndarray:
        return a

    def to_host(self, a: np.ndarray) -> np.ndarray:
        return a

    def compact_points(self, points) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # One sort-based pass; identical to the historical compact_points.
        points = np.asarray(points)
        unique_points, inverse = np.unique(points, return_inverse=True)
        counts = np.bincount(inverse, minlength=unique_points.size)
        return unique_points, inverse, counts

    def rowwise_sqnorm(self, a, out=None) -> np.ndarray:
        # einsum with ``out=`` is both the fastest NumPy spelling and the
        # historical one; the generic ``(a*a).sum(axis=1)`` is numerically
        # identical (two-term sums) but allocates a temporary.
        return np.einsum("ij,ij->i", a, a, out=out)

    def merge_scatter(self, coords, touched, inverse, counts, all_deltas,
                      merge: str) -> None:
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
