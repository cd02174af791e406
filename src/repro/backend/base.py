"""The :class:`ArrayBackend` contract every execution backend implements.

A backend bundles an array-API-style namespace (``backend.xp``) with the
handful of operations the update hot path cannot express portably through
that namespace alone: touched-point compaction, the three write-merge
scatters, row-wise squared norms, and host/device transfers. The generic
implementations here are written against ``self.xp`` only, so a subclass
that merely swaps the namespace inherits working kernels, and a subclass
keeping NumPy arrays overrides just the kernels it accelerates.

``xp`` is where the *coordinate state* lives and the update arithmetic
runs: :class:`~repro.core.updates.UpdateWorkspace` allocates its buffers
from it. Term selection runs on host NumPy, where the PRNG streams produce
their draws; :func:`~repro.core.updates.prepare_block` coerces the selected
terms into ``xp`` (a no-op when ``xp is numpy``).

Determinism contract: on the default NumPy backend every operation here must
be *the exact call sequence* the pre-backend code issued, so layouts — and
therefore the committed smoke baseline — are byte-identical. New backends
are held to the weaker cross-backend contract enforced by the registry
self-test and ``tests/test_conformance.py``: within 1e-9 of the NumPy
reference for every engine × merge policy.
"""
from __future__ import annotations

from typing import Any, Tuple

import numpy as np

__all__ = ["ArrayBackend", "MERGE_POLICIES", "check_kernel"]

#: The write-merge policies every backend must implement in ``merge_scatter``.
MERGE_POLICIES = ("hogwild", "accumulate", "last_writer")


def check_kernel(kernel: str, got, expect, atol: float = 0.0) -> None:
    """Raise ``AssertionError`` naming ``kernel`` unless ``got`` matches ``expect``.

    Both must have one shape. With ``atol`` > 0 every ``|got - expect|``
    must be at most ``atol``. Otherwise they must be equal: for floats that
    means equal bits, with any NaN matching any NaN.

    Self-tests call this instead of ``numpy.testing``, whose import pulls
    ``unittest`` and more into every process that asks for a backend.
    """
    got, expect = np.asarray(got), np.asarray(expect)
    if got.shape != expect.shape:
        raise AssertionError(f"{kernel}: shape {got.shape}, expected {expect.shape}")
    if atol > 0:
        ok = bool(np.all(np.abs(got - expect) <= atol))
    elif got.dtype.kind == "f" and expect.dtype == got.dtype:
        ok = (np.where(np.isnan(got), np.nan, got).tobytes()
              == np.where(np.isnan(expect), np.nan, expect).tobytes())
    else:
        ok = bool(np.array_equal(got, expect))
    if not ok:
        raise AssertionError(f"{kernel}: result differs from the NumPy reference")


class ArrayBackend:
    """Array namespace plus the non-portable kernels of the update hot path.

    Subclasses set :attr:`name` and :attr:`xp`; the generic method bodies
    below only use ``self.xp`` and standard array-API-compatible calls, so a
    NumPy-like namespace gets a complete backend for free.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Array namespace holding coordinate state and workspace buffers.
    xp: Any = None

    # ------------------------------------------------------------- memory
    def empty(self, shape, dtype) -> Any:
        """Uninitialised array in this backend's memory space."""
        return self.xp.empty(shape, dtype=dtype)

    def asarray(self, a, dtype=None) -> Any:
        """Coerce ``a`` into this backend's array type (no copy if possible)."""
        if dtype is None:
            return self.xp.asarray(a)
        return self.xp.asarray(a, dtype=dtype)

    def from_host(self, a: np.ndarray) -> Any:
        """Move a host (NumPy) array into this backend's memory space.

        Host-resident backends return the input array itself so in-place
        updates remain visible to the caller.
        """
        return self.xp.asarray(a)

    def to_host(self, a) -> np.ndarray:
        """Move a backend array back to host memory (identity when host-resident)."""
        return np.asarray(a)

    def synchronize(self) -> None:
        """Block until queued device work is complete (no-op on host backends)."""

    # ---------------------------------------------------------- hot path
    def compact_points(self, points) -> Tuple[Any, Any, Any]:
        """``(unique_points, inverse, counts)`` of a flat point-index array."""
        xp = self.xp
        points = xp.asarray(points)
        unique_points, inverse = xp.unique(points, return_inverse=True)
        counts = xp.bincount(inverse, minlength=unique_points.size)
        return unique_points, inverse, counts

    def rowwise_sqnorm(self, a, out=None) -> Any:
        """Per-row squared L2 norm of an ``(n, 2)`` array."""
        result = self.xp.sum(a * a, axis=1)
        if out is not None:
            out[...] = result
            return out
        return result

    def merge_scatter(self, coords, touched, inverse, counts, all_deltas,
                      merge: str) -> None:
        """Merge per-term deltas into ``coords`` over the compacted point space.

        ``touched``/``inverse``/``counts`` come from :meth:`compact_points`
        over the term endpoints; ``all_deltas`` holds one delta row per
        endpoint occurrence. Mutates ``coords`` in place.
        """
        xp = self.xp
        m = int(touched.size)
        if merge == "accumulate":
            coords[touched, 0] += xp.bincount(inverse, weights=all_deltas[:, 0],
                                              minlength=m)
            coords[touched, 1] += xp.bincount(inverse, weights=all_deltas[:, 1],
                                              minlength=m)
        elif merge == "hogwild":
            coords[touched, 0] += xp.bincount(inverse, weights=all_deltas[:, 0],
                                              minlength=m) / counts
            coords[touched, 1] += xp.bincount(inverse, weights=all_deltas[:, 1],
                                              minlength=m) / counts
        elif merge == "last_writer":
            # Each slot keeps its highest-index occurrence (the store race
            # model). A stable sort keeps a slot's occurrences in input
            # order, so that occurrence ends the slot's run; a repeated-index
            # assignment would leave the choice to unspecified order.
            order = xp.argsort(inverse, kind="stable")
            coords[touched] += all_deltas[order[xp.cumsum(counts) - 1]]
        else:  # pragma: no cover - callers validate before dispatch
            raise ValueError(f"unknown merge policy {merge!r}")

    # ------------------------------------------------------ fused iteration
    def run_iteration(self, plan, coords, uniforms, eta: float,
                      iteration: int):
        """Run one full SGD iteration as a single backend dispatch.

        The one kernel contract of every engine (see
        :mod:`repro.core.fused`): given the run's
        :class:`~repro.core.fused.FusedIterationPlan`, the coordinate state
        (in this backend's memory space), the iteration's pre-drawn
        ``(calls, n_streams)`` uniform megablock and the learning rate,
        perform selection + displacement + write merge for every planned
        batch segment *inside this one call* and return
        :class:`~repro.core.fused.FusedIterationStats`.

        Semantics every implementation must preserve:

        * **segments stay sequential** — each term reads coordinates as of
          its segment's start and the per-segment merge is the backend's
          ordinary ``merge_scatter`` semantics, so every backend agrees
          with the per-batch reference (bit-for-bit on NumPy, ≤1e-9
          elsewhere; enforced by the conformance matrix);
        * **stream order** — the megablock is consumed segment after
          segment in plan order, each segment as the plan's
          :class:`~repro.core.selection.DrawRecipe` lays it out
          (vector-major / call-minor), i.e. exactly the historical
          per-batch draw order;
        * **history** — a ``probe`` plan reports the first segment's
          stress, sampled right after that segment's merge.

        Under ``LayoutParams.memory_budget`` the engine calls this once per
        budget-sized *chunk* of the iteration's batch plan instead of once
        per iteration (:func:`~repro.core.fused.build_iteration_plans`);
        the two invariants above already make chunked execution
        byte-identical. Implementations must size transients to *this
        plan's* terms, never to the whole iteration (enforced by the MEM001
        contract check).

        The generic implementation selects on the host and merges through
        this backend's own namespace and kernels; a backend with a
        compiled iteration kernel overrides it for the plans that kernel
        covers and hands the rest back to it.
        """
        from ..core.fused import run_iteration_host  # runtime import: the
        # module dependency points core -> backend, never the reverse.

        return run_iteration_host(self, plan, coords, uniforms, eta, iteration)

    # ----------------------------------------------------------- checking
    def self_test(self) -> None:
        """Cheap registration-time conformance check against NumPy reference.

        Runs each hot-path kernel on a small fixed input and compares with a
        plain NumPy computation. A backend whose toolchain is present but
        broken (driver mismatch, JIT failure, …) fails here and is reported
        unavailable instead of corrupting layouts at run time.
        """
        rng = np.random.default_rng(20240)  # det-ok: fixed-literal conformance-test seed, not a layout stream
        points = np.array([4, 1, 4, 7, 1, 4, 0, 7], dtype=np.int64)
        deltas = rng.normal(size=(points.size, 2))
        coords0 = rng.normal(size=(9, 2))

        touched, inverse, counts = self.compact_points(self.asarray(points))
        check_kernel("compact_points", self.to_host(touched), np.array([0, 1, 4, 7]))
        check_kernel("compact_points", self.to_host(counts), np.array([1, 2, 3, 2]))
        check_kernel("compact_points", self.to_host(touched)[self.to_host(inverse)],
                     points)

        for merge in MERGE_POLICIES:
            expect = coords0.copy()
            if merge == "accumulate":
                np.add.at(expect, points, deltas)
            elif merge == "hogwild":
                summed = np.zeros_like(expect)
                cnt = np.zeros(expect.shape[0])
                np.add.at(summed, points, deltas)
                np.add.at(cnt, points, 1.0)
                mask = cnt > 0
                expect[mask] += summed[mask] / cnt[mask, None]
            else:  # last writer: final occurrence per point wins
                seen = {}
                for k, p in enumerate(points):
                    seen[int(p)] = k
                for p, k in seen.items():
                    expect[p] += deltas[k]
            got = self.from_host(coords0.copy())
            self.merge_scatter(got, touched, inverse, counts,
                               self.asarray(deltas), merge)
            check_kernel(f"merge_scatter({merge})", self.to_host(got), expect,
                         atol=1e-12)

        sq = self.rowwise_sqnorm(self.asarray(deltas))
        check_kernel("rowwise_sqnorm", self.to_host(sq), (deltas * deltas).sum(axis=1),
                     atol=1e-12)
        self.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend {self.name}>"
