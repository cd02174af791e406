"""Optional Numba backend: JIT-compiled kernels on host arrays.

Coordinate state stays in NumPy (``xp is numpy``), so selection, displacement
arithmetic and the workspace are shared with the reference backend verbatim;
what Numba replaces is compiled code for the two hottest dispatch points:

* the **merge scatter** — the one per-batch stage whose NumPy spelling needs
  two ``bincount`` passes plus fancy-indexed read-modify-write; the fused
  ``@njit`` loops below make a single pass over the batch and a single pass
  over the touched points, mirroring how the paper's CUDA kernel merges
  per-thread displacements without staging arrays (Sec. V-B);
* the **fused iteration** — ``run_iteration`` compiles the *entire* SGD
  iteration (selection, displacement, sequential per-segment merges) into
  one ``@njit`` loop over the pre-drawn uniform megablock: the host-side
  analogue of the paper's one-kernel-launch-per-iteration design (Sec. V-A).
  The kernel mirrors the NumPy selection/update math operation for
  operation (same IEEE double ops, same accumulation order), so it is held
  to the conformance matrix's 1e-9 against the NumPy reference. It covers
  stock-recipe plans without a history probe; the GPU model's and the
  fixed hop's recipes and probing plans run the generic path, with this
  backend's merge kernel.

Importing this module raises :class:`ImportError` when numba is not
installed; the registry treats that (and any JIT failure surfaced by the
registration self-test) as "backend unavailable" and skips it cleanly.
"""
from __future__ import annotations

import numba  # the ImportError from a missing numba is the availability probe
import numpy as np

from .numpy_backend import NumpyBackend

__all__ = ["NumbaBackend"]

_MODES = {"accumulate": 0, "hogwild": 1, "last_writer": 2}


@numba.njit(cache=False)
def _merge_kernel(coords, touched, inverse, counts, all_deltas, mode):  # pragma: no cover - numba-compiled
    """Fused compacted-space merge: one pass over terms, one over touched points."""
    m = touched.shape[0]
    if mode == 2:  # last writer: final occurrence per compacted slot wins
        last = np.empty(m, dtype=np.int64)
        for k in range(inverse.shape[0]):
            last[inverse[k]] = k
        for s in range(m):
            p = touched[s]
            coords[p, 0] += all_deltas[last[s], 0]
            coords[p, 1] += all_deltas[last[s], 1]
        return
    acc = np.zeros((m, 2), dtype=np.float64)
    for k in range(inverse.shape[0]):
        s = inverse[k]
        acc[s, 0] += all_deltas[k, 0]
        acc[s, 1] += all_deltas[k, 1]
    if mode == 1:  # hogwild: average colliding displacements per point
        for s in range(m):
            p = touched[s]
            c = counts[s]
            coords[p, 0] += acc[s, 0] / c
            coords[p, 1] += acc[s, 1] / c
    else:  # accumulate: gradient sum
        for s in range(m):
            p = touched[s]
            coords[p, 0] += acc[s, 0]
            coords[p, 1] += acc[s, 1]


@numba.njit(cache=False)
def _fused_iteration_kernel(coords, uniforms, plan, need_calls, n_streams,
                            cum_steps, path_offsets, path_counts,
                            step_nodes, step_positions, zipf_theta,
                            zipf_space_max, always_cooling, eta,
                            mode, min_distance):  # pragma: no cover - numba-compiled
    """One whole SGD iteration as a single compiled loop.

    Per planned segment: select every term from its slice of the pre-drawn
    uniform megablock (path inverse-CDF, cooling branch, uniform/Zipf pair,
    endpoint flips — the NumPy sampler's math op for op), compute the stress
    displacement against the segment-start coordinates, then merge the
    segment's writes over the compacted touched-point space in the same
    k-ascending accumulation order the bincount-based merges use. Segments
    are strictly sequential, so staleness semantics match the NumPy path.

    Returns ``(n_terms, n_point_collisions)``.
    """
    n_seg = plan.shape[0]
    b_max = 0
    for s in range(n_seg):
        if plan[s] > b_max:
            b_max = plan[s]
    # Per-call scratch, sized once to the largest segment (O(batch), never
    # O(graph) — the PR 2 cost discipline).
    pts = np.empty(2 * b_max, np.int64)
    deltas = np.empty((2 * b_max, 2), np.float64)
    inverse = np.empty(2 * b_max, np.int64)
    slot_point = np.empty(2 * b_max, np.int64)
    slot_count = np.empty(2 * b_max, np.int64)
    acc = np.empty((2 * b_max, 2), np.float64)
    last = np.empty(2 * b_max, np.int64)

    total = cum_steps[cum_steps.shape[0] - 1]
    one_minus_theta = 1.0 - zipf_theta
    theta_is_one = abs(one_minus_theta) < 1e-9
    if theta_is_one:
        log_space = np.log(zipf_space_max + 1.0)
        h_max = 0.0
        inv_omt = 0.0
    else:
        log_space = 0.0
        h_max = ((zipf_space_max + 1.0) ** one_minus_theta - 1.0) / one_minus_theta
        inv_omt = 1.0 / one_minus_theta

    n_terms = 0
    n_collisions = 0
    row = 0
    for s in range(n_seg):
        b = plan[s]
        need = need_calls[s]
        for t in range(b):
            call = t // n_streams
            stream = t - call * n_streams
            u0 = uniforms[row + 0 * need + call, stream]
            u1 = uniforms[row + 1 * need + call, stream]
            u2 = uniforms[row + 2 * need + call, stream]
            u3 = uniforms[row + 3 * need + call, stream]
            u4 = uniforms[row + 4 * need + call, stream]
            u5 = uniforms[row + 5 * need + call, stream]
            u6 = uniforms[row + 6 * need + call, stream]
            u7 = uniforms[row + 7 * need + call, stream]
            # Alg. 1 line 5: inverse-CDF path selection over step counts.
            target = np.int64(u0 * total)
            if target > total - 1:
                target = total - 1
            p = np.searchsorted(cum_steps, target, side="right") - 1
            start = path_offsets[p]
            cnt = path_counts[p]
            cooling = always_cooling or (u1 < 0.5)
            li = np.int64(u2 * cnt)
            if li > cnt - 1:
                li = cnt - 1
            if cooling:
                # Truncated-Zipf hop via inverse CDF (zipf_hop_distances).
                uu = u4
                if uu < 0.0:
                    uu = 0.0
                if uu > 1.0 - 1e-12:
                    uu = 1.0 - 1e-12
                if zipf_space_max == 1:
                    hop = np.int64(1)
                elif theta_is_one:
                    hop = np.int64(np.floor(np.exp(uu * log_space)))
                else:
                    h = uu * h_max
                    hop = np.int64(np.floor(
                        (h * one_minus_theta + 1.0) ** inv_omt))
                if hop < 1:
                    hop = np.int64(1)
                if hop > zipf_space_max:
                    hop = zipf_space_max
                hop_cap = cnt - 1
                if hop_cap < 1:
                    hop_cap = np.int64(1)
                if hop > hop_cap:
                    hop = hop_cap
                if u5 < 0.5:
                    lj = li - hop
                else:
                    lj = li + hop
                # Reflect out-of-range hops back into the path, then clamp.
                if lj < 0:
                    lj = li + hop
                if lj >= cnt:
                    lj = li - hop
                hi = cnt - 1
                if hi < 0:
                    hi = np.int64(0)
                if lj < 0:
                    lj = np.int64(0)
                if lj > hi:
                    lj = hi
            else:
                lj = np.int64(u3 * cnt)
                if lj > cnt - 1:
                    lj = cnt - 1
            if lj == li and cnt > 1:
                lj = (li + 1) % cnt
            fi = start + li
            fj = start + lj
            vi = np.int64(1) if u6 < 0.5 else np.int64(0)
            vj = np.int64(1) if u7 < 0.5 else np.int64(0)
            dpos = step_positions[fi] - step_positions[fj]
            if dpos < 0:
                dpos = -dpos
            d_ref = np.float64(dpos)
            pi = 2 * step_nodes[fi] + vi
            pj = 2 * step_nodes[fj] + vj
            # Lines 14-15: μ-capped stress gradient on both endpoints,
            # reading the segment-start coordinates (writes happen below).
            dx = coords[pi, 0] - coords[pj, 0]
            dy = coords[pi, 1] - coords[pj, 1]
            mag = np.sqrt(dx * dx + dy * dy)
            mag_safe = mag if mag > min_distance else min_distance
            if d_ref > 0.0:
                mu = eta / (d_ref * d_ref)
                if mu > 1.0:
                    mu = 1.0
                ds = mu * (mag - d_ref) / 2.0
            else:
                ds = 0.0
            if mag < min_distance:
                ux = 1.0  # coincident points: nudge along x
                uy = 0.0
            else:
                ux = dx / mag_safe
                uy = dy / mag_safe
            ddx = ux * ds
            ddy = uy * ds
            pts[t] = pi
            deltas[t, 0] = -ddx
            deltas[t, 1] = -ddy
            pts[b + t] = pj
            deltas[b + t, 0] = ddx
            deltas[b + t, 1] = ddy
        # Segment merge over the compacted touched-point space. argsort +
        # sorted walk reproduces unique/inverse/counts; the accumulation
        # itself runs in ascending k, the bincount order, so sums are
        # bit-compatible with the reference merge.
        m2 = 2 * b
        order = np.argsort(pts[:m2])
        n_slots = 0
        prev = np.int64(-1)
        for r in range(m2):
            k = order[r]
            v = pts[k]
            if r == 0 or v != prev:
                slot_point[n_slots] = v
                slot_count[n_slots] = 0
                n_slots += 1
                prev = v
            inverse[k] = n_slots - 1
            slot_count[n_slots - 1] += 1
        n_collisions += m2 - n_slots
        if mode == 2:  # last writer: final occurrence per point wins
            for k in range(m2):
                last[inverse[k]] = k
            for sl in range(n_slots):
                kk = last[sl]
                pp = slot_point[sl]
                coords[pp, 0] += deltas[kk, 0]
                coords[pp, 1] += deltas[kk, 1]
        else:
            for sl in range(n_slots):
                acc[sl, 0] = 0.0
                acc[sl, 1] = 0.0
            for k in range(m2):
                sl = inverse[k]
                acc[sl, 0] += deltas[k, 0]
                acc[sl, 1] += deltas[k, 1]
            if mode == 1:  # hogwild: average colliding displacements
                for sl in range(n_slots):
                    pp = slot_point[sl]
                    c = np.float64(slot_count[sl])
                    coords[pp, 0] += acc[sl, 0] / c
                    coords[pp, 1] += acc[sl, 1] / c
            else:  # accumulate: gradient sum
                for sl in range(n_slots):
                    pp = slot_point[sl]
                    coords[pp, 0] += acc[sl, 0]
                    coords[pp, 1] += acc[sl, 1]
        n_terms += b
        row += 8 * need
    return n_terms, n_collisions


class NumbaBackend(NumpyBackend):
    """Host backend with JIT-fused kernels (requires ``numba``).

    Subclasses the reference backend: transfers, compaction and norms are
    *inherited*, not copied, so the two host backends cannot drift apart in
    anything but the compiled kernels replaced below.
    """

    name = "numba"

    def merge_scatter(self, coords, touched, inverse, counts, all_deltas,
                      merge: str) -> None:
        try:
            mode = _MODES[merge]
        except KeyError:  # pragma: no cover - callers validate before dispatch
            raise ValueError(f"unknown merge policy {merge!r}") from None
        _merge_kernel(
            coords,
            np.ascontiguousarray(touched, dtype=np.int64),
            np.ascontiguousarray(inverse, dtype=np.int64),
            np.ascontiguousarray(counts, dtype=np.float64),
            np.ascontiguousarray(all_deltas, dtype=np.float64),
            mode,
        )

    def run_iteration(self, plan, coords, uniforms, eta: float,
                      iteration: int):
        """The whole plan in one ``@njit`` call — selection included.

        This is the host analogue of the paper's one-kernel-per-iteration
        design: a single compiled dispatch consumes the pre-drawn uniform
        megablock and performs selection + displacement + sequential segment
        merges without returning to the interpreter. Under a memory budget
        the engine passes budget-sized chunk plans instead of the whole
        iteration; nothing here changes, because the kernel arguments are
        cached split by dependence — the chunk-shaped pair (this plan's
        segment array and call counts) per plan, the graph-sized contiguous
        copies once per run in the chunk-shared scratch — and the kernel's
        own scratch is sized to the plan's largest segment, not its term
        total.

        Only stock-recipe plans without a history probe run here; every
        other plan goes to the generic
        :func:`~repro.core.fused.run_iteration_host`.
        """
        if plan.probe or not plan.recipe.stock:
            return super().run_iteration(plan, coords, uniforms, eta, iteration)
        # Runtime imports keep the module dependency pointing core -> backend;
        # _MIN_DISTANCE is threaded into the kernel so the coincident-point
        # threshold has a single source of truth with the reference path.
        from ..core.fused import FusedIterationStats
        from ..core.updates import _MIN_DISTANCE

        static = plan.scratch.get("numba/static")
        if static is None:
            arrays = plan.sampler.arrays
            params = plan.sampler.params
            static = (
                np.int64(plan.n_streams),
                np.ascontiguousarray(arrays.cum_steps.astype(np.int64)),
                np.ascontiguousarray(arrays.path_offsets.astype(np.int64)),
                np.ascontiguousarray(arrays.path_counts.astype(np.int64)),
                np.ascontiguousarray(arrays.step_nodes.astype(np.int64)),
                np.ascontiguousarray(arrays.step_positions.astype(np.int64)),
                np.float64(params.zipf_theta),
                np.int64(params.zipf_space_max),
            )
            plan.scratch["numba/static"] = static
        args = plan.cache.get("numba/args")
        if args is None:
            args = (
                np.ascontiguousarray(np.asarray(plan.plan, dtype=np.int64)),
                np.ascontiguousarray(plan.need_calls.astype(np.int64)),
            )
            plan.cache["numba/args"] = args
        plan_arr, need_calls = args
        (n_streams, cum_steps, path_offsets, path_counts, step_nodes,
         step_positions, zipf_theta, zipf_space_max) = static
        always = iteration >= plan.sampler.params.first_cooling_iteration()
        n_terms, n_collisions = _fused_iteration_kernel(
            coords, uniforms, plan_arr, need_calls, n_streams, cum_steps,
            path_offsets, path_counts, step_nodes, step_positions,
            zipf_theta, zipf_space_max, always, np.float64(eta),
            np.int64(_MODES[plan.merge]), np.float64(_MIN_DISTANCE),
        )
        return FusedIterationStats(n_terms=int(n_terms),
                                   n_point_collisions=int(n_collisions))
