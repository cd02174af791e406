/* Exact compiled kernels, built and loaded by repro/backend/cext.py.
 *
 * Each kernel evaluates the same IEEE 754 operations, in the same order,
 * as the NumPy code it stands in for. Every one of those operations is
 * correctly rounded, so the results are bit-identical. That holds only
 * without contraction and without value-changing optimisations: build with
 * -ffp-contract=off and never with -ffast-math, because a contracted
 * a*b + c rounds once where NumPy rounds twice.
 *
 * pair_stress_terms  repro.metrics.stress.numpy_pair_stress_terms
 * merge_block        repro.core.updates.merge_segments
 * double_block       repro.prng.xoshiro.numpy_double_block
 */
#include <math.h>
#include <stdint.h>

/* Normalised stress of step pairs: repro.metrics.stress.pair_stress_terms.
 *
 * flat holds the layout's (2 * n_nodes, 2) coordinates row-major, so
 * endpoint e of node v has its X at 4v + 2e and its Y at 4v + 2e + 1.
 * For each pair k, out[k] is the mean over the endpoint combinations
 * (0,0), (0,1), (1,0), (1,1) of ((|v_i - v_j| - d_ref) / d_ref)^2,
 * accumulated from 0.0 in that order, or 0.0 where d_ref <= 0.
 *
 * Returns 0, or 1 as soon as a step index or node id is out of range;
 * the caller then evaluates the call in NumPy, which raises or wraps
 * exactly as before.
 */
int pair_stress_terms(const double *flat, int64_t n_flat,
                      const int64_t *step_nodes, const int64_t *step_positions,
                      int64_t n_steps, const int64_t *flat_i,
                      const int64_t *flat_j, int64_t n, double *out)
{
    const int64_t n_nodes = n_flat / 4;
    for (int64_t k = 0; k < n; k++) {
        const int64_t si = flat_i[k], sj = flat_j[k];
        if (si < 0 || si >= n_steps || sj < 0 || sj >= n_steps)
            return 1;
        const int64_t vi = step_nodes[si], vj = step_nodes[sj];
        if (vi < 0 || vi >= n_nodes || vj < 0 || vj >= n_nodes)
            return 1;
        /* NumPy's int64 subtraction and abs wrap; unsigned arithmetic
         * wraps the same way without undefined behaviour. */
        uint64_t gap = (uint64_t)step_positions[si] - (uint64_t)step_positions[sj];
        if ((int64_t)gap < 0)
            gap = 0 - gap;
        const double d_ref = (double)(int64_t)gap;
        if (!(d_ref > 0.0)) {
            out[k] = 0.0;
            continue;
        }
        const double *pi = flat + 4 * vi, *pj = flat + 4 * vj;
        double total = 0.0;
        for (int ei = 0; ei < 2; ei++) {
            const double xi = pi[2 * ei], yi = pi[2 * ei + 1];
            for (int ej = 0; ej < 2; ej++) {
                const double dx = xi - pj[2 * ej];
                const double dy = yi - pj[2 * ej + 1];
                const double rel = (sqrt(dx * dx + dy * dy) - d_ref) / d_ref;
                total += rel * rel;
            }
        }
        out[k] = total / 4.0;
    }
    return 0;
}

/* Merge policies, numbered as CompiledKernels.merge_block passes them. */
enum { HOGWILD = 0, ACCUMULATE = 1, LAST_WRITER = 2 };

/* Points closer than this count as coincident (repro.core.updates). */
#define MIN_DISTANCE 1e-9

/* One merge block: repro.core.updates.merge_segments.
 *
 * coords is the (n_points, 2) layout, row-major. The block has `segments`
 * segments of `size` terms. Row s of points and inverse (2 * size entries
 * each) holds segment s's endpoints, the i endpoints of its terms and then
 * the j endpoints, and each endpoint's slot in the segment's run of
 * touched and counts; the runs follow each other, segment after segment.
 * valid, d_safe and mu hold one entry per term, segment after segment.
 * delta (2 * size doubles) and sums (4 * size doubles) are scratch.
 *
 * Segments run in order. Each first computes every term's displacement
 * from the coordinates as of its start, then sums the endpoints' deltas
 * per slot in entry order from 0.0, as np.bincount does, or keeps the last
 * one (last_writer), and adds the result to each touched point.
 *
 * Returns 0, or 1 before writing anything when the block is not a
 * compaction of in-range points; the caller then merges it in NumPy.
 */
int merge_block(double *coords, int64_t n_points, const int64_t *points,
                const unsigned char *valid, const double *d_safe,
                const double *mu, const int64_t *touched,
                const int64_t *inverse, const int64_t *counts,
                int64_t n_touched, int64_t segments, int64_t size,
                int policy, double *delta, double *sums)
{
    const int64_t width = 2 * size;
    if (policy < HOGWILD || policy > LAST_WRITER)
        return 1;
    /* Each segment's slots are 0 .. its largest inverse entry, each named
     * by an endpoint, and its run of touched is increasing (unique) and in
     * range and holds each endpoint's point. */
    int64_t lo = 0;
    for (int64_t s = 0; s < segments; s++) {
        const int64_t *pts = points + s * width, *inv = inverse + s * width;
        int64_t slots = 0;
        for (int64_t e = 0; e < width; e++) {
            if (inv[e] < 0 || inv[e] >= width)
                return 1;
            if (inv[e] >= slots)
                slots = inv[e] + 1;
        }
        if (slots > n_touched - lo)
            return 1;
        for (int64_t t = 0; t < slots; t++)
            sums[t] = 0.0;
        for (int64_t e = 0; e < width; e++)
            sums[inv[e]] = 1.0;
        for (int64_t t = lo; t < lo + slots; t++)
            if (sums[t - lo] == 0.0 || touched[t] < 0 || touched[t] >= n_points
                || (t > lo && touched[t] <= touched[t - 1]))
                return 1;
        for (int64_t e = 0; e < width; e++)
            if (touched[lo + inv[e]] != pts[e])
                return 1;
        lo += slots;
    }
    if (lo != n_touched)
        return 1;

    lo = 0;
    for (int64_t s = 0; s < segments; s++) {
        const int64_t *pts = points + s * width, *inv = inverse + s * width;
        const int64_t term = s * size;
        for (int64_t k = 0; k < size; k++) {
            const double *ci = coords + 2 * pts[k];
            const double *cj = coords + 2 * pts[size + k];
            const double dx = ci[0] - cj[0], dy = ci[1] - cj[1];
            const double mag = sqrt(dx * dx + dy * dy);
            const double scale = valid[term + k]
                ? mu[term + k] * (mag - d_safe[term + k]) / 2.0 : 0.0;
            /* Coincident points move along x; NaN is not coincident. */
            const double ux = mag < MIN_DISTANCE ? 1.0 : dx / mag;
            const double uy = mag < MIN_DISTANCE ? 0.0 : dy / mag;
            delta[2 * k] = ux * scale;
            delta[2 * k + 1] = uy * scale;
        }
        int64_t slots = 0;
        for (int64_t e = 0; e < width; e++)
            if (inv[e] >= slots)
                slots = inv[e] + 1;
        for (int64_t t = 0; t < 2 * slots; t++)
            sums[t] = 0.0;
        /* Entry e < size is term e's i endpoint, which moves by -delta. */
        for (int64_t e = 0; e < width; e++) {
            const double *d = delta + 2 * (e < size ? e : e - size);
            const double wx = e < size ? -d[0] : d[0];
            const double wy = e < size ? -d[1] : d[1];
            double *sum = sums + 2 * inv[e];
            if (policy == LAST_WRITER) {
                sum[0] = wx;
                sum[1] = wy;
            } else {
                sum[0] += wx;
                sum[1] += wy;
            }
        }
        for (int64_t t = 0; t < slots; t++) {
            double *c = coords + 2 * touched[lo + t];
            if (policy == HOGWILD) {
                const double n = (double)counts[lo + t];
                c[0] += sums[2 * t] / n;
                c[1] += sums[2 * t + 1] / n;
            } else {
                c[0] += sums[2 * t];
                c[1] += sums[2 * t + 1];
            }
        }
        lo += slots;
    }
    return 0;
}

/* Xoshiro256+ block draw: repro.prng.xoshiro.numpy_double_block.
 *
 * state holds n_streams rows of 4 words and advances n_calls calls in
 * place. Row c of out (n_streams doubles) is call c: (s0 + s3) >> 11,
 * converted exactly (it is below 2^53, so the signed conversion serves)
 * and scaled by 2^-53, which is exact too. Calls run in tiles of about
 * DRAW_TILE doubles of out (one row at least), a stream at a time, so each
 * stream's words stay in registers while its column of the tile fills.
 */
#define DRAW_TILE 2048

void double_block(uint64_t *state, int64_t n_streams, int64_t n_calls,
                  double *out)
{
    const int64_t tile = n_streams < DRAW_TILE ? DRAW_TILE / n_streams : 1;
    for (int64_t c0 = 0; c0 < n_calls; c0 += tile) {
        const int64_t c1 = n_calls - c0 < tile ? n_calls : c0 + tile;
        for (int64_t s = 0; s < n_streams; s++) {
            uint64_t *w = state + 4 * s;
            uint64_t s0 = w[0], s1 = w[1], s2 = w[2], s3 = w[3];
            for (int64_t c = c0; c < c1; c++) {
                out[c * n_streams + s] =
                    (double)(int64_t)((s0 + s3) >> 11) * 0x1.0p-53;
                const uint64_t t = s1 << 17;
                s2 ^= s0;
                s3 ^= s1;
                s1 ^= s2;
                s0 ^= s3;
                s2 ^= t;
                s3 = (s3 << 45) | (s3 >> 19);
            }
            w[0] = s0;
            w[1] = s1;
            w[2] = s2;
            w[3] = s3;
        }
    }
}
