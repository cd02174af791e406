/* Exact compiled kernels, built and loaded by repro/backend/cext.py.
 *
 * Each kernel evaluates the same IEEE 754 operations, in the same order,
 * as the NumPy code it stands in for. Every one of those operations is
 * correctly rounded, so the results are bit-identical. That holds only
 * without contraction and without value-changing optimisations: build with
 * -ffp-contract=off and never with -ffast-math, because a contracted
 * a*b + c rounds once where NumPy rounds twice.
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
