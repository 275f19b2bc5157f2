/*
 * Compiled fixed-budget fast-gradient solve of the condensed QP.
 *
 * fgm.py states the iteration, builds this file with the system compiler
 * once per process and calls its one entry point, fgm_solve, through
 * ctypes; its numpy loop stays the reference and the fallback.  fgm_solve
 * runs the whole loop: warm-start projection, then per iteration the
 * gradient step, its finiteness check, the exact N = 1 or N = 2
 * projection and the momentum update.
 *
 * The gradient step t = W v - q / lambda_max, W = I - J / lambda_max,
 * takes one of two forms.
 *
 * Dense: each element is 0.0 + W[0][i] v[0] + W[1][i] v[1] + ... in
 * ascending j, minus q_i / lambda_max.  W is exactly symmetric
 * (CondensedQP refuses a J that is not), so column i of W is read as
 * row i: the sweep runs over contiguous rows of W and keeps a block of
 * output elements in registers, which vectorizes without reordering any
 * sum.
 *
 * Factored, on one-bandwidth plants (see qp.py): with x_s the stage-s
 * block of v, W_s = I - B_s / lambda_max the shared block and
 * M_k = -(B_k - B_s) / lambda_max for the modes k in K,
 *
 *     c_k = [v_k . x_0, ..., v_k . x_(N-1)]         (projection)
 *     t_s = sum_u W_s[s][u] x_u + sum_k (M_k c_k)_s v_k - q_s / lambda_max,
 *
 * ~2 N |K| n_u multiply-adds instead of (N n_u)^2.  The projection sweeps
 * the rows of V_K (n_u x |K|) with a block of modes in registers, the
 * expansion the rows of V_K^T with a block of outputs in registers, so
 * both vectorize without reordering a sum, as the dense sweep does.
 *
 * Build with -ffp-contract=off and without -ffast-math: every operation
 * is then an IEEE double operation in the stated order, the projections
 * compare and select exactly as qp._clip and qp._project_stacked do, and
 * a NaN passes through them unchanged.  The dense step is the numpy
 * loop's element by element; the factored one sums in another order, so
 * it agrees with it to rounding.
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* Output elements kept in registers per sweep over W, and modes
   (projection) or output elements (expansion) per stage and sweep of the
   factored step: at 16, gcc 12 -O3 ran the ring-size factored solve at
   about half the speed. */
#define BLOCK 32

static inline void row_block(const double *restrict w, int64_t n, const double *restrict v,
                             const double *restrict q_scaled, double *restrict t,
                             int64_t i, int width)
{
    double acc[BLOCK];
    for (int k = 0; k < width; k++)
        acc[k] = 0.0;
    for (int64_t j = 0; j < n; j++) {
        const double *restrict row = w + j * n + i;
        const double vj = v[j];
        for (int k = 0; k < width; k++)
            acc[k] += row[k] * vj;
    }
    for (int k = 0; k < width; k++)
        t[i + k] = acc[k] - q_scaled[i + k];
}

/* t = W v - q / lambda_max for the n x n leading block of the row-major W.
   Kept out of line: inlined into fgm_solve, gcc 12 -O3 makes the ring-size
   (346-row) solve ~15% slower. */
__attribute__((noinline))
static void gradient_step(const double *w, int64_t n, const double *v, const double *q_scaled,
                          double *t)
{
    int64_t i = 0;
    for (; i + BLOCK <= n; i += BLOCK)
        row_block(w, n, v, q_scaled, t, i, BLOCK);
    for (; i + 4 <= n; i += 4)
        row_block(w, n, v, q_scaled, t, i, 4);
    for (; i < n; i++)
        row_block(w, n, v, q_scaled, t, i, 1);
}

/* c[s n_k + k0 + m] = v_(k0 + m) . x_s for the `width` modes from k0:
   sums over the rows of the row-major V_K (n_u x n_k). */
static inline __attribute__((always_inline))
void project_modes(const double *restrict vk, int64_t n_k, int64_t n_u, int horizon,
                   const double *restrict v, double *restrict c, int64_t k0, int width)
{
    double acc[2][BLOCK];
    for (int s = 0; s < horizon; s++)
        for (int m = 0; m < width; m++)
            acc[s][m] = 0.0;
    for (int64_t i = 0; i < n_u; i++) {
        const double *restrict row = vk + i * n_k + k0;
        for (int s = 0; s < horizon; s++) {
            const double x = v[s * n_u + i];
            for (int m = 0; m < width; m++)
                acc[s][m] += row[m] * x;
        }
    }
    for (int s = 0; s < horizon; s++)
        for (int m = 0; m < width; m++)
            c[s * n_k + k0 + m] = acc[s][m];
}

/* t_s[i0 + m] for the `width` outputs from i0 of every stage s: the shared
   block on x, then the modes' terms d[s n_k + k] v_k in ascending k (rows
   of the row-major V_K^T, n_k x n_u), then the shift. */
static inline __attribute__((always_inline))
void expand_modes(const double *restrict shared, const double *restrict vkt, int64_t n_k,
                  int64_t n_u, int horizon, const double *restrict v, const double *restrict d,
                  const double *restrict q_scaled, double *restrict t, int64_t i0, int width)
{
    double acc[2][BLOCK];
    for (int s = 0; s < horizon; s++)
        for (int m = 0; m < width; m++) {
            double sum = 0.0;
            for (int u = 0; u < horizon; u++)
                sum += shared[s * horizon + u] * v[u * n_u + i0 + m];
            acc[s][m] = sum;
        }
    for (int64_t k = 0; k < n_k; k++) {
        const double *restrict row = vkt + k * n_u + i0;
        for (int s = 0; s < horizon; s++) {
            const double dk = d[s * n_k + k];
            for (int m = 0; m < width; m++)
                acc[s][m] += row[m] * dk;
        }
    }
    for (int s = 0; s < horizon; s++)
        for (int m = 0; m < width; m++)
            t[s * n_u + i0 + m] = acc[s][m] - q_scaled[s * n_u + i0 + m];
}

/* The factored step for one horizon; `factors` holds W_s (horizon^2),
   the M_k (n_k horizon^2), V_K (n_u n_k) and V_K^T (n_k n_u), row-major;
   `scratch` 2 horizon n_k doubles. */
static inline __attribute__((always_inline))
void factored_step_h(const double *factors, int64_t n_k, int64_t n_u, int horizon,
                     const double *v, const double *q_scaled, double *t, double *scratch)
{
    const double *shared = factors, *mix = factors + horizon * horizon;
    const double *vk = mix + n_k * horizon * horizon, *vkt = vk + n_u * n_k;
    double *c = scratch, *d = scratch + horizon * n_k;
    int64_t k = 0;
    for (; k + BLOCK <= n_k; k += BLOCK)
        project_modes(vk, n_k, n_u, horizon, v, c, k, BLOCK);
    for (; k + 4 <= n_k; k += 4)
        project_modes(vk, n_k, n_u, horizon, v, c, k, 4);
    for (; k < n_k; k++)
        project_modes(vk, n_k, n_u, horizon, v, c, k, 1);
    for (k = 0; k < n_k; k++) {
        const double *m = mix + k * horizon * horizon;
        for (int s = 0; s < horizon; s++) {
            double sum = 0.0;
            for (int u = 0; u < horizon; u++)
                sum += m[s * horizon + u] * c[u * n_k + k];
            d[s * n_k + k] = sum;
        }
    }
    int64_t i = 0;
    for (; i + BLOCK <= n_u; i += BLOCK)
        expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t, i, BLOCK);
    for (; i + 4 <= n_u; i += 4)
        expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t, i, 4);
    for (; i < n_u; i++)
        expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t, i, 1);
}

/* t = W v - q / lambda_max in the factored form, specialized per horizon.
   Out of line like gradient_step; inlined, the ring-size solve measured
   no faster. */
__attribute__((noinline))
static void factored_step(const double *factors, int64_t n_k, int64_t n_u, int64_t horizon,
                          const double *v, const double *q_scaled, double *t, double *scratch)
{
    if (horizon == 1)
        factored_step_h(factors, n_k, n_u, 1, v, q_scaled, t, scratch);
    else
        factored_step_h(factors, n_k, n_u, 2, v, q_scaled, t, scratch);
}

/* np.minimum(np.maximum(x, lo), hi): a NaN x stays NaN. */
static inline double clip(double x, double lo, double hi)
{
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}

/* The constraint set as qp.ConstraintSet holds it: box bounds of the
   stacked iterate and, for N = 2, the band half-widths, rho and the u0
   limits [lower; upper] of the segments u1 = u0 + rho and u1 = u0 - rho. */
struct set {
    int64_t n_u, horizon;
    const double *lower, *upper, *band, *rho, *seg_up, *seg_down;
};

static void project(const struct set *s, const double *t, double *out)
{
    const int64_t n = s->n_u;
    if (s->horizon == 1) {
        for (int64_t i = 0; i < n; i++)
            out[i] = clip(t[i], s->lower[i], s->upper[i]);
        return;
    }
    /* qp._project_stacked, one actuator's pair at a time */
    for (int64_t i = 0; i < n; i++) {
        double u0 = clip(t[i], s->lower[i], s->upper[i]);
        double u1 = clip(t[n + i], s->lower[n + i], s->upper[n + i]);
        const double gap = u1 - u0;
        if (fabs(gap) > s->band[i]) {
            const double *seg = signbit(gap) ? s->seg_down : s->seg_up;
            const double shift = copysign(s->rho[i], gap);
            double s0 = t[i] + t[n + i];
            s0 -= shift;
            s0 *= 0.5;
            u0 = clip(s0, seg[i], seg[n + i]);
            u1 = clip(u0 + shift, s->lower[n + i], s->upper[n + i]);
        }
        out[i] = u0;
        out[n + i] = u1;
    }
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Adds the time since *tic to *stage and restarts *tic there. */
static void lap(double *stage, int64_t *tic)
{
    const int64_t now = now_ns();
    *stage += (double)(now - *tic);
    *tic = now;
}

/*
 * Runs `budget` iterations from the projection of the warm start onto the
 * set, n = horizon n_u.  With n_k < 0, `w` is the dense W, row-major with
 * n columns; otherwise it is the factored form over n_k modes, laid out
 * as factored_step_h states.  `set` is the array qp.ConstraintSet packs:
 *
 *   lower, upper      n each the box bounds of the stacked iterate
 *   band, rho         n_u each                   (horizon 2 only)
 *   seg_up, seg_down  2 n_u each, [lower; upper] (horizon 2 only)
 *
 * `data` is the caller's workspace; it holds, in order:
 *
 *   q_scaled          n      q / lambda_max
 *   iterate           n      the warm start; on return, the last projected iterate
 *   stage_ns          3      zeros
 *   scratch           4 n, and 2 horizon n_k more for the factored form
 *
 * With `timed` non-zero, stage_ns accumulates the nanoseconds of the
 * gradient step (with its finiteness check), the projection and the
 * momentum update.  Returns -1, or the iteration whose gradient step has a
 * non-finite element; the projection would otherwise clip an infinity to
 * a bound.
 */
int64_t fgm_solve(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                  int64_t budget, const double *set, double *data, int64_t timed)
{
    const int64_t n = horizon * n_u;
    const double *q_scaled = data;
    double *iterate = data + n;
    struct set s = {n_u, horizon, set, set + n, NULL, NULL, NULL, NULL};
    if (horizon == 2) {
        s.band = set + 2 * n;
        s.rho = s.band + n_u;
        s.seg_up = s.rho + n_u;
        s.seg_down = s.seg_up + 2 * n_u;
    }
    double *stage_ns = data + 2 * n;
    double *p = stage_ns + 3, *p_new = p + n, *v = p + 2 * n, *t = p + 3 * n;
    double *const modes = p + 4 * n;
    const double beta_1 = 1.0 + beta;
    int64_t tic = 0;

    project(&s, iterate, p);
    memcpy(v, p, (size_t)n * sizeof *v);
    for (int64_t it = 0; it < budget; it++) {
        if (timed)
            tic = now_ns();
        if (n_k < 0)
            gradient_step(w, n, v, q_scaled, t);
        else
            factored_step(w, n_k, n_u, horizon, v, q_scaled, t, modes);
        for (int64_t i = 0; i < n; i++)
            if (!isfinite(t[i]))
                return it;
        if (timed)
            lap(&stage_ns[0], &tic);
        project(&s, t, p_new);
        if (timed)
            lap(&stage_ns[1], &tic);
        for (int64_t i = 0; i < n; i++)
            v[i] = p_new[i] * beta_1 - p[i] * beta;
        if (timed)
            lap(&stage_ns[2], &tic);
        double *swap = p;
        p = p_new;
        p_new = swap;
    }
    memcpy(iterate, p, (size_t)n * sizeof *iterate);
    return -1;
}
