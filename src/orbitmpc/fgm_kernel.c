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
 * The gradient step forms each element of W v - q / lambda_max as
 * 0.0 + W[0][i] v[0] + W[1][i] v[1] + ... in ascending j, then subtracts
 * q_i / lambda_max.  W = I - J / lambda_max is exactly symmetric
 * (CondensedQP refuses a J that is not), so column i of W is read as
 * row i: the sweep runs over contiguous rows of W and keeps a block of
 * output elements in registers, which vectorizes without reordering any
 * sum.
 *
 * Build with -ffp-contract=off and without -ffast-math: every element is
 * then the same sequence of IEEE double operations as in the numpy loop,
 * the projections compare and select exactly as qp._clip and
 * qp._project_stacked do, and a NaN passes through them unchanged.
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* Output elements kept in registers per sweep over W. */
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
 * set, n = horizon n_u.  `data` is one buffer, so that a call passes two
 * addresses; it holds, in order:
 *
 *   q_scaled          n      q / lambda_max
 *   iterate           n      the warm start; on return, the last projected iterate
 *   lower, upper      n each the box bounds of the stacked iterate
 *   band, rho         n_u each                   (horizon 2 only)
 *   seg_up, seg_down  2 n_u each, [lower; upper] (horizon 2 only)
 *   stage_ns          3      zeros
 *   scratch           4 n
 *
 * With `timed` non-zero, stage_ns accumulates the nanoseconds of the
 * gradient step (with its finiteness check), the projection and the
 * momentum update.  Returns -1, or the iteration whose gradient step has a
 * non-finite element; the projection would otherwise clip an infinity to
 * a bound.
 */
int64_t fgm_solve(const double *w, int64_t n_u, int64_t horizon, double beta, int64_t budget,
                  double *data, int64_t timed)
{
    const int64_t n = horizon * n_u;
    const double *q_scaled = data;
    double *iterate = data + n;
    struct set s = {n_u, horizon, data + 2 * n, data + 3 * n, NULL, NULL, NULL, NULL};
    double *tail = data + 4 * n;
    if (horizon == 2) {
        s.band = tail;
        s.rho = tail + n_u;
        s.seg_up = tail + 2 * n_u;
        s.seg_down = tail + 4 * n_u;
        tail += 6 * n_u;
    }
    double *stage_ns = tail;
    double *p = tail + 3, *p_new = p + n, *v = p + 2 * n, *t = p + 3 * n;
    const double beta_1 = 1.0 + beta;
    int64_t tic = 0;

    project(&s, iterate, p);
    memcpy(v, p, (size_t)n * sizeof *v);
    for (int64_t it = 0; it < budget; it++) {
        if (timed)
            tic = now_ns();
        gradient_step(w, n, v, q_scaled, t);
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
