/*
 * Compiled fast-gradient solve of the condensed QP: at most `budget`
 * iterations, with an exact exit.
 *
 * fgm.py states the iteration and builds this file with the system
 * compiler once per process; its numpy loop stays the reference and the
 * fallback.  This file is plain C and includes no Python header:
 * fgm_binding.c, compiled and linked with it in one compiler call, makes
 * the two one CPython extension module, which needs a C compiler and
 * Python.h (numpy's headers ship with numpy).  Where either is missing
 * the build fails, one line on stderr says so, and the numpy loop runs.
 * Python calls three entry points through that module, which hands them
 * its arrays' own buffers:
 *
 *   fgm_solve          the whole loop (fgm.solve): warm-start projection,
 *                      then per iteration the gradient step, its
 *                      finiteness check, the exact N = 1 or N = 2
 *                      projection and the momentum update, then whether
 *                      the iterate moved; an untimed solve stops once it
 *                      is a fixed point bit for bit, where the rest of
 *                      the budget would not change a bit;
 *   modal_observe(ctx, y, u)
 *                      U^T y and its finiteness check, then the observer
 *                      update of the estimates kept by mode with y and
 *                      the input u and the next sample's linear term,
 *                      committed only where both are finite;
 *   mpc_step(ctx, y)   one whole control sample on the measurement y:
 *                      the measurement check, the set recentring, the
 *                      solve on the linear term the last sample formed,
 *                      then the observer update and the next linear term,
 *                      u_prev and the warm start, committed together.
 *
 * sim.MpcController runs the last two on one-bandwidth plants, both
 * through the binding's Step: mpc_step on an untimed sample;
 * modal_observe, as Step's observe, after the staged set update and
 * fgm_solve on a timed one (see sim.py).
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
 * both vectorize without reordering a sum, as the dense sweep does; all
 * three sweeps run full-width blocks only, once there is one (BLOCK); a
 * dense sweep narrower than BLOCK runs blocks of whole 4-double vectors.
 *
 * On one-bandwidth plants the observer's estimates are kept by mode (see
 * observer.ModalRecord).  The three products of the observer and the
 * linear term, U^T y, [V, V_perp]^T u and [V, V_perp] q~, run the dense
 * gradient step's sweep; the rest is elementwise by mode.  Both modal
 * entry points read one context block (struct context) that the
 * controller builds once.
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

/* Output elements kept in registers per sweep over W (BLOCK), and per
   stage and sweep of the factored step the modes of its projection
   (PROJECT_BLOCK) and the outputs of its expansion (EXPAND_BLOCK).  Past
   the first block, each sweep's last block ends on its last element and
   overlaps the one before, which it writes again with the same bits (see
   block_start), where blocks of 4 and 1, which the latency of their
   additions bounds, would take its tail.  One ring-size factored
   iteration (n_k = 44, n_u = 173, N = 2; best of 3000 timed 20-iteration
   solves with their ctypes call, gcc 12.2 -O3 on a 2-vCPU AVX-512
   virtual machine) took 4.1-4.3 us at 24/32, 4.2 at 24/24, 4.7 at 32/32
   and 5.0 at 40/32, but 8.0-9.1 us with a 16-wide block on either side,
   against 5.4-6.3 us with 32-wide blocks and 4- and 1-wide tails;
   -mprefer-vector-width=512 made 24/32 slower (4.5 us).  Below BLOCK
   columns the dense sweep runs blocks of whole 4-double vectors (see
   gradient_step); the factored sweeps below PROJECT_BLOCK modes or
   EXPAND_BLOCK outputs still run blocks of 4 and 1, a shape no benchmark
   workload has. */
#define BLOCK 32
#define PROJECT_BLOCK 24
#define EXPAND_BLOCK 32

/* Four doubles as one vector (GCC's vector extension); -ffp-contract=off
   keeps its multiplies and adds separate, lane by lane the scalar ones. */
typedef double vd4 __attribute__((vector_size(4 * sizeof(double))));

static inline vd4 load4(const double *p)
{
    vd4 x;
    memcpy(&x, p, sizeof x);
    return x;
}

static inline void store4(double *p, vd4 x)
{
    memcpy(p, &x, sizeof x);
}

/* Where the `width`-wide block from element i of a sweep over `count`
   elements starts: at i, or for a last block that would run past the
   end, so that it ends on the last element. */
static inline int64_t block_start(int64_t i, int64_t count, int width)
{
    return i + width <= count ? i : count - width;
}

static inline void row_block(const double *restrict w, int64_t rows, int64_t cols,
                             const double *restrict v, const double *restrict q_scaled,
                             double *restrict t, int64_t i, int width)
{
    double acc[BLOCK];
    for (int k = 0; k < width; k++)
        acc[k] = 0.0;
    for (int64_t j = 0; j < rows; j++) {
        const double *restrict row = w + j * cols + i;
        const double vj = v[j];
        for (int k = 0; k < width; k++)
            acc[k] += row[k] * vj;
    }
    for (int k = 0; k < width; k++)
        t[i + k] = acc[k] - q_scaled[i + k];
}

/* gradient_step's sweep below BLOCK columns, in blocks of 4 `vectors`
   outputs held as whole vectors, the last block overlapping the one
   before (block_start): in each block row_block's operations on the same
   operands, lane by lane. */
static inline __attribute__((always_inline))
void narrow_rows(const double *restrict w, int64_t rows, int64_t cols,
                 const double *restrict v, const double *restrict q_scaled,
                 double *restrict t, int vectors)
{
    for (int64_t b = 0; b < cols; b += 4 * vectors) {
        const int64_t i = block_start(b, cols, 4 * vectors);
        vd4 acc[4];
        for (int k = 0; k < vectors; k++)
            acc[k] = (vd4){0.0, 0.0, 0.0, 0.0};
        for (int64_t j = 0; j < rows; j++) {
            const double *restrict row = w + j * cols + i;
            const double vj = v[j];
            for (int k = 0; k < vectors; k++)
                acc[k] += load4(row + 4 * k) * vj;
        }
        for (int k = 0; k < vectors; k++)
            store4(t + i + 4 * k, acc[k] - load4(q_scaled + i + 4 * k));
    }
}

/* t = W^T v - q for the row-major rows x cols matrix W, one block of
   outputs per sweep over its rows: with W = I - J / lambda_max (square and
   symmetric) and q / lambda_max, the gradient step; the modal entry
   points pass q = 0.  Past the first block, the last one ends on the last
   output and overlaps the one before, whose outputs it writes again with
   the same bits.  Below BLOCK columns the blocks are 16, 8 or 4 outputs,
   the widest that fits, held as 4, 2 or 1 explicit 4-double vectors;
   1-wide blocks run only below 4 columns.  gcc 12.2 -O3 -march=native
   (AVX-512) compiles a row_block of 16, 8 or 4 outputs into 2-double
   multiplies over pairs of rows, each followed by a chain of scalar
   vaddsd, where narrow_rows is one 256-bit multiply and add per vector
   and row: a call took 30 ns against 120 ns with 4-wide blocks at
   16 x 16, and 60 ns at 17 x 17 (two overlapping 16-blocks) against
   152 ns (four 4-wide blocks and a 1-wide one).  Kept out of line:
   inlined into fgm_solve, gcc 12 -O3 makes the ring-size (346-row)
   solve ~15% slower. */
__attribute__((noinline))
static void gradient_step(const double *w, int64_t rows, int64_t cols, const double *v,
                          const double *q_scaled, double *t)
{
    if (cols >= BLOCK) {
        for (int64_t i = 0; i < cols; i += BLOCK)
            row_block(w, rows, cols, v, q_scaled, t, block_start(i, cols, BLOCK), BLOCK);
    } else if (cols >= 16) {
        narrow_rows(w, rows, cols, v, q_scaled, t, 4);
    } else if (cols >= 8) {
        narrow_rows(w, rows, cols, v, q_scaled, t, 2);
    } else if (cols >= 4) {
        narrow_rows(w, rows, cols, v, q_scaled, t, 1);
    } else {
        for (int64_t i = 0; i < cols; i++)
            row_block(w, rows, cols, v, q_scaled, t, i, 1);
    }
}

/* c[s n_k + k0 + m] = v_(k0 + m) . x_s for the `width` modes from k0:
   sums over the rows of the row-major V_K (n_u x n_k). */
static inline __attribute__((always_inline))
void project_modes(const double *restrict vk, int64_t n_k, int64_t n_u, int horizon,
                   const double *restrict v, double *restrict c, int64_t k0, int width)
{
    double acc[2][PROJECT_BLOCK];
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
    double acc[2][EXPAND_BLOCK];
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
    if (n_k >= PROJECT_BLOCK) {
        for (int64_t k = 0; k < n_k; k += PROJECT_BLOCK)
            project_modes(vk, n_k, n_u, horizon, v, c, block_start(k, n_k, PROJECT_BLOCK),
                          PROJECT_BLOCK);
    } else {
        int64_t k = 0;
        for (; k + 4 <= n_k; k += 4)
            project_modes(vk, n_k, n_u, horizon, v, c, k, 4);
        for (; k < n_k; k++)
            project_modes(vk, n_k, n_u, horizon, v, c, k, 1);
    }
    for (int64_t k = 0; k < n_k; k++) {
        const double *m = mix + k * horizon * horizon;
        for (int s = 0; s < horizon; s++) {
            double sum = 0.0;
            for (int u = 0; u < horizon; u++)
                sum += m[s * horizon + u] * c[u * n_k + k];
            d[s * n_k + k] = sum;
        }
    }
    if (n_u >= EXPAND_BLOCK) {
        for (int64_t i = 0; i < n_u; i += EXPAND_BLOCK)
            expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t,
                         block_start(i, n_u, EXPAND_BLOCK), EXPAND_BLOCK);
    } else {
        int64_t i = 0;
        for (; i + 4 <= n_u; i += 4)
            expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t, i, 4);
        for (; i < n_u; i++)
            expand_modes(shared, vkt, n_k, n_u, horizon, v, d, q_scaled, t, i, 1);
    }
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

/* np.maximum and np.minimum as numpy's SIMD loops compute them: a NaN on
   either side is the result, and where the two compare equal the second
   is (np.maximum(-0.0, 0.0) is 0.0). */
static inline double np_max(double a, double b)
{
    return isnan(a) || a > b ? a : b;
}

static inline double np_min(double a, double b)
{
    return isnan(a) || a < b ? a : b;
}

/* The constraint set as qp.ConstraintSet holds it: box bounds of the
   stacked iterate and, for N = 2, the band half-widths and rho. */
struct set {
    int64_t n_u, horizon;
    const double *lower, *upper, *band, *rho;
};

static void project(const struct set *s, const double *t, double *out)
{
    const int64_t n = s->n_u;
    if (s->horizon == 1) {
        for (int64_t i = 0; i < n; i++)
            out[i] = clip(t[i], s->lower[i], s->upper[i]);
        return;
    }
    /* qp._project_stacked, one actuator's pair at a time; alpha is the
       stage-1 upper bound */
    for (int64_t i = 0; i < n; i++) {
        const double lo = s->lower[i], hi = s->upper[i], alpha = s->upper[n + i];
        double u0 = clip(t[i], lo, hi);
        double u1 = clip(t[n + i], s->lower[n + i], alpha);
        const double gap = u1 - u0;
        if (fabs(gap) > s->band[i]) {
            const double rho = s->rho[i], shift = copysign(rho, gap);
            double s0 = t[i] + t[n + i];
            s0 -= shift;
            s0 *= 0.5;
            if (signbit(gap))
                u0 = clip(s0, np_max(lo, rho - alpha), hi);
            else
                u0 = clip(s0, lo, np_min(hi, alpha - rho));
            u1 = clip(u0 + shift, s->lower[n + i], alpha);
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
 *   lower, upper      n each     the box bounds of the stacked iterate
 *   band, rho         n_u each   (horizon 2 only)
 *
 * `data` is the caller's workspace; it holds, in order:
 *
 *   q_scaled          n      q / lambda_max
 *   iterate           n      the warm start; on return, the last projected iterate
 *   stage_ns          3      zeros
 *   iterations        1      on return -1, the iterations run
 *   scratch           4 n, and 2 horizon n_k more for the factored form
 *
 * The exact exit: after the momentum update, memcmp tells whether p+
 * equals p byte for byte (so -0.0 differs from 0.0).  Once two iterations
 * in a row leave p unchanged, p_(k+1) = p_k = p_(k-1) with k >= 1, the
 * momentum update has formed v_(k+1) from the same bits as v_k, so every
 * later iteration repeats the same operations on the same bits, and the
 * loop stops with the iterate the whole budget returns.  k >= 1 because
 * v_0 is p_0 copied, not formed by the update.  `budget` stays the worst
 * case.  memcmp, which stops at the first byte that differs, cost less
 * than an OR of XORed bit patterns inside the momentum loop (by ~1% of a
 * ring-size and of an 8x8 N = 2 solve).
 *
 * With `timed` non-zero the loop runs every iteration, and stage_ns
 * accumulates the nanoseconds of the gradient step (with its finiteness
 * check), the projection and the momentum update.  Returns -1, or the
 * iteration whose gradient step has a non-finite element; the projection
 * would otherwise clip an infinity to a bound.
 */
int64_t fgm_solve(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                  int64_t budget, const double *set, double *data, int64_t timed);

/* fgm_solve, leaving the last projected iterate in the scratch, where
   *result points, and the workspace's iterate as it was. */
static int64_t run(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                   int64_t budget, const double *set, double *data, int64_t timed,
                   const double **result)
{
    const int64_t n = horizon * n_u;
    const double *q_scaled = data;
    const double *iterate = data + n;
    struct set s = {n_u, horizon, set, set + n, NULL, NULL};
    if (horizon == 2) {
        s.band = set + 2 * n;
        s.rho = s.band + n_u;
    }
    double *stage_ns = data + 2 * n, *iterations = stage_ns + 3;
    double *p = iterations + 1, *p_new = p + n, *v = p + 2 * n, *t = p + 3 * n;
    double *const modes = p + 4 * n;
    const double beta_1 = 1.0 + beta;
    int64_t tic = 0, it = 0;
    int was_unchanged = 0;

    project(&s, iterate, p);
    memcpy(v, p, (size_t)n * sizeof *v);
    while (it < budget) {
        if (timed)
            tic = now_ns();
        if (n_k < 0)
            gradient_step(w, n, n, v, q_scaled, t);
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
        const int unchanged = !timed && memcmp(p_new, p, (size_t)n * sizeof *p) == 0;
        if (timed)
            lap(&stage_ns[2], &tic);
        double *swap = p;
        p = p_new;
        p_new = swap;
        it++;
        if (unchanged && was_unchanged)
            break;
        was_unchanged = unchanged;
    }
    *iterations = (double)it;
    *result = p;
    return -1;
}

int64_t fgm_solve(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                  int64_t budget, const double *set, double *data, int64_t timed)
{
    const double *p;
    const int64_t failed = run(w, n_k, n_u, horizon, beta, budget, set, data, timed, &p);
    if (failed < 0)
        memcpy(data + horizon * n_u, p, (size_t)(horizon * n_u) * sizeof *p);
    return failed;
}

/* The context one controller builds once (see sim.MpcController) for the
   entry points below, the fields of fgm.STEP_CONTEXT in their order:

     record, n_u, n_y, mu, horizon  the modal record and its sizes, below
     state                          the estimates and their scratch, below
     w, n_k, beta, budget           fgm_solve's step matrix, form, momentum
                                    and iteration budget
     lambda_max                     the largest eigenvalue of J
     data                           fgm_solve's workspace (fgm.Workspace)
     set                            the controller's set array (fgm_solve),
                                    followed by room for a copy of it
     alpha, rho                     n_u each, the amplitude and slew limits
     u_prev                         n_u, the input applied last */
struct context {
    const double *record;
    int64_t n_u, n_y, mu, horizon;
    double *state;
    const double *w;
    int64_t n_k;
    double beta;
    int64_t budget;
    double lambda_max;
    double *data, *set;
    const double *alpha, *rho;
    double *u_prev;
};

/* The record observer.ModalRecord packs, for n_u inputs, n_y outputs,
   r = min(n_u, n_y) modes of C, the delay mu and the horizon:

     w       n_u n_u     [V, V_perp], row-major
     wt      n_u n_u     its transpose, row-major
     u       n_y r       U, row-major
     sigma   r           singular values of C
     k_z     r           gain of the delayed state, mode by mode
     k_d     r           gain of the disturbance, mode by mode
     alpha   horizon n_u linear-term coefficients of x~, stage by stage
     beta    horizon r   linear-term coefficients of d~, stage by stage
     powers  mu + 1      a^mu, a^(mu - 1), ..., 1
     a, b, k_0           the plant's one pole and input gain, and the gain
                         of the disturbance outside range(C)
     zeros   n_u         the zero shift of the products (gradient_step)

   and the estimates with their scratch, in the controller's state array:

     x       n_u         x~ = [V, V_perp]^T x^
     z       mu n_u      z~_i = [V, V_perp]^T z^_i, i = 1..mu
     d       r           d~ = U^T d^
     s       n_y         tall plants only: (I - U U^T) s is d^'s part
                         outside range(U)
     q       horizon n_u the linear term of these estimates, which the
                         next sample solves with
     next                the same five again: the observer update forms
                         the new ones here before they replace these
     y~      r           scratch: U^T y
     u~      n_u         scratch: [V, V_perp]^T u
     dy      n_u         scratch: the delayed state's correction
     q~      horizon n_u scratch: the linear term by mode */
/* Not restrict: `advance` checks and copies the whole block through x. */
struct estimates {
    double *x, *z, *d, *s, *q;
};

struct modal {
    int64_t r, block; /* block: the length of one struct estimates */
    const double *restrict w, *restrict wt, *restrict u, *restrict sigma, *restrict k_z,
        *restrict k_d, *restrict alpha, *restrict beta, *restrict powers, *restrict zeros;
    double a, b, k_0;
    struct estimates now, next;
    double *restrict yt, *restrict ut, *restrict dy, *restrict qt;
};

static struct estimates estimates_at(double *base, const struct context *c, int64_t r)
{
    struct estimates e;
    e.x = base;
    e.z = e.x + c->n_u;
    e.d = e.z + c->mu * c->n_u;
    e.s = e.d + r;
    e.q = e.s + (c->n_y > r ? c->n_y : 0);
    return e;
}

static struct modal unpack(const struct context *c)
{
    const int64_t n_u = c->n_u, n_y = c->n_y, mu = c->mu;
    struct modal m;
    m.r = n_u < n_y ? n_u : n_y;
    m.w = c->record;
    m.wt = m.w + n_u * n_u;
    m.u = m.wt + n_u * n_u;
    m.sigma = m.u + n_y * m.r;
    m.k_z = m.sigma + m.r;
    m.k_d = m.k_z + m.r;
    m.alpha = m.k_d + m.r;
    m.beta = m.alpha + c->horizon * n_u;
    m.powers = m.beta + c->horizon * m.r;
    m.a = m.powers[mu + 1];
    m.b = m.powers[mu + 2];
    m.k_0 = m.powers[mu + 3];
    m.zeros = m.powers + mu + 4;
    m.now = estimates_at(c->state, c, m.r);
    m.block = m.now.q + c->horizon * n_u - m.now.x;
    m.next = estimates_at(c->state + m.block, c, m.r);
    m.yt = c->state + 2 * m.block;
    m.ut = m.yt + m.r;
    m.dy = m.ut + n_u;
    m.qt = m.dy + n_u;
    return m;
}

/* e->q = [V, V_perp] q~_s stage by stage, with q~_s = alpha_s x~ + beta_s
   d~ from e's estimates mode by mode (alpha_s x~ alone on the n_u - r
   modes outside range(C^T)); horizon n_u values, stage-major. */
static void linear_term(const struct modal *m, const struct context *c, const struct estimates *e)
{
    const int64_t n_u = c->n_u;
    for (int64_t s = 0; s < c->horizon; s++) {
        const double *alpha = m->alpha + s * n_u, *beta = m->beta + s * m->r;
        double *qt = m->qt + s * n_u;
        for (int64_t i = 0; i < m->r; i++)
            qt[i] = alpha[i] * e->x[i] + beta[i] * e->d[i];
        for (int64_t i = m->r; i < n_u; i++)
            qt[i] = alpha[i] * e->x[i];
    }
    for (int64_t s = 0; s < c->horizon; s++)
        gradient_step(m->wt, n_u, n_u, m->qt + s * n_u, m->zeros, e->q + s * n_u);
}

/* y~ = U^T y.  Returns 0 where an entry of y~ is not finite: y has a
   non-finite entry, which makes every entry non-finite, or a finite y
   overflows in the product. */
static int measure(const struct modal *m, const struct context *c, const double *y)
{
    gradient_step(m->u, c->n_y, m->r, y, m->zeros, m->yt);
    for (int64_t i = 0; i < m->r; i++)
        if (!isfinite(m->yt[i]))
            return 0;
    return 1;
}

/* The observer update with the input u after `measure`,
   observer.update_fast in the coordinates of the state array, from the
   estimates into the next block: the innovation of mode i < r is
   y~_i - sigma_i z~_mu,i - d~_i (z~_mu is x~ for mu = 0); it corrects
   d~_i by k_d,i times itself and, as dy_i = k_z,i times itself, the delay
   chain and x~ through the powers of a:

       z~_(l+1) = z~_l + a^(mu-1-l) dy   (z~_0 = x~),
       x~       = a x~ + b [V, V_perp]^T u + a^mu dy.

   On a tall plant s becomes (1 - k_0) s + k_0 y. */
static void observe(const struct modal *m, const struct context *c, const double *y,
                    const double *u)
{
    const int64_t n_u = c->n_u, n_y = c->n_y, mu = c->mu;
    const struct estimates *e = &m->now, *next = &m->next;
    if (n_y > m->r)
        for (int64_t j = 0; j < n_y; j++)
            next->s[j] = (1.0 - m->k_0) * e->s[j] + m->k_0 * y[j];
    gradient_step(m->w, n_u, n_u, u, m->zeros, m->ut);
    const double *z_mu = mu ? e->z + (mu - 1) * n_u : e->x;
    for (int64_t i = 0; i < m->r; i++) {
        const double innovation = m->yt[i] - m->sigma[i] * z_mu[i] - e->d[i];
        m->dy[i] = m->k_z[i] * innovation;
        next->d[i] = e->d[i] + m->k_d[i] * innovation;
    }
    for (int64_t i = m->r; i < n_u; i++)
        m->dy[i] = 0.0;
    for (int64_t l = mu - 1; l > 0; l--) {
        const double p = m->powers[1 + l];
        for (int64_t i = 0; i < n_u; i++)
            next->z[l * n_u + i] = e->z[(l - 1) * n_u + i] + p * m->dy[i];
    }
    if (mu)
        for (int64_t i = 0; i < n_u; i++)
            next->z[i] = e->x[i] + m->powers[1] * m->dy[i];
    for (int64_t i = 0; i < n_u; i++)
        next->x[i] = m->a * e->x[i] + m->b * m->ut[i] + m->powers[0] * m->dy[i];
}

/* The observer update with u and y and the linear term of the new
   estimates, both formed into the next block, replace the estimates and
   their linear term only where every value is finite: a finite y whose
   U^T y is finite can still overflow them.  Returns 0, with nothing
   replaced, where one is not. */
static int advance(const struct modal *m, const struct context *c, const double *y,
                   const double *u)
{
    observe(m, c, y, u);
    linear_term(m, c, &m->next);
    for (int64_t i = 0; i < m->block; i++)
        if (!isfinite(m->next.x[i]))
            return 0;
    memcpy(m->now.x, m->next.x, (size_t)m->block * sizeof *m->now.x);
    return 1;
}

/* qp.update_constraint_set on the set array, recentred on u = u_prev:
   |u| - alpha <= 1e-9 and a non-empty stage-0 interval [max(-alpha,
   u - rho), min(alpha, u + rho)] are checked first, then what
   ConstraintSet._centre writes is written: the interval, and for
   horizon 2 the band half-width where alpha is infinite.  The entries
   that do not depend on u (the stage-1 box, the other band half-widths
   and rho) are the caller's.  Returns 0, with nothing written, where a
   check fails. */
static int recentre(const struct context *c)
{
    const int64_t n = c->n_u;
    const double *alpha = c->alpha, *rho = c->rho, *u = c->u_prev;
    for (int64_t i = 0; i < n; i++)
        if (!(fabs(u[i]) - alpha[i] <= 1e-9)
            || !(np_max(-alpha[i], u[i] - rho[i]) <= np_min(alpha[i], u[i] + rho[i])))
            return 0;
    double *lo = c->set, *hi = c->set + c->horizon * n;
    for (int64_t i = 0; i < n; i++) {
        lo[i] = np_max(-alpha[i], u[i] - rho[i]);
        hi[i] = np_min(alpha[i], u[i] + rho[i]);
    }
    if (c->horizon == 2) {
        double *band = c->set + 4 * n;
        for (int64_t i = 0; i < n; i++)
            if (isinf(alpha[i]))
                band[i] = rho[i] + 1e-12 * (1.0 + (fabs(u[i]) + 2.0 * rho[i]) + rho[i]);
    }
    return 1;
}

/* `measure` of y (n_y values), then `advance` with y and the input u:
   returns 1, or 0 with the estimates and their linear term left as they
   were. */
int64_t modal_observe(const struct context *c, const double *y, const double *u)
{
    const struct modal m = unpack(c);
    return measure(&m, c, y) && advance(&m, c, y, u);
}

#define MEASUREMENT_REFUSED (-2)
#define SET_REFUSED (-3)

/*
 * One whole control sample on the measurement y (n_y values): the staged
 * calls of sim.MpcController.step in one.  y~ = U^T y first, then the set
 * recentred on u_prev, the linear term the last sample formed divided by
 * lambda_max into the workspace, as fgm.Workspace divides it, the
 * untimed solve from the workspace's iterate, and `advance` with u_k (the
 * solution's first stage) and y; only then are u_prev and the iterate
 * set to the solution.  Returns -1; or, with the estimates, their linear
 * term, u_prev, the iterate and the set array left as they were,
 * MEASUREMENT_REFUSED where y~, the new estimates or their linear term
 * are not finite, SET_REFUSED where recentre refuses u_prev, or the
 * iteration whose gradient step has a non-finite element (fgm_solve).
 * The set array is restored from the copy kept after it.
 */
int64_t mpc_step(const struct context *c, const double *y)
{
    const struct modal m = unpack(c);
    const int64_t n = c->horizon * c->n_u, set_size = c->horizon == 1 ? 2 * n : 3 * n;
    double *const saved = c->set + set_size;
    if (!measure(&m, c, y))
        return MEASUREMENT_REFUSED;
    memcpy(saved, c->set, (size_t)set_size * sizeof *saved);
    if (!recentre(c))
        return SET_REFUSED;
    for (int64_t i = 0; i < n; i++)
        c->data[i] = m.now.q[i] / c->lambda_max;
    const double *p;
    int64_t failed = run(c->w, c->n_k, c->n_u, c->horizon, c->beta, c->budget, c->set, c->data,
                         0, &p);
    if (failed < 0 && !advance(&m, c, y, p))
        failed = MEASUREMENT_REFUSED;
    if (failed != -1) {
        memcpy(c->set, saved, (size_t)set_size * sizeof *saved);
        return failed;
    }
    memcpy(c->data + n, p, (size_t)n * sizeof *p);
    memcpy(c->u_prev, p, (size_t)c->n_u * sizeof *p);
    return -1;
}
