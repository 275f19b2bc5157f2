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
 * both vectorize without reordering a sum, as the dense sweep does.  All
 * three run one `sweep` of whole vectors over padded, aligned rows, the
 * dense sweep of 4 to BLOCK - 1 columns its own (narrow_rows).  `finish`
 * then takes the shift and checks the gradient step's outputs for
 * finiteness.
 *
 * An untimed solve of a dense QP of at most SMALL = 16 variables, any
 * n_u at N = 1 and up to 8 at N = 2 (both small benchmark shapes), keeps
 * its whole state in 1 or 4 vectors of 4 doubles from the first
 * iteration to the last (small_solve): the iterate, the momentum point,
 * the shift q / lambda_max and the set's bounds.  An iteration sweeps W's
 * rows into registers and takes the shift, the finiteness check, the
 * projection, the momentum update and the exact exit's compare there;
 * nothing is stored until the solve ends.  Every operation, and its
 * order, is the generic loop's, and so are the bits, the exit and the
 * index of a failing iteration.  A timed solve, and every larger or
 * factored QP, runs the generic loop.  The QP's size picks the path and
 * the vector count.  In process, an iteration of the 4x4, N = 1 QP takes
 * 13.2 ns against 20.4 ns in the generic loop, and of the 8x8, N = 2 one
 * 42.8 against 44.8 ns: its 16-row ascending sums are chains of
 * dependent adds (gcc 12.2, 2-vCPU AVX-512 virtual machine;
 * BENCH_39.json).
 *
 * On one-bandwidth plants the observer's estimates are kept by mode (see
 * observer.ModalRecord).  The three products of the observer and the
 * linear term, U^T y, [V, V_perp]^T u and [V, V_perp] q~_s, run the same
 * sweeps, the last for both stages in one sweep from BLOCK inputs; the
 * rest is elementwise by mode.  Both modal entry points read one context
 * block (struct context) that the controller builds once.
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

/* Dense sweeps of BLOCK or more columns, the dense sweep below 4 and the
   factored step's sweeps run one `sweep` over matrices whose rows start on
   a 64-byte boundary and hold a multiple of PAD doubles, zero-padded (see
   qp.pack): the factored form's V_K and V_K^T, the modal record's
   [V, V_perp], its transpose and U, and the dense W.  A sweep's vector
   holds LANES doubles, 8 where the compiler targets AVX-512 and else 4,
   and its blocks of whole vectors, at most VECTORS per right-hand side
   with every accumulator in a register (22 at two right-hand sides, of the
   32 zmm registers), start on multiples of PAD and never overlap: 11, 6 or
   1 vectors, the widest that what is left of the padded row holds.  It
   stores whole vectors into padded scratch, and `finish` then copies the
   real outputs out.  At the ring size (n_k = 44 modes, n_u = 173 outputs,
   N = 2) the projection is one 6-vector block and every other sweep two
   11-vector blocks.  With rows padded and aligned no vector load splits a
   cache line, and no block is swept twice.  The timed gradient stage of
   20-iteration ring-size solves went from a median 2639 to 1976 ns per
   iteration against 4-double blocks over unpadded rows, lower in every
   one of 1,980 alternating calls on the same operands (gcc 12.2 -O3
   -march=native, 2-vCPU AVX-512 virtual machine; BENCH_37.json).  Each
   vector width compiles its own bodies only, and no 2-vector block is
   kept: the build, which the first controller in a process waits for,
   stays no slower.  Dense sweeps of 4 to BLOCK - 1 columns keep blocks of
   16, 8 or 4 outputs (narrow_rows).

   Only `sweep`, `finish` and `factored_step` hold 8-double vectors: every
   other function, the whole iteration of a QP below BLOCK columns among
   them, compiles for 256-bit vectors (the pragma below).  Without it gcc
   12 -O3 -march=native vectorizes the loops of the set, the momentum
   update, the copies and the observer over 512-bit registers, which cost
   more than they gain at these lengths.  In one process, the builds
   alternating on the same measurements of the 8x8, N = 2 workload, the
   p90 of the raw untimed sample went from 3.54 to 2.05 us and, in a run
   on a slower host state, from 4.27 to 2.86 us with this pragma, the
   branch-free projection and narrow_rows' check together; the pragma
   alone read x0.90 and x1.07 of the parent, with the projection x0.62
   and x0.73.  The ring-size sample stayed level (BENCH_38.json).  The
   pragma is GCC's; clang has no prefer-vector-width target. */
#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC target("prefer-vector-width=256")
#endif
#define BLOCK 32
#define SMALL 16
#define VECTORS 11
#define PAD 8
#ifdef __AVX512F__
#define LANES 8
#else
#define LANES 4
#endif

/* n rounded up to a multiple of PAD: a padded row's length. */
static inline int64_t padded(int64_t n)
{
    return (n + PAD - 1) & -(int64_t)PAD;
}

/* Vectors of four and of LANES doubles (GCC's vector extension);
   -ffp-contract=off keeps their multiplies and adds separate, lane by lane
   the scalar ones. */
typedef double vd4 __attribute__((vector_size(4 * sizeof(double))));
typedef double vd __attribute__((vector_size(LANES * sizeof(double))));
/* A vector comparison's lanes: all ones where it holds, else zero. */
typedef int64_t vi4 __attribute__((vector_size(4 * sizeof(int64_t))));
typedef int64_t vi __attribute__((vector_size(LANES * sizeof(int64_t))));

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

static inline vd load(const double *p)
{
    vd x;
    memcpy(&x, p, sizeof x);
    return x;
}

static inline void store(double *p, vd x)
{
    memcpy(p, &x, sizeof x);
}

/* gradient_step's sweep below BLOCK columns, in blocks of 4 `vectors`
   outputs held as whole vectors, the last block overlapping the one
   before: t = W^T v - q, each output an ascending sum over the rows, which
   are `stride` doubles apart.  Returns 1, or 0 where an element of t is
   not finite, checked as `finish` checks it on the stored vectors. */
static inline __attribute__((always_inline))
int narrow_rows(const double *restrict w, int64_t rows, int64_t cols, int64_t stride,
                const double *restrict v, const double *restrict q_scaled,
                double *restrict t, int vectors)
{
    vi4 bad = {0};
    for (int64_t b = 0; b < cols; b += 4 * vectors) {
        const int64_t i = b + 4 * vectors <= cols ? b : cols - 4 * vectors;
        vd4 acc[4];
        for (int k = 0; k < vectors; k++)
            acc[k] = (vd4){0.0, 0.0, 0.0, 0.0};
        for (int64_t j = 0; j < rows; j++) {
            const double *restrict row = w + j * stride + i;
            const double vj = v[j];
            for (int k = 0; k < vectors; k++)
                acc[k] += load4(row + 4 * k) * vj;
        }
        for (int k = 0; k < vectors; k++) {
            const vd4 x = acc[k] - load4(q_scaled + i + 4 * k);
            store4(t + i + 4 * k, x);
            const vd4 zero = x - x;
            bad |= (vi4)(zero != zero);
        }
    }
    return !(bad[0] | bad[1] | bad[2] | bad[3]);
}

/* sums[s stride + i] for every right-hand side s and every lane i of the
   padded rows: seed[s stride + i] (0.0 where seed is NULL) plus row j's
   element i times coef[s coef_stride + j], over the `rows` rows in
   ascending j.  The rows are `stride` doubles apart, a multiple of PAD;
   sums and seed hold `stride` doubles per right-hand side. */
struct sweep {
    const double *at;
    int64_t rows, stride;
    const double *coef;
    int64_t coef_stride;
    const double *seed;
    double *sums;
};

/* The sweep's lanes from i, `vectors` whole vectors of every right-hand
   side, stored whole. */
static inline __attribute__((always_inline))
void sweep_block(const struct sweep *w, int64_t i, int rhs, int vectors)
{
    vd acc[2][VECTORS];
#pragma GCC unroll 2
    for (int s = 0; s < rhs; s++)
#pragma GCC unroll 11
        for (int k = 0; k < vectors; k++)
            acc[s][k] = w->seed ? load(w->seed + s * w->stride + i + LANES * k) : (vd){0.0};
    for (int64_t j = 0; j < w->rows; j++) {
        const double *restrict row = w->at + j * w->stride + i;
#pragma GCC unroll 2
        for (int s = 0; s < rhs; s++) {
            const double x = w->coef[s * w->coef_stride + j];
#pragma GCC unroll 11
            for (int k = 0; k < vectors; k++)
                acc[s][k] += load(row + LANES * k) * x;
        }
    }
#pragma GCC unroll 2
    for (int s = 0; s < rhs; s++)
#pragma GCC unroll 11
        for (int k = 0; k < vectors; k++)
            store(w->sums + s * w->stride + i + LANES * k, acc[s][k]);
}

/* `sweep` for a constant number of right-hand sides. */
static inline __attribute__((always_inline))
void sweep_rhs(const struct sweep *w, int rhs)
{
    for (int64_t i = 0; i < w->stride;) {
        const int64_t left = (w->stride - i) / LANES;
        if (left >= VECTORS) {
            sweep_block(w, i, rhs, VECTORS);
            i += LANES * VECTORS;
        } else if (left >= 6) {
            sweep_block(w, i, rhs, 6);
            i += LANES * 6;
        } else {
            sweep_block(w, i, rhs, 1);
            i += LANES;
        }
    }
}

/* Runs the sweep with `rhs` (1 or 2) right-hand sides. */
__attribute__((noinline))
static void sweep(const struct sweep *w, int rhs)
{
    if (rhs == 1)
        sweep_rhs(w, 1);
    else
        sweep_rhs(w, 2);
}

/* out[s out_stride + i] = sums[s stride + i] - shift[s shift_stride + i]
   for the `count` outputs i of each of the `rhs` right-hand sides (x - 0.0
   is x bit for bit).  Returns 1, or 0 where one is not finite (x - x is
   NaN exactly there). */
__attribute__((noinline))
static int finish(const double *sums, int64_t stride, int64_t count, int64_t rhs,
                  const double *shift, int64_t shift_stride, double *out, int64_t out_stride)
{
    vi bad = {0};
    int finite = 1;
    for (int64_t s = 0; s < rhs; s++) {
        const double *sum = sums + s * stride, *q = shift + s * shift_stride;
        double *o = out + s * out_stride;
        int64_t i = 0;
        for (; i + LANES <= count; i += LANES) {
            const vd x = load(sum + i) - load(q + i);
            store(o + i, x);
            const vd zero = x - x;
            bad |= (vi)(zero != zero);
        }
        for (; i < count; i++) {
            o[i] = sum[i] - q[i];
            finite &= isfinite(o[i]) != 0;
        }
    }
    for (int k = 0; k < LANES; k++)
        finite &= !bad[k];
    return finite;
}

/* t = W^T v - q for the rows x cols matrix W, whose rows are padded(cols)
   doubles apart, one block of outputs per sweep over its rows: with W = I
   - J / lambda_max (square and symmetric) and q / lambda_max, the gradient
   step; the modal entry points pass q = 0.  Returns 1, or 0 where an
   element of t is not finite.  From BLOCK columns, and below 4, one `sweep`
   into `sums` (padded(cols) doubles) and `finish`.  Between, the blocks are 16,
   8 or 4 outputs, the widest that fits, held as 4, 2 or 1 explicit
   4-double vectors, which narrow_rows checks for finiteness as it stores
   them: gcc 12.2 -O3 -march=native (AVX-512) compiles a plain-C block of
   16, 8 or 4 outputs into 2-double multiplies over pairs of rows, each
   followed by a chain of scalar vaddsd, where narrow_rows is one 256-bit
   multiply and add per vector and row: a call took 30 ns against 120 ns
   with 4-wide blocks at 16 x 16, and 60 ns at 17 x 17 (two overlapping
   16-blocks) against 152 ns (four 4-wide blocks and a 1-wide one).  The
   check on the stores replaced a scalar early-exit pass over t: in one
   process it took the p90 of the 8x8, N = 2 workload's raw untimed
   sample from 3.10 to 2.86 us (BENCH_38.json).  Kept out of line:
   inlined into fgm_solve, gcc 12 -O3 makes the ring-size (346-row) solve
   ~15% slower. */
__attribute__((noinline))
static int gradient_step(const double *w, int64_t rows, int64_t cols, const double *v,
                         const double *q_scaled, double *t, double *sums)
{
    const int64_t stride = padded(cols);
    if (cols >= BLOCK || cols < 4) {
        const struct sweep s = {w, rows, stride, v, 0, NULL, sums};
        sweep(&s, 1);
        return finish(sums, stride, cols, 1, q_scaled, 0, t, 0);
    }
    if (cols >= 16)
        return narrow_rows(w, rows, cols, stride, v, q_scaled, t, 4);
    if (cols >= 8)
        return narrow_rows(w, rows, cols, stride, v, q_scaled, t, 2);
    return narrow_rows(w, rows, cols, stride, v, q_scaled, t, 1);
}

/* t = W v - q / lambda_max in the factored form over n_k modes, laid out
   in `factors` (qp.pack_factors) as

     V_K     n_u rows of padded(n_k)
     V_K^T   n_k rows of padded(n_u)
     W_s     horizon^2          I - B_s / lambda_max, row-major
     M       horizon^2 n_k      entry (s, u) of every M_k = -(B_k - B_s) /
                                lambda_max, in rows of n_k by (s, u)

   with `scratch`, from a multiple of PAD, holding the sums (horizon
   max(padded(n_k), padded(n_u))), the seed (horizon padded(n_u)) and d
   (horizon n_k).  The projection c[s pk + k] = v_k . x_s sums over the
   rows of V_K into the sums, d_k = M_k c_k mixes each mode's stages, 0.0
   + M_k[s][0] c_0 + ... in ascending u, over vectors of 4 modes, and
   the expansion t_s[i] sums the shared block on x (the seed, formed first)
   and then the modes' terms d[s n_k + k] v_k in ascending k over the rows
   of V_K^T, then takes the shift.  Returns 1, or 0 where an element of t
   is not finite.  Out of line like gradient_step. */
__attribute__((noinline))
static int factored_step(const double *factors, int64_t n_k, int64_t n_u, int64_t horizon,
                         const double *restrict v, const double *q_scaled, double *t,
                         double *scratch)
{
    const int64_t pk = padded(n_k), pu = padded(n_u);
    const double *vk = factors, *vkt = vk + n_u * pk, *shared = vkt + n_k * pu;
    const double *mix = shared + horizon * horizon;
    double *sums = scratch, *seed = sums + horizon * (pk > pu ? pk : pu);
    double *restrict d = seed + horizon * pu;
    const struct sweep project = {vk, n_u, pk, v, n_u, NULL, sums};
    sweep(&project, (int)horizon);
    const double *c = sums;
    for (int64_t s = 0; s < horizon; s++) {
        const double *m = mix + s * horizon * n_k;
        double *restrict d_s = d + s * n_k;
        int64_t k = 0;
        for (; k + 4 <= n_k; k += 4) {
            vd4 x = {0.0, 0.0, 0.0, 0.0};
            for (int64_t u = 0; u < horizon; u++)
                x += load4(m + u * n_k + k) * load4(c + u * pk + k);
            store4(d_s + k, x);
        }
        for (; k < n_k; k++) {
            double x = 0.0;
            for (int64_t u = 0; u < horizon; u++)
                x += m[u * n_k + k] * c[u * pk + k];
            d_s[k] = x;
        }
    }
    for (int64_t s = 0; s < horizon; s++) {
        double *restrict out = seed + s * pu;
        const double *w = shared + s * horizon;
        int64_t i = 0;
        for (; i + LANES <= n_u; i += LANES) {
            vd x = (vd){0.0};
            for (int64_t u = 0; u < horizon; u++)
                x += load(v + u * n_u + i) * w[u];
            store(out + i, x);
        }
        for (; i < n_u; i++) {
            double x = 0.0;
            for (int64_t u = 0; u < horizon; u++)
                x += v[u * n_u + i] * w[u];
            out[i] = x;
        }
    }
    const struct sweep expand = {vkt, n_k, pu, d, n_k, seed, sums};
    sweep(&expand, (int)horizon);
    return finish(sums, pu, n_u, horizon, q_scaled, n_u, t, n_u);
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

/* qp._clip, np.minimum(np.maximum(x, lo), hi): a NaN x stays NaN, and an x
   equal to a bound is that bound (-0.0 clipped to [0.0, 1.0] is 0.0). */
static inline double clip(double x, double lo, double hi)
{
    return np_min(np_max(x, lo), hi);
}

/* np_max, np_min and clip lane by lane over 4-double vectors, for a b
   (a bound) that is not NaN: a NaN a is the result, and where the two
   compare equal b is.  Each is one comparison, !(a <= b) or !(a >= b),
   and `pick`, which takes a where the mask m is set and b elsewhere, bit
   for bit.  No lane that `project` keeps has a NaN bound: a set's bounds
   are not NaN, and the band case's rho - alpha and alpha - rho are NaN
   only where rho is infinite, whose lanes keep the clipped pair. */
static inline vd4 pick(vi4 m, vd4 a, vd4 b)
{
    return (vd4)((m & (vi4)a) | (~m & (vi4)b));
}

static inline vd4 max4(vd4 a, vd4 b)
{
    return pick(~(a <= b), a, b);
}

static inline vd4 min4(vd4 a, vd4 b)
{
    return pick(~(a >= b), a, b);
}

static inline vd4 clip4(vd4 x, vd4 lo, vd4 hi)
{
    return min4(max4(x, lo), hi);
}

/* The constraint set as qp.ConstraintSet holds it: box bounds of the
   stacked iterate and, for N = 2, the band half-widths and rho. */
struct set {
    int64_t n_u, horizon;
    const double *lower, *upper, *band, *rho;
};

/* qp._project_stacked for actuator i alone; alpha is the stage-1 upper
   bound. */
static void project_pair(const struct set *s, const double *t, double *out, int64_t i)
{
    const int64_t n = s->n_u;
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

/* The N = 1 clip, or qp._project_stacked on whole 4-double vectors of
   actuators and project_pair on the last n_u mod 4.  A vector forms both
   the clipped pair and the band case (step 2) in every lane and keeps the
   band case where |u1 - u0| exceeds the band, with fabs, copysign and
   signbit as operations on the sign bit: no lane's choice is a branch.  A
   lane that keeps its clipped pair throws away a band case that an
   infinite rho makes -inf + inf.  In one process on the 8x8, N = 2
   workload this projection alone took the p90 of the raw untimed sample
   to x0.77 of the parent's, and in 20-iteration timed ring-size samples
   the projection stage from 722 to 522 ns per iteration, where the same
   vectors with two comparisons per max4 took 670 ns against the
   parent's 594 (BENCH_38.json). */
static void project(const struct set *s, const double *t, double *out)
{
    const int64_t n = s->n_u;
    if (s->horizon == 1) {
        for (int64_t i = 0; i < n; i++)
            out[i] = clip(t[i], s->lower[i], s->upper[i]);
        return;
    }
    const double *lower = s->lower, *upper = s->upper, *band = s->band, *rhos = s->rho;
    const vi4 sign = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const vd4 t0 = load4(t + i), t1 = load4(t + n + i);
        const vd4 lo = load4(lower + i), hi = load4(upper + i);
        const vd4 lo1 = load4(lower + n + i), alpha = load4(upper + n + i);
        const vd4 rho = load4(rhos + i);
        const vd4 u0 = clip4(t0, lo, hi), u1 = clip4(t1, lo1, alpha);
        const vd4 gap = u1 - u0;
        const vi4 outside = (vd4)((vi4)gap & ~sign) > load4(band + i);
        const vi4 down = (vi4)gap < 0;
        const vd4 shift = (vd4)(((vi4)rho & ~sign) | ((vi4)gap & sign));
        vd4 s0 = t0 + t1;
        s0 -= shift;
        s0 *= 0.5;
        const vd4 b0 = clip4(s0, pick(down, max4(lo, rho - alpha), lo),
                             pick(down, hi, min4(hi, alpha - rho)));
        const vd4 b1 = clip4(b0 + shift, lo1, alpha);
        store4(out + i, pick(outside, b0, u0));
        store4(out + n + i, pick(outside, b1, u1));
    }
    for (; i < n; i++)
        project_pair(s, t, out, i);
}

/* An untimed solve of a dense QP of at most SMALL variables keeps its
   state in 1 or 4 vectors of 4 doubles, by stage: vector m holds
   count[m] (0 to 4) stacked values from base[m], stage s's from vector
   s vectors / N on, so at N = 2 actuator i's two stages sit in one lane
   of vectors m and m + vectors / 2.  small_gather lays the solve's inputs
   out so, zero in the other lanes, and small_scatter stores the iterate
   back. */
struct small_state {
    double q[SMALL], lower[SMALL], upper[SMALL], p[SMALL];
    double band[SMALL / 2], rho[SMALL / 2]; /* N = 2: by stage-0 vector */
    int64_t base[SMALL / 4];
    int count[SMALL / 4];
};

/* x[0], ..., x[count - 1] (count 0 to 4), zero in the other lanes. */
static inline vd4 load_part(const double *x, int count)
{
    switch (count) {
    case 4:
        return load4(x);
    case 3:
        return (vd4){x[0], x[1], x[2], 0.0};
    case 2:
        return (vd4){x[0], x[1], 0.0, 0.0};
    case 1:
        return (vd4){x[0], 0.0, 0.0, 0.0};
    default:
        return (vd4){0.0, 0.0, 0.0, 0.0};
    }
}

__attribute__((noinline))
static void small_gather(struct small_state *st, int64_t n_u, int64_t horizon, int vectors,
                         const double *set, const double *q_scaled, const double *p)
{
    const int64_t n = horizon * n_u, lanes = 4 * vectors / horizon;
#pragma GCC unroll 1
    for (int m = 0; m < vectors; m++) {
        const int64_t i = 4 * m % lanes, left = n_u - i;
        const int count = left <= 0 ? 0 : left >= 4 ? 4 : (int)left;
        const int64_t base = count ? 4 * m / lanes * n_u + i : 0;
        /* the band half-widths and rho by stage-0 vector */
        const int arrays = horizon == 2 && m < vectors / 2 ? 6 : 4;
        const double *from[6] = {q_scaled, p, set, set + n, set + 2 * n, set + 2 * n + n_u};
        double *to[6] = {st->q, st->p, st->lower, st->upper, st->band, st->rho};
        st->count[m] = count;
        st->base[m] = base;
#pragma GCC unroll 1
        for (int k = 0; k < arrays; k++)
            store4(to[k] + 4 * m, load_part(from[k] + base, count));
    }
}

/* The iterate's values out of the state, into out. */
__attribute__((noinline))
static void small_scatter(const struct small_state *st, int vectors, double *out)
{
#pragma GCC unroll 1
    for (int m = 0; m < vectors; m++) {
        const double *x = st->p + 4 * m;
        double *o = out + st->base[m];
        switch (st->count[m]) {
        case 4:
            o[3] = x[3];
            /* fall through */
        case 3:
            o[2] = x[2];
            /* fall through */
        case 2:
            o[1] = x[1];
            /* fall through */
        case 1:
            o[0] = x[0];
        }
    }
}

static inline int any4(vi4 m)
{
    return (m[0] | m[1] | m[2] | m[3]) != 0;
}

/* `run` for an untimed solve of a dense QP of at most SMALL variables, on
   the first `vectors` (1 or 4) of small_state's vectors, which
   hold the whole state in registers for the whole solve: the iterate p,
   the momentum point v, the shift q / lambda_max and the set's bounds.
   Lanes past count[m] are masked out of the check and the compare.  An
   iteration is narrow_rows into registers, the rows in ascending order
   and each lane an ascending sum, its check on the outputs, `project`,
   the momentum update and a bit compare equal to memcmp's, on those
   registers; so the bits, the exit and a failing iteration are the
   generic loop's.  The projection's band case is formed for both signs
   of gap (shift +|rho| and -|rho|) and picked by gap's sign, each lane
   the same operations as `project`'s on the one it keeps; its clipped
   bounds max(lo, rho - alpha) and min(hi, alpha - rho) are formed once.
   Its vector max and min agree with np_max and np_min on bounds that are
   not NaN, which every set the package builds holds.  p is stored back
   into the state when the solve ends. */
static inline __attribute__((always_inline))
int64_t small_solve(const double *w, int64_t n_u, int64_t horizon, double beta, int64_t budget,
                    struct small_state *st, int64_t *iterations, int vectors)
{
    const int64_t stride = padded(horizon * n_u);
    const int pairs = vectors / 2;
    const vi4 lane = {0, 1, 2, 3}, sign = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};
    const double beta_1 = 1.0 + beta;
    int64_t base[4];
    int count[4];
    vi4 valid[4];
    vd4 q[4], lo[4], hi[4], p[4], v[4];
    /* N = 2: the band half-width, +|rho| and the band case's clipped
       bounds, by actuator (stage-0 vector) */
    vd4 band[2], up[2], lo_down[2], hi_up[2];
#pragma GCC unroll 4
    for (int m = 0; m < vectors; m++) {
        base[m] = st->base[m];
        count[m] = st->count[m];
        valid[m] = lane < count[m];
        q[m] = load4(st->q + 4 * m);
        lo[m] = load4(st->lower + 4 * m);
        hi[m] = load4(st->upper + 4 * m);
        p[m] = load4(st->p + 4 * m);
    }
#pragma GCC unroll 2
    for (int m = 0; m < pairs; m++) {
        const vd4 rho = load4(st->rho + 4 * m), alpha = hi[m + pairs];
        band[m] = load4(st->band + 4 * m);
        up[m] = (vd4)((vi4)rho & ~sign);
        lo_down[m] = max4(lo[m], rho - alpha);
        hi_up[m] = min4(hi[m], alpha - rho);
    }
#pragma GCC unroll 4
    for (int m = 0; m < vectors; m++)
        v[m] = p[m];
    int64_t it = 0;
    int was_unchanged = 0;
    while (it < budget) {
        vd4 t[4];
#pragma GCC unroll 4
        for (int o = 0; o < vectors; o++)
            t[o] = (vd4){0.0, 0.0, 0.0, 0.0};
#pragma GCC unroll 4
        for (int m = 0; m < vectors; m++)
#pragma GCC unroll 4
            for (int l = 0; l < 4; l++)
                if (l < count[m]) {
                    const double *restrict row = w + (base[m] + l) * stride;
                    const double vj = v[m][l];
#pragma GCC unroll 4
                    for (int o = 0; o < vectors; o++)
                        t[o] += load4(row + base[o]) * vj;
                }
        vi4 bad = {0, 0, 0, 0};
#pragma GCC unroll 4
        for (int o = 0; o < vectors; o++) {
            t[o] -= q[o];
            const vd4 zero = t[o] - t[o];
            bad |= valid[o] & (zero != zero);
        }
        if (any4(bad))
            return it;
        vd4 p_new[4];
        if (horizon == 1) {
#pragma GCC unroll 4
            for (int m = 0; m < vectors; m++)
                p_new[m] = clip4(t[m], lo[m], hi[m]);
        } else {
#pragma GCC unroll 2
            for (int m = 0; m < pairs; m++) {
                const vd4 t0 = t[m], t1 = t[m + pairs], lo1 = lo[m + pairs], alpha = hi[m + pairs];
                const vd4 u0 = clip4(t0, lo[m], hi[m]), u1 = clip4(t1, lo1, alpha);
                const vd4 gap = u1 - u0;
                const vi4 outside = (vd4)((vi4)gap & ~sign) > band[m];
                const vi4 down = (vi4)gap < 0;
                const vd4 sum = t0 + t1, down_shift = (vd4)((vi4)up[m] | sign);
                vd4 s_up = sum - up[m], s_down = sum - down_shift;
                s_up *= 0.5;
                s_down *= 0.5;
                const vd4 b0_up = clip4(s_up, lo[m], hi_up[m]);
                const vd4 b0_down = clip4(s_down, lo_down[m], hi[m]);
                const vd4 b1_up = clip4(b0_up + up[m], lo1, alpha);
                const vd4 b1_down = clip4(b0_down + down_shift, lo1, alpha);
                p_new[m] = pick(outside, pick(down, b0_down, b0_up), u0);
                p_new[m + pairs] = pick(outside, pick(down, b1_down, b1_up), u1);
            }
        }
        vi4 moved = {0, 0, 0, 0};
#pragma GCC unroll 4
        for (int m = 0; m < vectors; m++) {
            v[m] = p_new[m] * beta_1 - p[m] * beta;
            moved |= valid[m] & ((vi4)p_new[m] != (vi4)p[m]);
            p[m] = p_new[m];
        }
        it++;
        const int unchanged = !any4(moved);
        if (unchanged && was_unchanged)
            break;
        was_unchanged = unchanged;
    }
#pragma GCC unroll 4
    for (int m = 0; m < vectors; m++)
        store4(st->p + 4 * m, p[m]);
    *iterations = it;
    return -1;
}

__attribute__((noinline))
static int64_t small_solve_1(const double *w, int64_t n_u, double beta, int64_t budget,
                             struct small_state *st, int64_t *iterations)
{
    return small_solve(w, n_u, 1, beta, budget, st, iterations, 1);
}

__attribute__((noinline))
static int64_t small_solve_4(const double *w, int64_t n_u, int64_t horizon, double beta,
                             int64_t budget, struct small_state *st, int64_t *iterations)
{
    return small_solve(w, n_u, horizon, beta, budget, st, iterations, 4);
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
 * set, n = horizon n_u.  With n_k < 0, `w` is the dense W, n rows of
 * padded(n) doubles; otherwise it is the factored form over n_k modes,
 * laid out as factored_step states.  `set` is the array qp.ConstraintSet
 * packs:
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
 *   scratch           4 n
 *   sums              from padded(6 n + 4): padded(n) for the dense W; for
 *                     the factored form horizon max(padded(n_k),
 *                     padded(n_u)), then the seed, horizon padded(n_u),
 *                     and d, horizon n_k
 *
 * fgm_sizes gives the lengths of w, set and data that this layout reads.
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
 * An untimed dense solve of at most SMALL variables runs the same
 * iteration in registers (small_solve), with a compare equal to memcmp's.
 *
 * With `timed` non-zero the loop runs every iteration, and stage_ns
 * accumulates the nanoseconds of the gradient step (with its finiteness
 * check), the projection and the momentum update.  Returns -1, or the
 * iteration whose gradient step has a non-finite element; the projection
 * would otherwise clip an infinity to a bound.
 */
int64_t fgm_solve(const double *w, int64_t n_k, int64_t n_u, int64_t horizon, double beta,
                  int64_t budget, const double *set, double *data, int64_t timed);

/* The doubles fgm_solve reads from w, set and data, in that order, for a
   horizon of 1 or 2, n_u >= 1 and n_k >= -1. */
void fgm_sizes(int64_t n_k, int64_t n_u, int64_t horizon, int64_t sizes[3])
{
    const int64_t n = horizon * n_u, fixed = padded(6 * n + 4);
    if (n_k < 0) {
        sizes[0] = n * padded(n);
        sizes[2] = fixed + padded(n);
    } else {
        const int64_t pk = padded(n_k), pu = padded(n_u);
        sizes[0] = n_u * pk + n_k * pu + (n_k + 1) * horizon * horizon;
        sizes[2] = fixed + horizon * ((pk > pu ? pk : pu) + pu + n_k);
    }
    sizes[1] = horizon == 1 ? 2 * n : 3 * n;
}

/* fgm_solve, leaving the last projected iterate in the scratch, where
   *result points, and the workspace's iterate as it was. */
__attribute__((noinline))
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
    double *const sums = data + padded(6 * n + 4);
    const double beta_1 = 1.0 + beta;
    int64_t tic = 0, it = 0;
    int was_unchanged = 0;

    project(&s, iterate, p);
    if (!timed && n_k < 0 && n <= SMALL) {
        const int vectors = horizon == 1 && n <= 4 ? 1 : 4;
        struct small_state st;
        small_gather(&st, n_u, horizon, vectors, set, q_scaled, p);
        const int64_t failed = vectors == 1 ? small_solve_1(w, n_u, beta, budget, &st, &it)
                                            : small_solve_4(w, n_u, horizon, beta, budget, &st, &it);
        if (failed >= 0)
            return failed;
        small_scatter(&st, vectors, p);
        *iterations = (double)it;
        *result = p;
        return -1;
    }
    memcpy(v, p, (size_t)n * sizeof *v);
    while (it < budget) {
        if (timed)
            tic = now_ns();
        const int finite = n_k < 0 ? gradient_step(w, n, n, v, q_scaled, t, sums)
                                   : factored_step(w, n_k, n_u, horizon, v, q_scaled, t, sums);
        if (!finite)
            return it;
        if (timed)
            lap(&stage_ns[0], &tic);
        project(&s, t, p_new);
        if (timed)
            lap(&stage_ns[1], &tic);
        int64_t i = 0;
        for (; i + 4 <= n; i += 4)
            store4(v + i, load4(p_new + i) * beta_1 - load4(p + i) * beta);
        for (; i < n; i++)
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

     w       n_u rows of padded(n_u)   [V, V_perp]
     wt      n_u rows of padded(n_u)   its transpose
     u       n_y rows of padded(r)     U
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
     q~      horizon n_u scratch: the linear term by mode
     sums    horizon padded(n_u), from a multiple of PAD: the sweeps'
                         scratch */
/* Not restrict: `advance` checks and copies the whole block through x. */
struct estimates {
    double *x, *z, *d, *s, *q;
};

struct modal {
    int64_t r, block; /* block: the length of one struct estimates */
    int64_t pu;       /* padded(n_u): the length of a row of w and wt */
    const double *restrict w, *restrict wt, *restrict u, *restrict sigma, *restrict k_z,
        *restrict k_d, *restrict alpha, *restrict beta, *restrict powers, *restrict zeros;
    double a, b, k_0;
    struct estimates now, next;
    double *restrict yt, *restrict ut, *restrict dy, *restrict qt, *restrict sums;
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
    m.pu = padded(n_u);
    m.w = c->record;
    m.wt = m.w + n_u * m.pu;
    m.u = m.wt + n_u * m.pu;
    m.sigma = m.u + n_y * padded(m.r);
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
    m.sums = c->state + padded(m.qt + c->horizon * n_u - c->state);
    return m;
}

/* e->q = [V, V_perp] q~_s for each stage s, with q~_s = alpha_s x~ +
   beta_s d~ from e's estimates mode by mode (alpha_s x~ alone on the
   n_u - r modes outside range(C^T)); horizon n_u values, stage-major.
   From BLOCK inputs both stages take one sweep over the rows of
   [V, V_perp]^T, which then is read once. */
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
    if (n_u >= BLOCK) {
        const struct sweep both = {m->wt, n_u, m->pu, m->qt, n_u, NULL, m->sums};
        sweep(&both, (int)c->horizon);
        finish(m->sums, m->pu, n_u, c->horizon, m->zeros, 0, e->q, n_u);
    } else {
        for (int64_t s = 0; s < c->horizon; s++)
            gradient_step(m->wt, n_u, n_u, m->qt + s * n_u, m->zeros, e->q + s * n_u, m->sums);
    }
}

/* y~ = U^T y.  Returns 0 where an entry of y~ is not finite: y has a
   non-finite entry, which makes every entry non-finite, or a finite y
   overflows in the product. */
static int measure(const struct modal *m, const struct context *c, const double *y)
{
    return gradient_step(m->u, c->n_y, m->r, y, m->zeros, m->yt, m->sums);
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
    gradient_step(m->w, n_u, n_u, u, m->zeros, m->ut, m->sums);
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
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(c->data + i, load4(m.now.q + i) / c->lambda_max);
    for (; i < n; i++)
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
