"""Condensed QP construction and the constraint-set projections.

Eliminating the states from the horizon-N optimal control problem gives

    min_u 0.5 u^T J u + q^T u    s.t.  u in U_N,

with q = q_map_x0 x0 + q_map_d d_bar affine in the current state and
disturbance estimates.  A and B are diagonal: input j moves state k > j
through the diagonal g_kj = A^(k-1-j) B, and state k is weighted by
Omega_k = Q for 1 <= k < N and Omega_N = P, so every block is a diagonal
scaling of Q, P or R_w and is formed directly, without prediction matrices:

    J_ij       = sum_{k > max(i,j)} diag(g_ki) Omega_k diag(g_kj) + delta_ij R_w
    q_map_x0_i = sum_{k > i} diag(g_ki) Omega_k diag(A^k)
    q_map_d_i  = -(sum_{k > i} diag(g_ki) Omega_k + R_w) M_s

q is the gradient at u = 0 with the steady-state target x_s = u_s =
M_s d_bar (design.setpoint_matrix) folded in, so no target is computed
online.

On a plant whose actuators share one bandwidth (A = a I, B = b I) the
weights Q, R_w and P are diagonal in one orthonormal basis [V, V_perp] of
the inputs, with modal values q_i, r_i and p_i, so J is block diagonal
in it: J = sum_i B_i (x) v_i v_i^T, one N x N block per mode, with (x)
taken in the stage-major order of the stacked iterate.  The blocks are
closed forms (design.modal_hessian builds them): b^2 p + r for N = 1, and

    [[b^2 q + a^2 b^2 p + r,  a b^2 p],
     [a b^2 p,                b^2 p + r]]    for N = 2.

`ModalHessian` holds them.  Its spectral bounds are those of the stacked
blocks, so no dense eigensolve is needed.  Most modes of a saturated
design share one bit-equal block B_s (every mode whose q is clamped), and

    J v = (B_s (x) I) v + sum_{k in K} ((B_k - B_s) (x) v_k v_k^T) v

over the set K of the other modes costs N^2 n_u + 2 N |K| n_u + N^2 |K|
multiplies instead of the dense (N n_u)^2.  The compiled solve iterates
on this factored form whenever it needs fewer multiplies (the flop rule,
`CondensedQP.hessian_form`); the dense J and W stay the reference, which
the numpy loop runs, and mixed-bandwidth plants have no modal form.

U_N couples amplitude and slew-rate limits.  For N = 1 each coordinate is
clipped to an interval.  For N = 2 each actuator's stage pair lies in the
box [lo, hi] x [-alpha, alpha] (lo, hi from the previously applied input)
cut by the band |u1 - u0| <= rho, a possibly degenerate hexagon, and is
projected exactly in two steps: clip to the box, and if the clipped pair
leaves the band, project onto the segment of the violated band edge
inside the box.  This is exact because a band constraint inactive at the
optimum would make the box projection optimal, and by convexity the
active side is the one the box projection violates.  The projection is
unique, so no tie-break exists; a 1e-12 (1 + alpha + rho) band tolerance
(|u_prev| + 2 rho in place of an infinite alpha) keeps it exactly
idempotent.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from .errors import DimensionError, InfeasibleError, NumericalError
from .model import StateSpace

SUPPORTED_HORIZONS = (1, 2)
# Rows per block of the BLAS dgemv kernel (OpenBLAS's dgemv_t takes 4 rows
# of W at a time): the rows of CondensedQP.W are zero-padded to a multiple
# of this, and every worker slice starts on one.
ROW_BLOCK = 4
# The compiled kernel's matrices (CondensedQP.W_rows and .factors, the
# modal record's maps) hold each row from a 64-byte boundary, zero-padded
# to a multiple of this many doubles, so its sweeps run whole aligned
# vectors (see fgm_kernel.c).
ROW_PAD = 8
# Largest relative gap allowed between J and its modal form in one probe product
MODAL_FORM_TOLERANCE = 1e-13


def padded(n: int) -> int:
    """n rounded up to a multiple of ROW_PAD: a padded row's length."""
    return -(-n // ROW_PAD) * ROW_PAD


def aligned_zeros(size: int) -> np.ndarray:
    """A zeroed float64 array of `size` values whose data starts on a
    64-byte boundary (numpy's own allocations start on 16)."""
    raw = np.zeros(size + ROW_PAD)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start:start + size]


def pack(parts) -> np.ndarray:
    """The arrays `parts` in one aligned_zeros array, in order: each 2-d
    one as its rows zero-padded to padded(columns) doubles, any other
    raveled."""
    sizes = [a.shape[0] * padded(a.shape[1]) if a.ndim == 2 else a.size for a in parts]
    out = aligned_zeros(sum(sizes))
    at = 0
    for a, size in zip(parts, sizes):
        block = out[at:at + size]
        if a.ndim == 2:
            block.reshape(a.shape[0], -1)[:, :a.shape[1]] = a
        else:
            block[:] = a.ravel()
        at += size
    return out


def pack_factors(shared: np.ndarray, mix: np.ndarray, V_K: np.ndarray,
                 V_K_T: np.ndarray) -> np.ndarray:
    """The factored form as `fgm_kernel.c` reads it (factored_step): the
    padded rows of V_K (n_u, |K|) and V_K_T (|K|, n_u), then the shared
    block (N, N) and the mixing blocks (|K|, N, N), in one aligned
    array."""
    return pack([V_K, V_K_T, shared.ravel(), mix.ravel()])


@dataclasses.dataclass(frozen=True, eq=False)
class ModalHessian:
    """The condensed Hessian of a one-bandwidth plant by mode (see the
    module docstring): `blocks` (n_u, N, N) holds mode i's block, column i
    of the orthonormal `basis` (n_u, n_u) is v_i.

    The shared block is the most common one among the bit-equal blocks
    (the first such on a tie); `modes` lists the others, K, with their
    columns `V_K` (n_u, |K|) and differences `deltas` (|K|, N, N) from it.
    `costs`, where the design gives it, holds the per-mode state weight,
    input weight and terminal cost (q_i, r_i, p_i) the blocks were formed
    from, as rows of a (3, n_u) array.
    """

    blocks: np.ndarray
    basis: np.ndarray
    costs: np.ndarray | None = None
    shared: np.ndarray = dataclasses.field(init=False, repr=False)
    modes: np.ndarray = dataclasses.field(init=False, repr=False)
    V_K: np.ndarray = dataclasses.field(init=False, repr=False)
    deltas: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n_u, N = self.blocks.shape[0], self.blocks.shape[-1]
        if N not in SUPPORTED_HORIZONS or self.blocks.shape != (n_u, N, N):
            raise DimensionError(f"modal blocks of shape {self.blocks.shape} are not (n_u, N, N) "
                                 f"with N in {SUPPORTED_HORIZONS}")
        if self.basis.shape != (n_u, n_u):
            raise DimensionError(f"modal basis shape {self.basis.shape} != {(n_u, n_u)}")
        keys = [block.tobytes() for block in self.blocks]
        common = collections.Counter(keys).most_common(1)[0][0]
        shared = self.blocks[keys.index(common)]
        modes = np.array([i for i, key in enumerate(keys) if key != common], dtype=np.intp)
        for name, value in (("shared", shared), ("modes", modes),
                            ("V_K", np.ascontiguousarray(self.basis[:, modes])),
                            ("deltas", self.blocks[modes] - shared)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.blocks.shape[-1]

    @property
    def n_u(self) -> int:
        return self.blocks.shape[0]

    def multiplies(self) -> int:
        """Multiplies of one factored product: the shared block on every
        mode, |K| projections and expansions per stage, and the mixing."""
        N, n_u, k = self.N, self.n_u, self.modes.shape[0]
        return N * N * n_u + 2 * N * k * n_u + N * N * k

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """J v for a stage-major stacked v, in the factored form."""
        x = np.asarray(v, dtype=float).reshape(self.N, self.n_u)
        c = x @ self.V_K                                # (N, |K|): v_k^T x_s
        d = np.einsum("kst,tk->sk", self.deltas, c)      # (N, |K|)
        return (self.shared @ x + d @ self.V_K.T).ravel()

    def spectral_bounds(self):
        """(lambda_min, lambda_max, beta) from the eigenvalues of the
        stacked blocks; a block that is not finite and positive definite
        raises NumericalError."""
        if not np.all(np.isfinite(self.blocks)):
            raise NumericalError("Hessian not positive definite: a modal block has non-finite entries")
        eigs = self.blocks[:, 0, 0] if self.N == 1 else np.linalg.eigvalsh(self.blocks)
        lmin, lmax = float(np.min(eigs)), float(np.max(eigs))
        return lmin, lmax, momentum(lmin, lmax)


@dataclasses.dataclass(frozen=True, eq=False)
class CondensedQP:
    """Hessian, linear-term maps and spectral data of the condensed QP.

    `W` is the fast-gradient step matrix I - J / lambda_max, built once
    here with its rows zero-padded to a multiple of ROW_BLOCK, shape
    (n + (-n) % ROW_BLOCK, n).  It is the first n columns of `W_rows`,
    whose rows are padded to padded(n) doubles from 64-byte boundaries
    (see pack).  `fgm` multiplies it by the iterate in its compiled
    kernel, which reads `W_rows` and column i of W as row i, or else with
    one BLAS gemv per block of rows starting on a multiple of ROW_BLOCK,
    so every row runs through the same 4-row kernel path.  So `J` must be
    exactly symmetric, as `build_condensed` makes it; any other is refused.

    `modal`, on one-bandwidth plants, is J by mode.  A form whose product
    with a fixed probe vector differs from J's by more than
    MODAL_FORM_TOLERANCE relative is refused.  Where the factored product
    needs fewer multiplies than the dense one, `factors` holds it for the
    compiled kernel, laid out as `pack_factors` packs it: V_K and V_K^T,
    I - B_s / lambda_max and the -(B_k - B_s) / lambda_max.
    """

    J: np.ndarray
    q_map_x0: np.ndarray
    q_map_d: np.ndarray
    lambda_min: float
    lambda_max: float
    beta: float
    N: int
    n_u: int
    modal: ModalHessian | None = None
    W: np.ndarray = dataclasses.field(init=False, repr=False)
    W_rows: np.ndarray = dataclasses.field(init=False, repr=False)
    factors: np.ndarray | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n = self.J.shape[0]
        if self.J.shape != (n, n):
            raise DimensionError(f"Hessian shape {self.J.shape} is not square")
        if not np.array_equal(self.J, self.J.T):  # a NaN entry fails it too
            gap = np.abs(self.J - self.J.T)
            i, j = np.unravel_index(np.argmax(np.nan_to_num(gap, nan=np.inf)), gap.shape)
            raise NumericalError(f"Hessian not exactly symmetric: J[{i}, {j}] = {self.J[i, j]!r} "
                                 f"but J[{j}, {i}] = {self.J[j, i]!r}")
        rows = aligned_zeros((n + (-n) % ROW_BLOCK) * padded(n)).reshape(-1, padded(n))
        w = rows[:n, :n]
        np.negative(np.divide(self.J, self.lambda_max, out=w), out=w)
        w[np.arange(n), np.arange(n)] += 1.0
        object.__setattr__(self, "W_rows", rows)
        object.__setattr__(self, "W", rows[:, :n])
        object.__setattr__(self, "factors", None if self.modal is None else self._factor())

    def _factor(self) -> np.ndarray | None:
        """Check the modal form against J; the kernel's factored step
        matrix where the flop rule picks it, else None."""
        modal, n = self.modal, self.J.shape[0]
        if (modal.N, modal.n_u) != (self.N, self.n_u):
            raise DimensionError(f"modal form of horizon {modal.N} and {modal.n_u} inputs for a "
                                 f"QP of horizon {self.N} and {self.n_u} inputs")
        probe = np.sin(np.arange(1.0, n + 1.0))  # fixed, with no entry repeated
        want = self.J @ probe
        gap = float(np.linalg.norm(modal.matvec(probe) - want) / np.linalg.norm(want))
        if not gap <= MODAL_FORM_TOLERANCE:  # NaN fails too
            raise NumericalError(
                f"Hessian J disagrees with its modal blocks: a probe product differs by "
                f"{gap:.1e} relative, tolerance {MODAL_FORM_TOLERANCE:.0e}; J is built from the "
                f"weights Q and R_w and the terminal cost P, the blocks from q_hat, r_hat and "
                f"the basis V")
        if modal.multiplies() >= n * n:
            return None
        lam = self.lambda_max
        return pack_factors(np.eye(self.N) - modal.shared / lam, -(modal.deltas / lam),
                            modal.V_K, modal.V_K.T)

    @property
    def hessian_form(self) -> str:
        """'factored' where the compiled solve iterates on the factored
        form, else 'dense'."""
        return "dense" if self.factors is None else "factored"

    @property
    def factored_modes(self) -> int | None:
        """|K|, the modes whose block differs from the shared one; None
        without a modal form."""
        return None if self.modal is None else int(self.modal.modes.shape[0])

    def linear_term(self, x0: np.ndarray, d_bar: np.ndarray) -> np.ndarray:
        """q = q_map_x0 x0 + q_map_d d_bar, as a new array."""
        return self.q_map_x0 @ x0 + self.q_map_d @ d_bar


def momentum(lmin: float, lmax: float) -> float:
    """The fast gradient method's momentum (sqrt(lmax) - sqrt(lmin)) /
    (sqrt(lmax) + sqrt(lmin)) for Hessian bounds 0 < lmin <= lmax < inf;
    bounds outside that range, NaN among them, raise NumericalError naming
    the bound."""
    if not lmin > 0.0:
        raise NumericalError(f"Hessian not positive definite (lambda_min = {lmin:.3e})")
    if not lmin <= lmax < np.inf:
        raise NumericalError(f"lambda_max = {lmax:.3e} is not finite and >= lambda_min = {lmin:.3e}")
    beta = (np.sqrt(lmax) - np.sqrt(lmin)) / (np.sqrt(lmax) + np.sqrt(lmin))
    return float(beta)


def spectral_bounds(J: np.ndarray):
    """(lambda_min, lambda_max, beta) from a full symmetric eigensolve; a J
    that is not finite and positive definite raises NumericalError."""
    if not np.all(np.isfinite(J)):
        raise NumericalError("Hessian not positive definite: it has non-finite entries")
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    return lmin, lmax, momentum(lmin, lmax)


def build_condensed(ss: StateSpace, weights, terminal, M_s: np.ndarray, N: int,
                    modal: ModalHessian | None = None) -> CondensedQP:
    """The condensed QP of one horizon, its blocks formed as the module
    docstring states.  The spectral bounds are its one positive-definiteness
    check: those of the modal blocks where `modal` is given, else
    spectral_bounds of J."""
    if N not in SUPPORTED_HORIZONS:
        raise DimensionError(f"horizon must be one of {SUPPORTED_HORIZONS}, got {N}")
    n = ss.n_u
    block = [slice(i * n, (i + 1) * n) for i in range(N)]
    g = [ss.a_power(m) * ss.B for m in range(N)]  # g_kj = g[k - 1 - j]
    J = np.zeros((N * n, N * n))
    q_map_x0 = np.zeros((N * n, n))
    weighted = np.zeros((N * n, n))  # block i: sum_{k > i} diag(g_ki) Omega_k
    for k in range(1, N + 1):
        omega = terminal.P if k == N else weights.Q
        for i in range(k):
            g_omega = g[k - 1 - i][:, None] * omega
            weighted[block[i]] += g_omega
            q_map_x0[block[i]] += g_omega * ss.a_power(k)
            for j in range(k):
                J[block[i], block[j]] += g_omega * g[k - 1 - j]
    for b in block:
        J[b, b] += weights.R_w
    J = 0.5 * (J + J.T)
    q_map_d = -(weighted @ M_s + np.tile(weights.R_w @ M_s, (N, 1)))
    lmin, lmax, beta = spectral_bounds(J) if modal is None else modal.spectral_bounds()
    return CondensedQP(
        J=J,
        q_map_x0=q_map_x0,
        q_map_d=q_map_d,
        lambda_min=lmin,
        lambda_max=lmax,
        beta=beta,
        N=N,
        n_u=n,
        modal=modal,
    )


# ---------------------------------------------------------------------------
# Constraint sets and projections
# ---------------------------------------------------------------------------

def _band(alpha, rho, u_prev):
    """rho + tolerance; |u_prev| + 2 rho, the farthest u1 reaches, stands
    in for an infinite alpha."""
    scale = np.where(np.isinf(alpha), np.abs(u_prev) + 2.0 * rho, alpha)
    return rho + 1e-12 * (1.0 + scale + rho)


@dataclasses.dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Per-actuator amplitude/slew-rate limits around the last applied input.

    Stage-0 inputs live in [max(-alpha, u_prev - rho), min(alpha,
    u_prev + rho)]; for N = 2 the stage pair is additionally coupled by
    |u1 - u0| <= rho and |u1| <= alpha.  The set is laid out stage-major:
    a horizon-N iterate stacks N blocks of n_u entries.

    The data the projection reads is computed here, once per set, into
    one array, `_packed`, in the layout `fgm_kernel.c` reads: the box
    bounds of the stacked iterate, lower then upper (stage-0 interval, and
    [-alpha, alpha] for stage 1), and for N = 2 the widened band
    half-width and rho, 6 n_u values.  `_lower`, `_upper` and `_band` are
    views of it, and nothing writes it after the set is built.  The set
    keeps a copy of the u_prev it is given.  A set whose stage-0 interval
    is empty or NaN for some actuator cannot be built, so the projections
    and the diameter take feasibility as given.

    `update_constraint_set` recentres a set on a new input in a copy of
    its array, whose stage-1 box, finite-alpha band half-widths and rho
    depend only on the limits, so every set with the same limits shares
    them; `_centre` writes the other entries.
    """

    alpha: np.ndarray
    rho: np.ndarray
    u_prev: np.ndarray
    N: int
    _packed: np.ndarray = dataclasses.field(init=False, repr=False)
    _lower: np.ndarray = dataclasses.field(init=False, repr=False)
    _upper: np.ndarray = dataclasses.field(init=False, repr=False)
    # N = 2 only: rho + tolerance
    _band: np.ndarray | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        u_prev = np.atleast_1d(np.asarray(self.u_prev, dtype=float))
        if self.N not in SUPPORTED_HORIZONS:
            raise DimensionError(f"horizon must be one of {SUPPORTED_HORIZONS}")
        if not (alpha.shape == rho.shape == u_prev.shape) or alpha.ndim != 1:
            raise DimensionError("alpha, rho, u_prev must share one shape")
        n = alpha.shape[0]
        packed = np.zeros(2 * n if self.N == 1 else 6 * n)
        if self.N == 2:
            packed[n:2 * n] = -alpha
            packed[3 * n:4 * n] = alpha
            packed[4 * n:5 * n] = _band(alpha, rho, u_prev)
            packed[5 * n:6 * n] = rho
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rho", rho)
        self._centre(packed, u_prev)

    def _centre(self, packed: np.ndarray, u_prev: np.ndarray) -> None:
        """Write the entries of the set array `packed` that depend on
        u_prev, its others being filled in, and set the fields that depend
        on it; raises InfeasibleError on an empty stage-0 interval."""
        alpha, rho = self.alpha, self.rho
        n = alpha.shape[0]
        lo, hi = packed[:n], packed[self.N * n:(self.N + 1) * n]
        np.maximum(-alpha, np.subtract(u_prev, rho, out=lo), out=lo)
        np.minimum(alpha, np.add(u_prev, rho, out=hi), out=hi)
        if np.count_nonzero(lo <= hi) < n:  # NaN fails `<=` too
            bad = np.flatnonzero(~(lo <= hi))
            raise InfeasibleError(
                f"empty stage set for actuator(s) {bad.tolist()}: "
                "|u_prev| exceeds alpha + rho, or a limit or u_prev is NaN"
            )
        band = None
        if self.N == 2:
            band = packed[4 * n:5 * n]
            infinite = np.isinf(alpha)
            if np.count_nonzero(infinite):  # the only band half-widths that depend on u_prev
                band[infinite] = _band(alpha, rho, u_prev)[infinite]
        for name, value in (("u_prev", u_prev.copy()), ("_packed", packed),
                            ("_lower", packed[:self.N * n]), ("_upper", packed[self.N * n:2 * self.N * n]),
                            ("_band", band)):
            object.__setattr__(self, name, value)

    @property
    def n_u(self) -> int:
        return self.alpha.shape[0]

    def stage0_bounds(self):
        n = self.n_u
        return self._lower[:n], self._upper[:n]

    def project(self, t: np.ndarray) -> np.ndarray:
        """Euclidean projection of a stage-major stacked iterate onto U_N."""
        if t.shape != self._lower.shape:
            raise DimensionError(f"iterate shape {t.shape} != {self._lower.shape}")
        if self.N == 1:
            return project_stage_n1(t, self)
        return _project_stacked(t, self)

    def diameter_sq(self) -> float:
        """Squared Euclidean diameter of U_N (for the iteration-bound Delta).

        U_N is a product of per-actuator sets, so D^2 sums their squared
        diameters.  For N = 2 an actuator's u0 spans [lo, hi] and its u1
        spans [max(-alpha, lo - rho), min(alpha, hi + rho)]; the corners
        (lo, max(-alpha, lo - rho)) and (hi, min(alpha, hi + rho)) are both
        feasible and span both ranges, so they attain the diameter.
        """
        lo, hi = self.stage0_bounds()
        sq = (hi - lo) ** 2
        if self.N == 2:
            alpha, rho = self.alpha, self.rho
            sq = sq + (np.minimum(alpha, hi + rho) - np.maximum(-alpha, lo - rho)) ** 2
        return float(np.sum(sq))


def _clip(x, lo, hi, out=None):
    """min(max(x, lo), hi): np.clip's values without its wrapper's cost."""
    out = np.maximum(x, lo, out=out)
    return np.minimum(out, hi, out=out)


def project_stage_n1(t: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Component-wise clip to the stage-0 interval."""
    return _clip(t, cset._lower, cset._upper)


def _project_stacked(t: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Projection of a stacked pair iterate [t0; t1] onto the N = 2 set.

    Step 1 clips to the box [lo, hi] x [-alpha, alpha]; a clipped pair
    with |u1 - u0| <= rho + tol is the answer.  Otherwise the band side
    s = sign(u1 - u0) of the clipped pair is active, and step 2 projects
    onto the segment of the line u1 = u0 + s rho inside the box, whose
    u0 limits are [max(lo, rho - alpha), hi] for s = -1 and [lo, min(hi,
    alpha - rho)] for s = +1.  Its other two limits, -alpha - rho and
    alpha + rho, never bind, since fl(-alpha - rho) <= -alpha <= lo and
    hi <= alpha <= fl(alpha + rho).  Step 2 runs on the actuators it
    applies to only: on another one an infinite rho would make
    -inf + inf.
    """
    n = cset.n_u
    out = _clip(t, cset._lower, cset._upper)
    u0, u1 = out[:n], out[n:]
    gap = u1 - u0
    (outside,) = np.nonzero(np.abs(gap) > cset._band)
    if not outside.size:
        return out
    lo, hi, rho = cset._lower[outside], cset._upper[outside], cset.rho[outside]
    alpha = cset._upper[n + outside]
    down = np.signbit(gap[outside])
    shift = np.copysign(rho, gap[outside])
    s0 = t[outside] + t[n + outside]
    s0 -= shift
    s0 *= 0.5
    _clip(s0, np.where(down, np.maximum(lo, rho - alpha), lo),
          np.where(down, hi, np.minimum(hi, alpha - rho)), out=s0)
    u0[outside] = s0
    u1[outside] = _clip(s0 + shift, cset._lower[n + outside], alpha)
    return out


def project_stage_n2(t_pairs: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Exact per-actuator projection of (u0, u1) pairs onto the stage set.

    The set is the box [lo, hi] x [-alpha, alpha] cut by the band
    |u1 - u0| <= rho.  Two steps give the projection:

    1. Clip to the box.  If the clipped pair lies in the band (within
       tol = 1e-12 (1 + alpha + rho), with |u_prev| + 2 rho in place of
       an infinite alpha), it is the answer.
    2. Otherwise the band side s = sign(u1 - u0) of the clipped pair is
       active: u0* = clip((t0 + t1 - s rho) / 2, max(lo, -alpha - s rho),
       min(hi, alpha - s rho)) and u1* = clip(u0* + s rho, -alpha, alpha).

    Why it is exact: if the band were inactive at the optimum, the optimum
    would be the box projection; and by convexity the active band side is
    the one the box projection violates (the box projection is the unique
    minimizer over the box, so moving from the optimum towards it would
    otherwise stay feasible and get closer).  The Euclidean projection
    onto a closed convex set is unique, so no tie-break is involved.  The
    tolerance keeps the map exactly idempotent: every answer lies in the
    box, and a step-2 answer is within rounding of the band edge.
    """
    if t_pairs.shape != (cset.n_u, 2):
        raise DimensionError(f"expected {(cset.n_u, 2)} stage pairs, got {t_pairs.shape}")
    out = _project_stacked(t_pairs.T.reshape(-1), cset)
    return np.ascontiguousarray(out.reshape(2, -1).T)


def update_constraint_set(cset: ConstraintSet, u_applied: np.ndarray) -> ConstraintSet:
    """New set with cset's limits centred on the applied input, which must
    be finite and within the amplitude limits (up to 1e-9); its array is
    a copy of cset's with the entries that depend on the input rewritten."""
    u_applied = np.asarray(u_applied, dtype=float)
    if u_applied.shape != (cset.n_u,):
        raise DimensionError(f"applied input shape {u_applied.shape} != {(cset.n_u,)}")
    excess = np.abs(u_applied) - cset.alpha
    if np.count_nonzero(excess <= 1e-9) < excess.shape[0]:  # NaN fails `<=` too
        worst = int(np.argmax(excess))  # the first NaN, if any
        raise InfeasibleError(
            f"applied input {u_applied[worst]:.6g} outside amplitude limit "
            f"{cset.alpha[worst]:.6g} on actuator {worst}"
        )
    new = object.__new__(ConstraintSet)
    for name in ("alpha", "rho", "N"):
        object.__setattr__(new, name, getattr(cset, name))
    new._centre(cset._packed.copy(), u_applied)
    return new


def default_delta(lambda_max: float, cset: ConstraintSet) -> float:
    """Documented helper default Delta = lambda_max * D^2 / 2 with D the
    Euclidean diameter of U_N."""
    return 0.5 * lambda_max * cset.diameter_sq()
