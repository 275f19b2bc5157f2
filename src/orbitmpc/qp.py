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

import dataclasses

import numpy as np

from .errors import DimensionError, InfeasibleError, NumericalError
from .model import StateSpace

SUPPORTED_HORIZONS = (1, 2)
# Rows per block of the BLAS dgemv kernel (OpenBLAS's dgemv_t takes 4 rows
# of W at a time): the rows of CondensedQP.W are zero-padded to a multiple
# of this, and every worker slice starts on one.
ROW_BLOCK = 4


@dataclasses.dataclass(frozen=True, eq=False)
class CondensedQP:
    """Hessian, linear-term maps and spectral data of the condensed QP.

    `W` is the fast-gradient step matrix I - J / lambda_max, built once
    here with its rows zero-padded to a multiple of ROW_BLOCK, shape
    (n + (-n) % ROW_BLOCK, n).  `fgm` multiplies it by the iterate with
    one BLAS gemv per block of rows starting on a multiple of ROW_BLOCK,
    so every row runs through the same 4-row kernel path.
    """

    J: np.ndarray
    q_map_x0: np.ndarray
    q_map_d: np.ndarray
    lambda_min: float
    lambda_max: float
    beta: float
    N: int
    n_u: int
    W: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n = self.J.shape[0]
        w = np.zeros((n + (-n) % ROW_BLOCK, n))
        w[:n] = -(self.J / self.lambda_max)
        w[np.arange(n), np.arange(n)] += 1.0
        object.__setattr__(self, "W", w)

    def linear_term(self, x0: np.ndarray, d_bar: np.ndarray) -> np.ndarray:
        return self.q_map_x0 @ x0 + self.q_map_d @ d_bar


def spectral_bounds(J: np.ndarray):
    """(lambda_min, lambda_max, beta) from a full symmetric eigensolve; a J
    that is not finite and positive definite raises NumericalError."""
    if not np.all(np.isfinite(J)):
        raise NumericalError("Hessian not positive definite: it has non-finite entries")
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    if lmin <= 0.0:
        raise NumericalError(f"Hessian not positive definite (lambda_min = {lmin:.3e})")
    beta = (np.sqrt(lmax) - np.sqrt(lmin)) / (np.sqrt(lmax) + np.sqrt(lmin))
    return lmin, lmax, float(beta)


def build_condensed(ss: StateSpace, weights, terminal, M_s: np.ndarray, N: int) -> CondensedQP:
    """The condensed QP of one horizon, its blocks formed as the module
    docstring states; spectral_bounds is its one positive-definiteness check."""
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
    lmin, lmax, beta = spectral_bounds(J)
    return CondensedQP(
        J=J,
        q_map_x0=q_map_x0,
        q_map_d=q_map_d,
        lambda_min=lmin,
        lambda_max=lmax,
        beta=beta,
        N=N,
        n_u=n,
    )


# ---------------------------------------------------------------------------
# Constraint sets and projections
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Per-actuator amplitude/slew-rate limits around the last applied input.

    Stage-0 inputs live in [max(-alpha, u_prev - rho), min(alpha,
    u_prev + rho)]; for N = 2 the stage pair is additionally coupled by
    |u1 - u0| <= rho and |u1| <= alpha.  The set is laid out stage-major:
    a horizon-N iterate stacks N blocks of n_u entries.

    Everything the projection needs is computed here, once per set: the
    box bounds of the stacked iterate (stage-0 interval, and [-alpha,
    alpha] for stage 1) and, for N = 2, the widened band half-width and the
    u0 limits of the segments u1 = u0 + rho and u1 = u0 - rho inside the
    box: [lo, min(hi, alpha - rho)] and [max(lo, rho - alpha), hi].  Their
    other two limits, -alpha - rho and alpha + rho, never bind, since
    fl(-alpha - rho) <= -alpha <= lo and hi <= alpha <= fl(alpha + rho).
    A set whose stage-0 interval is empty or NaN for some actuator cannot
    be built, so the projections and the diameter take feasibility as given.
    """

    alpha: np.ndarray
    rho: np.ndarray
    u_prev: np.ndarray
    N: int
    _lower: np.ndarray = dataclasses.field(init=False, repr=False)
    _upper: np.ndarray = dataclasses.field(init=False, repr=False)
    # N = 2 only: rho + tolerance, and per band side (+rho, -rho) the
    # (2, n_u) u0 limits [lower; upper] of that side's segment inside the box
    _band: np.ndarray | None = dataclasses.field(init=False, repr=False)
    _segments: tuple | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        u_prev = np.atleast_1d(np.asarray(self.u_prev, dtype=float))
        if self.N not in SUPPORTED_HORIZONS:
            raise DimensionError(f"horizon must be one of {SUPPORTED_HORIZONS}")
        if not (alpha.shape == rho.shape == u_prev.shape):
            raise DimensionError("alpha, rho, u_prev must share one shape")
        lo = np.maximum(-alpha, u_prev - rho)
        hi = np.minimum(alpha, u_prev + rho)
        if np.count_nonzero(lo <= hi) < lo.shape[0]:  # NaN fails `<=` too
            bad = np.flatnonzero(~(lo <= hi))
            raise InfeasibleError(
                f"empty stage set for actuator(s) {bad.tolist()}: "
                "|u_prev| exceeds alpha + rho, or a limit or u_prev is NaN"
            )
        lower, upper, band, segments = lo, hi, None, None
        if self.N == 2:
            lower, upper = np.concatenate([lo, -alpha]), np.concatenate([hi, alpha])
            # |u_prev| + 2 rho, the farthest u1 reaches, stands in for alpha = inf
            scale = np.where(np.isinf(alpha), np.abs(u_prev) + 2.0 * rho, alpha)
            band = rho + 1e-12 * (1.0 + scale + rho)
            segments = (
                np.stack([lo, np.minimum(hi, alpha - rho)]),
                np.stack([np.maximum(lo, rho - alpha), hi]),
            )
        for name, value in (("alpha", alpha), ("rho", rho), ("u_prev", u_prev),
                            ("_lower", lower), ("_upper", upper),
                            ("_band", band), ("_segments", segments)):
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
    onto the segment of the line u1 = u0 + s rho inside the box.
    """
    n = cset.n_u
    out = _clip(t, cset._lower, cset._upper)
    u0, u1 = out[:n], out[n:]
    gap = u1 - u0
    outside = np.abs(gap) > cset._band
    if not np.count_nonzero(outside):
        return out
    seg_up, seg_down = cset._segments
    seg = np.where(np.signbit(gap), seg_down, seg_up)
    shift = np.copysign(cset.rho, gap)
    s0 = t[:n] + t[n:]
    s0 -= shift
    s0 *= 0.5
    _clip(s0, seg[0], seg[1], out=s0)
    s1 = _clip(s0 + shift, cset._lower[n:], cset._upper[n:])
    np.copyto(u0, s0, where=outside)
    np.copyto(u1, s1, where=outside)
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
    """New set centred on the applied input, which must be finite and within
    the amplitude limits (up to 1e-9)."""
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
    return ConstraintSet(alpha=cset.alpha, rho=cset.rho, u_prev=u_applied, N=cset.N)


def default_delta(lambda_max: float, cset: ConstraintSet) -> float:
    """Documented helper default Delta = lambda_max * D^2 / 2 with D the
    Euclidean diameter of U_N."""
    return 0.5 * lambda_max * cset.diameter_sq()
