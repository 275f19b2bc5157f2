"""Condensed QP construction and the constraint-set projections.

States are eliminated from the horizon-N optimal control problem through
the prediction matrices G (input-to-state) and H (initial-state), giving

    min_u 0.5 u^T J u + q^T u    s.t.  u in U_N,

with J = G^T ((I_N (x) Q) (+) P) G + I_N (x) R and q affine in the current
state estimate and the disturbance estimate (the steady-state target
relation is folded into the q maps so no target is computed online).

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
keeps it exactly idempotent.
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
class Prediction:
    """Block prediction maps: x_stack = G u_stack + H x0."""

    G: np.ndarray
    H: np.ndarray
    N: int
    n_u: int


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


def build_prediction(ss: StateSpace, N: int) -> Prediction:
    """Stack A^i powers into the G and H block maps (diagonal A, B)."""
    if N < 1:
        raise DimensionError(f"horizon must be >= 1, got {N}")
    n_u = ss.n_u
    G = np.zeros(((N + 1) * n_u, N * n_u))
    H = np.zeros(((N + 1) * n_u, n_u))
    idx = np.arange(n_u)
    for i in range(N + 1):
        H[i * n_u + idx, idx] = ss.a_power(i)
        for j in range(i):
            G[i * n_u + idx, j * n_u + idx] = ss.a_power(i - 1 - j) * ss.B
    return Prediction(G=G, H=H, N=N, n_u=n_u)


def _stage_cost_blockdiag(weights, terminal, N: int) -> np.ndarray:
    """(I_N (x) Q) (+) P."""
    n_u = weights.Q.shape[0]
    omega = np.zeros(((N + 1) * n_u, (N + 1) * n_u))
    for i in range(N):
        omega[i * n_u : (i + 1) * n_u, i * n_u : (i + 1) * n_u] = weights.Q
    omega[N * n_u :, N * n_u :] = terminal.P
    return omega


def build_hessian(pred: Prediction, weights, terminal, N: int) -> np.ndarray:
    """J = G^T ((I_N (x) Q) (+) P) G + I_N (x) R, verified positive definite."""
    if N != pred.N:
        raise DimensionError("horizon mismatch between prediction and request")
    omega = _stage_cost_blockdiag(weights, terminal, N)
    J = pred.G.T @ omega @ pred.G + np.kron(np.eye(N), weights.R_w)
    J = 0.5 * (J + J.T)
    try:
        np.linalg.cholesky(J)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("condensed Hessian is not positive definite") from exc
    return J


def build_linear_maps(pred: Prediction, weights, terminal, M_s: np.ndarray, N: int):
    """Affine maps from (x0, d_bar) to the QP linear term q.

    q = (G^T Omega H) x0 - (G^T Omega 1_(N+1)(x)I M_s + 1_N(x)R M_s) d_bar,
    i.e. the steady-state target x_s = u_s = M_s d_bar (see
    design.setpoint_matrix) is substituted so the online update is two
    matrix-vector products.
    """
    n_u = pred.n_u
    omega = _stage_cost_blockdiag(weights, terminal, N)
    gt_omega = pred.G.T @ omega
    q_map_x0 = gt_omega @ pred.H
    stack_x = np.tile(np.eye(n_u), (N + 1, 1))
    stack_r = np.tile(weights.R_w, (N, 1))
    q_map_d = -(gt_omega @ stack_x @ M_s + stack_r @ M_s)
    return q_map_x0, q_map_d


def spectral_bounds(J: np.ndarray):
    """(lambda_min, lambda_max, beta) from a full symmetric eigensolve."""
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    if lmin <= 0.0:
        raise NumericalError(f"Hessian not positive definite (lambda_min = {lmin:.3e})")
    beta = (np.sqrt(lmax) - np.sqrt(lmin)) / (np.sqrt(lmax) + np.sqrt(lmin))
    return lmin, lmax, float(beta)


def build_condensed(ss: StateSpace, weights, terminal, M_s: np.ndarray, N: int) -> CondensedQP:
    """Assemble the full CondensedQP for one horizon."""
    if N not in SUPPORTED_HORIZONS:
        raise DimensionError(f"horizon must be one of {SUPPORTED_HORIZONS}, got {N}")
    pred = build_prediction(ss, N)
    J = build_hessian(pred, weights, terminal, N)
    q_map_x0, q_map_d = build_linear_maps(pred, weights, terminal, M_s, N)
    lmin, lmax, beta = spectral_bounds(J)
    return CondensedQP(
        J=J,
        q_map_x0=q_map_x0,
        q_map_d=q_map_d,
        lambda_min=lmin,
        lambda_max=lmax,
        beta=beta,
        N=N,
        n_u=ss.n_u,
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
    An infeasible set can be built; projecting onto it raises.
    """

    alpha: np.ndarray
    rho: np.ndarray
    u_prev: np.ndarray
    N: int
    _lower: np.ndarray = dataclasses.field(init=False, repr=False)
    _upper: np.ndarray = dataclasses.field(init=False, repr=False)
    _feasible: bool = dataclasses.field(init=False, repr=False)
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
        lower, upper, band, segments = lo, hi, None, None
        if self.N == 2:
            lower, upper = np.concatenate([lo, -alpha]), np.concatenate([hi, alpha])
            band = rho + 1e-12 * (1.0 + alpha + rho)
            segments = (
                np.stack([lo, np.minimum(hi, alpha - rho)]),
                np.stack([np.maximum(lo, rho - alpha), hi]),
            )
        for name, value in (("alpha", alpha), ("rho", rho), ("u_prev", u_prev),
                            ("_lower", lower), ("_upper", upper),
                            ("_feasible", not np.count_nonzero(lo > hi)),
                            ("_band", band), ("_segments", segments)):
            object.__setattr__(self, name, value)

    @property
    def n_u(self) -> int:
        return self.alpha.shape[0]

    def stage0_bounds(self):
        n = self.n_u
        return self._lower[:n], self._upper[:n]

    def check_feasible(self) -> None:
        if not self._feasible:
            lo, hi = self.stage0_bounds()
            bad = np.nonzero(lo > hi)[0]
            raise InfeasibleError(
                f"empty stage set for actuator(s) {bad.tolist()}: "
                "|u_prev| exceeds alpha + rho"
            )

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
            self.check_feasible()
            alpha, rho = self.alpha, self.rho
            sq = sq + (np.minimum(alpha, hi + rho) - np.maximum(-alpha, lo - rho)) ** 2
        return float(np.sum(sq))


def _clip(x, lo, hi, out=None):
    """min(max(x, lo), hi): np.clip's values without its wrapper's cost."""
    out = np.maximum(x, lo, out=out)
    return np.minimum(out, hi, out=out)


def project_stage_n1(t: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Component-wise clip to the stage-0 interval."""
    cset.check_feasible()
    return _clip(t, cset._lower, cset._upper)


def _project_stacked(t: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Projection of a stacked pair iterate [t0; t1] onto the N = 2 set.

    Step 1 clips to the box [lo, hi] x [-alpha, alpha]; a clipped pair
    with |u1 - u0| <= rho + tol is the answer.  Otherwise the band side
    s = sign(u1 - u0) of the clipped pair is active, and step 2 projects
    onto the segment of the line u1 = u0 + s rho inside the box.
    """
    cset.check_feasible()
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
       tol = 1e-12 (1 + alpha + rho)), it is the answer.
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
    """New set centred on the applied input (must respect amplitude limits)."""
    u_applied = np.asarray(u_applied, dtype=float)
    if u_applied.shape != (cset.n_u,):
        raise DimensionError(f"applied input shape {u_applied.shape} != {(cset.n_u,)}")
    excess = np.abs(u_applied) - cset.alpha
    if np.any(excess > 1e-9):
        worst = int(np.argmax(excess))
        raise InfeasibleError(
            f"applied input {u_applied[worst]:.6g} outside amplitude limit "
            f"{cset.alpha[worst]:.6g} on actuator {worst}"
        )
    return ConstraintSet(alpha=cset.alpha, rho=cset.rho, u_prev=u_applied, N=cset.N)


def default_delta(lambda_max: float, cset: ConstraintSet) -> float:
    """Documented helper default Delta = lambda_max * D^2 / 2 with D the
    Euclidean diameter of U_N."""
    return 0.5 * lambda_max * cset.diameter_sq()
