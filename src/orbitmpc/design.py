"""Offline controller synthesis.

Everything the online controller consumes is produced here: the terminal
cost from the discrete-time Riccati equation (DARE), modal weight designs
that precondition the condensed Hessian, the regularized modal baseline
gains, the setpoint map that folds disturbance estimates into the QP, and
the steady-state observer gain for the delay-augmented plant.

The setpoint map and the matched modal input weights are closed forms of
the modal structure (see setpoint_matrix and _match_gain), read from the
one SVD of C that the weight designs use.

Both Riccati equations, the control DARE for the terminal cost and the
filter Riccati equation for the observer gain, are solved by one
structure-preserving doubling kernel, which converges quadratically.  The
filter equation is solved on the reduced state [z_mu; d] only, and the
observer gain is built from that solve's blocks alone, so the contraction
check of the estimation error runs exactly on the same reduced loop.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ModalBasis, StateSpace
from .qp import spectral_bounds

# Sentinel input weight for modes that cannot influence the output
# (zero singular value), whose matched gain is zero; keeps them quiescent.
R_HAT_MAX = 1e12

_SDA_MAX_DOUBLINGS = 64
_RICCATI_RESIDUAL_TOL = 1e-8


@dataclasses.dataclass(frozen=True, eq=False)
class Weights:
    """Modal and dense weighting matrices for the MPC objective.

    q_hat holds the r modal state weights, r_hat the n_u modal input
    weights; Q = V diag(q_hat) V^T and R_w is the dense input weight.
    """

    q_hat: np.ndarray
    r_hat: np.ndarray
    Q: np.ndarray
    R_w: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class TerminalCost:
    """Stabilizing terminal cost P."""

    P: np.ndarray


@dataclasses.dataclass(frozen=True)
class IterationBoundParams:
    epsilon: float
    Delta: float
    kappa: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        if self.Delta < 0.0:
            raise ConfigError("Delta must be non-negative")
        if self.kappa < 1.0:
            raise ConfigError("kappa must be >= 1")


@dataclasses.dataclass(frozen=True, eq=False)
class SetpointMap:
    """Maps a disturbance estimate to steady-state (x, u) setpoints.

    M = -[C^+; C^+], with C^+ formed from the modal basis (see
    setpoint_matrix); M_x / M_u are its state / input row blocks.
    """

    M: np.ndarray
    n_u: int
    n_y: int
    rank_deficient: bool = False

    @property
    def M_x(self) -> np.ndarray:
        return self.M[: self.n_u]

    @property
    def M_u(self) -> np.ndarray:
        return self.M[self.n_u :]


@dataclasses.dataclass(frozen=True, eq=False)
class PartitionedGain:
    """Observer gain [L_x; L_z1; ...; L_zmu; L_d], built from its measured block.

    `measured` is the block the measurement sees (L_zmu, or L_x when
    mu = 0); the others are its propagation through the diagonal plant
    powers, L_zi = A^(mu-i) L_zmu and L_x = A^mu L_zmu.  The fast observer
    update propagates the innovation forward with the same powers, so a
    gain of this structure is the only kind it serves, and the only kind
    that can be built.  Every block is stored C-contiguous, so a gain built
    from designed and from loaded arrays multiplies bit-identically.
    """

    measured: np.ndarray
    L_d: np.ndarray
    A: np.ndarray
    mu: int
    L_x: np.ndarray = dataclasses.field(init=False)
    L_z: tuple[np.ndarray, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        measured = np.ascontiguousarray(self.measured)
        A, mu = self.A, self.mu
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "L_d", np.ascontiguousarray(self.L_d))
        object.__setattr__(self, "L_x", (A ** mu)[:, None] * measured)
        object.__setattr__(self, "L_z", tuple((A ** (mu - i))[:, None] * measured
                                              for i in range(1, mu + 1)))

    @property
    def full(self) -> np.ndarray:
        return np.vstack([self.L_x, *self.L_z, self.L_d])


# ---------------------------------------------------------------------------
# Riccati equations
# ---------------------------------------------------------------------------

def _dense(M) -> np.ndarray:
    """A matrix given as a 1-D diagonal or dense, as a dense float array."""
    M = np.asarray(M, dtype=float)
    return np.diag(M) if M.ndim == 1 else M


def dare_residual(A, B, P, Q, R_w) -> float:
    """|| f(P) - P || / ||P|| for the DARE map
    f(P) = A^T P A - A^T P B (B^T P B + R_w)^-1 B^T P A + Q.

    A and B may each be 1-D (diagonals) or dense.
    """
    A, B = _dense(A), _dense(B)
    next_P = A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(B.T @ P @ B + R_w, B.T @ P @ A) + Q
    return float(np.linalg.norm(next_P - P) / max(np.linalg.norm(P), np.finfo(float).tiny))


def _doubling(A, G, H, what: str) -> tuple[np.ndarray, int]:
    """Structure-preserving doubling for X = A^T X (I + G X)^-1 A + H.

    From A_0 = A, G_0 = G, H_0 = H each doubling computes
        W = I + G_k H_k
        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k^T
        H_{k+1} = H_k + A_k^T H_k W^-1 A_k
    and H_k converges quadratically to the stabilizing solution (Lin & Xu,
    SIAM J. Matrix Anal. Appl. 28(1), 2006).  The H increment carries A_k
    on both sides, so it vanishes with A_k instead of stalling at a
    rounding floor.  Stops when A_k is exactly zero or the relative change
    of H_k is at most machine epsilon; returns the solution and the
    doubling count.
    """
    change = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite iterates are rejected below
        for k in range(1, _SDA_MAX_DOUBLINGS + 1):
            if not np.any(A):
                return H, k - 1
            try:
                W_inv_AG = np.linalg.solve(np.eye(A.shape[0]) + G @ H, np.hstack([A, G]))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"{what}: doubling {k}: {exc}") from exc
            W_inv_A, W_inv_G = np.hsplit(W_inv_AG, 2)
            H_next = H + A.T @ H @ W_inv_A
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A @ W_inv_G @ A.T
            G = 0.5 * (G + G.T)
            A = A @ W_inv_A
            if not (np.all(np.isfinite(H_next)) and np.all(np.isfinite(G)) and np.all(np.isfinite(A))):
                raise NumericalError(f"{what}: doubling {k} produced non-finite values")
            change = np.linalg.norm(H_next - H) / max(np.linalg.norm(H_next), np.finfo(float).tiny)
            H = H_next
            if change <= np.finfo(float).eps:
                return H, k
    raise NumericalError(
        f"{what}: no convergence after {_SDA_MAX_DOUBLINGS} doublings "
        f"(last relative change {change:.3e})"
    )


def _solve_riccati(A, B, Q, R, what: str, stats: dict | None) -> np.ndarray:
    """Stabilizing solution of the DARE (A, B, Q, R) by doubling from
    G_0 = B R^-1 B^T and H_0 = Q, gated on a 1e-8 relative residual."""
    B = _dense(B)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    G = B @ np.linalg.solve(R, B.T)
    P, doublings = _doubling(_dense(A), 0.5 * (G + G.T), Q.copy(), what)
    residual = dare_residual(A, B, P, Q, R)
    if residual >= _RICCATI_RESIDUAL_TOL:
        raise NumericalError(f"{what} residual {residual:.3e} exceeds {_RICCATI_RESIDUAL_TOL:.1e}")
    if stats is not None:
        stats["doublings"] = doublings
        stats["residual"] = residual
    return P


def solve_dare(A, B, Q, R_w, *, stats: dict | None = None) -> TerminalCost:
    """Terminal cost from the DARE, solved by doubling.

    A and B may each be 1-D (diagonals) or dense.  The solution is
    verified against a 1e-8 relative residual bound.  If `stats` is a
    dict it receives the doubling count and the relative residual.
    """
    return TerminalCost(P=_solve_riccati(A, B, Q, R_w, "DARE", stats))


def solve_dare_modal(a: float, b: float, q_hat_i: float, r_hat_i: float) -> float:
    """Closed-form scalar DARE solution for one decoupled mode.

    With xi = r(1 - a^2) - b^2 q the solution is
    p = (-xi + sqrt(xi^2 + 4 b^2 q r)) / (2 b^2).  b == 0 degenerates to
    the Lyapunov limit p = q / (1 - a^2).  The a == 0 and q == 0 branches
    are returned directly so the algebraic identities p = q and p = 0
    hold without rounding.
    """
    if r_hat_i <= 0.0:
        raise ConfigError("modal input weight must be positive")
    if q_hat_i < 0.0:
        raise ConfigError("modal state weight must be non-negative")
    if b == 0.0:
        if abs(a) >= 1.0:
            raise NumericalError("b = 0 with |a| >= 1 has no bounded cost")
        return q_hat_i / (1.0 - a * a)
    if q_hat_i == 0.0:
        return 0.0
    if a == 0.0:
        return float(q_hat_i)
    xi = r_hat_i * (1.0 - a * a) - b * b * q_hat_i
    p = (-xi + math.sqrt(xi * xi + 4.0 * b * b * q_hat_i * r_hat_i)) / (2.0 * b * b)
    return float(max(p, 0.0))


def lqr_gain_modal(a: float, b: float, p_hat_i: float, r_hat_i: float) -> float:
    """Scalar LQR gain k = a b p / (r + b^2 p) for one mode."""
    denom = r_hat_i + b * b * p_hat_i
    if denom <= 0.0:
        raise ConfigError("r + b^2 p must be positive")
    return a * b * p_hat_i / denom


def imc_gain(sigma, lam: float):
    """Regularized pseudo-inverse gain sigma / (sigma^2 + lambda) per mode."""
    sigma = np.asarray(sigma, dtype=float)
    if lam < 0.0:
        raise ConfigError("regularization must be non-negative")
    if lam == 0.0 and np.any(sigma == 0.0):
        raise ConfigError("unregularized zero singular value: need lambda > 0")
    return sigma / (sigma * sigma + lam)


# ---------------------------------------------------------------------------
# Weight designs
# ---------------------------------------------------------------------------

def _dense_weights(V: np.ndarray, diag_modal: np.ndarray, null_value: float) -> np.ndarray:
    """V diag(w) V^T completed with `null_value` on the orthogonal complement."""
    n_u = V.shape[0]
    W = (V * diag_modal) @ V.T
    if V.shape[1] < n_u:
        W = W + null_value * (np.eye(n_u) - V @ V.T)
    return 0.5 * (W + W.T)


def design_weights_saturated(basis, q_min: float, q_max: float) -> Weights:
    """Clamp the natural modal state weights sigma^2 into [q_min, q_max].

    Input weights are identity.  Limiting the spread of the state weights
    is what keeps the condensed Hessian well conditioned on severely
    ill-conditioned response matrices.
    """
    if not (0.0 < q_min <= q_max):
        raise ConfigError("need 0 < q_min <= q_max")
    q_hat = np.clip(basis.S ** 2, q_min, q_max)
    n_u = basis.V.shape[0]
    Q = _dense_weights(basis.V, q_hat, 0.0)
    return Weights(q_hat=q_hat, r_hat=np.ones(n_u), Q=Q, R_w=np.eye(n_u))


def _match_gain(a: float, b: float, q_hat_i: float, target: float, mode: int) -> float:
    """The modal input weight whose scalar LQR gain is `target`, in closed form.

    With k = a b p / (r + b^2 p) the scalar DARE reads p = a^2 p - k a b p + q,
    so p = q / (1 - a^2 + a b k) and r = b p (a/k - b), which is positive
    exactly when k < a/b (the gain's supremum as r -> 0).
    """
    if not target < a / b:
        raise NumericalError(
            f"mode {mode}: IMC gain {target:.6g} not achievable by any input weight "
            f"(supremum a/b = {a / b:.6g})"
        )
    p = q_hat_i / (1.0 - a * a + a * b * target)
    return b * p * (a / target - b)


def design_weights_imc_matched(basis, a: float, b: float, lam: float) -> Weights:
    """Choose modal input weights so each mode's LQR gain equals the
    regularized-inverse baseline gain sigma/(sigma^2 + lambda).

    State weights are fixed at sigma^2.  Modes with sigma = 0 get the
    R_HAT_MAX sentinel (gain 0).  Raises when a target gain exceeds the
    supremum a/b reachable by the scalar LQR.
    """
    sigma = basis.S
    q_hat = sigma ** 2
    k_imc = imc_gain(sigma, lam)
    r_hat_modes = np.empty(basis.r)
    for i in range(basis.r):
        if sigma[i] == 0.0:
            r_hat_modes[i] = R_HAT_MAX
        else:
            r_hat_modes[i] = _match_gain(a, b, q_hat[i], float(k_imc[i]), i)
    n_u = basis.V.shape[0]
    r_hat = np.concatenate([r_hat_modes, np.full(n_u - basis.r, R_HAT_MAX)])
    Q = _dense_weights(basis.V, q_hat, 0.0)
    R_w = _dense_weights(basis.V, r_hat_modes, R_HAT_MAX)
    return Weights(q_hat=q_hat, r_hat=r_hat, Q=Q, R_w=R_w)


# ---------------------------------------------------------------------------
# Setpoints
# ---------------------------------------------------------------------------

def setpoint_matrix(ss: StateSpace, basis: ModalBasis) -> SetpointMap:
    """Steady-state (x, u) setpoints for a disturbance, from the modal basis of C.

    The steady state (x, u) = M d is the minimum-norm least-squares solution
    of S [x; u] = [0; d], S = [[I - A, -B], [-C, 0]], with C x = -d cancelling
    d at the output.  As B = I - A bit for bit and A_ii < 1, the first block
    row forces x = u, so M = -[C^+; C^+], with C^+ = V diag(1/sigma) U^T
    from `basis` by numpy's pseudo-inverse arithmetic and cutoff (modes at or
    below 1e-15 sigma_0 get 0).  S has row rank n_u + rank C, rank C counting
    the modes above numpy's rank tolerance sigma_0 max(n_y, n_u) eps; rank
    C < n_y gives least-squares semantics and is flagged.
    """
    n_u, n_y = ss.n_u, ss.n_y
    sigma = basis.S
    rank = np.count_nonzero(sigma > sigma[0] * (max(n_y, n_u) * np.finfo(float).eps))
    deficient = rank < n_y
    if deficient:
        warnings.warn(
            f"setpoint system has row rank {n_u + rank} < {n_u + n_y}: setpoints take "
            "least-squares semantics",
            stacklevel=2,
        )
    s_inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 1e-15 * sigma[0])
    C_plus = basis.V @ (s_inv[:, None] * basis.U.T)
    M = -np.vstack([C_plus, C_plus])
    return SetpointMap(M=M, n_u=n_u, n_y=n_y, rank_deficient=bool(deficient))


# ---------------------------------------------------------------------------
# Observer gain
# ---------------------------------------------------------------------------

def _error_spectral_radius(ss: StateSpace, gain: PartitionedGain) -> float:
    """Spectral radius of the estimation-error transition, computed exactly
    on the reduced loop diag(A, I) - [L_zmu; L_d] [C  I] of [z_mu; d].

    Take the errors of x and z_1..z_(mu-1) relative to the A^i propagation
    of the z_mu error.  With the propagated blocks of `gain` the innovation
    cancels from them, and the shift chain alone moves them: after mu
    samples every delayed state is the propagation of the oldest, so they
    form a nilpotent block.  The full (mu+1) n_u + n_y loop is block
    triangular in these coordinates, and its nonzero eigenvalues are those
    of the reduced n_u + n_y loop.
    """
    F = np.diag(np.concatenate([ss.A, np.ones(ss.n_y)]))
    F_cl = F - np.vstack([gain.measured, gain.L_d]) @ np.hstack([ss.C, np.eye(ss.n_y)])
    return float(np.max(np.abs(np.linalg.eigvals(F_cl))))


def kalman_gain(
    ss: StateSpace,
    sigma_v: float = 1.0,
    sigma_w: float = 1e-4,
    sigma_m: float = 1e-2,
    *,
    stats: dict | None = None,
) -> PartitionedGain:
    """Steady-state predictor gain for the delay-augmented plant.

    The measurement y = C z_mu + d sees only the oldest delayed state
    (x itself for mu = 0) and the disturbance, and the process noise that
    has entered x since the sample z_mu holds is independent of every
    measurement taken so far.  The optimal predictor of x and
    z_1..z_(mu-1) is therefore the A^i-propagated predictor of z_mu, and
    the filter Riccati equation is solved on the reduced state
    s = [z_mu; d] only:
        F = diag(A, I),  H = [C  I],
        Q = diag(sigma_w^2 I, sigma_v^2 I),  R = sigma_m^2 I,
    as the dual DARE (F^T = F, H^T) with the same doubling kernel and the
    same 1e-8 relative residual gate as solve_dare.  The predictor gain
    K = F P H^T (H P H^T + R)^-1 gives L_zmu and L_d, from which
    PartitionedGain builds L_x and L_z1..L_z(mu-1).

    If `stats` is a dict it receives the doubling count and the relative
    residual.  Raises if the estimation error does not contract.
    """
    if sigma_m <= 0.0:
        raise ConfigError("measurement noise sigma_m must be positive")
    if sigma_v <= 0.0:
        raise ConfigError("disturbance drive sigma_v must be positive")
    if sigma_w < 0.0:
        raise ConfigError("process noise sigma_w must be non-negative")
    n_u, n_y = ss.n_u, ss.n_y
    f = np.concatenate([ss.A, np.ones(n_y)])
    H = np.hstack([ss.C, np.eye(n_y)])
    Qn = np.diag(np.concatenate([np.full(n_u, sigma_w ** 2), np.full(n_y, sigma_v ** 2)]))
    Rn = (sigma_m ** 2) * np.eye(n_y)
    P = _solve_riccati(f, H.T, Qn, Rn, "observer Riccati", stats)
    S = H @ P @ H.T + Rn
    K = np.linalg.solve(0.5 * (S + S.T), (H @ P) * f).T
    gain = PartitionedGain(K[:n_u], K[n_u:], ss.A, ss.mu)
    rho = _error_spectral_radius(ss, gain)
    if rho >= 1.0:
        raise NumericalError(f"estimation-error spectral radius {rho:.6f} >= 1")
    return gain


# ---------------------------------------------------------------------------
# Conditioning and the iteration budget
# ---------------------------------------------------------------------------

def condition_number(J: np.ndarray) -> float:
    """lambda_max / lambda_min of a symmetric positive-definite matrix, from
    qp.spectral_bounds (which rejects a matrix that is not)."""
    lmin, lmax, _ = spectral_bounds(J)
    return lmax / lmin


def iteration_bound(p: IterationBoundParams) -> int:
    """Iteration budget guaranteeing the target accuracy.

    max{0, min{ceil((ln eps - ln Delta)/ln(1 - sqrt(1/kappa))),
               ceil(2 sqrt(Delta/eps) - 2)}}, with the log branch skipped
    at kappa = 1 where the contraction factor degenerates.
    """
    if p.Delta <= p.epsilon:
        return 0
    sqrt_branch = math.ceil(2.0 * math.sqrt(p.Delta / p.epsilon) - 2.0)
    if p.kappa > 1.0:
        log_branch = math.ceil(
            (math.log(p.epsilon) - math.log(p.Delta)) / math.log(1.0 - math.sqrt(1.0 / p.kappa))
        )
        bound = min(log_branch, sqrt_branch)
    else:
        bound = sqrt_branch
    return max(0, int(bound))
