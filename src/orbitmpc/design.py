"""Offline controller synthesis.

Everything the online controller consumes is produced here: the terminal
cost from the discrete-time Riccati equation (DARE), modal weight designs
that precondition the condensed Hessian, the regularized modal baseline
gains, the steady-state target map that folds disturbance estimates into
the QP, and the steady-state observer gain for the delay-augmented plant.

The steady-state target map M_s = -C^+ and the matched modal input weights
are closed forms of the modal structure (see setpoint_matrix and
_match_gain), read from the one SVD of C that the weight designs use.

Both Riccati equations, the control DARE for the terminal cost and the
filter Riccati equation for the observer gain, are solved on the reduced
state [z_mu; d] of the observer, and the observer gain is built from that
solve's blocks alone.  On a plant whose actuators share one bandwidth
(A = a I, see one_bandwidth) both decouple in the modal basis of C: the
terminal cost is a scalar closed form per mode, and the filter equation
is one stack of 2 x 2 problems plus scalar closed forms, with the
contraction check of the estimation error taken from the same blocks.
Mixed-bandwidth plants solve both dense.  One structure-preserving
doubling kernel, which converges quadratically, serves the dense
equations and the 2 x 2 stack; every solution is gated on the same 1e-8
relative residual of the whole equation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ModalBasis, StateSpace, modal_decompose
from .qp import SUPPORTED_HORIZONS, ModalHessian, spectral_bounds

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
        # the comparisons are written so that NaN fails them
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.Delta < math.inf:
            raise ConfigError(f"Delta must be non-negative and finite, got {self.Delta}")
        if not 1.0 <= self.kappa < math.inf:
            raise ConfigError(f"kappa must be >= 1 and finite, got {self.kappa}")


@dataclasses.dataclass(frozen=True, eq=False)
class PartitionedGain:
    """Observer gain [L_x; L_z1; ...; L_zmu; L_d], built from its measured block.

    `measured` is the block the measurement sees (L_zmu, or L_x when
    mu = 0); the others are its propagation through the diagonal plant
    powers, L_zi = A^(mu-i) L_zmu and L_x = A^mu L_zmu.  The fast observer
    update propagates the innovation forward with the same powers, so a
    gain of this structure is the only kind it serves, and the only kind
    that can be built.  Only `measured` and `L_d` are stored, C-contiguous,
    so a gain built from designed and from loaded arrays multiplies
    bit-identically; `full` forms the other blocks when asked.
    """

    measured: np.ndarray
    L_d: np.ndarray
    A: np.ndarray
    mu: int

    def __post_init__(self):
        object.__setattr__(self, "measured", np.ascontiguousarray(self.measured))
        object.__setattr__(self, "L_d", np.ascontiguousarray(self.L_d))

    @property
    def full(self) -> np.ndarray:
        """The dense gain [L_x; L_z1; ...; L_zmu; L_d]."""
        A, mu = self.A, self.mu
        return np.vstack([(A ** (mu - i))[:, None] * self.measured for i in range(mu + 1)]
                         + [self.L_d])


# ---------------------------------------------------------------------------
# Riccati equations
# ---------------------------------------------------------------------------

def one_bandwidth(ss: StateSpace) -> bool:
    """Whether every actuator shares one bandwidth, A = a I exactly.

    Then B = (1 - a) I too, Q and R_w of the modal weight designs and the
    observer's noise covariances are diagonal in the modal basis of C, and
    both Riccati equations decouple mode by mode.
    """
    return bool(np.all(ss.A == ss.A[0]))


def _dense(M) -> np.ndarray:
    """A matrix given as a 1-D diagonal or dense, as a dense float array."""
    M = np.asarray(M, dtype=float)
    return np.diag(M) if M.ndim == 1 else M


def _riccati_gap(A, B, P, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius norms of f(P) - P and of P for the DARE map
    f(P) = A^T P A - A^T P B (B^T P B + R)^-1 B^T P A + Q,
    per problem of a stack (..., n, n) of dense matrices."""
    At, Bt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2)
    next_P = At @ P @ A - At @ P @ B @ np.linalg.solve(Bt @ P @ B + R, Bt @ P @ A) + Q
    return np.linalg.norm(next_P - P, axis=(-2, -1)), np.linalg.norm(P, axis=(-2, -1))


def dare_residual(A, B, P, Q, R_w) -> float:
    """|| f(P) - P || / ||P|| for the DARE map
    f(P) = A^T P A - A^T P B (B^T P B + R_w)^-1 B^T P A + Q.

    A and B may each be 1-D (diagonals) or dense.
    """
    gap, size = _riccati_gap(_dense(A), _dense(B), P, Q, R_w)
    return float(gap / max(size, np.finfo(float).tiny))


def _doubling(A, G, H, what: str) -> tuple[np.ndarray, int]:
    """Structure-preserving doubling for X = A^T X (I + G X)^-1 A + H, on one
    problem (n x n) or a stack of problems (..., n, n) solved together.

    From A_0 = A, G_0 = G, H_0 = H each doubling computes
        W = I + G_k H_k
        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k^T
        H_{k+1} = H_k + A_k^T H_k W^-1 A_k
    and H_k converges quadratically to the stabilizing solution (Lin & Xu,
    SIAM J. Matrix Anal. Appl. 28(1), 2006).  The H increment carries A_k
    on both sides, so it vanishes with A_k instead of stalling at a
    rounding floor.  Stops when every A_k is exactly zero or the largest
    relative change of an H_k is at most machine epsilon; returns the
    solution and the doubling count.
    """
    eye = np.eye(A.shape[-1])
    change = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite iterates are rejected below
        for k in range(1, _SDA_MAX_DOUBLINGS + 1):
            if not np.any(A):
                return H, k - 1
            At = np.swapaxes(A, -1, -2)
            try:
                W_inv_AG = np.linalg.solve(eye + G @ H, np.concatenate([A, G], axis=-1))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"{what}: doubling {k}: {exc}") from exc
            W_inv_A, W_inv_G = np.split(W_inv_AG, 2, axis=-1)
            H_next = H + At @ H @ W_inv_A
            H_next = 0.5 * (H_next + np.swapaxes(H_next, -1, -2))
            G = G + A @ W_inv_G @ At
            G = 0.5 * (G + np.swapaxes(G, -1, -2))
            A = A @ W_inv_A
            if not (np.all(np.isfinite(H_next)) and np.all(np.isfinite(G)) and np.all(np.isfinite(A))):
                raise NumericalError(f"{what}: doubling {k} produced non-finite values")
            change = float(np.max(np.linalg.norm(H_next - H, axis=(-2, -1))
                                  / np.maximum(np.linalg.norm(H_next, axis=(-2, -1)), np.finfo(float).tiny)))
            H = H_next
            if change <= np.finfo(float).eps:
                return H, k
    raise NumericalError(
        f"{what}: no convergence after {_SDA_MAX_DOUBLINGS} doublings "
        f"(last relative change {change:.3e})"
    )


def _accept(what: str, residual: float, doublings: int, stats: dict | None) -> None:
    """Gate a Riccati solution on its 1e-8 relative residual (NaN fails too)
    and report the doubling count and the residual into `stats`."""
    if not residual < _RICCATI_RESIDUAL_TOL:
        raise NumericalError(f"{what} residual {residual:.3e} exceeds {_RICCATI_RESIDUAL_TOL:.1e}")
    if stats is not None:
        stats["doublings"] = doublings
        stats["residual"] = residual


def _solve_riccati(A, B, Q, R, what: str, stats: dict | None) -> np.ndarray:
    """Stabilizing solution of the DARE (A, B, Q, R) by dense doubling from
    G_0 = B R^-1 B^T and H_0 = Q, gated on a 1e-8 relative residual."""
    B = _dense(B)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    G = B @ np.linalg.solve(R, B.T)
    P, doublings = _doubling(_dense(A), 0.5 * (G + G.T), Q.copy(), what)
    _accept(what, dare_residual(A, B, P, Q, R), doublings, stats)
    return P


def solve_dare(A, B, Q, R_w, *, modes: tuple[ModalBasis, Weights] | None = None,
               stats: dict | None = None) -> TerminalCost:
    """Terminal cost from the DARE.

    A and B may each be 1-D (diagonals) or dense.  Without `modes` the DARE
    is solved by doubling.  With `modes = (basis, weights)` for a plant of
    one bandwidth (see one_bandwidth; A and B 1-D), where Q = V diag(q_hat)
    V^T and R_w is diag(r_hat) in V, the DARE decouples: P = V diag(p_i)
    V^T with p_i from the scalar closed form solve_dare_modal, and 0 on
    the n_u - r null-space modes, whose state weight is 0.  Either way the
    solution is verified against a 1e-8 relative residual bound on the
    dense equation.  If `stats` is a dict it receives the doubling count
    (0 for the closed form) and the relative residual.
    """
    if modes is None:
        return TerminalCost(P=_solve_riccati(A, B, Q, R_w, "DARE", stats))
    basis, w = modes
    a, b = float(A[0]), float(B[0])
    p = np.array([solve_dare_modal(a, b, float(q), float(r))
                  for q, r in zip(w.q_hat, w.r_hat[:basis.r])])
    P = (basis.V * p) @ basis.V.T
    P = 0.5 * (P + P.T)
    _accept("DARE", dare_residual(A, B, P, Q, R_w), 0, stats)
    return TerminalCost(P=P)


def solve_dare_modal(a: float, b: float, q_hat_i: float, r_hat_i: float) -> float:
    """Closed-form scalar DARE solution for one decoupled mode.

    With xi = r(1 - a^2) - b^2 q the solution is
    p = (-xi + sqrt(xi^2 + 4 b^2 q r)) / (2 b^2), evaluated for xi > 0 as
    p = 2 q r / (xi + sqrt(xi^2 + 4 b^2 q r)), the same root without the
    cancellation that costs the first form its digits when q r << xi^2.
    b == 0 degenerates to the Lyapunov limit p = q / (1 - a^2).  The a == 0
    and q == 0 branches are returned directly so the algebraic identities
    p = q and p = 0 hold without rounding.
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
    root = math.sqrt(xi * xi + 4.0 * b * b * q_hat_i * r_hat_i)
    if xi > 0.0:
        return float(2.0 * q_hat_i * r_hat_i / (xi + root))
    return float((root - xi) / (2.0 * b * b))


def modal_hessian(ss: StateSpace, basis: ModalBasis, weights: Weights, horizon: int) -> ModalHessian:
    """The condensed Hessian of a one-bandwidth plant (see one_bandwidth) by
    mode, in closed form (see qp's module docstring).

    In the basis [V, V_perp] mode i has the state weight q_i (q_hat, 0 on
    the n_u - r null-space modes), the input weight r_i (r_hat) and the
    terminal cost p_i = solve_dare_modal(a, b, q_i, r_i), 0 where q_i = 0,
    as solve_dare forms P.  Its block is b^2 p + r for N = 1, and for N = 2
    [[b^2 q + a^2 b^2 p + r, a b^2 p], [a b^2 p, b^2 p + r]].
    """
    if horizon not in SUPPORTED_HORIZONS:
        raise ConfigError(f"horizon must be one of {SUPPORTED_HORIZONS}, got {horizon}")
    a, b = float(ss.A[0]), float(ss.B[0])
    q = np.concatenate([weights.q_hat, np.zeros(ss.n_u - basis.r)])
    r = weights.r_hat
    p = np.array([solve_dare_modal(a, b, float(q_i), float(r_i)) for q_i, r_i in zip(q, r)])
    b2p = b * b * p
    if horizon == 1:
        blocks = (b2p + r)[:, None, None]
    else:
        blocks = np.empty((ss.n_u, 2, 2))
        blocks[:, 0, 0] = b * b * q + a * a * b2p + r
        blocks[:, 0, 1] = blocks[:, 1, 0] = a * b2p
        blocks[:, 1, 1] = b2p + r
    return ModalHessian(blocks=blocks, basis=basis.V_full, costs=np.stack([q, r, p]))


def modal_linear_term(ss: StateSpace, basis: ModalBasis, form: ModalHessian) -> tuple[np.ndarray, np.ndarray]:
    """The linear-term maps of a one-bandwidth plant by mode, in closed form:
    (alpha, beta), (N, n_u) and (N, r), with q_map_x0's stage-s block
    [V, V_perp] diag(alpha_s) [V, V_perp]^T and q_map_d's V diag(beta_s) U^T.

    From the block formulas of qp with g_m = a^m b, mode i's weights
    (q_i, r_i, p_i) from `form.costs` and M_s = -V diag(1/sigma) U^T (see
    setpoint_matrix): for N = 1, alpha_0 = a b p and beta_0 = (b p + r) /
    sigma; for N = 2, alpha_0 = a b q + a^3 b p, alpha_1 = a^2 b p,
    beta_0 = (b q + a b p + r) / sigma and beta_1 = (b p + r) / sigma, with
    1/sigma taken as setpoint_matrix takes it.
    """
    a, b = float(ss.A[0]), float(ss.B[0])
    q, r, p = form.costs
    if form.N == 1:
        alpha = (a * b * p)[None]
        weighted = (b * p + r)[None]
    else:
        alpha = np.stack([a * b * q + a ** 3 * b * p, a * a * b * p])
        weighted = np.stack([b * q + a * b * p + r, b * p + r])
    return alpha, weighted[:, :basis.r] * _inverse_sigma(basis.S)


def lqr_gain_modal(a: float, b: float, p_hat_i: float, r_hat_i: float) -> float:
    """Scalar LQR gain k = a b p / (r + b^2 p) for one mode."""
    denom = r_hat_i + b * b * p_hat_i
    if denom <= 0.0:
        raise ConfigError("r + b^2 p must be positive")
    return a * b * p_hat_i / denom


def imc_gain(sigma, lam: float):
    """Regularized pseudo-inverse gain sigma / (sigma^2 + lambda) per mode."""
    sigma = np.asarray(sigma, dtype=float)
    if not 0.0 <= lam < math.inf:  # NaN fails too
        raise ConfigError(f"regularization must be non-negative and finite, got {lam}")
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

    State weights are fixed at sigma^2.  Modes that cannot influence the
    output, sigma = 0 modes and the n_u - r null-space directions of a
    wide plant, have no gain to match; they take the largest matched
    weight, which keeps them the most heavily damped without stretching
    the spread of R_w beyond the matched ones.  Raises when a target gain
    exceeds the supremum a/b reachable by the scalar LQR.
    """
    sigma = basis.S
    q_hat = sigma ** 2
    k_imc = imc_gain(sigma, lam)
    live = sigma > 0.0
    if not np.any(live):
        raise ConfigError("response matrix has no nonzero singular value")
    r_hat_modes = np.zeros(basis.r)
    for i in np.flatnonzero(live):
        r_hat_modes[i] = _match_gain(a, b, q_hat[i], float(k_imc[i]), int(i))
    r_null = float(np.max(r_hat_modes))
    r_hat_modes[~live] = r_null
    n_u = basis.V.shape[0]
    r_hat = np.concatenate([r_hat_modes, np.full(n_u - basis.r, r_null)])
    Q = _dense_weights(basis.V, q_hat, 0.0)
    R_w = _dense_weights(basis.V, r_hat_modes, r_null)
    return Weights(q_hat=q_hat, r_hat=r_hat, Q=Q, R_w=R_w)


# ---------------------------------------------------------------------------
# Steady-state target
# ---------------------------------------------------------------------------

def setpoint_matrix(basis: ModalBasis) -> np.ndarray:
    """The n_u x n_y steady-state target map M_s = -C^+, from the modal basis of C.

    The steady state (x_s, u_s) for a disturbance d is the minimum-norm
    least-squares solution of S [x; u] = [0; d], S = [[I - A, -B], [-C, 0]],
    with C x = -d cancelling d at the output.  As B = I - A bit for bit and
    A_ii < 1, the first block row forces x = u, so x_s = u_s = M_s d.  C^+ =
    V diag(1/sigma) U^T is formed from `basis` by numpy's pseudo-inverse
    arithmetic and cutoff (modes at or below 1e-15 sigma_0 get 0).  When
    rank C < n_y (ModalBasis.rank) no input cancels every disturbance, and
    the target takes least-squares semantics; design_controller says so.
    """
    return -(basis.V @ (_inverse_sigma(basis.S)[:, None] * basis.U.T))


def _inverse_sigma(sigma: np.ndarray) -> np.ndarray:
    """1 / sigma with numpy's pseudo-inverse cutoff: 0 at or below 1e-15 sigma_0."""
    return np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 1e-15 * sigma[0])


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


def _dense_filter(ss: StateSpace, q_w: float, q_v: float, r_m: float,
                  stats: dict | None) -> tuple[PartitionedGain, float]:
    """The predictor gain from the dense filter Riccati equation on [z_mu; d],
    and the spectral radius of its estimation error."""
    n_u, n_y = ss.n_u, ss.n_y
    f = np.concatenate([ss.A, np.ones(n_y)])
    H = np.hstack([ss.C, np.eye(n_y)])
    Qn = np.diag(np.concatenate([np.full(n_u, q_w), np.full(n_y, q_v)]))
    Rn = r_m * np.eye(n_y)
    P = _solve_riccati(f, H.T, Qn, Rn, "observer Riccati", stats)
    S = H @ P @ H.T + Rn
    K = np.linalg.solve(0.5 * (S + S.T), (H @ P) * f).T
    gain = PartitionedGain(K[:n_u], K[n_u:], ss.A, ss.mu)
    return gain, _error_spectral_radius(ss, gain)


def _modal_filter(ss: StateSpace, basis: ModalBasis, q_w: float, q_v: float, r_m: float,
                  stats: dict | None) -> tuple[PartitionedGain, float]:
    """The predictor gain of a one-bandwidth plant, mode by mode, and the
    spectral radius of its estimation error.

    In the coordinates (V^T z_mu, U^T d), with U and V completed to
    orthogonal bases, F = diag(a I, I) and both noise covariances keep
    their form and H = [diag(sigma), I], so the filter equation splits:
    - r coupled modes (z_i, d_i) with H_i = [sigma_i, 1], solved together
      as one stack of 2 x 2 problems by the doubling kernel;
    - n_y - r modes that hold only a disturbance (F = H = 1), with the
      scalar closed form p_0 = solve_dare_modal(1, 1, q_v, r_m) and gain
      k_0 = p_0 / (p_0 + r_m);
    - n_u - r unmeasured modes (H = 0), whose gain is zero and whose
      covariance is the Lyapunov solution q_w / (1 - a^2).
    So L_zmu = V diag(k_z) U^T and L_d = U diag(k_d) U^T + k_0 (I - U U^T).
    The residual gate takes the relative Frobenius residual over all the
    modal blocks, which by orthogonal invariance equals the dense one, and
    the error loop's spectrum is the union of the blocks' closed loops:
    the 2 x 2 ones, 1 - k_0 and a.
    """
    n_u, n_y, r = ss.n_u, ss.n_y, basis.r
    a = float(ss.A[0])
    what = "observer Riccati"
    F = np.broadcast_to(np.diag([a, 1.0]), (r, 2, 2))
    h = np.stack([basis.S, np.ones(r)], axis=-1)[:, :, None]
    ht = np.swapaxes(h, -1, -2)
    Qn = np.diag([q_w, q_v])
    P, doublings = _doubling(F, (h @ ht) / r_m, np.tile(Qn, (r, 1, 1)), what)
    K = (F @ P @ h) / (ht @ P @ h + r_m)
    k_z, k_d = K[:, 0, 0], K[:, 1, 0]

    p_0 = solve_dare_modal(1.0, 1.0, q_v, r_m)
    k_0 = p_0 / (p_0 + r_m)
    p_u = solve_dare_modal(a, 0.0, q_w, r_m) if n_u > r else 0.0
    gap, size = _riccati_gap(F, h, P, Qn, np.array([[r_m]]))
    scalar_gap, scalar_size = _riccati_gap(
        np.array([[[1.0]], [[a]]]), np.array([[[1.0]], [[0.0]]]), np.array([[[p_0]], [[p_u]]]),
        np.array([[[q_v]], [[q_w]]]), np.array([[r_m]]))
    count = np.array([n_y - r, n_u - r])
    residual = math.sqrt((np.sum(gap ** 2) + count @ scalar_gap ** 2)
                         / max(np.sum(size ** 2) + count @ scalar_size ** 2, np.finfo(float).tiny))
    _accept(what, residual, doublings, stats)

    L_zmu = (basis.V * k_z) @ basis.U.T
    L_d = (basis.U * k_d) @ basis.U.T
    if n_y > r:
        L_d = L_d + k_0 * (np.eye(n_y) - basis.U @ basis.U.T)
    radii = np.abs(np.linalg.eigvals(F - K @ ht)).ravel()
    rho = float(max(np.max(radii),
                    abs(1.0 - k_0) if n_y > r else 0.0,
                    abs(a) if n_u > r else 0.0))
    return PartitionedGain(L_zmu, L_d, ss.A, ss.mu), rho


def kalman_gain(
    ss: StateSpace,
    sigma_v: float = 1.0,
    sigma_w: float = 1e-4,
    sigma_m: float = 1e-2,
    *,
    basis: ModalBasis | None = None,
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
        Q = diag(sigma_w^2 I, sigma_v^2 I),  R = sigma_m^2 I.
    On a plant of one bandwidth (see one_bandwidth) it is solved mode by
    mode in the modal basis of C (`basis`, which must be the SVD of ss.C,
    or one SVD of ss.C when none is given); otherwise as the dense dual DARE (F^T = F, H^T) by doubling.
    Both gate the solution on the same 1e-8 relative residual as
    solve_dare.  The predictor gain K = F P H^T (H P H^T + R)^-1 gives
    L_zmu and L_d, whose A^i propagation gives L_x and L_z1..L_z(mu-1)
    (see PartitionedGain).

    If `stats` is a dict it receives the doubling count and the relative
    residual.  Raises if the estimation error does not contract.
    """
    # the comparisons are written so that NaN fails them
    if not 0.0 < sigma_m < math.inf:
        raise ConfigError(f"measurement noise sigma_m must be positive and finite, got {sigma_m}")
    if not 0.0 < sigma_v < math.inf:
        raise ConfigError(f"disturbance drive sigma_v must be positive and finite, got {sigma_v}")
    if not 0.0 <= sigma_w < math.inf:
        raise ConfigError(f"process noise sigma_w must be non-negative and finite, got {sigma_w}")
    noise = (sigma_w ** 2, sigma_v ** 2, sigma_m ** 2)
    if one_bandwidth(ss):
        gain, rho = _modal_filter(ss, modal_decompose(ss.C) if basis is None else basis, *noise, stats)
    else:
        gain, rho = _dense_filter(ss, *noise, stats)
    if not rho < 1.0:
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
    at kappa = 1 where the contraction factor degenerates.  ln(1 - x) is
    log1p(-x): 1 - x rounds to 1.0, and its log to 0, once kappa > ~1e32.
    """
    if p.Delta <= p.epsilon:
        return 0
    sqrt_branch = math.ceil(2.0 * math.sqrt(p.Delta / p.epsilon) - 2.0)
    if p.kappa > 1.0:
        log_branch = math.ceil(
            (math.log(p.epsilon) - math.log(p.Delta)) / math.log1p(-math.sqrt(1.0 / p.kappa))
        )
        bound = min(log_branch, sqrt_branch)
    else:
        bound = sqrt_branch
    return max(0, int(bound))
