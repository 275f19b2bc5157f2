"""Independent reference implementations used to validate the library.

Everything here is deliberately written from primitive definitions
(candidate enumeration, plain dense algebra, textbook recursions) rather
than by calling the code under test.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Exact projection onto one actuator's stage polytope (2-D)
# ---------------------------------------------------------------------------

def stage_halfplanes(u_prev: float, alpha: float, rho: float):
    """A x <= b rows for {(u0,u1): |u0-u_prev|<=rho, |u1-u0|<=rho, |u0|<=alpha, |u1|<=alpha}."""
    A = np.array([
        [1.0, 0.0], [-1.0, 0.0],
        [0.0, 1.0], [0.0, -1.0],
        [-1.0, 1.0], [1.0, -1.0],
        [1.0, 0.0], [-1.0, 0.0],
    ])
    b = np.array([
        u_prev + rho, rho - u_prev,
        alpha, alpha,
        rho, rho,
        alpha, alpha,
    ])
    return A, b


def polygon_project_oracle(t: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """Exact Euclidean projection onto {x: A x <= b} in 2-D.

    Enumerates all candidate minimizers: the point itself, the foot of the
    perpendicular on each active line, and every pairwise line
    intersection; keeps feasible candidates and returns the closest.
    Returns None for an empty polygon.  2x2 systems are solved by hand so
    the enumeration stays cheap enough for bulk comparisons.
    """
    tx, ty = float(t[0]), float(t[1])
    m = A.shape[0]
    candidates = []

    def feasible(px, py):
        return bool(np.all(A[:, 0] * px + A[:, 1] * py <= b + tol))

    if feasible(tx, ty):
        candidates.append((tx, ty))
    for i in range(m):
        nx, ny = A[i]
        scale = (nx * tx + ny * ty - b[i]) / (nx * nx + ny * ny)
        fx, fy = tx - scale * nx, ty - scale * ny
        if feasible(fx, fy):
            candidates.append((fx, fy))
    for i in range(m):
        for j in range(i + 1, m):
            det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
            if abs(det) < 1e-14:
                continue
            px = (b[i] * A[j, 1] - b[j] * A[i, 1]) / det
            py = (A[i, 0] * b[j] - A[j, 0] * b[i]) / det
            if feasible(px, py):
                candidates.append((px, py))
    if not candidates:
        return None
    d2 = [(cx - tx) ** 2 + (cy - ty) ** 2 for cx, cy in candidates]
    return np.array(candidates[int(np.argmin(d2))])


class OracleStageProjector:
    """Vectorized exact projection for all actuators of one constraint set.

    Vertices come from pairwise line intersections (a different
    construction from the library's breakpoint formulas); per-point
    projection is the closest point over the polygon edge segments.
    """

    def __init__(self, u_prev, alpha, rho, N):
        self.N = N
        self.n_u = len(u_prev)
        self.alpha = np.asarray(alpha, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        self.u_prev = np.asarray(u_prev, dtype=float)
        if N == 1:
            self.lo = np.maximum(-self.alpha, self.u_prev - self.rho)
            self.hi = np.minimum(self.alpha, self.u_prev + self.rho)
            return
        polys = []
        for i in range(self.n_u):
            A, b = stage_halfplanes(self.u_prev[i], self.alpha[i], self.rho[i])
            verts = []
            for r in range(A.shape[0]):
                for s in range(r + 1, A.shape[0]):
                    M = np.array([A[r], A[s]])
                    if abs(np.linalg.det(M)) < 1e-14:
                        continue
                    p = np.linalg.solve(M, np.array([b[r], b[s]]))
                    if np.all(A @ p <= b + 1e-9):
                        verts.append(p)
            verts = np.array(verts)
            centre = verts.mean(axis=0)
            order = np.argsort(np.arctan2(verts[:, 1] - centre[1], verts[:, 0] - centre[0]))
            polys.append((np.array(A), np.array(b), verts[order]))
        self._polys = polys

    def project(self, t_flat: np.ndarray) -> np.ndarray:
        if self.N == 1:
            return np.clip(t_flat, self.lo, self.hi)
        out = np.empty_like(t_flat)
        n = self.n_u
        for i, (A, b, verts) in enumerate(self._polys):
            p = np.array([t_flat[i], t_flat[n + i]])
            if np.all(A @ p <= b + 1e-12):
                out[i], out[n + i] = p
                continue
            best, best_d = None, np.inf
            k = len(verts)
            for v_idx in range(k):
                a_pt = verts[v_idx]
                w = verts[(v_idx + 1) % k] - a_pt
                ww = w @ w
                frac = 0.0 if ww == 0.0 else np.clip((p - a_pt) @ w / ww, 0.0, 1.0)
                c = a_pt + frac * w
                d = np.linalg.norm(c - p)
                if d < best_d:
                    best, best_d = c, d
            out[i], out[n + i] = best
        return out


# ---------------------------------------------------------------------------
# QP solve via plain projected gradient (no acceleration)
# ---------------------------------------------------------------------------

def projected_gradient_qp(J, q, projector, x0, max_iter=60_000, tol=1e-13):
    """Minimize 0.5 x'Jx + q'x over the projector's set, no momentum.

    Runs until the iterate change stalls, then certifies the returned
    point as a projected-gradient fixed point.
    """
    lmax = float(np.linalg.eigvalsh(J)[-1])
    x = projector.project(np.asarray(x0, dtype=float))
    for _ in range(max_iter):
        x_new = projector.project(x - (J @ x + q) / lmax)
        if np.max(np.abs(x_new - x)) < tol * max(1.0, np.max(np.abs(x_new))):
            x = x_new
            break
        x = x_new
    residual = np.max(np.abs(projector.project(x - (J @ x + q) / lmax) - x))
    return x, float(residual)


def stacked_halfplanes(u_prev, alpha, rho, N):
    """A x <= b rows of U_N for the stage-major stacked iterate: per
    actuator |u0 - u_prev| <= rho and |u0| <= alpha, and for N = 2 also
    stage_halfplanes' rows on (u0, u1)."""
    n_u = len(u_prev)
    rows, rhs = [], []
    for i in range(n_u):
        if N == 1:
            A = np.array([[1.0], [-1.0], [1.0], [-1.0]])
            b = np.array([u_prev[i] + rho[i], rho[i] - u_prev[i], alpha[i], alpha[i]])
        else:
            A, b = stage_halfplanes(u_prev[i], alpha[i], rho[i])
        full = np.zeros((A.shape[0], N * n_u))
        for stage in range(N):
            full[:, stage * n_u + i] = A[:, stage]
        rows.append(full)
        rhs.append(b)
    return np.vstack(rows), np.concatenate(rhs)


def active_set_qp(J, q, A, b, x0, max_iter=10_000):
    """Minimize 0.5 x'Jx + q'x subject to A x <= b from a feasible x0 by the
    primal active-set method (Nocedal and Wright, Algorithm 16.3), starting
    from an empty working set.  Each step solves the KKT system of the
    working set exactly, so the result is the minimizer to rounding however
    ill-conditioned J is; returns it."""
    x = np.array(x0, dtype=float)
    n = x.size
    working: list[int] = []
    at_minimum = False
    for _ in range(max_iter):
        m = len(working)
        Aw = A[working].reshape(m, n)
        kkt = np.block([[J, Aw.T], [Aw, np.zeros((m, m))]])
        step = np.linalg.solve(kkt, np.concatenate([-(J @ x + q), np.zeros(m)]))
        p, lam = step[:n], step[n:]
        if at_minimum or np.max(np.abs(p)) <= 1e-12 * (1.0 + np.max(np.abs(x))):
            # J x + q + Aw' lam = 0: optimal once every multiplier is >= 0
            if m == 0 or lam.min() >= -1e-12:
                return x
            working.pop(int(np.argmin(lam)))
            at_minimum = False
            continue
        Ap, slack = A @ p, b - A @ x
        length, blocking = 1.0, None
        for i in np.nonzero(Ap > 0.0)[0]:
            if i not in working and slack[i] / Ap[i] < length:
                length, blocking = max(slack[i] / Ap[i], 0.0), int(i)
        x = x + length * p
        if blocking is None:
            at_minimum = True
        else:
            working.append(blocking)
    raise RuntimeError("active-set QP did not stop")


# ---------------------------------------------------------------------------
# Dense references for the structured pieces
# ---------------------------------------------------------------------------

def augmented_observer_matrices(A_diag, C, mu):
    """Dense (F, H) of the delay-augmented system [x; z1..zmu; d]."""
    n_u = len(A_diag)
    n_y = C.shape[0]
    n = (mu + 1) * n_u + n_y
    F = np.zeros((n, n))
    F[:n_u, :n_u] = np.diag(A_diag)
    for i in range(mu):
        F[(i + 1) * n_u : (i + 2) * n_u, i * n_u : (i + 1) * n_u] = np.eye(n_u)
    F[(mu + 1) * n_u :, (mu + 1) * n_u :] = np.eye(n_y)
    H = np.zeros((n_y, n))
    H[:, mu * n_u : (mu + 1) * n_u] = C
    H[:, (mu + 1) * n_u :] = np.eye(n_y)
    return F, H


def kalman_predictor_gain_dense(A_diag, C, mu, sigma_v, sigma_w, sigma_m,
                                iters=200_000, tol=1e-12):
    """Steady-state predictor gain by brute-force dense Riccati recursion."""
    F, H = augmented_observer_matrices(A_diag, C, mu)
    n = F.shape[0]
    n_u, n_y = len(A_diag), C.shape[0]
    Qn = np.zeros((n, n))
    Qn[:n_u, :n_u] = sigma_w ** 2 * np.eye(n_u)
    Qn[(mu + 1) * n_u :, (mu + 1) * n_u :] = sigma_v ** 2 * np.eye(n_y)
    Rn = sigma_m ** 2 * np.eye(n_y)
    P = np.eye(n)
    for _ in range(iters):
        S = H @ P @ H.T + Rn
        K = F @ P @ H.T @ np.linalg.inv(S)
        P_next = F @ P @ F.T + Qn - K @ H @ P @ F.T
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P) < tol * np.linalg.norm(P_next):
            P = P_next
            break
        P = P_next
    S = H @ P @ H.T + Rn
    return F @ P @ H.T @ np.linalg.inv(S), F, H


def setpoint_map_pinv(A_diag, B_diag, C):
    """Last n_y columns of pinv(S), S = [[I - A, -B], [-C, 0]], and whether S
    is row-rank deficient: the steady-state map by its definition."""
    n_u, n_y = len(A_diag), C.shape[0]
    S = np.zeros((n_u + n_y, 2 * n_u))
    S[:n_u, :n_u] = np.diag(1.0 - A_diag)
    S[:n_u, n_u:] = -np.diag(B_diag)
    S[n_u:, :n_u] = -C
    return np.linalg.pinv(S)[:, n_u:], bool(np.linalg.matrix_rank(S) < n_u + n_y)


def prediction_by_stepping(A_diag, B_diag, N):
    """(G, H) with x_stack = G u_stack + H x0, x_stack = [x_0; ...; x_N]:
    column by column, the state recursion x <- A x + B u driven by one
    unit input (G) or started from one unit state (H)."""
    n = len(A_diag)
    A, B = np.diag(A_diag), np.diag(B_diag)
    G = np.zeros(((N + 1) * n, N * n))
    H = np.zeros(((N + 1) * n, n))
    for col in range(N * n):
        u = np.zeros(N * n)
        u[col] = 1.0
        x = np.zeros(n)
        for k in range(N):
            x = A @ x + B @ u[k * n : (k + 1) * n]
            G[(k + 1) * n : (k + 2) * n, col] = x
    for col in range(n):
        x = np.zeros(n)
        x[col] = 1.0
        for k in range(N + 1):
            H[k * n : (k + 1) * n, col] = x
            x = A @ x
    return G, H


def condensed_qp_dense(A_diag, B_diag, Q, R_w, P, M_s, N):
    """(J, q_map_x0, q_map_d) of the horizon-N problem by dense algebra:
    J = G^T Omega G + I_N (x) R_w with Omega = (I_N (x) Q) (+) P, and the
    gradient at u = 0 with the target x_s = u_s = M_s d substituted,
    q = G^T Omega (H x0 - 1_(N+1) (x) x_s) - 1_N (x) R_w u_s."""
    n = len(A_diag)
    G, H = prediction_by_stepping(A_diag, B_diag, N)
    omega = np.zeros(((N + 1) * n, (N + 1) * n))
    for k in range(N + 1):
        omega[k * n : (k + 1) * n, k * n : (k + 1) * n] = P if k == N else Q
    J = G.T @ omega @ G + np.kron(np.eye(N), R_w)
    q_map_x0 = G.T @ omega @ H
    q_map_d = -(G.T @ omega @ np.kron(np.ones((N + 1, 1)), np.eye(n))
                + np.kron(np.ones((N, 1)), R_w)) @ M_s
    return J, q_map_x0, q_map_d


def mpc_objective(ss_A, ss_B, Q, R_w, P, N, x0, x_bar, u_bar, u_seq):
    """0.5 * horizon cost of the original (uncondensed) problem."""
    n_u = len(ss_A)
    x = np.asarray(x0, dtype=float).copy()
    total = 0.0
    for i in range(N):
        u_i = u_seq[i * n_u : (i + 1) * n_u]
        dx = x - x_bar
        du = u_i - u_bar
        total += dx @ Q @ dx + du @ R_w @ du
        x = ss_A * x + ss_B * u_i
    dx = x - x_bar
    total += dx @ P @ dx
    return 0.5 * total
