import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmpc import (
    ConstraintSet,
    DimensionError,
    InfeasibleError,
    NumericalError,
    build_condensed,
    build_hessian,
    build_linear_maps,
    build_prediction,
    build_state_space,
    default_delta,
    design_weights_saturated,
    modal_decompose,
    project_stage_n1,
    project_stage_n2,
    setpoint_matrix,
    solve_dare,
    spectral_bounds,
    update_constraint_set,
)
from orbitmpc.design import TerminalCost, Weights
from orbitmpc.model import StateSpace

from oracles import mpc_objective, polygon_project_oracle, stage_halfplanes


def small_ss(rng, n_u=4, n_y=4, mu=2):
    a = rng.uniform(0.3, 0.9, n_u)
    return StateSpace(A=a, B=1.0 - a, C=rng.standard_normal((n_y, n_u)), mu=mu)


def design_parts(ss):
    basis = modal_decompose(ss.C)
    w = design_weights_saturated(basis, 1e-3, 1e3)
    terminal = solve_dare(ss.A, ss.B, w.Q, w.R_w)
    M_s = setpoint_matrix(ss, basis)
    return w, terminal, M_s


class TestPrediction:
    def test_horizon_one_blocks(self, rng):
        ss = small_ss(rng)
        pred = build_prediction(ss, 1)
        n = ss.n_u
        assert np.array_equal(pred.G[:n], np.zeros((n, n)))
        assert np.array_equal(pred.G[n:], np.diag(ss.B))
        assert np.array_equal(pred.H[:n], np.eye(n))
        assert np.array_equal(pred.H[n:], np.diag(ss.A))

    def test_horizon_two_blocks(self, rng):
        ss = small_ss(rng)
        pred = build_prediction(ss, 2)
        n = ss.n_u
        B, AB = np.diag(ss.B), np.diag(ss.A * ss.B)
        assert np.array_equal(pred.G[n : 2 * n, :n], B)
        assert np.array_equal(pred.G[n : 2 * n, n:], np.zeros((n, n)))
        assert np.array_equal(pred.G[2 * n :, :n], AB)
        assert np.array_equal(pred.G[2 * n :, n:], B)

    def test_matches_step_recursion(self, rng):
        ss = small_ss(rng)
        N = 2
        pred = build_prediction(ss, N)
        x0 = rng.standard_normal(ss.n_u)
        u = rng.standard_normal(N * ss.n_u)
        stacked = pred.G @ u + pred.H @ x0
        x = x0.copy()
        for i in range(N):
            assert np.allclose(stacked[i * ss.n_u : (i + 1) * ss.n_u], x, atol=1e-13)
            x = ss.A * x + ss.B * u[i * ss.n_u : (i + 1) * ss.n_u]
        assert np.allclose(stacked[N * ss.n_u :], x, atol=1e-13)


class TestHessian:
    def test_horizon_one_identity(self, rng):
        ss = small_ss(rng)
        w, terminal, _ = design_parts(ss)
        pred = build_prediction(ss, 1)
        J = build_hessian(pred, w, terminal, 1)
        B = np.diag(ss.B)
        J_direct = B.T @ terminal.P @ B + w.R_w
        assert np.allclose(J, J_direct, rtol=1e-14, atol=0)

    def test_degenerate_weights_identity(self):
        ss = StateSpace(A=np.ones(3), B=np.zeros(3), C=np.eye(3), mu=0)
        w = Weights(q_hat=np.zeros(3), r_hat=np.ones(3), Q=np.zeros((3, 3)), R_w=np.eye(3))
        terminal = TerminalCost(P=np.eye(3))
        pred = build_prediction(ss, 1)
        assert np.array_equal(build_hessian(pred, w, terminal, 1), np.eye(3))

    def test_horizon_two_matches_dense_formula(self, rng):
        ss = small_ss(rng, n_u=3, n_y=3)
        w, terminal, _ = design_parts(ss)
        pred = build_prediction(ss, 2)
        J = build_hessian(pred, w, terminal, 2)
        omega = scipy.linalg.block_diag(w.Q, w.Q, terminal.P)
        J_ref = pred.G.T @ omega @ pred.G + np.kron(np.eye(2), w.R_w)
        assert np.allclose(J, J_ref, rtol=1e-12)

    def test_indefinite_rejected(self, rng):
        ss = small_ss(rng)
        w = Weights(q_hat=np.zeros(4), r_hat=np.ones(4), Q=np.zeros((4, 4)),
                    R_w=-np.eye(4))
        terminal = TerminalCost(P=np.zeros((4, 4)))
        pred = build_prediction(ss, 1)
        with pytest.raises(NumericalError):
            build_hessian(pred, w, terminal, 1)


class TestLinearMaps:
    def test_zero_inputs_give_zero(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        pred = build_prediction(ss, 2)
        q_x0, q_d = build_linear_maps(pred, w, terminal, M_s, 2)
        assert np.allclose(q_x0 @ np.zeros(ss.n_u) + q_d @ np.zeros(ss.n_y), 0.0)

    def test_matches_two_step_computation(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        N = 2
        pred = build_prediction(ss, N)
        q_x0, q_d = build_linear_maps(pred, w, terminal, M_s, N)
        x0 = rng.standard_normal(ss.n_u)
        d = rng.standard_normal(ss.n_y)
        # explicit route: setpoints first, then the textbook linear term
        x_bar = u_bar = M_s @ d
        omega = scipy.linalg.block_diag(w.Q, w.Q, terminal.P)
        stack_q = np.vstack([w.Q, w.Q, terminal.P])
        q_ref = (pred.G.T @ omega @ pred.H @ x0
                 - pred.G.T @ stack_q @ x_bar
                 - np.tile(w.R_w @ u_bar, N))
        q_got = q_x0 @ x0 + q_d @ d
        scale = max(1.0, np.linalg.norm(q_ref))
        assert np.linalg.norm(q_got - q_ref) < 1e-10 * scale

    def test_q_is_gradient_at_zero(self, rng):
        # finite differences of the uncondensed objective at u = 0
        ss = small_ss(rng, n_u=2, n_y=2, mu=1)
        w, terminal, M_s = design_parts(ss)
        N = 1
        pred = build_prediction(ss, N)
        q_x0, q_d = build_linear_maps(pred, w, terminal, M_s, N)
        x0 = rng.standard_normal(2)
        d = rng.standard_normal(2)
        q = q_x0 @ x0 + q_d @ d
        x_bar = u_bar = M_s @ d
        h = 1e-6
        for j in range(N * ss.n_u):
            e = np.zeros(N * ss.n_u)
            e[j] = h
            f_plus = mpc_objective(ss.A, ss.B, w.Q, w.R_w, terminal.P, N, x0, x_bar, u_bar, e)
            f_minus = mpc_objective(ss.A, ss.B, w.Q, w.R_w, terminal.P, N, x0, x_bar, u_bar, -e)
            grad_j = (f_plus - f_minus) / (2 * h)
            assert grad_j == pytest.approx(q[j], abs=1e-4)


class TestSpectralBounds:
    def test_identity(self):
        assert spectral_bounds(np.eye(3)) == (1.0, 1.0, 0.0)

    def test_diagonal(self):
        lmin, lmax, beta = spectral_bounds(np.diag([4.0, 1.0]))
        assert (lmin, lmax) == (1.0, 4.0)
        assert beta == pytest.approx(1.0 / 3.0)

    def test_random_spd_matches_eig(self, rng):
        M = rng.standard_normal((7, 7))
        J = M @ M.T + 0.1 * np.eye(7)
        eigs = np.linalg.eigvalsh(J)
        lmin, lmax, _ = spectral_bounds(J)
        assert lmin == pytest.approx(eigs[0], rel=1e-8)
        assert lmax == pytest.approx(eigs[-1], rel=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            spectral_bounds(np.diag([1.0, -0.1]))


def make_set(rng, n_u=5, N=1, alpha=1.0, rho=0.1, u_prev=None):
    if u_prev is None:
        u_prev = rng.uniform(-alpha, alpha, n_u)
    return ConstraintSet(alpha=np.full(n_u, alpha), rho=np.full(n_u, rho),
                         u_prev=np.asarray(u_prev, dtype=float), N=N)


class TestStageProjectionN1:
    def test_interior_unchanged(self, rng):
        cset = make_set(rng, u_prev=np.zeros(5))
        t = rng.uniform(-0.05, 0.05, 5)
        assert np.array_equal(project_stage_n1(t, cset), t)

    def test_rate_binds_before_amplitude(self):
        cset = ConstraintSet(alpha=np.array([1.0]), rho=np.array([0.1]),
                             u_prev=np.array([0.0]), N=1)
        assert project_stage_n1(np.array([5.0]), cset)[0] == pytest.approx(0.1)

    def test_matches_interval_oracle(self, rng):
        for _ in range(200):
            cset = make_set(rng)
            t = rng.uniform(-3, 3, 5)
            got = project_stage_n1(t, cset)
            lo = np.maximum(-cset.alpha, cset.u_prev - cset.rho)
            hi = np.minimum(cset.alpha, cset.u_prev + cset.rho)
            assert np.array_equal(got, np.minimum(np.maximum(t, lo), hi))

    def test_empty_interval_rejected(self):
        cset = ConstraintSet(alpha=np.array([1.0]), rho=np.array([0.1]),
                             u_prev=np.array([1.5]), N=1)
        with pytest.raises(InfeasibleError):
            project_stage_n1(np.array([0.0]), cset)


class TestStageProjectionN2:
    def test_interior_unchanged(self, rng):
        cset = make_set(rng, N=2, u_prev=np.zeros(5))
        t = rng.uniform(-0.04, 0.04, (5, 2))
        assert np.array_equal(project_stage_n2(t, cset), t)

    def test_band_face_projection(self):
        cset = ConstraintSet(alpha=np.array([10.0]), rho=np.array([1.0]),
                             u_prev=np.array([0.0]), N=2)
        got = project_stage_n2(np.array([[0.0, 3.0]]), cset)
        assert np.allclose(got, [[1.0, 2.0]], atol=1e-12)

    def test_vertex_projection(self):
        cset = ConstraintSet(alpha=np.array([1.0]), rho=np.array([1.0]),
                             u_prev=np.array([0.0]), N=2)
        got = project_stage_n2(np.array([[5.0, 5.0]]), cset)
        assert np.allclose(got, [[1.0, 1.0]], atol=1e-12)

    def test_matches_candidate_oracle(self, rng):
        for _ in range(300):
            alpha = rng.uniform(0.2, 2.0)
            rho = rng.uniform(0.02, 3.0 * alpha)  # includes rho >= 2 alpha
            u_prev = rng.uniform(-alpha, alpha)
            cset = ConstraintSet(alpha=np.array([alpha]), rho=np.array([rho]),
                                 u_prev=np.array([u_prev]), N=2)
            t = rng.uniform(-3 * alpha, 3 * alpha, (1, 2))
            got = project_stage_n2(t, cset)[0]
            A, b = stage_halfplanes(u_prev, alpha, rho)
            want = polygon_project_oracle(t[0], A, b)
            assert np.allclose(got, want, atol=1e-8)

    def test_projected_point_feasible(self, rng):
        for _ in range(100):
            cset = make_set(rng, N=2)
            t = rng.uniform(-4, 4, (5, 2))
            p = project_stage_n2(t, cset)
            lo, hi = cset.stage0_bounds()
            assert np.all(p[:, 0] >= lo - 1e-12)
            assert np.all(p[:, 0] <= hi + 1e-12)
            assert np.all(np.abs(p[:, 1]) <= cset.alpha + 1e-12)
            assert np.all(np.abs(p[:, 1] - p[:, 0]) <= cset.rho + 1e-12)

    def test_idempotent_exactly(self, rng):
        for N in (1, 2):
            cset = make_set(rng, N=N)
            t = rng.uniform(-4, 4, N * 5)
            once = cset.project(t)
            assert np.array_equal(cset.project(once), once)

    def test_nonexpansive(self, rng):
        for N in (1, 2):
            cset = make_set(rng, N=N)
            for _ in range(50):
                a = rng.uniform(-3, 3, N * 5)
                b = rng.uniform(-3, 3, N * 5)
                lhs = np.linalg.norm(cset.project(a) - cset.project(b))
                assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_infeasible_names_actuator(self):
        cset = ConstraintSet(alpha=np.array([1.0, 1.0]), rho=np.array([0.1, 0.1]),
                             u_prev=np.array([0.0, 2.0]), N=2)
        with pytest.raises(InfeasibleError, match=r"\[1\]"):
            project_stage_n2(np.zeros((2, 2)), cset)


@settings(max_examples=60, deadline=None)
@given(
    t0=st.floats(-5, 5), t1=st.floats(-5, 5),
    alpha=st.floats(0.1, 2.0), rho_frac=st.floats(0.05, 2.5),
    prev_frac=st.floats(-1.0, 1.0),
)
def test_projection_properties_hypothesis(t0, t1, alpha, rho_frac, prev_frac):
    rho = rho_frac * alpha
    cset = ConstraintSet(alpha=np.array([alpha]), rho=np.array([rho]),
                         u_prev=np.array([prev_frac * alpha]), N=2)
    t = np.array([t0, t1])
    p = cset.project(t)
    assert np.array_equal(cset.project(p), p)
    assert abs(p[0]) <= alpha + 1e-12 and abs(p[1]) <= alpha + 1e-12
    assert abs(p[1] - p[0]) <= rho + 1e-12
    A, b = stage_halfplanes(cset.u_prev[0], alpha, rho)
    want = polygon_project_oracle(np.array([t0, t1]), A, b)
    assert np.allclose(np.array([p[0], p[1]]), want, atol=1e-8)


class TestConstraintSetUpdates:
    def test_same_input_keeps_bounds(self, rng):
        cset = make_set(rng)
        updated = update_constraint_set(cset, cset.u_prev)
        assert np.array_equal(updated.u_prev, cset.u_prev)

    def test_at_amplitude_edge(self):
        cset = ConstraintSet(alpha=np.array([1.0]), rho=np.array([0.1]),
                             u_prev=np.array([0.0]), N=1)
        updated = update_constraint_set(cset, np.array([1.0]))
        lo, hi = updated.stage0_bounds()
        assert hi[0] == pytest.approx(1.0)
        assert lo[0] == pytest.approx(0.9)

    def test_out_of_range_rejected(self, rng):
        cset = make_set(rng)
        with pytest.raises(InfeasibleError):
            update_constraint_set(cset, cset.alpha + 1e-3)

    def test_endpoint_invariant_over_random_sequence(self, rng):
        cset = make_set(rng, u_prev=np.zeros(5))
        for _ in range(200):
            lo, hi = cset.stage0_bounds()
            assert np.all(lo >= -cset.alpha - 1e-15)
            assert np.all(hi <= cset.alpha + 1e-15)
            u = cset.project(rng.uniform(-2, 2, 5))
            cset = update_constraint_set(cset, u)


class TestBuildCondensedAndDelta:
    def test_build_condensed_round(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        cq = build_condensed(ss, w, terminal, M_s, 2)
        assert cq.beta == pytest.approx(
            (np.sqrt(cq.lambda_max) - np.sqrt(cq.lambda_min))
            / (np.sqrt(cq.lambda_max) + np.sqrt(cq.lambda_min)))
        assert 0.0 <= cq.beta < 1.0
        with pytest.raises(DimensionError):
            build_condensed(ss, w, terminal, M_s, 3)

    def test_default_delta_box(self):
        cset = ConstraintSet(alpha=np.array([1.0, 1.0]), rho=np.array([10.0, 10.0]),
                             u_prev=np.zeros(2), N=1)
        # box is [-1, 1]^2: D^2 = 8
        assert default_delta(2.0, cset) == pytest.approx(8.0)

    def test_default_delta_hexagon_matches_vertex_scan(self, rng):
        cset = make_set(rng, n_u=3, N=2)
        delta = default_delta(1.0, cset)
        total = 0.0
        for i in range(3):
            A, b = stage_halfplanes(cset.u_prev[i], cset.alpha[i], cset.rho[i])
            pts = []
            for r in range(8):
                for s in range(r + 1, 8):
                    M = np.array([A[r], A[s]])
                    if abs(np.linalg.det(M)) < 1e-12:
                        continue
                    v = np.linalg.solve(M, np.array([b[r], b[s]]))
                    if np.all(A @ v <= b + 1e-9):
                        pts.append(v)
            pts = np.array(pts)
            diff = pts[:, None, :] - pts[None, :, :]
            total += np.max(np.sum(diff ** 2, axis=-1))
        assert delta == pytest.approx(0.5 * total, rel=1e-9)

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("alpha, rho, u_prev", [
        (1.0, 0.1, 1.0),            # u_prev at +alpha
        (1.0, 0.1, -1.0),           # u_prev at -alpha
        (2.0, 0.7, 2.0),
        (1.0, 2.0, 0.3),            # rho = 2 alpha: the band never binds
        (1.0, 5.0, -1.0),
        (1.0, 1e-6, 0.25),          # rho << alpha
        (3.0, 1e-4, -3.0),
        (1.0, 0.5, 1.5),            # u_prev = alpha + rho: lo == hi == alpha
        (2.0, 0.25, -2.25),         # lo == hi == -alpha
    ])
    def test_default_delta_matches_vertex_scan_on_edge_sets(self, N, alpha, rho, u_prev):
        cset = ConstraintSet(alpha=np.array([alpha]), rho=np.array([rho]),
                             u_prev=np.array([u_prev]), N=N)
        A, b = stage_halfplanes(u_prev, alpha, rho)
        pts = []
        for r in range(8):
            for s in range(r + 1, 8):
                M = np.array([A[r], A[s]])
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                v = np.linalg.solve(M, np.array([b[r], b[s]]))
                if np.all(A @ v <= b + 1e-9 * (1.0 + alpha + rho)):
                    pts.append(v)
        pts = np.array(pts)
        if N == 1:  # the stage-0 interval is the polygon's u0 range
            want = np.ptp(pts[:, 0]) ** 2
        else:
            want = np.max(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        assert default_delta(2.0, cset) == pytest.approx(want, rel=1e-9, abs=1e-24)
