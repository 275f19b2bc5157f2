import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmpc import (
    ConstraintSet,
    DimensionError,
    InfeasibleError,
    NumericalError,
    build_condensed,
    IterationBoundParams,
    build_state_space,
    default_delta,
    design_controller,
    design_weights_saturated,
    iteration_bound,
    modal_decompose,
    project_stage_n1,
    project_stage_n2,
    setpoint_matrix,
    solve_dare,
    spectral_bounds,
    synthetic_plant,
    update_constraint_set,
)
from orbitmpc.design import TerminalCost, Weights
from orbitmpc.model import StateSpace
from orbitmpc.qp import CondensedQP, ModalHessian

from oracles import (
    condensed_qp_dense,
    mpc_objective,
    polygon_project_oracle,
    prediction_by_stepping,
    stage_halfplanes,
)


def small_ss(rng, n_u=4, n_y=4, mu=2):
    a = rng.uniform(0.3, 0.9, n_u)
    return StateSpace(A=a, B=1.0 - a, C=rng.standard_normal((n_y, n_u)), mu=mu)


def design_parts(ss):
    basis = modal_decompose(ss.C)
    w = design_weights_saturated(basis, 1e-3, 1e3)
    terminal = solve_dare(ss.A, ss.B, w.Q, w.R_w)
    M_s = setpoint_matrix(basis)
    return w, terminal, M_s


# (n_y, n_u) of the random plants; "mixed" is the two-bandwidth plant fixture
SHAPES = {"square": (4, 4), "wide": (3, 5), "tall": (6, 4), "mixed": None}


@pytest.fixture(params=sorted(SHAPES))
def plant_ss(request, rng):
    if request.param == "mixed":
        return build_state_space(request.getfixturevalue("mixed_plant"))
    n_y, n_u = SHAPES[request.param]
    return small_ss(rng, n_u=n_u, n_y=n_y)


def random_parts(rng, ss):
    """Generic SPD Q, R_w, P and a dense M_s: no weight is diagonal or I."""
    def spd(n):
        M = rng.standard_normal((n, n))
        return M @ M.T + 0.1 * np.eye(n)
    w = Weights(q_hat=np.ones(ss.n_u), r_hat=np.ones(ss.n_u), Q=spd(ss.n_u), R_w=spd(ss.n_u))
    return w, TerminalCost(P=spd(ss.n_u)), rng.standard_normal((ss.n_u, ss.n_y))


def condensed_and_reference(rng, ss, N):
    w, terminal, M_s = random_parts(rng, ss)
    cq = build_condensed(ss, w, terminal, M_s, N)
    return cq, condensed_qp_dense(ss.A, ss.B, w.Q, w.R_w, terminal.P, M_s, N)


def assert_rel_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestPrediction:
    """The condensed QP is the horizon cost of the state recursion."""

    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_step_recursion(self, rng, plant_ss, N):
        # f(u) - f(0) = 0.5 u^T J u + q^T u for the uncondensed cost f
        ss = plant_ss
        w, terminal, M_s = random_parts(rng, ss)
        cq = build_condensed(ss, w, terminal, M_s, N)
        x0 = rng.standard_normal(ss.n_u)
        d = rng.standard_normal(ss.n_y)
        u = rng.standard_normal(N * ss.n_u)
        x_bar = u_bar = M_s @ d
        f = [mpc_objective(ss.A, ss.B, w.Q, w.R_w, terminal.P, N, x0, x_bar, u_bar, v)
             for v in (u, np.zeros_like(u))]
        want = f[0] - f[1]
        got = 0.5 * u @ cq.J @ u + cq.linear_term(x0, d) @ u
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_horizon_one_blocks(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        cq = build_condensed(ss, w, terminal, M_s, 1)
        B, A = np.diag(ss.B), np.diag(ss.A)
        assert_rel_close(cq.J, B @ terminal.P @ B + w.R_w, rel=1e-15)
        assert_rel_close(cq.q_map_x0, B @ terminal.P @ A, rel=1e-15)
        assert_rel_close(cq.q_map_d, -(B @ terminal.P + w.R_w) @ M_s)

    def test_horizon_two_blocks(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        cq = build_condensed(ss, w, terminal, M_s, 2)
        n = ss.n_u
        B, AB = np.diag(ss.B), np.diag(ss.A * ss.B)
        A, A2 = np.diag(ss.A), np.diag(ss.A ** 2)
        Q, P, R = w.Q, terminal.P, w.R_w
        assert_rel_close(cq.J[:n, :n], B @ Q @ B + AB @ P @ AB + R)
        assert_rel_close(cq.J[:n, n:], AB @ P @ B)
        assert_rel_close(cq.J[n:, n:], B @ P @ B + R)
        assert_rel_close(cq.q_map_x0[:n], B @ Q @ A + AB @ P @ A2)
        assert_rel_close(cq.q_map_x0[n:], B @ P @ A2)
        assert_rel_close(cq.q_map_d[:n], -(B @ Q + AB @ P + R) @ M_s)
        assert_rel_close(cq.q_map_d[n:], -(B @ P + R) @ M_s)


class TestHessian:
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_dense_reference(self, rng, plant_ss, N):
        cq, (J_ref, _, _) = condensed_and_reference(rng, plant_ss, N)
        assert_rel_close(cq.J, J_ref)
        assert np.array_equal(cq.J, cq.J.T)

    def test_degenerate_weights_identity(self):
        ss = StateSpace(A=np.ones(3), B=np.zeros(3), C=np.eye(3), mu=0)
        w = Weights(q_hat=np.zeros(3), r_hat=np.ones(3), Q=np.zeros((3, 3)), R_w=np.eye(3))
        terminal = TerminalCost(P=np.eye(3))
        cq = build_condensed(ss, w, terminal, np.zeros((3, 3)), 1)
        assert np.array_equal(cq.J, np.eye(3))
        assert (cq.lambda_min, cq.lambda_max, cq.beta) == (1.0, 1.0, 0.0)

    def test_indefinite_rejected(self, rng):
        ss = small_ss(rng)
        w = Weights(q_hat=np.zeros(4), r_hat=np.ones(4), Q=np.zeros((4, 4)),
                    R_w=-np.eye(4))
        terminal = TerminalCost(P=np.zeros((4, 4)))
        for N in (1, 2):
            with pytest.raises(NumericalError, match="not positive definite"):
                build_condensed(ss, w, terminal, np.zeros((4, 4)), N)

    def test_non_finite_weight_rejected(self, rng):
        # eigvalsh would return NaN eigenvalues or fail to converge
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        Q = w.Q.copy()
        Q[0, 1] = Q[1, 0] = np.nan
        w = Weights(q_hat=w.q_hat, r_hat=w.r_hat, Q=Q, R_w=w.R_w)
        with pytest.raises(NumericalError, match="not positive definite"):
            build_condensed(ss, w, terminal, M_s, 2)

    def test_one_ulp_asymmetry_refused(self, rng):
        # fgm's compiled kernel reads column i of W = I - J / lambda_max as row i
        M = rng.standard_normal((6, 6))
        J = M @ M.T + 6.0 * np.eye(6)
        lmin, lmax, beta = spectral_bounds(J)
        maps = dict(q_map_x0=np.zeros((6, 3)), q_map_d=np.zeros((6, 3)),
                    lambda_min=lmin, lambda_max=lmax, beta=beta, N=2, n_u=3)
        CondensedQP(J=J, **maps)
        J[1, 4] = np.nextafter(J[1, 4], np.inf)
        with pytest.raises(NumericalError, match=r"not exactly symmetric: J\[1, 4\] = .* "
                                                 r"but J\[4, 1\] = "):
            CondensedQP(J=J, **maps)


class TestLinearMaps:
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_dense_reference(self, rng, plant_ss, N):
        cq, (_, q_x0_ref, q_d_ref) = condensed_and_reference(rng, plant_ss, N)
        assert_rel_close(cq.q_map_x0, q_x0_ref)
        assert_rel_close(cq.q_map_d, q_d_ref)

    def test_zero_inputs_give_zero(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        cq = build_condensed(ss, w, terminal, M_s, 2)
        assert np.array_equal(cq.linear_term(np.zeros(ss.n_u), np.zeros(ss.n_y)),
                              np.zeros(2 * ss.n_u))

    def test_matches_two_step_computation(self, rng):
        ss = small_ss(rng)
        w, terminal, M_s = design_parts(ss)
        N = 2
        cq = build_condensed(ss, w, terminal, M_s, N)
        G, H = prediction_by_stepping(ss.A, ss.B, N)
        x0 = rng.standard_normal(ss.n_u)
        d = rng.standard_normal(ss.n_y)
        # explicit route: setpoints first, then the textbook linear term
        x_bar = u_bar = M_s @ d
        Z = np.zeros_like(w.Q)
        omega = np.block([[w.Q, Z, Z], [Z, w.Q, Z], [Z, Z, terminal.P]])
        stack_q = np.vstack([w.Q, w.Q, terminal.P])
        q_ref = (G.T @ omega @ H @ x0
                 - G.T @ stack_q @ x_bar
                 - np.tile(w.R_w @ u_bar, N))
        q_got = cq.linear_term(x0, d)
        scale = max(1.0, np.linalg.norm(q_ref))
        assert np.linalg.norm(q_got - q_ref) < 1e-10 * scale

    def test_q_is_gradient_at_zero(self, rng):
        # finite differences of the uncondensed objective at u = 0
        ss = small_ss(rng, n_u=2, n_y=2, mu=1)
        w, terminal, M_s = design_parts(ss)
        x0 = rng.standard_normal(2)
        d = rng.standard_normal(2)
        x_bar = u_bar = M_s @ d
        h = 1e-6
        for N in (1, 2):
            q = build_condensed(ss, w, terminal, M_s, N).linear_term(x0, d)
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

    @pytest.mark.parametrize("N", [1, 2])
    def test_empty_interval_rejected(self, N):
        # the set cannot be built, so no projection ever meets an empty interval
        with pytest.raises(InfeasibleError, match=r"actuator\(s\) \[0\]"):
            ConstraintSet(alpha=np.array([1.0]), rho=np.array([0.1]),
                          u_prev=np.array([1.5]), N=N)


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

    def test_infinite_amplitude_limit_keeps_the_slew_band(self, rng):
        # the band tolerance must stay finite when alpha is; a finite alpha
        # too large to bind gives the same set to the oracle
        cset = ConstraintSet(alpha=np.array([np.inf]), rho=np.array([0.1]),
                             u_prev=np.array([0.0]), N=2)
        assert np.allclose(project_stage_n2(np.array([[0.05, 1.0]]), cset), [[0.1, 0.2]],
                           atol=1e-12)
        for _ in range(300):
            rho = rng.uniform(0.02, 2.0)
            u_prev = rng.uniform(-3.0, 3.0)
            cset = ConstraintSet(alpha=np.array([np.inf]), rho=np.array([rho]),
                                 u_prev=np.array([u_prev]), N=2)
            t = rng.uniform(-10.0, 10.0, (1, 2))
            got = project_stage_n2(t, cset)
            A, b = stage_halfplanes(u_prev, 1e6, rho)
            assert np.allclose(got[0], polygon_project_oracle(t[0], A, b), atol=1e-8)
            assert np.array_equal(project_stage_n2(got, cset), got)

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
        with pytest.raises(InfeasibleError, match=r"actuator\(s\) \[1, 3\]"):
            ConstraintSet(alpha=np.ones(4), rho=np.full(4, 0.1),
                          u_prev=np.array([0.0, 2.0, 0.5, -1.2]), N=2)

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("field", ["u_prev", "alpha", "rho"])
    def test_nan_centre_or_limit_rejected(self, N, field):
        # NaN fails every `lo > hi` test, and its set would project to NaN
        values = {"alpha": np.ones(3), "rho": np.full(3, 0.1), "u_prev": np.zeros(3)}
        values[field][1] = np.nan
        with pytest.raises(InfeasibleError, match=r"actuator\(s\) \[1\]"):
            ConstraintSet(**values, N=N)


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


def set_arrays_by_formula(alpha, rho, u_prev, N):
    """The projection data of a set, each entry by its defining formula."""
    lo = np.maximum(-alpha, u_prev - rho)
    hi = np.minimum(alpha, u_prev + rho)
    if N == 1:
        return {"_lower": lo, "_upper": hi, "_packed": np.concatenate([lo, hi])}
    scale = np.where(np.isinf(alpha), np.abs(u_prev) + 2.0 * rho, alpha)
    band = rho + 1e-12 * (1.0 + scale + rho)
    seg_up = np.stack([lo, np.minimum(hi, alpha - rho)])
    seg_down = np.stack([np.maximum(lo, rho - alpha), hi])
    lower, upper = np.concatenate([lo, -alpha]), np.concatenate([hi, alpha])
    return {"_lower": lower, "_upper": upper, "_band": band, "seg_up": seg_up, "seg_down": seg_down,
            "_packed": np.concatenate([lower, upper, band, rho, seg_up.ravel(), seg_down.ravel()])}


class TestConstraintSetRecentring:
    @pytest.mark.parametrize("N", [1, 2])
    def test_recentred_set_bit_identical_to_its_formulas(self, rng, N):
        # one actuator without an amplitude limit, whose band depends on u_prev
        n_u = 6
        alpha = rng.uniform(0.5, 1.5, n_u)
        alpha[2] = np.inf
        rho = rng.uniform(0.01, 2.0, n_u)
        cset = ConstraintSet(alpha=alpha, rho=rho, u_prev=np.zeros(n_u), N=N)
        first = cset
        for _ in range(50):
            u = np.clip(rng.uniform(-3.0, 3.0, n_u), -np.minimum(alpha, 3.0), np.minimum(alpha, 3.0))
            cset = update_constraint_set(cset, u)
            want = set_arrays_by_formula(alpha, rho, u, N)
            got = {"_lower": cset._lower, "_upper": cset._upper, "_packed": cset._packed}
            if N == 2:
                got.update(_band=cset._band, seg_up=cset._segments[0], seg_down=cset._segments[1])
                for name in ("_lower", "_upper", "_band", "seg_up", "seg_down"):
                    assert np.shares_memory(got[name], cset._packed)
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
            assert not np.shares_memory(cset._packed, first._packed)
            assert cset.alpha is first.alpha and cset.rho is first.rho

    @pytest.mark.parametrize("N", [1, 2])
    def test_recentring_keeps_the_empty_set_check(self, N):
        # within the amplitude check's 1e-9, outside a one-point interval
        cset = ConstraintSet(alpha=np.ones(3), rho=np.array([0.1, 0.0, 0.1]), u_prev=np.zeros(3), N=N)
        with pytest.raises(InfeasibleError, match=r"actuator\(s\) \[1\]"):
            update_constraint_set(cset, np.array([0.0, 1.0 + 5e-10, 0.0]))

    @pytest.mark.parametrize("N", [1, 2])
    def test_set_keeps_a_copy_of_its_centre(self, N):
        u = np.array([0.2, -0.3, 0.0])
        first = ConstraintSet(alpha=np.ones(3), rho=np.full(3, 0.5), u_prev=u, N=N)
        cset = update_constraint_set(first, u)
        packed = cset._packed.copy()
        u[:] = 0.9
        for s in (first, cset):
            assert s.u_prev.tolist() == [0.2, -0.3, 0.0]
            assert not np.shares_memory(s.u_prev, u)
        assert cset._packed.tobytes() == packed.tobytes() == first._packed.tobytes()

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

    @pytest.mark.parametrize("N", [1, 2])
    def test_nan_applied_input_rejected(self, rng, N):
        cset = make_set(rng, N=N, n_u=3)
        with pytest.raises(InfeasibleError, match="applied input nan .* on actuator 1"):
            update_constraint_set(cset, np.array([0.0, np.nan, 0.0]))

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


# One-bandwidth plants of the shapes the modal form has to handle; a wide
# plant has one null-space mode, whose block takes q = p = 0
MODAL_PLANTS = {
    "wide": lambda: synthetic_plant(40, 41, 1e4, seed=7),
    "tall": lambda: synthetic_plant(41, 40, 1e4, seed=7),
}


def modal_design(shape, N, weights="saturated"):
    with warnings.catch_warnings():  # a tall plant's target is least squares
        warnings.simplefilter("ignore", UserWarning)
        return design_controller(MODAL_PLANTS[shape](), N, weights_mode=weights)


class TestModalHessian:
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("shape, weights", [("wide", "saturated"), ("tall", "saturated"),
                                                ("wide", "imc_matched")])
    def test_factored_product_matches_dense(self, rng, N, shape, weights):
        b = modal_design(shape, N, weights)
        cq, modal = b.condensed, b.condensed.modal
        norm_J = np.linalg.norm(cq.J, 2)
        for _ in range(5):
            v = rng.standard_normal(N * cq.n_u)
            gap = np.linalg.norm(modal.matvec(v) - cq.J @ v)
            assert gap <= 1e-14 * norm_J * np.linalg.norm(v)

    def test_null_space_mode_is_one_of_the_distinct_modes(self):
        b = modal_design("wide", 2)
        modal = b.condensed.modal
        assert b.basis.V_perp.shape == (41, 1)
        assert np.array_equal(modal.basis[:, 40], b.basis.V_perp[:, 0])
        # q = p = 0 leaves the input weight r = 1 on both stages
        assert np.array_equal(modal.blocks[40], np.eye(2))
        assert 40 in modal.modes
        assert np.allclose(b.basis.V_full.T @ b.basis.V_full, np.eye(41), rtol=0, atol=1e-14)
        assert np.max(np.abs(b.ss.C @ b.basis.V_perp)) <= 1e-15 * b.basis.S[0]

    def test_shared_block_is_the_most_common_bit_equal_block(self):
        blocks = np.array([[[2.0]], [[1.0]], [[2.0]], [[np.nextafter(2.0, 3.0)]], [[3.0]]])
        modal = ModalHessian(blocks=blocks, basis=np.eye(5))
        assert np.array_equal(modal.shared, [[2.0]])
        assert modal.modes.tolist() == [1, 3, 4]  # one ulp apart is apart
        assert np.array_equal(modal.V_K, np.eye(5)[:, [1, 3, 4]])
        assert modal.multiplies() == 1 * 5 + 2 * 3 * 5 + 3

    @pytest.mark.parametrize("N", [1, 2])
    def test_flop_rule_picks_factored_on_a_saturated_ring_like_design(self, N):
        cq = modal_design("wide", N).condensed
        assert cq.hessian_form == "factored"
        assert cq.modal.multiplies() < (N * cq.n_u) ** 2
        assert cq.factored_modes == cq.modal.modes.shape[0] < cq.n_u // 2

    @pytest.mark.parametrize("N", [1, 2])
    def test_flop_rule_picks_dense_when_every_mode_differs(self, N):
        # matched weights give every live mode its own block
        cq = modal_design("wide", N, "imc_matched").condensed
        assert cq.modal is not None and cq.factored_modes >= 40
        assert cq.hessian_form == "dense" and cq.factors is None

    def test_mixed_bandwidth_plant_has_no_modal_form(self, mixed_plant):
        cq = design_controller(mixed_plant, 2).condensed
        assert cq.modal is None and cq.factored_modes is None
        assert cq.hessian_form == "dense"

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_bounds_from_blocks_match_the_dense_eigensolve(self, N, shape):
        b = modal_design(shape, N)
        cq = b.condensed
        lmin, lmax, beta = spectral_bounds(cq.J)
        assert cq.lambda_min == pytest.approx(lmin, rel=1e-13, abs=0)
        assert cq.lambda_max == pytest.approx(lmax, rel=1e-13, abs=0)
        assert cq.beta == pytest.approx(beta, rel=1e-13, abs=0)
        assert b.i_max_bound == iteration_bound(
            IterationBoundParams(epsilon=b.epsilon, Delta=b.delta, kappa=lmax / lmin))

    @pytest.mark.parametrize("N", [1, 2])
    def test_bounds_from_blocks_of_an_ill_conditioned_design(self, N):
        # kappa ~ 1e5: a dense eigensolve's lambda_min is only good to about
        # eps lambda_max, which the blocks' agree with
        b = modal_design("wide", N, "imc_matched")
        cq = b.condensed
        lmin, lmax, beta = spectral_bounds(cq.J)
        assert cq.lambda_max / cq.lambda_min > 1e4
        assert abs(cq.lambda_min - lmin) <= 1e-13 * lmax
        assert cq.lambda_max == pytest.approx(lmax, rel=1e-13, abs=0)
        assert cq.beta == pytest.approx(beta, rel=1e-13, abs=0)
        assert b.i_max_bound == iteration_bound(
            IterationBoundParams(epsilon=b.epsilon, Delta=b.delta, kappa=lmax / lmin))

    @pytest.mark.parametrize("bad", [-0.5, 0.0, np.nan, np.inf])
    def test_block_not_positive_definite_or_finite_refused(self, bad):
        blocks = np.tile(np.eye(2), (3, 1, 1))
        blocks[1, 1, 1] = bad
        with pytest.raises(NumericalError, match="positive definite"):
            ModalHessian(blocks=blocks, basis=np.eye(3)).spectral_bounds()

    def test_form_that_disagrees_with_J_refused(self):
        cq = modal_design("wide", 2).condensed
        blocks = cq.modal.blocks.copy()
        blocks[3, 0, 0] *= 1.0 + 1e-9
        with pytest.raises(NumericalError, match="disagrees with its modal blocks"):
            CondensedQP(J=cq.J, q_map_x0=cq.q_map_x0, q_map_d=cq.q_map_d,
                        lambda_min=cq.lambda_min, lambda_max=cq.lambda_max, beta=cq.beta,
                        N=2, n_u=cq.n_u, modal=ModalHessian(blocks=blocks, basis=cq.modal.basis))

    def test_form_of_another_horizon_refused(self):
        cq = modal_design("wide", 2).condensed
        other = modal_design("wide", 1).condensed.modal
        with pytest.raises(DimensionError, match="horizon 1"):
            CondensedQP(J=cq.J, q_map_x0=cq.q_map_x0, q_map_d=cq.q_map_d,
                        lambda_min=cq.lambda_min, lambda_max=cq.lambda_max, beta=cq.beta,
                        N=2, n_u=cq.n_u, modal=other)
