import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from orbitmpc import (
    ConfigError,
    IterationBoundParams,
    NumericalError,
    build_state_space,
    condition_number,
    design_controller,
    design_weights_imc_matched,
    design_weights_saturated,
    imc_gain,
    iteration_bound,
    kalman_gain,
    lqr_gain_modal,
    modal_decompose,
    setpoint_matrix,
    solve_dare,
    solve_dare_modal,
    synthetic_plant,
)
from orbitmpc import design as design_mod
from orbitmpc.design import (
    _dense_filter,
    _error_spectral_radius,
    _match_gain,
    _modal_filter,
    dare_residual,
    one_bandwidth,
)
from orbitmpc.model import ModalBasis, StateSpace

from oracles import kalman_predictor_gain_dense, augmented_observer_matrices, setpoint_map_pinv


class TestSolveDare:
    def test_zero_a_returns_q_exactly(self, rng):
        Q = np.diag(rng.uniform(0.5, 2.0, 4))
        R = np.eye(4)
        cost = solve_dare(np.zeros(4), np.full(4, 0.3), Q, R)
        assert np.array_equal(cost.P, Q)

    def test_scalar_matches_modal_formula(self):
        cost = solve_dare(np.array([0.5]), np.array([0.5]), np.array([[1.0]]), np.array([[1.0]]))
        p_modal = solve_dare_modal(0.5, 0.5, 1.0, 1.0)
        assert cost.P[0, 0] == pytest.approx(p_modal, rel=1e-10)

    def test_random_diagonal_residual(self, rng):
        a = rng.uniform(0.1, 0.95, 4)
        b = 1.0 - a
        M = rng.standard_normal((4, 4))
        Q = M @ M.T + 0.1 * np.eye(4)
        R = np.eye(4)
        cost = solve_dare(a, b, Q, R)
        assert dare_residual(a, b, cost.P, Q, R) < 1e-10

    def test_matches_scipy_dare(self, rng):
        a = rng.uniform(0.2, 0.9, 3)
        b = 1.0 - a
        M = rng.standard_normal((3, 3))
        Q = M @ M.T + 0.5 * np.eye(3)
        R = np.eye(3)
        cost = solve_dare(a, b, Q, R)
        P_ref = scipy.linalg.solve_discrete_are(np.diag(a), np.diag(b), Q, R)
        assert np.allclose(cost.P, P_ref, rtol=1e-8)

    def test_dense_inputs_accepted(self, rng):
        A = 0.5 * np.eye(2)
        B = 0.5 * np.eye(2)
        Q = np.eye(2)
        cost = solve_dare(A, B, Q, np.eye(2))
        p_modal = solve_dare_modal(0.5, 0.5, 1.0, 1.0)
        assert np.allclose(cost.P, p_modal * np.eye(2), rtol=1e-10)


class TestSolveDareModal:
    def test_zero_a_is_q_exactly(self):
        assert solve_dare_modal(0.0, 0.3, 4.0, 2.0) == 4.0

    def test_zero_q_is_zero_exactly(self):
        assert solve_dare_modal(0.9, 0.1, 0.0, 1.0) == 0.0

    def test_matches_fixed_point_iteration(self):
        p = solve_dare_modal(0.9, 0.1, 4.0, 1.0)
        cost = solve_dare(np.array([0.9]), np.array([0.1]), np.array([[4.0]]), np.array([[1.0]]))
        assert p == pytest.approx(cost.P[0, 0], rel=1e-10)

    def test_zero_b_lyapunov_limit(self):
        # p = q / (1 - a^2)
        assert solve_dare_modal(0.5, 0.0, 3.0, 1.0) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("q, r", [(1e-8, 1e8), (1e-4, 1e6), (1e-6, 1e3)])
    def test_weak_modes_keep_their_digits(self, q, r):
        # q r << xi^2 cancels in -xi + sqrt(xi^2 + 4 b^2 q r); compare with
        # the root computed in 50-digit arithmetic
        a, b = 0.6, 0.4
        with mpmath.workdps(50):
            xi = mpmath.mpf(r) * (1 - mpmath.mpf(a) ** 2) - mpmath.mpf(b) ** 2 * q
            exact = (-xi + mpmath.sqrt(xi ** 2 + 4 * mpmath.mpf(b) ** 2 * q * r)) / (2 * mpmath.mpf(b) ** 2)
            assert abs(solve_dare_modal(a, b, q, r) / exact - 1) < 1e-14

    def test_modal_agrees_with_generic_on_scalar_dynamics(self, rng):
        # A = aI, B = bI: P = V diag(p_hat) V^T
        a, b = 0.7, 0.3
        C = rng.standard_normal((5, 5))
        basis = modal_decompose(C)
        q_hat = basis.S ** 2
        Q = (basis.V * q_hat) @ basis.V.T
        cost = solve_dare(np.full(5, a), np.full(5, b), Q, np.eye(5))
        p_hat = np.array([solve_dare_modal(a, b, q, 1.0) for q in q_hat])
        P_modal = (basis.V * p_hat) @ basis.V.T
        assert np.linalg.norm(cost.P - P_modal) < 1e-8 * np.linalg.norm(cost.P)


class TestLqrGainModal:
    def test_zero_p_gives_zero(self):
        assert lqr_gain_modal(0.9, 0.1, 0.0, 1.0) == 0.0

    def test_zero_a_gives_zero(self):
        assert lqr_gain_modal(0.0, 0.1, 5.0, 1.0) == 0.0

    def test_matches_generic_dare_gain(self):
        a, b, q, r = 0.9, 0.1, 4.0, 1.0
        p = solve_dare_modal(a, b, q, r)
        k = lqr_gain_modal(a, b, p, r)
        k_generic = (b * p * a) / (b * p * b + r)
        assert k == pytest.approx(k_generic, rel=1e-12)


class TestImcGain:
    def test_unit(self):
        assert imc_gain(np.array([1.0]), 0.0)[0] == 1.0

    def test_regularized(self):
        assert imc_gain(np.array([3.0]), 1.0)[0] == pytest.approx(0.3)

    def test_small_sigma_limit(self):
        assert imc_gain(np.array([1e-9]), 0.01)[0] < 1e-6

    def test_zero_sigma_unregularized_rejected(self):
        with pytest.raises(ConfigError):
            imc_gain(np.array([0.0]), 0.0)


class TestWeightDesigns:
    def test_saturated_identity_when_in_range(self, rng):
        basis = modal_decompose(rng.standard_normal((4, 4)))
        w = design_weights_saturated(basis, 1e-12, 1e12)
        assert np.array_equal(w.q_hat, basis.S ** 2)
        assert np.array_equal(w.R_w, np.eye(4))

    def test_saturated_clamps(self):
        basis = modal_decompose(np.diag([1e4, 1.0]))  # sigma^2 = 1e8, 1
        w = design_weights_saturated(basis, 1e-2, 1e2)
        assert w.q_hat[0] == 1e2
        assert w.q_hat[1] == 1.0

    def test_saturated_bounds_exact(self, rng):
        basis = modal_decompose(rng.standard_normal((6, 6)) * 100)
        q_min, q_max = 0.5, 20.0
        w = design_weights_saturated(basis, q_min, q_max)
        assert np.all(w.q_hat >= q_min)
        assert np.all(w.q_hat <= q_max)

    def test_saturated_bad_range_rejected(self, rng):
        basis = modal_decompose(rng.standard_normal((3, 3)))
        with pytest.raises(ConfigError):
            design_weights_saturated(basis, 2.0, 1.0)

    def test_imc_matched_gains(self, small_plant):
        ss = build_state_space(small_plant)
        basis = modal_decompose(ss.C)
        a = float(ss.A[0])
        b = 1.0 - a
        lam = 0.1 * float(basis.S[0] ** 2)
        w = design_weights_imc_matched(basis, a, b, lam)
        targets = imc_gain(basis.S, lam)
        for i in range(basis.r):
            p = solve_dare_modal(a, b, float(w.q_hat[i]), float(w.r_hat[i]))
            achieved = lqr_gain_modal(a, b, p, float(w.r_hat[i]))
            assert achieved == pytest.approx(float(targets[i]), rel=1e-6)

    def test_imc_matched_zero_mode_takes_largest_weight(self):
        from orbitmpc.model import ModalBasis
        # rank-1 response: second singular value is exactly zero
        basis = ModalBasis(U=np.eye(2), S=np.array([2.0, 0.0]), V=np.eye(2))
        w = design_weights_imc_matched(basis, 0.6, 0.4, 0.5)
        assert w.r_hat[1] == w.r_hat[0]

    def test_imc_matched_without_a_visible_mode_rejected(self):
        from orbitmpc.model import ModalBasis
        basis = ModalBasis(U=np.eye(2), S=np.zeros(2), V=np.eye(2))
        with pytest.raises(ConfigError, match="no nonzero singular value"):
            design_weights_imc_matched(basis, 0.6, 0.4, 0.5)

    @pytest.mark.parametrize("n_y, n_u", [(4, 5), (40, 41)])
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_imc_matched_wide_plant_matches_transposed_tall_plant(self, n_y, n_u, horizon):
        # the wide plant's n_u - n_y null-space directions take the largest
        # matched weight; its Hessian conditioning is that of its transpose,
        # which has no null space
        wide = synthetic_plant(n_y, n_u, 1e2, seed=7)
        tall = dataclasses.replace(wide, n_y=n_u, n_s=n_y, R_s=wide.R_s.T, R_f=np.zeros((n_u, 0)),
                                   a_s=wide.a_s[:n_y], alpha=wide.alpha[:n_y], rho=wide.rho[:n_y])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tall: least-squares target
            kappa_tall = design_controller(tall, horizon, weights_mode="imc_matched").kappa
        b = design_controller(wide, horizon, weights_mode="imc_matched")
        assert b.meta["dare_residual"] < 1e-8
        r = b.basis.r
        assert np.all(b.weights.r_hat[r:] == np.max(b.weights.r_hat[:r]))
        assert b.kappa == pytest.approx(kappa_tall, rel=1e-10)

    def test_imc_matched_unreachable_gain_names_mode(self):
        from orbitmpc.model import ModalBasis
        basis = ModalBasis(U=np.eye(2), S=np.array([1.0, 0.5]), V=np.eye(2))
        # lambda tiny: target gain for the small mode exceeds a/b
        with pytest.raises(NumericalError, match="mode 1"):
            design_weights_imc_matched(basis, 0.5, 0.5, 1e-8)

    def test_match_gain_monotone_in_target(self):
        a, b, q = 0.7, 0.3, 1.0
        targets = [0.2, 0.5, 1.0, 1.5, 2.0]
        r_found = [_match_gain(a, b, q, t, 0) for t in targets]
        assert all(r_found[i] > r_found[i + 1] for i in range(len(r_found) - 1))

    def test_match_gain_hits_target_on_random_modes(self, rng):
        for case in range(1000):
            a = rng.uniform(1e-4, 0.9999)
            b = 1.0 - a
            q = 10.0 ** rng.uniform(-8.0, 4.0)
            target = rng.uniform(1e-6, 0.9999) * a / b
            r = _match_gain(a, b, q, target, 0)
            achieved = lqr_gain_modal(a, b, solve_dare_modal(a, b, q, r), r)
            assert abs(achieved - target) <= 1e-12 * target, (case, a, q, target)


class TestSetpointMatrix:
    @pytest.mark.parametrize("n_y, n_u, rank", [(5, 5, 5), (6, 4, 4), (4, 6, 4), (5, 5, 3), (3, 8, 1)])
    def test_matches_pinv_oracle(self, n_y, n_u, rank, rng):
        a = rng.uniform(0.3, 0.9, n_u)
        C = rng.standard_normal((n_y, rank)) @ rng.standard_normal((rank, n_u))
        ss = StateSpace(A=a, B=1.0 - a, C=C, mu=1)
        M_ref, deficient_ref = setpoint_map_pinv(ss.A, ss.B, ss.C)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M_s = setpoint_matrix(ss, modal_decompose(ss.C))
        assert M_s.shape == (n_u, n_y)
        # the state and the input target rows of the block oracle are both M_s
        for block in (M_ref[:n_u], M_ref[n_u:]):
            assert np.max(np.abs(M_s - block)) <= 1e-10 * np.max(np.abs(M_ref))
        assert bool(caught) == deficient_ref

    def test_matches_pinv_oracle_on_ill_conditioned_plant(self):
        ss = build_state_space(synthetic_plant(40, 41, 1e4, seed=5))
        M_ref, deficient_ref = setpoint_map_pinv(ss.A, ss.B, ss.C)
        M_s = setpoint_matrix(ss, modal_decompose(ss.C))
        for block in (M_ref[: ss.n_u], M_ref[ss.n_u :]):
            assert np.max(np.abs(M_s - block)) <= 1e-10 * np.max(np.abs(M_ref))
        assert not deficient_ref

    def test_zero_disturbance_maps_to_zero(self, small_plant):
        M_s = setpoint_matrix(build_state_space(small_plant), modal_decompose(small_plant.R))
        assert np.allclose(M_s @ np.zeros(small_plant.n_y), 0.0)

    def test_residual_on_random_disturbances(self, small_plant, rng):
        ss = build_state_space(small_plant)
        M_s = setpoint_matrix(ss, modal_decompose(ss.C))
        n_u, n_y = ss.n_u, ss.n_y
        S = np.zeros((n_u + n_y, 2 * n_u))
        S[:n_u, :n_u] = np.diag(1.0 - ss.A)
        S[:n_u, n_u:] = -np.diag(ss.B)
        S[n_u:, :n_u] = -ss.C
        for _ in range(100):
            d = rng.standard_normal(n_y)
            target = np.concatenate([np.zeros(n_u), d])
            x_s = M_s @ d
            err = np.linalg.norm(S @ np.concatenate([x_s, x_s]) - target)
            assert err < 1e-8 * np.linalg.norm(d)

    def test_steady_output_cancels_disturbance(self, small_plant, rng):
        ss = build_state_space(small_plant)
        M_s = setpoint_matrix(ss, modal_decompose(ss.C))
        d = rng.standard_normal(ss.n_y)
        assert np.allclose(ss.C @ (M_s @ d), -d, atol=1e-8 * np.linalg.norm(d))

    def test_rank_deficient_warns(self):
        # n_y > n_u makes the steady-state system overdetermined
        rng = np.random.default_rng(0)
        ss = StateSpace(A=np.array([0.5, 0.6]), B=np.array([0.5, 0.4]),
                        C=rng.standard_normal((4, 2)), mu=1)
        with pytest.warns(UserWarning, match="least-squares"):
            setpoint_matrix(ss, modal_decompose(ss.C))

    @pytest.mark.parametrize("n_y, n_u, rank", [
        (6, 6, 6), (9, 5, 5), (5, 9, 5), (7, 7, 4), (8, 5, 2), (4, 9, 3),
    ])
    def test_equals_numpy_pseudo_inverse_bitwise(self, n_y, n_u, rank):
        rng = np.random.default_rng(1000 * n_y + 10 * n_u + rank)
        for _ in range(20):
            a = rng.uniform(0.3, 0.9, n_u)
            C = rng.standard_normal((n_y, rank)) @ rng.standard_normal((rank, n_u))
            ss = StateSpace(A=a, B=1.0 - a, C=C, mu=1)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                M_s = setpoint_matrix(ss, modal_decompose(C))
            assert np.array_equal(M_s, -np.linalg.pinv(C))
            assert len(caught) == int(np.linalg.matrix_rank(C) < n_y)

    def test_design_decomposes_the_response_matrix_once(self, small_plant, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the design must reuse its modal basis")

        monkeypatch.setattr(np.linalg, "pinv", refuse)
        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        for horizon in (1, 2):
            b = design_controller(small_plant, horizon)
            assert b.condensed.q_map_d.shape == (horizon * small_plant.n_u, small_plant.n_y)


class TestKalmanGain:
    def test_error_dynamics_contractive(self, small_plant):
        ss = build_state_space(small_plant)
        gain = kalman_gain(ss)
        F, H = augmented_observer_matrices(ss.A, ss.C, ss.mu)
        rho = np.max(np.abs(np.linalg.eigvals(F - gain.full @ H)))
        assert rho < 1.0

    def test_scalar_plant_matches_dense_recursion(self):
        ss = StateSpace(A=np.array([0.6]), B=np.array([0.4]), C=np.array([[2.0]]), mu=1)
        gain = kalman_gain(ss, sigma_v=0.5, sigma_w=1e-3, sigma_m=0.1)
        L_ref, _, _ = kalman_predictor_gain_dense(ss.A, ss.C, ss.mu, 0.5, 1e-3, 0.1)
        assert np.allclose(gain.full, L_ref, atol=1e-8)

    def test_no_drive_limit_shrinks_disturbance_gain(self, small_plant):
        ss = build_state_space(small_plant)
        strong = kalman_gain(ss, sigma_v=1.0)
        weak = kalman_gain(ss, sigma_v=1e-6)
        assert np.linalg.norm(weak.L_d) < 1e-2 * np.linalg.norm(strong.L_d)

    @pytest.mark.parametrize("n, mu", [(5, 0), (5, 1), (6, 2), (5, 4), (120, 4)])
    def test_reduced_loop_radius_matches_full_loop(self, n, mu):
        # the reduced [z_mu; d] loop carries every nonzero eigenvalue of the
        # full loop; (120, 4) has 720 full-loop states
        ss = build_state_space(synthetic_plant(n, n, 50.0, seed=20 + mu, mu=mu))
        gain = kalman_gain(ss)
        F, H = augmented_observer_matrices(ss.A, ss.C, ss.mu)
        full = np.max(np.abs(np.linalg.eigvals(F - gain.full @ H)))
        assert _error_spectral_radius(ss, gain) == pytest.approx(full, rel=0, abs=1e-12)

    def test_bad_noise_rejected(self, small_plant):
        ss = build_state_space(small_plant)
        with pytest.raises(ConfigError):
            kalman_gain(ss, sigma_m=0.0)


class TestRiccatiDoubling:
    def test_unit_circle_pole_hits_the_doubling_cap(self):
        # X = X + 1 has no solution: H_k doubles forever at relative change 1/2
        with pytest.raises(NumericalError, match=r"DARE: no convergence after 64 doublings "
                                                 r"\(last relative change 5\.000e-01\)"):
            solve_dare(np.array([1.0]), np.array([0.0]), np.array([[1.0]]), np.array([[1.0]]))

    def test_unstable_uncontrollable_rejected_as_non_finite(self):
        with pytest.raises(NumericalError, match="DARE: doubling .* non-finite"):
            solve_dare(np.array([2.0]), np.array([0.0]), np.array([[1.0]]), np.array([[1.0]]))

    def test_stats_report_doublings_and_residual(self, small_plant):
        ss = build_state_space(small_plant)
        w = design_weights_saturated(modal_decompose(ss.C), 0.01, 1.0)
        dare, kalman = {}, {}
        solve_dare(ss.A, ss.B, w.Q, w.R_w, stats=dare)
        kalman_gain(ss, sigma_v=1e-6, stats=kalman)
        for stats in (dare, kalman):
            assert 1 <= stats["doublings"] <= 64
            assert 0.0 <= stats["residual"] < 1e-8

    def test_zero_a_needs_no_doubling(self):
        stats = {}
        solve_dare(np.zeros(3), np.full(3, 0.5), np.eye(3), np.eye(3), stats=stats)
        assert stats["doublings"] == 0


class TestReducedKalmanGain:
    # The dense oracle contracts at the rate of the slowest estimator pole,
    # about 1 - sigma_v / sigma_m; sigma_m = 1e-3 lets it reach a 1e-14
    # relative step within a second even at sigma_v = 1e-6.
    SIGMA_W, SIGMA_M = 1e-4, 1e-3

    @pytest.mark.parametrize("sigma_v", [1.0, 1e-6])
    @pytest.mark.parametrize("mu", [0, 1, 2, 4])
    def test_matches_augmented_oracle(self, mu, sigma_v):
        # the reduced [z_mu; d] solve plus the A^i propagation must give the
        # optimal gain of the full [x; z1..zmu; d] system: the optimal gain
        # already has the propagation-consistent structure
        plant = synthetic_plant(5, 5, 100.0, seed=10 + mu, mu=mu)
        ss = build_state_space(plant)
        gain = kalman_gain(ss, sigma_v=sigma_v, sigma_w=self.SIGMA_W, sigma_m=self.SIGMA_M)
        L_ref, _, _ = kalman_predictor_gain_dense(ss.A, ss.C, mu, sigma_v, self.SIGMA_W,
                                                  self.SIGMA_M, tol=1e-14)
        assert np.max(np.abs(gain.full - L_ref)) <= 1e-8 * np.max(np.abs(L_ref))


def rank_deficient_plant(n_y, n_u, mu, seed):
    """A one-bandwidth plant whose thin SVD has exact sigma = 0 modes, with
    the basis it was built from."""
    rng = np.random.default_rng(seed)
    r = min(n_y, n_u)
    U = np.linalg.qr(rng.standard_normal((n_y, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n_u, r)))[0]
    basis = ModalBasis(U=U, S=np.concatenate([[1.0, 0.3, 0.05], np.zeros(r - 3)]), V=V)
    a = float(np.exp(-2.0 * np.pi * 70.0 * 1e-3))
    return StateSpace(A=np.full(n_u, a), B=np.full(n_u, 1.0 - a), C=basis.reconstruct(), mu=mu), basis


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestModalRiccati:
    # one-bandwidth plants: square, wide, tall, and with sigma = 0 modes
    PLANTS = [("synthetic", 6, 6), ("synthetic", 4, 7), ("synthetic", 7, 4),
              ("deficient", 6, 6), ("deficient", 5, 8), ("deficient", 8, 5)]

    @staticmethod
    def plant(kind, n_y, n_u, mu):
        if kind == "deficient":
            return rank_deficient_plant(n_y, n_u, mu, seed=n_y + n_u)
        ss = build_state_space(synthetic_plant(n_y, n_u, 100.0, seed=n_y + n_u, mu=mu))
        return ss, modal_decompose(ss.C)

    @pytest.mark.parametrize("kind, n_y, n_u", PLANTS)
    def test_terminal_cost_matches_doubling(self, kind, n_y, n_u):
        ss, basis = self.plant(kind, n_y, n_u, mu=1)
        a = float(ss.A[0])
        for w in (design_weights_saturated(basis, 0.01, 1.0),
                  design_weights_imc_matched(basis, a, 1.0 - a, 0.1)):
            stats = {}
            modal = solve_dare(ss.A, ss.B, w.Q, w.R_w, modes=(basis, w), stats=stats)
            dense = solve_dare(ss.A, ss.B, w.Q, w.R_w)
            assert relative_gap(modal.P, dense.P) <= 1e-10
            assert stats["doublings"] == 0 and stats["residual"] < 1e-8

    @pytest.mark.parametrize("sigma_v", [1.0, 1e-6])
    @pytest.mark.parametrize("mu", [0, 2])
    @pytest.mark.parametrize("kind, n_y, n_u", PLANTS)
    def test_gain_and_radius_match_dense_filter(self, kind, n_y, n_u, mu, sigma_v):
        ss, basis = self.plant(kind, n_y, n_u, mu)
        noise = (1e-4 ** 2, sigma_v ** 2, 1e-2 ** 2)
        modal_stats, dense_stats = {}, {}
        modal, modal_rho = _modal_filter(ss, basis, *noise, modal_stats)
        dense, _ = _dense_filter(ss, *noise, dense_stats)
        assert relative_gap(modal.full, dense.full) <= 1e-10
        assert modal_rho == pytest.approx(_error_spectral_radius(ss, modal), rel=0, abs=1e-12)
        assert modal_stats["residual"] < 1e-8

    def test_mixed_bandwidth_takes_the_dense_form(self, mixed_plant):
        b = design_controller(mixed_plant, 1, sigma_m=1e-3)
        assert not one_bandwidth(b.ss)
        assert b.meta["riccati_form"] == "dense"
        assert b.meta["dare_doublings"] >= 1
        L_ref, _, _ = kalman_predictor_gain_dense(b.ss.A, b.ss.C, b.ss.mu, 1.0, 1e-4, 1e-3, tol=1e-14)
        assert np.max(np.abs(b.gain.full - L_ref)) <= 1e-8 * np.max(np.abs(L_ref))

    def test_ring_shape_design_never_runs_a_dense_solve(self, monkeypatch):
        # the storage-ring shape: 172 monitors, 173 correctors of one bandwidth
        doubling = design_mod._doubling

        def stacked_2x2_only(A, G, H, what):
            if A.shape[-1] > 2:
                raise AssertionError(f"{what}: dense {A.shape[-1]}-state doubling")
            return doubling(A, G, H, what)

        def refuse(*args, **kwargs):
            raise AssertionError("dense error-loop eigensolve")

        monkeypatch.setattr(design_mod, "_doubling", stacked_2x2_only)
        monkeypatch.setattr(design_mod, "_error_spectral_radius", refuse)
        plant = synthetic_plant(172, 173, 1e4, seed=1, mu=2, dt=1e-4, bandwidth=2.0 * np.pi * 700.0)
        b = design_controller(plant, 2)
        assert b.meta["riccati_form"] == "modal"
        assert b.meta["dare_doublings"] == 0


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_random_spd_matches_eigendecomposition(self, rng):
        M = rng.standard_normal((8, 8))
        J = M @ M.T + 0.5 * np.eye(8)
        eigs = np.linalg.eigvalsh(J)
        assert condition_number(J) == pytest.approx(eigs[-1] / eigs[0], rel=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            condition_number(np.diag([1.0, -1.0]))


class TestIterationBound:
    def test_zero_when_delta_below_epsilon(self):
        p = IterationBoundParams(epsilon=1e-3, Delta=1e-3, kappa=100.0)
        assert iteration_bound(p) == 0

    def test_documented_case(self):
        p = IterationBoundParams(epsilon=1e-3, Delta=1.0, kappa=4.0)
        assert iteration_bound(p) == 10

    def test_documented_case_high_precision(self):
        # recompute both branches with 50-digit arithmetic
        with mpmath.workdps(50):
            eps, delta, kappa = mpmath.mpf("1e-3"), mpmath.mpf(1), mpmath.mpf(4)
            log_branch = mpmath.ceil((mpmath.log(eps) - mpmath.log(delta))
                                     / mpmath.log(1 - mpmath.sqrt(1 / kappa)))
            sqrt_branch = mpmath.ceil(2 * mpmath.sqrt(delta / eps) - 2)
            expected = int(max(0, min(log_branch, sqrt_branch)))
        p = IterationBoundParams(epsilon=1e-3, Delta=1.0, kappa=4.0)
        assert iteration_bound(p) == expected

    def test_monotone_in_kappa(self):
        # the log branch grows with kappa; at kappa = 1 only the sqrt
        # branch exists, so the sweep starts at 2
        bounds = [iteration_bound(IterationBoundParams(epsilon=1e-3, Delta=10.0, kappa=k))
                  for k in (2.0, 10.0, 100.0, 1000.0)]
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_kappa_one_uses_sqrt_branch(self):
        p = IterationBoundParams(epsilon=1e-2, Delta=1.0, kappa=1.0)
        assert iteration_bound(p) == int(np.ceil(2 * np.sqrt(100.0) - 2))

    @pytest.mark.parametrize("kappa", [1e33, 1e300])
    def test_huge_kappa_takes_the_sqrt_branch(self, kappa):
        # 1 - sqrt(1/kappa) rounds to 1.0 here, so ln of it would be 0
        p = IterationBoundParams(epsilon=1e-3, Delta=100.0, kappa=kappa)
        assert iteration_bound(p) == math.ceil(2 * math.sqrt(1e5) - 2)

    def test_huge_kappa_log_branch_high_precision(self):
        # Delta / eps = 1e39 makes the log branch the smaller one at kappa = 1e33
        with mpmath.workdps(50):
            log_branch = mpmath.ceil(mpmath.log(mpmath.mpf("1e-39"))
                                     / mpmath.log(1 - mpmath.sqrt(1 / mpmath.mpf("1e33"))))
        p = IterationBoundParams(epsilon=1e-3, Delta=1e36, kappa=1e33)
        assert iteration_bound(p) == pytest.approx(int(log_branch), rel=1e-12)

    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize("alpha, rho", [(np.inf, 0.1), (1.0, np.inf)], ids=["slew-only", "box-only"])
    def test_one_infinite_limit_gives_a_finite_bound(self, alpha, rho, horizon):
        # the finite limit keeps the set's diameter, and so Delta, finite
        b = design_controller(synthetic_plant(4, 4, 10.0, seed=7, alpha=alpha, rho=rho), horizon)
        assert 0.0 < b.delta < np.inf and b.i_max_bound >= 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            IterationBoundParams(epsilon=0.0, Delta=1.0, kappa=2.0)
        with pytest.raises(ConfigError):
            IterationBoundParams(epsilon=1e-3, Delta=-1.0, kappa=2.0)
        with pytest.raises(ConfigError):
            IterationBoundParams(epsilon=1e-3, Delta=1.0, kappa=0.5)
