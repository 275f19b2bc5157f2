import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    ConstraintSet,
    DimensionError,
    NumericalError,
    converged_iterations,
    design_controller,
    gradient_step,
    gradient_step_parallel,
    make_worker_plan,
    solve,
    spectral_bounds,
    synthetic_plant,
)
from orbitmpc import fgm
from orbitmpc.fgm import WorkerPool, get_pool
from orbitmpc.qp import ROW_BLOCK, CondensedQP, pack, pack_factors

from oracles import OracleStageProjector, active_set_qp, projected_gradient_qp, stacked_halfplanes


def qp_from_matrix(J, N=1):
    lmin, lmax, beta = spectral_bounds(J)
    n = J.shape[0] // N
    return CondensedQP(J=J, q_map_x0=np.zeros((J.shape[0], n)),
                       q_map_d=np.zeros((J.shape[0], n)),
                       lambda_min=lmin, lambda_max=lmax, beta=beta, N=N, n_u=n)


def random_spd(rng, n, shift=None):
    M = rng.standard_normal((n, n))
    return M @ M.T + (shift if shift is not None else n / 4) * np.eye(n)


def free_set(n, N=1):
    big = 1e9
    return ConstraintSet(alpha=np.full(n, big), rho=np.full(n, 2 * big),
                         u_prev=np.zeros(n), N=N)


class TestWorkerPlan:
    def test_aligned_blocks(self):
        plan = make_worker_plan(24 * ROW_BLOCK, 6)
        assert plan.row_slices == tuple((4 * ROW_BLOCK * i, 4 * ROW_BLOCK) for i in range(6))

    def test_remainder_absorbed(self):
        plan = make_worker_plan(100, 3)
        assert plan.row_slices == ((0, 36), (36, 32), (68, 32))
        plan = make_worker_plan(102, 4)
        assert plan.row_slices == ((0, 28), (28, 28), (56, 24), (80, 22))

    def test_single_worker(self):
        assert make_worker_plan(57, 1).row_slices == ((0, 57),)

    def test_more_workers_than_rows(self):
        plan = make_worker_plan(5, 4)
        assert plan.row_slices == ((0, 4), (4, 1), (5, 0), (5, 0))

    def test_random_plans_cover_rows(self, rng):
        for _ in range(100):
            rows = int(rng.integers(1, 400))
            workers = int(rng.integers(1, 9))
            plan = make_worker_plan(rows, workers)
            assert plan.rows == rows
            assert len(plan.row_slices) == workers
            covered = []
            last_nonzero = max(i for i, (_, c) in enumerate(plan.row_slices) if c)
            for i, (start, count) in enumerate(plan.row_slices):
                covered.extend(range(start, start + count))
                if count:
                    assert start % ROW_BLOCK == 0
                if i < last_nonzero:  # the absorbing slice takes the remainder
                    assert count % ROW_BLOCK == 0
            assert covered == list(range(rows))

    @pytest.mark.parametrize("row_slices, row", [
        (((0, 6), (6, 6)), 6),
        (((0, 4), (4, 3), (7, 5)), 7),
        (((0, 1), (1, 0), (1, 3)), 1),
    ])
    def test_misaligned_plan_rejected(self, row_slices, row):
        with pytest.raises(ConfigError, match=rf"slice at row {row} does not start on a "
                                              rf"multiple of {ROW_BLOCK} rows"):
            fgm.WorkerPlan(n_workers=len(row_slices), row_slices=row_slices)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError):
            make_worker_plan(0, 1)
        with pytest.raises(ConfigError):
            make_worker_plan(10, 0)

    @pytest.mark.parametrize("n_workers, row_slices", [
        (1, ((0, 4), (4, 4))),
        (3, ((0, 4), (4, 4))),
        (0, ()),
    ])
    def test_one_slice_per_worker(self, n_workers, row_slices):
        with pytest.raises(DimensionError,
                           match=f"{len(row_slices)} row slices for {n_workers} workers"):
            fgm.WorkerPlan(n_workers=n_workers, row_slices=row_slices)


class TestGradientStep:
    def test_zero_iterate(self, rng):
        J = random_spd(rng, 5)
        qp = qp_from_matrix(J)
        q = rng.standard_normal(5)
        t = gradient_step(qp, np.zeros(5), q)
        assert np.array_equal(t, -q / qp.lambda_max)

    def test_scaled_identity_hessian(self, rng):
        lam = 3.7
        qp = qp_from_matrix(lam * np.eye(4))
        q = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert np.allclose(gradient_step(qp, v, q), -q / lam, atol=1e-15)

    def test_matches_naive_matvec(self, rng):
        for n in (3, 17, 64):
            J = random_spd(rng, n)
            qp = qp_from_matrix(J)
            v = rng.standard_normal(n)
            q = rng.standard_normal(n)
            t = gradient_step(qp, v, q)
            t_ref = (np.eye(n) - J / qp.lambda_max) @ v - q / qp.lambda_max
            assert np.allclose(t, t_ref, atol=1e-13 * max(1, np.max(np.abs(t_ref))))

    def test_parallel_bit_identical(self, rng):
        # rows = 1 mod 4 leave a one-row last slice, which broke an unpadded gemv
        for rows in (5, 9, 13, 21, 53, 57):
            J = random_spd(rng, rows)
            qp = qp_from_matrix(J)
            v = rng.standard_normal(rows)
            q = rng.standard_normal(rows)
            t_ref = gradient_step(qp, v, q)
            for workers in range(1, 9):
                plan = make_worker_plan(rows, workers)
                assert np.array_equal(gradient_step_parallel(qp, v, q, plan), t_ref)

    def test_slice_mismatch_raises(self, rng, monkeypatch):
        # a BLAS whose row slices differ from its full product is refused
        qp = qp_from_matrix(random_spd(rng, 24))
        v = rng.standard_normal(24)
        q = rng.standard_normal(24)
        row_product = fgm._row_product

        def skewed(w, v, q_scaled, t_pad, start, stop):
            apply = row_product(w, v, q_scaled, t_pad, start, stop)

            def run():
                apply()
                if start > 0:
                    t_pad[start] = np.nextafter(t_pad[start], np.inf)
            return run

        monkeypatch.setattr(fgm, "_row_product", skewed)
        with pytest.raises(NumericalError, match=r"rows 12:24 of 24 .*BLAS \S+"):
            gradient_step_parallel(qp, v, q, make_worker_plan(24, 2))

    def test_worker_failure_propagates(self):
        pool = WorkerPool(2)
        try:
            def bad(index):
                if index == 1:
                    raise ValueError("boom")
            with pytest.raises(NumericalError, match="worker failed"):
                pool.run(bad)
            # pool survives a failed task
            seen = []
            pool.run(lambda i: seen.append(i))
            assert sorted(seen) == [0, 1]
        finally:
            pool.close()


class TestSolve:
    def test_identity_hessian_one_step_optimum(self, rng):
        qp = qp_from_matrix(np.eye(6))
        q = rng.standard_normal(6)
        u = solve(qp, q, free_set(6), np.zeros(6), i_max=1)
        assert np.allclose(u, -q, atol=1e-15)

    def test_zero_budget_returns_projected_warm(self, rng):
        # an infinite alpha (actuator 1), an infinite rho (2), rho = 0 with
        # a one-point stage-0 interval (3), u_prev on alpha (0, 3) and on
        # -alpha (4); warm starts on either band side, and of +-0.0
        alpha = np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0])
        rho = np.array([0.5, 0.5, np.inf, 0.0, 0.5, 0.5])
        u_prev = np.array([1.0, 2.5, 0.3, 1.0, -1.0, 0.0])
        far, zero = np.full(6, 3.0), np.zeros(6)
        pairs = [(far, -far), (-far, far), (zero, -zero), (-zero, zero),
                 tuple(rng.uniform(-3, 3, (2, 6)))]
        for N in (1, 2):
            cset = ConstraintSet(alpha=alpha, rho=rho, u_prev=u_prev, N=N)
            qp = qp_from_matrix(random_spd(rng, 6 * N), N=N)
            for t0, t1 in pairs:
                warm = np.concatenate([t0, t1][:N])
                u = solve(qp, rng.standard_normal(6 * N), cset, warm, i_max=0)
                assert u.tobytes() == cset.project(warm).tobytes(), (N, t0, t1)

    def test_fixed_point_at_optimum(self, rng):
        J = random_spd(rng, 5)
        qp = qp_from_matrix(J)
        q = rng.standard_normal(5) * 2
        cset = ConstraintSet(alpha=np.ones(5), rho=np.full(5, 0.3),
                             u_prev=np.zeros(5), N=1)
        proj = OracleStageProjector(cset.u_prev, cset.alpha, cset.rho, 1)
        u_star, res = projected_gradient_qp(J, q, proj, np.zeros(5))
        assert res < 1e-10
        u = solve(qp, q, cset, u_star, i_max=100)
        assert np.max(np.abs(u - u_star)) < 1e-9

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(8):
            n_u = int(rng.integers(2, 5))
            N = int(rng.integers(1, 3))
            plant = synthetic_plant(n_u, n_u, 10.0, seed=int(rng.integers(1e6)))
            b = design_controller(plant, horizon=N)
            u_prev = rng.uniform(-0.5, 0.5, n_u)
            cset = ConstraintSet(alpha=plant.alpha, rho=plant.rho, u_prev=u_prev, N=N)
            q = rng.normal(0.0, 0.2, N * n_u)
            proj = OracleStageProjector(u_prev, plant.alpha, plant.rho, N)
            u_ref, res = projected_gradient_qp(b.condensed.J, q, proj, np.zeros(N * n_u))
            assert res < 1e-8
            u = solve(b.condensed, q, cset, np.zeros(N * n_u), i_max=5000)
            assert np.max(np.abs(u - u_ref)) < 1e-4

    def test_output_feasible(self, rng):
        for N in (1, 2):
            plant = synthetic_plant(5, 5, 30.0, seed=8)
            b = design_controller(plant, horizon=N)
            u_prev = rng.uniform(-0.9, 0.9, 5)
            cset = ConstraintSet(alpha=plant.alpha, rho=plant.rho, u_prev=u_prev, N=N)
            u = solve(b.condensed, rng.standard_normal(N * 5) * 5, cset,
                      np.zeros(N * 5), i_max=50)
            lo, hi = cset.stage0_bounds()
            u0 = u[:5]
            assert np.all(u0 >= lo - 1e-12) and np.all(u0 <= hi + 1e-12)
            if N == 2:
                u1 = u[5:]
                assert np.all(np.abs(u1) <= plant.alpha + 1e-12)
                assert np.all(np.abs(u1 - u0) <= plant.rho + 1e-12)

    def test_windowed_objective_descent(self, rng):
        J = random_spd(rng, 8)
        qp = qp_from_matrix(J)
        q = rng.standard_normal(8) * 3
        cset = ConstraintSet(alpha=np.ones(8), rho=np.full(8, 0.4),
                             u_prev=np.zeros(8), N=1)
        # the k-iteration solve returns the k-th iterate of the 120-iteration run
        f = [0.5 * p @ J @ p + q @ p
             for p in (solve(qp, q, cset, np.zeros(8), i_max=k) for k in range(1, 121))]
        for i in range(len(f) - 10):
            assert f[i + 10] <= f[i] + 1e-9

    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    def test_negative_budget_refused(self, rng, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        qp = qp_from_matrix(random_spd(rng, 4))
        for i_max in (-1, -3):
            with pytest.raises(ConfigError, match=f"i_max must be >= 0, got {i_max}"):
                solve(qp, np.ones(4), free_set(4), np.zeros(4), i_max=i_max)
        with pytest.raises(TypeError):
            solve(qp, np.ones(4), free_set(4), np.zeros(4), i_max=2.5)

    def test_non_finite_raises_with_index(self, rng):
        qp = qp_from_matrix(np.eye(3))
        q = np.array([np.inf, 0.0, 0.0])
        with pytest.raises(NumericalError, match="iteration 0"):
            solve(qp, q, free_set(3), np.zeros(3), i_max=5)


    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    def test_concurrent_solves_on_one_qp(self, rng, monkeypatch, kernel_off):
        # two threads share one CondensedQP; each must get its serial result
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        n_u = 40
        qp = qp_from_matrix(random_spd(rng, 2 * n_u), N=2)
        csets = [ConstraintSet(alpha=np.ones(n_u), rho=np.full(n_u, 0.2),
                               u_prev=rng.uniform(-0.5, 0.5, n_u), N=2) for _ in range(2)]
        qs = [rng.standard_normal(2 * n_u) * 3 for _ in range(2)]
        refs = [solve(qp, q, c, np.zeros(2 * n_u), i_max=300) for q, c in zip(qs, csets)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                start = threading.Barrier(2)
                got = [None, None]

                def run(k):
                    start.wait(timeout=10.0)
                    got[k] = solve(qp, qs[k], csets[k], np.zeros(2 * n_u), i_max=300)

                # daemon threads joined with a timeout: a wedged solve fails, not hangs
                threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60.0)
                assert not any(th.is_alive() for th in threads)
                for k in range(2):
                    assert got[k] is not None and np.array_equal(got[k], refs[k])
        finally:
            sys.setswitchinterval(interval)


class TestConvergedIterations:
    def test_warm_at_optimum_converges_immediately(self, rng):
        J = random_spd(rng, 4)
        qp = qp_from_matrix(J)
        q = rng.standard_normal(4) * 2
        cset = ConstraintSet(alpha=np.ones(4), rho=np.full(4, 0.5),
                             u_prev=np.zeros(4), N=1)
        proj = OracleStageProjector(cset.u_prev, cset.alpha, cset.rho, 1)
        u_star, _ = projected_gradient_qp(J, q, proj, np.zeros(4))
        res = converged_iterations(qp, q, cset, u_star, epsilon=1e-3)
        assert res.iterations == 1 and not res.capped

    def test_epsilon_doubling_never_increases_count(self, rng):
        J = random_spd(rng, 6)
        qp = qp_from_matrix(J)
        cset = ConstraintSet(alpha=np.ones(6), rho=np.full(6, 0.3),
                             u_prev=np.zeros(6), N=1)
        for _ in range(20):
            q = rng.standard_normal(6)
            eps = 1e-4
            prev = converged_iterations(qp, q, cset, np.zeros(6), epsilon=eps).iterations
            for _ in range(6):
                eps *= 2
                cur = converged_iterations(qp, q, cset, np.zeros(6), epsilon=eps).iterations
                assert cur <= prev
                prev = cur

    def test_cap_flag(self, rng):
        J = random_spd(rng, 3)
        qp = qp_from_matrix(J)
        res = converged_iterations(qp, rng.standard_normal(3), free_set(3),
                                   np.zeros(3), epsilon=1e-3, cap=1)
        assert res.capped and res.iterations == 1

    def test_warm_start_beats_cold_start_statistically(self, rng):
        plant = synthetic_plant(4, 4, 20.0, seed=5)
        b = design_controller(plant, horizon=1)
        cset = ConstraintSet(alpha=plant.alpha, rho=plant.rho,
                             u_prev=np.zeros(4), N=1)
        wins = 0
        trials = 1000
        for _ in range(trials):
            q = -b.condensed.J @ rng.uniform(-0.6, 0.6, 4)
            u_prev_sol = solve(b.condensed, q, cset, np.zeros(4), i_max=300)
            dq = rng.standard_normal(4)
            q_new = q + 0.01 * np.linalg.norm(q) * dq / np.linalg.norm(dq)
            warm = converged_iterations(b.condensed, q_new, cset, u_prev_sol, 1e-3).iterations
            cold = converged_iterations(b.condensed, q_new, cset, np.zeros(4), 1e-3).iterations
            wins += warm <= cold
        assert wins >= 0.90 * trials


# A factored ring-like design (saturated weights, kappa ~1.2-1.3) and a
# small dense matched-weight one (kappa ~1e3-1e4)
CERTIFIED_DESIGNS = {
    "ring-like": lambda N: design_controller(synthetic_plant(40, 41, 1e4, seed=3), horizon=N),
    "matched": lambda N: design_controller(synthetic_plant(8, 8, 1e3, seed=2, alpha=0.3, rho=0.05),
                                           horizon=N, weights_mode="imc_matched"),
}


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("case", sorted(CERTIFIED_DESIGNS))
def test_certified_budget_reaches_epsilon(rng, capsys, case, N):
    """The design's i_max_bound certifies f - f* <= epsilon from any warm
    start in U_N (Delta = lambda_max D^2 / 2 over the widest set, u_prev =
    0).  Over 100 random linear terms, last inputs and warm starts in U_N,
    the solve after i_max_bound iterations is within epsilon of the
    oracle's optimum: plain projected gradient for the well-conditioned
    factored design, an exact active-set solve for the matched one."""
    b = CERTIFIED_DESIGNS[case](N)
    qp, alpha, rho = b.condensed, b.plant.alpha, b.plant.rho
    assert qp.hessian_form == ("factored" if case == "ring-like" else "dense")
    n = N * qp.n_u
    worst = -np.inf
    for _ in range(100):
        u_prev = rng.uniform(-1.0, 1.0, qp.n_u) * alpha
        cset = ConstraintSet(alpha=alpha, rho=rho, u_prev=u_prev, N=N)
        q = rng.standard_normal(n) * qp.lambda_max * 10.0 ** rng.uniform(-2.0, 1.0)
        warm = cset.project(rng.uniform(-2.0, 2.0, n) * np.tile(alpha, N))
        u = solve(qp, q, cset, warm, i_max=b.i_max_bound)
        if case == "ring-like":
            u_star, residual = projected_gradient_qp(qp.J, q, cset, warm)
            assert residual < 1e-12
        else:
            A, bounds = stacked_halfplanes(u_prev, alpha, rho, N)
            u_star = active_set_qp(qp.J, q, A, bounds, warm)
            assert np.all(A @ u_star <= bounds + 1e-12)
        objective = lambda x: 0.5 * x @ qp.J @ x + q @ x
        gap = objective(u) - objective(u_star)
        assert gap >= -1e-12  # u is feasible, so no lower than the optimum
        worst = max(worst, gap)
    with capsys.disabled():
        print(f"\n[certified budget] {case} N={N}: i_max_bound {b.i_max_bound}, "
              f"worst f - f* {worst:.2e} against epsilon {b.epsilon:g}")
    assert worst <= b.epsilon


class TestPoolLifecycle:
    def test_get_pool_reuses_workers(self):
        pool_a = get_pool(3)
        pool_b = get_pool(3)
        assert pool_a is pool_b

    def test_closed_pool_rejected(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(NumericalError):
            pool.run(lambda i: None)


@pytest.fixture
def kernel():
    """The compiled kernel; its tests skip where it cannot be built."""
    built = fgm._load_kernel()
    if built is None:
        pytest.skip("the compiled FGM kernel cannot be built here")
    return built


def numpy_solve(monkeypatch, *args, **kwargs):
    """`solve` with the compiled kernel unavailable: the numpy loop."""
    with monkeypatch.context() as patch:
        patch.setattr(fgm, "_load_kernel", lambda: None)
        return solve(*args, **kwargs)


def random_instance(rng, N, saturated):
    """A random QP and set: saturated has a large q, a random last input and
    warm start; otherwise q is scaled by 1e-3 around u_prev = 0, warm 0."""
    n_u = int(rng.integers(3, 40))
    qp = qp_from_matrix(random_spd(rng, N * n_u), N=N)
    u_prev = rng.uniform(-0.4, 0.4, n_u) if saturated else np.zeros(n_u)
    cset = ConstraintSet(alpha=rng.uniform(0.5, 1.5, n_u), rho=rng.uniform(0.05, 0.5, n_u),
                         u_prev=u_prev, N=N)
    q = rng.standard_normal(N * n_u) * (30.0 if saturated else 30e-3)
    warm = rng.uniform(-1.0, 1.0, N * n_u) if saturated else np.zeros(N * n_u)
    return qp, q, cset, warm


def ring_like_instance(rng, N, saturated):
    """A designed QP of a 40x41 one-bandwidth plant with saturated weights,
    whose Hessian the compiled solve takes in factored form, and a set and
    linear term as random_instance draws them."""
    b = design_controller(synthetic_plant(40, 41, 1e4, seed=int(rng.integers(1000))), horizon=N)
    qp, n_u = b.condensed, 41
    u_prev = rng.uniform(-0.4, 0.4, n_u) if saturated else np.zeros(n_u)
    cset = ConstraintSet(alpha=np.ones(n_u), rho=np.full(n_u, 0.2), u_prev=u_prev, N=N)
    q = rng.standard_normal(N * n_u) * qp.lambda_max * (3.0 if saturated else 3e-3)
    warm = rng.uniform(-1.0, 1.0, N * n_u) if saturated else np.zeros(N * n_u)
    return qp, q, cset, warm


class TestCompiledKernel:
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("saturated", [True, False])
    def test_factored_solve_matches_numpy_dense_solve(self, kernel, rng, monkeypatch, N, saturated):
        for _ in range(2):
            qp, q, cset, warm = ring_like_instance(rng, N, saturated)
            assert qp.hessian_form == fgm.hessian_form(qp) == "factored"
            lo, hi = cset.stage0_bounds()
            for i_max in (0, 1, 20, 300):
                got = solve(qp, q, cset, warm, i_max=i_max)
                ref = numpy_solve(monkeypatch, qp, q, cset, warm, i_max=i_max)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                if i_max == 300:
                    at_bound = np.count_nonzero((ref[:qp.n_u] == lo) | (ref[:qp.n_u] == hi))
                    assert (at_bound > 0) == saturated

    def test_numpy_loop_runs_the_dense_form(self, rng, monkeypatch):
        qp, _, _, _ = ring_like_instance(rng, 2, saturated=True)
        monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        assert qp.hessian_form == "factored" and fgm.hessian_form(qp) == "dense"


    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("saturated", [True, False])
    def test_matches_numpy_solve(self, kernel, rng, monkeypatch, N, saturated):
        for _ in range(4):
            qp, q, cset, warm = random_instance(rng, N, saturated)
            lo, hi = cset.stage0_bounds()
            for i_max in (0, 1, 20, 300):
                got = solve(qp, q, cset, warm, i_max=i_max)
                ref = numpy_solve(monkeypatch, qp, q, cset, warm, i_max=i_max)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                if i_max == 300:
                    at_bound = np.count_nonzero((ref[:qp.n_u] == lo) | (ref[:qp.n_u] == hi))
                    assert (at_bound > 0) == saturated

    @pytest.mark.parametrize("N", [1, 2])
    def test_non_finite_input_raises_at_iteration_0(self, kernel, rng, N):
        qp = qp_from_matrix(random_spd(rng, N * 3), N=N)
        cset = ConstraintSet(alpha=np.ones(3), rho=np.full(3, 0.2), u_prev=np.zeros(3), N=N)
        warm = np.zeros(N * 3)
        warm[-1] = np.nan
        with pytest.raises(NumericalError, match="iteration 0"):
            solve(qp, rng.standard_normal(N * 3), cset, warm, i_max=5)
        q = rng.standard_normal(N * 3)
        q[1] = np.inf
        with pytest.raises(NumericalError, match="iteration 0"):
            solve(qp, q, cset, np.zeros(N * 3), i_max=5)

    def test_timers_accumulate_every_iteration_stage(self, kernel, rng):
        qp, q, cset, warm = random_instance(rng, 2, saturated=True)
        timers = {"gradient": 7, "observer": 3}
        solve(qp, q, cset, warm, i_max=20, timers=timers)
        assert timers["gradient"] > 7 and timers["projection"] > 0 and timers["momentum"] > 0
        assert timers["observer"] == 3

    def test_failed_build_falls_back_to_numpy_once(self, rng, monkeypatch, capsys):
        qp, q, cset, warm = random_instance(rng, 2, saturated=True)
        ref = numpy_solve(monkeypatch, qp, q, cset, warm, i_max=20)
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(fgm, "_kernel", fgm._UNBUILT)
        capsys.readouterr()
        got = [solve(qp, q, cset, warm, i_max=20) for _ in range(2)]
        assert fgm.solve_kernel() == "numpy"
        assert all(np.array_equal(g, ref) for g in got)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot build the compiled FGM kernel with /bin/false" in err
        assert err.endswith("solving with numpy\n")

    def test_build_without_python_h_reported_and_falls_back(self, monkeypatch, capsys, tmp_path):
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\n"
                            "echo 'fatal error: Python.h: No such file or directory' >&2\n"
                            "exit 1\n")
        compiler.chmod(0o755)
        monkeypatch.setenv("CC", str(compiler))
        monkeypatch.setattr(fgm, "_kernel", fgm._UNBUILT)
        capsys.readouterr()
        assert fgm.solve_kernel() == "numpy"
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "(fatal error: Python.h: No such file or directory); solving with numpy" in err
        b = design_controller(synthetic_plant(8, 8, 1e3, seed=2, mu=2, alpha=0.3, rho=0.05),
                              horizon=2)
        ctrl = b.mpc_controller(20)
        assert ctrl.observer_form == "dense"
        u = np.array([ctrl.step(y) for y in np.random.default_rng(1).normal(0.0, 1.0, (5, 8))])
        assert np.all(np.isfinite(u)) and np.any(u != 0.0)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads process states from /proc")
    def test_build_timeout_ends_the_compilers_children(self, monkeypatch, capsys, tmp_path):
        # a compiler whose own child outlives the timeout: the whole process
        # group goes, not only the $CC process
        pids = tmp_path / "pids"
        compiler = tmp_path / "cc"
        compiler.write_text(f"#!/bin/sh\nsleep 30 &\necho $! >> '{pids}'\nwait\n")
        compiler.chmod(0o755)
        monkeypatch.setenv("CC", str(compiler))
        monkeypatch.setattr(fgm, "_BUILD_TIMEOUT_S", 1.0)
        assert fgm._build_kernel() is None
        assert "solving with numpy" in capsys.readouterr().err

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rpartition(")")[2].split()[0] not in ("Z", "X")  # a zombie has ended

        children = [int(line) for line in pids.read_text().split()]
        assert len(children) == 1  # one compiler call builds the kernel and its binding
        deadline = time.monotonic() + 5.0
        while any(running(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in children)

    def test_controller_set_up_builds_the_kernel(self, monkeypatch):
        # the build happens while the controller is set up, not in its first sample
        b = design_controller(synthetic_plant(4, 4, 30.0, seed=1), horizon=2)
        builds = []
        monkeypatch.setattr(fgm, "_kernel", fgm._UNBUILT)
        monkeypatch.setattr(fgm, "_build_kernel", lambda: builds.append("built"))
        ctrl = b.mpc_controller(5)
        assert builds == ["built"]
        ctrl.step(np.zeros(4))
        assert builds == ["built"]


class TestWorkspace:
    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("instance", [random_instance, ring_like_instance])
    def test_solve_in_a_workspace_bit_identical(self, rng, monkeypatch, kernel_off, N, instance):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        qp, _, _, _ = instance(rng, N, saturated=True)
        n_u = qp.n_u
        workspace = fgm.Workspace(qp)
        warm = np.zeros(N * n_u)
        for k in range(6):
            # sets and linear terms of both kinds the instances draw, on one QP
            saturated = k % 2 == 0
            u_prev = rng.uniform(-0.4, 0.4, n_u) if saturated else np.zeros(n_u)
            cset = ConstraintSet(alpha=rng.uniform(0.5, 1.5, n_u), rho=rng.uniform(0.05, 0.5, n_u),
                                 u_prev=u_prev, N=N)
            q = rng.standard_normal(N * n_u) * qp.lambda_max * (3.0 if saturated else 3e-3)
            want = solve(qp, q, cset, warm, i_max=20)
            timers = {}
            got = solve(qp, q, cset, warm, i_max=20, timers=timers, workspace=workspace)
            assert got.tobytes() == want.tobytes()
            assert set(timers) == {"gradient", "projection", "momentum"}
            # as in the controller, the last iterate is the next warm start
            warm = got

    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    def test_workspace_of_another_qp_refused(self, rng, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        qp, q, cset, warm = random_instance(rng, 1, saturated=False)
        other = qp_from_matrix(qp.J.copy(), N=1)
        with pytest.raises(DimensionError, match="another QP"):
            solve(qp, q, cset, warm, workspace=fgm.Workspace(other))

    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    @pytest.mark.parametrize("bad", ["q", "cset size", "cset horizon", "warm"])
    def test_inputs_of_another_size_refused_before_any_write(self, rng, monkeypatch, kernel_off, bad):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        qp, q, cset, warm = random_instance(rng, 2, saturated=True)
        n_u = qp.n_u
        inputs = {"q": q, "cset": cset, "warm": warm}
        if bad == "q":
            inputs["q"], message = q[:-1], r"linear term shape"
        elif bad == "warm":
            inputs["warm"], message = np.zeros(2 * n_u + 1), r"iterate shape"
        else:
            size, N = (n_u + 1, 2) if bad == "cset size" else (2 * n_u, 1)
            inputs["cset"] = ConstraintSet(alpha=np.ones(size), rho=np.ones(size),
                                           u_prev=np.zeros(size), N=N)
            message = "constraint set does not match the QP dimensions"
        workspace = fgm.Workspace(qp)
        before = workspace.data.tobytes()
        for ws in (workspace, None):
            with pytest.raises(DimensionError, match=message):
                solve(qp, inputs["q"], inputs["cset"], inputs["warm"], workspace=ws)
        assert workspace.data.tobytes() == before
        with pytest.raises(DimensionError, match=message):
            converged_iterations(qp, inputs["q"], inputs["cset"], inputs["warm"], 1e-6)


class TestExactExit:
    """An untimed compiled solve stops once two iterations in a row leave
    the iterate's bits unchanged: every later one would repeat them.  It
    returns the bytes of the full budget, which a timed solve runs."""

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("instance", [random_instance, ring_like_instance])
    def test_untimed_solve_returns_the_full_budget_iterate(self, kernel, rng, N, instance):
        qp, q, cset, _ = instance(rng, N, saturated=True)
        assert qp.hessian_form == ("factored" if instance is ring_like_instance else "dense")
        n_u, n = qp.n_u, N * qp.n_u
        lo, hi = cset.stage0_bounds()
        upper = rng.random(n_u) < 0.5
        # a vertex of the set: each actuator at a corner of its stage pair
        vertex = np.where(upper, hi, lo)
        if N == 2:
            alpha, rho = cset.alpha, cset.rho
            vertex = np.concatenate([vertex, np.where(upper, np.minimum(alpha, hi + rho),
                                                      np.maximum(-alpha, lo - rho))])
        # a linear term far outside the set, one sign per actuator in every
        # stage: its solution is a vertex, which the projection keeps bit for bit
        far = np.tile(np.where(upper, -1.0, 1.0), N) * qp.lambda_max * 1e3
        workspace = fgm.Workspace(qp)
        solution = solve(qp, far, cset, np.zeros(n), i_max=200, workspace=workspace).copy()
        cases = {"random": (q, rng.uniform(-1.0, 1.0, n)), "vertex": (q, vertex),
                 "solution": (far, solution)}
        for name, (linear, warm) in cases.items():
            for budget in (0, 1, 2, 3, 20, 200):
                timers = {}
                want = solve(qp, linear, cset, warm, i_max=budget, timers=timers,
                             workspace=workspace).tobytes()
                assert workspace.iterations == budget
                got = solve(qp, linear, cset, warm, i_max=budget, workspace=workspace).tobytes()
                assert got == want, (name, budget)
                assert workspace.iterations <= budget
                if name == "solution":
                    assert workspace.iterations == min(budget, 2), budget
        nan_warm = np.zeros(n)
        nan_warm[-1] = np.nan
        with pytest.raises(NumericalError, match="iteration 0"):
            solve(qp, q, cset, nan_warm, i_max=200, workspace=workspace)


def _factored_oracle(shared, mix, vk, vkt, v, horizon):
    """W v in the factored form (fgm_kernel.c, factored_step), every sum
    over its contraction index in ascending order with elementwise float64
    multiplies and adds."""
    n_u, n_k = vk.shape
    x = v.reshape(horizon, n_u)
    c = np.zeros((horizon, n_k))
    for i in range(n_u):
        c = c + vk[i][None, :] * x[:, i][:, None]
    d = np.zeros((horizon, n_k))
    for u in range(horizon):
        d = d + mix[:, :, u].T * c[u][None, :]
    t = np.zeros((horizon, n_u))
    for u in range(horizon):
        t = t + shared[:, u][:, None] * x[u][None, :]
    for k in range(n_k):
        t = t + vkt[k][None, :] * d[:, k][:, None]
    return t.ravel()


# both sides of each block width (1, 2, 6 and 11 vectors: 8, 16, 48 and 88
# outputs of 8 lanes, 4, 8, 24 and 44 of 4) and every residue mod 8 from 32,
# up to the ring size's 44 modes and 173 outputs and past its padded 176
TILE_SIZES = (1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, *range(32, 42), 43, 44, 45, 47,
              48, 49, 64, 65, 87, 88, 89, 95, 96, 97, 172, 173, 176, 177)


def _unbounded_set(n_u, N):
    """The set array of qp.ConstraintSet, [lower; upper] and for N = 2
    [band; rho] after them, for a set that every point is in."""
    n = N * n_u
    box = [np.full(n, -np.inf), np.full(n, np.inf)]
    if N == 1:
        return np.concatenate(box)
    return np.concatenate([*box, np.full(n_u, np.inf), np.ones(n_u)])


@pytest.mark.parametrize("N", [1, 2])
def test_factored_tiles_keep_every_bit(kernel, rng, N):
    """One iteration with q = 0 over an unbounded set returns W v itself;
    at every mode count and width on both sides of a tile width it is the
    oracle's, bit for bit."""
    for n_k in TILE_SIZES:
        for n_u in TILE_SIZES:
            n = N * n_u
            shared = rng.standard_normal((N, N))
            mix = rng.standard_normal((n_k, N, N))
            vk = rng.standard_normal((n_u, n_k))
            vkt = np.ascontiguousarray(vk.T)
            factors = pack_factors(shared, mix, vk, vkt)
            packed = _unbounded_set(n_u, N)
            v = rng.standard_normal(n)
            data = np.zeros(fgm.workspace_size(n_k, n_u, N))
            data[n:2 * n] = v
            failed = kernel.fgm_solve(factors, n_k, n_u, N, 0.5, 1, packed, data, 0)
            assert failed == -1
            want = _factored_oracle(shared, mix, vk, vkt, v, N)
            assert data[n:2 * n].tobytes() == want.tobytes(), (n_k, n_u)


@pytest.mark.parametrize("N", [1, 2])
def test_dense_sweep_keeps_every_bit(kernel, rng, N):
    """One dense iteration with q = 0 over an unbounded set returns W v
    itself: at every width on both sides of a block width it sums
    W[j] * v[j] elementwise in ascending j, bit for bit."""
    for n_u in (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, *range(32, 42), 43, 44, 45, 47, 48,
                49, 65, 87, 88, 89, 95, 96, 97, 172, 173, 176):
        n = N * n_u
        a = rng.standard_normal((n, n))
        w = a + a.T
        v = rng.standard_normal(n)
        packed = _unbounded_set(n_u, N)
        data = np.zeros(fgm.workspace_size(-1, n_u, N))
        data[n:2 * n] = v
        failed = kernel.fgm_solve(pack([w]), -1, n_u, N, 0.5, 1, packed, data, 0)
        assert failed == -1
        want = np.zeros(n)
        for j in range(n):
            want = want + w[j] * v[j]
        assert data[n:2 * n].tobytes() == want.tobytes(), n_u


def _checked_outputs(n):
    """An output in the first, a middle and the last block of a sweep over
    n outputs, and the first and the last in its last, partial 8-double
    vector (at 101 outputs: 96 and 100, past the finish pass's whole
    vectors of 8 or 4)."""
    return sorted({1, n // 2, n - n % 8 if n % 8 else n - 1, n - 1})


def _growing_instance(form, n_u, N, e, kind, at):
    """Step matrix and iterate of a solve over an unbounded set, with beta
    0 and q 0, whose gradient step has exactly one non-finite output: e
    (of the stacked iterate for the dense form, of each stage for the
    factored one), `kind` inf or NaN, first at iteration `at`.  Output a
    doubles every iteration, and e's terms are G v_a and, for NaN, -G
    times an equal value, with G = 2^(1024 - at): they overflow at
    iteration `at`.
    Every other output stays finite.  The kernel reads W, V_K and V_K^T
    as given, so none needs to be symmetric or a transpose."""
    big = 2.0 ** (1024 - at)
    n = N * n_u
    if form == "dense":
        a, b = [j for j in range(n) if j != e][:2]
        w = np.zeros((n, n))
        w[a, a] = w[b, b] = 2.0  # output i sums w[j, i] v[j] over j
        w[a, e] = big
        w[b, e] = -big if kind == "nan" else 0.0
        return pack([w]), -1, np.zeros(fgm.workspace_size(-1, n_u, N))
    n_k = 5
    a = 0 if e else 1
    shared = np.zeros((N, N))
    mix = np.broadcast_to(np.eye(N), (n_k, N, N))
    vk = np.zeros((n_u, n_k))
    vk[a, :2] = 1.0  # modes 0 and 1 each project output a
    vkt = np.zeros((n_k, n_u))
    vkt[0, a] = 2.0
    vkt[0, e] = big
    vkt[1, e] = -big if kind == "nan" else 0.0
    return pack_factors(shared, mix, vk, vkt), n_k, np.zeros(fgm.workspace_size(n_k, n_u, N))


@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("timed", [0, 1])
def test_non_finite_gradient_output_fails_at_its_iteration(kernel, form, N, timed):
    """The gradient step checks its outputs as it takes the shift: one inf
    or NaN output, in the first, a middle or the last block of a sweep of
    narrow or whole-vector blocks, or in its last, partial vector, fails
    the solve at the iteration that formed it, timed or not.  At N = 1,
    n_u = 23 is a dense sweep of 16-output narrow blocks, the last
    overlapping the first."""
    for n_u in (3, 7, 23, 45, 101):
        n = N * n_u
        for e in _checked_outputs(n if form == "dense" else n_u):
            for kind in ("inf", "nan"):
                for at in (1, 3):
                    matrix, n_k, data = _growing_instance(form, n_u, N, e, kind, at)
                    data[n:2 * n] = 1.0
                    failed = kernel.fgm_solve(matrix, n_k, n_u, N, 0.0, 10, _unbounded_set(n_u, N),
                                              data, timed)
                    assert failed == at, (n_u, e, kind)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("timed", [False, True])
def test_non_finite_linear_term_output_raises_at_iteration_0(rng, N, timed):
    """One inf or NaN entry of q, in the first, a middle or the last block
    of the dense and of the factored sweep, raises NumericalError naming
    iteration 0."""
    dense_n_u = 101
    qps = {"dense": qp_from_matrix(random_spd(rng, N * dense_n_u), N=N),
           "factored": ring_like_instance(rng, N, saturated=True)[0]}
    for form, qp in qps.items():
        n_u, n = qp.n_u, N * qp.n_u
        cset = ConstraintSet(alpha=np.ones(n_u), rho=np.full(n_u, 0.2), u_prev=np.zeros(n_u), N=N)
        for e in _checked_outputs(n):
            for bad in (np.inf, np.nan):
                q = rng.standard_normal(n)
                q[e] = bad
                with pytest.raises(NumericalError, match="iteration 0$"):
                    solve(qp, q, cset, np.zeros(n), i_max=5, timers={} if timed else None)


def _refused_form(array, form):
    """`array` as one of the forms the binding refuses to read in place."""
    if form == "float32":
        return array.astype(np.float32)
    if form == "strided":
        return np.repeat(array.ravel(), 2)[::2]
    read_only = array.copy()
    read_only.flags.writeable = False
    return read_only


@pytest.mark.parametrize("argument, form", [*((argument, form) for argument in ("w", "set", "data")
                                              for form in ("float32", "strided")),
                                            ("data", "read-only")])
def test_fgm_solve_refuses_arrays_it_cannot_read_in_place(kernel, rng, argument, form):
    """w, set and data are read in place: each must be an aligned,
    C-contiguous float64 array, data writeable too.  Any other is refused,
    naming it, before the kernel writes anything."""
    n_u, N = 3, 2
    arrays = _solve_arrays(rng, "dense", n_u, N)
    arrays[argument] = _refused_form(arrays[argument], form)
    before = {name: array.tobytes() for name, array in arrays.items()}
    with pytest.raises(TypeError, match=f"^{argument} must be an aligned, C-contiguous"):
        kernel.fgm_solve(arrays["w"], -1, n_u, N, 0.5, 1, arrays["set"], arrays["data"], 0)
    assert {name: array.tobytes() for name, array in arrays.items()} == before


def _solve_arrays(rng, form, n_u, N, n_k=5):
    """fgm_solve's w, set and data for a dense or a factored step matrix
    (n_k modes), each of the length its layout reads, and a random
    iterate."""
    n = N * n_u
    if form == "dense":
        a = rng.standard_normal((n, n))
        w = pack([a + a.T])
    else:
        vk = rng.standard_normal((n_u, n_k))
        w = pack_factors(rng.standard_normal((N, N)), rng.standard_normal((n_k, N, N)), vk,
                         np.ascontiguousarray(vk.T))
    data = np.zeros(fgm.workspace_size(-1 if form == "dense" else n_k, n_u, N))
    data[n:2 * n] = rng.standard_normal(n)
    return {"w": w, "set": _unbounded_set(n_u, N), "data": data}


@pytest.mark.parametrize("argument", ["w", "set", "data"])
@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("N", [1, 2])
def test_fgm_solve_refuses_arrays_too_short_for_their_layout(kernel, rng, argument, form, N):
    """w, set and data must each hold the values the kernel's layout reads
    for n_k, n_u and the horizon: one value short is refused with a
    ValueError naming it, before the kernel writes anything; at full
    length the solve runs."""
    n_u, n_k = 41, (-1 if form == "dense" else 5)
    arrays = _solve_arrays(rng, form, n_u, N)
    assert kernel.fgm_solve(arrays["w"], n_k, n_u, N, 0.5, 1, arrays["set"],
                            arrays["data"].copy(), 0) == -1
    arrays[argument] = arrays[argument].ravel()[:-1].copy()
    before = {name: array.tobytes() for name, array in arrays.items()}
    with pytest.raises(ValueError, match=f"^{argument} must hold at least "
                                         f"{arrays[argument].size + 1} values"):
        kernel.fgm_solve(arrays["w"], n_k, n_u, N, 0.5, 1, arrays["set"], arrays["data"], 0)
    assert {name: array.tobytes() for name, array in arrays.items()} == before


@pytest.mark.parametrize("sizes", [(-1, 3, 3), (-1, 0, 2), (-2, 3, 2)])
def test_fgm_solve_refuses_sizes_outside_its_layouts(kernel, rng, sizes):
    n_k, n_u, N = sizes
    arrays = _solve_arrays(rng, "dense", 3, 2)
    with pytest.raises(ValueError, match="^fgm_solve: horizon must be 1 or 2"):
        kernel.fgm_solve(arrays["w"], n_k, n_u, N, 0.5, 1, arrays["set"], arrays["data"], 0)


def _padded_rows_of(flat, offset, rows, cols):
    """The `rows` rows of `cols` values from `offset` of the flat array, as
    padded to a multiple of 8, and whether each row starts on a 64-byte
    boundary."""
    stride = -(-cols // 8) * 8
    block = flat[offset:offset + rows * stride].reshape(rows, stride)
    aligned = all((flat.ctypes.data + 8 * (offset + j * stride)) % 64 == 0 for j in range(rows))
    return block, aligned


def test_kernel_matrices_are_aligned_and_zero_padded():
    """Every matrix the kernel's sweeps read, on a 40x41 one-bandwidth
    design of horizon 2 (factored, like the ring) and on its dense W, holds
    each row from a 64-byte boundary, zero-padded to a multiple of 8
    doubles; the workspace and the modal state start on one."""
    b = design_controller(synthetic_plant(40, 41, 1e4, seed=4), horizon=2)
    qp, record = b.condensed, b.modal_record
    n_u, n_y, r, N = 41, 40, 40, 2
    n_k = qp.factored_modes
    assert qp.hessian_form == "factored" and 0 < n_k < n_u
    vk, aligned = _padded_rows_of(qp.factors, 0, n_u, n_k)
    assert aligned and np.array_equal(vk[:, :n_k], qp.modal.V_K) and not vk[:, n_k:].any()
    vkt, aligned = _padded_rows_of(qp.factors, vk.size, n_k, n_u)
    assert aligned and np.array_equal(vkt[:, :n_u], qp.modal.V_K.T) and not vkt[:, n_u:].any()
    w, aligned = _padded_rows_of(qp.W_rows.ravel(), 0, N * n_u, N * n_u)
    assert aligned and np.array_equal(w[:, :N * n_u], qp.W[:N * n_u]) and not w[:, N * n_u:].any()
    packed, pu, basis = record.packed, 48, qp.modal.basis
    for at, rows, cols, want in ((0, n_u, n_u, basis), (n_u * pu, n_u, n_u, basis.T),
                                 (2 * n_u * pu, n_y, r, record.U)):
        block, aligned = _padded_rows_of(packed, at, rows, cols)
        assert aligned and np.array_equal(block[:, :cols], want) and not block[:, cols:].any()
    for array in (fgm.Workspace(qp).data, record.new_state()):
        assert array.ctypes.data % 64 == 0


@pytest.mark.parametrize("form", ["float32", "strided"])
def test_step_context_refuses_arrays_the_kernel_cannot_read(form):
    fields = dict.fromkeys(fgm.STEP_CONTEXT.names, 0)
    fields["state"] = _refused_form(np.zeros(4), form)
    with pytest.raises(DimensionError, match="C-contiguous float64 data for state"):
        fgm.step_context(**fields)


# every residue of n_u mod 4, n_u below one 4-lane vector (a tail only),
# and the ring size
PROJECTION_SIZES = (*range(1, 10), 12, 13, 173)

# (alpha, rho, u_prev) cycled over the actuators: an ordinary actuator, an
# infinite alpha, an infinite rho, rho = 0 with a one-point stage-0
# interval, u_prev on alpha and on -alpha, u_prev = rho and -rho, whose
# stage-0 interval starts or ends on 0.0, and u_prev = -0.0
PROJECTION_LIMITS = ((1.0, 0.5, 0.2), (np.inf, 0.5, 2.5), (1.0, np.inf, 0.3), (1.0, 0.0, 0.3),
                     (1.0, 0.5, 1.0), (1.0, 0.5, -1.0), (1.0, 0.5, 0.5), (1.0, 0.5, -0.5),
                     (1.0, 0.5, -0.0))

# entries of t: inside and far outside either band side, and +-0.0
PROJECTION_VALUES = (3.0, -3.0, 0.0, -0.0, 0.25, -0.25, 0.75, -0.75)


def _compiled_projection(kernel, cset, t):
    """The kernel's projection of the stacked iterate t onto cset: a solve
    with budget 0 returns the projected warm start."""
    n = cset.N * cset.n_u
    data = np.zeros(fgm.workspace_size(-1, cset.n_u, cset.N))
    data[n:2 * n] = t
    assert kernel.fgm_solve(pack([np.zeros((n, n))]), -1, cset.n_u, cset.N, 0.5, 0, cset._packed,
                            data, 0) == -1
    return data[n:2 * n]


@pytest.mark.parametrize("N", [1, 2])
def test_compiled_projection_is_constraint_sets_bit_for_bit(kernel, rng, N):
    """The kernel's N = 1 and N = 2 projections give ConstraintSet.project's
    bits at every residue of n_u mod 4, on every kind of limit and on
    iterates inside, on and past both band sides, of either zero; a NaN
    entry of t comes out NaN."""
    for n_u in PROJECTION_SIZES:
        for shift in range(len(PROJECTION_LIMITS)):
            limits = np.array([PROJECTION_LIMITS[(i + shift) % len(PROJECTION_LIMITS)]
                               for i in range(n_u)])
            cset = ConstraintSet(alpha=limits[:, 0], rho=limits[:, 1], u_prev=limits[:, 2], N=N)
            draws = [rng.choice(PROJECTION_VALUES, N * n_u), rng.uniform(-3.0, 3.0, N * n_u)]
            for t in draws:
                got = _compiled_projection(kernel, cset, t)
                assert got.tobytes() == cset.project(t).tobytes(), (n_u, shift, t)
            t = draws[0].copy()
            at = int(rng.integers(N * n_u))
            t[at] = np.nan
            got = _compiled_projection(kernel, cset, t)
            assert np.isnan(got[at]) and got.tobytes() == cset.project(t).tobytes(), (n_u, at)
