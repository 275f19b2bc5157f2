import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    ConstraintSet,
    DimensionError,
    DisturbanceSpec,
    InfeasibleError,
    NumericalError,
    ObserverState,
    build_state_space,
    design_controller,
    disturbance,
    ibm,
    ibm_at,
    simulate,
    synthetic_plant,
    update_constraint_set,
    update_fast,
)
from orbitmpc import fgm
from orbitmpc import sim as sim_module
from orbitmpc.fileio import write_matrix
from orbitmpc.sim import ibm_from_signal, spatial_mode_shape


@pytest.fixture
def plant():
    return synthetic_plant(4, 4, 5.0, seed=12, dt=1e-3, mu=2)


class TestDisturbance:
    def test_zero_sigma_is_silent(self):
        spec = DisturbanceSpec(kind="white", sigma=0.0)
        assert np.all(disturbance(spec, 50, 3) == 0.0)

    def test_white_sample_mean(self):
        spec = DisturbanceSpec(kind="white", sigma=1.0, seed=7)
        d = disturbance(spec, 100_000, 1)
        assert abs(d.mean()) < 5.0 / np.sqrt(100_000)

    def test_deterministic_per_seed(self):
        spec = DisturbanceSpec(kind="white", sigma=2.0, seed=3)
        assert np.array_equal(disturbance(spec, 64, 4), disturbance(spec, 64, 4))

    def test_random_walk_is_cumulative_white(self):
        w = disturbance(DisturbanceSpec(kind="white", sigma=1.5, seed=5), 128, 2)
        rw = disturbance(DisturbanceSpec(kind="random_walk", sigma=1.5, seed=5), 128, 2)
        assert np.allclose(rw, np.cumsum(w, axis=0))

    def test_sinusoid_single_dominant_bin(self):
        T, dt, f0 = 2048, 1e-3, 31.25  # exactly bin 64
        spec = DisturbanceSpec(kind="sinusoid_mix", sigma=0.0,
                               components=((f0, 1.0, 0),), dt=dt)
        d = disturbance(spec, T, 3)
        Y = np.abs(np.fft.rfft(d[:, 0]))
        assert np.argmax(Y) == 64
        others = np.delete(Y, 64)
        assert np.max(others) < 1e-8 * Y[64]

    def test_sinusoid_above_nyquist_rejected(self):
        spec = DisturbanceSpec(kind="sinusoid_mix", components=((600.0, 1.0, 0),), dt=1e-3)
        with pytest.raises(ConfigError, match="Nyquist"):
            disturbance(spec, 32, 2)

    @pytest.mark.parametrize("mode", [4, 9, -1])
    def test_sinusoid_mode_outside_monitors_rejected(self, mode):
        # on 4 monitors mode 9 would alias onto another shape and -1 onto mode 1
        spec = DisturbanceSpec(kind="sinusoid_mix", components=((2.0, 1.0, mode),), dt=1e-3)
        with pytest.raises(ConfigError, match=rf"component 2\.0:1\.0:{mode}: spatial mode"):
            disturbance(spec, 16, 4)

    @pytest.mark.parametrize("freq_hz, amplitude", [(np.nan, 1.0), (2.0, np.inf)])
    def test_sinusoid_non_finite_component_rejected(self, freq_hz, amplitude):
        spec = DisturbanceSpec(kind="sinusoid_mix", components=((freq_hz, amplitude, 0),), dt=1e-3)
        with pytest.raises(ConfigError, match="must be finite"):
            disturbance(spec, 16, 4)

    def test_file_roundtrip_and_errors(self, tmp_path):
        data = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "d.csv"
        write_matrix(path, data)
        spec = DisturbanceSpec(kind="file", path=str(path))
        assert np.array_equal(disturbance(spec, 4, 3), data)
        with pytest.raises(ConfigError):
            disturbance(spec, 10, 3)   # too few rows
        with pytest.raises(ConfigError):
            disturbance(spec, 4, 5)    # wrong width
        with pytest.raises(ConfigError):
            disturbance(DisturbanceSpec(kind="file", path=str(tmp_path / "nope.csv")), 4, 3)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            DisturbanceSpec(kind="white", sigma=sigma)

    def test_mode_shapes_orthonormal(self):
        shapes = np.array([spatial_mode_shape(m, 7) for m in range(7)])
        assert np.allclose(shapes @ shapes.T, np.eye(7), atol=1e-12)


class TestSimulate:
    def test_quiet_plant_stays_quiet(self, plant):
        tr = simulate(plant, None, DisturbanceSpec(kind="white", sigma=0.0), 40)
        assert np.all(tr.y == 0.0)

    def test_uncontrolled_output_equals_disturbance(self, plant):
        tr = simulate(plant, None, DisturbanceSpec(kind="white", sigma=1.0, seed=2), 64)
        assert np.array_equal(tr.y, tr.d)

    def test_step_response_matches_scalar_recursion(self, plant):
        ss = build_state_space(plant)
        T = 60
        u_seq = np.zeros((T, plant.n_u))
        j = 1
        u_seq[:, j] = 1.0
        inputs = iter(u_seq)

        class OpenLoop:
            def step(self, y):
                return next(inputs)

        tr = simulate(plant, OpenLoop(), DisturbanceSpec(kind="white", sigma=0.0), T)
        a = ss.A[j]
        for k in range(T):
            if k <= plant.mu:
                expected = np.zeros(plant.n_y)
            else:
                expected = ss.C[:, j] * (1.0 - a ** (k - plant.mu))
            assert np.allclose(tr.y[k], expected, atol=1e-12), k

    def test_nonfinite_aborts_with_step_index(self, plant):
        class Exploder:
            def reset(self):
                pass

            def step(self, y):
                return np.full(plant.n_u, np.nan)

        with pytest.raises(NumericalError, match="step 0"):
            simulate(plant, Exploder(), DisturbanceSpec(kind="white", sigma=0.0), 4)


class TestImcController:
    def test_zero_input_zero_output(self, plant):
        b = design_controller(plant, horizon=1)
        ctrl = b.imc_controller(bandwidth_hz=20.0, clip=False)
        assert np.all(ctrl.step(np.zeros(plant.n_y)) == 0.0)

    @pytest.mark.parametrize("bandwidth_hz", [-5.0, 0.0, np.nan, 500.0, 1e9])
    def test_bandwidth_outside_nyquist_rejected(self, bandwidth_hz):
        # dt = 1e-3: the lag filter needs 0 < f < 0.5 / dt = 500 Hz
        b = design_controller(synthetic_plant(8, 8, 1e4, seed=7), horizon=1)
        with pytest.raises(ConfigError, match=r"Nyquist frequency 0\.5 / dt = 500 Hz"):
            b.imc_controller(bandwidth_hz, clip=False)

    def test_integral_action_on_single_mode(self):
        # scalar plant: one mode, constant disturbance driven to zero
        plant = synthetic_plant(1, 1, 1.0, seed=0, dt=1e-3, mu=1)
        b = design_controller(plant, horizon=1)
        ctrl = b.imc_controller(bandwidth_hz=15.0, clip=False)
        d = 0.7
        y_hist = []
        x = 0.0
        ss = build_state_space(plant)
        buf = [0.0] * (plant.mu + 1)
        ctrl.reset()
        for _ in range(4000):
            y = ss.C[0, 0] * buf[-(plant.mu + 1)] + d
            y_hist.append(y)
            u = ctrl.step(np.array([y]))[0]
            x = ss.A[0] * x + ss.B[0] * u
            buf.append(x)
        assert abs(y_hist[-1]) < 1e-6 * abs(d)

    def test_clip_saturates_exactly_at_bounds(self, plant):
        b = design_controller(plant, horizon=1)
        ctrl = b.imc_controller(bandwidth_hz=20.0, clip=True)
        big = 50.0 * np.ones(plant.n_y)
        u1 = ctrl.step(big)
        lo1 = np.maximum(-plant.alpha, -plant.rho)
        assert np.all((np.abs(u1 - lo1) < 1e-15) | (np.abs(u1) <= plant.rho))
        for _ in range(200):
            u = ctrl.step(big)
        assert np.all(np.abs(u) <= plant.alpha + 1e-15)
        assert np.any(np.abs(np.abs(u) - plant.alpha) < 1e-12)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("y", [np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.zeros(4, np.float32),
                                   np.zeros(4, int), 0.0])
    def test_bad_measurement_shape_or_dtype_refused(self, plant, clip, y):
        ctrl = design_controller(plant, horizon=1).imc_controller(bandwidth_hz=20.0, clip=clip)
        with pytest.raises(DimensionError, match=r"measurement of shape .* expected float64 of shape \(4,\)"):
            ctrl.step(y)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("monitor", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurement_refused_naming_the_monitor(self, plant, clip, monitor, bad):
        ctrl = design_controller(plant, horizon=1).imc_controller(bandwidth_hz=20.0, clip=clip)
        rng = np.random.default_rng(8)
        for _ in range(5):
            ctrl.step(rng.normal(0.0, 1.0, 4))
        before = [ctrl.lag.copy(), ctrl.integ.copy(), ctrl.u_prev.copy()]
        y = rng.normal(0.0, 1.0, 4)
        y[monitor] = bad
        with pytest.raises(NumericalError, match=f"non-finite measurement .* at monitor {monitor}"):
            ctrl.step(y)
        for now, was in zip((ctrl.lag, ctrl.integ, ctrl.u_prev), before):
            assert now.tobytes() == was.tobytes()

    def test_simulate_names_the_step_and_the_monitor(self, plant, monkeypatch):
        d = disturbance(DisturbanceSpec(kind="white", sigma=1.0, seed=2), 20, plant.n_y)
        d[12, 3] = np.nan
        monkeypatch.setattr(sim_module, "disturbance", lambda *args, **kwargs: d)
        ctrl = design_controller(plant, horizon=1).imc_controller(bandwidth_hz=20.0, clip=True)
        refusal = "simulation step 12: non-finite measurement nan at monitor 3"
        with pytest.raises(NumericalError, match=refusal):
            simulate(plant, ctrl, DisturbanceSpec(sigma=0.0), 20)


class TestIbm:
    def test_zero_signal(self):
        freqs, curves = ibm_from_signal(np.zeros((128, 2)), 1e-3)
        assert np.all(curves == 0.0)

    def test_sinusoid_rms_normalization(self):
        T, dt = 2 ** 14, 1e-3
        f0 = 64.0 / (T * dt) * 16  # on-grid frequency
        t = np.arange(T) * dt
        y = 2.0 * np.sin(2 * np.pi * f0 * t)[:, None]
        freqs, curves = ibm_from_signal(y, dt)
        assert curves[-1, 0] == pytest.approx(np.sqrt(2.0), rel=1e-2)

    def test_monotone_in_cutoff(self, rng):
        y = rng.standard_normal((512, 3))
        _, curves = ibm_from_signal(y, 1e-3)
        assert np.all(np.diff(curves, axis=0) >= -1e-15)

    def test_parseval_energy_bookkeeping(self, rng):
        y = rng.standard_normal((1024, 2))
        _, curves = ibm_from_signal(y, 1e-3)
        centred = y - y.mean(axis=0)
        rms = np.sqrt(np.mean(centred ** 2, axis=0))
        assert np.allclose(curves[-1], rms, rtol=1e-2)

    def test_average_and_single_monitor(self, rng):
        from orbitmpc.sim import SimTrace
        y = rng.standard_normal((256, 3))
        tr = SimTrace(y=y, u=np.zeros((256, 1)), d=y, dt=1e-3)
        freqs, avg = ibm(tr, monitor="average")
        _, single = ibm(tr, monitor=1)
        _, curves = ibm_from_signal(y, 1e-3)
        assert np.allclose(avg, curves.mean(axis=1))
        assert np.allclose(single, curves[:, 1])
        assert ibm_at(freqs, avg, freqs[5]) == avg[5]

    def test_too_short_signal_rejected(self):
        with pytest.raises(ConfigError):
            ibm_from_signal(np.zeros((1, 1)), 1e-3)


class TestClosedLoopMpc:
    def test_constant_disturbance_rejected(self, tmp_path):
        plant = synthetic_plant(6, 6, 100.0, seed=3)
        b = design_controller(plant, horizon=1)
        rng = np.random.default_rng(1)
        u_target = rng.uniform(-0.4, 0.4, 6)
        d_const = plant.R @ u_target
        T = 2000
        path = tmp_path / "d.csv"
        write_matrix(path, np.tile(d_const, (T, 1)))
        tr = simulate(plant, b.mpc_controller(i_max=20),
                      DisturbanceSpec(kind="file", path=str(path)), T)
        assert np.linalg.norm(tr.y[-1]) < 1e-6 * np.linalg.norm(d_const)

    def test_constraints_respected_throughout(self):
        plant = synthetic_plant(5, 5, 50.0, seed=9, alpha=0.2, rho=0.02)
        b = design_controller(plant, horizon=2)
        tr = simulate(plant, b.mpc_controller(i_max=15),
                      DisturbanceSpec(kind="white", sigma=1.0, seed=4), 300)
        assert np.all(np.abs(tr.u) <= plant.alpha + 1e-9)
        du = np.diff(tr.u, axis=0)
        assert np.all(np.abs(du) <= plant.rho + 1e-9)

    @pytest.mark.parametrize("i_max", [-1, -3])
    def test_negative_budget_refused_at_construction(self, plant, i_max):
        b = design_controller(plant, horizon=1)
        with pytest.raises(ConfigError, match=f"i_max must be >= 0, got {i_max}"):
            b.mpc_controller(i_max)

    def test_non_integer_budget_refused_at_construction(self, plant):
        b = design_controller(plant, horizon=1)
        with pytest.raises(TypeError):
            b.mpc_controller(2.5)

    def test_clipping_degrades_low_frequency_rejection(self):
        # saturating baseline loses low-frequency attenuation vs unclipped
        plant = synthetic_plant(8, 8, 10.0, seed=4, dt=1e-3, mu=3,
                                alpha=0.3, rho=0.01)
        dist = DisturbanceSpec(kind="sinusoid_mix", sigma=0.05, seed=1,
                               components=((2.0, 2.0, 0),), dt=plant.dt)
        b = design_controller(plant, horizon=1, weights_mode="imc_matched",
                              sigma_v=1e-2)
        T = 3000
        tr_free = simulate(plant, b.imc_controller(bandwidth_hz=10.0, clip=False),
                           dist, T)
        tr_clip = simulate(plant, b.imc_controller(bandwidth_hz=10.0, clip=True),
                           dist, T)
        freqs, curve_free = ibm(tr_free)
        _, curve_clip = ibm(tr_clip)
        assert ibm_at(freqs, curve_clip, 4.0) >= ibm_at(freqs, curve_free, 4.0)


class _Raises:
    """A controller whose every step raises the given error."""

    def __init__(self, error):
        self.error = error

    def step(self, y_k):
        raise self.error


@pytest.mark.parametrize("error", [InfeasibleError, NumericalError])
def test_controller_error_keeps_its_class_and_names_the_step(plant, error):
    with pytest.raises(error, match="controller failed at simulation step 0: stub") as info:
        simulate(plant, _Raises(error("stub")), DisturbanceSpec(sigma=0.0), 5)
    assert type(info.value) is error


class _ReferenceController:
    """The online stack written with the reference functions only: a new
    linear term, constraint set and observer state every sample, and a
    solve in its own workspace."""

    def __init__(self, b, i_max):
        self.b, self.i_max = b, i_max

    def reset(self):
        b = self.b
        self.observer = ObserverState.initial(b.ss, b.gain)
        self.u_prev = np.zeros(b.ss.n_u)
        self.warm = np.zeros(b.condensed.N * b.ss.n_u)
        self.cset = ConstraintSet(alpha=b.plant.alpha, rho=b.plant.rho, u_prev=self.u_prev,
                                  N=b.condensed.N)

    def step(self, y_k):
        q = self.b.condensed.linear_term(self.observer.x_hat, self.observer.d_hat)
        self.cset = update_constraint_set(self.cset, self.u_prev)
        u_plan = fgm.solve(self.b.condensed, q, self.cset, self.warm, i_max=self.i_max)
        u_k = u_plan[: self.b.ss.n_u].copy()
        self.observer = update_fast(self.observer, u_k, y_k)
        self.warm, self.u_prev = u_plan, u_k
        return u_k


def _mixed_bandwidth_plant():
    """A 6x6 plant whose last two correctors have their own bandwidth: no
    modal form, so the dense path runs with the kernel too."""
    plant = synthetic_plant(6, 6, 100.0, seed=11, mu=2, alpha=0.3, rho=0.05)
    return dataclasses.replace(plant, bandwidths=2.0 * np.pi * np.array([70.0] * 4 + [300.0] * 2))


BUFFER_PLANTS = {
    "4x4-n1": lambda: design_controller(synthetic_plant(4, 4, 50.0, seed=5, mu=3, alpha=0.3,
                                                        rho=0.05), horizon=1),
    "8x8-n2": lambda: design_controller(synthetic_plant(8, 8, 1e3, seed=2, mu=2, alpha=0.3,
                                                        rho=0.05), horizon=2),
    "40x41-n2-factored": lambda: design_controller(synthetic_plant(40, 41, 1e4, seed=7, alpha=0.3,
                                                                   rho=0.05), horizon=2),
    "6x6-n2-mixed": lambda: design_controller(_mixed_bandwidth_plant(), horizon=2),
    # kappa(C) = 1e8: the dense q_map_d of a matched-weight design rounds
    # through 1/sigma above the modal record's tolerance
    "8x8-n2-ill-conditioned": lambda: design_controller(
        synthetic_plant(8, 8, 1e8, seed=0, mu=2, alpha=0.3, rho=0.05), horizon=2,
        weights_mode="imc_matched"),
}
# With the kernel built, a one-bandwidth controller keeps its estimates by
# mode, which rounds differently (TestModalController); the dense path runs
# on a mixed-bandwidth plant, on an ill-conditioned design whose modal
# record is not within tolerance, and everywhere without the kernel.
BIT_IDENTICAL_CASES = [(shape, kernel_off) for shape in sorted(BUFFER_PLANTS)
                       for kernel_off in (False, True)
                       if kernel_off or shape.endswith(("mixed", "ill-conditioned"))]


def owned_arrays(ctrl):
    """The arrays an MpcController writes or hands to the solve per sample;
    the dense path's estimates and q are new arrays each sample, and so is
    the modal path's timed q, its estimates live in its state array and
    its set array, which its context block points at."""
    st, ws = ctrl.observer, ctrl._workspace
    modal = ((ctrl._modal_state, ctrl._set, ctrl._context)
             if ctrl.observer_form == "modal" else ())
    return [ctrl.alpha, ctrl.rho, ctrl.warm, ctrl.u_prev, st.x_hat, st.z_hat, st.d_hat,
            *modal, ws.data, ctrl.cset._packed, ctrl.cset.u_prev]


class TestControllerBuffers:
    @pytest.mark.parametrize("shape, kernel_off", BIT_IDENTICAL_CASES,
                             ids=[f"{shape}-{'kernel-off' if off else 'kernel'}"
                                  for shape, off in BIT_IDENTICAL_CASES])
    def test_inputs_bit_identical_to_the_reference_functions(self, monkeypatch, shape, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        b = BUFFER_PLANTS[shape]()
        if shape.endswith("factored"):
            assert b.condensed.hessian_form == "factored"
        if shape.endswith("ill-conditioned"):
            assert not b.modal_record.within_tolerance
            assert b.mpc_controller(i_max=20).observer_form == "dense"
        dist = DisturbanceSpec(kind="white", sigma=2.0, seed=3)
        got = simulate(b.plant, b.mpc_controller(i_max=20), dist, 400)
        want = simulate(b.plant, _ReferenceController(b, 20), dist, 400)
        assert got.u.tobytes() == want.u.tobytes()
        # both limits bind somewhere, so every branch of the projection ran
        assert np.any(np.abs(got.u) >= b.plant.alpha - 1e-12)
        assert np.any(np.abs(np.diff(got.u, axis=0)) >= b.plant.rho - 1e-12)

    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    def test_controllers_of_one_bundle_share_no_buffer(self, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        b = BUFFER_PLANTS["8x8-n2"]()
        rng = np.random.default_rng(4)
        ys = [rng.normal(0.0, 2.0, (300, b.ss.n_y)) for _ in range(2)]

        def alone(y):
            ctrl = b.mpc_controller(i_max=20)
            return np.array([ctrl.step(y_k) for y_k in y])

        want = [alone(y) for y in ys]
        pair = [b.mpc_controller(i_max=20) for _ in range(2)]
        got = [[], []]
        for k in range(300):
            for i, ctrl in enumerate(pair):
                got[i].append(ctrl.step(ys[i][k]))
        for i in range(2):
            assert np.array(got[i]).tobytes() == want[i].tobytes()
        for mine in owned_arrays(pair[0]):
            for theirs in owned_arrays(pair[1]):
                assert not np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
    def test_solve_inputs_intact_after_the_next_sample(self, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        b = BUFFER_PLANTS["8x8-n2"]()
        ctrl = b.mpc_controller(i_max=20)
        seen = []
        solve = fgm.solve

        def recording_solve(qp_, q, cset, warm, **kwargs):
            arrays = (q, cset.u_prev, cset._packed)
            seen.append((arrays, [np.array(a) for a in arrays]))
            return solve(qp_, q, cset, warm, **kwargs)

        monkeypatch.setattr(fgm, "solve", recording_solve)
        rng = np.random.default_rng(5)
        for k in range(100):  # only a timed sample calls fgm.solve on the modal path
            ctrl.step(rng.normal(0.0, 2.0, b.ss.n_y), timers={})
            if k:
                arrays, copies = seen[k - 1]
                for array, copy in zip(arrays, copies):
                    assert array.tobytes() == copy.tobytes()


def _workload_like(n_y, n_u, horizon, mu, weights="saturated", **plant):
    """A plant and design of one of the benchmark's shapes."""
    if n_y > 100:  # the storage ring's sampling and corrector bandwidth
        plant.update(dt=1e-4, bandwidth=2.0 * np.pi * 700.0)
    sigma_v = plant.pop("sigma_v", 1.0)
    return design_controller(synthetic_plant(n_y, n_u, 1e4, seed=1, mu=mu, **plant), horizon,
                             weights_mode=weights, sigma_v=sigma_v)


def _tones(dt, tones, sigma):
    """The benchmark's disturbance of a workload: tones on a noise floor."""
    return DisturbanceSpec(kind="sinusoid_mix", sigma=sigma, seed=1, components=tones, dt=dt)


_RING_TONES = _tones(1e-4, ((40.0, 1.0, 0), (96.0, 0.4, 1)), 0.02)
_SMALL_TONES = _tones(1e-3, ((2.0, 1.0, 0), (5.0, 0.4, 1)), 0.1)
_WHITE = DisturbanceSpec(kind="white", sigma=0.05, seed=3)
# name -> (bundle, disturbance); the benchmark's three shapes with their own
# disturbance, the 8x8 also under white noise, and a wide and a tall plant
MODAL_PLANTS = {
    "ring-172x173-n2": (lambda: _workload_like(172, 173, 2, 2), _RING_TONES),
    "small-4x4-n1": (lambda: _workload_like(4, 4, 1, 3, "imc_matched", sigma_v=1e-6), _SMALL_TONES),
    "small-8x8-n2": (lambda: _workload_like(8, 8, 2, 3, "imc_matched"), _SMALL_TONES),
    "small-8x8-n2-white": (lambda: _workload_like(8, 8, 2, 3, "imc_matched"),
                           DisturbanceSpec(kind="white", sigma=1.0, seed=3)),
    "wide-40x41-n1": (lambda: _workload_like(40, 41, 1, 3, alpha=0.3, rho=0.05), _WHITE),
    "wide-40x41-n2": (lambda: _workload_like(40, 41, 2, 3, alpha=0.3, rho=0.05), _WHITE),
    "tall-41x40-n1-mu0": (lambda: _workload_like(41, 40, 1, 0, alpha=0.3, rho=0.05), _WHITE),
    "tall-41x40-n2": (lambda: _workload_like(41, 40, 2, 3, alpha=0.3, rho=0.05), _WHITE),
}


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.filterwarnings("ignore:response matrix has rank")
class TestModalController:
    """On one-bandwidth plants, where the kernel builds, the controller keeps
    its estimates by mode; it agrees with the dense reference to rounding."""

    @pytest.mark.parametrize("shape", sorted(MODAL_PLANTS))
    def test_inputs_within_1e_9_of_the_reference_functions(self, shape):
        make, dist = MODAL_PLANTS[shape]
        b = make()
        ctrl = b.mpc_controller(i_max=20)
        assert ctrl.observer_form == ("modal" if fgm.solve_kernel() == "compiled" else "dense")
        got = simulate(b.plant, ctrl, dist, 400)
        reference = _ReferenceController(b, 20)
        want = simulate(b.plant, reference, dist, 400)
        assert _relative_gap(got.u, want.u) <= 1e-9
        # the amplitude limit binds somewhere, but not on every input
        assert 0.0 < np.mean(np.abs(got.u) >= b.plant.alpha - 1e-12) < 0.9
        if shape.startswith("tall"):  # the estimates, d^ outside range(C) among them
            mine, theirs = ctrl.observer, reference.observer
            for name in ("x_hat", "z_hat", "d_hat"):
                if getattr(theirs, name).size:
                    assert _relative_gap(getattr(mine, name), getattr(theirs, name)) <= 1e-9, name

    def test_reset_clears_the_modal_estimates(self):
        b = BUFFER_PLANTS["8x8-n2"]()
        ctrl = b.mpc_controller(i_max=20)
        y = np.random.default_rng(2).normal(0.0, 1.0, (30, b.ss.n_y))
        first = np.array([ctrl.step(y_k) for y_k in y])
        assert np.any(ctrl.observer.x_hat != 0.0)
        ctrl.reset()
        for name in ("x_hat", "z_hat", "d_hat"):
            assert not np.any(getattr(ctrl.observer, name)), name
        assert np.array([ctrl.step(y_k) for y_k in y]).tobytes() == first.tobytes()


def _controller_state(ctrl):
    """The bytes of what a sample reads from the last one: the warm start,
    u_prev, the set array(s), the estimates and the linear term formed
    with them."""
    state = {"warm": ctrl.warm, "u_prev": ctrl.u_prev, "cset": ctrl.cset._packed, "q": ctrl._q}
    if ctrl.observer_form == "modal":
        state["set"] = ctrl._set
    for name in ("x_hat", "z_hat", "d_hat"):
        state[name] = getattr(ctrl.observer, name)
    return {name: np.array(value).tobytes() for name, value in state.items()}


class _Timers:
    """Runs a controller with stage timers on every `every`-th sample (never
    for 0), as the benchmark's traced run does for every = 2."""

    def __init__(self, ctrl, every):
        self.ctrl, self.every = ctrl, every

    def reset(self):
        self.ctrl.reset()
        self.k = 0

    def step(self, y_k):
        timed = self.every and self.k % self.every == 0
        self.k += 1
        return self.ctrl.step(y_k, timers={} if timed else None)


@pytest.mark.filterwarnings("ignore:response matrix has rank")
@pytest.mark.parametrize("shape", sorted(MODAL_PLANTS))
def test_timed_and_untimed_samples_interleave(shape):
    """The staged (timed) and the one-call (untimed) samples share one
    state, so any mix of them gives the same bytes; the set a timed
    sample recentres in Python is, sample by sample, the set array that
    an untimed sample recentres in the kernel."""
    make, dist = MODAL_PLANTS[shape]
    b = make()
    for i_max in (0, 1, 20):
        ctrl = b.mpc_controller(i_max=i_max)
        assert ctrl.observer_form == ("modal" if fgm.solve_kernel() == "compiled" else "dense")
        runs = []
        for every in (2, 0, 1):
            trace = simulate(b.plant, _Timers(ctrl, every), dist, 400)
            state = _controller_state(ctrl)
            del state["cset"]  # the set of the last timed sample
            runs.append([trace.u.tobytes(), *state.values()])
        assert runs[0] == runs[1] == runs[2], f"i_max = {i_max}"
        if ctrl.observer_form == "modal":
            untimed = b.mpc_controller(i_max=i_max)
            ctrl.reset()
            for k, y_k in enumerate(trace.y):  # the history every run above had
                ctrl.step(y_k, timers={} if k % 2 == 0 else None)
                untimed.step(y_k)
                if k % 2 == 0:
                    assert ctrl.cset._packed.tobytes() == untimed._set.tobytes(), \
                        f"i_max = {i_max}, sample {k}"


def _recentring_controller(shape, alpha, rho):
    """A modal controller of a BUFFER_PLANTS design with its own limits,
    i_max = 0, so a step recentres the set and projects the warm start."""
    b = BUFFER_PLANTS[shape]()
    ctrl = sim_module.MpcController(b.ss, b.condensed, b.gain, alpha, rho, i_max=0,
                                    modes=b.modal_record)
    assert ctrl.observer_form == "modal"
    return ctrl, np.zeros(b.ss.n_y)


def _limits(n_u):
    """alpha and rho with an infinite alpha (actuator 1), an infinite rho
    (2) and a zero rho (0 and 3), whose stage-0 interval is one point."""
    alpha, rho = np.full(n_u, 0.3), np.full(n_u, 0.05)
    alpha[1], rho[2], rho[[0, 3]] = np.inf, np.inf, 0.0
    return alpha, rho


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
@pytest.mark.parametrize("shape", ["4x4-n1", "8x8-n2"])
class TestCompiledRecentring:
    """mpc_step recentres the controller's set array byte for byte as
    update_constraint_set recentres a ConstraintSet, and refuses what it
    refuses with the same error."""

    @staticmethod
    def _inputs(n_u, alpha):
        inside = 0.1 * np.sin(np.arange(1.0, n_u + 1.0))
        on_box = np.where(np.arange(n_u) % 2, -alpha, alpha)  # lo == hi where rho = 0
        on_box[1] = 2.5  # alpha is infinite there
        return {"inside": inside, "on the box": on_box}

    def test_set_array_matches_the_numpy_recentring(self, shape):
        n_u = 4 if shape == "4x4-n1" else 8
        alpha, rho = _limits(n_u)
        ctrl, y = _recentring_controller(shape, alpha, rho)
        reference = ConstraintSet(alpha=alpha, rho=rho, u_prev=np.zeros(n_u), N=ctrl.qp.N)
        for name, u in self._inputs(n_u, alpha).items():
            np.copyto(ctrl.u_prev, u)
            ctrl.step(y)
            want = update_constraint_set(reference, u)
            assert ctrl._set.tobytes() == want._packed.tobytes(), name
        assert ctrl._set[3] == ctrl._set[ctrl.qp.N * n_u + 3] == -alpha[3]  # lo == hi

    def test_set_array_has_room_for_mpc_steps_copy(self, shape):
        """mpc_step saves the set array just past its end before recentring
        it, so the array is the first half of a buffer twice its size."""
        ctrl = BUFFER_PLANTS[shape]().mpc_controller(i_max=20)
        assert ctrl.observer_form == "modal"
        spare = ctrl._set.base
        assert spare.size >= 2 * ctrl._set.size
        assert ctrl._set.__array_interface__["data"] == spare.__array_interface__["data"]

    @pytest.mark.parametrize("case", ["amplitude", "nan", "empty"])
    def test_refusal_matches_update_constraint_set(self, shape, case):
        n_u = 4 if shape == "4x4-n1" else 8
        alpha, rho = _limits(n_u)
        ctrl, y = _recentring_controller(shape, alpha, rho)
        u = np.zeros(n_u)
        if case == "amplitude":
            u[-1] = alpha[-1] + 1e-6
        elif case == "nan":
            u[2] = np.nan
        else:  # within the amplitude check's 1e-9, outside the one-point interval
            u[[0, 3]] = alpha[[0, 3]] + 5e-10
        reference = ConstraintSet(alpha=alpha, rho=rho, u_prev=np.zeros(n_u), N=ctrl.qp.N)
        with pytest.raises(InfeasibleError) as want:
            update_constraint_set(reference, u)
        np.copyto(ctrl.u_prev, u)
        before = _controller_state(ctrl)
        with pytest.raises(InfeasibleError) as got:
            ctrl.step(y)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert _controller_state(ctrl) == before


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
@pytest.mark.parametrize("shape", ["4x4-n1", "8x8-n2"])
def test_untimed_modal_samples_run_no_python_set_update_or_solve(monkeypatch, shape):
    """mpc_step runs the whole untimed sample: no Python constraint set is
    built or recentred and no Python solve runs, while a timed sample
    still reaches them."""
    b = BUFFER_PLANTS[shape]()
    ctrl = b.mpc_controller(i_max=20)
    assert ctrl.observer_form == "modal"

    def refuse(*args, **kwargs):
        raise AssertionError("Python set update or solve ran")

    monkeypatch.setattr(sim_module.qp, "update_constraint_set", refuse)
    monkeypatch.setattr(sim_module.qp.ConstraintSet, "__post_init__", refuse)
    monkeypatch.setattr(fgm, "solve", refuse)
    monkeypatch.setattr(fgm.Workspace, "solve", refuse)
    y = np.random.default_rng(9).normal(0.0, 2.0, (200, b.ss.n_y))
    u = np.array([ctrl.step(y_k) for y_k in y])
    assert np.any(np.abs(u) >= b.plant.alpha - 1e-12)  # the solve ran, and saturated
    with pytest.raises(AssertionError, match="Python set update or solve ran"):
        ctrl.step(y[0], timers={})


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
# every residue mod 8 around the block widths (1, 2, 6 and 11 vectors of 8 or 4)
@pytest.mark.parametrize("n_u", [31, *range(32, 42), 44, 47, 88, 89, 172, 173, 176])
def test_linear_term_is_each_stages_ascending_sum(n_u):
    """From 32 inputs the kernel forms both stages of the linear term
    [V, V_perp] q~_s in one sweep over the rows of [V, V_perp]^T, below
    that stage by stage.  After an untimed sample (Step) and a timed one
    (Step.observe) each stage is, bit for bit, 0.0 plus row j of
    [V, V_perp]^T times q~_s[j] in ascending j, with q~_s = alpha_s x~ +
    beta_s d~ (alpha_s x~ alone past the r modes of C)."""
    b = design_controller(synthetic_plant(n_u - 1, n_u, 1e3, seed=n_u, alpha=0.3, rho=0.05),
                          horizon=2)
    ctrl = b.mpc_controller(i_max=20)
    assert ctrl.observer_form == "modal"
    record, state = ctrl._modes, ctrl._modal_state
    r = record.sigma.size
    x, d = state[:n_u], state[(1 + record.mu) * n_u:(1 + record.mu) * n_u + r]
    for k, y_k in enumerate(np.random.default_rng(n_u).normal(0.0, 1.0, (6, n_u - 1))):
        ctrl.step(y_k, timers={} if k % 2 else None)
        assert np.any(x != 0.0) and np.any(d != 0.0)
        want = []
        for s in range(2):
            q_tilde = record.alpha[s] * x
            q_tilde[:r] = record.alpha[s][:r] * x[:r] + record.beta[s] * d
            stage = np.zeros(n_u)
            for j in range(n_u):
                stage = stage + record.W.T[j] * q_tilde[j]
            want.append(stage)
        assert record.linear_term(state).tobytes() == np.concatenate(want).tobytes(), k


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
@pytest.mark.parametrize("argument", ["y", "u"])
@pytest.mark.parametrize("form", ["float32", "strided", "short"])
def test_observe_refuses_arrays_it_cannot_read_in_place(argument, form):
    """A timed sample's observe reads y and u in place: each must be an
    aligned, C-contiguous float64 array of its size.  Any other is
    refused, naming it, before the kernel writes anything."""
    ctrl = BUFFER_PLANTS["8x8-n2"]().mpc_controller(i_max=20)
    assert ctrl.observer_form == "modal"
    rng = np.random.default_rng(5)
    for y_k in rng.normal(0.0, 1.0, (5, 8)):
        ctrl.step(y_k)
    arrays = {"y": rng.normal(0.0, 1.0, 8), "u": ctrl.u_prev.copy()}
    if form == "float32":
        arrays[argument] = arrays[argument].astype(np.float32)
    elif form == "strided":
        arrays[argument] = np.repeat(arrays[argument], 2)[::2]
    else:
        arrays[argument] = arrays[argument][:-1]
    error, message = ((ValueError, r"y must hold 8 values and u 8") if form == "short" else
                      (TypeError, f"^{argument} must be an aligned, C-contiguous float64 array"))
    before = _controller_state(ctrl)
    with pytest.raises(error, match=message):
        ctrl._step.observe(arrays["y"], arrays["u"])
    assert _controller_state(ctrl) == before


@pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
class TestMeasurementChecks:
    @pytest.fixture
    def ctrl(self, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        return BUFFER_PLANTS["8x8-n2"]().mpc_controller(i_max=20)

    @pytest.mark.parametrize("y", [np.zeros(7), np.zeros(9), np.zeros((8, 1)), np.zeros(8, np.float32),
                                   np.zeros(8, int), 0.0])
    def test_bad_shape_or_dtype_refused(self, ctrl, y):
        with pytest.raises(DimensionError, match=r"measurement of shape .* expected float64 of shape \(8,\)"):
            ctrl.step(y)

    @pytest.mark.parametrize("monitor", [0, 5, 7])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused_at_its_sample_naming_the_monitor(self, ctrl, bad, monitor):
        rng = np.random.default_rng(6)
        for _ in range(5):
            ctrl.step(rng.normal(0.0, 1.0, 8))
        names = ("x_hat", "z_hat", "d_hat")
        before = [getattr(ctrl.observer, name).copy() for name in names]
        y = rng.normal(0.0, 1.0, 8)
        y[monitor] = bad
        with pytest.raises(NumericalError, match=f"non-finite measurement .* at monitor {monitor}"):
            ctrl.step(y)
        for name, was in zip(names, before):  # the estimates are left as they were
            assert getattr(ctrl.observer, name).tobytes() == was.tobytes(), name

    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    def test_refused_measurement_changes_no_state(self, ctrl, timed):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ctrl.step(rng.normal(0.0, 1.0, 8))
        before = _controller_state(ctrl)
        y = rng.normal(0.0, 1.0, 8)
        y[3] = np.nan
        with pytest.raises(NumericalError, match="non-finite measurement nan at monitor 3"):
            ctrl.step(y, timers={} if timed else None)
        after = _controller_state(ctrl)
        assert after.keys() == before.keys()
        for name, was in before.items():
            assert after[name] == was, name

    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    def test_strided_measurement_accepted(self, ctrl, timed):
        # a sample's y reaches its input only through the next sample's q
        y = np.repeat(np.random.default_rng(7).normal(0.0, 1.0, 8), 2)[::2]
        got = [ctrl.step(y, timers={} if timed else None).tobytes() for _ in range(2)]
        ctrl.reset()
        y = np.ascontiguousarray(y)
        assert [ctrl.step(y, timers={} if timed else None).tobytes() for _ in range(2)] == got

    def test_simulate_names_the_step(self, ctrl, monkeypatch):
        b = BUFFER_PLANTS["8x8-n2"]()
        d = disturbance(DisturbanceSpec(kind="white", sigma=1.0, seed=2), 20, b.ss.n_y)
        d[12, 3] = np.nan
        monkeypatch.setattr(sim_module, "disturbance", lambda *args, **kwargs: d)
        refusal = "simulation step 12: non-finite measurement nan at monitor 3"
        with pytest.raises(NumericalError, match=refusal):
            simulate(b.plant, ctrl, DisturbanceSpec(sigma=0.0), 20)


class _Measurement(np.ndarray):
    """An ndarray subclass, which the untimed modal path's fast check
    hands to checked_measurement."""


def _measurement_forms(n_y):
    """name -> (a measurement of n_y monitors in that form, whether
    checked_measurement accepts it)."""
    y = np.random.default_rng(3).normal(0.0, 1.0, n_y)
    read_only = y.copy()
    read_only.flags.writeable = False
    return {
        "list": (list(y), True),
        "float32": (y.astype(np.float32), False),
        "big-endian": (y.astype(">f8"), False),
        "column": (y.reshape(n_y, 1), False),
        "0-d": (np.array(y[0]), False),
        "strided": (np.arange(2.0 * n_y)[::2], True),
        "read-only": (read_only, True),
        "subclass": (y.view(_Measurement), True),
    }


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("form", sorted(_measurement_forms(8)))
def test_measurement_forms_accepted_or_refused_as_checked_measurement_does(form, timed):
    """Each form is accepted with the bytes of the float64 array it holds,
    or refused with checked_measurement's error, state unchanged."""
    b = BUFFER_PLANTS["8x8-n2"]()
    y, accepted = _measurement_forms(b.ss.n_y)[form]
    ctrl, twin = b.mpc_controller(i_max=20), b.mpc_controller(i_max=20)
    assert ctrl.observer_form == ("modal" if fgm.solve_kernel() == "compiled" else "dense")
    for y_k in np.random.default_rng(4).normal(0.0, 1.0, (5, b.ss.n_y)):
        ctrl.step(y_k)
        twin.step(y_k)
    timers = {} if timed else None
    if accepted:
        want = twin.step(np.array(y, dtype=np.float64), timers=timers)
        assert ctrl.step(y, timers=timers).tobytes() == want.tobytes()
        assert _controller_state(ctrl) == _controller_state(twin)
        return
    with pytest.raises(DimensionError) as want:
        sim_module.checked_measurement(y, b.ss.n_y)
    before = _controller_state(ctrl)
    with pytest.raises(DimensionError) as got:
        ctrl.step(y, timers=timers)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert _controller_state(ctrl) == before


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
class TestUntimedStepCall:
    """The untimed modal sample is one call of the kernel module's `Step`,
    which reads y in place and returns a new array of the applied input."""

    @staticmethod
    def _pair(shape):
        b = BUFFER_PLANTS[shape]() if shape in BUFFER_PLANTS else design_controller(
            synthetic_plant(6, 4, 50.0, seed=5, mu=2, alpha=0.3, rho=0.05), horizon=2)
        ctrl, twin = b.mpc_controller(i_max=20), b.mpc_controller(i_max=20)
        assert ctrl.observer_form == "modal"
        return b, ctrl, twin

    def test_no_reference_leaks_accepted_or_refused(self):
        """No call form, run in C or forwarded to the class's step, accepted
        or refused, leaves a reference behind, to its arguments, the
        controller or its arrays."""
        b, ctrl, _ = self._pair("8x8-n2")
        y = np.random.default_rng(1).normal(0.0, 1.0, b.ss.n_y)
        timers = {}
        held = [y, ctrl._context, ctrl.u_prev, ctrl.warm, ctrl._set, ctrl._modal_state,
                ctrl._workspace.data, ctrl._step, ctrl, None, timers]

        def counts():
            gc.collect()  # pytest.raises' tracebacks are cycles, not references a call keeps
            return [sys.getrefcount(obj) for obj in held]

        def run(call, y_k, error, count):
            for _ in range(count):
                if error is None:
                    call(y_k)
                else:
                    with pytest.raises(error):
                        call(y_k)

        non_finite, strided = y.copy(), np.repeat(y, 2)[::2]
        non_finite[2] = np.nan
        step = ctrl.step
        cases = [("accepted", step, y, None),
                 ("forwarded, None", lambda y_k: step(y_k, None), y, None),
                 ("accepted, timers=None", lambda y_k: step(y_k, timers=None), y, None),
                 ("forwarded, timers dict", lambda y_k: step(y_k, timers=timers), y, None),
                 ("forwarded, keyword y", lambda y_k: step(y_k=y_k), y, None),
                 ("int code (measurement)", step, non_finite, NumericalError),
                 ("int code (measurement), timers=None", lambda y_k: step(y_k, timers=None),
                  non_finite, NumericalError),
                 ("NotImplemented, refused", step, y.astype(np.float32), DimensionError),
                 ("NotImplemented, big-endian", step, y.astype(">f8"), DimensionError),
                 ("NotImplemented, accepted", step, strided, None),
                 ("NotImplemented, accepted list", step, list(y), None),
                 ("forwarded, too many arguments", lambda y_k: step(y_k, None, 1, 2, 3, 4, 5, 6, 7),
                  y, TypeError),
                 ("int code (set)", step, y, InfeasibleError),
                 ("int code (set), timers dict", lambda y_k: step(y_k, timers=timers), y,
                  InfeasibleError)]
        for name, call, y_k, error in cases:
            if name.startswith("int code (set)"):
                ctrl.u_prev[0] = np.inf  # the set recentring refuses it
            held[0] = y_k
            run(call, y_k, error, 1)  # anything cached at a first call, outside the count
            before = counts()
            run(call, y_k, error, 1000)
            assert counts() == before, name

    def test_dropped_controller_is_freed_at_once(self):
        """The Step holds its controller by a weak reference, so dropping
        the controller frees it without the cyclic collector; a Step kept
        past it refuses every call, as the arrays its context addresses
        are gone."""
        b = BUFFER_PLANTS["8x8-n2"]()
        y = np.zeros(b.ss.n_y)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ctrl = b.mpc_controller(i_max=20)
            ctrl.step(y)
            ctrl.step(y, timers={})
            step, dropped = ctrl.step, weakref.ref(ctrl)
            del ctrl
            assert dropped() is None
        finally:
            if enabled:
                gc.enable()
        for call in (lambda: step(y), lambda: step(y, timers={}), lambda: step.run(y),
                     lambda: step.observe(y, np.zeros(b.ss.n_u))):
            with pytest.raises(ReferenceError, match="its controller is gone"):
                call()

    def test_returned_input_is_owned(self):
        b, ctrl, twin = self._pair("8x8-n2")
        for y_k in np.random.default_rng(2).normal(0.0, 2.0, (50, b.ss.n_y)):
            u = ctrl.step(y_k)
            assert u.flags.owndata and u.base is None and u.dtype == np.float64
            assert u.shape == (b.ss.n_u,)
            for theirs in (ctrl.u_prev, ctrl.warm, ctrl._workspace.data, ctrl._context):
                assert not np.shares_memory(u, theirs)
            assert u.tobytes() == twin.step(y_k).tobytes()
            u.fill(1e3)  # changes nothing in the next sample

    @pytest.mark.filterwarnings("ignore:response matrix has rank")
    @pytest.mark.parametrize("shape", ["8x8-n2", "tall-6x4-n2"])
    def test_measurement_read_in_place(self, shape):
        """mpc_step writes u_prev and the warm start only after its last
        read of y, which on a tall plant comes after the solve: y as a
        view of either gives the bytes of a twin fed copies."""
        b, ctrl, twin = self._pair(shape)
        n_y = b.ss.n_y
        for y_k in np.random.default_rng(3).normal(0.0, 2.0, (5, n_y)):
            ctrl.step(y_k)
            twin.step(y_k)
        views = [lambda: ctrl.warm[:n_y]]
        if n_y == b.ss.n_u:
            views.append(lambda: ctrl.u_prev)
        for k in range(60):
            y = views[k % len(views)]()
            assert np.shares_memory(y, ctrl.warm) or np.shares_memory(y, ctrl.u_prev)
            want = twin.step(y.copy())
            assert ctrl.step(y).tobytes() == want.tobytes(), k
            assert _controller_state(ctrl) == _controller_state(twin), k
        assert np.any(ctrl.u_prev != 0.0)


def _call_forms(n_y):
    """name -> (args, kwargs) of a call of a controller's step, and whether
    the call sets u_prev to what the set recentring refuses first.  Each
    call takes a new timers dict, so a timed call's stages can be compared."""
    y = np.random.default_rng(11).normal(0.0, 1.0, n_y)
    nan, huge = y.copy(), np.full(n_y, 1e308)
    nan[n_y // 2] = np.nan
    return {
        "y": (lambda: ((y,), {}), False),
        "y, None": (lambda: ((y, None), {}), False),
        "y, timers=None": (lambda: ((y,), {"timers": None}), False),
        "y_k=y": (lambda: ((), {"y_k": y}), False),
        "y_k=y, timers=None": (lambda: ((), {"y_k": y, "timers": None}), False),
        "y, timers={}": (lambda: ((y,), {"timers": {}}), False),
        "y, {}": (lambda: ((y, {}), {}), False),
        "list": (lambda: ((list(y),), {}), False),
        "float32": (lambda: ((y.astype(np.float32),), {}), False),
        "strided": (lambda: ((np.repeat(y, 2)[::2],), {}), False),
        "column": (lambda: ((y.reshape(n_y, 1),), {}), False),
        "wrong length": (lambda: ((y[:-1],), {}), False),
        "nan": (lambda: ((nan,), {}), False),
        "all 1e308": (lambda: ((huge,), {}), False),
        "all 1e308, timers=None": (lambda: ((huge,), {"timers": None}), False),
        "u_prev refused": (lambda: ((y,), {}), True),
        "u_prev refused, timers={}": (lambda: ((y,), {"timers": {}}), True),
        "no measurement": (lambda: ((), {}), False),
        "unknown keyword": (lambda: ((y,), {"timer": None}), False),
        "nine arguments": (lambda: ((y, None, 1, 2, 3, 4, 5, 6, 7), {}), False),
    }


@pytest.mark.skipif(fgm.solve_kernel() != "compiled", reason="needs the compiled kernel")
@pytest.mark.parametrize("form", sorted(_call_forms(8)))
def test_step_dispatch_matches_the_class_method(form):
    """A modal controller's step is the kernel module's Step, which runs
    step(y) and step(y, timers=None) in C and forwards every
    other call to the class's step.  Each call form gives what the class
    method gives on a twin: the same bytes, state and timed stages, or the
    same error, with the state left as it was."""
    b = BUFFER_PLANTS["8x8-n2"]()
    ctrl, twin = b.mpc_controller(i_max=20), b.mpc_controller(i_max=20)
    assert type(ctrl.step).__name__ == "Step" and ctrl.step is ctrl._step
    for y_k in np.random.default_rng(12).normal(0.0, 1.0, (5, b.ss.n_y)):
        ctrl.step(y_k)
        twin.step(y_k)
    call, refused_u_prev = _call_forms(b.ss.n_y)[form]
    if refused_u_prev:
        ctrl.u_prev[0] = twin.u_prev[0] = b.plant.alpha[0] + 1e-6
    before = _controller_state(ctrl)
    (args, kwargs), (twin_args, twin_kwargs) = call(), call()
    try:
        want = sim_module.MpcController.step(twin, *twin_args, **twin_kwargs)
    except Exception as exc:  # the error itself is compared below
        with pytest.raises(type(exc)) as got:
            ctrl.step(*args, **kwargs)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        assert _controller_state(ctrl) == before
    else:
        assert ctrl.step(*args, **kwargs).tobytes() == want.tobytes()
    assert _controller_state(ctrl) == _controller_state(twin)
    stages = [sorted(timers) for timers in (*args, *kwargs.values()) if isinstance(timers, dict)]
    assert stages == [sorted(timers) for timers in (*twin_args, *twin_kwargs.values())
                      if isinstance(timers, dict)]


@pytest.mark.parametrize("kernel_off", [False, True], ids=["kernel", "kernel-off"])
@pytest.mark.parametrize("shape", ["8x8-n2", "6x6-n2-mixed"])
def test_only_a_modal_compiled_controller_steps_in_c(monkeypatch, shape, kernel_off):
    """The kernel's Step is the step of a modal controller; a dense one,
    or one without a compiler, keeps the class's method."""
    if kernel_off:
        monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
    ctrl = BUFFER_PLANTS[shape]().mpc_controller(i_max=20)
    if ctrl.observer_form == "modal":
        assert type(ctrl.step).__name__ == "Step"
    else:
        assert ctrl.step.__func__ is sim_module.MpcController.step
    assert ctrl.observer_form == ("modal" if shape == "8x8-n2" and not kernel_off
                                  and fgm.solve_kernel() == "compiled" else "dense")


# the modal path, and the dense one without and with the compiled kernel
OVERFLOW_CASES = {"8x8-n2": ("8x8-n2", False), "8x8-n2-kernel-off": ("8x8-n2", True),
                  "6x6-n2-mixed": ("6x6-n2-mixed", False)}


def _refused_overflow(monkeypatch, case, timed, estimates):
    """Steps a controller of OVERFLOW_CASES[case] five samples, asserts
    that an overflowing y is refused with the controller left as it was,
    and that the next sample runs as if it had not come.  y is 1.7e308 on
    every monitor, whose U^T y overflows, or with `estimates` 1e307 on
    monitor 0, whose U^T y is finite."""
    shape, kernel_off = OVERFLOW_CASES[case]
    if kernel_off:
        monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
    b = BUFFER_PLANTS[shape]()
    ctrl, clean = b.mpc_controller(i_max=20), b.mpc_controller(i_max=20)
    modal = shape == "8x8-n2" and not kernel_off and fgm.solve_kernel() == "compiled"
    assert ctrl.observer_form == ("modal" if modal else "dense")
    if estimates:
        y, largest = np.zeros(b.ss.n_y), r"1e\+307"
        y[0] = 1e307
        assert np.all(np.isfinite(b.basis.U.T @ y))
    else:
        y, largest = np.full(b.ss.n_y, 1.7e308), r"1.7e\+308"
    ys = np.random.default_rng(9).normal(0.0, 1.0, (6, b.ss.n_y))
    for y_k in ys[:5]:
        ctrl.step(y_k)
        clean.step(y_k)
    before = _controller_state(ctrl)
    refusal = rf"measurement overflows the observer update \(largest \|y\| {largest}\)"
    with pytest.raises(NumericalError, match=refusal):
        ctrl.step(y, timers={} if timed else None)
    assert _controller_state(ctrl) == before
    assert ctrl.step(ys[5]).tobytes() == clean.step(ys[5]).tobytes()


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflowing_measurement_refused_before_any_state_changes(monkeypatch, case, timed):
    """A finite measurement whose modal projection U^T y (modal path) or
    next linear term (dense path) overflows is refused at its own sample,
    with the controller left as it was."""
    _refused_overflow(monkeypatch, case, timed, estimates=False)


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_measurement_overflowing_the_estimates_refused(monkeypatch, case, timed):
    """A finite measurement whose U^T y is finite, but whose new estimates
    or the next linear term they give overflow, is refused at its own
    sample too: on the modal path after the solve, with the estimates,
    the linear term, u_prev, the warm start and the set array kept."""
    _refused_overflow(monkeypatch, case, timed, estimates=True)


class TestSimulateChecksTheControllerOutput:
    class _Fixed:
        def __init__(self, u):
            self.u = u

        def step(self, y):
            return self.u

    @pytest.mark.parametrize("u, shape", [(0.5, r"\(\)"), (np.zeros(3), r"\(3,\)"),
                                          (np.zeros(5), r"\(5,\)"), (np.zeros((4, 1)), r"\(4, 1\)")])
    def test_wrong_shape_names_the_step_and_the_shape(self, plant, u, shape):
        with pytest.raises(DimensionError, match=rf"simulation step 0 has shape {shape}, expected \(4,\)"):
            simulate(plant, self._Fixed(u), DisturbanceSpec(sigma=0.0), 5)

    def test_right_shape_runs(self, plant):
        tr = simulate(plant, self._Fixed(np.zeros(4)), DisturbanceSpec(sigma=0.0), 5)
        assert tr.u.shape == (5, 4)
