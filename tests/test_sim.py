import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    DisturbanceSpec,
    NumericalError,
    build_state_space,
    design_controller,
    disturbance,
    ibm,
    ibm_at,
    simulate,
    synthetic_plant,
)
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
