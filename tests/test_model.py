import os

import mpmath
import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    PlantConfig,
    build_state_space,
    load_plant_config,
    modal_decompose,
    save_plant_config,
    synthetic_plant,
)


def make_plant(a=100.0, dt=1e-3, mu=2, n_y=3, n_u=3, seed=0):
    rng = np.random.default_rng(seed)
    return PlantConfig(
        n_y=n_y, n_s=n_u, n_f=0,
        R_s=rng.standard_normal((n_y, n_u)), R_f=np.zeros((n_y, 0)),
        a_s=a, a_f=1.0, dt=dt, mu=mu, alpha=1.0, rho=0.1,
    )


class TestBuildStateSpace:
    def test_vanishing_exponent_gives_identity(self):
        # a*dt below the rounding threshold of exp: A = 1, B = 0 exactly
        ss = build_state_space(make_plant(a=1e-300, dt=1e-3))
        assert np.all(ss.A == 1.0)
        assert np.all(ss.B == 0.0)

    def test_large_exponent_limit(self):
        ss = build_state_space(make_plant(a=5e5, dt=1e-4))  # a*dt = 50
        assert np.all(ss.A < 1e-20)
        assert np.allclose(ss.B, 1.0, rtol=0, atol=1e-20)

    def test_medium_corrector_pole(self):
        # typical medium-bandwidth corrector: 2*pi*700 rad/s at 100 us sampling
        ss = build_state_space(make_plant(a=2 * np.pi * 700.0, dt=1e-4))
        expected = float(mpmath.exp(-2 * mpmath.pi * 700 * mpmath.mpf("1e-4")))
        assert ss.A[0] == pytest.approx(expected, rel=1e-15)

    def test_b_is_one_minus_a_bitwise(self, small_plant):
        ss = build_state_space(small_plant)
        assert np.array_equal(ss.B, 1.0 - ss.A)

    def test_c_is_response_matrix(self, small_plant):
        ss = build_state_space(small_plant)
        assert np.array_equal(ss.C, small_plant.R)

    def test_powers_match_repeated_multiplication(self, small_plant):
        ss = build_state_space(small_plant)
        acc = np.ones_like(ss.A)
        for i in range(1, 12):
            acc = acc * ss.A
            assert np.allclose(ss.a_power(i), acc, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("field,value", [("dt", 0.0), ("dt", -1e-3), ("mu", -1)])
    def test_bad_scalars_rejected(self, field, value):
        kwargs = dict(n_y=2, n_s=2, n_f=0, R_s=np.eye(2), R_f=np.zeros((2, 0)),
                      a_s=10.0, a_f=1.0, dt=1e-3, mu=1, alpha=1.0, rho=0.1)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            PlantConfig(**kwargs)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            make_plant(a=0.0)

    @pytest.mark.parametrize("field", ["dt", "a_s", "a_f", "alpha", "rho"])
    def test_nan_parameters_rejected(self, field):
        kwargs = dict(n_y=2, n_s=1, n_f=1, R_s=np.ones((2, 1)), R_f=np.ones((2, 1)),
                      a_s=10.0, a_f=100.0, dt=1e-3, mu=1, alpha=1.0, rho=0.1)
        kwargs[field] = np.nan
        with pytest.raises(ConfigError, match=field):
            PlantConfig(**kwargs)


class TestModalDecompose:
    def test_identity(self):
        basis = modal_decompose(np.eye(3))
        assert np.allclose(basis.S, 1.0, rtol=0, atol=1e-14)

    def test_diagonal(self):
        basis = modal_decompose(np.diag([3.0, 1.0]))
        assert np.allclose(basis.S, [3.0, 1.0])
        # U and V equal identity up to per-column sign
        assert np.allclose(np.abs(basis.U), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(basis.V), np.eye(2), atol=1e-14)

    def test_reconstruction_residual(self, rng):
        C = rng.standard_normal((6, 4))
        basis = modal_decompose(C)
        assert np.linalg.norm(basis.reconstruct() - C) < 1e-12 * np.linalg.norm(C)

    def test_orthonormal_factors_and_ordering(self, rng):
        C = rng.standard_normal((5, 7))
        basis = modal_decompose(C)
        assert np.allclose(basis.U.T @ basis.U, np.eye(basis.r), atol=1e-10)
        assert np.allclose(basis.V.T @ basis.V, np.eye(basis.r), atol=1e-10)
        assert np.all(np.diff(basis.S) <= 0)

    def test_idempotent_through_reconstruction(self, rng):
        C = rng.standard_normal((4, 4))
        first = modal_decompose(C)
        second = modal_decompose(first.reconstruct())
        assert np.linalg.norm(second.reconstruct() - C) < 1e-10 * np.linalg.norm(C)


class TestSyntheticPlant:
    def test_flat_spectrum(self):
        plant = synthetic_plant(5, 5, 1.0, seed=0)
        s = np.linalg.svd(plant.R, compute_uv=False)
        assert np.allclose(s, s[0], rtol=1e-12)

    def test_target_conditioning(self):
        plant = synthetic_plant(8, 8, 1e4, seed=1)
        s = np.linalg.svd(plant.R, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=1e-6)

    def test_deterministic(self):
        a = synthetic_plant(6, 4, 100.0, seed=9)
        b = synthetic_plant(6, 4, 100.0, seed=9)
        assert np.array_equal(a.R, b.R)

    def test_wide_plant_documented_behaviour(self):
        plant = synthetic_plant(3, 5, 10.0, seed=0)
        s = np.linalg.svd(plant.R, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-9)

    def test_rho_default_is_tenth_of_alpha(self):
        plant = synthetic_plant(4, 4, 10.0, seed=0, alpha=2.0)
        assert np.allclose(plant.rho, 0.2)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_plant(4, 4, 0.5, seed=0)

    def test_nan_kappa_rejected_by_name(self):
        with pytest.raises(ConfigError, match="kappa_target"):
            synthetic_plant(4, 4, float("nan"), seed=0)


class TestPlantConfigIO:
    def test_round_trip_exact(self, tmp_path, flat_plant):
        path = os.path.join(tmp_path, "plant.cfg")
        save_plant_config(flat_plant, path)
        loaded = load_plant_config(path)
        assert np.array_equal(loaded.R, flat_plant.R)
        assert np.array_equal(loaded.alpha, flat_plant.alpha)
        assert np.array_equal(loaded.rho, flat_plant.rho)
        assert loaded.dt == flat_plant.dt
        assert loaded.mu == flat_plant.mu
        assert np.array_equal(loaded.bandwidths, flat_plant.bandwidths)

    def test_nan_alpha_in_file_rejected(self, tmp_path, flat_plant):
        path = os.path.join(tmp_path, "plant.cfg")
        save_plant_config(flat_plant, path)
        with open(path) as fh:
            lines = ["alpha = nan\n" if line.startswith("alpha") else line for line in fh]
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ConfigError, match="alpha"):
            load_plant_config(path)

    def test_missing_matrix_file(self, tmp_path, flat_plant):
        path = os.path.join(tmp_path, "plant.cfg")
        save_plant_config(flat_plant, path)
        os.remove(os.path.join(tmp_path, "R.csv"))
        with pytest.raises(ConfigError, match="R.csv"):
            load_plant_config(path)
