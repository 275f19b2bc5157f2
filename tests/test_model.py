import dataclasses
import os
import re

import mpmath
import numpy as np
import pytest

from orbitmpc import fileio
from orbitmpc import (
    ConfigError,
    PlantConfig,
    build_state_space,
    design_controller,
    load_plant_config,
    modal_decompose,
    save_plant_config,
    synthetic_plant,
)


def make_plant(a=100.0, dt=1e-3, mu=2, n_y=3, n_u=3, seed=0):
    rng = np.random.default_rng(seed)
    return PlantConfig(R=rng.standard_normal((n_y, n_u)), bandwidths=a, dt=dt, mu=mu, alpha=1.0, rho=0.1)


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
        kwargs = dict(R=np.eye(2), bandwidths=10.0, dt=1e-3, mu=1, alpha=1.0, rho=0.1)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            PlantConfig(**kwargs)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            make_plant(a=0.0)

    @pytest.mark.parametrize("field", ["dt", "bandwidths", "alpha", "rho"])
    def test_nan_parameters_rejected(self, field):
        kwargs = dict(R=np.ones((2, 2)), bandwidths=[10.0, 100.0], dt=1e-3, mu=1, alpha=1.0, rho=0.1)
        kwargs[field] = np.nan
        with pytest.raises(ConfigError, match=field):
            PlantConfig(**kwargs)

    def test_actuator_without_any_finite_limit_rejected(self):
        # one infinite limit is a box or a slew bound; two leave the set unbounded
        with pytest.raises(ConfigError, match=r"alpha\[0\] = rho\[0\] = inf"):
            synthetic_plant(4, 4, 10.0, seed=7, alpha=np.inf, rho=np.inf)
        with pytest.raises(ConfigError, match=r"alpha\[2\] = rho\[2\] = inf"):
            PlantConfig(R=np.ones((2, 3)), bandwidths=10.0, dt=1e-3, mu=1,
                        alpha=[1.0, np.inf, np.inf], rho=[np.inf, 0.1, np.inf])


class TestPlantConfig:
    KWARGS = dict(bandwidths=10.0, dt=1e-3, mu=1, alpha=1.0, rho=0.1)

    def test_sizes_are_the_response_matrix_shape(self):
        plant = PlantConfig(R=np.ones((2, 3)), **self.KWARGS)
        assert (plant.n_y, plant.n_u) == (2, 3)
        assert np.array_equal(plant.bandwidths, [10.0, 10.0, 10.0])
        assert [f.name for f in dataclasses.fields(PlantConfig)] == \
            ["R", "bandwidths", "dt", "mu", "alpha", "rho"]

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (0, 2), (2, 2, 2)], ids=["1-D", "no-column", "no-row", "3-D"])
    def test_response_matrix_not_a_nonempty_matrix_rejected(self, shape):
        with pytest.raises(ConfigError, match=rf"non-empty 2-D array, got shape {re.escape(str(shape))}"):
            PlantConfig(R=np.ones(shape), **self.KWARGS)

    def test_wrong_length_bandwidths_rejected_by_name(self):
        with pytest.raises(ConfigError, match=r"bandwidths: expected scalar or 3 values, got shape \(2,\)"):
            PlantConfig(R=np.ones((2, 3)), **{**self.KWARGS, "bandwidths": [10.0, 20.0]})

    def test_non_finite_response_matrix_rejected(self):
        R = np.ones((2, 3))
        R[1, 2] = np.inf
        with pytest.raises(ConfigError, match="non-finite"):
            PlantConfig(R=R, **self.KWARGS)


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

    @pytest.mark.parametrize("n_y, n_u", [(0, 4), (4, 0), (4, -2)])
    def test_empty_plant_rejected(self, n_y, n_u):
        with pytest.raises(ConfigError, match=rf"need n_y >= 1 and n_u >= 1, got n_y = {n_y}, n_u = {n_u}"):
            synthetic_plant(n_y, n_u, 10.0, seed=0)

    def test_nan_kappa_rejected_by_name(self):
        with pytest.raises(ConfigError, match="kappa_target"):
            synthetic_plant(4, 4, float("nan"), seed=0)


TWO_BLOCKS = """
n_y = 5
n_s = 3
n_f = 2
dt = 0.001
mu = 2
a_s = 400,440,480
a_f = 1900
alpha = 1
rho = 0.1
R_path = R.csv
"""


def write_plant_file(tmp_path, text, R):
    fileio.write_matrix(tmp_path / "R.csv", R)
    (tmp_path / "plant.cfg").write_text(text)
    return str(tmp_path / "plant.cfg")


class TestPlantConfigIO:
    def test_slow_then_fast_block_in_column_order(self, tmp_path, rng):
        R = rng.standard_normal((5, 5))
        plant = load_plant_config(write_plant_file(tmp_path, TWO_BLOCKS, R))
        assert plant.bandwidths.tolist() == [400.0, 440.0, 480.0, 1900.0, 1900.0]
        assert np.array_equal(plant.R, R)
        # two bandwidths: neither Riccati equation decouples by mode
        assert design_controller(plant, 1).meta["riccati_form"] == "dense"

    # the counts still add up to R's five columns
    @pytest.mark.parametrize("sizes, message", [
        pytest.param("n_s = 6\nn_f = -1", "n_f must be >= 0, got -1", id="n_f"),
        pytest.param("n_s = -2\nn_f = 7", "n_s must be >= 0, got -2", id="n_s"),
    ])
    def test_negative_block_size_rejected_by_key(self, tmp_path, rng, sizes, message):
        text = TWO_BLOCKS.replace("n_s = 3\nn_f = 2", sizes)
        with pytest.raises(ConfigError, match=message):
            load_plant_config(write_plant_file(tmp_path, text, rng.standard_normal((5, 5))))

    @pytest.mark.parametrize("line, message", [
        pytest.param("a_s = 400,440", "a_s: expected scalar or 3 values", id="a_s"),
        pytest.param("a_f = 1900,2000,2100", "a_f: expected scalar or 2 values", id="a_f"),
    ])
    def test_block_bandwidths_of_wrong_length_rejected_by_key(self, tmp_path, rng, line, message):
        key = line.split(" = ")[0]
        text = "\n".join(line if row.startswith(key) else row for row in TWO_BLOCKS.splitlines())
        with pytest.raises(ConfigError, match=message):
            load_plant_config(write_plant_file(tmp_path, text, rng.standard_normal((5, 5))))

    @pytest.mark.parametrize("line, message", [
        pytest.param("rhoo = 5", r"unknown config key 'rhoo' \(did you mean 'rho'\?\)", id="misspelled"),
        pytest.param("horizon = 2", "unknown config key 'horizon'", id="run-config-key"),
    ])
    def test_unknown_key_refused_naming_the_closest(self, tmp_path, rng, line, message):
        path = write_plant_file(tmp_path, TWO_BLOCKS + line + "\n", rng.standard_normal((5, 5)))
        with pytest.raises(ConfigError, match=f"plant.cfg: {message}"):
            load_plant_config(path)

    @pytest.mark.parametrize("sizes, message", [
        pytest.param("n_s = 5\nn_f = 0", r"a_f given for an empty block \(n_f = 0\)", id="a_f"),
        pytest.param("n_s = 0\nn_f = 5", r"a_s given for an empty block \(n_s = 0\)", id="a_s"),
    ])
    def test_bandwidths_of_an_empty_block_refused(self, tmp_path, rng, sizes, message):
        text = TWO_BLOCKS.replace("n_s = 3\nn_f = 2", sizes)
        with pytest.raises(ConfigError, match=message):
            load_plant_config(write_plant_file(tmp_path, text, rng.standard_normal((5, 5))))

    def test_save_writes_every_actuator_in_the_slow_block(self, tmp_path, mixed_plant):
        path = str(tmp_path / "plant.cfg")
        save_plant_config(mixed_plant, path)
        pairs = fileio.read_kv(path)
        assert (pairs["n_s"], pairs["n_f"]) == ("5", "0")
        assert "a_f" not in pairs
        loaded = load_plant_config(path)
        for field in dataclasses.fields(PlantConfig):
            mine, yours = (np.asarray(getattr(p, field.name)) for p in (mixed_plant, loaded))
            assert yours.tobytes() == mine.tobytes(), field.name

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_response_entry_names_the_line(self, tmp_path, flat_plant, token):
        path = os.path.join(tmp_path, "plant.cfg")
        save_plant_config(flat_plant, path)
        r_path = tmp_path / "R.csv"
        lines = r_path.read_text().splitlines(keepends=True)
        assert lines[0].startswith("#")
        row = lines[3].split(",")
        row[4] = token
        lines[3] = ",".join(row)
        r_path.write_text("".join(lines))
        entry = re.escape(str(float(token)))
        with pytest.raises(ConfigError, match=rf"R\.csv:4: non-finite entry {entry} in column 5"):
            load_plant_config(path)

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
