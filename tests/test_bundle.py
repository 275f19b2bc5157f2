"""The design bundle on disk: a bit-exact round trip, and the checks a load
makes."""

import dataclasses
import os
import re

import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    DimensionError,
    PlantConfig,
    design_controller,
    load_bundle,
    save_bundle,
    synthetic_plant,
)
from orbitmpc.fileio import read_kv, write_kv

ARRAY_FILES = {"R", "bandwidths", "alpha", "rho",
               "U", "S", "V", "P", "Q", "R_w", "q_hat", "r_hat", "L_d",
               "J", "q_map_x0", "q_map_d"}


def wide_plant(mu):
    # n_y < n_u, so the modal factors are not square
    return synthetic_plant(5, 6, 50.0, seed=3, mu=mu)


def mixed_plant():
    """5x(3+3) plant with its own bandwidth, amplitude and slew limit per actuator."""
    plant = wide_plant(2)
    return dataclasses.replace(plant, bandwidths=[400.0, 440.0, 480.0, 1800.0, 2000.0, 2200.0],
                               alpha=[1.0, 0.8, 1.2, 0.5, 0.7, 0.9], rho=[0.1, 0.05, 0.2, 0.3, 0.08, 0.15])


def designed(mu, horizon):
    return design_controller(wide_plant(mu), horizon)


def arrays(b):
    return {
        "U": b.basis.U, "S": b.basis.S, "V": b.basis.V,
        "P": b.terminal.P, "Q": b.weights.Q, "R_w": b.weights.R_w,
        "q_hat": b.weights.q_hat, "r_hat": b.weights.r_hat,
        "measured": b.gain.measured, "L_d": b.gain.L_d,
        # every block of the gain, including the A^i propagation of `measured`
        "gain": b.gain.full,
        "J": b.condensed.J, "q_map_x0": b.condensed.q_map_x0, "q_map_d": b.condensed.q_map_d,
    }


def bounds(b):
    c = b.condensed
    return (c.lambda_min, c.lambda_max, c.beta, b.kappa, b.i_max_bound, b.epsilon, b.delta,
            b.delta_is_default)


@pytest.mark.parametrize("plant, horizon", [
    pytest.param(wide_plant(0), 1, id="0-1"),
    pytest.param(wide_plant(2), 2, id="2-2"),
    pytest.param(mixed_plant(), 2, id="mixed-2"),
])
def test_round_trip_is_bit_exact(tmp_path, plant, horizon):
    ours = design_controller(plant, horizon)
    save_bundle(ours, tmp_path)
    gain_file = "L_zmu" if plant.mu else "L_x"
    assert set(os.listdir(tmp_path)) == {"meta.txt"} | {f"{name}.npy" for name in ARRAY_FILES | {gain_file}}
    theirs = load_bundle(tmp_path)

    want, got = arrays(ours), arrays(theirs)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype == np.float64, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name
    for field in dataclasses.fields(PlantConfig):  # the response matrix and sampling too
        mine, yours = (np.asarray(getattr(b.plant, field.name)) for b in (ours, theirs))
        assert yours.dtype == mine.dtype and yours.shape == mine.shape, field.name
        assert yours.tobytes() == mine.tobytes(), field.name
    assert bounds(theirs) == bounds(ours)

    rng = np.random.default_rng(5)
    a, b = ours.mpc_controller(i_max=20), theirs.mpc_controller(i_max=20)
    for k in range(50):
        y = rng.standard_normal(ours.ss.n_y)
        assert a.step(y).tobytes() == b.step(y).tobytes(), f"step {k}"


@pytest.fixture
def saved(tmp_path):
    save_bundle(designed(2, 2), tmp_path)
    return tmp_path


def test_other_schema_version_rejected(saved):
    meta = read_kv(saved / "meta.txt")
    meta["schema_version"] = "1"  # a bundle of the CSV layout
    write_kv(saved / "meta.txt", meta)
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}.*schema_version 1\b"):
        load_bundle(saved)


def test_wrong_shape_names_the_file(saved):
    J = np.load(saved / "J.npy")
    np.save(saved / "J.npy", J[:-1])
    with pytest.raises(DimensionError, match=r"J\.npy.*shape"):
        load_bundle(saved)


def test_wrong_dtype_names_the_file(saved):
    P = np.load(saved / "P.npy")
    np.save(saved / "P.npy", P.astype(np.float32))
    with pytest.raises(ConfigError, match=r"P\.npy.*float32"):
        load_bundle(saved)



def test_zero_limit_names_the_actuator(saved):
    # the load builds the plant, so a limit no design could have used fails it
    alpha = np.load(saved / "alpha.npy")
    alpha[3] = 0.0
    np.save(saved / "alpha.npy", alpha)
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}.*alpha\[3\] = 0\.0"):
        load_bundle(saved)


def test_edited_size_names_the_response_matrix(saved):
    meta = read_kv(saved / "meta.txt")
    meta["n_y"] = "6"
    write_kv(saved / "meta.txt", meta)
    with pytest.raises(DimensionError, match=r"R\.npy: shape \(5, 6\), expected \(6, 6\)"):
        load_bundle(saved)


def edit_meta(directory, **values):
    meta = read_kv(directory / "meta.txt")
    meta.update(values)
    write_kv(directory / "meta.txt", meta)


def test_momentum_and_conditioning_are_derived_on_load(saved):
    # meta.txt writes beta and kappa for the reader; the load derives both
    # from the Hessian bounds, bit-exactly as the design did
    designed = load_bundle(saved)
    edit_meta(saved, beta="5", kappa="7")
    loaded = load_bundle(saved)
    assert loaded.condensed.beta == designed.condensed.beta != 5.0
    assert loaded.kappa == designed.kappa != 7.0


@pytest.mark.parametrize("key, value", [("epsilon", "nan"), ("delta", "-1"), ("i_max_bound", "-3")])
def test_edited_iteration_bookkeeping_names_the_key(saved, key, value):
    # epsilon and delta must lie where the design accepts them, and
    # i_max_bound is derived from them and kappa as the design derives it
    edit_meta(saved, **{key: value})
    with pytest.raises(ConfigError, match=rf"(?i){re.escape(str(saved))}: .*\b{key}\b"):
        load_bundle(saved)


def test_zero_delta_round_trips(tmp_path):
    # Delta = 0 is a valid design input, whose iteration bound is 0
    b = design_controller(wide_plant(2), 2, delta=0.0)
    assert (b.delta, b.i_max_bound) == (0.0, 0)
    save_bundle(b, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle")
    assert bounds(loaded) == bounds(b)


@pytest.mark.parametrize("key, value", [
    ("lambda_min", "-1"), ("lambda_min", "0"), ("lambda_min", "nan"),
    ("lambda_max", "0"), ("lambda_max", "inf"), ("lambda_max", "nan"),
])
def test_hessian_bound_out_of_range_names_the_key(saved, key, value):
    edit_meta(saved, **{key: value})
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}.*{key} = "):
        load_bundle(saved)


@pytest.mark.parametrize("horizon", [1, 2])
def test_null_space_completion_and_modal_form_round_trip(tmp_path, horizon):
    # V.npy holds the square [V, V_perp]; the load rebuilds the form from it,
    # q_hat and r_hat with the function the design uses
    ours = design_controller(synthetic_plant(20, 23, 1e3, seed=4), horizon)
    save_bundle(ours, tmp_path)
    assert np.load(tmp_path / "V.npy").shape == (23, 23)
    theirs = load_bundle(tmp_path)
    assert ours.basis.V_perp.shape == (23, 3)
    assert theirs.basis.V_perp.tobytes() == ours.basis.V_perp.tobytes()
    assert theirs.basis.V.tobytes() == ours.basis.V.tobytes()
    mine, yours = ours.condensed, theirs.condensed
    for name in ("blocks", "basis", "shared", "modes", "V_K", "deltas"):
        assert getattr(yours.modal, name).tobytes() == getattr(mine.modal, name).tobytes(), name
    assert yours.factors.tobytes() == mine.factors.tobytes()
    assert (yours.hessian_form, yours.factored_modes) == (mine.hessian_form, mine.factored_modes)
    meta = read_kv(tmp_path / "meta.txt")
    assert meta["hessian_form"] == "factored"
    assert meta["hessian_distinct_modes"] == str(mine.factored_modes)


def test_mixed_bandwidth_bundle_records_the_dense_form(tmp_path):
    save_bundle(design_controller(mixed_plant(), 2), tmp_path)
    meta = read_kv(tmp_path / "meta.txt")
    assert (meta["hessian_form"], meta["hessian_distinct_modes"]) == ("dense", "")
    assert load_bundle(tmp_path).condensed.modal is None


@pytest.mark.parametrize("name", ["q_hat", "r_hat"])
def test_edited_modal_weight_refused_naming_the_array(saved, name):
    weight = np.load(saved / f"{name}.npy")
    weight[1] *= 1.5
    np.save(saved / f"{name}.npy", weight)
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}: .*disagrees with .*\b{name}\b"):
        load_bundle(saved)


@pytest.mark.parametrize("key, value", [("hessian_form", "dense"), ("hessian_distinct_modes", "1")])
def test_edited_hessian_record_names_the_key(saved, key, value):
    meta = read_kv(saved / "meta.txt")
    assert (meta["hessian_form"], meta["hessian_distinct_modes"]) == ("factored", "4")
    edit_meta(saved, **{key: value})
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}: meta.txt key '{key}' = {value} is not"):
        load_bundle(saved)
