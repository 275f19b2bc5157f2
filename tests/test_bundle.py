"""The design bundle on disk: a bit-exact round trip, and the checks a load
makes."""

import os
import re

import numpy as np
import pytest

from orbitmpc import (
    ConfigError,
    DimensionError,
    design_controller,
    load_bundle,
    save_bundle,
    synthetic_plant,
)
from orbitmpc.fileio import read_kv, write_kv

TEXT_FILES = {"plant.cfg", "R.csv", "meta.txt", "bounds.txt", "report.txt"}
ARRAY_FILES = {"U", "S", "V", "P", "Q", "R_w", "q_hat", "r_hat", "L_d",
               "J", "q_map_x0", "q_map_d"}


def designed(mu, horizon):
    # n_y < n_u, so the modal factors are not square
    return design_controller(synthetic_plant(5, 6, 50.0, seed=3, mu=mu), horizon)


def arrays(b):
    named = {
        "U": b.basis.U, "S": b.basis.S, "V": b.basis.V,
        "P": b.terminal.P, "Q": b.weights.Q, "R_w": b.weights.R_w,
        "q_hat": b.weights.q_hat, "r_hat": b.weights.r_hat,
        "L_x": b.gain.L_x, "L_d": b.gain.L_d,
        "J": b.condensed.J, "q_map_x0": b.condensed.q_map_x0, "q_map_d": b.condensed.q_map_d,
    }
    named.update({f"L_z{i + 1}": block for i, block in enumerate(b.gain.L_z)})
    return named


def bounds(b):
    c = b.condensed
    return (c.lambda_min, c.lambda_max, c.beta, b.kappa, b.i_max_bound, b.epsilon, b.delta,
            b.delta_is_default)


@pytest.mark.parametrize("mu, horizon", [(0, 1), (2, 2)])
def test_round_trip_is_bit_exact(tmp_path, mu, horizon):
    ours = designed(mu, horizon)
    save_bundle(ours, tmp_path)
    gain_file = "L_zmu" if mu else "L_x"
    assert set(os.listdir(tmp_path)) == TEXT_FILES | {f"{name}.npy" for name in ARRAY_FILES | {gain_file}}
    theirs = load_bundle(tmp_path)

    want, got = arrays(ours), arrays(theirs)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype == np.float64, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name
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

