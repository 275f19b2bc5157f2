"""The design bundle on disk: a bit-exact round trip, and the checks a load
makes."""

import dataclasses
import os
import re
import warnings

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
from orbitmpc.bundle import ARRAY_FILE, META_KEYS, _array_shapes
from orbitmpc.fileio import read_kv, write_kv
from orbitmpc.observer import MODAL_RECORD_TOLERANCE, Q_MAP_D_ROUNDING

from bundle_arrays import bundle_array


def wide_plant(mu):
    # n_y < n_u, so the modal factors are not square
    return synthetic_plant(5, 6, 50.0, seed=3, mu=mu)


def tall_plant():
    # n_y > n_u: the target is least squares, and the observer carries k_0
    return synthetic_plant(6, 4, 50.0, seed=3, mu=2)


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


@pytest.mark.parametrize("plant, horizon, weights", [
    pytest.param(wide_plant(0), 1, "saturated", id="0-1"),
    pytest.param(wide_plant(2), 2, "saturated", id="2-2"),
    pytest.param(mixed_plant(), 2, "saturated", id="mixed-2"),
    pytest.param(tall_plant(), 1, "saturated", id="tall-1"),
    pytest.param(tall_plant(), 2, "saturated", id="tall-2"),
    pytest.param(wide_plant(2), 1, "imc_matched", id="imc_matched-1"),
    pytest.param(wide_plant(2), 2, "imc_matched", id="imc_matched-2"),
])
def test_round_trip_is_bit_exact(tmp_path, plant, horizon, weights):
    # J, q_map_x0, q_map_d and the scalars derived from them are not stored:
    # the load rebuilds them, and without a warning on a tall plant
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # tall: least-squares target
        ours = design_controller(plant, horizon, weights_mode=weights)
    save_bundle(ours, tmp_path)
    assert set(os.listdir(tmp_path)) == {"meta.txt", ARRAY_FILE}
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
    # one value short and one value long: the 5x6 plant's arrays are 288 values
    vector = np.load(saved / ARRAY_FILE)
    assert vector.shape == (288,)
    for edited in (vector[:-1], np.append(vector, 0.0)):
        np.save(saved / ARRAY_FILE, edited)
        refusal = rf"arrays\.npy: shape \({edited.size},\), expected \(288,\), .*n_y = 5 and n_u = 6$"
        with pytest.raises(DimensionError, match=refusal):
            load_bundle(saved)


def test_wrong_dtype_names_the_file(saved):
    vector = np.load(saved / ARRAY_FILE)
    np.save(saved / ARRAY_FILE, vector.astype(np.float32))
    with pytest.raises(ConfigError, match=r"arrays\.npy: dtype float32, expected float64"):
        load_bundle(saved)


@pytest.mark.filterwarnings("ignore:response matrix has rank")
@pytest.mark.parametrize("plant", [pytest.param(wide_plant(0), id="wide-mu0"),
                                   pytest.param(synthetic_plant(6, 4, 50.0, seed=3, mu=3), id="tall-mu3")])
def test_array_file_layout(tmp_path, plant):
    # arrays.npy is the file format: these arrays raveled, in this order,
    # with these shapes; the measured gain block (L_x at mu = 0) has one name
    b = design_controller(plant, 2)
    save_bundle(b, tmp_path)
    n_y, n_u = plant.n_y, plant.n_u
    r = min(n_y, n_u)
    layout = [
        ("R", (n_y, n_u), b.plant.R), ("bandwidths", (n_u,), b.plant.bandwidths),
        ("alpha", (n_u,), b.plant.alpha), ("rho", (n_u,), b.plant.rho),
        ("U", (n_y, r), b.basis.U), ("S", (r,), b.basis.S), ("V", (n_u, n_u), b.basis.V_full),
        ("Q", (n_u, n_u), b.weights.Q), ("R_w", (n_u, n_u), b.weights.R_w),
        ("q_hat", (r,), b.weights.q_hat), ("r_hat", (n_u,), b.weights.r_hat),
        ("P", (n_u, n_u), b.terminal.P), ("measured", (n_u, n_y), b.gain.measured),
        ("L_d", (n_y, n_y), b.gain.L_d),
    ]
    assert list(_array_shapes(n_y, n_u).items()) == [(name, shape) for name, shape, _ in layout]
    vector = np.load(tmp_path / ARRAY_FILE)
    assert vector.dtype == np.float64
    assert vector.tobytes() == np.concatenate([np.ravel(array) for _, _, array in layout]).tobytes()


def test_zero_limit_names_the_actuator(saved):
    # the load builds the plant, so a limit no design could have used fails it
    alpha = bundle_array(saved, "alpha")
    alpha[3] = 0.0
    bundle_array(saved, "alpha", alpha)
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}.*alpha\[3\] = 0\.0"):
        load_bundle(saved)


def test_edited_size_names_the_array_file(saved):
    # n_y = 6 on the 5x6 plant's 288 values, where 6x6 arrays are 324
    meta = read_kv(saved / "meta.txt")
    meta["n_y"] = "6"
    write_kv(saved / "meta.txt", meta)
    refusal = r"arrays\.npy: shape \(288,\), expected \(324,\), the bundle arrays of n_y = 6 and n_u = 6$"
    with pytest.raises(DimensionError, match=refusal):
        load_bundle(saved)


def edit_meta(directory, **values):
    meta = read_kv(directory / "meta.txt")
    meta.update(values)
    write_kv(directory / "meta.txt", meta)


@pytest.mark.parametrize("key", ["beta", "kappa"])
def test_momentum_and_conditioning_are_derived_on_load(saved, key):
    # the load derives beta and kappa from the rebuilt Hessian, bit-exactly
    # as the design did, and refuses a meta.txt that records other values
    derived = read_kv(saved / "meta.txt")[key]
    edit_meta(saved, **{key: "5"})
    refusal = (rf"{re.escape(str(saved))}: meta.txt key '{key}' = 5 is not {re.escape(derived)}, "
               r"derived from the Hessian's modal blocks, built from q_hat, r_hat and the plant$")
    with pytest.raises(ConfigError, match=refusal):
        load_bundle(saved)


@pytest.mark.parametrize("key, value", [("epsilon", "nan"), ("delta", "-1"), ("i_max_bound", "-3")])
def test_edited_iteration_bookkeeping_names_the_key(saved, key, value):
    # epsilon and delta must lie where the design accepts them, and
    # i_max_bound is derived from them and kappa as the design derives it
    edit_meta(saved, **{key: value})
    with pytest.raises(ConfigError, match=rf"(?i){re.escape(str(saved))}: .*\b{key}\b"):
        load_bundle(saved)


@pytest.mark.parametrize("plant, horizon", [
    pytest.param(wide_plant(2), 2, id="wide-2"),
    pytest.param(mixed_plant(), 1, id="mixed-1"),
    pytest.param(tall_plant(), 2, id="tall-2"),
])
def test_meta_txt_holds_exactly_the_known_keys(tmp_path, plant, horizon):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # tall: least-squares target
        save_bundle(design_controller(plant, horizon), tmp_path)
    assert sorted(read_kv(tmp_path / "meta.txt")) == sorted(META_KEYS)


def test_unknown_meta_key_refused_naming_the_nearest(tmp_path):
    # a misspelled key is refused, not ignored
    save_bundle(design_controller(synthetic_plant(4, 4, 50.0, seed=5, mu=3), horizon=1), tmp_path)
    with open(tmp_path / "meta.txt", "a") as meta:
        meta.write("epsilonn = 5\n")
    refusal = (rf"{re.escape(str(tmp_path / 'meta.txt'))}: unknown config key 'epsilonn' "
               r"\(did you mean 'epsilon'\?\)")
    with pytest.raises(ConfigError, match=refusal):
        load_bundle(tmp_path)


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
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}: meta.txt key '{key}' = {value} is not "):
        load_bundle(saved)


@pytest.mark.parametrize("horizon", [1, 2])
def test_null_space_completion_and_modal_form_round_trip(tmp_path, horizon):
    # V holds the square [V, V_perp]; the load rebuilds the form from it,
    # q_hat and r_hat with the function the design uses
    ours = design_controller(synthetic_plant(20, 23, 1e3, seed=4), horizon)
    save_bundle(ours, tmp_path)
    assert bundle_array(tmp_path, "V").shape == (23, 23)
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
    weight = bundle_array(saved, name)
    weight[1] *= 1.5
    bundle_array(saved, name, weight)
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}: .*disagrees with .*\b{name}\b"):
        load_bundle(saved)


@pytest.mark.parametrize("key, value", [("hessian_form", "dense"), ("hessian_distinct_modes", "1")])
def test_edited_hessian_record_names_the_key(saved, key, value):
    meta = read_kv(saved / "meta.txt")
    assert (meta["hessian_form"], meta["hessian_distinct_modes"]) == ("factored", "4")
    edit_meta(saved, **{key: value})
    with pytest.raises(ConfigError, match=rf"{re.escape(str(saved))}: meta.txt key '{key}' = {value} is not"):
        load_bundle(saved)


@pytest.mark.parametrize("stored, name", [pytest.param("L_d", "L_d", id="L_d"),
                                          pytest.param("measured", "L_zmu", id="L_zmu")])
def test_edited_online_map_refused_naming_it(saved, stored, name):
    # one off-diagonal entry added, 1e-6 of the map's largest: the map is no
    # longer diagonal by mode, and its probe product shows it
    array = bundle_array(saved, stored)
    array[0, 1] += 1e-6 * np.max(np.abs(array))
    bundle_array(saved, stored, array)
    refusal = rf"{re.escape(str(saved))}: {name} disagrees with its modal record"
    with pytest.raises(ConfigError, match=refusal):
        load_bundle(saved)
    assert load_bundle(saved, diagnose=True).condensed.modal is not None


@pytest.mark.parametrize("name", ["P", "Q", "R_w"])
def test_edited_hessian_array_refused_naming_it(saved, name):
    # J and both linear-term maps are rebuilt from these on load; an edit
    # moves J off the modal blocks, which the check command's load refuses too
    array = bundle_array(saved, name)
    array[0, 1] += 1e-6 * np.max(np.abs(array))
    bundle_array(saved, name, array)
    refusal = rf"{re.escape(str(saved))}: Hessian J disagrees with its modal blocks: .*\b{name}\b"
    for diagnose in (False, True):
        with pytest.raises(ConfigError, match=refusal):
            load_bundle(saved, diagnose=diagnose)


def test_edited_weight_on_a_mixed_plant_refused_naming_the_bound(tmp_path):
    # without a modal form the bounds are J's eigensolve, which the load
    # repeats on the J it rebuilds
    save_bundle(design_controller(mixed_plant(), 2), tmp_path)
    R_w = bundle_array(tmp_path, "R_w")
    R_w[0, 1] += 1e-6 * np.max(np.abs(R_w))
    bundle_array(tmp_path, "R_w", R_w)
    with pytest.raises(ConfigError, match=r"meta.txt key 'lambda_min' = \S+ is not \S+, derived from "
                                          r"the Hessian J, built from P, Q, R_w and the plant$"):
        load_bundle(tmp_path)


@pytest.mark.filterwarnings("ignore:response matrix has rank")
@pytest.mark.parametrize("n_y, n_u, mu, horizon", [(5, 6, 2, 2), (6, 4, 0, 1), (6, 4, 3, 2), (4, 4, 1, 1)])
def test_modal_record_round_trips(tmp_path, n_y, n_u, mu, horizon):
    ours = design_controller(synthetic_plant(n_y, n_u, 50.0, seed=3, mu=mu), horizon)
    save_bundle(ours, tmp_path)
    mine, yours = ours.modal_record, load_bundle(tmp_path).modal_record
    assert mine.packed.tobytes() == yours.packed.tobytes()
    assert mine.probe_gap == yours.probe_gap <= 1e-12
    # [V, V_perp] twice and U, their rows padded to a multiple of 8, then sigma, k_z, k_d,
    # alpha, beta, powers, a, b, k_0, zeros
    r, pad = min(n_y, n_u), lambda n: -(-n // 8) * 8
    assert mine.packed.shape == (2 * n_u * pad(n_u) + n_y * pad(r) + 3 * r + horizon * (n_u + r)
                                 + mu + 4 + n_u,)


def test_mixed_bandwidth_bundle_has_no_modal_record(tmp_path):
    save_bundle(design_controller(mixed_plant(), 2), tmp_path)
    loaded = load_bundle(tmp_path)
    assert loaded.modal_record is None
    assert loaded.mpc_controller(i_max=5).observer_form == "dense"


def ill_conditioned(horizon):
    """A matched-weight design at kappa(C) = 1e8, whose dense q_map_d, formed
    through 1/sigma, rounds above MODAL_RECORD_TOLERANCE."""
    return design_controller(synthetic_plant(8, 8, 1e8, seed=0, mu=2), horizon,
                             weights_mode="imc_matched")


@pytest.mark.parametrize("horizon", [1, 2])
def test_ill_conditioned_design_runs_the_dense_maps(tmp_path, horizon):
    ours = ill_conditioned(horizon)
    record, S = ours.modal_record, ours.basis.S
    rounding = Q_MAP_D_ROUNDING * np.finfo(float).eps * S[0] / S[-1]
    assert MODAL_RECORD_TOLERANCE < record.probe_gap <= rounding
    assert not record.within_tolerance
    assert ours.mpc_controller(i_max=5).observer_form == "dense"
    save_bundle(ours, tmp_path)
    loaded = load_bundle(tmp_path)
    assert loaded.modal_record.probe_gap == record.probe_gap
    assert loaded.mpc_controller(i_max=5).observer_form == "dense"


@pytest.mark.parametrize("name, refusal", [
    pytest.param("L_d", "L_d disagrees with its modal record", id="L_d"),
    pytest.param("measured", "L_zmu disagrees with its modal record", id="L_zmu"),
    *(pytest.param(name, rf"disagrees with its modal blocks: .*\b{name}\b", id=name) for name in ("P", "Q", "R_w")),
])
def test_ill_conditioned_design_with_an_edited_map_refused(tmp_path, name, refusal):
    # q_map_d's rounding allowance at kappa(C) = 1e8 (1.4e-6) covers no
    # edit: the maps are rebuilt from P, Q, R_w and the basis, and an edit
    # of 1e-6 of the largest entry shows against the modal forms
    save_bundle(ill_conditioned(2), tmp_path)
    array = bundle_array(tmp_path, name)
    array[0, 1] += 1e-6 * np.max(np.abs(array))
    bundle_array(tmp_path, name, array)
    with pytest.raises(ConfigError, match=refusal):
        load_bundle(tmp_path)
