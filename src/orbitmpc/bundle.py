"""Design pipeline and the on-disk design bundle.

`design_controller` runs the whole offline chain for one plant and one
horizon: modal decomposition, weight design (saturated or baseline-gain
matched), DARE terminal cost, steady-state target map, observer gain,
condensed QP and the iteration-bound bookkeeping.  The result round-trips through a
bundle directory that the simulate, bench and check commands consume: one
`.npy` file per array (the plant's among them) and every scalar in
`meta.txt` as key=value text.  On a one-bandwidth plant the load rebuilds
the Hessian's modal form from the stored q_hat, r_hat and the square
[V, V_perp] in V.npy, with the function the design uses, and from it and
the stored gain the observer's and linear term's modal record.  `meta.txt` carries the bundle's schema
version and a fingerprint of the design inputs, so a bundle designed from
other inputs or in another layout is never mistaken for a fresh one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import warnings

import numpy as np

from . import design, fileio, qp
from .errors import ConfigError, DimensionError, NumericalError
from .model import ModalBasis, PlantConfig, StateSpace, build_state_space, modal_decompose
from .observer import (MODAL_RECORD_TOLERANCE, ModalRecord, ObserverState, modal_record, update_fast,
                       update_naive)
from .sim import ImcController, MpcController

# Version of the bundle layout, separate from fileio.SCHEMA_VERSION of the
# text outputs; design_fingerprint hashes it, so bench redesigns a bundle of
# another layout instead of loading it.
SCHEMA_VERSION = 6


@dataclasses.dataclass(frozen=True, eq=False)
class DesignBundle:
    """Everything the online controller consumes, for one horizon."""

    plant: PlantConfig
    ss: StateSpace
    basis: ModalBasis
    weights: design.Weights
    terminal: design.TerminalCost
    gain: design.PartitionedGain
    condensed: qp.CondensedQP
    epsilon: float
    delta: float
    delta_is_default: bool
    i_max_bound: int
    meta: dict

    @property
    def kappa(self) -> float:
        return self.condensed.lambda_max / self.condensed.lambda_min

    @functools.cached_property
    def modal_record(self) -> ModalRecord | None:
        """The online maps by mode, checked against the dense ones (see
        observer.modal_record), on a one-bandwidth plant; else None.  Built
        at the first read: load_bundle reads it, a designed bundle's first
        controller does."""
        if self.condensed.modal is None:
            return None
        return modal_record(self.ss, self.basis, self.gain, self.condensed)

    def mpc_controller(self, i_max: int, n_workers: int = 1) -> MpcController:
        return MpcController(
            ss=self.ss,
            condensed=self.condensed,
            gain=self.gain,
            alpha=self.plant.alpha,
            rho=self.plant.rho,
            i_max=i_max,
            n_workers=n_workers,
            modes=self.modal_record,
        )

    def imc_controller(self, bandwidth_hz: float, clip: bool) -> ImcController:
        lam = float(self.meta["imc_lambda"])
        k_imc = design.imc_gain(self.basis.S, lam)
        return ImcController(
            basis=self.basis,
            k_imc=k_imc,
            dt=self.plant.dt,
            bandwidth_hz=bandwidth_hz,
            clip=clip,
            alpha=self.plant.alpha,
            rho=self.plant.rho,
        )


def default_imc_lambda(basis: ModalBasis) -> float:
    """Regularization scaled to the largest mode: 0.1 * sigma_max^2.

    Strong enough that every mode's baseline gain stays below the
    supremum reachable by the matched LQR design.
    """
    return 0.1 * float(basis.S[0] ** 2)


def design_fingerprint(plant: PlantConfig, inputs: dict) -> str:
    """sha256 over the bundle's SCHEMA_VERSION and the canonical design
    inputs: every plant field (as float64 bytes with its shape) and every
    design keyword of `design_controller` (numbers at 17 significant
    digits, None as auto).
    """
    digest = hashlib.sha256(f"schema_version={SCHEMA_VERSION};".encode())
    for field in dataclasses.fields(plant):
        value = np.ascontiguousarray(getattr(plant, field.name), dtype="<f8")
        digest.update(f"{field.name}{value.shape}:".encode())
        digest.update(value.tobytes())
    for key in sorted(inputs):
        value = inputs[key]
        if value is None:
            value = "auto"
        elif not isinstance(value, str):
            value = fileio.format_float(value)
        digest.update(f"{key}={value};".encode())
    return digest.hexdigest()


def design_controller(
    plant: PlantConfig,
    horizon: int,
    weights_mode: str = "saturated",
    q_min: float | None = None,
    q_max: float | None = None,
    imc_lambda: float | None = None,
    sigma_v: float = 1.0,
    sigma_w: float = 1e-4,
    sigma_m: float = 1e-2,
    epsilon: float = 1e-3,
    delta: float | None = None,
) -> DesignBundle:
    """Run the full offline design chain for one plant and horizon."""
    fingerprint = design_fingerprint(plant, dict(
        horizon=horizon, weights_mode=weights_mode, q_min=q_min, q_max=q_max,
        imc_lambda=imc_lambda, sigma_v=sigma_v, sigma_w=sigma_w, sigma_m=sigma_m,
        epsilon=epsilon, delta=delta,
    ))
    ss = build_state_space(plant)
    basis = modal_decompose(ss.C)
    modal = design.one_bandwidth(ss)
    # representative scalar dynamics for the modal weight design; exact on
    # a plant of one bandwidth
    a = float(np.median(ss.A))
    b = 1.0 - a
    if imc_lambda is None:
        imc_lambda = default_imc_lambda(basis)
    if weights_mode == "saturated":
        if q_max is None:
            q_max = float(basis.S[0] ** 2)
        if q_min is None:
            q_min = q_max / 100.0
        w = design.design_weights_saturated(basis, q_min, q_max)
    elif weights_mode == "imc_matched":
        w = design.design_weights_imc_matched(basis, a, b, imc_lambda)
    else:
        raise ConfigError(f"unknown weights mode {weights_mode!r}")

    dare_stats: dict = {}
    terminal = design.solve_dare(ss.A, ss.B, w.Q, w.R_w, modes=(basis, w) if modal else None,
                                 stats=dare_stats)

    M_s = design.setpoint_matrix(ss, basis)
    kalman_stats: dict = {}
    gain = design.kalman_gain(ss, sigma_v, sigma_w, sigma_m, basis=basis, stats=kalman_stats)
    form = design.modal_hessian(ss, basis, w, horizon) if modal else None
    condensed = qp.build_condensed(ss, w, terminal, M_s, horizon, modal=form)

    cset0 = qp.ConstraintSet(alpha=plant.alpha, rho=plant.rho,
                             u_prev=np.zeros(plant.n_u), N=horizon)
    delta_is_default = delta is None
    if delta is None:
        delta = qp.default_delta(condensed.lambda_max, cset0)
    kappa = condensed.lambda_max / condensed.lambda_min
    i_max_bound = design.iteration_bound(
        design.IterationBoundParams(epsilon=epsilon, Delta=delta, kappa=kappa)
    )
    meta = {
        "schema_version": SCHEMA_VERSION,
        "design_fingerprint": fingerprint,
        "weights_mode": weights_mode,
        "horizon": horizon,
        "q_min": "" if q_min is None else q_min,
        "q_max": "" if q_max is None else q_max,
        "imc_lambda": imc_lambda,
        "sigma_v": sigma_v,
        "sigma_w": sigma_w,
        "sigma_m": sigma_m,
        "modal_a": a,
        "modal_b": b,
        "riccati_form": "modal" if modal else "dense",
        "delta_is_default": int(delta_is_default),
        "dare_doublings": dare_stats["doublings"],
        "dare_residual": dare_stats["residual"],
        "kalman_doublings": kalman_stats["doublings"],
        "kalman_residual": kalman_stats["residual"],
    }
    return DesignBundle(
        plant=plant,
        ss=ss,
        basis=basis,
        weights=w,
        terminal=terminal,
        gain=gain,
        condensed=condensed,
        epsilon=epsilon,
        delta=delta,
        delta_is_default=delta_is_default,
        i_max_bound=i_max_bound,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _gain_file(mu: int) -> str:
    return "L_zmu" if mu else "L_x"


def _arrays(b: DesignBundle) -> dict[str, np.ndarray]:
    """The bundle's arrays by file stem, the plant's first; the observer
    gain is stored as its measured block and L_d, from which the load
    rebuilds the rest."""
    return {
        "R": b.plant.R, "bandwidths": b.plant.bandwidths, "alpha": b.plant.alpha, "rho": b.plant.rho,
        "U": b.basis.U, "S": b.basis.S, "V": b.basis.V_full,
        "Q": b.weights.Q, "R_w": b.weights.R_w, "q_hat": b.weights.q_hat, "r_hat": b.weights.r_hat,
        "P": b.terminal.P,
        _gain_file(b.ss.mu): b.gain.measured, "L_d": b.gain.L_d,
        "J": b.condensed.J, "q_map_x0": b.condensed.q_map_x0, "q_map_d": b.condensed.q_map_d,
    }


def _array_shapes(n_y: int, n_u: int, mu: int, horizon: int) -> dict[str, tuple[int, ...]]:
    """The shape of every bundle array, from the plant's sizes and the horizon."""
    r, n = min(n_u, n_y), horizon * n_u
    return {
        "R": (n_y, n_u), "bandwidths": (n_u,), "alpha": (n_u,), "rho": (n_u,),
        "U": (n_y, r), "S": (r,), "V": (n_u, n_u),
        "Q": (n_u, n_u), "R_w": (n_u, n_u), "q_hat": (r,), "r_hat": (n_u,),
        "P": (n_u, n_u),
        _gain_file(mu): (n_u, n_y), "L_d": (n_y, n_y),
        "J": (n, n), "q_map_x0": (n, n_u), "q_map_d": (n, n_y),
    }


def _hessian_record(c: qp.CondensedQP) -> dict:
    """The Hessian form the compiled solve iterates on, and |K|, the modes
    whose block differs from the shared one (empty without a modal form)."""
    modes = c.factored_modes
    return {"hessian_form": c.hessian_form, "hessian_distinct_modes": "" if modes is None else modes}


def _scalars(b: DesignBundle) -> dict:
    """The plant's sizes and sampling, and the QP's bounds and form, that
    meta.txt holds after the design record; beta, kappa and the form are
    written for the reader, the load derives them."""
    p, c = b.plant, b.condensed
    return {
        "n_y": p.n_y, "n_u": p.n_u, "dt": p.dt, "mu": p.mu,
        "lambda_min": c.lambda_min, "lambda_max": c.lambda_max, "beta": c.beta, "kappa": b.kappa,
        "i_max_bound": b.i_max_bound, "epsilon": b.epsilon, "delta": b.delta,
        **_hessian_record(c),
    }


def _read_array(path, shape: tuple[int, ...]) -> np.ndarray:
    try:
        array = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read bundle array {path}: {exc}") from exc
    if array.dtype != np.float64:
        raise ConfigError(f"{path}: dtype {array.dtype}, expected float64")
    if array.shape != shape:
        raise DimensionError(f"{path}: shape {array.shape}, expected {shape}")
    return array


def save_bundle(bundle: DesignBundle, directory) -> None:
    """Write the bundle: one .npy file per array and every scalar in
    meta.txt.  A directory holding any entry the bundle would not write is
    refused before any write."""
    arrays = _arrays(bundle)
    if os.path.isdir(directory):
        foreign = sorted(set(os.listdir(directory)) - {"meta.txt"} - {f"{name}.npy" for name in arrays})
        if foreign:
            raise ConfigError(f"{directory} holds entries that are not part of this design bundle: "
                              f"{', '.join(foreign)}; write it to an empty directory")
    os.makedirs(directory, exist_ok=True)
    for name, array in arrays.items():
        np.save(os.path.join(directory, f"{name}.npy"), array, allow_pickle=False)
    fileio.write_kv(os.path.join(directory, "meta.txt"), {**bundle.meta, **_scalars(bundle)})


def load_bundle(directory, diagnose: bool = False) -> DesignBundle:
    """Read a bundle written by `save_bundle`, checking its schema version,
    the dtype and shape of every array, the plant (by building it), the
    Hessian (by building the condensed QP, which refuses an asymmetric J
    and, on a one-bandwidth plant, a J that disagrees with the modal form
    rebuilt from q_hat, r_hat and V), the Hessian bounds (by deriving beta
    from them) and the iteration bookkeeping: epsilon and delta must lie
    where the design accepts them, and i_max_bound is derived from them
    and kappa as the design derives it.  The recorded Hessian form and its
    number of distinct modes must be the ones derived on load.  On a
    one-bandwidth plant the modal record is built from the loaded arrays,
    which refuses a gain or linear-term map that is not diagonal by mode
    (see observer.modal_record); with `diagnose`, as the check command
    loads, such a bundle is returned for run_checks to report instead."""
    meta = fileio.read_kv(os.path.join(directory, "meta.txt"))
    version = meta.get("schema_version", "none")
    if version != str(SCHEMA_VERSION):
        raise ConfigError(
            f"{directory}: design bundle schema_version {version} is not {SCHEMA_VERSION}; "
            "design it again"
        )
    n_y, n_u, mu, horizon = (fileio.kv_get(meta, key, int) for key in ("n_y", "n_u", "mu", "horizon"))
    arrays = {name: _read_array(os.path.join(directory, f"{name}.npy"), shape)
              for name, shape in _array_shapes(n_y, n_u, mu, horizon).items()}
    lambda_min, lambda_max, epsilon, delta = (
        fileio.kv_get(meta, key, float) for key in ("lambda_min", "lambda_max", "epsilon", "delta"))
    stored_bound = fileio.kv_get(meta, "i_max_bound", int)
    r = min(n_y, n_u)
    basis = ModalBasis(U=arrays["U"], S=arrays["S"], V=arrays["V"][:, :r], V_perp=arrays["V"][:, r:])
    weights = design.Weights(q_hat=arrays["q_hat"], r_hat=arrays["r_hat"],
                             Q=arrays["Q"], R_w=arrays["R_w"])
    try:
        plant = PlantConfig(R=arrays["R"], bandwidths=arrays["bandwidths"],
                            dt=fileio.kv_get(meta, "dt", float), mu=mu,
                            alpha=arrays["alpha"], rho=arrays["rho"])
        ss = build_state_space(plant)
        form = design.modal_hessian(ss, basis, weights, horizon) if design.one_bandwidth(ss) else None
        condensed = qp.CondensedQP(
            J=arrays["J"],
            q_map_x0=arrays["q_map_x0"],
            q_map_d=arrays["q_map_d"],
            lambda_min=lambda_min,
            lambda_max=lambda_max,
            beta=qp.momentum(lambda_min, lambda_max),
            N=horizon,
            n_u=n_u,
            modal=form,
        )
        bound_params = design.IterationBoundParams(epsilon=epsilon, Delta=delta,
                                                   kappa=lambda_max / lambda_min)
    except (ConfigError, NumericalError) as exc:
        raise ConfigError(f"{directory}: {exc}") from exc
    i_max_bound = design.iteration_bound(bound_params)
    if stored_bound != i_max_bound:
        raise ConfigError(f"{directory}: meta.txt key 'i_max_bound' = {stored_bound} is not "
                          f"{i_max_bound}, the bound of its epsilon, delta and kappa")
    for key, value in _hessian_record(condensed).items():
        if meta.get(key) != str(value):
            raise ConfigError(f"{directory}: meta.txt key '{key}' = {meta.get(key)} is not "
                              f"{value}, the value of its Hessian")
    loaded = DesignBundle(
        plant=plant,
        ss=ss,
        basis=basis,
        weights=weights,
        terminal=design.TerminalCost(P=arrays["P"]),
        gain=design.PartitionedGain(arrays[_gain_file(mu)], arrays["L_d"], ss.A, mu),
        condensed=condensed,
        epsilon=epsilon,
        delta=delta,
        delta_is_default=bool(int(meta.get("delta_is_default", "0"))),
        i_max_bound=i_max_bound,
        meta=meta,
    )
    if not diagnose:
        try:
            loaded.modal_record  # built here, so a record that disagrees is refused on load
        except NumericalError as exc:
            raise ConfigError(f"{directory}: {exc}") from exc
    return loaded


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_checks(bundle: DesignBundle, probe_steps: int = 100, seed: int = 0) -> list[CheckResult]:
    """Bundle self-consistency: DARE residual, steady-state target,
    fast-vs-naive observer agreement, spectral-bound agreement, and the
    modal record's probe gap against the dense maps (not applicable on a
    mixed-bandwidth plant, which has none).

    The target check forms M_s from the stored modal basis and tests the
    least-squares condition C^T (C M_s d + d) = 0 against the plant's own
    C, scaled by the plant's own sigma_0 = ||C||_2.  It holds on every
    plant shape and fails for stored factors that are not the plant's.
    """
    results = []
    rng = np.random.default_rng(seed)
    ss = bundle.ss

    residual = design.dare_residual(ss.A, ss.B, bundle.terminal.P, bundle.weights.Q, bundle.weights.R_w)
    results.append(CheckResult("dare_residual", residual < 1e-8,
                               f"relative residual {residual:.3e} (tolerance 1e-08)"))

    with warnings.catch_warnings():  # design already said so for rank C < n_y
        warnings.simplefilter("ignore", UserWarning)
        M_s = design.setpoint_matrix(ss, bundle.basis)
    D = rng.standard_normal((ss.n_y, 100))
    X = M_s @ D
    sigma_0 = np.linalg.norm(ss.C, 2)
    normal = np.linalg.norm(ss.C.T @ (ss.C @ X + D), axis=0)
    scale = sigma_0 * (sigma_0 * np.linalg.norm(X, axis=0) + np.linalg.norm(D, axis=0))
    worst = float(np.max(normal / scale))
    results.append(CheckResult("setpoint_residual", worst < 1e-8,
                               f"max relative least-squares residual {worst:.3e} "
                               "over 100 draws (tolerance 1e-08)"))

    st_fast = ObserverState.initial(ss, bundle.gain)
    st_naive = ObserverState.initial(ss, bundle.gain)
    gap = 0.0
    for _ in range(probe_steps):
        u = rng.standard_normal(ss.n_u)
        y = rng.standard_normal(ss.n_y)
        st_fast = update_fast(st_fast, u, y)
        st_naive = update_naive(st_naive, u, y)
        gap = max(gap, float(np.max(np.abs(st_fast.x_hat - st_naive.x_hat))),
                  float(np.max(np.abs(st_fast.d_hat - st_naive.d_hat))))
    results.append(CheckResult("observer_fast_vs_naive", gap < 1e-10,
                               f"max deviation {gap:.3e} over {probe_steps} steps (tolerance 1e-10)"))

    lmin, lmax, _ = qp.spectral_bounds(bundle.condensed.J)
    drift = max(
        abs(lmin - bundle.condensed.lambda_min) / lmin,
        abs(lmax - bundle.condensed.lambda_max) / lmax,
    )
    results.append(CheckResult("spectral_bounds", drift < 1e-8,
                               f"relative drift {drift:.3e} (tolerance 1e-08)"))

    try:
        record = bundle.modal_record
    except NumericalError as exc:
        results.append(CheckResult("modal_record", False, str(exc)))
    else:
        if record is None:
            results.append(CheckResult("modal_record", True,
                                       "not applicable: the actuators do not share one bandwidth"))
        elif record.within_tolerance:
            results.append(CheckResult("modal_record", True,
                                       f"probe gap {record.probe_gap:.3e} against the dense maps "
                                       f"(tolerance {MODAL_RECORD_TOLERANCE:.0e})"))
        else:
            results.append(CheckResult("modal_record", True,
                                       f"probe gap {record.probe_gap:.3e} on q_map_d, above the "
                                       f"tolerance {MODAL_RECORD_TOLERANCE:.0e} but within its "
                                       "rounding through 1/sigma: the controller runs the dense maps"))
    return results
