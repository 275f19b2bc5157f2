"""Design pipeline and the on-disk design bundle.

`design_controller` runs the whole offline chain for one plant and one
horizon: modal decomposition, weight design (saturated or baseline-gain
matched), DARE terminal cost, observer gain, and then `_assemble`: the
steady-state target map, condensed QP and iteration-bound bookkeeping.
The result round-trips through a bundle directory that the simulate, bench
and check commands consume: one `.npy` file per array the design solves
for (the plant's among them) and every scalar in `meta.txt` as key=value
text.  The load repeats `_assemble` on the arrays it reads, so the
condensed QP is stored nowhere, and refuses recorded scalars it derives
otherwise.  On a one-bandwidth plant it also builds the observer's and
linear term's modal record.  `meta.txt` carries the bundle's schema version
and a fingerprint of the design inputs, so a bundle designed from other
inputs or in another layout is never mistaken for a fresh one.
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
SCHEMA_VERSION = 7

# A dense eigensolve of the n x n Hessian finds lambda_min only to within a
# few eps lambda_max (up to 5.9 eps lambda_max, and 1.05 n eps lambda_max
# at n = 4, over some 2000 synthetic designs with n = 1 to 82), so the
# check holds the stored lambda_min to this many n eps lambda_max.  A
# drift relative to lambda_min itself grows with kappa(J) (3e-8 on an
# 8 x 8 matched-weight design at kappa(C) = 1e8) and failed bundles the
# design had just written.
LAMBDA_MIN_ROUNDING = 4

# meta.txt's keys, as save_bundle writes them: the design record
# (DesignBundle.meta), then _scalars.  The load refuses any other.
META_KEYS = ("schema_version", "design_fingerprint", "weights_mode", "horizon", "q_min", "q_max",
             "imc_lambda", "sigma_v", "sigma_w", "sigma_m", "modal_a", "modal_b", "riccati_form",
             "delta_is_default", "dare_doublings", "dare_residual", "kalman_doublings",
             "kalman_residual",
             "n_y", "n_u", "dt", "mu", "lambda_min", "lambda_max", "beta", "kappa", "i_max_bound",
             "epsilon", "delta", "hessian_form", "hessian_distinct_modes")


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

    def mpc_controller(self, i_max: int) -> MpcController:
        return MpcController(
            ss=self.ss,
            condensed=self.condensed,
            gain=self.gain,
            alpha=self.plant.alpha,
            rho=self.plant.rho,
            i_max=i_max,
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
    if basis.rank < plant.n_y:
        warnings.warn(f"response matrix has rank {basis.rank} < n_y = {plant.n_y}: the steady-state "
                      "target takes least-squares semantics", stacklevel=2)
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
    kalman_stats: dict = {}
    gain = design.kalman_gain(ss, sigma_v, sigma_w, sigma_m, basis=basis, stats=kalman_stats)
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
        "delta_is_default": int(delta is None),
        "dare_doublings": dare_stats["doublings"],
        "dare_residual": dare_stats["residual"],
        "kalman_doublings": kalman_stats["doublings"],
        "kalman_residual": kalman_stats["residual"],
    }
    return _assemble(plant, ss, basis, w, terminal, gain, horizon, epsilon, delta, meta)


def _assemble(plant: PlantConfig, ss: StateSpace, basis: ModalBasis, weights: design.Weights,
              terminal: design.TerminalCost, gain: design.PartitionedGain, horizon: int,
              epsilon: float, delta: float | None, meta: dict) -> DesignBundle:
    """The design's last step, which load_bundle repeats on the arrays it
    reads: the steady-state target map, the Hessian's modal form on a
    one-bandwidth plant, the condensed QP with its spectral bounds, the
    default delta where `delta` is None, and the iteration bound."""
    form = design.modal_hessian(ss, basis, weights, horizon) if design.one_bandwidth(ss) else None
    condensed = qp.build_condensed(ss, weights, terminal, design.setpoint_matrix(basis), horizon,
                                   modal=form)
    delta_is_default = delta is None
    if delta_is_default:
        cset0 = qp.ConstraintSet(alpha=plant.alpha, rho=plant.rho, u_prev=np.zeros(plant.n_u), N=horizon)
        delta = qp.default_delta(condensed.lambda_max, cset0)
    i_max_bound = design.iteration_bound(design.IterationBoundParams(
        epsilon=epsilon, Delta=delta, kappa=condensed.lambda_max / condensed.lambda_min))
    return DesignBundle(
        plant=plant,
        ss=ss,
        basis=basis,
        weights=weights,
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
    }


def _array_shapes(n_y: int, n_u: int, mu: int) -> dict[str, tuple[int, ...]]:
    """The shape of every bundle array, from the plant's sizes."""
    r = min(n_u, n_y)
    return {
        "R": (n_y, n_u), "bandwidths": (n_u,), "alpha": (n_u,), "rho": (n_u,),
        "U": (n_y, r), "S": (r,), "V": (n_u, n_u),
        "Q": (n_u, n_u), "R_w": (n_u, n_u), "q_hat": (r,), "r_hat": (n_u,),
        "P": (n_u, n_u),
        _gain_file(mu): (n_u, n_y), "L_d": (n_y, n_y),
    }


def _scalars(b: DesignBundle) -> dict:
    """The plant's sizes and sampling, and the QP's bounds, iteration
    bookkeeping and Hessian form (see CondensedQP.hessian_form and
    factored_modes), that meta.txt holds after the design record."""
    p, c = b.plant, b.condensed
    modes = c.factored_modes
    return {
        "n_y": p.n_y, "n_u": p.n_u, "dt": p.dt, "mu": p.mu,
        "lambda_min": c.lambda_min, "lambda_max": c.lambda_max, "beta": c.beta, "kappa": b.kappa,
        "i_max_bound": b.i_max_bound, "epsilon": b.epsilon, "delta": b.delta,
        "hessian_form": c.hessian_form, "hessian_distinct_modes": "" if modes is None else modes,
    }


def _derived_from(b: DesignBundle) -> dict[str, str]:
    """What each scalar of _scalars that the load derives comes from, by key."""
    if b.condensed.modal is None:  # Q enters J from the second stage on
        hessian = f"the Hessian J, built from P, {'Q, ' if b.condensed.N > 1 else ''}R_w and the plant"
    else:
        hessian = "the Hessian's modal blocks, built from q_hat, r_hat and the plant"
    sources = dict.fromkeys(["lambda_min", "lambda_max", "beta", "kappa", "hessian_form",
                             "hessian_distinct_modes"], hessian)
    if b.delta_is_default:
        sources["delta"] = "lambda_max and the plant's alpha and rho"
    return {**sources, "i_max_bound": "epsilon, delta and kappa"}


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
    that meta.txt holds no key outside META_KEYS, and the dtype and shape
    of every array, and rebuild the rest with the
    design's own last step (_assemble): the plant (a plant that a plant
    config would refuse fails the load), the target map, the condensed QP
    (on a one-bandwidth plant its J, from P, Q and R_w, must agree with the
    modal form rebuilt from q_hat, r_hat and V), the Hessian bounds, the
    default delta and the iteration bound.  epsilon and a given delta must
    lie where the design accepts them.  Every scalar the load derives must
    be the one meta.txt records (_derived_from); another is refused, naming
    the key and what it is derived from.  On a one-bandwidth plant the
    modal record is built from the loaded arrays, which refuses a gain that
    is not diagonal by mode (see observer.modal_record); with `diagnose`,
    as the check command loads, such a bundle is returned for run_checks to
    report instead."""
    meta_path = os.path.join(directory, "meta.txt")
    meta = fileio.read_kv(meta_path)
    version = meta.get("schema_version", "none")
    if version != str(SCHEMA_VERSION):
        raise ConfigError(
            f"{directory}: design bundle schema_version {version} is not {SCHEMA_VERSION}; "
            "design it again"
        )
    fileio.reject_unknown_keys(meta_path, meta, META_KEYS)
    n_y, n_u, mu, horizon = (fileio.kv_get(meta, key, int) for key in ("n_y", "n_u", "mu", "horizon"))
    arrays = {name: _read_array(os.path.join(directory, f"{name}.npy"), shape)
              for name, shape in _array_shapes(n_y, n_u, mu).items()}
    epsilon = fileio.kv_get(meta, "epsilon", float)
    delta = None if fileio.kv_get(meta, "delta_is_default", int, 0) else fileio.kv_get(meta, "delta", float)
    r = min(n_y, n_u)
    try:
        plant = PlantConfig(R=arrays["R"], bandwidths=arrays["bandwidths"],
                            dt=fileio.kv_get(meta, "dt", float), mu=mu,
                            alpha=arrays["alpha"], rho=arrays["rho"])
        ss = build_state_space(plant)
        loaded = _assemble(
            plant, ss,
            ModalBasis(U=arrays["U"], S=arrays["S"], V=arrays["V"][:, :r], V_perp=arrays["V"][:, r:]),
            design.Weights(q_hat=arrays["q_hat"], r_hat=arrays["r_hat"], Q=arrays["Q"], R_w=arrays["R_w"]),
            design.TerminalCost(P=arrays["P"]),
            design.PartitionedGain(arrays[_gain_file(mu)], arrays["L_d"], ss.A, mu),
            horizon, epsilon, delta, meta,
        )
    except (ConfigError, NumericalError) as exc:
        raise ConfigError(f"{directory}: {exc}") from exc
    scalars = _scalars(loaded)
    for key, source in _derived_from(loaded).items():
        value = scalars[key]
        text = fileio.format_float(value) if isinstance(value, float) else str(value)
        if meta.get(key) != text:
            raise ConfigError(f"{directory}: meta.txt key '{key}' = {meta.get(key)} is not {text}, "
                              f"derived from {source}")
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
    fast-vs-naive observer agreement, the modal bounds against a dense
    eigensolve of J (lambda_max to 1e-8 relative, lambda_min to
    LAMBDA_MIN_ROUNDING n eps lambda_max for the n x n Hessian), and the
    modal record's probe gap against the dense maps.  The last two are not
    applicable on a mixed-bandwidth plant, which has no modal form: its
    bounds are that eigensolve.

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

    M_s = design.setpoint_matrix(bundle.basis)
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

    if bundle.condensed.modal is None:
        results.append(CheckResult("spectral_bounds", True, "not applicable: the bounds are the "
                                   "dense eigensolve of J, derived on load"))
    else:
        J = bundle.condensed.J
        lmin, lmax, _ = qp.spectral_bounds(J)
        min_drift = abs(lmin - bundle.condensed.lambda_min) / lmax
        max_drift = abs(lmax - bundle.condensed.lambda_max) / lmax
        min_tolerance = LAMBDA_MIN_ROUNDING * J.shape[0] * np.finfo(float).eps
        results.append(CheckResult("spectral_bounds", min_drift <= min_tolerance and max_drift < 1e-8,
                                   f"lambda_min drift {min_drift:.3e} of lambda_max (tolerance "
                                   f"{min_tolerance:.1e}), lambda_max drift {max_drift:.3e} relative "
                                   "(tolerance 1e-08)"))

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
