"""Design pipeline and the on-disk design bundle.

`design_controller` runs the whole offline chain for one plant and one
horizon: modal decomposition, weight design (saturated or baseline-gain
matched), DARE terminal cost, setpoint map, observer gain, condensed QP
and the iteration-bound bookkeeping.  The result round-trips through a
directory of CSV / key=value files that the simulate, bench and check
commands consume; `meta.txt` carries a fingerprint of the design inputs so
a bundle designed from other inputs is never mistaken for a fresh one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from . import design, fileio, qp
from .errors import ConfigError, DimensionError
from .model import ModalBasis, PlantConfig, StateSpace, build_state_space, load_plant_config, modal_decompose, save_plant_config
from .observer import ObserverState, update_fast, update_naive
from .sim import ImcController, MpcController

SCHEMA_VERSION = fileio.SCHEMA_VERSION


@dataclasses.dataclass(frozen=True, eq=False)
class DesignBundle:
    """Everything the online controller consumes, for one horizon."""

    plant: PlantConfig
    ss: StateSpace
    basis: ModalBasis
    weights: design.Weights
    terminal: design.TerminalCost
    setpoint: design.SetpointMap
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

    def mpc_controller(self, i_max: int, n_workers: int = 1) -> MpcController:
        return MpcController(
            ss=self.ss,
            condensed=self.condensed,
            gain=self.gain,
            alpha=self.plant.alpha,
            rho=self.plant.rho,
            i_max=i_max,
            n_workers=n_workers,
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
    """sha256 over the canonical design inputs: every plant field (as
    float64 bytes with its shape) and every design keyword of
    `design_controller` (numbers at 17 significant digits, None as auto).
    """
    digest = hashlib.sha256()
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
    # representative scalar dynamics for the modal design; exact when all
    # actuators share one bandwidth
    a = float(np.median(ss.A))
    b = 1.0 - a
    if imc_lambda is None:
        imc_lambda = default_imc_lambda(basis)
    if weights_mode == "saturated":
        if q_min is None or q_max is None:
            sig_sq = basis.S ** 2
            q_max = float(sig_sq[0])
            q_min = q_max / 100.0
        w = design.design_weights_saturated(basis, q_min, q_max)
    elif weights_mode == "imc_matched":
        w = design.design_weights_imc_matched(basis, a, b, imc_lambda)
    else:
        raise ConfigError(f"unknown weights mode {weights_mode!r}")

    dare_stats: dict = {}
    terminal = design.solve_dare(ss.A, ss.B, w.Q, w.R_w, stats=dare_stats)
    if np.allclose(ss.A, a, rtol=0.0, atol=0.0):
        p_hat = np.array([
            design.solve_dare_modal(a, b, float(w.q_hat[i]), float(w.r_hat[i]))
            for i in range(basis.r)
        ])
        terminal = design.TerminalCost(P=terminal.P, p_hat=p_hat)

    setpoint = design.setpoint_matrix(ss)
    kalman_stats: dict = {}
    gain = design.kalman_gain(ss, sigma_v, sigma_w, sigma_m, stats=kalman_stats)
    condensed = qp.build_condensed(ss, w, terminal, setpoint, horizon)

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
        "setpoint_rank_deficient": int(setpoint.rank_deficient),
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
        setpoint=setpoint,
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

_HEADER = {"schema_version": SCHEMA_VERSION}


def save_bundle(bundle: DesignBundle, directory) -> None:
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    save_plant_config(bundle.plant, path("plant.cfg"))
    fileio.write_matrix(path("U.csv"), bundle.basis.U, _HEADER)
    fileio.write_vector(path("S.csv"), bundle.basis.S, _HEADER)
    fileio.write_matrix(path("V.csv"), bundle.basis.V, _HEADER)
    fileio.write_matrix(path("P.csv"), bundle.terminal.P, _HEADER)
    if bundle.terminal.p_hat is not None:
        fileio.write_vector(path("p_hat.csv"), bundle.terminal.p_hat, _HEADER)
    fileio.write_matrix(path("Q.csv"), bundle.weights.Q, _HEADER)
    fileio.write_matrix(path("R_w.csv"), bundle.weights.R_w, _HEADER)
    fileio.write_vector(path("q_hat.csv"), bundle.weights.q_hat, _HEADER)
    fileio.write_vector(path("r_hat.csv"), bundle.weights.r_hat, _HEADER)
    fileio.write_matrix(path("L.csv"), bundle.gain.full, _HEADER)
    n_u, n_y, mu = bundle.ss.n_u, bundle.ss.n_y, bundle.ss.mu
    fileio.write_kv(
        path("L_meta.txt"),
        {
            "n_u": n_u,
            "n_y": n_y,
            "mu": mu,
            "offset_x": 0,
            "offset_z1": n_u,
            "offset_d": (mu + 1) * n_u,
            "propagation_consistent": 1,
        },
    )
    fileio.write_matrix(path("M_setpoint.csv"), bundle.setpoint.M, _HEADER)
    fileio.write_matrix(path("J.csv"), bundle.condensed.J, _HEADER)
    fileio.write_matrix(path("q_map_x0.csv"), bundle.condensed.q_map_x0, _HEADER)
    fileio.write_matrix(path("q_map_d.csv"), bundle.condensed.q_map_d, _HEADER)
    fileio.write_kv(
        path("bounds.txt"),
        {
            "lambda_min": bundle.condensed.lambda_min,
            "lambda_max": bundle.condensed.lambda_max,
            "beta": bundle.condensed.beta,
            "kappa": bundle.kappa,
            "i_max": bundle.i_max_bound,
            "epsilon": bundle.epsilon,
            "delta": bundle.delta,
        },
    )
    fileio.write_kv(path("meta.txt"), bundle.meta)
    residual = design.dare_residual(
        bundle.ss.A, bundle.ss.B, bundle.terminal.P, bundle.weights.Q, bundle.weights.R_w
    )
    with open(path("report.txt"), "w") as fh:
        fh.write("design report\n")
        fh.write(f"kappa(J) = {fileio.format_float(bundle.kappa)}\n")
        fh.write(f"beta = {fileio.format_float(bundle.condensed.beta)}\n")
        fh.write(f"i_max_bound = {bundle.i_max_bound}\n")
        fh.write(f"dare_residual = {fileio.format_float(residual)}\n")
        fh.write(f"dare_doublings = {bundle.meta['dare_doublings']}\n")
        fh.write(f"kalman_residual = {fileio.format_float(bundle.meta['kalman_residual'])}\n")
        fh.write(f"kalman_doublings = {bundle.meta['kalman_doublings']}\n")
        fh.write(f"delta = {fileio.format_float(bundle.delta)}"
                 f"{' (helper default)' if bundle.delta_is_default else ''}\n")


def load_bundle(directory) -> DesignBundle:
    def path(name):
        return os.path.join(directory, name)

    plant = load_plant_config(path("plant.cfg"))
    ss = build_state_space(plant)
    basis = ModalBasis(
        U=fileio.read_matrix(path("U.csv")),
        S=fileio.read_vector(path("S.csv")),
        V=fileio.read_matrix(path("V.csv")),
    )
    p_hat = fileio.read_vector(path("p_hat.csv")) if os.path.exists(path("p_hat.csv")) else None
    terminal = design.TerminalCost(P=fileio.read_matrix(path("P.csv")), p_hat=p_hat)
    weights = design.Weights(
        q_hat=fileio.read_vector(path("q_hat.csv")),
        r_hat=fileio.read_vector(path("r_hat.csv")),
        Q=fileio.read_matrix(path("Q.csv")),
        R_w=fileio.read_matrix(path("R_w.csv")),
    )
    meta = fileio.read_kv(path("meta.txt"))
    l_meta = fileio.read_kv(path("L_meta.txt"))
    mu = fileio.kv_get(l_meta, "mu", int)
    n_u = fileio.kv_get(l_meta, "n_u", int)
    n_y = fileio.kv_get(l_meta, "n_y", int)
    if (mu, n_u, n_y) != (ss.mu, ss.n_u, ss.n_y):
        raise DimensionError(
            f"observer gain was designed for (mu={mu}, n_u={n_u}, n_y={n_y}) but the "
            f"plant has (mu={ss.mu}, n_u={ss.n_u}, n_y={ss.n_y})"
        )
    gain = design.PartitionedGain.from_full(fileio.read_matrix(path("L.csv")), n_u, n_y, mu)
    setpoint = design.SetpointMap(
        M=fileio.read_matrix(path("M_setpoint.csv")),
        n_u=n_u,
        n_y=n_y,
        rank_deficient=bool(int(meta.get("setpoint_rank_deficient", "0"))),
    )
    bounds = fileio.read_kv(path("bounds.txt"))
    horizon = fileio.kv_get(meta, "horizon", int)
    J = fileio.read_matrix(path("J.csv"))
    if J.shape != (horizon * n_u, horizon * n_u):
        raise DimensionError(f"J.csv shape {J.shape} does not match horizon {horizon}")
    condensed = qp.CondensedQP(
        J=J,
        q_map_x0=fileio.read_matrix(path("q_map_x0.csv")),
        q_map_d=fileio.read_matrix(path("q_map_d.csv")),
        lambda_min=fileio.kv_get(bounds, "lambda_min", float),
        lambda_max=fileio.kv_get(bounds, "lambda_max", float),
        beta=fileio.kv_get(bounds, "beta", float),
        N=horizon,
        n_u=n_u,
    )
    return DesignBundle(
        plant=plant,
        ss=ss,
        basis=basis,
        weights=weights,
        terminal=terminal,
        setpoint=setpoint,
        gain=gain,
        condensed=condensed,
        epsilon=fileio.kv_get(bounds, "epsilon", float),
        delta=fileio.kv_get(bounds, "delta", float),
        delta_is_default=bool(int(meta.get("delta_is_default", "0"))),
        i_max_bound=fileio.kv_get(bounds, "i_max", int),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_checks(bundle: DesignBundle, probe_steps: int = 100, seed: int = 0) -> list[CheckResult]:
    """Bundle self-consistency: DARE residual, setpoint residual,
    fast-vs-naive observer agreement, spectral-bound agreement."""
    results = []
    rng = np.random.default_rng(seed)
    ss = bundle.ss

    residual = design.dare_residual(ss.A, ss.B, bundle.terminal.P, bundle.weights.Q, bundle.weights.R_w)
    results.append(CheckResult("dare_residual", residual < 1e-8,
                               f"relative residual {residual:.3e} (tolerance 1e-08)"))

    S = np.zeros((ss.n_u + ss.n_y, 2 * ss.n_u))
    S[: ss.n_u, : ss.n_u] = np.diag(1.0 - ss.A)
    S[: ss.n_u, ss.n_u :] = -np.diag(ss.B)
    S[ss.n_u :, : ss.n_u] = -ss.C
    worst = 0.0
    for _ in range(100):
        d = rng.standard_normal(ss.n_y)
        rhs = np.concatenate([np.zeros(ss.n_u), d])
        err = np.linalg.norm(S @ (bundle.setpoint.M @ d) - rhs) / np.linalg.norm(d)
        worst = max(worst, err)
    results.append(CheckResult("setpoint_residual", worst < 1e-8,
                               f"max relative residual {worst:.3e} over 100 draws (tolerance 1e-08)"))

    st_fast = ObserverState.initial(ss, bundle.gain)
    st_naive = ObserverState.initial(ss, bundle.gain)
    gap = 0.0
    try:
        for _ in range(probe_steps):
            u = rng.standard_normal(ss.n_u)
            y = rng.standard_normal(ss.n_y)
            st_fast = update_fast(st_fast, u, y)
            st_naive = update_naive(st_naive, u, y)
            gap = max(gap, float(np.max(np.abs(st_fast.x_hat - st_naive.x_hat))),
                      float(np.max(np.abs(st_fast.d_hat - st_naive.d_hat))))
        results.append(CheckResult("observer_fast_vs_naive", gap < 1e-10,
                                   f"max deviation {gap:.3e} over {probe_steps} steps (tolerance 1e-10)"))
    except ConfigError as exc:
        results.append(CheckResult("observer_fast_vs_naive", False, str(exc)))

    lmin, lmax, _ = qp.spectral_bounds(bundle.condensed.J)
    drift = max(
        abs(lmin - bundle.condensed.lambda_min) / lmin,
        abs(lmax - bundle.condensed.lambda_max) / lmax,
    )
    results.append(CheckResult("spectral_bounds", drift < 1e-8,
                               f"relative drift {drift:.3e} (tolerance 1e-08)"))
    return results
