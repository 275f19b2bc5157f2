"""Plant description and its discrete state-space / modal representations.

The plant is a cross-directional system: a static orbit response matrix
``R = [R_s R_f]`` (monitors x correctors) in series with one first-order
actuator lag per corrector and a transport delay of ``mu`` samples,

    x[k+1] = A x[k] + B u[k],      y[k] = C x[k - mu] + d[k],

with A = diag(exp(-a_i * dt)), B = I - A and C = R.  A and B are kept as
vectors: every downstream consumer (prediction matrices, observer) relies
on them being diagonal.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import fileio
from .errors import ConfigError, NumericalError


def _per_actuator(value, n: int, name: str) -> np.ndarray:
    """Broadcast a scalar or validate a length-n vector."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n, arr[0])
    if arr.shape != (n,):
        raise ConfigError(f"{name}: expected scalar or {n} values, got shape {arr.shape}")
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class PlantConfig:
    """Physical parameters of one plane of the stabilization plant.

    ``R_s``/``R_f`` are the slow/fast columns of the orbit response matrix
    (dimensionless gains), ``a_s``/``a_f`` the actuator bandwidths in
    rad/s (scalar or one value per actuator of that type), ``dt`` the
    sampling time, ``mu`` the transport delay in samples, and ``alpha``/
    ``rho`` the per-actuator amplitude and per-sample slew-rate limits.
    """

    n_y: int
    n_s: int
    n_f: int
    R_s: np.ndarray
    R_f: np.ndarray
    a_s: np.ndarray
    a_f: np.ndarray
    dt: float
    mu: int
    alpha: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if self.n_y < 1 or self.n_s + self.n_f < 1:
            raise ConfigError("need n_y >= 1 and n_s + n_f >= 1")
        if self.n_s < 0 or self.n_f < 0:
            raise ConfigError("actuator counts must be non-negative")
        if not 0.0 < self.dt < np.inf:  # NaN fails too
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
        if self.mu < 0:
            raise ConfigError(f"mu must be non-negative, got {self.mu}")
        object.__setattr__(self, "R_s", np.asarray(self.R_s, dtype=float).reshape(self.n_y, self.n_s))
        object.__setattr__(self, "R_f", np.asarray(self.R_f, dtype=float).reshape(self.n_y, self.n_f))
        object.__setattr__(self, "a_s", _per_actuator(self.a_s, self.n_s, "a_s"))
        object.__setattr__(self, "a_f", _per_actuator(self.a_f, self.n_f, "a_f"))
        object.__setattr__(self, "alpha", _per_actuator(self.alpha, self.n_u, "alpha"))
        object.__setattr__(self, "rho", _per_actuator(self.rho, self.n_u, "rho"))
        for name, what in (("a_s", "actuator bandwidth"), ("a_f", "actuator bandwidth"),
                           ("alpha", "amplitude limit"), ("rho", "slew-rate limit")):
            value = getattr(self, name)
            bad = np.flatnonzero(~(value > 0.0))  # NaN fails `> 0` too
            if bad.size:
                raise ConfigError(f"{name}[{bad[0]}] = {value[bad[0]]}: {what} must be positive")
        unbounded = np.flatnonzero(np.isinf(self.alpha) & np.isinf(self.rho))
        if unbounded.size:
            i = unbounded[0]
            raise ConfigError(f"alpha[{i}] = rho[{i}] = inf: actuator {i} needs a finite "
                              "amplitude or slew-rate limit")
        if not (np.all(np.isfinite(self.R_s)) and np.all(np.isfinite(self.R_f))):
            raise ConfigError("orbit response matrix has non-finite entries")

    @property
    def n_u(self) -> int:
        return self.n_s + self.n_f

    @property
    def R(self) -> np.ndarray:
        """Full orbit response matrix [R_s R_f], n_y x n_u."""
        return np.hstack([self.R_s, self.R_f])

    @property
    def bandwidths(self) -> np.ndarray:
        """Per-actuator bandwidth vector, slow block first."""
        return np.concatenate([self.a_s, self.a_f])


@dataclasses.dataclass(frozen=True, eq=False)
class StateSpace:
    """Diagonal-A / diagonal-B / dense-C realization.

    ``A`` and ``B`` are the diagonals stored as vectors; ``B == 1 - A``
    holds bit-exactly by construction.  Elementwise powers ``A**i`` are
    therefore cheap, which the delayed observer exploits.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    mu: int

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    def a_power(self, i: int) -> np.ndarray:
        """Elementwise A**i (the diagonal of the matrix power)."""
        return self.A ** i


@dataclasses.dataclass(frozen=True, eq=False)
class ModalBasis:
    """Thin SVD of the response matrix: C = U diag(S) V^T."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def r(self) -> int:
        return self.S.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def build_state_space(cfg: PlantConfig) -> StateSpace:
    """Discretize the actuator lags: A_ii = exp(-a_i dt), B = I - A, C = R."""
    a_dt = cfg.bandwidths * cfg.dt
    A = np.exp(-a_dt)
    B = 1.0 - A
    return StateSpace(A=A, B=B, C=cfg.R.copy(), mu=cfg.mu)


def modal_decompose(C: np.ndarray) -> ModalBasis:
    """Thin SVD with singular values in descending order."""
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise NumericalError("cannot decompose a matrix with non-finite entries")
    try:
        U, S, Vt = np.linalg.svd(C, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return ModalBasis(U=U, S=S, V=Vt.T)


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal factor via QR with a canonical sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def synthetic_plant(
    n_y: int,
    n_u: int,
    kappa_target: float,
    seed: int,
    *,
    dt: float = 1e-3,
    mu: int = 3,
    bandwidth: float = 2.0 * np.pi * 70.0,
    alpha: float = 1.0,
    rho: float | None = None,
) -> PlantConfig:
    """Random plant whose response matrix has a prescribed conditioning.

    Singular values decay geometrically from 1 down to 1/kappa_target over
    the min(n_y, n_u) modes, mimicking the ill-conditioned regime of real
    storage-ring response matrices.  Orthogonal factors are drawn from
    `seed`; the same seed always yields the same plant.  All actuators are
    a single medium-bandwidth type (n_s = n_u, n_f = 0).  If
    min(n_y, n_u) == 1 there is a single singular value and kappa_target
    is ignored.  ``rho`` defaults to alpha/10.
    """
    if not 1.0 <= kappa_target < np.inf:  # NaN fails too
        raise ConfigError(f"kappa_target must be finite and >= 1, got {kappa_target}")
    rng = np.random.default_rng(seed)
    r = min(n_y, n_u)
    if r > 1:
        sigma = kappa_target ** (-np.arange(r) / (r - 1))
    else:
        sigma = np.ones(1)
    U = _random_orthogonal(n_y, rng)[:, :r]
    V = _random_orthogonal(n_u, rng)[:, :r]
    R = (U * sigma) @ V.T
    if rho is None:
        rho = alpha / 10.0
    return PlantConfig(
        n_y=n_y,
        n_s=n_u,
        n_f=0,
        R_s=R,
        R_f=np.zeros((n_y, 0)),
        a_s=bandwidth,
        a_f=bandwidth,
        dt=dt,
        mu=mu,
        alpha=alpha,
        rho=rho,
    )


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(fileio.format_float(x) for x in np.atleast_1d(v))


def save_plant_config(cfg: PlantConfig, path) -> None:
    """Write plant config + its response matrix `R.csv` next to each other on disk."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fileio.write_matrix(os.path.join(directory, "R.csv"), cfg.R,
                        header={"schema_version": fileio.SCHEMA_VERSION})
    fileio.write_kv(
        path,
        {
            "n_y": cfg.n_y,
            "n_s": cfg.n_s,
            "n_f": cfg.n_f,
            "dt": cfg.dt,
            "mu": cfg.mu,
            "a_s": _fmt_vec(cfg.a_s) if cfg.n_s else "0",
            "a_f": _fmt_vec(cfg.a_f) if cfg.n_f else "0",
            "alpha": _fmt_vec(cfg.alpha),
            "rho": _fmt_vec(cfg.rho),
            "R_path": "R.csv",
        },
    )


def load_plant_config(path) -> PlantConfig:
    pairs = fileio.read_kv(path)
    n_y = fileio.kv_get(pairs, "n_y", int)
    n_s = fileio.kv_get(pairs, "n_s", int)
    n_f = fileio.kv_get(pairs, "n_f", int)
    r_path = fileio.resolve_path(path, fileio.kv_get(pairs, "R_path", str))
    if not os.path.exists(r_path):
        raise ConfigError(f"response matrix file not found: {r_path}")
    R = fileio.read_matrix(r_path)
    if R.shape != (n_y, n_s + n_f):
        raise ConfigError(f"{r_path}: expected shape {(n_y, n_s + n_f)}, got {R.shape}")
    return PlantConfig(
        n_y=n_y,
        n_s=n_s,
        n_f=n_f,
        R_s=R[:, :n_s],
        R_f=R[:, n_s:],
        a_s=fileio.kv_get(pairs, "a_s", fileio.parse_float_list) if n_s else np.zeros(0),
        a_f=fileio.kv_get(pairs, "a_f", fileio.parse_float_list) if n_f else np.zeros(0),
        dt=fileio.kv_get(pairs, "dt", float),
        mu=fileio.kv_get(pairs, "mu", int),
        alpha=fileio.kv_get(pairs, "alpha", fileio.parse_float_list),
        rho=fileio.kv_get(pairs, "rho", fileio.parse_float_list),
    )
