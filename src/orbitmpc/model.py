"""Plant description and its discrete state-space / modal representations.

The plant is a cross-directional system: a static orbit response matrix
``R`` (monitors x correctors) in series with one first-order actuator lag
per corrector and a transport delay of ``mu`` samples,

    x[k+1] = A x[k] + B u[k],      y[k] = C x[k - mu] + d[k],

with A = diag(exp(-a_i * dt)), B = I - A and C = R.  A and B are kept as
vectors: every downstream consumer (the block-by-block condensed QP
build, the observer) relies on them being diagonal.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import fileio
from .errors import ConfigError, DimensionError, NumericalError


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

    ``R`` is the orbit response matrix, n_y monitors x n_u correctors
    (dimensionless gains); ``bandwidths`` the actuator bandwidths in rad/s,
    in R's column order; ``dt`` the sampling time; ``mu`` the transport
    delay in samples; ``alpha``/``rho`` the per-actuator amplitude and
    per-sample slew-rate limits.  Each per-actuator vector may be given as
    a scalar.
    """

    R: np.ndarray
    bandwidths: np.ndarray
    dt: float
    mu: int
    alpha: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=float)
        if R.ndim != 2 or R.size == 0:
            raise ConfigError(f"orbit response matrix must be a non-empty 2-D array, got shape {R.shape}")
        if not np.all(np.isfinite(R)):
            raise ConfigError("orbit response matrix has non-finite entries")
        if not 0.0 < self.dt < np.inf:  # NaN fails too
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
        if self.mu < 0:
            raise ConfigError(f"mu must be non-negative, got {self.mu}")
        object.__setattr__(self, "R", R)
        for name, what in (("bandwidths", "actuator bandwidth"),
                           ("alpha", "amplitude limit"), ("rho", "slew-rate limit")):
            value = _per_actuator(getattr(self, name), self.n_u, name)
            object.__setattr__(self, name, value)
            bad = np.flatnonzero(~(value > 0.0))  # NaN fails `> 0` too
            if bad.size:
                raise ConfigError(f"{name}[{bad[0]}] = {value[bad[0]]}: {what} must be positive")
        unbounded = np.flatnonzero(np.isinf(self.alpha) & np.isinf(self.rho))
        if unbounded.size:
            i = unbounded[0]
            raise ConfigError(f"alpha[{i}] = rho[{i}] = inf: actuator {i} needs a finite "
                              "amplitude or slew-rate limit")

    @property
    def n_y(self) -> int:
        return self.R.shape[0]

    @property
    def n_u(self) -> int:
        return self.R.shape[1]


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
    """Thin SVD of the response matrix, C = U diag(S) V^T, and the
    orthonormal completion V_perp of V (n_u x (n_u - r)), which spans the
    null space of a wide C; `modal_decompose` fills it, and a basis built
    without it has none."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    V_perp: np.ndarray | None = None

    @property
    def r(self) -> int:
        return self.S.shape[0]

    @property
    def rank(self) -> int:
        """rank C as np.linalg.matrix_rank counts it: the modes above
        sigma_0 max(n_y, n_u) eps."""
        n_y, n_u = self.U.shape[0], self.V.shape[0]
        return int(np.count_nonzero(self.S > self.S[0] * (max(n_y, n_u) * np.finfo(float).eps)))

    @property
    def V_full(self) -> np.ndarray:
        """The square orthonormal [V, V_perp], column-major like V."""
        if self.V.shape[0] == self.r:
            return self.V
        if self.V_perp is None:
            raise DimensionError(f"modal basis of rank {self.r} < n_u = {self.V.shape[0]} "
                                 "has no null-space completion")
        return np.asfortranarray(np.hstack([self.V, self.V_perp]))

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def build_state_space(cfg: PlantConfig) -> StateSpace:
    """Discretize the actuator lags: A_ii = exp(-a_i dt), B = I - A, C = R."""
    a_dt = cfg.bandwidths * cfg.dt
    A = np.exp(-a_dt)
    B = 1.0 - A
    return StateSpace(A=A, B=B, C=cfg.R.copy(), mu=cfg.mu)


def modal_decompose(C: np.ndarray) -> ModalBasis:
    """Thin SVD with singular values in descending order, and the null-space
    completion of V (see _null_completion).  The thin SVD is the one
    np.linalg.pinv takes, so C^+ formed from the basis is pinv's bit for
    bit; a full SVD rounds V differently."""
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise NumericalError("cannot decompose a matrix with non-finite entries")
    try:
        U, S, Vt = np.linalg.svd(C, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return ModalBasis(U=U, S=S, V=Vt.T, V_perp=_null_completion(Vt.T))


def _null_completion(V: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of the orthonormal V's
    range, column-major: fixed pseudo-random vectors projected off V and
    orthonormalized, twice, so that both their orthogonality to V and to
    each other hold to rounding (two passes of projection suffice, as in
    Gram-Schmidt with reorthogonalization).  O(n_u r (n_u - r)), against
    O(n_u^3) for a complete QR of V."""
    n_u, r = V.shape
    if r == n_u:
        return np.zeros((n_u, 0), order="F")
    X = np.random.default_rng(0).standard_normal((n_u, n_u - r))
    for _ in range(2):
        X -= V @ (V.T @ X)
        X = np.linalg.qr(X)[0]
    return np.asfortranarray(X)
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
    `seed`; the same seed always yields the same plant.  All actuators
    share one medium bandwidth.  If min(n_y, n_u) == 1 there is a single
    singular value and kappa_target is ignored.  ``rho`` defaults to
    alpha/10.
    """
    if n_y < 1 or n_u < 1:
        raise ConfigError(f"need n_y >= 1 and n_u >= 1, got n_y = {n_y}, n_u = {n_u}")
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
    return PlantConfig(R=R, bandwidths=bandwidth, dt=dt, mu=mu, alpha=alpha, rho=rho)


PLANT_KEYS = ("n_y", "n_s", "n_f", "dt", "mu", "a_s", "a_f", "alpha", "rho", "R_path")


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(fileio.format_float(x) for x in np.atleast_1d(v))


def save_plant_config(cfg: PlantConfig, path) -> None:
    """Write plant config + its response matrix `R.csv` next to each other
    on disk; every actuator goes in the slow block (n_f = 0)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fileio.write_matrix(os.path.join(directory, "R.csv"), cfg.R,
                        header={"schema_version": fileio.SCHEMA_VERSION})
    fileio.write_kv(
        path,
        {
            "n_y": cfg.n_y,
            "n_s": cfg.n_u,
            "n_f": 0,
            "dt": cfg.dt,
            "mu": cfg.mu,
            "a_s": _fmt_vec(cfg.bandwidths),
            "alpha": _fmt_vec(cfg.alpha),
            "rho": _fmt_vec(cfg.rho),
            "R_path": "R.csv",
        },
    )


def load_plant_config(path) -> PlantConfig:
    """Read a plant config.  The file lists its actuators in two blocks, n_s
    slow then n_f fast, with bandwidths a_s and a_f (a scalar or one value
    per actuator of the block); R.csv's columns follow the same order.  A
    key outside PLANT_KEYS, and the bandwidths of an empty block, are
    refused."""
    pairs = fileio.read_kv(path)
    fileio.reject_unknown_keys(path, pairs, PLANT_KEYS)
    n_y, n_s, n_f = (fileio.kv_get(pairs, key, int) for key in ("n_y", "n_s", "n_f"))
    for key, count, bandwidths in (("n_s", n_s, "a_s"), ("n_f", n_f, "a_f")):
        if count < 0:
            raise ConfigError(f"{path}: {key} must be >= 0, got {count}")
        if count == 0 and bandwidths in pairs:
            raise ConfigError(f"{path}: {bandwidths} given for an empty block ({key} = 0)")
    r_path = fileio.resolve_path(path, fileio.kv_get(pairs, "R_path", str))
    if not os.path.exists(r_path):
        raise ConfigError(f"response matrix file not found: {r_path}")
    R = fileio.read_matrix(r_path)
    if R.shape != (n_y, n_s + n_f):
        raise ConfigError(f"{r_path}: expected shape {(n_y, n_s + n_f)}, got {R.shape}")
    blocks = [_per_actuator(fileio.kv_get(pairs, key, fileio.parse_float_list), count, key)
              for key, count in (("a_s", n_s), ("a_f", n_f)) if count]
    return PlantConfig(
        R=R,
        bandwidths=np.concatenate(blocks),
        dt=fileio.kv_get(pairs, "dt", float),
        mu=fileio.kv_get(pairs, "mu", int),
        alpha=fileio.kv_get(pairs, "alpha", fileio.parse_float_list),
        rho=fileio.kv_get(pairs, "rho", fileio.parse_float_list),
    )
