"""Runtime state and disturbance estimation under measurement delay.

The plant measurement at sample k reflects the actuator state mu samples
ago, so the observer runs on the delay-augmented state
[x; z1; ...; zmu; d]: z_i tracks x delayed by i samples and d is the
output-disturbance estimate (random-walk model, identity transition).

Two update paths are provided.  `update_naive` multiplies the innovation
by the full dense gain.  `update_fast` applies the innovation to the most
delayed state and the disturbance only, then propagates it forward
through the diagonal plant powers A^(mu-i).  Every PartitionedGain is
built by that same propagation from its measured block, so both paths
coincide (up to rounding) for every gain, at a fraction of the work.

Both return a new state and leave the one they are passed intact.

On a plant whose actuators share one bandwidth every online map is
diagonal by mode: C = U diag(sigma) V^T, L_zmu = V diag(k_z) U^T, L_d =
U diag(k_d) U^T + k_0 (I - U U^T), and the linear-term maps (see
design.modal_linear_term).  `ModalRecord` holds them by mode, checked
against the dense maps, for the compiled kernel, which keeps the
estimates in the coordinates x~ = [V, V_perp]^T x, z~ = [V, V_perp]^T z
and d~ = U^T d (see `fgm_kernel.c`, observe).  On a tall plant
(n_y > r) the part of d outside range(U) never reaches the inputs; the
kernel carries it as s <- (1 - k_0) s + k_0 y, whose projection
(I - U U^T) s it is exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import design, fileio
from .design import PartitionedGain
from .errors import DimensionError, NumericalError
from .model import ModalBasis, StateSpace
from .qp import CondensedQP, aligned_zeros, pack, padded

# Largest relative gap allowed between a dense online map and its modal
# record in one probe product for the compiled kernel to run the record.
# The closed forms round differently from the dense maps built from Q,
# R_w, P and M_s: 2e-15 on the storage-ring design, 3e-13 and 7e-13 on the
# 4x4 and 8x8 matched-weight designs (q_map_d, whose modes are scaled by
# 1/sigma over a 1e4 spread), while one entry of 1e-6 of a map's largest,
# added off its modes, shows at 2.5e-8 (172x173) to 3.5e-7 (4x4).
MODAL_RECORD_TOLERANCE = 1e-9

# q_map_d is formed through M_s = -V diag(1/sigma) U^T, so its gap grows
# with kappa(C) = sigma_0 max(1/sigma): 0.4 to 5.2 eps kappa(C) on
# matched-weight designs of 2x3 to 16x16 plants at kappa 1e2 to 1e13
# (3.9e-9 on an 8x8 plant at 1e7).  A q_map_d gap above the tolerance but
# within this many eps kappa(C) is that rounding: the record is kept, and
# the plant runs on the dense maps.  A larger gap, or one on another map,
# is a map that is not diagonal by mode.
Q_MAP_D_ROUNDING = 64


@dataclasses.dataclass(frozen=True, eq=False)
class ObserverState:
    """Estimates plus the precomputed data the update paths need."""

    ss: StateSpace
    gain: PartitionedGain
    x_hat: np.ndarray
    z_hat: np.ndarray          # (mu, n_u); row i holds the estimate of x delayed i+1 samples
    d_hat: np.ndarray
    A_powers: np.ndarray       # (mu + 1, n_u); row k is the diagonal of A^k

    @classmethod
    def initial(cls, ss: StateSpace, gain: PartitionedGain) -> "ObserverState":
        """Cold start from a quiescent beam: all estimates zero.

        The gain must have been built for this plant's delay and diagonal A,
        since its blocks are propagated with the powers the fast update uses.
        """
        if gain.mu != ss.mu:
            raise DimensionError(f"gain has {gain.mu} delay blocks, plant has {ss.mu}")
        if not np.array_equal(gain.A, ss.A):
            raise DimensionError("gain was propagated with another A than the plant's")
        powers = np.vstack([ss.a_power(k) for k in range(ss.mu + 1)])
        return cls(
            ss=ss,
            gain=gain,
            x_hat=np.zeros(ss.n_u),
            z_hat=np.zeros((ss.mu, ss.n_u)),
            d_hat=np.zeros(ss.n_y),
            A_powers=powers,
        )

    @property
    def delayed_state(self) -> np.ndarray:
        """The estimate the current measurement is compared against."""
        return self.z_hat[-1] if self.ss.mu else self.x_hat

    def innovation(self, y_k: np.ndarray) -> np.ndarray:
        return y_k - self.ss.C @ self.delayed_state - self.d_hat

    def _replace(self, x_hat, z_hat, d_hat) -> "ObserverState":
        return dataclasses.replace(self, x_hat=x_hat, z_hat=z_hat, d_hat=d_hat)

    def to_csv(self, path) -> None:
        """Debug snapshot: rows x_hat, z_hat (one per delay), d_hat."""
        width = max(self.ss.n_u, self.ss.n_y)

        def padded(v):
            return np.pad(v, (0, width - v.shape[0]))

        rows = [padded(self.x_hat)] + [padded(z) for z in self.z_hat] + [padded(self.d_hat)]
        fileio.write_matrix(path, np.vstack(rows), header={"layout": "x,z1..zmu,d", "mu": self.ss.mu})


def update_naive(st: ObserverState, u_k: np.ndarray, y_k: np.ndarray) -> ObserverState:
    """Dense-gain update: shift chain prediction plus L @ innovation."""
    ss = st.ss
    inn = st.innovation(y_k)
    correction = st.gain.full @ inn
    n_u, mu = ss.n_u, ss.mu
    x_new = ss.A * st.x_hat + ss.B * u_k + correction[:n_u]
    if mu:
        shifted = np.vstack([st.x_hat, st.z_hat[:-1]])
        z_new = shifted + correction[n_u : (mu + 1) * n_u].reshape(mu, n_u)
    else:
        z_new = st.z_hat
    d_new = st.d_hat + correction[(mu + 1) * n_u :]
    return st._replace(x_new, z_new, d_new)


def update_fast(st: ObserverState, u_k: np.ndarray, y_k: np.ndarray) -> ObserverState:
    """Partitioned update: correct z_mu and d, propagate with A powers.

    Uses only the gain's measured block and L_d; the propagation with
    A_powers reproduces L_zi = A^(mu-i) L_zmu and L_x = A^mu L_zmu.
    """
    ss = st.ss
    mu = ss.mu
    inn = st.innovation(y_k)
    dy = st.gain.measured @ inn                     # innovation mapped into state units
    d_new = st.d_hat + st.gain.L_d @ inn
    if mu == 0:
        x_new = ss.A * st.x_hat + ss.B * u_k + dy
        return st._replace(x_new, st.z_hat, d_new)
    shifted = np.vstack([st.x_hat, st.z_hat[:-1]])
    z_new = shifted + st.A_powers[mu - 1 :: -1] * dy
    x_new = ss.A * st.x_hat + ss.B * u_k + st.A_powers[mu] * dy
    return st._replace(x_new, z_new, d_new)


@dataclasses.dataclass(frozen=True, eq=False)
class ModalRecord:
    """The online maps of a one-bandwidth plant by mode (see the module
    docstring): the square orthonormal [V, V_perp] `W`, U and sigma of C,
    the gains k_z and k_d (and k_0 on a tall plant), the linear-term
    coefficients `alpha` (N, n_u) and `beta` (N, r), and the plant's pole
    a and input gain b.  `packed` lays them out as `fgm_kernel.c` reads
    them, in one 64-byte-aligned array (qp.pack): the rows of W, of W^T
    and of U, each zero-padded to a multiple of qp.ROW_PAD doubles, then
    the rest; `probe_gap` is the largest relative gap its maps showed
    against the dense ones (see `modal_record`), and the kernel runs the
    record only when it is `within_tolerance`.  W and U are views of
    `packed`."""

    W: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    k_z: np.ndarray
    k_d: np.ndarray
    k_0: float
    alpha: np.ndarray
    beta: np.ndarray
    a: float
    b: float
    mu: int
    probe_gap: float
    packed: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        n_u, n_y, r = self.W.shape[0], self.U.shape[0], self.U.shape[1]
        powers = self.a ** np.arange(self.mu, -1, -1)
        packed = pack([self.W, self.W.T, self.U, self.sigma, self.k_z, self.k_d, self.alpha.ravel(),
                       self.beta.ravel(), powers, np.array([self.a, self.b, self.k_0]),
                       np.zeros(n_u)])
        w_size, u_size = n_u * padded(n_u), n_y * padded(r)
        for name, value in (("packed", packed),
                            ("W", packed[:w_size].reshape(n_u, -1)[:, :n_u]),
                            ("U", packed[2 * w_size:2 * w_size + u_size].reshape(n_y, -1)[:, :r])):
            object.__setattr__(self, name, value)

    @property
    def within_tolerance(self) -> bool:
        """Whether every map agrees with the dense one to MODAL_RECORD_TOLERANCE."""
        return self.probe_gap <= MODAL_RECORD_TOLERANCE

    @property
    def n_u(self) -> int:
        return self.W.shape[0]

    @property
    def n_y(self) -> int:
        return self.U.shape[0]

    @property
    def N(self) -> int:
        return self.alpha.shape[0]

    def _sizes(self) -> tuple[int, ...]:
        """Lengths of the state array's parts, in the kernel's order: x~, the
        mu z~, d~, s (tall plants only) and their linear term q, the same
        five again for the update to form, and the scratch U^T y, u~, dy,
        q~.  The kernel's sweeps keep N padded(n_u) more after them, from a
        multiple of qp.ROW_PAD (see new_state)."""
        n_u, n_y, r = self.n_u, self.n_y, self.sigma.shape[0]
        estimates = (n_u, self.mu * n_u, r, n_y if n_y > r else 0, self.N * n_u)
        return (*estimates, *estimates, r, n_u, n_u, self.N * n_u)

    def new_state(self) -> np.ndarray:
        """A zero state array, 64-byte aligned: every estimate of a
        quiescent beam, and their linear term, which is zero too; then the
        sweeps' scratch."""
        return aligned_zeros(padded(sum(self._sizes())) + self.N * padded(self.n_u))

    def linear_term(self, state: np.ndarray) -> np.ndarray:
        """The linear term of the estimates of `state`, which the next
        sample solves with: a view of `state`."""
        sizes = self._sizes()
        start = sum(sizes[:4])
        return state[start:start + sizes[4]]

    def plant_estimates(self, state: np.ndarray, initial: ObserverState) -> ObserverState:
        """The estimates of `state` in plant coordinates, as `initial` (a
        state of this plant) with x^ = W x~, z^_i = W z~_i and d^ = U d~
        + (I - U U^T) s."""
        x, z, d, s = np.split(state, np.cumsum(self._sizes()))[:4]
        d_hat = self.U @ d
        if s.size:
            d_hat += s - self.U @ (self.U.T @ s)
        return initial._replace(self.W @ x, z.reshape(self.mu, self.n_u) @ self.W.T, d_hat)


def modal_record(ss: StateSpace, basis: ModalBasis, gain: PartitionedGain,
                 condensed: CondensedQP) -> ModalRecord:
    """The modal record of a one-bandwidth plant's design, checked against
    its dense maps.

    The gains are read from `gain`: k_z = diag(V^T L_zmu U), k_d =
    diag(U^T L_d U) and, on a tall plant, k_0 = (trace L_d - sum k_d) /
    (n_y - r); the linear-term coefficients are the closed forms of
    design.modal_linear_term from the costs of `condensed.modal`.  The
    products of C, the gain's measured block, L_d, q_map_x0 and q_map_d
    with a fixed probe vector are compared with the record's; one that
    differs by more than MODAL_RECORD_TOLERANCE relative raises
    NumericalError naming the map, except q_map_d within Q_MAP_D_ROUNDING
    eps kappa(C), whose record is returned not `within_tolerance`.
    """
    U, V, W, r = basis.U, basis.V, condensed.modal.basis, basis.r
    n_y = ss.n_y
    k_z = np.einsum("ij,ij->j", V, gain.measured @ U)
    k_d = np.einsum("ij,ij->j", U, gain.L_d @ U)
    k_0 = float(np.trace(gain.L_d) - np.sum(k_d)) / (n_y - r) if n_y > r else 0.0
    alpha, beta = design.modal_linear_term(ss, basis, condensed.modal)
    x = np.sin(np.arange(1.0, ss.n_u + 1.0))  # fixed probes, with no entry repeated
    y = np.sin(np.arange(1.0, n_y + 1.0))
    y_modes = U.T @ y
    x_modes = W.T @ x
    beyond = k_0 * (y - U @ y_modes)
    kappa = float(basis.S[0] * np.max(design._inverse_sigma(basis.S)))
    rounding = max(MODAL_RECORD_TOLERANCE, Q_MAP_D_ROUNDING * np.finfo(float).eps * kappa)
    pairs = (
        ("C", ss.C @ x, U @ (basis.S * x_modes[:r]), MODAL_RECORD_TOLERANCE),
        ("L_zmu" if ss.mu else "L_x", gain.measured @ y, V @ (k_z * y_modes), MODAL_RECORD_TOLERANCE),
        ("L_d", gain.L_d @ y, U @ (k_d * y_modes) + beyond, MODAL_RECORD_TOLERANCE),
        ("q_map_x0", condensed.q_map_x0 @ x, (alpha * x_modes) @ W.T, MODAL_RECORD_TOLERANCE),
        ("q_map_d", condensed.q_map_d @ y, (beta * y_modes) @ V.T, rounding),
    )
    gap = 0.0
    for name, want, got, bound in pairs:
        map_gap = float(np.linalg.norm(got.ravel() - want)
                        / max(np.linalg.norm(want), np.finfo(float).tiny))
        if not map_gap <= bound:  # NaN fails too
            raise NumericalError(
                f"{name} disagrees with its modal record (U, sigma and [V, V_perp], the gains "
                f"by mode and the closed-form linear term): a probe product differs by "
                f"{map_gap:.1e} relative, tolerance {bound:.2g}")
        gap = max(gap, map_gap)
    return ModalRecord(W=W, U=U, sigma=basis.S, k_z=k_z, k_d=k_d, k_0=k_0, alpha=alpha, beta=beta,
                       a=float(ss.A[0]), b=float(ss.B[0]), mu=ss.mu, probe_gap=gap)
