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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import fileio
from .design import PartitionedGain
from .errors import DimensionError
from .model import StateSpace


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
