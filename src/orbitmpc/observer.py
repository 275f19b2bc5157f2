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

`update_fast` returns a new state; given `ObserverBuffers`, it instead
overwrites the estimates of the state it is passed, with the same
floating-point operations in the same order, so both give the same bits.
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


@dataclasses.dataclass(frozen=True, eq=False)
class ObserverBuffers:
    """Scratch for the in-place `update_fast` of states of one plant:
    the innovation, an output-sized product, the state-unit innovation,
    the propagated steps (row 0 for x, row 1 + i for z_(i+1)), an
    input-sized product, and the A powers in the steps' order."""

    innovation: np.ndarray
    y_work: np.ndarray
    dy: np.ndarray
    steps: np.ndarray
    x_work: np.ndarray
    powers: np.ndarray

    @classmethod
    def for_state(cls, st: ObserverState) -> "ObserverBuffers":
        n_u, n_y, mu = st.ss.n_u, st.ss.n_y, st.ss.mu
        return cls(innovation=np.empty(n_y), y_work=np.empty(n_y), dy=np.empty(n_u),
                   steps=np.empty((mu + 1, n_u)), x_work=np.empty(n_u),
                   powers=np.ascontiguousarray(st.A_powers[::-1]))


def _update_in_place(st: ObserverState, u_k: np.ndarray, y_k: np.ndarray,
                     b: ObserverBuffers) -> ObserverState:
    """update_fast written into st's own arrays, operation for operation."""
    ss = st.ss
    x_hat, z_hat, d_hat = st.x_hat, st.z_hat, st.d_hat
    np.matmul(ss.C, st.delayed_state, out=b.y_work)
    np.subtract(y_k, b.y_work, out=b.innovation)
    np.subtract(b.innovation, d_hat, out=b.innovation)
    np.matmul(st.gain.measured, b.innovation, out=b.dy)
    np.matmul(st.gain.L_d, b.innovation, out=b.y_work)
    np.add(d_hat, b.y_work, out=d_hat)
    steps = np.multiply(b.powers, b.dy, out=b.steps)  # row 0: A^mu dy, row 1 + i: A^(mu-1-i) dy
    if ss.mu:
        np.add(z_hat[:-1], steps[2:], out=steps[2:])
        np.add(x_hat, steps[1], out=steps[1])
        np.copyto(z_hat, steps[1:])
    np.multiply(ss.A, x_hat, out=x_hat)
    np.add(x_hat, np.multiply(ss.B, u_k, out=b.x_work), out=x_hat)
    np.add(x_hat, steps[0], out=x_hat)
    return st


def update_fast(st: ObserverState, u_k: np.ndarray, y_k: np.ndarray,
                buffers: ObserverBuffers | None = None) -> ObserverState:
    """Partitioned update: correct z_mu and d, propagate with A powers.

    Uses only the gain's measured block and L_d; the propagation with
    A_powers reproduces L_zi = A^(mu-i) L_zmu and L_x = A^mu L_zmu.
    With `buffers` (ObserverBuffers.for_state of a state of this plant),
    the estimates of `st` are overwritten and `st` is returned.
    """
    if buffers is not None:
        return _update_in_place(st, u_k, y_k, buffers)
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
