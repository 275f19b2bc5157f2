"""Closed-loop simulation, baseline controller and spectral metrics.

The plant loop is a strict time recursion: first-order actuator states
driven by the applied inputs, a mu-sample ring buffer modelling the
transport delay, and an additive output disturbance,

    x[k+1] = A x[k] + B u[k],      y[k] = C x[k - mu] + d[k].

Controllers are duck-typed: anything with step(y) -> u (and reset()).
Provided here are the modal regularized-inverse baseline with an
integrating temporal filter (`ImcController`) and the full predictive
stack (`MpcController`: delayed observer -> linear-term update ->
constraint-set update -> fast-gradient solve, apply the first stage).

The performance metric is the integrated motion curve: the cumulative
one-sided power spectrum of each monitor, square-rooted, normalized so a
pure sinusoid of amplitude A integrates to its RMS value A/sqrt(2) (the
full curve endpoint then equals the time-domain RMS, by Parseval).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import fgm, fileio, qp
from .errors import ConfigError, DimensionError, NumericalError
from .model import PlantConfig, StateSpace, build_state_space
from .observer import ModalRecord, ObserverState, update_fast

DISTURBANCE_KINDS = ("white", "random_walk", "sinusoid_mix", "file")


@dataclasses.dataclass(frozen=True, eq=False)
class SimTrace:
    """Time series of one closed-loop run."""

    y: np.ndarray
    u: np.ndarray
    d: np.ndarray
    dt: float

    @property
    def steps(self) -> int:
        return self.y.shape[0]


@dataclasses.dataclass(frozen=True)
class DisturbanceSpec:
    """What to inject at the output.

    kinds: 'white' (iid normal, scale sigma), 'random_walk' (cumulative
    white drive), 'sinusoid_mix' (spatially shaped tones given as
    (freq_hz, amplitude, spatial_mode_index) triples, on top of an iid
    noise floor of scale sigma), 'file' (CSV, one row per step).
    """

    kind: str = "white"
    sigma: float = 1.0
    seed: int = 0
    components: tuple = ()
    path: str | None = None
    dt: float | None = None

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        if not 0.0 <= self.sigma < np.inf:  # NaN fails too
            raise ConfigError(f"disturbance sigma must be non-negative and finite, got {self.sigma}")


def spatial_mode_shape(mode: int, n_y: int) -> np.ndarray:
    """Orthonormal cosine shape across the monitors (DCT-II row)."""
    j = np.arange(n_y)
    if mode == 0:
        return np.full(n_y, 1.0 / np.sqrt(n_y))
    return np.sqrt(2.0 / n_y) * np.cos(np.pi * mode * (2 * j + 1) / (2 * n_y))


def check_components(components, n_y: int) -> None:
    """Reject a sinusoid-mix component with a non-finite frequency or
    amplitude, or whose spatial mode is not one of the n_y monitor shapes
    (a mode past n_y - 1 would alias onto another)."""
    for freq_hz, amplitude, mode in components:
        if not (np.isfinite(freq_hz) and np.isfinite(amplitude)):
            raise ConfigError(f"disturbance component {freq_hz}:{amplitude}:{mode}: frequency "
                              "and amplitude must be finite")
        if not 0 <= mode < n_y:
            raise ConfigError(f"disturbance component {freq_hz}:{amplitude}:{mode}: spatial mode "
                              f"{mode} is outside 0..{n_y - 1} for {n_y} monitors")


def disturbance(spec: DisturbanceSpec, T: int, n_y: int, dt: float | None = None) -> np.ndarray:
    """Generate a T x n_y disturbance series, deterministic per seed."""
    if T < 1:
        raise ConfigError("need T >= 1")
    dt = spec.dt if spec.dt is not None else dt
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "white":
        return rng.normal(0.0, spec.sigma, (T, n_y)) if spec.sigma > 0 else np.zeros((T, n_y))
    if spec.kind == "random_walk":
        steps = rng.normal(0.0, spec.sigma, (T, n_y)) if spec.sigma > 0 else np.zeros((T, n_y))
        return np.cumsum(steps, axis=0)
    if spec.kind == "sinusoid_mix":
        if dt is None:
            raise ConfigError("sinusoid_mix needs the sampling time")
        check_components(spec.components, n_y)
        out = rng.normal(0.0, spec.sigma, (T, n_y)) if spec.sigma > 0 else np.zeros((T, n_y))
        t = np.arange(T) * dt
        for freq_hz, amplitude, mode in spec.components:
            if freq_hz >= 0.5 / dt:
                raise ConfigError(f"component at {freq_hz} Hz is not below Nyquist {0.5 / dt} Hz")
            out += np.outer(amplitude * np.sin(2.0 * np.pi * freq_hz * t), spatial_mode_shape(int(mode), n_y))
        return out
    # file
    if spec.path is None:
        raise ConfigError("file disturbance needs a path")
    data = fileio.read_matrix(spec.path)
    if data.shape[1] != n_y:
        raise ConfigError(f"{spec.path}: expected {n_y} columns, got {data.shape[1]}")
    if data.shape[0] < T:
        raise ConfigError(f"{spec.path}: only {data.shape[0]} rows, need {T}")
    return data[:T]


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------

def checked_measurement(y_k, n_y: int, finite: bool = True) -> np.ndarray:
    """y_k as a float64 array of shape (n_y,).  Another shape or dtype
    raises DimensionError; unless `finite` is False (the caller checks it
    itself), a non-finite entry raises NumericalError naming the monitor."""
    y = np.asarray(y_k)
    if y.dtype != np.float64 or y.shape != (n_y,):
        raise DimensionError(f"measurement of shape {y.shape} and dtype {y.dtype}: expected "
                             f"float64 of shape ({n_y},)")
    if finite and np.count_nonzero(np.isfinite(y)) < n_y:
        raise _non_finite_measurement(y)
    return y


def _non_finite_measurement(y: np.ndarray) -> NumericalError:
    """The error for a measurement with a non-finite entry, naming the first."""
    bad = int(np.flatnonzero(~np.isfinite(y))[0])
    return NumericalError(f"non-finite measurement {y[bad]} at monitor {bad}")


def _overflowing_measurement(y: np.ndarray) -> NumericalError:
    """The error for a finite measurement whose estimates, or the linear
    term they give, would not be finite."""
    return NumericalError(f"measurement overflows the observer update (largest |y| "
                          f"{np.max(np.abs(y)):g}): the estimates or their linear term "
                          "would not be finite")


class ImcController:
    """Modal regularized-inverse controller with an integrating filter.

    Per mode: ŷ = U^T y is lag-filtered (first-order, `bandwidth_hz`),
    accumulated, and fed back as û = -(w_cl dt) k ⊙ s where
    k = sigma/(sigma^2 + lambda).  The (w_cl dt) factor places the loop
    crossover of a well-regularized mode near the configured bandwidth.
    With clip=True outputs are clamped to the amplitude/slew-rate box and
    the affected modes' integrators hold (conditional integration), the
    usual anti-windup guard.  The measurement is checked as
    MpcController's is (`checked_measurement`).
    """

    def __init__(self, basis, k_imc, dt: float, bandwidth_hz: float,
                 clip: bool = False, alpha=None, rho=None):
        nyquist_hz = 0.5 / dt
        if not 0.0 < bandwidth_hz < nyquist_hz:  # NaN fails too
            raise ConfigError(f"baseline bandwidth must be positive and below the Nyquist frequency "
                              f"0.5 / dt = {nyquist_hz:g} Hz, got {bandwidth_hz}")
        self.U = basis.U
        self.V = basis.V
        self.k_imc = np.asarray(k_imc, dtype=float)
        self.dt = dt
        self.gain_scale = 2.0 * np.pi * bandwidth_hz * dt
        self.phi = np.exp(-2.0 * np.pi * bandwidth_hz * dt)
        self.clip = clip
        if clip and (alpha is None or rho is None):
            raise ConfigError("clipped baseline needs alpha and rho")
        self.alpha = None if alpha is None else np.asarray(alpha, dtype=float)
        self.rho = None if rho is None else np.asarray(rho, dtype=float)
        self.reset()

    def reset(self):
        r = self.k_imc.shape[0]
        self.lag = np.zeros(r)
        self.integ = np.zeros(r)
        self.u_prev = np.zeros(self.V.shape[0])

    def step(self, y_k: np.ndarray) -> np.ndarray:
        y_modal = self.U.T @ checked_measurement(y_k, self.U.shape[0])
        self.lag = self.phi * self.lag + (1.0 - self.phi) * y_modal
        integ_prev = self.integ.copy()
        self.integ = self.integ + self.lag
        u_modal = -self.gain_scale * self.k_imc * self.integ
        u = self.V @ u_modal
        if not self.clip:
            self.u_prev = u
            return u
        lo = np.maximum(-self.alpha, self.u_prev - self.rho)
        hi = np.minimum(self.alpha, self.u_prev + self.rho)
        u_clipped = np.clip(u, lo, hi)
        if not np.array_equal(u_clipped, u):
            realized = self.V.T @ u_clipped
            commanded = u_modal
            blocked = np.abs(realized - commanded) > 1e-12 * (1.0 + np.abs(commanded))
            self.integ[blocked] = integ_prev[blocked]
        self.u_prev = u_clipped
        return u_clipped


class MpcController:
    """The online predictive stack: observer, q update, set update, solve.

    Per sample: check the measurement, build the QP linear term from the
    current state and disturbance estimates, recentre the constraint set
    on the previously applied input, run the fast-gradient solve
    warm-started at the previous solution, apply the first stage, then
    advance the observer with the applied input and this sample's
    measurement.  The solve's budget i_max is a worst case: the compiled
    solve of an untimed sample stops where the iterate has stopped
    changing bit for bit, with the bits of the whole budget (see `fgm`);
    `iterations` is the count the last solve ran.  The measurement must
    be a float64 array of shape (n_y,) (else DimensionError) and finite
    (else NumericalError naming the monitor); a finite one whose
    estimates, or the linear term they give, overflow is refused with a
    NumericalError too.  A refused sample leaves the controller as it
    was.

    The controller owns the compiled solve's `Workspace`, built once.
    `cset` is the set the last staged sample (below) solved over, each a
    new one from `update_constraint_set`, so no set is written after the
    solve that took it.

    Given the `ModalRecord` of a one-bandwidth plant (`modes`) that is
    `within_tolerance`, and where the compiled kernel builds, the
    estimates are kept by mode in one state array (`observer_form`
    'modal'); `observer` forms the plant-coordinate estimates when read.
    A sample then runs in the kernel, in one of two ways that share one
    state: the estimates with the linear term the next sample solves
    with, `u_prev`, and the warm start `warm`, which is the workspace's
    iterate.
      - Without `timers`, one call of the kernel module's `Step`, bound
        here to a context block, runs its `mpc_step` on the whole
        sample, recentring the controller's own set array, and returns
        a new array of the applied input.  It reads y in place where y
        is an aligned, C-contiguous, native float64 ndarray of shape
        (n_y,); anything else it hands back (NotImplemented) to
        `checked_measurement`, which accepts or refuses it, and an
        accepted y is passed again as such an array.
      - With `timers`, the staged calls: a copy of the linear term,
        `update_constraint_set`, `fgm.solve`, and `Step`'s observe, which
        runs the kernel's modal_observe on y, made aligned and
        C-contiguous, and the applied input, each timed (the benchmark's
        tracer also wraps and re-solves `fgm.solve`).
    Both give the same bytes, which agree with the dense reference
    functions to rounding.  Both refuse a y whose U^T y, new estimates
    or next linear term are not finite: mpc_step checks U^T y before
    the solve, observe after it, which reads only the linear term
    of the last sample; the timed path then puts back the warm start
    that the solve overwrote.
    Otherwise (`observer_form` 'dense') each sample calls the reference
    functions themselves (`update_constraint_set`, `fgm.solve`,
    `update_fast` and `linear_term`), each of which returns new arrays,
    so the applied inputs are bit for bit theirs.  The dense path forms
    the next sample's linear term with the new estimates and refuses the
    measurement where either is not finite, so it keeps its warm start
    apart from the workspace, whose solve has run by then.  Both paths
    solve in one serial loop (see `fgm`).
    """

    def __init__(self, ss: StateSpace, condensed: qp.CondensedQP, gain,
                 alpha, rho, i_max: int = fgm.DEFAULT_I_MAX,
                 modes: ModalRecord | None = None):
        if condensed.n_u != ss.n_u:
            raise DimensionError("condensed QP does not match the plant dimensions")
        self.ss = ss
        self.qp = condensed
        self.gain = gain
        self.alpha = np.array(alpha, dtype=float)
        self.rho = np.array(rho, dtype=float)
        self.i_max = fgm._iteration_budget(i_max)
        kernel = fgm._load_kernel()  # builds the compiled kernel here, not inside the first sample
        self._cset0 = qp.ConstraintSet(alpha=self.alpha, rho=self.rho,
                                       u_prev=np.zeros(ss.n_u), N=condensed.N)
        self._workspace = fgm.Workspace(condensed)
        self._compiled = kernel is not None
        usable = modes is not None and modes.within_tolerance
        self._modes = modes if kernel is not None and usable else None
        if self._modes is not None:
            if (modes.n_u, modes.n_y, modes.mu, modes.N) != (ss.n_u, ss.n_y, ss.mu, condensed.N):
                raise DimensionError("modal record does not match the plant and QP dimensions")
            self._initial = ObserverState.initial(ss, gain)  # checks the gain, as reset does
            self._modal_state = modes.new_state()
            self._q = modes.linear_term(self._modal_state)
            self.u_prev = np.zeros(ss.n_u)
            # the set array, then room for mpc_step's copy of it; the entries
            # free of u_prev (stage-1 box, finite-alpha band, rho) stay as set here
            packed = self._cset0._packed
            self._set = np.concatenate([packed, packed])[:packed.size]
            ws = self._workspace
            self._context = fgm.step_context(
                record=modes.packed, n_u=ss.n_u, n_y=ss.n_y, mu=ss.mu, horizon=condensed.N,
                state=self._modal_state, w=ws.matrix, n_k=ws.n_k, beta=condensed.beta,
                budget=self.i_max, lambda_max=condensed.lambda_max, data=ws.data, set=self._set,
                alpha=self._cset0.alpha, rho=self._cset0.rho, u_prev=self.u_prev)
            self._step = kernel.Step(self._context, self.u_prev, ss.n_y)
        self.reset()

    @property
    def observer_form(self) -> str:
        """'modal' where the estimates are kept by mode, else 'dense'."""
        return "dense" if self._modes is None else "modal"

    @property
    def iterations(self) -> int:
        """The iterations the last solve ran: the compiled kernel's count,
        at most i_max (see fgm.solve), else i_max, which the numpy loop
        always runs."""
        return self._workspace.iterations if self._compiled else self.i_max

    @property
    def observer(self) -> ObserverState:
        """The estimates in plant coordinates; on the modal path a new
        state formed from the modal one."""
        if self._modes is None:
            return self._observer
        return self._modes.plant_estimates(self._modal_state, self._initial)

    def reset(self):
        self.cset = self._cset0
        if self._modes is None:
            self._observer = ObserverState.initial(self.ss, self.gain)
            self._q = self.qp.linear_term(self._observer.x_hat, self._observer.d_hat)
            self.u_prev = self.cset.u_prev
            self.warm = np.zeros(self.qp.N * self.ss.n_u)
        else:
            self._modal_state.fill(0.0)
            self.u_prev.fill(0.0)
            self.warm = self._workspace.iterate
            self.warm.fill(0.0)

    def step(self, y_k: np.ndarray, timers: dict | None = None) -> np.ndarray:
        if timers is None and self._modes is not None:
            u_k = self._step(y_k)  # which checks finiteness
            if u_k is NotImplemented:  # not a native float64 (n_y,) array that C can read in place
                y_k = np.require(checked_measurement(y_k, self.ss.n_y, finite=False),
                                 requirements="CA")
                u_k = self._step(y_k)
            if type(u_k) is int:
                raise self._refusal(u_k, y_k)
            return u_k
        y_k = checked_measurement(y_k, self.ss.n_y)
        tic = time.perf_counter_ns() if timers is not None else 0
        if self._modes is None:
            q_vec = self._q  # formed, and checked, with the estimates
        else:  # timed: the staged calls
            q_vec = self._q.copy()  # formed with the estimates; the observe below overwrites it
            warm = self.warm.copy()  # the workspace's iterate, which the solve overwrites
        if timers is not None:
            tic = fgm._add_ns(timers, "q_update", tic)
        cset = qp.update_constraint_set(self.cset, self.u_prev)
        if timers is not None:
            fgm._add_ns(timers, "set_update", tic)
        u_plan = fgm.solve(self.qp, q_vec, cset, self.warm, i_max=self.i_max,
                           timers=timers, workspace=self._workspace)
        u_k = u_plan[: self.ss.n_u].copy()
        tic = time.perf_counter_ns() if timers is not None else 0
        if self._modes is None:
            # the next sample's linear term, so that a measurement whose
            # estimates or linear term overflow is refused here
            with np.errstate(over="ignore", invalid="ignore"):
                observer = update_fast(self._observer, u_k, y_k)
                if timers is not None:
                    tic = fgm._add_ns(timers, "observer", tic)
                q_next = self.qp.linear_term(observer.x_hat, observer.d_hat)
            if timers is not None:
                fgm._add_ns(timers, "q_update", tic)
            if not all(np.isfinite(a).all() for a in (q_next, observer.x_hat, observer.z_hat,
                                                      observer.d_hat)):
                raise _overflowing_measurement(y_k)
            self._observer, self._q, self.u_prev = observer, q_next, u_k
            np.copyto(self.warm, u_plan)
        else:  # U^T y, the new estimates and the next linear term, kept only where finite
            if not self._step.observe(np.require(y_k, requirements="CA"), u_k):
                np.copyto(self.warm, warm)
                raise _overflowing_measurement(y_k)
            if timers is not None:
                fgm._add_ns(timers, "observer", tic)
            np.copyto(self.u_prev, u_k)
            self.warm = u_plan
        self.cset = cset
        return u_k

    def _refusal(self, failed: int, y_k: np.ndarray) -> Exception:
        """The error the staged path raises for what mpc_step refused."""
        if failed == fgm.MEASUREMENT_REFUSED:
            if np.count_nonzero(np.isfinite(y_k)) < y_k.size:
                return _non_finite_measurement(y_k)
            return _overflowing_measurement(y_k)
        if failed == fgm.SET_REFUSED:
            qp.update_constraint_set(self.cset, self.u_prev)  # raises the reference's error
            return NumericalError(f"compiled set recentring refused u_prev = {self.u_prev}, "
                                  "which update_constraint_set accepts")
        return NumericalError(f"non-finite iterate at iteration {failed}")


# ---------------------------------------------------------------------------
# Simulation loop
# ---------------------------------------------------------------------------

def simulate(plant: PlantConfig, controller, dist: DisturbanceSpec, T: int) -> SimTrace:
    """Run the closed loop for T steps and collect the trace.

    `controller` may be None (uncontrolled).
    """
    ss = build_state_space(plant)
    d = disturbance(dist, T, plant.n_y, dt=plant.dt)
    if controller is not None and hasattr(controller, "reset"):
        controller.reset()
    mu = plant.mu
    x_hist = np.zeros((T + 1, plant.n_u))
    y_out = np.zeros((T, plant.n_y))
    u_out = np.zeros((T, plant.n_u))
    for k in range(T):
        x_delayed = x_hist[k - mu] if k >= mu else np.zeros(plant.n_u)
        y_k = ss.C @ x_delayed + d[k]
        if controller is not None:
            try:
                u_k = controller.step(y_k)
            except NumericalError as exc:  # InfeasibleError stays one
                raise type(exc)(f"controller failed at simulation step {k}: {exc}") from exc
            if np.shape(u_k) != (plant.n_u,):
                raise DimensionError(f"controller output at simulation step {k} has shape "
                                     f"{np.shape(u_k)}, expected ({plant.n_u},)")
        else:
            u_k = np.zeros(plant.n_u)
        if not (np.all(np.isfinite(u_k)) and np.all(np.isfinite(y_k))):
            raise NumericalError(f"non-finite state at simulation step {k}")
        x_hist[k + 1] = ss.A * x_hist[k] + ss.B * u_k
        y_out[k] = y_k
        u_out[k] = u_k
    return SimTrace(y=y_out, u=u_out, d=d, dt=plant.dt)


# ---------------------------------------------------------------------------
# Integrated-motion metric
# ---------------------------------------------------------------------------

def ibm_from_signal(y: np.ndarray, dt: float):
    """Per-monitor integrated-motion curves.

    Returns (freqs_hz, curves) with curves shaped (n_freqs, n_y): entry
    (F, i) is the RMS motion of monitor i accumulated over all frequency
    bins up to F.  The signal mean is removed first; the last row equals
    the time-domain RMS of the detrended signal.
    """
    T = y.shape[0]
    if T < 2:
        raise ConfigError("need at least two samples for a spectrum")
    centred = y - y.mean(axis=0, keepdims=True)
    Y = np.fft.rfft(centred, axis=0)
    weights = np.full(Y.shape[0], 2.0 / T ** 2)
    weights[0] = 1.0 / T ** 2
    if T % 2 == 0:
        weights[-1] = 1.0 / T ** 2
    power = weights[:, None] * np.abs(Y) ** 2
    curves = np.sqrt(np.cumsum(power, axis=0))
    return np.fft.rfftfreq(T, dt), curves


def ibm(trace: SimTrace, monitor="average"):
    """Integrated-motion curve for one monitor or averaged across all."""
    freqs, curves = ibm_from_signal(trace.y, trace.dt)
    if monitor == "average":
        return freqs, curves.mean(axis=1)
    return freqs, curves[:, int(monitor)]


def ibm_at(freqs: np.ndarray, curve: np.ndarray, f_hz: float) -> float:
    """Curve value at the highest bin not above f_hz."""
    idx = np.searchsorted(freqs, f_hz, side="right") - 1
    return float(curve[max(idx, 0)])
