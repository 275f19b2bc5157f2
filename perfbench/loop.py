"""Set-up and closed-loop measurement of one workload.

Everything here calls the public functions of the orbitmpc package; the
controller handed to ``sim.simulate`` is a duck-typed wrapper that times
each ``MpcController.step`` call from the outside.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from orbitmpc import bundle, model, sim
from orbitmpc.errors import OrbitMpcError

BENCH_DIR = Path(__file__).resolve().parent
WARMUP = 50            # samples at the start of every pass that are not timed
SLACK = 1e-9           # allowed excess over |u| <= alpha and |u_k - u_{k-1}| <= rho
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 1.5   # stop repeating set-up once this much time is spent (after MIN_REPS)


def make_plant(w):
    return model.synthetic_plant(w.n_y, w.n_u, w.kappa, w.plant_seed, dt=w.dt, mu=w.mu,
                                 bandwidth=2.0 * np.pi * w.bandwidth_hz)


def make_disturbance(w, seed: int) -> sim.DisturbanceSpec:
    return sim.DisturbanceSpec(kind="sinusoid_mix", sigma=w.dist_sigma, seed=seed,
                               components=w.tones, dt=w.dt)


def set_up(w, bundle_dir):
    """The CLI's design -> bench path: plant, design, bundle round trip, controller."""
    plant = make_plant(w)
    designed = bundle.design_controller(plant, w.horizon, weights_mode=w.weights, sigma_v=w.sigma_v,
                                        sigma_w=w.sigma_w, sigma_m=w.sigma_m, epsilon=w.epsilon)
    bundle.save_bundle(designed, bundle_dir)
    loaded = bundle.load_bundle(bundle_dir)
    return plant, loaded, loaded.mpc_controller(w.i_max)


def timed_set_ups(w, work_dir):
    """Repeat set_up and return (wall seconds per repetition, last result).

    Design errors propagate: the caller reports the workload as failed.
    """
    times = []
    result = None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        bundle_dir = os.path.join(work_dir, f"bundle-{len(times)}")
        t0 = time.perf_counter()
        result = set_up(w, bundle_dir)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(bundle_dir)
    return times, result


def infeasible_samples(u: np.ndarray, alpha: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Boolean mask of samples whose applied input is non-finite or breaks
    |u_k| <= alpha or |u_k - u_{k-1}| <= rho by more than SLACK (u_{-1} = 0,
    the controller's reset state)."""
    u = np.asarray(u, dtype=float)
    u_prev = np.vstack([np.zeros((1, u.shape[1])), u[:-1]])
    with np.errstate(invalid="ignore"):
        bad = ~np.all(np.isfinite(u), axis=1)
        bad |= np.any(np.abs(u) > alpha + SLACK, axis=1)
        bad |= np.any(np.abs(u - u_prev) > rho + SLACK, axis=1)
    return bad


class TimedController:
    """Duck-typed controller for sim.simulate around an MpcController.

    Records the wall time of every inner ``step`` call.  A step that raises
    or returns a non-finite input is a failed sample: the previous input is
    applied instead so the loop keeps running.
    """

    def __init__(self, inner, n_u: int):
        self.inner = inner
        self.n_u = n_u
        self.reset()

    def stage_timers(self):
        """Per-stage timers dict for the coming sample, or None."""
        return None

    def reset(self):
        self.inner.reset()
        self.k = -1
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.stages: list[dict | None] = []
        self.failed: dict[int, str] = {}
        self.u_prev = np.zeros(self.n_u)

    def step(self, y_k):
        self.k += 1
        timers = self.stage_timers()
        t0 = time.perf_counter_ns()
        try:
            u_k = self.inner.step(y_k, timers=timers)
        except Exception as exc:  # a failing sample is counted; the loop goes on
            u_k = None
            self.failed[self.k] = f"step raised {exc!r}"
        t1 = time.perf_counter_ns()
        self.start_ns.append(t0)
        self.end_ns.append(t1)
        self.stages.append(timers)
        if u_k is not None and not np.all(np.isfinite(u_k)):
            self.failed[self.k] = "non-finite input"
            u_k = None
        if u_k is None:
            return self.u_prev.copy()
        self.u_prev = u_k
        return u_k


@dataclasses.dataclass
class Pass:
    """One closed-loop run."""

    steps: int
    trace: sim.SimTrace | None
    wall_s: float
    step_ns: np.ndarray          # every sample's step time
    failed: dict                 # sample index -> reason


def run_pass(plant, timed: TimedController, dist, T: int) -> Pass:
    t0 = time.perf_counter()
    try:
        trace = sim.simulate(plant, timed, dist, T)
    except OrbitMpcError as exc:
        wall = time.perf_counter() - t0
        return Pass(T, None, wall, np.zeros(0), {k: f"simulate raised {exc!r}" for k in range(T)})
    wall = time.perf_counter() - t0
    failed = dict(timed.failed)
    for k in np.nonzero(infeasible_samples(trace.u, plant.alpha, plant.rho))[0]:
        failed.setdefault(int(k), "input outside the amplitude or slew limits")
    step_ns = np.asarray(timed.end_ns, dtype=np.int64) - np.asarray(timed.start_ns, dtype=np.int64)
    return Pass(T, trace, wall, step_ns, failed)


def run_passes(plant, timed: TimedController, dist, T: int, seconds: float) -> list[Pass]:
    """Closed-loop passes until `seconds` are spent.

    The first pass is T samples long; later ones are cut to the time left
    (the disturbance of a shorter pass is a prefix of the full one).  Every
    pass replays the same disturbance from a reset controller, so a sample
    whose input differs from the first pass's is marked failed.
    """
    passes = []
    start = time.perf_counter()
    steps = T
    while steps > 2 * WARMUP:
        p = run_pass(plant, timed, dist, steps)
        passes.append(p)
        if p.trace is None or passes[0].trace is None:
            break
        differs = np.any(p.trace.u != passes[0].trace.u[:steps], axis=1)
        for k in np.nonzero(differs)[0]:
            p.failed.setdefault(int(k), "input differs from the first pass")
        left = seconds - (time.perf_counter() - start)
        steps = min(T, int(left / p.wall_s * steps))
    return passes


def timed_samples_us(passes: list[Pass]) -> np.ndarray:
    """Step times after each pass's warm-up, in microseconds."""
    return np.concatenate([p.step_ns[WARMUP:] for p in passes]) / 1e3


def ibm_ratio(w, trace_mpc: sim.SimTrace, trace_off: sim.SimTrace) -> float:
    """Integrated motion at the band edge, MPC loop over uncontrolled loop."""
    freqs, curve_mpc = sim.ibm(trace_mpc)
    _, curve_off = sim.ibm(trace_off)
    return sim.ibm_at(freqs, curve_mpc, w.band_edge_hz) / sim.ibm_at(freqs, curve_off, w.band_edge_hz)


def check_ibm(name: str, seed: int, ratio: float) -> str | None:
    """Compare with the ratio recorded in reference.json, within the
    metric's bound in BENCHMARK.json: that seed's value if it was recorded,
    otherwise the recorded range.  Returns a description of a mismatch."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ibm_ratio")
    recorded = json.loads((BENCH_DIR / "reference.json").read_text()).get(name)
    if not recorded:
        return f"no recorded ibm_ratio for {name}"
    if str(seed) in recorded:
        ref = recorded[str(seed)]
        if not abs(ratio - ref) <= bound * ref:
            return f"ibm_ratio {ratio!r} differs from the recorded {ref!r} by more than {bound:.0%}"
        return None
    lo, hi = min(recorded.values()), max(recorded.values())
    if not lo * (1.0 - bound) <= ratio <= hi * (1.0 + bound):
        return f"ibm_ratio {ratio!r} outside the recorded range [{lo!r}, {hi!r}] widened by {bound:.0%}"
    return None
