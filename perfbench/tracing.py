"""Traced run: per-layer times, counts and probes for one workload.

Layers are timed from the outside.  For the duration of the traced run
the public functions of ``model``, ``design``, ``qp``, ``fgm``,
``observer`` (as bound in ``sim``), ``sim`` and ``bundle`` are replaced
by wrappers that record spans; the six solve stages come from the
``timers=`` argument of ``MpcController.step``.  Spans are kept in
memory as ``(name, start_ns, end_ns, parent, request)`` tuples, where
``request`` is the sample index (the set-up repetition for set-up spans)
and ``parent`` names the enclosing span of the same request, and are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import time

import numpy as np

from orbitmpc import bundle, design, fgm, qp, sim
from orbitmpc.errors import OrbitMpcError

import loop

USEFULNESS_PROBES = 24        # samples per traced pass whose QP is re-solved to convergence
CONVERGENCE_CAP_BUDGETS = 10  # converged_iterations stops at this many i_max budgets
POOL_HANDOFF_REPS = 200
POOL_GRADIENT_REPS = 30
SCALING_ROWS = (16, 96, 346)  # stand-in QP sizes; 346 is the storage ring's N=2 shape
MAX_PROBE_WORKERS = 8
POOL_WORKERS = 2              # pool size for the handoff and pool-gradient metrics


class Tracer:
    """Span recorder; while ``on`` is false the wrappers only pass through."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.on = True
        self.request = lambda: None   # id of the request being served

    def wrap(self, name, parent):
        """Decorator factory: record a span around every call."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.spans.append((name, t0, time.perf_counter_ns(), parent, self.request()))
            return wrapper
        return make

    def durations_ns(self, name, requests=None) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans
                         if s[0] == name and (requests is None or s[4] in requests)], dtype=np.int64)


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily replace attributes: each item is (owner, attr, make_wrapper)."""
    originals = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def traced_set_up(w, tracer: Tracer, bundle_dir):
    """One set-up with a span around every design layer; returns the set-up
    result and the size of the written bundle in bytes."""
    tracer.request = lambda: 0
    weights = "design_weights_saturated" if w.weights == "saturated" else "design_weights_imc_matched"
    with patched(
        (bundle, "modal_decompose", tracer.wrap("model.modal_decompose", "setup")),
        (design, weights, tracer.wrap("design.weights", "setup")),
        (design, "solve_dare", tracer.wrap("design.dare", "setup")),
        (design, "setpoint_matrix", tracer.wrap("design.setpoint", "setup")),
        (design, "kalman_gain", tracer.wrap("design.kalman", "setup")),
        (qp, "build_condensed", tracer.wrap("qp.build_condensed", "setup")),
        (bundle, "save_bundle", tracer.wrap("bundle.save", "setup")),
        (bundle, "load_bundle", tracer.wrap("bundle.load", "setup")),
    ):
        t0 = time.perf_counter_ns()
        result = loop.set_up(w, bundle_dir)
        tracer.spans.append(("setup", t0, time.perf_counter_ns(), None, 0))
    size = sum(e.stat().st_size for e in os.scandir(bundle_dir) if e.is_file())
    shutil.rmtree(bundle_dir)
    return result, size


class _ProbeCounter:
    """Counts ConstraintSet.project calls and the share of units they move:
    coordinates for N = 1, stage pairs for N = 2."""

    def __init__(self):
        self.calls = 0
        self.units = 0
        self.moved = 0

    def wrap(self, original):
        def project(cset, t):
            out = original(cset, t)
            moved = out != t
            if cset.N == 2:
                moved = moved.reshape(2, cset.n_u).any(axis=0)
            self.calls += 1
            self.units += moved.size
            self.moved += int(np.count_nonzero(moved))
            return out
        return project


class TracedController(loop.TimedController):
    """Traces every other sample: even samples run with stage timers and
    span wrappers, odd ones without, so both halves see the same machine
    conditions and their difference is the tracing overhead."""

    def __init__(self, inner, n_u: int, tracer: Tracer):
        self.tracer = tracer
        super().__init__(inner, n_u)

    def stage_timers(self):
        self.tracer.on = self.k % 2 == 0
        return {} if self.tracer.on else None


def traced_pass(w, plant, ctrl, dist, tracer: Tracer, probe_every: int):
    """One closed-loop pass with stage timers and layer spans on even samples.

    On probe samples (every probe_every-th traced one) the solve's
    (q, cset, warm) are kept for the usefulness probe and projections are
    counted; probe samples are left out of the stage statistics because
    the counting wrapper adds cost.
    """
    timed = TracedController(ctrl, plant.n_u, tracer)
    counter = _ProbeCounter()
    probes = []

    def is_probe(k):
        return k >= loop.WARMUP and k % 2 == 0 and (k // 2) % probe_every == 0

    def wrap_solve(original):
        timed_solve = tracer.wrap("fgm.solve", "mpc.step")(original)

        def solve(qp_, q, cset, warm, **kwargs):
            if not is_probe(timed.k):
                return timed_solve(qp_, q, cset, warm, **kwargs)
            probes.append((qp_, np.array(q), cset, np.array(warm)))
            with patched((qp.ConstraintSet, "project", counter.wrap)):
                return timed_solve(qp_, q, cset, warm, **kwargs)
        return solve

    tracer.request = lambda: timed.k if timed.k >= 0 else None
    with patched(
        (sim, "disturbance", tracer.wrap("sim.disturbance", "sim.simulate")),
        (sim, "update_fast", tracer.wrap("observer.update", "mpc.step")),
        (qp.CondensedQP, "linear_term", tracer.wrap("qp.linear_term", "mpc.step")),
        (qp, "update_constraint_set", tracer.wrap("qp.update_constraint_set", "mpc.step")),
        (fgm, "solve", wrap_solve),
    ):
        t0 = time.perf_counter_ns()
        p = loop.run_pass(plant, timed, dist, w.T)
        t1 = time.perf_counter_ns()
    tracer.on = True
    tracer.request = lambda: None
    tracer.spans.append(("sim.simulate", t0, t1, None, None))
    tracer.spans.extend(("mpc.step", a, b, "sim.simulate", k)
                        for k, (a, b) in enumerate(zip(timed.start_ns, timed.end_ns)) if k % 2 == 0)
    traced = [k for k in range(loop.WARMUP, w.T, 2) if not is_probe(k)]
    untraced = list(range(loop.WARMUP + 1, w.T, 2))
    return p, timed, traced, untraced, counter, probes


def usefulness(w, probes, epsilon: float):
    """Re-solve probe QPs to convergence: (useful_iter_frac, capped_frac)."""
    cap = CONVERGENCE_CAP_BUDGETS * w.i_max
    used, capped = [], []
    for qp_, q, cset, warm in probes:
        res = fgm.converged_iterations(qp_, q, cset, warm, epsilon, cap=cap)
        used.append(min(res.iterations, w.i_max))
        capped.append(res.capped)
    return float(np.mean(used)) / w.i_max, float(np.mean(capped))


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times)) / 1e3


def _stand_in_qp(rows: int, rng) -> qp.CondensedQP:
    """A random SPD horizon-2 QP of the given size (the gradient step's
    cost depends only on the shape)."""
    a = rng.standard_normal((rows, rows))
    J = a @ a.T / rows + np.eye(rows)
    lmin, lmax, beta = qp.spectral_bounds(J)
    zeros = np.zeros((rows, 1))
    return qp.CondensedQP(J=J, q_map_x0=zeros, q_map_d=zeros, lambda_min=lmin,
                          lambda_max=lmax, beta=beta, N=2, n_u=rows // 2)


def pool_scaling(condensed, errors: list):
    """Serial vs row-sliced gradient step for 1..max(2, nproc) workers.

    Returns (table rows, empty-task handoff us and 2-worker gradient us on
    the workload QP, smallest probed size at which extra workers pay off,
    0 if none).
    Any parallel result that is not bit-identical to the serial one is
    reported in `errors`.
    """
    rng = np.random.default_rng(0)
    nproc = len(os.sched_getaffinity(0))
    max_workers = min(max(2, nproc), MAX_PROBE_WORKERS)
    qps = [("workload", condensed)] + [(f"stand-in {r}", _stand_in_qp(r, rng)) for r in SCALING_ROWS]
    table = []
    payoff = []
    for label, cq in qps:
        rows = cq.N * cq.n_u
        v = rng.standard_normal(rows)
        q = rng.standard_normal(rows)
        serial = fgm.gradient_step(cq, v, q)
        serial_us = _median_us(lambda: fgm.gradient_step(cq, v, q), POOL_GRADIENT_REPS)
        per_workers = {}
        for n in range(1, max_workers + 1):
            plan = fgm.make_worker_plan(rows, n)
            if not np.array_equal(fgm.gradient_step_parallel(cq, v, q, plan), serial):
                errors.append(f"{label} QP ({rows} rows): {n}-worker gradient differs from serial")
            per_workers[n] = _median_us(lambda: fgm.gradient_step_parallel(cq, v, q, plan),
                                        POOL_GRADIENT_REPS)
        table.append({"qp": label, "rows": rows, "serial_us": serial_us,
                      "parallel_us": {str(n): t for n, t in per_workers.items()}})
        if min(per_workers[n] for n in per_workers if n > 1) < per_workers[1]:
            payoff.append(rows)
    pool = fgm.get_pool(POOL_WORKERS)
    handoff_us = _median_us(lambda: pool.run(lambda index: None), POOL_HANDOFF_REPS)
    pool_us = table[0]["parallel_us"][str(POOL_WORKERS)]
    return table, handoff_us, pool_us, (min(payoff) if payoff else 0)


def run_traced(w, seed: int, work_dir) -> dict:
    """Per-layer metrics of one workload; see BENCHMARK.json for the list."""
    tracer = Tracer()
    errors: list[str] = []
    (plant, b, ctrl), bundle_bytes = traced_set_up(w, tracer, os.path.join(work_dir, "bundle"))
    dist = loop.make_disturbance(w, seed)
    probe_every = max(1, (w.T - loop.WARMUP) // 2 // USEFULNESS_PROBES)
    p, timed, traced, untraced, counter, probes = traced_pass(w, plant, ctrl, dist, tracer, probe_every)

    if p.trace is not None:
        with patched((sim, "ibm", tracer.wrap("sim.ibm", None))):
            ratio = loop.ibm_ratio(w, p.trace, sim.simulate(plant, None, dist, w.T))
        problem = loop.check_ibm(w.name, seed, ratio)
        if problem:
            errors.append(f"traced run: {problem}")

    try:
        useful_frac, capped_frac = usefulness(w, probes, b.epsilon)
    except OrbitMpcError as exc:
        errors.append(f"usefulness probe raised {exc!r}")
        useful_frac = capped_frac = float("nan")

    table, handoff_us, pool_us, payoff_rows = pool_scaling(b.condensed, errors)

    def stage_us(name, per_iteration=False):
        values = np.array([timed.stages[k].get(name, 0) for k in traced], dtype=float) / 1e3
        return float(np.median(values)) / (w.i_max if per_iteration else 1)

    def span_s(name):
        return float(np.median(tracer.durations_ns(name))) / 1e9

    def step_p50_us(samples):
        return float(np.median(p.step_ns[samples])) / 1e3

    n = w.horizon * w.n_u
    gradient_us = stage_us("gradient", per_iteration=True)
    flops = 2 * n * n + n
    metrics = {
        "model.modal_decompose_s": (span_s("model.modal_decompose"), "s"),
        "design.weights_s": (span_s("design.weights"), "s"),
        "design.dare_s": (span_s("design.dare"), "s"),
        "design.kalman_s": (span_s("design.kalman"), "s"),
        "design.setpoint_s": (span_s("design.setpoint"), "s"),
        "qp.build_condensed_s": (span_s("qp.build_condensed"), "s"),
        "bundle.save_s": (span_s("bundle.save"), "s"),
        "bundle.load_s": (span_s("bundle.load"), "s"),
        "bundle.bytes": (bundle_bytes, "B"),
        "observer.update_us": (stage_us("observer"), "us"),
        "qp.linear_term_us": (stage_us("q_update"), "us"),
        "qp.set_update_us": (stage_us("set_update"), "us"),
        "qp.project_us": (stage_us("projection", per_iteration=True), "us"),
        "qp.project_calls": (counter.calls / max(len(probes), 1), "count"),
        "qp.project_moved_frac": (counter.moved / max(counter.units, 1), "1"),
        "fgm.solve_us": (float(np.median(tracer.durations_ns("fgm.solve", set(traced)))) / 1e3, "us"),
        "fgm.gradient_us": (gradient_us, "us"),
        "fgm.momentum_us": (stage_us("momentum", per_iteration=True), "us"),
        "fgm.gradient_flops": (flops, "flop"),
        "fgm.gradient_bytes": (8 * (n * n + 3 * n), "B"),
        "fgm.gradient_gflops": (flops / (gradient_us * 1e3), "GFLOP/s"),
        "fgm.pool_handoff_us": (handoff_us, "us"),
        "fgm.pool_gradient_us": (pool_us, "us"),
        "fgm.pool_payoff_rows": (payoff_rows, "count"),
        "fgm.useful_iter_frac": (useful_frac, "1"),
        "fgm.capped_frac": (capped_frac, "1"),
        "sim.disturbance_s": (span_s("sim.disturbance"), "s"),
        "sim.loop_overhead_us": ((p.wall_s * 1e9 - float(p.step_ns.sum())) / w.T / 1e3, "us"),
        "sim.ibm_s": (span_s("sim.ibm"), "s"),
        "trace.overhead_us": (step_p50_us(traced) - step_p50_us(untraced), "us"),
    }
    samples = {"observer.update_us": len(traced), "qp.linear_term_us": len(traced),
               "qp.set_update_us": len(traced), "qp.project_us": len(traced), "fgm.solve_us": len(traced),
               "fgm.gradient_us": len(traced), "fgm.momentum_us": len(traced),
               "qp.project_calls": len(probes), "qp.project_moved_frac": len(probes),
               "fgm.useful_iter_frac": len(probes), "fgm.capped_frac": len(probes),
               "trace.overhead_us": len(untraced)}
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": w.T,
        "failed": p.failed,
        "errors": errors,
        "i_max_bound": b.i_max_bound,
        "spans": tracer.spans,
        "stages_ns": timed.stages,
        "pool_scaling": table,
    }
