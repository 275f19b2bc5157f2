"""Fast gradient method with a fixed iteration budget.

The real-time solve runs exactly I_max iterations of

    t   = (I - J / lambda_max) v - q / lambda_max
    p+  = proj_U(t)
    v+  = (1 + beta) p+ - beta p

warm-started from the previous solution (projected onto the current set)
and returns the final projected iterate.  One iteration kernel serves the
fixed-budget `solve` and the stopping rule of `converged_iterations`.

The step matrix W = I - J / lambda_max lives on `CondensedQP` (built once,
columns zero-padded to a multiple of four); every call allocates its own
scratch, so concurrent solves on one QP do not interfere.

The gradient step is the dominant cost and is the one parallelized
operation: rows of W are sliced across the threads of a standard
`concurrent.futures` thread pool, one per worker count, which every solve
in the process shares and which is safe for concurrent solves.  Per-row
arithmetic follows a frozen accumulation order (products summed in 4-wide
groups left to right, group sums accumulated left to right), and every
array operation involved treats rows independently, so the parallel
result is bit-identical to the serial reference for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading
import time

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .qp import MATVEC_GROUP, CondensedQP, ConstraintSet

DEFAULT_I_MAX = 20
CONVERGENCE_CAP = 100_000
ALIGNMENT_ROWS = 4

SOLVE_STAGES = ("observer", "q_update", "set_update", "gradient", "projection", "momentum")


# ---------------------------------------------------------------------------
# Row slicing
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WorkerPlan:
    """Disjoint row slices covering a matrix, one slice per worker."""

    n_workers: int
    row_slices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pos = 0
        for start, count in self.row_slices:
            if start != pos or count < 0:
                raise DimensionError("row slices must be contiguous and non-negative")
            pos = start + count

    @property
    def rows(self) -> int:
        start, count = self.row_slices[-1]
        return start + count


def make_worker_plan(rows: int, n_workers: int, alignment_rows: int = ALIGNMENT_ROWS) -> WorkerPlan:
    """Near-equal slices whose lengths are multiples of the alignment unit.

    Each slice takes ceil(remaining / workers_left) rounded up to the
    alignment; the last slice absorbs whatever remains.
    """
    if rows < 1 or n_workers < 1 or alignment_rows < 1:
        raise ConfigError("rows, n_workers and alignment_rows must all be >= 1")
    slices = []
    start, remaining = 0, rows
    for w in range(n_workers):
        left = n_workers - w
        if left == 1:
            size = remaining
        else:
            per = -(-remaining // left)            # ceil divide
            size = min(remaining, -(-per // alignment_rows) * alignment_rows)
        slices.append((start, size))
        start += size
        remaining -= size
    return WorkerPlan(n_workers=n_workers, row_slices=tuple(slices))


# ---------------------------------------------------------------------------
# Frozen-order row product
# ---------------------------------------------------------------------------

def _row_product(w: np.ndarray, v_padded: np.ndarray, q_scaled: np.ndarray,
                 t: np.ndarray, start: int, stop: int):
    """Callable writing t[start:stop] = (W v - q / lambda_max)[start:stop].

    For each row the elementwise products are reduced as
    ``((p0 + p1) + p2) + p3`` within each 4-group of (zero-padded)
    columns, then group sums are accumulated left to right.  No step mixes
    rows, so any row range reproduces the full computation bit for bit.
    The views and scratch are made here, once, and reused by every call.
    """
    rows = slice(start, stop)
    w = w[rows]
    prod = np.empty_like(w)
    # flat strided views: 1-d ufunc calls cost less than 2-d ones
    p0, p1, p2, p3 = (prod.reshape(-1)[k::MATVEC_GROUP] for k in range(MATVEC_GROUP))
    gsum = np.empty((w.shape[0], w.shape[1] // MATVEC_GROUP))
    cum = np.empty_like(gsum)
    gsum_flat, last, q_rows, t_rows = gsum.reshape(-1), cum[:, -1], q_scaled[rows], t[rows]

    def apply() -> None:
        np.multiply(w, v_padded, out=prod)
        np.add(p0, p1, out=gsum_flat)
        np.add(gsum_flat, p2, out=gsum_flat)
        np.add(gsum_flat, p3, out=gsum_flat)
        np.add.accumulate(gsum, axis=1, out=cum)
        np.subtract(last, q_rows, out=t_rows)

    return apply


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """One task per worker index on a standard thread pool.

    `run(task)` calls task(i) for every i in range(n_workers) and returns
    only when all of them have finished, so no worker is still writing
    when it returns or raises.  The executor is safe to share: concurrent
    callers queue their tasks on the same threads.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._executor = concurrent.futures.ThreadPoolExecutor(
            n_workers, thread_name_prefix="fgm-worker")

    def run(self, task) -> None:
        futures = []
        try:
            for index in range(self.n_workers):
                futures.append(self._executor.submit(task, index))
        except RuntimeError as exc:  # submit after close
            concurrent.futures.wait(futures)
            raise NumericalError("worker pool is closed") from exc
        errors = [future.exception() for future in futures]  # waits for every worker
        for exc in errors:
            if exc is not None:
                raise NumericalError(f"worker failed: {exc!r}") from exc

    def close(self) -> None:
        self._executor.shutdown()


_pools: dict[int, WorkerPool] = {}
_pools_lock = threading.Lock()


def get_pool(n_workers: int) -> WorkerPool:
    """Process-wide pool per worker count; workers persist across solves."""
    with _pools_lock:
        pool = _pools.get(n_workers)
        if pool is None:
            pool = WorkerPool(n_workers)
            _pools[n_workers] = pool
        return pool


def shutdown_pools() -> None:
    with _pools_lock:
        for pool in _pools.values():
            pool.close()
        _pools.clear()


# ---------------------------------------------------------------------------
# Gradient step
# ---------------------------------------------------------------------------

def _check_solve_inputs(qp: CondensedQP, v: np.ndarray) -> None:
    n = qp.N * qp.n_u
    if v.shape != (n,):
        raise DimensionError(f"iterate shape {v.shape} != {(n,)}")


def _gradient(qp: CondensedQP, v_padded: np.ndarray, q_scaled: np.ndarray,
              t: np.ndarray, plan: WorkerPlan):
    """Callable writing the gradient step for the iterate in v_padded into
    t, one plan slice per worker of the shared pool (serial for one)."""
    parts = [_row_product(qp.W, v_padded, q_scaled, t, start, start + count)
             for start, count in plan.row_slices]
    if plan.n_workers == 1:
        return parts[0]
    pool = get_pool(plan.n_workers)

    def task(index: int) -> None:
        parts[index]()

    return lambda: pool.run(task)


def _padded(qp: CondensedQP, v: np.ndarray) -> np.ndarray:
    """Zero-padded copy of v matching the columns of qp.W."""
    v_padded = np.zeros(qp.W.shape[1])
    v_padded[: v.shape[0]] = v
    return v_padded


def gradient_step(qp: CondensedQP, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Serial reference: t = (I - J/lambda_max) v - q/lambda_max."""
    return gradient_step_parallel(qp, v, q, make_worker_plan(qp.N * qp.n_u, 1))


def gradient_step_parallel(qp: CondensedQP, v: np.ndarray, q: np.ndarray, plan: WorkerPlan) -> np.ndarray:
    """Row-sliced gradient step; bit-identical to the serial reference."""
    _check_solve_inputs(qp, v)
    if plan.rows != v.shape[0]:
        raise DimensionError(f"plan covers {plan.rows} rows, matrix has {v.shape[0]}")
    t = np.empty(v.shape[0])
    _gradient(qp, _padded(qp, v), q / qp.lambda_max, t, plan)()
    return t


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _add_ns(timers: dict, stage: str, tic: int) -> int:
    now = time.perf_counter_ns()
    timers[stage] = timers.get(stage, 0) + (now - tic)
    return now


def _iterate(qp: CondensedQP, q: np.ndarray, cset: ConstraintSet, warm: np.ndarray,
             budget: int, n_workers: int = 1, record: list | None = None,
             timers: dict | None = None, stop=None):
    """The fast-gradient kernel: run up to `budget` iterations.

    `stop(p_new, p)`, when given, is asked after every iteration whether to
    end there.  Returns (p, count): the last projected iterate, and the
    number of iterations run if `stop` ended the loop, else None.
    """
    q = np.asarray(q, dtype=float)
    warm = np.asarray(warm, dtype=float)
    n = qp.N * qp.n_u
    if q.shape != (n,):
        raise DimensionError(f"linear term shape {q.shape} != {(n,)}")
    if cset.N != qp.N or cset.n_u != qp.n_u:
        raise DimensionError("constraint set does not match the QP dimensions")
    _check_solve_inputs(qp, warm)
    p = cset.project(warm)
    # the iterate v lives in the zero-padded vector the row product reads
    v_padded = _padded(qp, p)
    v = v_padded[:n]
    t = np.empty(n)
    gradient = _gradient(qp, v_padded, q / qp.lambda_max, t, make_worker_plan(n, n_workers))
    beta, beta_1 = qp.beta, 1.0 + qp.beta
    beta_p = np.empty(n)
    for i in range(budget):
        tic = time.perf_counter_ns() if timers is not None else 0
        gradient()
        # checked every iteration: the projection would clip inf to a bound
        if np.count_nonzero(np.isfinite(t)) < n:
            raise NumericalError(f"non-finite iterate at iteration {i}")
        if timers is not None:
            tic = _add_ns(timers, "gradient", tic)
        p_new = cset.project(t)
        if timers is not None:
            tic = _add_ns(timers, "projection", tic)
        np.multiply(p_new, beta_1, out=v)
        np.multiply(p, beta, out=beta_p)
        np.subtract(v, beta_p, out=v)
        if timers is not None:
            _add_ns(timers, "momentum", tic)
        if record is not None:
            record.append(p_new.copy())
        if stop is not None and stop(p_new, p):
            return p_new, i + 1
        p = p_new
    return p, None


def solve(
    qp: CondensedQP,
    q: np.ndarray,
    cset: ConstraintSet,
    warm: np.ndarray,
    i_max: int = DEFAULT_I_MAX,
    n_workers: int = 1,
    record: list | None = None,
    timers: dict | None = None,
) -> np.ndarray:
    """Run exactly i_max fast-gradient iterations and return the final
    projected iterate.

    `record`, when given, collects every projected iterate.  `timers`,
    when given, accumulates per-stage nanoseconds under the keys
    'gradient', 'projection' and 'momentum' (used by the benchmark).
    """
    p, _ = _iterate(qp, q, cset, warm, i_max, n_workers=n_workers, record=record, timers=timers)
    return p


@dataclasses.dataclass(frozen=True)
class ConvergenceResult:
    iterations: int
    capped: bool


def converged_iterations(
    qp: CondensedQP,
    q: np.ndarray,
    cset: ConstraintSet,
    warm: np.ndarray,
    epsilon: float,
    cap: int = CONVERGENCE_CAP,
) -> ConvergenceResult:
    """Iterations until both ||p+ - p||_inf < eps and < eps ||p||_inf.

    Benchmark-only diagnostic; the real-time path always runs the fixed
    budget.  An exactly stationary iterate counts as converged even when
    ||p||_inf is zero.
    """
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")

    def converged(p_new: np.ndarray, p: np.ndarray) -> bool:
        diff = float(np.max(np.abs(p_new - p)))
        scale = float(np.max(np.abs(p)))
        return diff < epsilon and (diff < epsilon * scale or diff == 0.0)

    _, count = _iterate(qp, q, cset, warm, cap, stop=converged)
    if count is None:
        return ConvergenceResult(iterations=cap, capped=True)
    return ConvergenceResult(iterations=count, capped=False)
