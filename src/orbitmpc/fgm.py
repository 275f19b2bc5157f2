"""Fast gradient method with an iteration budget.

The real-time solve returns the projected iterate after I_max iterations
of

    t   = (I - J / lambda_max) v - q / lambda_max
    p+  = proj_U(t)
    v+  = (1 + beta) p+ - beta p

warm-started from the previous solution (projected onto the current set).
I_max is the worst case: the compiled loop, untimed, stops once two
iterations in a row leave p's bits unchanged, since every later one would
repeat the same operations on the same bits, and so returns the bits of
the whole budget (see `fgm_kernel.c`, fgm_solve).  A timed solve and the
numpy loop run every iteration.

The step matrix W = I - J / lambda_max lives on `CondensedQP` (built once,
rows zero-padded to a multiple of ROW_BLOCK = 4; the kernel reads its
rows padded to a multiple of qp.ROW_PAD = 8 doubles from 64-byte
boundaries), and so does its factored form where the QP's flop rule picks
it (see qp).  The compiled solve runs in a `Workspace` of the QP: the
caller's, which a controller builds once, or else a new one per call, so
concurrent solves on one QP do not interfere; the numpy loop allocates its
own scratch.

Which loop runs depends only on whether the compiled kernel is built.
`fgm_kernel.c` runs the whole solve in C: warm-start
projection, gradient step, finiteness check, the N = 1 and N = 2
projections, and momentum.  The projections give `ConstraintSet.project`'s
bits: the N = 2 one forms both of its steps in every lane of a 4-double
vector of actuators and keeps one lane by lane, without a branch.
It also holds the per-mode observer update and linear term that
`sim.MpcController` runs on one-bandwidth plants (see observer.ModalRecord),
and `mpc_step`, which runs a whole control sample of that path in one
call: the controller's untimed samples run it, and its timed ones (with
`timers`) the staged calls, this module's `solve` among them and the
kernel's modal_observe last, so that the benchmark's tracer can time
and re-solve each stage.
The kernel stays plain C.  `fgm_binding.c` wraps it as a CPython
extension module: `fgm_solve` as a function that reads its arrays in
place, and `Step`, a callable bound to one controller's context that
runs `mpc_step` on the measurement's own buffer, and whose
`observe(y, u)` runs modal_observe.  The build needs a C compiler
(`$CC`, else `cc`) and the interpreter's `Python.h`; numpy's headers
ship with numpy.  One compiler call compiles and links the two files,
once per process, into a temporary directory, which is removed once the
module is loaded:
`sim.MpcController` builds it while it is set up, so no control sample
pays for the build, and otherwise the first solve does.  Where it is
built, every `solve` runs it.  Where it cannot be built (no compiler, or
no `Python.h`), which one line on stderr reports, every solve runs the
numpy loop below, which stays the reference and also runs
`converged_iterations`, and every controller runs the dense path.  The
kernel's gradient step runs on the factored form of J where
`CondensedQP` holds one (`hessian_form` 'factored'), else on the dense
W, which the numpy loop always runs (see `hessian_form`).  Both loops
are serial.

The numpy loop's gradient step is one BLAS gemv, `np.dot(W[:n4], v)`
with `n4` the row count rounded up to ROW_BLOCK, then an in-place shift
by q / lambda_max.  `gradient_step_parallel` models the paper's split of
each iteration across DSP cores: it runs the same product as row slices on
a standard `concurrent.futures` thread pool, one per worker count,
shared by every caller in the process.  No solve runs it.  Its slices
start on multiples of ROW_BLOCK, so every row runs through the same
4-row gemv kernel path as in the full product; that is a property of
the BLAS build, not a guarantee (with OpenBLAS running its own threads,
the full gemv at 700 or 1000 rows splits its rows differently).  So a
call with more than one worker first compares its slices with the full
product on the actual W, and on a mismatch raises `NumericalError`
naming the BLAS and the first differing slice.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import importlib.machinery
import importlib.util
import operator
import os
import shlex
import signal
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .qp import ROW_BLOCK, CondensedQP, ConstraintSet, aligned_zeros, padded

DEFAULT_I_MAX = 20
CONVERGENCE_CAP = 100_000

SOLVE_STAGES = ("observer", "q_update", "set_update", "gradient", "projection", "momentum")


# ---------------------------------------------------------------------------
# Row slicing
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WorkerPlan:
    """Disjoint row slices covering a matrix, one slice per worker.

    Every non-empty slice starts on a multiple of ROW_BLOCK, so that each
    row runs through the same gemv kernel path as in the full product.
    """

    n_workers: int
    row_slices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_workers < 1 or len(self.row_slices) != self.n_workers:
            raise DimensionError(f"{len(self.row_slices)} row slices for {self.n_workers} workers")
        pos = 0
        for start, count in self.row_slices:
            if start != pos or count < 0:
                raise DimensionError("row slices must be contiguous and non-negative")
            if count and start % ROW_BLOCK:
                raise ConfigError(f"worker slice at row {start} does not start on a "
                                  f"multiple of {ROW_BLOCK} rows")
            pos = start + count

    @property
    def rows(self) -> int:
        start, count = self.row_slices[-1]
        return start + count


def make_worker_plan(rows: int, n_workers: int) -> WorkerPlan:
    """Near-equal slices whose lengths are multiples of ROW_BLOCK.

    Each slice takes ceil(remaining / workers_left) rounded up to
    ROW_BLOCK; the last slice absorbs whatever remains.
    """
    if rows < 1 or n_workers < 1:
        raise ConfigError("rows and n_workers must both be >= 1")
    slices = []
    start, remaining = 0, rows
    for w in range(n_workers):
        left = n_workers - w
        if left == 1:
            size = remaining
        else:
            per = -(-remaining // left)            # ceil divide
            size = min(remaining, -(-per // ROW_BLOCK) * ROW_BLOCK)
        slices.append((start, size))
        start += size
        remaining -= size
    return WorkerPlan(n_workers=n_workers, row_slices=tuple(slices))


# ---------------------------------------------------------------------------
# Compiled kernel
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("fgm_kernel.c")
# the CPython module around the kernel, compiled beside it (see _build_kernel)
_BINDING_SOURCE = Path(__file__).with_name("fgm_binding.c")
# IEEE rounding: no contraction into fused multiply-adds, no -ffast-math
_KERNEL_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120.0

# fgm_kernel.c's struct context, field by field; addresses are uintp
STEP_CONTEXT = np.dtype([("record", np.uintp), ("n_u", np.int64), ("n_y", np.int64),
                         ("mu", np.int64), ("horizon", np.int64), ("state", np.uintp),
                         ("w", np.uintp), ("n_k", np.int64), ("beta", np.float64),
                         ("budget", np.int64), ("lambda_max", np.float64), ("data", np.uintp),
                         ("set", np.uintp), ("alpha", np.uintp), ("rho", np.uintp),
                         ("u_prev", np.uintp)], align=True)
# mpc_step's refusals; a result >= 0 is fgm_solve's failing iteration
MEASUREMENT_REFUSED, SET_REFUSED = -2, -3


def step_context(**fields) -> np.ndarray:
    """A STEP_CONTEXT record of every one of its fields, an array by its
    address, anything else as it is.  An array must be C-contiguous
    float64 data, which the kernel reads through the address."""
    values = []
    for name in STEP_CONTEXT.names:
        value = fields[name]
        if isinstance(value, np.ndarray):
            if value.dtype != np.float64 or not value.flags.c_contiguous:
                raise DimensionError(f"compiled kernel needs C-contiguous float64 data for "
                                     f"{name}, got {value.dtype}")
            value = value.__array_interface__["data"][0]
        values.append(value)
    return np.array(tuple(values), STEP_CONTEXT)

_UNBUILT = object()
_kernel = _UNBUILT
_kernel_lock = threading.Lock()


def _build_kernel():
    """Compile and link fgm_kernel.c and its CPython binding into one
    extension module in one `$CC` (else `cc`) process and load it; None,
    with one line on stderr, when that fails (no compiler, or no
    Python.h)."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    includes = [f"-I{sysconfig.get_paths()['include']}", f"-I{np.get_include()}"]
    with tempfile.TemporaryDirectory(prefix="orbitmpc-fgm-") as tmp:
        library = os.path.join(tmp, "fgm_kernel.so")
        try:
            # a process group of its own, killed whole if the compiler has not
            # finished, so no compiler child outlives the build
            with subprocess.Popen([*cc, *_KERNEL_FLAGS, *includes, "-o", library,
                                   str(_KERNEL_SOURCE), str(_BINDING_SOURCE), "-lm"],
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                                  errors="replace", start_new_session=True) as compiler:
                try:
                    output = compiler.communicate(timeout=_BUILD_TIMEOUT_S)[0]
                finally:
                    if compiler.returncode is None:  # not reaped, so its group id is its own
                        os.killpg(compiler.pid, signal.SIGKILL)
            if compiler.returncode:
                lines = output.strip().splitlines() or [f"exit status {compiler.returncode}"]
                reason = next((line for line in lines if "error" in line), lines[0])
            else:
                loader = importlib.machinery.ExtensionFileLoader("fgm_kernel", library)
                kernel = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader("fgm_kernel", loader))
                loader.exec_module(kernel)
                reason = None
        except (OSError, ImportError, subprocess.TimeoutExpired) as exc:
            reason = str(exc)
    if reason is not None:
        print(f"orbitmpc: cannot build the compiled FGM kernel with {' '.join(cc)} ({reason}); "
              "solving with numpy", file=sys.stderr)
        return None
    return kernel


def _load_kernel():
    """The compiled kernel, built at the first call in the process; None
    where it cannot be built."""
    global _kernel
    with _kernel_lock:
        if _kernel is _UNBUILT:
            _kernel = _build_kernel()
        return _kernel


def solve_kernel() -> str:
    """'compiled' when `solve` runs the compiled kernel, else 'numpy';
    builds the kernel if it is not built yet."""
    return "numpy" if _load_kernel() is None else "compiled"


# ---------------------------------------------------------------------------
# Row-block product
# ---------------------------------------------------------------------------

def _row_product(w: np.ndarray, v: np.ndarray, q_scaled: np.ndarray,
                 t_pad: np.ndarray, start: int, stop: int):
    """Callable writing t_pad[start:stop] = (W v - q / lambda_max)[start:stop].

    One gemv over rows start..end4 of the row-padded W, end4 being stop
    rounded up to ROW_BLOCK (the padding rows of t_pad receive zeros),
    then the shift in place.  `start` is a multiple of ROW_BLOCK (see
    WorkerPlan).
    """
    end4 = stop + (-stop) % ROW_BLOCK if stop > start else stop
    w_rows, t_rows = w[start:end4], t_pad[start:end4]
    q_rows, t_out = q_scaled[start:stop], t_pad[start:stop]

    def apply() -> None:
        np.dot(w_rows, v, out=t_rows)
        np.subtract(t_out, q_rows, out=t_out)

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

def _checked_vectors(qp: CondensedQP, q, v) -> tuple[np.ndarray, np.ndarray]:
    """(q, v), a linear term and an iterate, as float arrays of the QP's
    size, v C-contiguous."""
    n = qp.N * qp.n_u
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionError(f"iterate shape {v.shape} != {(n,)}")
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise DimensionError(f"linear term shape {q.shape} != {(n,)}")
    return q, v


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without a machine-readable config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _check_slices(qp: CondensedQP, v: np.ndarray, q_scaled: np.ndarray,
                  t_pad: np.ndarray, gradient, plan: WorkerPlan) -> None:
    """Run the sliced `gradient` once and compare it with the full product
    on qp.W.

    Bit identity of row-block gemv slices is a property of the BLAS build
    and its threading, so it is checked on the actual W rather than
    assumed; a mismatch raises instead of falling back to serial.
    """
    full = np.empty_like(t_pad)
    _row_product(qp.W, v, q_scaled, full, 0, v.shape[0])()
    gradient()
    for start, count in plan.row_slices:
        rows = slice(start, start + count)
        if not np.array_equal(t_pad[rows], full[rows], equal_nan=True):
            raise NumericalError(
                f"{plan.n_workers}-worker gradient: rows {start}:{start + count} of "
                f"{v.shape[0]} differ from the full product under BLAS {_blas_name()}; "
                "use gradient_step, or single-threaded BLAS (OPENBLAS_NUM_THREADS=1)")


def gradient_step(qp: CondensedQP, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Serial reference: t = (I - J/lambda_max) v - q/lambda_max."""
    return gradient_step_parallel(qp, v, q, make_worker_plan(qp.N * qp.n_u, 1))


def gradient_step_parallel(qp: CondensedQP, v: np.ndarray, q: np.ndarray, plan: WorkerPlan) -> np.ndarray:
    """Row-sliced gradient step, one plan slice per worker of the shared
    pool (serial for one), bit-identical to the serial reference; raises
    NumericalError where the BLAS breaks that (see _check_slices)."""
    q, v = _checked_vectors(qp, q, v)
    if plan.rows != v.shape[0]:
        raise DimensionError(f"plan covers {plan.rows} rows, matrix has {v.shape[0]}")
    t_pad = np.empty(qp.W.shape[0])
    q_scaled = q / qp.lambda_max
    parts = [_row_product(qp.W, v, q_scaled, t_pad, start, start + count)
             for start, count in plan.row_slices]
    if plan.n_workers == 1:
        parts[0]()
    else:
        pool = get_pool(plan.n_workers)

        def gradient() -> None:
            pool.run(lambda index: parts[index]())

        _check_slices(qp, v, q_scaled, t_pad, gradient, plan)
    return t_pad[: v.shape[0]]


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _add_ns(timers: dict, stage: str, tic: int) -> int:
    now = time.perf_counter_ns()
    timers[stage] = timers.get(stage, 0) + (now - tic)
    return now


def _check_iterate_inputs(qp: CondensedQP, q, cset: ConstraintSet, warm):
    """(q, warm) as float arrays of the QP's size, warm C-contiguous."""
    if cset.N != qp.N or cset.n_u != qp.n_u:
        raise DimensionError("constraint set does not match the QP dimensions")
    return _checked_vectors(qp, q, warm)


def _iterate(qp: CondensedQP, q: np.ndarray, cset: ConstraintSet, warm: np.ndarray,
             budget: int, timers: dict | None = None, stop=None):
    """The numpy fast-gradient loop: run up to `budget` iterations on inputs
    that `_check_iterate_inputs` has checked.

    `stop(p_new, p)`, when given, is asked after every iteration whether to
    end there.  Returns (p, count): the last projected iterate, and the
    number of iterations run if `stop` ended the loop, else None.
    """
    n = qp.N * qp.n_u
    p = cset.project(warm)
    v = np.array(p, dtype=float)
    # t_pad matches the padded rows of W; the step itself is its first n rows
    t_pad = np.empty(qp.W.shape[0])
    t = t_pad[:n]
    gradient = _row_product(qp.W, v, q / qp.lambda_max, t_pad, 0, n)
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
        if stop is not None and stop(p_new, p):
            return p_new, i + 1
        p = p_new
    return p, None


_KERNEL_STAGES = ("gradient", "projection", "momentum")


def workspace_size(n_k: int, n_u: int, horizon: int) -> int:
    """The doubles of a compiled solve's workspace (`fgm_solve`'s data) for
    the factored form over n_k modes, or for the dense W with n_k -1:
    q / lambda_max, the iterate, the stage timers, the iterations and 4 n
    of scratch, n = horizon n_u, then from a multiple of qp.ROW_PAD the
    sweeps' sums, and for the factored form the expansion's seed and the
    mixed projections."""
    n = horizon * n_u
    if n_k < 0:
        sweeps = padded(n)
    else:
        sweeps = horizon * (max(padded(n_k), padded(n_u)) + padded(n_u) + n_k)
    return padded(6 * n + len(_KERNEL_STAGES) + 1) + sweeps


class Workspace:
    """The compiled solve's buffers for one QP, built once.

    `data` is the kernel's workspace, laid out as `fgm_solve` documents
    it (see workspace_size): q / lambda_max, the iterate, the stage
    timers, the iterations the solve ran and the scratch, in one 64-byte
    aligned array.
    `matrix` is the QP's step matrix, its factored form over `n_k` modes
    where it has one, else W's padded rows (`W_rows`) with `n_k` -1.  The
    kernel reads both, and the constraint set's array, in place.  A solve writes all of `data`,
    so one workspace serves one solve at a time; the iterate it returns
    is overwritten by the next.
    """

    def __init__(self, qp: CondensedQP):
        n = qp.N * qp.n_u
        if qp.factors is None:
            self.matrix, self.n_k = qp.W_rows, -1
        else:
            self.matrix, self.n_k = qp.factors, qp.factored_modes
        self.qp = qp
        stages = 2 * n + len(_KERNEL_STAGES)
        self.data = aligned_zeros(workspace_size(self.n_k, qp.n_u, qp.N))
        self.q_scaled = self.data[:n]
        self.iterate = self.data[n:2 * n]
        self.stage_ns = self.data[2 * n:stages]
        self._iterations = self.data[stages:stages + 1]

    @property
    def iterations(self) -> int:
        """The iterations the last compiled solve in this workspace ran (0
        before the first)."""
        return int(self._iterations[0])

    def solve(self, kernel, q, cset: ConstraintSet, warm, budget: int,
              timers: dict | None) -> np.ndarray:
        """The loop of `_iterate` in the compiled kernel, with its exact
        exit unless timed, on inputs that `solve` has checked; returns the
        iterate, a view of `data`."""
        np.divide(q, self.qp.lambda_max, out=self.q_scaled)
        if warm is not self.iterate:
            np.copyto(self.iterate, warm)
        if timers is not None:
            self.stage_ns.fill(0.0)
        qp = self.qp
        failed = kernel.fgm_solve(self.matrix, self.n_k, qp.n_u, qp.N, qp.beta, budget,
                                  cset._packed, self.data, timers is not None)
        if failed >= 0:
            raise NumericalError(f"non-finite iterate at iteration {failed}")
        if timers is not None:
            for stage, ns in zip(_KERNEL_STAGES, self.stage_ns.tolist()):
                timers[stage] = timers.get(stage, 0) + int(ns)
        return self.iterate


def _iteration_budget(i_max) -> int:
    """i_max as an int, refused below 0 with a ConfigError naming it."""
    budget = operator.index(i_max)
    if budget < 0:
        raise ConfigError(f"i_max must be >= 0, got {budget}")
    return budget


def hessian_form(qp: CondensedQP) -> str:
    """The form of J that `solve` iterates on: 'factored' where the
    compiled kernel runs and the QP has a factored form, else 'dense'."""
    return "dense" if _load_kernel() is None else qp.hessian_form


def solve(
    qp: CondensedQP,
    q: np.ndarray,
    cset: ConstraintSet,
    warm: np.ndarray,
    i_max: int = DEFAULT_I_MAX,
    timers: dict | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Return the projected iterate after i_max fast-gradient iterations:
    in the compiled kernel where it builds, else in the numpy loop; both
    run serially.  i_max is the worst case: the compiled solve stops where
    the iterate has stopped changing bit for bit, with the bits of the
    whole budget, unless `timers` is given (the workspace's `iterations`
    says how many it ran); the numpy loop always runs i_max.  An i_max
    below 0 is refused with a ConfigError.

    The compiled solve runs in `workspace`, a `Workspace` of this QP, and
    returns a view of it that the next solve in it overwrites; without
    one it runs in a new workspace, so concurrent solves do not interfere.
    The numpy loop does not use it.

    `timers`, when given, accumulates per-stage nanoseconds under the keys
    'gradient', 'projection' and 'momentum' (used by the benchmark).
    """
    budget = _iteration_budget(i_max)
    if workspace is not None and workspace.qp is not qp:
        raise DimensionError("the workspace was built for another QP")
    q, warm = _check_iterate_inputs(qp, q, cset, warm)
    kernel = _load_kernel()
    if kernel is not None:
        return (workspace or Workspace(qp)).solve(kernel, q, cset, warm, budget, timers)
    p, _ = _iterate(qp, q, cset, warm, budget, timers=timers)
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

    Benchmark-only diagnostic; the real-time path runs the budget, and
    stops early only where the iterate no longer changes a bit.  An
    exactly stationary iterate counts as converged even when ||p||_inf is
    zero.
    """
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")

    def converged(p_new: np.ndarray, p: np.ndarray) -> bool:
        diff = float(np.max(np.abs(p_new - p)))
        scale = float(np.max(np.abs(p)))
        return diff < epsilon and (diff < epsilon * scale or diff == 0.0)

    q, warm = _check_iterate_inputs(qp, q, cset, warm)
    _, count = _iterate(qp, q, cset, warm, cap, stop=converged)
    if count is None:
        return ConvergenceResult(iterations=cap, capped=True)
    return ConvergenceResult(iterations=count, capped=False)
