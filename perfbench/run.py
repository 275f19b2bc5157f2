#!/usr/bin/env python3
"""orbitmpc benchmark: controller latency, set-up time and loop quality.

Run from the repository root:

    python3 perfbench/run.py --workload ring-n2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (see BENCHMARK.json).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"


def ensure_source() -> None:
    """Put the checkout's own package first on the path; refuse to run
    without it rather than measure some other installed copy."""
    if not (SRC / "orbitmpc" / "__init__.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbitmpc
    if Path(orbitmpc.__file__).resolve().parent != SRC / "orbitmpc":
        raise ImportError(f"orbitmpc was imported from {orbitmpc.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbitmpc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance(seed: int, workloads) -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "workloads": {w.name: {"fingerprint": w.fingerprint(), "i_max": w.i_max} for w in workloads},
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(w, seed: int, seconds: float, work_dir) -> dict:
    import numpy as np

    import loop
    from orbitmpc import sim

    setups, (plant, b, ctrl) = loop.timed_set_ups(w, work_dir)
    dist = loop.make_disturbance(w, seed)
    timed = loop.TimedController(ctrl, plant.n_u)
    passes = loop.run_passes(plant, timed, dist, w.T, seconds)
    errors = []
    first = passes[0].trace
    ratio = float("nan")
    if first is not None:
        ratio = loop.ibm_ratio(w, first, sim.simulate(plant, None, dist, w.T))
        problem = loop.check_ibm(w.name, seed, ratio)
        if problem:
            errors.append(problem)
    step_us = loop.timed_samples_us(passes)
    failed = {}
    for i, p in enumerate(passes):
        failed.update({(i, k): why for k, why in p.failed.items()})
    samples = len(step_us)
    steps = sum(p.steps for p in passes)
    metrics = {
        "step_us_p90": (float(np.percentile(step_us, 90)), "us"),
        "setup_s": (float(np.median(setups)), "s"),
        "ibm_ratio": (ratio, "1"),
    }
    # Printed, not bounded.  Measured on a shared 2-vCPU virtual machine
    # whose speed switches between two states for seconds at a time: the
    # median and the mean straddle the two modes and the 99th percentile
    # follows single stalls, so their run-to-run spreads (0.19-0.47 of the
    # median over ten seeds) exceed the largest bound a metric may have.
    printed = {
        "step_us_p50": (float(np.median(step_us)), "us"),
        "step_us_p99": (float(np.percentile(step_us, 99)), "us"),
        "loop_steps_per_s": (steps / sum(p.wall_s for p in passes), "1/s"),
    }
    counts = {"step_us_p50": samples, "step_us_p90": samples, "step_us_p99": samples,
              "loop_steps_per_s": steps, "setup_s": len(setups), "ibm_ratio": 1}
    return {"metrics": metrics, "printed": printed, "samples": counts, "attempted": steps,
            "failed": failed, "errors": errors, "i_max_bound": b.i_max_bound}


def run_workload(w, seed: int, seconds: float, trace: bool, prov: dict) -> dict:
    """One workload; a design or loop that raises fails the workload, not the run."""
    import tracing

    work_dir = OUT_DIR / f"work-{os.getpid()}-{w.name}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = tracing.run_traced(w, seed, str(work_dir))
        else:
            result = run_untraced(w, seed, seconds, str(work_dir))
    except Exception:  # the workload failed; report it and go on with the others
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        result = {"metrics": {}, "samples": {}, "attempted": w.T, "failed": {k: "workload raised" for k in range(w.T)},
                  "errors": [text.strip().splitlines()[-1]], "i_max_bound": None}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace and "spans" in result:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = OUT_DIR / f"trace-{w.name}-seed{seed}.json"
        with open(out, "w") as fh:
            json.dump({"provenance": prov, "workload": w.name, "i_max": w.i_max,
                       "i_max_bound": result["i_max_bound"],
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": result.pop("spans"), "stages_ns": result.pop("stages_ns"),
                       "pool_scaling": result["pool_scaling"]}, fh)
        print(f"[{w.name}] trace written to {out.relative_to(ROOT)}")
    return result


def report(w, result: dict) -> None:
    name = w.name
    print(f"[{name}] i_max = {w.i_max}, bundle i_max_bound = {result['i_max_bound']}")
    for metric, (value, unit) in {**result["metrics"], **result.get("printed", {})}.items():
        n = result["samples"].get(metric)
        print(f"[{name}] {metric:<24} {value:>16.6g} {unit:<8}" + (f" ({n} samples)" if n else ""))
    for row in result.get("pool_scaling", []):
        par = ", ".join(f"{k} workers {v:.1f} us" for k, v in row["parallel_us"].items())
        print(f"[{name}] gradient step, {row['qp']} QP, {row['rows']} rows: serial {row['serial_us']:.1f} us; {par}")
    n_failed = len(result["failed"])
    print(f"[{name}] failed_frac = {n_failed / result['attempted']:.6g} "
          f"({n_failed} of {result['attempted']} samples)")
    for why in sorted(set(result["failed"].values()))[:5]:
        print(f"[{name}]   failed: {why}")
    for error in result["errors"]:
        print(f"[{name}] error: {error}")


def main(argv=None) -> int:
    try:
        ensure_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from orbitmpc import fgm
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="closed-loop measuring time per workload (the traced run makes one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    prov = provenance(args.seed, chosen)
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for w in chosen:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace), prov)
            report(w, result)
            attempted += result["attempted"]
            failed += len(result["failed"])
            correct &= not result["failed"] and not result["errors"]
            for metric, (value, unit) in result["metrics"].items():
                finite = bool(np.isfinite(value))
                correct &= finite
                key = metric if len(chosen) == 1 else f"{w.name}.{metric}"
                metrics[key] = {"value": value if finite else None, "unit": unit}
    finally:
        fgm.shutdown_pools()
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
