"""Command-line entry point: design, simulate, bench and check workflows.

One flat key=value config file drives everything; see the README for the
documented key set.  Exit codes are stable: 0 success, 1 internal or
numerical failure, 2 I/O or configuration failure, 3 dimension or
consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import math
import os
import shutil
import sys
import time

import numpy as np

from . import bundle as bundle_mod
from . import fgm, fileio, qp, sim
from .errors import ConfigError, OrbitMpcError
from .model import PlantConfig, load_plant_config, synthetic_plant

CONFIG_KEYS = (
    "schema_version", "seed", "plant",
    "synthetic_n_y", "synthetic_n_u", "synthetic_kappa", "synthetic_dt", "synthetic_mu",
    "synthetic_bandwidth_hz", "synthetic_alpha", "synthetic_rho",
    "weights", "q_min", "q_max", "lambda", "horizon", "i_max",
    "sigma_v", "sigma_w", "sigma_m", "epsilon", "delta",
    "dist_kind", "dist_sigma", "dist_components", "dist_path",
    "T", "n_workers", "output_dir", "imc_bandwidth_hz", "bench_cycles", "observer_dump",
)


@dataclasses.dataclass
class RunConfig:
    plant: PlantConfig
    weights_mode: str
    q_min: float | None
    q_max: float | None
    imc_lambda: float | None
    horizon: int
    i_max: int
    sigma_v: float
    sigma_w: float
    sigma_m: float
    epsilon: float
    delta: float | None
    dist: sim.DisturbanceSpec
    T: int
    n_workers: int
    seed: int
    output_dir: str
    imc_bandwidth_hz: float
    bench_cycles: int
    observer_dump: bool


def _parse_components(raw: str, n_y: int):
    """'freq:amp:mode;freq:amp:mode' triples for the sinusoid mix, each
    spatial mode one of the n_y monitor shapes."""
    components = []
    for token in raw.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            freq_hz, amplitude, mode = token.split(":")
            components.append((float(freq_hz), float(amplitude), int(mode)))
        except ValueError:
            raise ConfigError(f"dist_components: bad component {token!r}, expected "
                              "freq:amp:mode with an integer mode") from None
    sim.check_components(components, n_y)
    return tuple(components)


def _reject_unknown_keys(path, pairs: dict) -> None:
    """A misspelled key would silently fall back to its default."""
    unknown = [key for key in pairs if key not in CONFIG_KEYS]
    if not unknown:
        return
    named = []
    for key in unknown:
        close = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
        named.append(f"'{key}'" + (f" (did you mean '{close[0]}'?)" if close else ""))
    raise ConfigError(f"{path}: unknown config key {', '.join(named)}")


def _auto_float(pairs: dict, key: str) -> float | None:
    """A float key whose absence or value 'auto' means None (derived by the design)."""
    if pairs.get(key, "auto") == "auto":
        return None
    return fileio.kv_get(pairs, key, float)


def _require(key: str, value, ok: bool, what: str) -> None:
    """Reject a config value by its key unless `ok` holds."""
    if not ok:
        raise ConfigError(f"config key '{key}' must be {what}, got {value}")


def _check_finite(key: str, value: float | None, positive: bool) -> None:
    """Reject a non-finite or out-of-range float config value by its key;
    None (not given) passes.  The comparisons are written so that NaN fails."""
    if value is None:
        return
    _require(key, value, 0.0 < value < math.inf if positive else 0.0 <= value < math.inf,
             f"finite and {'positive' if positive else 'non-negative'}")


def load_run_config(path, seed_override=None, workers_override=None, out_override=None) -> RunConfig:
    pairs = fileio.read_kv(path)
    _reject_unknown_keys(path, pairs)
    version = fileio.kv_get(pairs, "schema_version", int, default=1)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}")
    seed = seed_override if seed_override is not None else fileio.kv_get(pairs, "seed", int, default=0)
    _require("seed", seed, seed >= 0, "non-negative")

    n_workers = workers_override if workers_override is not None else fileio.kv_get(pairs, "n_workers", int, default=1)
    i_max = fileio.kv_get(pairs, "i_max", int, default=fgm.DEFAULT_I_MAX)
    bench_cycles = fileio.kv_get(pairs, "bench_cycles", int, default=1000)
    T = fileio.kv_get(pairs, "T", int, default=65536)  # 2**16 for spectral runs
    n_y, n_u, mu = (fileio.kv_get(pairs, key, int, default=default)
                    for key, default in (("synthetic_n_y", 8), ("synthetic_n_u", 8), ("synthetic_mu", 3)))
    # T >= 2: a run's integrated-motion spectrum needs two samples
    for key, value, least in (("n_workers", n_workers, 1), ("i_max", i_max, 0),
                              ("bench_cycles", bench_cycles, 1), ("T", T, 2),
                              ("synthetic_n_y", n_y, 1), ("synthetic_n_u", n_u, 1), ("synthetic_mu", mu, 0)):
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")

    plant_key = fileio.kv_get(pairs, "plant", str, default="synthetic")
    if plant_key == "synthetic":
        plant = synthetic_plant(
            n_y=n_y,
            n_u=n_u,
            kappa_target=fileio.kv_get(pairs, "synthetic_kappa", float, default=1e4),
            seed=seed,
            dt=fileio.kv_get(pairs, "synthetic_dt", float, default=1e-3),
            mu=mu,
            bandwidth=2.0 * np.pi * fileio.kv_get(pairs, "synthetic_bandwidth_hz", float, default=70.0),
            alpha=fileio.kv_get(pairs, "synthetic_alpha", float, default=1.0),
            rho=fileio.kv_get(pairs, "synthetic_rho", float, default=0.1),
        )
    else:
        plant_path = fileio.resolve_path(path, plant_key)
        if not os.path.exists(plant_path):
            raise ConfigError(f"plant config not found: {plant_path}")
        plant = load_plant_config(plant_path)

    floats = {
        "sigma_v": fileio.kv_get(pairs, "sigma_v", float, default=1.0),
        "sigma_w": fileio.kv_get(pairs, "sigma_w", float, default=1e-4),
        "sigma_m": fileio.kv_get(pairs, "sigma_m", float, default=1e-2),
        "epsilon": fileio.kv_get(pairs, "epsilon", float, default=1e-3),
        "delta": _auto_float(pairs, "delta"),
        "dist_sigma": fileio.kv_get(pairs, "dist_sigma", float, default=1.0),
        "q_min": fileio.kv_get(pairs, "q_min", float) if "q_min" in pairs else None,
        "q_max": fileio.kv_get(pairs, "q_max", float) if "q_max" in pairs else None,
        "lambda": _auto_float(pairs, "lambda"),
    }
    for key in ("sigma_v", "sigma_m", "epsilon", "q_min", "q_max"):
        _check_finite(key, floats[key], positive=True)
    for key in ("sigma_w", "delta", "dist_sigma", "lambda"):
        _check_finite(key, floats[key], positive=False)
    dist_kind = fileio.kv_get(pairs, "dist_kind", str, default="white")
    dist_path = pairs.get("dist_path")
    if dist_path is not None:
        dist_path = fileio.resolve_path(path, dist_path)
    dist = sim.DisturbanceSpec(
        kind=dist_kind,
        sigma=floats["dist_sigma"],
        seed=seed,
        components=_parse_components(pairs.get("dist_components", ""), plant.n_y),
        path=dist_path,
        dt=plant.dt,
    )
    horizon = fileio.kv_get(pairs, "horizon", int, default=1)
    if horizon not in qp.SUPPORTED_HORIZONS:
        raise ConfigError(f"horizon must be one of {qp.SUPPORTED_HORIZONS}, got {horizon}")
    # 10 Hz at dt = 1 ms: the baseline integrates 2 pi 0.01 per sample at any dt
    imc_bandwidth_hz = fileio.kv_get(pairs, "imc_bandwidth_hz", float, default=0.01 / plant.dt)
    nyquist_hz = 0.5 / plant.dt
    _require("imc_bandwidth_hz", imc_bandwidth_hz, 0.0 < imc_bandwidth_hz < nyquist_hz,
             f"positive and below the Nyquist frequency 0.5 / dt = {nyquist_hz:g} Hz")
    return RunConfig(
        plant=plant,
        weights_mode=fileio.kv_get(pairs, "weights", str, default="saturated"),
        q_min=floats["q_min"],
        q_max=floats["q_max"],
        imc_lambda=floats["lambda"],
        horizon=horizon,
        i_max=i_max,
        sigma_v=floats["sigma_v"],
        sigma_w=floats["sigma_w"],
        sigma_m=floats["sigma_m"],
        epsilon=floats["epsilon"],
        delta=floats["delta"],
        dist=dist,
        T=T,
        n_workers=n_workers,
        seed=seed,
        output_dir=out_override or fileio.kv_get(pairs, "output_dir", str, default="out"),
        imc_bandwidth_hz=imc_bandwidth_hz,
        bench_cycles=bench_cycles,
        observer_dump=bool(fileio.kv_get(pairs, "observer_dump", int, default=0)),
    )


def _design_inputs(cfg: RunConfig, horizon: int) -> dict:
    """The design keywords of `design_controller` for one horizon."""
    return dict(
        horizon=horizon,
        weights_mode=cfg.weights_mode,
        q_min=cfg.q_min,
        q_max=cfg.q_max,
        imc_lambda=cfg.imc_lambda,
        sigma_v=cfg.sigma_v,
        sigma_w=cfg.sigma_w,
        sigma_m=cfg.sigma_m,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
    )


def _build_bundle(cfg: RunConfig, horizon: int) -> bundle_mod.DesignBundle:
    return bundle_mod.design_controller(cfg.plant, **_design_inputs(cfg, horizon))


def _notice_i_max(i_max: int, bundles) -> None:
    """One stdout line when the fixed budget is below a design's iteration bound."""
    short = [b for b in bundles if i_max < b.i_max_bound]
    if short:
        bounds = ", ".join(f"N={b.condensed.N}: {b.i_max_bound}" for b in short)
        print(f"notice: i_max = {i_max} is below the design's i_max_bound ({bounds}); "
              f"the budget does not guarantee epsilon = {short[0].epsilon:g}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_design(cfg: RunConfig) -> int:
    b = _build_bundle(cfg, cfg.horizon)
    bundle_mod.save_bundle(b, cfg.output_dir)
    print(f"design bundle written to {cfg.output_dir}")
    print(f"kappa(J) = {b.kappa:.6g}, beta = {b.condensed.beta:.6g}, "
          f"i_max_bound = {b.i_max_bound}")
    _notice_i_max(cfg.i_max, [b])
    return 0


def _write_trace(path, trace: sim.SimTrace, seed: int, provenance: dict) -> None:
    """Closed-loop trace, with the `provenance` keys after the standard header keys."""
    T, n_y = trace.y.shape
    n_u = trace.u.shape[1]
    cols = (["step"] + [f"y{i}" for i in range(n_y)] + [f"u{i}" for i in range(n_u)]
            + [f"d{i}" for i in range(n_y)])
    body = np.column_stack([np.arange(T), trace.y, trace.u, trace.d])
    fileio.write_matrix(path, body, header={
        "schema_version": fileio.SCHEMA_VERSION,
        "seed": seed,
        "columns": ",".join(cols),
        **provenance,
    })


def cmd_simulate(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    bundles = {n: _build_bundle(cfg, n) for n in (1, 2)}
    _notice_i_max(cfg.i_max, bundles.values())
    runs = {}
    runs["off"] = sim.simulate(cfg.plant, None, cfg.dist, cfg.T)
    imc = bundles[1].imc_controller(cfg.imc_bandwidth_hz, clip=False)
    runs["imc"] = sim.simulate(cfg.plant, imc, cfg.dist, cfg.T)
    imc_c = bundles[1].imc_controller(cfg.imc_bandwidth_hz, clip=True)
    runs["imc_constr"] = sim.simulate(cfg.plant, imc_c, cfg.dist, cfg.T)
    mpc_ctrls = {}
    for n in (1, 2):
        mpc_ctrls[n] = bundles[n].mpc_controller(cfg.i_max, cfg.n_workers)
        runs[f"mpc_n{n}"] = sim.simulate(cfg.plant, mpc_ctrls[n], cfg.dist, cfg.T)

    _write_trace(os.path.join(cfg.output_dir, "trace.csv"), runs[f"mpc_n{cfg.horizon}"], cfg.seed, {
        "i_max": cfg.i_max,
        "i_max_bound": bundles[cfg.horizon].i_max_bound,
        "design_fingerprint": bundles[cfg.horizon].meta["design_fingerprint"],
    })
    if cfg.observer_dump:
        mpc_ctrls[cfg.horizon].observer.to_csv(os.path.join(cfg.output_dir, "observer_state.csv"))

    curves = {}
    freqs = None
    for name, trace in runs.items():
        freqs, curves[name] = sim.ibm(trace, monitor="average")
    body = np.column_stack([freqs, curves["off"], curves["imc"], curves["imc_constr"],
                            curves["mpc_n1"], curves["mpc_n2"]])
    fileio.write_matrix(os.path.join(cfg.output_dir, "ibm.csv"), body, header={
        "schema_version": fileio.SCHEMA_VERSION,
        "seed": cfg.seed,
        "columns": "freq_hz,ibm_off,ibm_imc,ibm_imc_constr,ibm_mpc_n1,ibm_mpc_n2",
        "normalization": "sinusoid amplitude A integrates to A/sqrt(2) (RMS)",
        "i_max": cfg.i_max,
        "i_max_bound_n1": bundles[1].i_max_bound,
        "i_max_bound_n2": bundles[2].i_max_bound,
    })
    print(f"trace.csv and ibm.csv written to {cfg.output_dir}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    bundle_dir = os.path.join(cfg.output_dir, "bundle")
    fingerprint = bundle_mod.design_fingerprint(cfg.plant, _design_inputs(cfg, cfg.horizon))
    meta_path = os.path.join(bundle_dir, "meta.txt")
    if os.path.exists(meta_path) and fileio.read_kv(meta_path).get("design_fingerprint") == fingerprint:
        b = bundle_mod.load_bundle(bundle_dir)
        print(f"reusing the design bundle in {bundle_dir}")
    else:
        b = _build_bundle(cfg, cfg.horizon)
        if os.path.isdir(bundle_dir):  # bench owns it: drop files of another layout
            shutil.rmtree(bundle_dir)
        bundle_mod.save_bundle(b, bundle_dir)
        print(f"design bundle written to {bundle_dir}")
    _notice_i_max(cfg.i_max, [b])
    rng = np.random.default_rng(cfg.seed)
    rows = []
    # untimed: the timed step's time outside the six stages; steps: the
    # step without timers, which on the modal path runs another code path
    totals, untimed, steps, iterations = {}, {}, {}, {}
    for workers in range(1, cfg.n_workers + 1):
        ctrl = b.mpc_controller(cfg.i_max, workers)
        y_probe = rng.normal(0.0, 1.0, (64, b.ss.n_y))
        for k in range(50):  # warm-up: pools, caches, branch predictors
            ctrl.step(y_probe[k % 64])
        per_stage = {stage: [] for stage in fgm.SOLVE_STAGES}
        cycle_totals = []
        for k in range(cfg.bench_cycles):
            timers: dict = {}
            t0 = time.perf_counter_ns()
            ctrl.step(y_probe[k % 64], timers=timers)
            cycle_totals.append(time.perf_counter_ns() - t0)
            for stage in fgm.SOLVE_STAGES:
                per_stage[stage].append(timers.get(stage, 0))
        stage_means = 0.0
        for stage in fgm.SOLVE_STAGES:
            values = np.asarray(per_stage[stage], dtype=float) / 1e3
            rows.append((workers, stage, float(values.mean()), float(values.max())))
            stage_means += float(values.mean())
        totals[workers] = float(np.mean(cycle_totals) / 1e3)
        untimed[workers] = totals[workers] - stage_means
        step_ns, counts = [], []
        for k in range(cfg.bench_cycles):
            t0 = time.perf_counter_ns()
            ctrl.step(y_probe[k % 64])
            step_ns.append(time.perf_counter_ns() - t0)
            counts.append(ctrl.iterations)
        steps[workers] = float(np.mean(step_ns) / 1e3)
        iterations[workers] = float(np.mean(counts))
    header = {
        "schema_version": fileio.SCHEMA_VERSION,
        "seed": cfg.seed,
        "columns": "workers,stage,mean_us,max_us",
        "i_max": cfg.i_max,
        "i_max_bound": b.i_max_bound,
        "horizon": b.condensed.N,
        "design_fingerprint": fingerprint,
        "solve_kernel": fgm.solve_kernel(),
        "hessian_form": fgm.hessian_form(b.condensed),
        "observer_form": ctrl.observer_form,
    }
    for workers, total in totals.items():
        header[f"total_mean_us_workers_{workers}"] = fileio.format_float(total)
        header[f"untimed_mean_us_workers_{workers}"] = fileio.format_float(untimed[workers])
        header[f"step_mean_us_workers_{workers}"] = fileio.format_float(steps[workers])
        header[f"iterations_mean_workers_{workers}"] = fileio.format_float(iterations[workers])
    out_path = os.path.join(cfg.output_dir, "timing.csv")
    with open(out_path, "w") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        for workers, stage, mean_us, max_us in rows:
            fh.write(f"{workers},{stage},{fileio.format_float(mean_us)},{fileio.format_float(max_us)}\n")
    print(f"timing.csv written to {cfg.output_dir}")
    print(f"  solve_kernel={header['solve_kernel']}")
    print(f"  hessian_form={header['hessian_form']}")
    print(f"  observer_form={header['observer_form']}")
    for workers, total in totals.items():
        print(f"  workers={workers}: total {total:.1f} us/sample, "
              f"{untimed[workers]:.1f} of it outside the six stages; "
              f"{steps[workers]:.1f} us/sample without stage timers, "
              f"{iterations[workers]:.1f} iterations/solve")
    return 0


def cmd_check(cfg: RunConfig, bundle_dir=None) -> int:
    directory = bundle_dir or cfg.output_dir
    b = bundle_mod.load_bundle(directory, diagnose=True)
    results = bundle_mod.run_checks(b)
    want = bundle_mod.design_fingerprint(cfg.plant, _design_inputs(cfg, cfg.horizon))
    have = b.meta.get("design_fingerprint")
    if have is None:
        detail = "bundle records no design fingerprint"
    elif have != want:
        detail = f"bundle was designed from other inputs ({have[:12]}) than the config's ({want[:12]})"
    else:
        detail = f"design inputs match the config ({want[:12]})"
    results.append(bundle_mod.CheckResult("design_fingerprint", have == want, detail))
    if b.plant.mu != cfg.plant.mu:
        results.append(bundle_mod.CheckResult(
            "mu_consistency", False,
            f"config declares mu={cfg.plant.mu}, bundle has mu={b.plant.mu}"))
    else:
        results.append(bundle_mod.CheckResult("mu_consistency", True,
                                              f"mu={b.plant.mu} matches"))
    if (b.plant.n_y, b.plant.n_u) != (cfg.plant.n_y, cfg.plant.n_u):
        results.append(bundle_mod.CheckResult(
            "dimension_consistency", False,
            f"config plant is {cfg.plant.n_y}x{cfg.plant.n_u}, bundle is {b.plant.n_y}x{b.plant.n_u}"))
    else:
        results.append(bundle_mod.CheckResult("dimension_consistency", True,
                                              f"{b.plant.n_y} monitors x {b.plant.n_u} correctors"))
    failed = 0
    for res in results:
        marker = "PASS" if res.passed else "FAIL"
        print(f"[{marker}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 3
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitmpc",
                                     description="beam-orbit MPC design, simulation and benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("design", "write a design bundle"),
                      ("simulate", "closed-loop run, trace + spectra"),
                      ("bench", "per-stage latency benchmark"),
                      ("check", "validate a design bundle")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="flat key=value run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=None, help="solver worker count (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        if name == "check":
            p.add_argument("--bundle", default=None, help="bundle directory (defaults to output_dir)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed_override=args.seed,
                              workers_override=args.workers, out_override=args.out)
        if args.command == "design":
            return cmd_design(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        return cmd_check(cfg, bundle_dir=getattr(args, "bundle", None))
    except OrbitMpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
