"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.ensure_source()

import loop  # noqa: E402
from orbitmpc import sim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = WORKLOADS["small-n2"]
SHORT_T = 256


def closed_loop(seed: int, tmp_path):
    plant, _, ctrl = loop.set_up(SMALL, str(tmp_path / f"bundle-{seed}"))
    dist = loop.make_disturbance(SMALL, seed)
    p = loop.run_pass(plant, loop.TimedController(ctrl, plant.n_u), dist, SHORT_T)
    off = sim.simulate(plant, None, dist, SHORT_T)
    return plant, p, loop.ibm_ratio(SMALL, p.trace, off)


def test_same_seed_repeats_plant_disturbance_and_ratio(tmp_path):
    plant_a, pass_a, ratio_a = closed_loop(5, tmp_path)
    plant_b, pass_b, ratio_b = closed_loop(5, tmp_path)
    assert np.array_equal(plant_a.R, plant_b.R)
    assert np.array_equal(pass_a.trace.d, pass_b.trace.d)
    assert np.array_equal(pass_a.trace.u, pass_b.trace.u)
    assert ratio_a == ratio_b
    assert not pass_a.failed


def test_other_seed_changes_the_inputs():
    d = [sim.disturbance(loop.make_disturbance(SMALL, seed), SHORT_T, SMALL.n_y) for seed in (5, 6)]
    assert not np.array_equal(d[0], d[1])


def test_shorter_pass_replays_a_prefix_of_the_disturbance():
    spec = loop.make_disturbance(SMALL, 5)
    full = sim.disturbance(spec, SHORT_T, SMALL.n_y)
    assert np.array_equal(sim.disturbance(spec, SHORT_T // 3, SMALL.n_y), full[: SHORT_T // 3])


def test_feasibility_checker_flags_hand_made_violations():
    alpha, rho = np.array([1.0, 1.0]), np.array([0.1, 0.1])
    u = np.array([
        [0.1, 0.0],                # fine: slew 0.1 from the zero reset state
        [0.2, 0.05],               # fine
        [0.35, 0.05],              # slew 0.15 > rho
        [0.35, np.nan],            # non-finite
        [0.35, 0.0],               # fine
        [0.35 + 1e-10, 0.0],       # within the slack
        [0.4, 0.0],                # fine
        [1.0 + 1e-6, 0.0],         # amplitude and slew
        [1.0 + 1e-6, 0.0],         # amplitude only
    ])
    bad = loop.infeasible_samples(u, alpha, rho)
    assert bad.tolist() == [False, False, True, True, False, False, False, True, True]


def test_raising_step_is_a_failed_sample():
    class Broken:
        def reset(self):
            pass

        def step(self, y_k, timers=None):
            raise FloatingPointError("boom")

    timed = loop.TimedController(Broken(), n_u=2)
    assert np.array_equal(timed.step(np.zeros(2)), np.zeros(2))
    assert list(timed.failed) == [0]


def test_workload_whose_design_raises_fails_all_its_samples():
    broken = dataclasses.replace(SMALL, name="broken", weights="no-such-weights", T=SHORT_T)
    result = run.run_workload(broken, seed=0, seconds=1.0, trace=False, prov={})
    assert len(result["failed"]) == result["attempted"] == SHORT_T
    assert "no-such-weights" in result["errors"][0]


def test_workloads_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _last_json(args):
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                         capture_output=True, text=True, timeout=170)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_are_declared(trace, section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    code, result = _last_json(["--workload", "small-n2", "--seed", "0", "--seconds", "1",
                               "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
