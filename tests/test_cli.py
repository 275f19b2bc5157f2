import hashlib
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from orbitmpc import bundle as bundle_mod
from orbitmpc import load_bundle, save_plant_config, synthetic_plant
from orbitmpc.cli import main
from orbitmpc.fileio import read_kv, read_matrix

BASE_CONFIG = """
schema_version = 1
plant = synthetic
synthetic_n_y = 5
synthetic_n_u = 5
synthetic_kappa = 100
synthetic_mu = 2
weights = saturated
horizon = 1
i_max = 15
T = 256
dist_kind = white
dist_sigma = 0.2
seed = 11
n_workers = 1
bench_cycles = 30
"""


def write_config(tmp_path, extra="", body=BASE_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(body + extra)
    return str(path)


def tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestDesignCommand:
    def test_writes_bundle_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        for name in ("plant.cfg", "R.csv", "P.npy", "Q.npy", "q_hat.npy", "r_hat.npy",
                     "L_zmu.npy", "L_d.npy", "J.npy", "q_map_x0.npy",
                     "q_map_d.npy", "bounds.txt", "report.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        assert len(os.listdir(out)) == 18
        bounds = read_kv(os.path.join(out, "bounds.txt"))
        assert {"lambda_min", "lambda_max", "beta", "kappa", "i_max"} <= bounds.keys()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["design", "--config", cfg, "--out", out_a]) == 0
        assert main(["design", "--config", cfg, "--out", out_b]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_missing_response_matrix_exit_2(self, tmp_path, capsys):
        plant = synthetic_plant(4, 4, 10.0, seed=0)
        plant_path = tmp_path / "plant.cfg"
        save_plant_config(plant, str(plant_path))
        os.remove(tmp_path / "R.csv")
        cfg = write_config(tmp_path, body=f"plant = {plant_path}\n")
        code = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "R.csv" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_foreign_files_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        assert main(["design", "--config", cfg, "--out", out]) == 0  # redesign in place
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "L.csv").write_text("0\n")  # a file of the CSV layout
        capsys.readouterr()
        assert main(["design", "--config", cfg, "--out", str(foreign)]) == 2
        err = capsys.readouterr().err
        assert str(foreign) in err and "L.csv" in err
        assert os.listdir(foreign) == ["L.csv"]
        assert (foreign / "L.csv").read_text() == "0\n"

    def test_saturated_report_kappa_far_below_matched(self, tmp_path):
        base = BASE_CONFIG.replace("synthetic_kappa = 100", "synthetic_kappa = 1e4") \
                          .replace("synthetic_n_y = 5", "synthetic_n_y = 8") \
                          .replace("synthetic_n_u = 5", "synthetic_n_u = 8")
        cfg_sat = write_config(tmp_path, body=base + "q_min = 0.01\nq_max = 1.0\n")
        out_sat = str(tmp_path / "sat")
        assert main(["design", "--config", cfg_sat, "--out", out_sat]) == 0
        cfg_imc = (tmp_path / "imc.cfg")
        cfg_imc.write_text(base + "weights = imc_matched\n")
        out_imc = str(tmp_path / "imc")
        assert main(["design", "--config", str(cfg_imc), "--out", out_imc]) == 0
        kappa_sat = float(read_kv(os.path.join(out_sat, "bounds.txt"))["kappa"])
        kappa_imc = float(read_kv(os.path.join(out_imc, "bounds.txt"))["kappa"])
        assert kappa_sat <= kappa_imc / 100.0
        report = Path(out_sat, "report.txt").read_text()
        assert "kappa(J)" in report and "dare_residual" in report


class TestSimulateCommand:
    def test_default_baseline_stays_bounded(self, tmp_path):
        cfg = write_config(tmp_path)  # sets no imc_bandwidth_hz
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        ibm = read_matrix(os.path.join(out, "ibm.csv"))
        ibm_off, ibm_imc = ibm[-1, 1], ibm[-1, 2]
        assert ibm_imc <= 2.0 * ibm_off

    def test_zero_disturbance_zero_ibm(self, tmp_path):
        cfg = write_config(tmp_path, extra="dist_sigma = 0\n")
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        ibm = read_matrix(os.path.join(out, "ibm.csv"))
        assert ibm.shape[1] == 6  # freq + five controller columns
        assert np.all(ibm[:, 1:] == 0.0)

    def test_trace_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        trace = read_matrix(os.path.join(out, "trace.csv"))
        assert trace.shape == (256, 1 + 5 + 5 + 5)
        assert np.array_equal(trace[:, 0], np.arange(256))
        with open(os.path.join(out, "ibm.csv")) as fh:
            header = fh.readline() + fh.readline() + fh.readline() + fh.readline()
        assert "ibm_mpc_n1" in header and "ibm_mpc_n2" in header

    def test_output_headers_record_budget_and_design(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        bundles = {}
        for n in (1, 2):
            cfg_n = tmp_path / f"horizon{n}.cfg"
            cfg_n.write_text(BASE_CONFIG + f"horizon = {n}\n")  # the later key wins
            assert main(["design", "--config", str(cfg_n), "--out", str(tmp_path / f"b{n}")]) == 0
            bundles[n] = load_bundle(str(tmp_path / f"b{n}"))

        def header(name):
            with open(os.path.join(out, name)) as fh:
                lines = [line[1:].strip() for line in fh if line.startswith("#")]
            return [tuple(line.split("=", 1)) for line in lines]

        trace = header("trace.csv")
        assert [key for key, _ in trace[:3]] == ["schema_version", "seed", "columns"]
        assert trace[3:] == [("i_max", "15"),
                             ("i_max_bound", str(bundles[1].i_max_bound)),
                             ("design_fingerprint", bundles[1].meta["design_fingerprint"])]
        ibm = header("ibm.csv")
        assert [key for key, _ in ibm[:4]] == ["schema_version", "seed", "columns", "normalization"]
        assert ibm[4:] == [("i_max", "15"),
                           ("i_max_bound_n1", str(bundles[1].i_max_bound)),
                           ("i_max_bound_n2", str(bundles[2].i_max_bound))]

    def test_observer_dump_flag(self, tmp_path):
        cfg = write_config(tmp_path, extra="observer_dump = 1\n")
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        dump = read_matrix(os.path.join(out, "observer_state.csv"))
        assert dump.shape[0] == 1 + 2 + 1  # x, z1..z_mu (mu = 2), d


class TestBenchCommand:
    def test_stage_schema(self, tmp_path):
        cfg = write_config(tmp_path, extra="n_workers = 2\n")
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        stages = set()
        totals = 0
        with open(os.path.join(out, "timing.csv")) as fh:
            for line in fh:
                if line.startswith("#"):
                    totals += line.count("total_mean_us")
                    continue
                workers, stage, mean_us, max_us = line.strip().split(",")
                stages.add(stage)
                assert float(mean_us) >= 0.0
                assert float(max_us) >= float(mean_us) - 1e-9
        assert stages == {"observer", "q_update", "set_update", "gradient",
                          "projection", "momentum"}
        assert totals == 2  # one total per worker count

    def test_gradient_dominates_at_storage_ring_size(self, tmp_path):
        body = """
schema_version = 1
plant = synthetic
synthetic_n_y = 172
synthetic_n_u = 173
synthetic_kappa = 1e4
synthetic_mu = 2
synthetic_dt = 1e-4
synthetic_bandwidth_hz = 700
weights = saturated
horizon = 2
i_max = 20
seed = 1
n_workers = 1
bench_cycles = 20
"""
        cfg = write_config(tmp_path, body=body)
        out = str(tmp_path / "bench_big")
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        means = {}
        with open(os.path.join(out, "timing.csv")) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                _, stage, mean_us, _ = line.strip().split(",")
                means[stage] = float(mean_us)
        # the fast-gradient iterations (i_max-bounded stages) outweigh the
        # stages that run once per sample
        iterations = means["gradient"] + means["projection"] + means["momentum"]
        per_sample = means["observer"] + means["q_update"] + means["set_update"]
        assert iterations > per_sample


class TestCheckCommand:
    def test_fresh_bundle_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        assert main(["check", "--config", cfg, "--bundle", out]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_corrupted_terminal_cost_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        p_path = os.path.join(out, "P.npy")
        P = np.load(p_path)
        P[0, 0] *= 3.0
        np.save(p_path, P)
        assert main(["check", "--config", cfg, "--bundle", out]) == 3
        assert "dare_residual" in capsys.readouterr().out

    def test_mu_mismatch_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        cfg2 = write_config(tmp_path, extra="synthetic_mu = 4\n")
        assert main(["check", "--config", cfg2, "--bundle", out]) == 3
        assert "mu" in capsys.readouterr().out

    def test_tall_plant_passes_without_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="synthetic_n_y = 6\nsynthetic_n_u = 4\n")
        out = str(tmp_path / "out")
        with pytest.warns(UserWarning, match="least-squares"):
            assert main(["design", "--config", cfg, "--out", out]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg, "--bundle", out]) == 0
        assert "[PASS] setpoint_residual" in capsys.readouterr().out

    def test_basis_of_another_plant_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out, other = str(tmp_path / "out"), str(tmp_path / "other")
        main(["design", "--config", cfg, "--out", out])
        main(["design", "--config", cfg, "--out", other, "--seed", "12"])
        shutil.copyfile(os.path.join(other, "U.npy"), os.path.join(out, "U.npy"))
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 3
        assert "[FAIL] setpoint_residual" in capsys.readouterr().out

    def test_scaled_singular_values_fail(self, tmp_path, capsys):
        # the check's scale is the plant's own sigma_0, not the stored one
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        s_path = os.path.join(out, "S.npy")
        np.save(s_path, 1e9 * np.load(s_path))
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 3
        assert "[FAIL] setpoint_residual" in capsys.readouterr().out

    def test_dimension_mismatch_exit_3(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        cfg2 = write_config(tmp_path, extra="synthetic_n_u = 6\nsynthetic_n_y = 6\n")
        assert main(["check", "--config", cfg2, "--bundle", out]) == 3


class TestConfigValidation:
    def test_bad_horizon_rejected(self, tmp_path):
        cfg = write_config(tmp_path, extra="horizon = 3\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [("i_max", -3), ("bench_cycles", 0)])
    def test_out_of_range_count_rejected_on_read(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, extra=f"{key} = {value}\n")
        out = tmp_path / "bench"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert f"{key} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_nan_synthetic_kappa_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="synthetic_kappa = nan\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "kappa_target" in capsys.readouterr().err

    @pytest.mark.parametrize("component", ["2:abc:0", "2:1", "2:1:0.5"])
    def test_malformed_dist_component_rejected(self, tmp_path, capsys, component):
        cfg = write_config(tmp_path, extra=f"dist_kind = sinusoid_mix\ndist_components = {component}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dist_components" in err and repr(component) in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [5, 9, -1])
    def test_dist_component_mode_outside_monitors_rejected(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, extra=f"dist_kind = sinusoid_mix\ndist_components = 2:1:{mode}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"component 2.0:1.0:{mode}: spatial mode {mode}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_weights_rejected(self, tmp_path):
        cfg = write_config(tmp_path, extra="weights = fancy\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_plant(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["design", "--config", cfg, "--out", out_a])
        main(["design", "--config", cfg, "--out", out_b, "--seed", "99"])
        assert not np.array_equal(read_matrix(os.path.join(out_a, "R.csv")),
                                  read_matrix(os.path.join(out_b, "R.csv")))

    def test_bundle_round_trip_drives_controller(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        bundle = load_bundle(out)
        ctrl = bundle.mpc_controller(i_max=5)
        u = ctrl.step(np.zeros(bundle.ss.n_y))
        assert u.shape == (bundle.ss.n_u,)


class TestConfigKeys:
    def test_misspelled_key_names_the_closest_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="horizn = 2\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'horizn'" in err and "did you mean 'horizon'" in err
        assert not os.path.exists(tmp_path / "o")

    def test_unrelated_key_rejected_without_suggestion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="zzz = 1\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'zzz'" in err and "did you mean" not in err


def strip_fingerprint(bundle_dir):
    meta = Path(bundle_dir, "meta.txt")
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(line for line in lines if not line.startswith("design_fingerprint")))


class TestDesignFingerprint:
    def test_bench_redesigns_when_the_design_inputs_change(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        bundle_dir = os.path.join(out, "bundle")
        cfg = write_config(tmp_path)
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        assert "design bundle written" in capsys.readouterr().out
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        assert "reusing the design bundle" in capsys.readouterr().out
        # same shape (n_y, n_u, mu, N), other weights: the old bundle is stale
        cfg_imc = write_config(tmp_path, extra="weights = imc_matched\n")
        assert main(["bench", "--config", cfg_imc, "--out", out]) == 0
        assert "design bundle written" in capsys.readouterr().out
        assert read_kv(os.path.join(bundle_dir, "meta.txt"))["weights_mode"] == "imc_matched"
        with open(os.path.join(out, "timing.csv")) as fh:
            header = fh.read()
        assert read_kv(os.path.join(bundle_dir, "meta.txt"))["design_fingerprint"] in header

    def test_bench_redesigns_a_bundle_without_fingerprint(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        bundle_dir = os.path.join(out, "bundle")
        cfg = write_config(tmp_path)
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        strip_fingerprint(bundle_dir)
        capsys.readouterr()
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        assert "design bundle written" in capsys.readouterr().out
        assert "design_fingerprint" in read_kv(os.path.join(bundle_dir, "meta.txt"))

    def test_bench_redesigns_a_bundle_of_another_schema(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "bench")
        bundle_dir = os.path.join(out, "bundle")
        cfg = write_config(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(bundle_mod, "SCHEMA_VERSION", 1)
            assert main(["bench", "--config", cfg, "--out", out]) == 0
        assert read_kv(os.path.join(bundle_dir, "meta.txt"))["schema_version"] == "1"
        fresh = set(os.listdir(bundle_dir))
        for stale in ("L.csv", "L_meta.txt", "p_hat.csv"):  # files of the CSV layout
            Path(bundle_dir, stale).write_text("0\n")
        capsys.readouterr()
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        assert "design bundle written" in capsys.readouterr().out
        assert read_kv(os.path.join(bundle_dir, "meta.txt"))["schema_version"] == str(bundle_mod.SCHEMA_VERSION)
        assert set(os.listdir(bundle_dir)) == fresh
        assert len(fresh) == 18

    def test_check_fails_on_other_design_inputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        cfg2 = write_config(tmp_path, extra="sigma_v = 0.5\n")
        capsys.readouterr()
        assert main(["check", "--config", cfg2, "--bundle", out]) == 3
        assert "[FAIL] design_fingerprint" in capsys.readouterr().out

    def test_check_fails_without_fingerprint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        strip_fingerprint(out)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 3
        assert "no design fingerprint" in capsys.readouterr().out


class TestDesignDiagnostics:
    def test_riccati_doublings_and_residuals_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        meta = read_kv(os.path.join(out, "meta.txt"))
        report = dict(line.split(" = ", 1)
                      for line in Path(out, "report.txt").read_text().splitlines() if " = " in line)
        for solve in ("dare", "kalman"):
            assert 1 <= int(meta[f"{solve}_doublings"]) <= 64
            assert float(meta[f"{solve}_residual"]) < 1e-8
            assert report[f"{solve}_doublings"] == meta[f"{solve}_doublings"]
        assert float(report["kalman_residual"]) == float(meta["kalman_residual"])

    def test_i_max_below_bound_noticed(self, tmp_path, capsys):
        # 8x8, N = 2: the design's bound is above the usual budget of 20
        body = BASE_CONFIG.replace("synthetic_n_y = 5", "synthetic_n_y = 8") \
                          .replace("synthetic_n_u = 5", "synthetic_n_u = 8") \
                          .replace("synthetic_kappa = 100", "synthetic_kappa = 1e4") \
                          .replace("horizon = 1", "horizon = 2")
        for command in ("design", "simulate", "bench"):
            cfg = write_config(tmp_path, body=body, extra="i_max = 1\n")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            notices = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("notice:")]
            assert len(notices) == 1 and "i_max = 1 is below" in notices[0], command
        cfg = write_config(tmp_path, body=body, extra="i_max = 100000\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "ample")]) == 0
        assert "notice:" not in capsys.readouterr().out
