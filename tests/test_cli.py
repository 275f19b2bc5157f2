import hashlib
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from orbitmpc import bundle as bundle_mod
from orbitmpc import ConfigError, fgm, load_bundle, save_plant_config, synthetic_plant
from orbitmpc.cli import CONFIG_KEYS, load_run_config, main
from orbitmpc.fileio import read_kv, read_matrix, write_kv, write_matrix

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
bench_cycles = 30
"""


def config_text(body=BASE_CONFIG, extra=""):
    """`body` followed by `extra`, whose keys replace the body's lines of the
    same key (a config may not give a key twice)."""
    given = {line.partition("=")[0].strip() for line in extra.splitlines() if "=" in line}
    kept = [line for line in body.splitlines() if line.partition("=")[0].strip() not in given]
    return "\n".join(kept) + "\n" + extra


def write_config(tmp_path, extra="", body=BASE_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(config_text(body, extra))
    return str(path)


def readme_config():
    """The README's example config (its one ini block)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```")[0]


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
        for name in ("R.npy", "bandwidths.npy", "alpha.npy", "rho.npy", "P.npy", "Q.npy",
                     "q_hat.npy", "r_hat.npy", "L_zmu.npy", "L_d.npy", "meta.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        assert len(os.listdir(out)) == 15
        for name in ("J.npy", "q_map_x0.npy", "q_map_d.npy"):  # rebuilt on load
            assert not os.path.exists(os.path.join(out, name)), name
        meta = read_kv(os.path.join(out, "meta.txt"))
        assert {"n_y", "n_u", "dt", "mu", "lambda_min", "lambda_max", "beta", "kappa",
                "i_max_bound", "epsilon", "delta"} <= meta.keys()

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

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_response_matrix_names_the_line(self, tmp_path, capsys, token):
        save_plant_config(synthetic_plant(4, 4, 10.0, seed=0), str(tmp_path / "plant.cfg"))
        r_path = tmp_path / "R.csv"
        lines = r_path.read_text().splitlines(keepends=True)
        lines[2] = token + lines[2][lines[2].index(","):]
        r_path.write_text("".join(lines))
        cfg = write_config(tmp_path, body=f"plant = {tmp_path / 'plant.cfg'}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 2
        assert f"R.csv:3: non-finite entry {float(token)} in column 1" in capsys.readouterr().err
        assert not out.exists()

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
        cfg_imc.write_text(config_text(base, "weights = imc_matched\n"))
        out_imc = str(tmp_path / "imc")
        assert main(["design", "--config", str(cfg_imc), "--out", out_imc]) == 0
        meta_sat = read_kv(os.path.join(out_sat, "meta.txt"))
        kappa_imc = float(read_kv(os.path.join(out_imc, "meta.txt"))["kappa"])
        assert float(meta_sat["kappa"]) <= kappa_imc / 100.0
        assert "dare_residual" in meta_sat


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
            cfg_n.write_text(config_text(extra=f"horizon = {n}\n"))
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
        cfg = write_config(tmp_path)
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        stages = set()
        totals = 0
        with open(os.path.join(out, "timing.csv")) as fh:
            for line in fh:
                if line.startswith("#"):
                    totals += line.count("total_mean_us")
                    continue
                stage, mean_us, max_us = line.strip().split(",")
                stages.add(stage)
                assert float(mean_us) >= 0.0
                assert float(max_us) >= float(mean_us) - 1e-9
        assert stages == {"observer", "q_update", "set_update", "gradient",
                          "projection", "momentum"}
        assert totals == 1

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
bench_cycles = 20
"""
        cfg = write_config(tmp_path, body=body)
        out = str(tmp_path / "bench_big")
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        means, header = {}, []
        with open(os.path.join(out, "timing.csv")) as fh:
            for line in fh:
                if line.startswith("#"):
                    header.append(line)
                    continue
                stage, mean_us, _ = line.strip().split(",")
                means[stage] = float(mean_us)
        # the compiled solve iterates on the factored Hessian at ring size,
        # where the gradient step still outweighs the other iteration
        # stages; the numpy loop's dense iterations outweigh the stages that
        # run once per sample
        form = "factored" if fgm.solve_kernel() == "compiled" else "dense"
        assert f"# hessian_form={form}\n" in header
        if form == "factored":
            assert means["gradient"] > max(means["projection"], means["momentum"])
        else:
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

    def test_modal_record_line_reports_its_probe_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 0
        line = re.search(r"^\[PASS\] modal_record: probe gap (\S+) against the dense maps "
                         r"\(tolerance 1e-09\)$", capsys.readouterr().out, re.MULTILINE)
        assert line and float(line.group(1)) <= 1e-12

    @staticmethod
    def mixed_bandwidth_config(tmp_path):
        plant = synthetic_plant(4, 4, 10.0, seed=0)
        plant = type(plant)(R=plant.R, bandwidths=[440.0, 440.0, 1900.0, 2100.0], dt=plant.dt,
                            mu=plant.mu, alpha=plant.alpha, rho=plant.rho)
        save_plant_config(plant, str(tmp_path / "plant.cfg"))
        return write_config(tmp_path, body=f"plant = {tmp_path / 'plant.cfg'}\n")

    def test_modal_record_not_applicable_on_a_mixed_bandwidth_plant(self, tmp_path, capsys):
        cfg = self.mixed_bandwidth_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 0
        assert ("[PASS] modal_record: not applicable: the actuators do not share one bandwidth"
                in capsys.readouterr().out)

    def test_ill_conditioned_design_passes_on_the_dense_maps(self, tmp_path, capsys):
        # at kappa(C) = 1e8 the dense q_map_d of a matched-weight design
        # rounds through 1/sigma above the tolerance: check passes, and the
        # controller runs the dense maps even with the kernel built
        cfg = write_config(tmp_path, extra="synthetic_n_y = 8\nsynthetic_n_u = 8\nsynthetic_kappa = 1e8\n"
                                           "weights = imc_matched\nseed = 0\nhorizon = 2\n")
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 0
        line = re.search(r"^\[PASS\] modal_record: probe gap (\S+) on q_map_d, above the tolerance "
                         r"1e-09 but within its rounding through 1/sigma: the controller runs the "
                         r"dense maps$", capsys.readouterr().out, re.MULTILINE)
        assert line and float(line.group(1)) > 1e-9
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "bench")]) == 0
        assert "observer_form=dense\n" in capsys.readouterr().out

    @pytest.mark.parametrize("kappa, seed", [("1e8", 0), ("1e9", 11), ("1e10", 11)])
    def test_ill_conditioned_one_stage_design_passes_the_spectral_bounds(self, tmp_path, capsys,
                                                                          kappa, seed):
        # kappa(J) ~ 1e9 to 1e11: the dense eigensolve's lambda_min drifts
        # from the modal one by ~3e-8 to 3e-7 of lambda_min, ~1e-17 of lambda_max
        cfg = write_config(tmp_path, extra=f"synthetic_n_y = 8\nsynthetic_n_u = 8\n"
                                           f"synthetic_kappa = {kappa}\nweights = imc_matched\n"
                                           f"seed = {seed}\nhorizon = 1\n")
        out = str(tmp_path / "out")
        assert main(["design", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 0
        assert re.search(r"^\[PASS\] spectral_bounds: lambda_min drift \S+ of lambda_max \(tolerance "
                         r"7\.1e-15\), lambda_max drift \S+ relative \(tolerance 1e-08\)$",
                         capsys.readouterr().out, re.MULTILINE)

    @pytest.mark.parametrize("key, factor", [("lambda_min", 1.0 + 1e-11), ("lambda_max", 1.0 + 1e-7)])
    def test_stored_hessian_bound_off_fails_the_spectral_bounds(self, tmp_path, capsys, key, factor):
        # the load derives both bounds from the rebuilt Hessian and refuses
        # a meta.txt that records others, however close
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["design", "--config", cfg, "--out", str(out)])
        meta = read_kv(out / "meta.txt")
        derived, meta[key] = meta[key], repr(float(meta[key]) * factor)
        write_kv(out / "meta.txt", meta)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", str(out)]) == 2
        assert (f"meta.txt key '{key}' = {meta[key]} is not {derived}, derived from the Hessian's "
                "modal blocks, built from q_hat, r_hat and the plant" in capsys.readouterr().err)

    def test_gain_off_its_modes_fails_the_modal_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        path = os.path.join(out, "L_d.npy")
        L_d = np.load(path)
        L_d[0, 1] += 1e-6 * np.max(np.abs(L_d))
        np.save(path, L_d)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", out]) == 3
        assert "[FAIL] modal_record: L_d disagrees with its modal record" in capsys.readouterr().out

    def test_corrupted_terminal_cost_fails(self, tmp_path, capsys):
        # on a plant of one bandwidth the load rebuilds J from P and finds it
        # off the modal blocks
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["design", "--config", cfg, "--out", out])
        p_path = os.path.join(out, "P.npy")
        P = np.load(p_path)
        P[0, 0] *= 3.0
        np.save(p_path, P)
        assert main(["check", "--config", cfg, "--bundle", out]) == 2
        assert re.search(r"Hessian J disagrees with its modal blocks: .*the terminal cost P\b",
                         capsys.readouterr().err)

    def test_corrupted_terminal_cost_on_a_mixed_bandwidth_plant_fails(self, tmp_path, capsys):
        # no modal form: the bounds of the J rebuilt from P differ from the
        # recorded ones, and with those recorded too the DARE residual fails
        cfg = self.mixed_bandwidth_config(tmp_path)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        P = np.load(out / "P.npy")
        P[0, 0] *= 3.0
        np.save(out / "P.npy", P)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--bundle", str(out)]) == 2
        assert re.search(r"meta.txt key 'lambda_min' = \S+ is not \S+, derived from the Hessian J, "
                         r"built from P, R_w and the plant$", capsys.readouterr().err, re.MULTILINE)
        for _ in range(10):  # record every scalar the load derives, as the refusals name them
            try:
                load_bundle(out)
                break
            except ConfigError as exc:
                key, value = re.search(r"meta.txt key '(\w+)' = \S* is not (\S*), derived", str(exc)).groups()
                meta = read_kv(out / "meta.txt")
                meta[key] = value
                write_kv(out / "meta.txt", meta)
        assert main(["check", "--config", cfg, "--bundle", str(out)]) == 3
        report = capsys.readouterr().out
        assert "[FAIL] dare_residual" in report
        assert "[PASS] spectral_bounds: not applicable" in report

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
        bench = str(tmp_path / "bench")
        with pytest.warns(UserWarning, match="least-squares"):
            assert main(["bench", "--config", cfg, "--out", bench]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bench", "--config", cfg, "--out", bench]) == 0  # loads the bundle
        assert "reusing the design bundle" in capsys.readouterr().out

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

    @pytest.mark.parametrize("T", [1, 0, -5])
    def test_run_too_short_for_a_spectrum_rejected_on_read(self, tmp_path, capsys, T):
        cfg = write_config(tmp_path, extra=f"T = {T}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"T must be >= 2, got {T}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_disturbance_file_names_the_line(self, tmp_path, capsys, token):
        rows = np.random.default_rng(0).standard_normal((256, 5))
        rows[9, 4] = float(token)  # line 10: the file has no header
        write_matrix(tmp_path / "dist.csv", rows)
        cfg = write_config(tmp_path, extra="dist_kind = file\ndist_path = dist.csv\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"dist.csv:10: non-finite entry {float(token)} in column 5" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("key, value, least", [
        ("synthetic_n_y", 0, 1), ("synthetic_n_u", -2, 1), ("synthetic_mu", -1, 0),
    ])
    def test_synthetic_plant_size_rejected_by_key(self, tmp_path, capsys, key, value, least):
        cfg = write_config(tmp_path, extra=f"{key} = {value}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"{key} must be >= {least}, got {value}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("key, value", [
        ("sigma_v", "nan"), ("sigma_w", "inf"), ("sigma_m", "inf"), ("epsilon", "nan"),
        ("delta", "nan"), ("dist_sigma", "inf"), ("q_min", "nan"), ("q_max", "inf"),
        ("lambda", "nan"),
    ])
    def test_non_finite_float_rejected_on_read(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, extra=f"{key} = {value}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"config key '{key}' must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("q_min", 0.5), ("q_max", 0.5)])
    def test_lone_weight_bound_honored(self, tmp_path, key, value):
        cfg = write_config(tmp_path, extra=f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        meta = read_kv(out / "meta.txt")
        sigma_0_sq = float(np.load(out / "S.npy")[0]) ** 2
        q_max = value if key == "q_max" else sigma_0_sq
        q_min = value if key == "q_min" else q_max / 100.0
        assert float(meta["q_min"]) == q_min and float(meta["q_max"]) == q_max
        q_hat = np.load(out / "q_hat.npy")
        assert q_hat.min() == q_min and q_hat.max() <= q_max

    @pytest.mark.parametrize("extra, argv", [("seed = -1\n", []), ("", ["--seed", "-3"])])
    def test_negative_seed_rejected(self, tmp_path, capsys, extra, argv):
        cfg = write_config(tmp_path, extra=extra)
        out = tmp_path / "o"
        assert main(["design", "--config", cfg, "--out", str(out), *argv]) == 2
        assert "config key 'seed' must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-5", "0", "500", "1e9", "inf"])
    def test_baseline_bandwidth_outside_nyquist_rejected(self, tmp_path, capsys, value):
        # dt = 1e-3: the baseline's lag filter needs 0 < f < 500 Hz
        cfg = write_config(tmp_path, extra=f"imc_bandwidth_hz = {value}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert ("config key 'imc_bandwidth_hz' must be positive and below the Nyquist "
                "frequency 0.5 / dt = 500 Hz") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_synthetic_dt_rejected(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, extra=f"synthetic_dt = {value}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "dt must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_plant_file_dt_rejected(self, tmp_path, capsys):
        save_plant_config(synthetic_plant(4, 4, 10.0, seed=0), str(tmp_path / "plant.cfg"))
        text = (tmp_path / "plant.cfg").read_text()
        (tmp_path / "plant.cfg").write_text(text.replace("dt = 0.001", "dt = inf"))
        cfg = write_config(tmp_path, body=f"plant = {tmp_path / 'plant.cfg'}\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dt must be finite and positive, got inf" in capsys.readouterr().err

    def test_unknown_plant_file_key_rejected(self, tmp_path, capsys):
        save_plant_config(synthetic_plant(4, 4, 10.0, seed=0), str(tmp_path / "plant.cfg"))
        with open(tmp_path / "plant.cfg", "a") as fh:
            fh.write("rhoo = 5\n")
        cfg = write_config(tmp_path, body=f"plant = {tmp_path / 'plant.cfg'}\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key 'rhoo' (did you mean 'rho'?)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_observer_dump_other_than_0_or_1_rejected(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, extra=f"observer_dump = {value}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"config key 'observer_dump' must be 0 or 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_synthetic_kappa_rejected(self, tmp_path, capsys):
        # an infinite spread would design a rank-deficient plant
        cfg = write_config(tmp_path, extra="synthetic_kappa = inf\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "kappa_target must be finite" in capsys.readouterr().err

    def test_unknown_weights_rejected(self, tmp_path):
        cfg = write_config(tmp_path, extra="weights = fancy\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_plant(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["design", "--config", cfg, "--out", out_a])
        main(["design", "--config", cfg, "--out", out_b, "--seed", "99"])
        assert not np.array_equal(np.load(os.path.join(out_a, "R.npy")),
                                  np.load(os.path.join(out_b, "R.npy")))

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

    def test_readme_example_loads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(readme_config())
        run = load_run_config(str(cfg))
        assert run.plant.n_y == run.plant.n_u == 8 and run.plant.mu == 3
        assert (run.weights_mode, run.horizon, run.i_max, run.T) == ("saturated", 2, 20, 65536)
        assert (run.q_min, run.q_max, run.imc_lambda, run.delta) == (0.01, 1.0, None, None)
        assert run.dist.components == ((2.0, 1.0, 0), (5.0, 0.4, 1))
        assert run.imc_bandwidth_hz == 10.0 and not run.observer_dump

    def test_every_key_is_in_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        missing = [key for key in CONFIG_KEYS
                   if not re.search(rf"(?<![\w]){re.escape(key)}(?![\w])", readme)]
        assert missing == []

    def test_trailing_comment_needs_whitespace(self, tmp_path):
        cfg = write_config(tmp_path, extra="output_dir = out#1\t# a comment\n")
        assert load_run_config(cfg).output_dir == "out#1"

    def test_repeated_key_names_the_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, body="plant = synthetic\nhorizon = 1\n\nhorizon = 2\n")
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}:4: key 'horizon' given twice" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["design", "check", "simulate", "bench"])
    def test_worker_count_key_rejected(self, tmp_path, capsys, command):
        # every solve is one serial loop: a worker count is not a config key
        cfg = write_config(tmp_path, extra="n_workers = 2\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "unknown config key 'n_workers'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "check", "simulate", "bench"])
    def test_worker_count_flag_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_config(tmp_path), "--out", str(out),
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

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
        assert len(fresh) == 15

    def test_bench_refuses_a_bundle_with_an_edited_hessian_bound(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        meta_path = os.path.join(out, "bundle", "meta.txt")
        cfg = write_config(tmp_path)
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        meta = read_kv(meta_path)
        meta["lambda_max"] = "0"  # the fingerprint still matches
        write_kv(meta_path, meta)
        capsys.readouterr()
        assert main(["bench", "--config", cfg, "--out", out]) == 2
        assert "meta.txt key 'lambda_max' = 0 is not " in capsys.readouterr().err

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
    @staticmethod
    def design_records(cfg, out):
        assert main(["design", "--config", cfg, "--out", out]) == 0
        meta = read_kv(os.path.join(out, "meta.txt"))
        for solve in ("dare", "kalman"):
            assert float(meta[f"{solve}_residual"]) < 1e-8
        return meta

    def test_riccati_doublings_and_residuals_recorded(self, tmp_path):
        # one bandwidth: the terminal cost is a closed form per mode, the
        # filter equation one stack of 2 x 2 doublings
        meta = self.design_records(write_config(tmp_path), str(tmp_path / "out"))
        assert meta["riccati_form"] == "modal"
        assert int(meta["dare_doublings"]) == 0
        assert 1 <= int(meta["kalman_doublings"]) <= 64

    def test_mixed_bandwidth_records_dense_doublings(self, tmp_path, mixed_plant):
        save_plant_config(mixed_plant, str(tmp_path / "plant.cfg"))
        cfg = write_config(tmp_path, body=BASE_CONFIG.replace("plant = synthetic",
                                                              f"plant = {tmp_path / 'plant.cfg'}"))
        out = str(tmp_path / "out")
        meta = self.design_records(cfg, out)
        assert meta["riccati_form"] == "dense"
        for solve in ("dare", "kalman"):
            assert 1 <= int(meta[f"{solve}_doublings"]) <= 64
        assert main(["check", "--config", cfg, "--bundle", out]) == 0

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


class TestBenchRecordsTheSolveKernel:
    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_timing_header_and_output(self, tmp_path, capsys, monkeypatch, force_numpy):
        if force_numpy:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        kernel = fgm.solve_kernel()
        assert kernel == "numpy" if force_numpy else kernel in ("compiled", "numpy")
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", write_config(tmp_path), "--out", out]) == 0
        printed = capsys.readouterr().out
        assert f"solve_kernel={kernel}\n" in printed
        with open(os.path.join(out, "timing.csv")) as fh:
            header = [line for line in fh if line.startswith("#")]
        assert f"# solve_kernel={kernel}\n" in header
        # the iterations of the untimed solves: the numpy loop runs every one
        fields = dict(line[2:].strip().split("=", 1) for line in header)
        iterations, i_max = float(fields["iterations_mean"]), int(fields["i_max"])
        assert iterations == i_max if force_numpy else 0.0 < iterations <= i_max
        assert f"{iterations:.1f} iterations/solve" in printed

    def test_timing_header_records_the_time_outside_the_stages(self, tmp_path):
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", write_config(tmp_path), "--out", out]) == 0
        header, means = {}, 0.0
        with open(os.path.join(out, "timing.csv")) as fh:
            for line in fh:
                if line.startswith("# "):
                    key, _, value = line[2:].strip().partition("=")
                    header[key] = value
                else:
                    _, mean_us, _ = line.strip().split(",")
                    means += float(mean_us)
        assert header["columns"] == "stage,mean_us,max_us"
        total, untimed = float(header["total_mean_us"]), float(header["untimed_mean_us"])
        assert 0.0 < untimed < total
        assert untimed == pytest.approx(total - means, rel=1e-9, abs=1e-6)
        # the mean step without stage timers, the path a control loop runs
        assert float(header["step_mean_us"]) > 0.0

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_timing_header_and_output_record_the_hessian_form(self, tmp_path, capsys, monkeypatch,
                                                              force_numpy):
        # a 5x6 plant with saturated weights at N = 2: the factored product
        # needs fewer multiplies, and only the compiled solve runs it
        if force_numpy:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        form = "factored" if fgm.solve_kernel() == "compiled" else "dense"
        body = BASE_CONFIG.replace("synthetic_n_u = 5", "synthetic_n_u = 6") \
                          .replace("horizon = 1", "horizon = 2")
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", write_config(tmp_path, body=body), "--out", out]) == 0
        assert f"hessian_form={form}\n" in capsys.readouterr().out
        with open(os.path.join(out, "timing.csv")) as fh:
            header = [line for line in fh if line.startswith("#")]
        assert f"# hessian_form={form}\n" in header
        meta = read_kv(os.path.join(out, "bundle", "meta.txt"))
        assert meta["hessian_form"] == "factored" and int(meta["hessian_distinct_modes"]) < 6


    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_timing_header_and_output_record_the_observer_form(self, tmp_path, capsys, monkeypatch,
                                                               force_numpy):
        # the synthetic plant shares one bandwidth: the compiled kernel keeps
        # the estimates by mode
        if force_numpy:
            monkeypatch.setattr(fgm, "_load_kernel", lambda: None)
        form = "modal" if fgm.solve_kernel() == "compiled" else "dense"
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", write_config(tmp_path), "--out", out]) == 0
        assert f"observer_form={form}\n" in capsys.readouterr().out
        with open(os.path.join(out, "timing.csv")) as fh:
            header = [line for line in fh if line.startswith("#")]
        assert f"# observer_form={form}\n" in header


@pytest.mark.parametrize("key, value", [("epsilon", "nan"), ("delta", "-1"), ("i_max_bound", "-3")])
def test_bench_refuses_a_bundle_with_edited_iteration_bookkeeping(tmp_path, capsys, key, value):
    out = str(tmp_path / "bench")
    cfg = write_config(tmp_path)
    assert main(["bench", "--config", cfg, "--out", out]) == 0
    meta_path = os.path.join(out, "bundle", "meta.txt")
    meta = read_kv(meta_path)
    meta[key] = value
    write_kv(meta_path, meta)
    capsys.readouterr()
    assert main(["bench", "--config", cfg, "--out", out]) == 2
    assert re.search(rf"(?i)\b{key}\b( must|' = )", capsys.readouterr().err)


def test_zero_delta_design_passes_check(tmp_path, capsys):
    # Delta = 0 is a valid design input: the bundle it writes loads and checks
    cfg = write_config(tmp_path, extra="delta = 0\n")
    out = str(tmp_path / "out")
    assert main(["design", "--config", cfg, "--out", out]) == 0
    assert read_kv(os.path.join(out, "meta.txt"))["i_max_bound"] == "0"
    assert main(["check", "--config", cfg, "--bundle", out]) == 0
    assert "all checks passed" in capsys.readouterr().out
