import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dtslab import cli, fock, states
from dtslab.estimator import MAX_N_COPIES, MAX_N_MEAN


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_identity3(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", "identity3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["c_r_general"] == pytest.approx(6.0, abs=1e-12)
        assert payload["c_r_closed"] == pytest.approx(6.0, abs=1e-12)

    def test_identity2_known_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n-mean", "1", "--weight", "identity2", "--known-n", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c_r_general"] == pytest.approx(4.0, abs=1e-12)
        assert payload["squeeze"]["achieved"] == pytest.approx(4.0, abs=1e-6)

    def test_missing_weight_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", "notafile")
        assert code == 2
        assert "notafile" in err

    def test_non_psd_weight_exits_3(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n1 0 0 -1\n")
        code, _, err = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", str(path))
        assert code == 3
        assert "semidefinite" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_3(self, capsys, tmp_path, bad):
        path = tmp_path / "w.txt"
        path.write_text(f"2\n{bad} 0\n0 1\n")
        code, _, err = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", str(path))
        assert code == 3
        assert "finite" in err

    def test_large_n_mean_stays_valid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1e17", "--json")
        assert code == 0
        assert json.loads(out)["c_r_general"] == pytest.approx((1e17 + 1) * (1e17 + 2))

    @pytest.mark.parametrize("n_mean", ["1.35e154", "1e200"])
    def test_overflowing_three_parameter_bound_exits_3(self, capsys, n_mean):
        # N(N+1) overflows float64 above 1.34e154; the two-parameter bound is
        # finite there, so --known-n still answers
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow used to warn and print Infinity
            code, out, err = run_cli(capsys, "bounds", "--n-mean", n_mean, "--json")
        assert code == 3 and out == ""
        assert "at most 1.34e154" in err
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", n_mean, "--known-n", "--json")
        assert code == 0 and json.loads(out)["c_r_general"] == pytest.approx(2 * float(n_mean))

    def test_bound_that_overflows_for_its_weight_exits_3(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n1e10 0\n0 1e10\n")
        code, out, err = run_cli(capsys, "bounds", "--n-mean", "1e300", "--weight", str(path), "--json")
        assert code == 3 and out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("dim", [2, 3])
    def test_weight_near_the_float64_limit_exits_3(self, capsys, tmp_path, dim):
        # m + m.T overflows here, so the weight must be symmetrized without it
        path = tmp_path / "w.txt"
        path.write_text(f"{dim}\n" + " ".join("1e308" if i % (dim + 1) == 0 else "0"
                                             for i in range(dim * dim)))
        known_n = ("--known-n",) if dim == 2 else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "bounds", "--n-mean", "1", *known_n, "--weight", str(path), "--json"
            )
        assert code == 3 and out == ""
        assert "the bound overflows float64" in err

    @pytest.mark.parametrize("dim", [2, 3])
    def test_huge_weight_closed_form_matches_general(self, capsys, tmp_path, dim):
        # g1^2 overflows at 1e200; the closed form is formed in scaled units
        path = tmp_path / "w.txt"
        path.write_text(f"{dim}\n" + " ".join("1e200" if i % (dim + 1) == 0 else "0"
                                             for i in range(dim * dim)))
        known_n = ("--known-n",) if dim == 2 else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                capsys, "bounds", "--n-mean", "1", *known_n, "--weight", str(path), "--json"
            )
        assert code == 0
        payload = json.loads(out)
        assert payload["c_r_general"] == pytest.approx((4e200, 6e200)[dim - 2], rel=1e-12)
        assert payload["c_r_closed"] == pytest.approx(payload["c_r_general"], rel=1e-12)

    def test_antisymmetric_weight_near_the_float64_limit_exits_3(self, capsys, tmp_path):
        # m - m.T overflows here, so symmetry is tested on m / 2
        path = tmp_path / "w.txt"
        path.write_text("2\n1e308 1e308\n-1e308 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "bounds", "--n-mean", "1", "--known-n", "--weight", str(path)
            )
        assert code == 3 and out == ""
        assert "must be symmetric" in err

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1")
        assert code == 0
        assert "C_R (general matrix formula)" in out

    def test_huge_n_mean_keeps_the_squeeze(self, capsys):
        # the objective is flat in floating point here; the closed-form optimum is not
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1e200", "--known-n", "--json")
        assert code == 0
        squeeze = json.loads(out)["squeeze"]
        assert squeeze["r"] == 0.0 and squeeze["achieved"] == 2e200

    def test_infinite_n_mean_exits_3_naming_n_mean(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n-mean", "inf", "--json")
        assert code == 3 and out == ""
        assert "n_mean must be finite, got inf" in err

    def test_negative_weight_dimension_exits_3(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("-1 5\n")  # one entry, as many as (-1)^2 asks for
        code, out, err = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", str(path))
        assert code == 3 and out == ""
        assert "weight matrix dimension must be 2 or 3, got -1" in err

    def test_non_block_weight_reports_its_closed_form(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n1 0 0.5\n0 1 0\n0.5 0 1\n")
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", str(path))
        assert code == 0
        assert "C_R (closed form)            = 6\n" in out
        assert "difference                   = 0.000e+00\n" in out

    def test_indefinite_wide_scale_weight_exits_3(self, capsys, tmp_path):
        # its (1,3) principal minor is negative by 2.2e-5 of its own terms
        code, out, err = run_cli(capsys, *_bounds_argv(tmp_path, _WIDE_SCALE_WEIGHT, "1e-300"))
        assert code == 3 and out == ""
        assert "weight matrix must be positive semidefinite" in err

    def test_wide_scale_weight_reads_the_same_both_ways(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *_bounds_argv(tmp_path, _PSD_WIDE_SCALE_WEIGHT, "1e-300"))
        assert code == 0
        payload = json.loads(out)
        assert payload["c_r_general"] == payload["c_r_closed"] == 1.36e142
        assert payload["difference"] == 0.0

    @pytest.mark.parametrize("weight", [(2, [-1e-13, 0.0, 0.0, -1e-13]),
                                        (3, [-1e-13, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])])
    def test_small_indefinite_weight_exits_3(self, capsys, tmp_path, weight):
        # a negative diagonal entry is refused at every scale
        code, out, err = run_cli(capsys, *_bounds_argv(tmp_path, weight, "1"))
        assert code == 3 and out == ""
        assert "weight matrix must be positive semidefinite" in err

    def test_small_asymmetric_weight_exits_3(self, capsys, tmp_path):
        # the off-diagonal pair differs by twice its size, however small
        code, out, err = run_cli(capsys, *_bounds_argv(tmp_path, (2, [1e-12, 1e-10, -1e-10, 1e-12]), "1"))
        assert code == 3 and out == ""
        assert "weight matrix must be symmetric" in err

    def test_subnormal_entry_keeps_its_bits(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, *_bounds_argv(tmp_path, (2, [5e-324, 0.0, 0.0, 0.0]), "1e300"), "--known-n"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == [[5e-324, 0.0], [0.0, 0.0]]
        assert payload["c_r_general"] == pytest.approx(4.94e-24, rel=1e-3)

    def test_decimal_rank_one_weight_is_accepted(self, capsys, tmp_path):
        # its determinant in binary is about -9.0e-19, within the tolerance of its terms
        code, out, _ = run_cli(capsys, *_bounds_argv(tmp_path, (2, [1.0, 0.1, 0.1, 0.01]), "1"))
        assert code == 0
        payload = json.loads(out)
        assert payload["c_r_general"] == 1.515
        assert payload["c_r_closed"] == pytest.approx(1.515, rel=1e-15)
        assert payload["squeeze"] is None

    @pytest.mark.parametrize("entries", [[1.0, 0.0, 0.0, 1e-20], [1.0, 1e-9, 1e-9, 1e-17]])
    def test_nearly_singular_weight_reads_its_exact_block(self, capsys, tmp_path, entries):
        # (G11 + G22)/2 is not a float here, so g1 - g2 = G22 holds only exactly
        code, out, _ = run_cli(capsys, *_bounds_argv(tmp_path, (2, entries), "0.5"))
        assert code == 0
        payload = json.loads(out)
        assert payload["difference"] == 0.0
        g11, g12, _, g22 = entries
        r = 0.25 * math.log((g11 * g22 - g12 * g12) / (g11 + g22) ** 2)  # low / high, to first order
        assert payload["squeeze"]["r"] == pytest.approx(r, rel=1e-6)

    @pytest.mark.parametrize("flag", ["--theta1", "--theta2", "--zeta-re", "--zeta-im"])
    def test_parameter_flags_are_refused(self, capsys, flag):
        # the bound depends only on the weight and N
        with pytest.raises(SystemExit) as info:
            cli.main(["bounds", "--n-mean", "1", flag, "1"])
        assert info.value.code == 2
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1", "--json")
        assert code == 0 and "theta" not in json.loads(out)

    # the last is v v^T for v = (0.51, 0.08), whose smaller eigenvalue rounds to 1.4e-17
    @pytest.mark.parametrize("entries", ["1 0 0 0", "1 1 1 1", "0.2601 0.0408 0.0408 0.0064"])
    def test_rank_one_weight_has_no_squeeze(self, capsys, tmp_path, entries):
        path = tmp_path / "w.txt"
        path.write_text(f"2\n{entries}\n")
        code, out, _ = run_cli(capsys, "bounds", "--n-mean", "1", "--weight", str(path), "--json")
        assert code == 0
        assert json.loads(out)["squeeze"] is None


SIM_ARGS = (
    "simulate",
    "--protocol",
    "collective",
    "--n-mean",
    "1",
    "--zeta-re",
    "0.7071",
    "--n-copies",
    "50",
    "--trials",
    "500",
    "--seed",
    "7",
)


class TestSimulateCommand:
    def test_summary_fields(self, capsys):
        code, out, _ = run_cli(capsys, *SIM_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["protocol"] == "collective"
        assert payload["trials"] == 500
        assert payload["c_r"] == pytest.approx(6.0)
        assert payload["ratio"] == pytest.approx(payload["n_trace_gv"] / 6.0)
        assert len(payload["mse_entries"]) == 3
        assert payload["algorithms"]["rng"] == "splitmix64-counter"

    def test_byte_identical_across_threads(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1, _, _ = run_cli(capsys, *SIM_ARGS, "--threads", "1", "--out", str(out1))
        code2, _, _ = run_cli(capsys, *SIM_ARGS, "--threads", "6", "--out", str(out2))
        assert code1 == 0 and code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_written(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        run_cli(capsys, *SIM_ARGS, "--out", str(out))
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert "--seed 7" in manifest["command"]
        assert manifest["outputs"] == [str(out)]
        assert "wall_time_s" in manifest

    def test_manifest_has_no_threads_key(self, capsys, tmp_path):
        # simulation runs on one thread whatever --threads asks, so the manifest does not say
        out = tmp_path / "s.json"
        run_cli(capsys, *SIM_ARGS, "--threads", "64", "--out", str(out))
        assert "threads" not in json.loads((tmp_path / "s.json.manifest.json").read_text())
        grid = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--ratio-table", "--trials", "100", "--threads", "64",
            "--out", str(grid),
        )
        assert code == 0
        assert "threads" not in json.loads((tmp_path / "g.json.manifest.json").read_text())

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--protocol", "separable"),
            ("--n-mean", "7"),
            ("--theta1", "1"),
            ("--theta2", "1"),
            ("--zeta-re", "9"),
            ("--zeta-im", "1"),
            ("--n-copies", "3"),
            ("--weight", "identity3"),
            ("--clip-nonneg", None),
            ("--trial-csv", "rt.csv"),
        ],
    )
    def test_ratio_table_refuses_per_run_flags(self, capsys, tmp_path, flag, value):
        out = tmp_path / "grid.json"
        extra = [] if value is None else [str(tmp_path / value) if flag == "--trial-csv" else value]
        code, stdout, err = run_cli(
            capsys, "simulate", "--ratio-table", "--trials", "100", "--threads", "2",
            "--out", str(out), flag, *extra,
        )
        assert code == 2 and stdout == ""
        assert flag in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_ratio_table_refuses_per_run_config_keys(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ratio_table": True, "trials": 100, "n_copies": 3}))
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2 and stdout == ""
        assert "--n-copies" in err

    def test_trial_csv_schema(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        code, _, _ = run_cli(capsys, *SIM_ARGS, "--trial-csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert len(rows) == 501
        assert [r[0] for r in rows[1:6]] == ["0", "1", "2", "3", "4"]
        first = rows[1]
        assert float(first[4]) >= 0.0 and float(first[6]) >= 0.0

    @pytest.mark.parametrize("csv_name", ["s.json", "./s.json"])
    def test_trial_csv_at_the_summary_path_exits_2(self, capsys, tmp_path, monkeypatch, csv_name):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(
            capsys, *SIM_ARGS, "--out", "s.json", "--trial-csv", csv_name
        )
        assert code == 2 and stdout == ""
        assert "--out" in err and "--trial-csv" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # refused before any sampling

    def test_trial_csv_at_the_manifest_path_exits_2(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, stdout, err = run_cli(
            capsys, *SIM_ARGS, "--out", str(out), "--trial-csv", f"{out}.manifest.json"
        )
        assert code == 2 and stdout == ""
        assert "--out" in err and "--trial-csv" in err and "manifest" in err
        assert list(tmp_path.iterdir()) == []

    def test_known_n_csv_leaves_photon_columns_empty(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--protocol",
            "known-n",
            "--n-mean",
            "1",
            "--n-copies",
            "10",
            "--trials",
            "100",
            "--seed",
            "1",
            "--trial-csv",
            str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == "" and rows[1][6] == ""

    def test_invalid_protocol_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--protocol", "bogus", "--n-mean", "1"])
        assert info.value.code == 2

    def test_too_few_trials_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--protocol", "collective", "--n-mean", "1", "--trials", "50"
        )
        assert code == 2
        assert "trials" in err

    def test_single_copy_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--protocol", "collective", "--n-mean", "1",
            "--n-copies", "1", "--trials", "100",
        )
        assert code == 2
        assert "n-copies" in err

    def test_both_theta_and_zeta_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--protocol",
            "collective",
            "--n-mean",
            "1",
            "--theta1",
            "1",
            "--zeta-re",
            "1",
            "--trials",
            "100",
        )
        assert code == 2

    def test_clip_nonneg_changes_summary(self, capsys):
        args = (
            "simulate", "--protocol", "separable", "--n-mean", "0.05",
            "--n-copies", "3", "--trials", "400", "--seed", "21",
        )
        _, raw_out, _ = run_cli(capsys, *args)
        _, clip_out, _ = run_cli(capsys, *args, "--clip-nonneg")
        raw, clipped = json.loads(raw_out), json.loads(clip_out)
        assert raw["clip_nonneg"] is False and clipped["clip_nonneg"] is True
        assert raw["n_trace_gv"] != clipped["n_trace_gv"]

    def test_ratio_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--ratio-table", "--trials", "200", "--seed", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["table"]) == 9
        cell = next(
            r for r in payload["table"] if r["n_mean"] == 1.0 and r["n_copies"] == 1000
        )
        # at n = 1000 the collective ratio sits near 1, the separable near 4/3
        assert abs(cell["collective_ratio"] - 1.0) < 0.15
        assert abs(cell["separable_ratio"] - 4.0 / 3.0) < 0.2
        # sha256 of the output: the grid draws Gamma at shapes 9, 99 and 999
        # and runs PTRS, which test_golden_bits (n = 10 only) leaves unpinned
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e63d5b0a491876e872a5f0846463de8e25123f073c43c390e99fe79aa4ce5aba"
        )

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "protocol": "collective",
                    "n-mean": 1.0,
                    "zeta-re": 0.7071,
                    "n-copies": 50,
                    "trials": 500,
                    "seed": 7,
                }
            )
        )
        code, out_base, _ = run_cli(capsys, *SIM_ARGS)
        code2, out_cfg, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0 and code2 == 0
        assert out_base == out_cfg
        # flags override the file
        code3, out_override, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--seed", "8"
        )
        assert code3 == 0
        assert json.loads(out_override)["seed"] == 8

    def test_config_file_keeps_explicit_falsy_flags(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 7, "zeta_re": 0.9, "clip_nonneg": True}))
        args = (
            "simulate", "--protocol", "collective", "--n-mean", "1",
            "--n-copies", "3", "--trials", "100", "--config", str(config),
        )
        code, out, _ = run_cli(capsys, *args, "--seed", "0", "--zeta-re", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 0
        assert payload["theta"]["zeta_re"] == 0.0
        # a flag that was not given still comes from the file
        assert payload["clip_nonneg"] is True
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 7 and payload["theta"]["zeta_re"] == 0.9

    @pytest.mark.parametrize("seed", [2**64, -(2**64), -1])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        # a stream key takes the seed as a 64-bit word, where 2^64 and -2^64
        # read as seed 0: refused, not run as another seed
        code, out, err = run_cli(capsys, *SIM_ARGS[:-1], str(seed))
        assert code == 2 and out == ""
        assert f"--seed must be in [0, {2**64 - 1}], got {seed}" in err

    def test_config_seed_outside_64_bits_exits_2(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 2**64}))
        code, out, err = run_cli(capsys, *SIM_ARGS[:-2], "--config", str(config))
        assert code == 2 and out == ""
        assert f"--seed must be in [0, {2**64 - 1}], got {2**64}" in err

    def test_largest_seed_keeps_its_bits(self, capsys):
        summaries = {}
        for seed in (0, 2**64 - 1):
            code, out, _ = run_cli(capsys, *SIM_ARGS[:-1], str(seed))
            assert code == 0
            summaries[seed] = json.loads(out)
        assert summaries[2**64 - 1]["seed"] == 2**64 - 1
        assert summaries[2**64 - 1]["n_trace_gv"] != summaries[0]["n_trace_gv"]

    def test_ratio_table_refuses_a_seed_whose_last_cell_leaves_64_bits(self, capsys):
        # cell c of the 18-cell grid runs at seed + 1000003 c
        top = 2**64 - 1 - 17 * 1000003
        argv = ("simulate", "--ratio-table", "--trials", "100", "--json", "--seed")
        code, out, err = run_cli(capsys, *argv, str(top + 1))
        assert code == 2 and out == ""
        assert f"--seed must be in [0, {top}], got {top + 1}" in err
        code, out, _ = run_cli(capsys, *argv, str(top))
        assert code == 0 and json.loads(out)["seed"] == top

    @pytest.mark.parametrize(
        "key,value",
        [("n_mean", "1"), ("trials", "500"), ("n_copies", 10.5), ("clip_nonneg", 1)],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, capsys, tmp_path, key, value):
        # JSON values are typed as the flags are; a string is not a number and
        # 10.5 is not an int, and the message names the key
        base = {"protocol": "collective", "n_mean": 1, "n_copies": 10, "trials": 500}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**base, key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2 and out == ""
        assert f"key {key!r}" in err and "Traceback" not in err

    def test_n_mean_above_sampler_limit_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--protocol", "collective", "--n-mean", "1e17", "--trials", "100"
        )
        assert code == 3
        assert f"at most {MAX_N_MEAN:g}" in err

    @pytest.mark.parametrize("n_copies", [MAX_N_COPIES + 1, 10**18])
    def test_n_copies_above_limit_exits_3(self, capsys, n_copies):
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", "separable", "--n-mean", "1",
            "--n-copies", str(n_copies), "--trials", "100",
        )
        assert code == 3 and out == ""
        assert f"at most {MAX_N_COPIES}" in err

    @pytest.mark.parametrize("protocol", ["collective", "separable", "known-n"])
    def test_huge_amplitude_exits_3(self, capsys, protocol):
        # sqrt(n) zeta overflowed here and the summary read NaN with exit 0
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", protocol, "--n-mean", "1", "--theta1", "1e308",
            "--n-copies", "10", "--trials", "100",
        )
        assert code == 3 and out == ""
        assert "too large for simulation" in err

    @staticmethod
    def _known_n_at_weight_scale(capsys, tmp_path, scale):
        path = tmp_path / "w.txt"
        path.write_text(f"2\n{scale!r} 0\n0 {scale!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(
                capsys, "simulate", "--protocol", "known-n", "--n-mean", "1", "--n-copies", "10",
                "--trials", "100", "--weight", str(path), "--json",
            )

    @pytest.mark.parametrize("scale", [2.0**400, 2.0**600, 1e200])
    def test_weight_scale_leaves_the_ratio(self, capsys, tmp_path, scale):
        # quad * quad overflows above entries of about 1e154 unless the moments
        # are scaled; a power-of-two scale is exact, so the bits are kept
        code, out, _ = self._known_n_at_weight_scale(capsys, tmp_path, 1.0)
        assert code == 0
        base = json.loads(out)
        code, out, _ = self._known_n_at_weight_scale(capsys, tmp_path, scale)
        assert code == 0
        scaled = json.loads(out)
        assert scaled["se"] > 0
        rel = 0.0 if math.frexp(scale)[0] == 0.5 else 1e-12
        assert scaled["ratio"] == pytest.approx(base["ratio"], rel=rel, abs=0.0)
        assert scaled["ratio_se"] == pytest.approx(base["ratio_se"], rel=rel, abs=0.0)

    @pytest.mark.parametrize(
        "protocol, weight, n_mean",
        [
            ("collective", (3, [0.0] * 9), "1"),
            ("known-n", (2, [0.0] * 4), "1"),
            ("collective", (3, [5e-324] + [0.0] * 8), "1e-300"),  # 0.5 * 5e-324 rounds to 0
        ],
    )
    def test_zero_bound_exits_3_before_any_output(self, capsys, tmp_path, protocol, weight, n_mean):
        path = _weight_path(tmp_path, weight)
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", protocol, f"--n-mean={n_mean}", "--weight", path,
            "--n-copies", "10", "--trials", "100",
            "--out", str(tmp_path / "s.json"), "--trial-csv", str(tmp_path / "t.csv"),
        )
        assert code == 3 and out == ""
        assert err.startswith("error: C_R is 0 ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]

    @pytest.mark.parametrize("csv_before", [None, b"trial\nkept\n"])
    @pytest.mark.parametrize(
        "extra, expected_code, first_line",
        [
            # refused after the run, which has written the trial CSV
            (["--protocol", "known-n", "--weight", "w.txt"], 3,
             "error: the weight's scale 1e+308 is too large: the MSE moments overflow float64"),
            (["--protocol", "collective", "--out", "missing/s.json"], 2,
             "error: [Errno 2] No such file or directory: 'missing/s.json'"),
            # the manifest's path is refused after the summary and the CSV are written
            (["--protocol", "collective", "--out", "s.json"], 2,
             "error: [Errno 21] Is a directory: 's.json.manifest.json'"),
        ],
    )
    def test_failed_run_leaves_no_output_file(
        self, capsys, tmp_path, monkeypatch, extra, expected_code, first_line, csv_before
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_text("2\n1e308 0\n0 1e308\n")
        (tmp_path / "s.json.manifest.json").mkdir()  # in the way of --out s.json's manifest
        if csv_before is not None:
            (tmp_path / "t.csv").write_bytes(csv_before)
        before = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run_cli(
            capsys, "simulate", "--n-mean", "1", "--n-copies", "10", "--trials", "100",
            *extra, "--trial-csv", "t.csv",
        )
        assert code == expected_code and err.splitlines()[0] == first_line
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if csv_before is not None:
            assert (tmp_path / "t.csv").read_bytes() == csv_before

    def test_weight_scale_that_overflows_the_moments_exits_3(self, capsys, tmp_path):
        code, out, err = self._known_n_at_weight_scale(capsys, tmp_path, 1e308)
        assert code == 3 and out == ""
        assert "weight's scale 1e+308 is too large" in err

    def test_memory_does_not_grow_with_trials(self, capsys):
        # one chunk in flight is about 0.7 MiB; every chunk held at once is 31.5 MiB
        tracemalloc.start()
        try:
            code = cli.main([
                "simulate", "--protocol", "known-n", "--n-mean", "1", "--n-copies", "10",
                "--trials", "1000000", "--threads", "2", "--json",
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20

    # sha256 of the summary JSON and the trial CSV; a change to the output bits
    # must update these together with the "algorithms" identifiers
    GOLDEN = {
        "collective": (
            "084578c9ac8100867bec6057f251fce3060a34bbbb7df0473be7d2b4490d21c8",
            "3117e638f856d5ba9fe7a813a751830aa13738057ef8c024ba105bdaaf9645e5",
        ),
        "separable": (
            "b709d9878772b45079eb1b07dd8cd2fe492ea6a2bd8cbf756b681ee9d7488850",
            "011938160d55af6598e9c259dd7aaab6640a1be60e22080ede3e8a5ad079853e",
        ),
        "known-n": (
            "7fbc2b3713af006e259bfcf5db7c32b6500b06cc62d7cff2604144043cc34d66",
            "16a2462e3ccbd39535d5cf7010fa0e9138ba6becc1b2036434cf17b13dedce6b",
        ),
    }

    @pytest.mark.parametrize("protocol", sorted(GOLDEN))
    def test_golden_bits(self, capsys, tmp_path, protocol):
        out, trials = tmp_path / "s.json", tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--protocol", protocol, "--n-mean", "1", "--zeta-re", "0.5",
            "--n-copies", "10", "--trials", "1000", "--seed", "3", "--threads", "1",
            "--out", str(out), "--trial-csv", str(trials),
        )
        assert code == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, trials))
        assert digests == self.GOLDEN[protocol]


class TestOracleCheckCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--json")
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert names == {
            "heterodyne-pdf",
            "photon-pmf",
            "concentration-n2",
            "concentration-joint-n2",
            "rld-2param",
            "rld-3param",
        }
        rld = {c["name"]: c for c in payload["checks"]}
        for name in ("rld-2param", "rld-3param"):
            assert rld[name]["tol"] == 1e-9 and rld[name]["max_dev"] < 1e-12

    def test_moderate_amplitude_passes(self, capsys):
        # the RLD step once refused this input for the condition of its density
        code, out, _ = run_cli(capsys, "oracle-check", "--zeta-re", "0.8", "--json")
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_there_is_no_cutoff_flag(self, capsys):
        # the truncation budget picks every cutoff; the flag is refused as unknown
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle-check", "--cutoff", "40"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --cutoff 40" in err and "Traceback" not in err

    def test_accepted_run_prints_no_warning(self, capsys):
        # the displacement window once warned of a leak here, against the tail rule
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "oracle-check", "--zeta-re", "3", "--n-mean", "0.1")
        assert code == 0 and caught == [] and err == ""

    @pytest.mark.parametrize(
        "argv,needed",
        [
            (("--n-mean", "3"), 85),
            (("--n-mean", "10", "--deep"), 248),
            (("--n-mean", "2", "--zeta-re", "1"), 72),
        ],
        ids=["n3", "n10-deep", "n2-zeta1"],
    )
    def test_infeasible_cutoff_exits_2(self, capsys, argv, needed):
        code, _, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2
        assert f"cutoff of {needed}, above the limit of 70 " in err

    def test_huge_n_mean_exits_2_naming_its_cutoff(self, capsys):
        # at N = 1e17 adjacent cutoffs are 256 apart in float64, and the tail
        # is within about 1e-15 of its minimum, which moves the least cutoff
        # that meets the budget by about 1e-15 / log s, a few hundred
        code, _, err = run_cli(capsys, "oracle-check", "--n-mean", "1e17")
        assert code == 2
        match = re.search(r"cutoff of (\d+), above the limit of 70 ", err)
        assert match and 2.25357852450e18 < int(match.group(1)) < 2.25357852451e18

    def test_unreachable_tail_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle-check", "--n-mean", "1e308")
        assert code == 2
        assert "no finite cutoff" in err

    def test_large_amplitude_is_refused_at_once(self, capsys):
        # the cutoff search gallops and bisects, so a needed cutoff above 2e10
        # is found, and refused by the limit, in a few dozen tail evaluations
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "oracle-check", "--zeta-re", "1e5")
        elapsed = time.perf_counter() - start
        assert code == 2
        assert elapsed < 1.0
        needed = fock.cutoff_for(1.0, math.sqrt(2.0) * 1e5)
        assert needed > 2e10
        assert f"cutoff of {needed}, above the limit of 70 " in err

    @pytest.mark.parametrize("zeta", ["1e10", "1e20", "1e100"])
    def test_huge_finite_amplitude_exits_2_naming_its_cutoff(self, capsys, zeta):
        # the tail's exponent rounds here, which once overflowed; the needed
        # cutoff is above the squared amplitude, and refused by the limit
        code, out, err = run_cli(capsys, "oracle-check", "--zeta-re", zeta)
        assert code == 2 and out == ""
        match = re.search(r"cutoff of (\d+), above the limit of 70 ", err)
        assert match and int(match.group(1)) > 2 * float(zeta) ** 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [("--zeta-re", "1e200"), ("--zeta-re", "1e300"), ("--zeta-im", "1e308"), ("--zeta-re", "1.2e154")],
    )
    def test_overflowing_amplitude_exits_2(self, capsys, argv):
        # the budget squares the cascade's amplitude, which overflows float64
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: no finite cutoff meets the truncation budget at amplitude ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_mean", ["1e-8", "1e-14", "1e-20", "1e-300", "5e-324"])
    def test_tiny_n_mean_passes_every_check(self, capsys, n_mean):
        # the RLD sums invert nothing, so no density is singular; the budget's
        # vacuum term sets the cutoff, so the joint check passes too
        code, out, err = run_cli(capsys, "oracle-check", "--n-mean", n_mean, "--json")
        checks = json.loads(out)["checks"]
        assert "singular" not in (out + err).lower()
        assert code == 0 and all(c["pass"] for c in checks)

    def test_rld_check_converges_where_the_tail_rule_cutoff_truncated(self, capsys):
        # the dense check failed both at 1.2e-2 at zeta 1.2, N = 2, from
        # truncation of the family; the cascade's budget there, cutoff 76, is
        # now above the limit, and at N = 1.5 (cutoff 63) every check passes
        code, _, err = run_cli(capsys, "oracle-check", "--zeta-re", "1.2", "--n-mean", "2")
        assert code == 2 and "cutoff of 76, " in err
        code, out, _ = run_cli(capsys, "oracle-check", "--zeta-re", "1.2", "--n-mean", "1.5", "--json")
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])
        code, out, _ = run_cli(capsys, "oracle-check", "--zeta-re", "2", "--n-mean", "0.5", "--json")
        rld = [c for c in json.loads(out)["checks"] if c["name"].startswith("rld-")]
        assert len(rld) == 2 and all(c["pass"] and c["max_dev"] < 1e-12 for c in rld)

    def test_deep_adds_cascade(self, capsys, monkeypatch):
        calls, solves = [], []
        beam_splitter_blocks, beam_splitter_spectra = (
            fock._beam_splitter_blocks, fock._beam_splitter_spectra
        )

        def counting(phi, spectra):
            calls.append(phi)
            return beam_splitter_blocks(phi, spectra)

        def counting_spectra(cutoff):
            solves.append(cutoff)
            return beam_splitter_spectra(cutoff)

        monkeypatch.setattr(fock, "_beam_splitter_blocks", counting)
        monkeypatch.setattr(fock, "_beam_splitter_spectra", counting_spectra)
        code, out, _ = run_cli(
            capsys, "oracle-check", "--n-mean", "0.5", "--zeta-re", "0.5", "--deep", "--json"
        )
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert "concentration-n3" in checks
        kinds = {name: c.get("kind") for name, c in checks.items() if "joint" in name}
        assert kinds == {
            "concentration-joint-n2": "row-norm-bound",
            "concentration-joint-n3": "row-norm-bound",
        }
        cascade = checks["concentration-cascade"]
        assert cascade["kind"] == "telescoped-row-norm-bound" and cascade["tol"] == 1e-6
        assert cascade["max_dev"] == (
            checks["concentration-joint-n2"]["max_dev"] + checks["concentration-joint-n3"]["max_dev"]
        )
        # one cascade serves every check: one set of beam-splitter blocks per
        # step, from one spectra solve for the whole cascade
        assert calls == [fock.concentration_angle(1), fock.concentration_angle(2)]
        assert len(solves) == 1

    def test_complex_amplitude_certifies_the_cascade_at_its_modulus(self, capsys, monkeypatch):
        # abs(0.3 + 0.4j) == 0.5 in float64, so the concentration entries of
        # the two runs are equal; the heterodyne density keeps the complex zeta
        amplitudes = []
        density = fock.displaced_thermal_density

        def recording(zeta, n_mean, cutoff):
            amplitudes.append(zeta)
            return density(zeta, n_mean, cutoff)

        monkeypatch.setattr(fock, "displaced_thermal_density", recording)
        entries = []
        for argv in (("--zeta-re", "0.5"), ("--zeta-re", "0.3", "--zeta-im", "0.4")):
            amplitudes.clear()
            code, out, _ = run_cli(capsys, "oracle-check", "--deep", *argv, "--json")
            assert code == 0
            checks = json.loads(out)["checks"]
            entries.append([c for c in checks if c["name"].startswith("concentration")])
        assert len(entries[0]) == 5 and entries[0] == entries[1]
        # the complex run's densities: the cascade's, then the heterodyne one
        assert amplitudes[-1] == 0.3 + 0.4j
        assert all(type(z) is float for z in amplitudes[:-1])

    @pytest.mark.parametrize(
        "argv,n_mean,cutoff", [(("--deep",), 1.0, 40), (("--n-mean", "0.5"), 0.5, 25)]
    )
    def test_concentration_records_hold_the_numbers_behind_their_verdict(
        self, capsys, argv, n_mean, cutoff
    ):
        # every concentration record holds the cascade's cutoff and its tail
        # there; the other records do not, and the text lines stay as they were
        code, out, _ = run_cli(capsys, "oracle-check", *argv, "--json")
        assert code == 0
        n_copies = 3 if "--deep" in argv else 2
        gate = {"cutoff": cutoff, "tail": fock.tail(n_mean, n_copies * 0.5 * 0.5, cutoff)}
        checks = json.loads(out)["checks"]
        names = [c["name"] for c in checks if c["name"].startswith("concentration")]
        assert len(names) == (5 if n_copies == 3 else 2)
        for c in checks:
            held = {key: c[key] for key in gate if key in c}
            assert held == (gate if c["name"].startswith("concentration") else {})
        code, text, _ = run_cli(capsys, "oracle-check", *argv)
        assert code == 0
        assert [line.split()[1] for line in text.splitlines()] == [c["name"] for c in checks]
        assert "tail" not in text and "cutoff" not in text

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("--n-mean", "0.25", "--zeta-re", "1"), 0),
            (("--n-mean", "0.1", "--zeta-re", "0.5"), 0),
            (("--n-mean", "0.5", "--zeta-re", "1"), 0),
            (("--deep", "--n-mean", "1", "--zeta-re", "1"), 0),
            (("--n-mean", "0.05"), 0),
            (("--n-mean", "1", "--zeta-re", "1.5"), 0),
            (("--zeta-re", "2", "--n-mean", "0.5"), 0),
            (("--n-mean", "2", "--zeta-re", "2"), 2),
            (("--deep", "--n-mean", "1", "--zeta-re", "2"), 2),
        ],
    )
    def test_inputs_that_failed_a_check_now_pass_or_exit_2(self, capsys, argv, code):
        # each exited 1 under the old cutoff rule and rank-Frobenius bound; the
        # budget raises their cutoffs and the row-norm bound tightens the joint
        # check, so each passes, or exits 2 with its cutoff above the limit
        got, out, err = run_cli(capsys, "oracle-check", *argv, "--json")
        assert got == code
        if code == 2:
            assert "above the limit of 70 " in err and out == ""
        else:
            assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(states, "heterodyne_pdf", lambda params, alpha: 0.0)
        code, out, _ = run_cli(capsys, "oracle-check", "--n-mean", "0.5")
        assert code == 1
        assert "FAIL" in out


@st.composite
def _weight_files(draw):
    """(dim, row-major entries) of a weight file, symmetric in about half of them.

    The dimension runs over -2..4, so some files have no 2x2 or 3x3 shape.
    """
    dim = draw(st.integers(-2, 4))
    entries = draw(st.lists(st.floats(), min_size=dim * dim, max_size=dim * dim))
    if draw(st.booleans()):
        for i in range(dim):
            for j in range(i):
                entries[i * dim + j] = entries[j * dim + i]
    return dim, entries


@st.composite
def _psd_weight_files(draw, dim):
    """(dim, row-major entries) of a weight file holding A A^T.

    A is dim x rank, so a rank below dim gives a rank-deficient product,
    and the product is scaled by 2^e over many binades.  In about half of
    them each diagonal entry is lowered by up to 4e-12 of itself, which
    takes a rank-deficient product to either side of the PSD test's
    tolerance, PSD_MINOR_TOL = 1e-12 of each minor's terms.
    """
    rank = draw(st.integers(1, dim))
    a = [draw(st.lists(st.floats(-2.0, 2.0), min_size=rank, max_size=rank)) for _ in range(dim)]
    binade = draw(st.integers(-200, 200))
    g = [[math.ldexp(math.fsum(x * y for x, y in zip(a[i], a[j])), binade) for j in range(dim)]
         for i in range(dim)]
    if draw(st.booleans()):
        for i in range(dim):
            g[i][i] -= draw(st.floats(0.0, 4e-12)) * g[i][i]
    return dim, [x for row in g for x in row]


def _weight_path(tmp_path, weight):
    """Write (dim, row-major entries) as a weight file; return its path."""
    dim, entries = weight
    path = tmp_path / "w.txt"
    path.write_text(f"{dim}\n" + " ".join(map(repr, entries)) + "\n")
    return str(path)


_finite = st.floats(-1e3, 1e3)
# each key's own kind of value, bounded so that no example starts a large run
# or a large pool; trials is always present, because the defaults (100000, or
# 20000 for the grid) are slow
_CONFIG_REQUIRED = {
    "trials": st.integers(90, 1000),
    "protocol": st.sampled_from(["collective", "separable", "known-n"]),
    "n_mean": st.floats(0.0, 1e9),
}
_CONFIG_OPTIONAL = {
    "theta1": _finite,
    "theta2": _finite,
    "zeta_re": _finite,
    "zeta_im": _finite,
    "n_copies": st.integers(-1, 50),
    "seed": st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70)),
    "weight": st.one_of(st.sampled_from(["identity2", "identity3"]), _weight_files()),
    "clip_nonneg": st.booleans(),
    "threads": st.integers(-2, 4),
    "json": st.booleans(),
    "ratio_table": st.booleans(),
    # relative paths, which land in the example's own directory
    "out": st.just("s.json"),
    "trial_csv": st.just("t.csv"),
}
_OUTPUT_KEYS = ("out", "trial_csv")


@st.composite
def _config_values(draw):
    """A --config object; in about half of them one key has another JSON type."""
    values = draw(st.fixed_dictionaries(_CONFIG_REQUIRED, optional=_CONFIG_OPTIONAL))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(values)))
        own = {**_CONFIG_REQUIRED, **_CONFIG_OPTIONAL}[key]
        values[key] = draw(
            st.one_of(
                own.map(str),
                st.none(),
                st.booleans(),
                st.integers(-3, 3),
                st.floats(),
                st.text(alphabet="ab-_.", max_size=3),
                st.lists(st.integers(0, 3), max_size=2),
            )
        )
    return values


@st.composite
def _weighted_runs(draw):
    """A --config object whose run reads its weight file: every other key is in range.

    The weight is a file of the protocol's dimension that holds a PSD matrix
    or one just outside the PSD test's tolerance.
    """
    protocol = draw(st.sampled_from(["collective", "separable", "known-n"]))
    return {
        "trials": draw(st.integers(100, 1000)),
        "protocol": protocol,
        "n_mean": draw(st.floats(1e-300, 1e9)),
        "n_copies": draw(st.integers(2, 50)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "weight": draw(_psd_weight_files(2 if protocol == "known-n" else 3)),
        **draw(st.fixed_dictionaries({}, optional={k: _CONFIG_OPTIONAL[k] for k in _OUTPUT_KEYS})),
    }


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(values=st.one_of(_weighted_runs(), _config_values()))
@example(values={"trials": 100, "protocol": "collective", "n_mean": 1.0,
                 "weight": (3, [1.6, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 1.0])})
@example(values={"trials": 100, "protocol": "collective", "n_mean": 1.0, "weight": (3, [0.0] * 9)})
@example(values={"trials": 100, "protocol": "known-n", "n_mean": 1.0, "weight": (2, [0.0] * 4)})
# C_R = 0.5 * 5e-324, which rounds to 0
@example(values={"trials": 100, "protocol": "collective", "n_mean": 1e-300,
                 "weight": (3, [5e-324] + [0.0] * 8)})
# C_R = N(N+1) = 1e-320, and the separable trace is about 1: the ratio overflows
@example(values={"trials": 100, "protocol": "separable", "n_mean": 1e-320,
                 "weight": (3, [0.0] * 8 + [1.0])})
def test_any_config_values_end_in_an_exit_code(tmp_path, values):
    # every --config input ends in a result or a stable exit code, never a
    # traceback, and `simulate` never exits 1 (a failed oracle verdict); no
    # exit other than 0 leaves an output file
    run_dir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    if isinstance(values.get("weight"), tuple):  # a weight file
        values = {**values, "weight": _weight_path(run_dir, values["weight"])}
    config = run_dir / "cfg.json"
    config.write_text(json.dumps(values))
    before = sorted(run_dir.iterdir())
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["simulate", "--config", str(config)])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3)
    if code != 0:
        assert sorted(run_dir.iterdir()) == before
    if code == 0 and out.getvalue().startswith("{"):
        payload = json.loads(out.getvalue(), parse_constant=_refuse_non_finite)
        assert "table" in payload or payload["expected_ratio_large_n"] is not None


def _refuse_non_finite(constant):
    raise AssertionError(f"the summary holds {constant}")


# G is indefinite: its (1,3) principal minor is negative by 2.2e-5 of its
# own terms, and `eigvalsh` gives -3e137
_WIDE_SCALE_WEIGHT = (3, [6.8e141, 0.0, 1.9687993803331008e171, 0.0, 6.8e141, 0.0,
                          1.9687993803331008e171, 0.0, 5.7e200])
# the same with the largest (1,3) entry whose minor is >= 0; its off-block
# entries do not enter the bound, and at N = 1e-300 both forms read 2 * 6.8e141
_PSD_WIDE_SCALE_WEIGHT = (3, [6.8e141, 0.0, 1.968755952371954e171, 0.0, 6.8e141, 0.0,
                              1.968755952371954e171, 0.0, 5.7e200])


def _bounds_argv(tmp_path, weight, n_mean):
    """`bounds --json` argv for a weight file holding (dim, row-major entries)."""
    return "bounds", "--weight", _weight_path(tmp_path, weight), f"--n-mean={n_mean}", "--json"


@settings(
    max_examples=100,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(weight=_weight_files(), n_mean=st.floats())
@example(weight=(2, [1.0, 0.0, 0.0, 1.0]), n_mean=1.0)
@example(weight=_WIDE_SCALE_WEIGHT, n_mean=1e-300)
@example(weight=_PSD_WIDE_SCALE_WEIGHT, n_mean=1e-300)
@example(weight=(2, [1.0, 0.0, 0.0, 1e-20]), n_mean=0.5)  # (G11 + G22)/2 rounds 1e-20 away
@example(weight=(2, [1.0, 1e-9, 1e-9, 1e-17]), n_mean=0.5)
@example(weight=(2, [-1e-13, 0.0, 0.0, -1e-13]), n_mean=1.0)
@example(weight=(3, [-1e-13, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]), n_mean=1.0)
@example(weight=(2, [1e-12, 1e-10, -1e-10, 1e-12]), n_mean=1.0)
@example(weight=(2, [5e-324, 0.0, 0.0, 0.0]), n_mean=1e300)  # the real term's g1 rounds to 0
@example(weight=(2, [1.0, 0.1, 0.1, 0.01]), n_mean=1.0)
@example(weight=(-1, [5.0]), n_mean=1.0)
def test_any_weight_file_ends_in_a_finite_bound_or_exit_3(tmp_path, weight, n_mean):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(_bounds_argv(tmp_path, weight, repr(n_mean))))
    assert code in (0, 3) and "Traceback" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        for key in ("c_r_general", "c_r_closed", "difference"):
            assert math.isfinite(payload[key]), key
        general, closed = payload["c_r_general"], payload["c_r_closed"]
        assert general >= 0.0 and closed >= 0.0
        assert abs(closed - general) <= _closed_form_tolerance(payload["weight"], n_mean)


def _closed_form_tolerance(weight, n_mean):
    """How far `bounds` may report c_r_closed from c_r_general.

    Both sum the same four terms, rounded in another order: 8 ulps of the
    sum of their magnitudes.  Both radicals are G11 G22 - G12^2 exactly,
    since `two_param_gs` keeps g1 = (G11 + G22)/2 and g2 = (G11 - G22)/2 as
    exact halves.  The closed form's real term 2(N + 1/2) g1 reads g1 as a
    float, fl(g1); the general form's reads G11 and G22 themselves.  That
    rounding changes the real term by (2N + 1)|fl(g1) - g1| exactly, before
    the products round.  It stays within the 8 ulps wherever fl(g1) is
    normal; where a diagonal entry is subnormal it does not: fl(5e-324 / 2)
    is 0, and at N = 1e300 the term is 4.9e-24 on a bound of 4.9e-24.
    """
    (g11, g12, *_), (_, g22, *_) = weight[:2]
    radicand = Fraction(g11) * Fraction(g22) - Fraction(g12) ** 2
    g1 = (Fraction(g11) + Fraction(g22)) / 2
    halving = Fraction(2 * n_mean + 1) * abs(Fraction(float(g1)) - g1)
    terms = (n_mean + 0.5) * (abs(g11) + abs(g22)) + _sqrt(abs(radicand))
    if len(weight) == 3:
        terms += n_mean * (n_mean + 1.0) * abs(weight[2][2])
    return 8 * math.ulp(terms) + float(halving)


def _sqrt(x):
    """sqrt(x) to within an ulp, for a Fraction x >= 0 whose denominator is a power of two."""
    t = 100 + x.denominator.bit_length() // 2
    return math.isqrt(x.numerator * 4**t // x.denominator) / 2**t


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]
)


@st.composite
def _oracle_argv(draw):
    """oracle-check flags bounded so that no example runs a large cascade.

    N is at most 0.5 and each coordinate of zeta at most 0.49 in size, so
    |zeta| < 0.7 and the budgeted cutoff is at most 30, with --deep too.
    About a quarter of the values are edge values; the ones that would need
    a large cutoff are refused before any work.
    """
    argv = ["oracle-check", "--json"]
    values = {
        "n-mean": st.floats(0.0, 0.5, exclude_min=True),
        "zeta-re": st.floats(-0.49, 0.49),
        "zeta-im": st.floats(-0.49, 0.49),
    }
    for flag, finite in values.items():
        if flag == "n-mean" or draw(st.booleans()):
            value = draw(_EDGE_FLOATS if draw(st.integers(0, 3)) == 0 else finite)
            argv.append(f"--{flag}={value!r}")
    if draw(st.booleans()):
        argv.append("--deep")
    return argv


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} in the JSON")


@settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_oracle_argv())
@example(argv=["oracle-check", "--json", "--n-mean=1e-320", "--zeta-re=1e-300"])
@example(argv=["oracle-check", "--json", "--n-mean=1e-300", "--zeta-re=1.5"])
@example(argv=["oracle-check", "--json", "--n-mean=1e-08"])
@example(argv=["oracle-check", "--json", "--n-mean=1e-14"])
@example(argv=["oracle-check", "--json", "--n-mean=0.1", "--zeta-re=0.5"])
@example(argv=["oracle-check", "--json", "--n-mean=0.25", "--zeta-re=1"])
@example(argv=["oracle-check", "--json", "--zeta-re=1e200"])
def test_any_oracle_flags_end_in_a_finite_result_or_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    # an accepted input passes every check: none exits 1
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue() and "singular" not in err.getvalue().lower()
    if code == 0:
        checks = json.loads(out.getvalue(), parse_constant=_refuse_constant)["checks"]
        assert all(math.isfinite(c["max_dev"]) and c["pass"] for c in checks)


def test_cli_import_loads_numpy_alone():
    # scipy, hypothesis and pytest are test-only dependencies, and no runtime
    # dependency comes in for one function: outside the standard library,
    # `import dtslab.cli` loads numpy and nothing else
    code = """
import sys
before = set(sys.modules)
import dtslab.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names)))
print(sorted({"scipy", "hypothesis", "pytest"} & {name.split(".")[0] for name in sys.modules}))
"""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.splitlines() == ["['dtslab', 'numpy']", "[]"]


def test_cli_import_builds_no_large_array():
    # import time stays free of numerical work: after `import dtslab.cli` no
    # dtslab module holds a numpy array above 64 KiB, directly or in a
    # top-level list, tuple or dict, so tables such as the cascade's are
    # built per call
    code = """
import sys
import numpy as np
import dtslab.cli

def arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [v for v in value if isinstance(v, np.ndarray)]
    return []

modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "dtslab"]
print(len(modules))
for module in modules:
    for attr, value in vars(module).items():
        size = sum(a.nbytes for a in arrays(value))
        if size > 64 * 1024:
            print(module.__name__, attr, size)
"""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    count, *large = result.stdout.splitlines()
    assert int(count) >= 9 and large == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
