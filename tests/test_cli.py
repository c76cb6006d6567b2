import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

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

    def test_manifest_records_threads_used(self, capsys, tmp_path):
        # 500 trials are one chunk, so one worker runs whatever is asked for
        out = tmp_path / "s.json"
        run_cli(capsys, *SIM_ARGS, "--threads", "64", "--out", str(out))
        assert json.loads((tmp_path / "s.json.manifest.json").read_text())["threads"] == 1
        grid = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--ratio-table", "--trials", "100", "--threads", "64",
            "--out", str(grid),
        )
        assert code == 0
        assert json.loads((tmp_path / "g.json.manifest.json").read_text())["threads"] == 1

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

    def test_small_cutoff_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle-check", "--cutoff", "5", "--n-mean", "2")
        assert code == 2
        # the cascade's gate refuses it, at the step's amplitude sqrt(2) 0.5
        assert "cutoff 5 violates the tail rule (thermal tail" in err
        needed = fock.cutoff_for(2.0, math.sqrt(2.0) * 0.5)
        assert f"use cutoff >= {needed}" in err

    @pytest.mark.parametrize("cutoff,code", [("30", 0), ("27", 1)])
    def test_explicit_cutoff_sets_only_the_concentration_checks(self, capsys, cutoff, code):
        # the heterodyne grid picks its own cutoff (33 at the defaults), so a
        # smaller --cutoff runs the cascade: 30 passes, 27 fails the joint bound
        got, out, _ = run_cli(capsys, "oracle-check", "--cutoff", cutoff, "--json")
        assert got == code
        failing = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert failing == ([] if code == 0 else ["concentration-joint-n2"])

    def test_accepted_run_prints_no_warning(self, capsys):
        # the displacement window once warned of a leak here, against the tail rule
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "oracle-check", "--zeta-re", "3", "--n-mean", "0.1")
        assert code == 1 and caught == []
        assert err == "FAILED: concentration-joint-n2\n"

    @pytest.mark.parametrize(
        "argv,needed",
        [
            (("--n-mean", "3"), "cutoff 97,"),
            (("--n-mean", "10", "--deep"), "cutoff 290,"),
            (("--n-mean", "1e17"), "cutoff 2763102111592854528,"),
            (("--cutoff", "200"), "cutoff 200,"),
        ],
        ids=["n3", "n10-deep", "n1e17", "explicit-200"],
    )
    def test_infeasible_cutoff_exits_2(self, capsys, argv, needed):
        code, _, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2
        assert needed in err and "limit 70" in err

    @pytest.mark.parametrize("cutoff", ["0", "1", "-5"])
    def test_cutoff_below_two_exits_2(self, capsys, cutoff):
        # 0 must not read as unset in some checks and as a cutoff in others
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle-check", "--cutoff", cutoff])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--cutoff" in err and "at least 2" in err and "Traceback" not in err

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
        needed = fock.cutoff_for(1.0, math.sqrt(2.0) * 1e5, fock._DISTANCE_RULE_TOL)
        assert needed > 2e10
        assert f"cutoff {needed}," in err and "limit 70" in err

    @pytest.mark.parametrize("zeta_re", ["1e200", "1e300"])
    def test_overflowing_amplitude_exits_2(self, capsys, zeta_re):
        code, _, err = run_cli(capsys, "oracle-check", "--zeta-re", zeta_re)
        assert code == 2
        assert "no finite cutoff" in err

    @pytest.mark.parametrize("argv", [("--zeta-re", "1e200", "--cutoff", "20"),
                                      ("--zeta-im", "1e308", "--cutoff", "16")])
    def test_overflowing_amplitude_at_an_explicit_cutoff_exits_2(self, capsys, argv):
        # the tail gate squares the amplitude, which overflows float64
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: no finite cutoff reaches tail 1e-08 at amplitude ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_mean", ["1e-8", "1e-14", "1e-20", "1e-300", "5e-324"])
    def test_tiny_n_mean_reaches_every_check(self, capsys, n_mean):
        # the RLD sums invert nothing, so no density is singular; the joint
        # check still fails near 1e-6 here (README's exit-1 list)
        code, out, err = run_cli(capsys, "oracle-check", "--n-mean", n_mean, "--json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["rld-2param"]["pass"] and checks["rld-3param"]["pass"]
        assert "singular" not in (out + err).lower()
        failing = [name for name, c in checks.items() if not c["pass"]]
        assert all(name.startswith("concentration-") for name in failing)
        assert code == (1 if failing else 0)

    def test_rld_check_converges_where_the_tail_rule_cutoff_truncated(self, capsys):
        # the dense check failed both at 1.2e-2, from truncation of the family
        code, out, _ = run_cli(capsys, "oracle-check", "--zeta-re", "1.2", "--n-mean", "2", "--json")
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
            "concentration-joint-n2": "rank-frobenius-bound",
            "concentration-joint-n3": "rank-frobenius-bound",
        }
        cascade = checks["concentration-cascade"]
        assert cascade["kind"] == "telescoped-rank-frobenius-bound" and cascade["tol"] == 1e-6
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

    def test_joint_bound_fails_where_the_marginals_pass(self, capsys):
        # at the default cutoff 20 the marginals pass but the joint output is
        # 3.0e-6 from the product target (bound 3.0e-5); cutoff 46 certifies it
        code, out, err = run_cli(capsys, "oracle-check", "--n-mean", "0.25", "--zeta-re", "1")
        assert code == 1
        assert "FAILED: concentration-joint-n2\n" in err
        line = next(x for x in out.splitlines() if "concentration-joint-n2" in x)
        assert line.startswith("check concentration-joint-n2 max dev") and line.endswith("FAIL")
        code, out, _ = run_cli(
            capsys, "oracle-check", "--n-mean", "0.25", "--zeta-re", "1", "--cutoff", "46", "--json"
        )
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(states, "heterodyne_pdf", lambda params, alpha: 0.0)
        code, out, _ = run_cli(capsys, "oracle-check", "--n-mean", "0.5")
        assert code == 1
        assert "FAIL" in out


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
    "weight": st.sampled_from(["identity2", "identity3"]),
    "clip_nonneg": st.booleans(),
    "threads": st.integers(-2, 4),
    "json": st.booleans(),
    "ratio_table": st.booleans(),
}


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


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(values=_config_values())
def test_any_config_values_end_in_an_exit_code(tmp_path, values):
    # every --config input ends in a result or a stable exit code, never a traceback
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config)])
    assert code in (0, 1, 2, 3)


@st.composite
def _weight_files(draw):
    """(dim, row-major entries) of a weight file, symmetric in about half of them."""
    dim = draw(st.sampled_from([2, 3]))
    entries = draw(st.lists(st.floats(), min_size=dim * dim, max_size=dim * dim))
    if draw(st.booleans()):
        for i in range(dim):
            for j in range(i):
                entries[i * dim + j] = entries[j * dim + i]
    return dim, entries


# G is indefinite by 3e137, within the PSD tolerance of 1e-12 times its
# 5.7e200 entry, and its off-block entries count as zero; the general bound
# reads 6.8e141 and the closed form 1.36e142, so the two are not compared
_WIDE_SCALE_WEIGHT = (3, [6.8e141, 0.0, 1.9687993803331008e171, 0.0, 6.8e141, 0.0,
                          1.9687993803331008e171, 0.0, 5.7e200])


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
def test_any_weight_file_ends_in_a_finite_bound_or_exit_3(tmp_path, weight, n_mean):
    dim, entries = weight
    path = tmp_path / "w.txt"
    path.write_text(f"{dim}\n" + " ".join(map(repr, entries)) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["bounds", "--weight", str(path), f"--n-mean={n_mean!r}", "--json"])
    assert code in (0, 3) and "Traceback" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        for key in ("c_r_general", "c_r_closed", "difference"):
            assert payload[key] is None or math.isfinite(payload[key]), key


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]
)


def _gate_bounds(cutoff):
    """N and |zeta| below which the cascade's gate accepts cutoff at up to 3 copies.

    The thermal tail (N / (N + 1))^cutoff and the Poisson bound at 3 |zeta|^2
    must both fall below the tail tolerance.  The bound rises with its mean
    up to the cutoff, so bisection finds the largest mean; 0.99 keeps clear
    of both edges.
    """
    tol = fock.DEFAULT_TAIL_TOL
    q = tol ** (1.0 / cutoff)
    low, high = 0.0, float(cutoff)
    for _ in range(60):
        mid = (low + high) / 2.0
        if fock.poisson_tail_bound(mid, cutoff) < tol:
            low = mid
        else:
            high = mid
    return 0.99 * q / (1.0 - q), 0.99 * math.sqrt(low / 3.0)


@st.composite
def _oracle_argv(draw):
    """oracle-check flags bounded so that no example runs a large cascade.

    In about half of them --cutoff is at most 40, and N and zeta are finite
    and lie where the cascade's gate accepts that cutoff.  In the rest N <=
    0.5 and |zeta| <= 1, and about a quarter of the values are edge values;
    the ones that would need a large cutoff are refused before any work.
    """
    argv = ["oracle-check", "--json"]
    if draw(st.booleans()):
        cutoff = draw(st.integers(2, 40))
        n_max, zeta_max = _gate_bounds(cutoff)
        coordinate = st.floats(-zeta_max / math.sqrt(2.0), zeta_max / math.sqrt(2.0))
        # N and zeta_re always: the defaults, N = 1 and zeta = 0.5, need cutoff 27
        argv += [f"--cutoff={cutoff}", f"--n-mean={draw(st.floats(0.0, n_max, exclude_min=True))!r}"]
        argv.append(f"--zeta-re={draw(coordinate)!r}")
        if draw(st.booleans()):
            argv.append(f"--zeta-im={draw(coordinate)!r}")
    else:
        values = {
            "n-mean": st.floats(0.0, 0.5, exclude_min=True),
            "zeta-re": st.floats(-0.7, 0.7),
            "zeta-im": st.floats(-0.7, 0.7),
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
@example(argv=["oracle-check", "--json", "--zeta-re=1e200", "--cutoff=20"])
@example(argv=["oracle-check", "--json", "--cutoff=30"])  # exits 0
@example(argv=["oracle-check", "--json", "--cutoff=27"])  # exits 1 on concentration-joint-n2
def test_any_oracle_flags_end_in_a_finite_result_or_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue() and "singular" not in err.getvalue().lower()
    if code in (0, 1):
        checks = json.loads(out.getvalue(), parse_constant=_refuse_constant)["checks"]
        assert all(math.isfinite(c["max_dev"]) for c in checks)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the package must run on numpy alone
    code = "import sys, dtslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
