"""Tests for the command-line interface: exit codes, file outputs, reproducibility."""

import csv
import json
import math
import os
import platform
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ewagg.cli as cli
from ewagg import montecarlo
from ewagg.montecarlo import ComparisonRow

GOOD_CONFIG = """\
[DEFAULT]
replicates = 300
base_seed = 90210

[zero_small]
mu = zero
sigma = 1.0
models = 1..10

[poly_small]
mu = poly:beta=1,scale=1
sigma = 0.5
models = 1..20
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="grid.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_CHILD_ADDRESS_SPACE = 2 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


def run_capped(argv, cwd):
    """Run the CLI in a child process whose address space is capped at 2 GiB.

    An oversized allocation then fails at once whatever the overcommit policy,
    so inputs that need terabytes are safe to try.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "ewagg.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )


class TestSimulate:
    def test_writes_csv_json_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
        assert code == 0
        csv_text = (out / "results.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == (
            "scenario_id,oracle_risk,oracle_index,ure_mean,ure_se,ew_mean,ew_se,"
            "t1_shape,t2_budget,t3_budget,empirical_K,t2_pass,t3_pass"
        )
        assert len(lines) == 3  # header + two scenarios

        records = json.loads((out / "results.json").read_text())
        assert [r["scenario_id"] for r in records] == ["zero_small", "poly_small"]

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64
        assert manifest["base_seeds"] == {"zero_small": 90210, "poly_small": 90210}
        assert "simulate" in manifest["timings_seconds"]
        assert len(manifest["outputs"]) == 2
        assert manifest["build"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
        }

    def test_two_model_scenario_budget_column(self, tmp_path):
        text = (
            "[pair]\n"
            "mu = zero\n"
            "sigma = 1.0\n"
            "models = 1,2\n"
            "replicates = 200\n"
            "base_seed = 5\n"
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            row = next(iter(csv.DictReader(fh)))
        assert float(row["t2_budget"]) == pytest.approx(4.0 * math.log(2.0), rel=1e-15)
        assert float(row["oracle_risk"]) == 1.0
        assert row["oracle_index"] == "1"

    def test_csv_and_json_mirror_identical_values(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(out)])
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = json.loads((out / "results.json").read_text())
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert list(row) == list(record)
            for key, value in record.items():
                if isinstance(value, bool):
                    assert row[key] == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(row[key]) == value  # 17 digits round-trip exactly
                else:
                    assert row[key] == str(value)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()

    def test_output_does_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("base_seed = 90210\n", "base_seed = 90210\nestimator = URE\n"),  # removed key
            ("sigma = 1.0", "sigma = 1e-160"),  # sigma^2 is subnormal
            ("sigma = 1.0", "sigma = 1e-200"),  # sigma^2 underflows to 0
            ("sigma = 1.0", "sigma = 1e200"),  # sigma^2 overflows to inf
            ("replicates = 300", "replicates = 1"),  # no standard error
            ("models = 1..10", "models = 99999999999999999999"),  # beyond int64
            ("[DEFAULT]\n", ""),  # configparser's message spans three lines
        ],
    )
    def test_rejected_scenario_values_are_config_errors(self, tmp_path, capsys, old, new):
        bad = GOOD_CONFIG.replace(old, new)
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert_one_line_error(capsys)

    def test_empty_scenario_list_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text="# nothing here\n")
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_mu_is_config_error(self, tmp_path):
        bad = GOOD_CONFIG.replace("mu = zero", "mu = wavelet:q=3")
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_required_key_is_config_error(self, tmp_path, capsys):
        bad = "[only]\nmu = zero\nsigma = 1.0\n"  # no models/replicates
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "models" in err and "replicates" in err, err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        code = cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(blocker)])
        assert code == 2
        assert_one_line_error(capsys)
        assert blocker.read_text() == "a file, not a directory\n"

    def test_missing_file_is_config_error(self, tmp_path):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_env_seed_supplies_missing_base_seed(self, tmp_path, monkeypatch):
        no_seed = GOOD_CONFIG.replace("base_seed = 90210\n", "")
        cfg = write_config(tmp_path, no_seed)
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o0")])
        assert code == 2  # no seed anywhere

        monkeypatch.setenv(cli.SEED_ENV, "31415")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        manifest = json.loads((out1 / "run_manifest.json").read_text())
        assert set(manifest["base_seeds"].values()) == {31415}

    def test_bound_violation_exits_one(self, tmp_path, monkeypatch):
        # Exit-code contract only; a real violation would contradict the bounds.
        fake_row = ComparisonRow(
            scenario_id="zero_small",
            oracle_risk=1.0,
            oracle_index=1,
            ure_mean=100.0,
            ure_se=0.1,
            ew_mean=100.0,
            ew_se=0.1,
            t1_shape=1.0,
            t2_budget=2.0,
            t3_budget=3.0,
            empirical_K=1.0,
            t2_pass=False,
            t3_pass=True,
        )
        monkeypatch.setattr(cli, "verify_oracle_inequalities", lambda cfg: fake_row)
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_unexpected_exception_exits_three(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("engine fault\nsecond line")

        monkeypatch.setattr(cli, "verify_oracle_inequalities", broken)
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: engine fault second line\n"

    def test_failed_write_keeps_earlier_outputs(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}

        def failing_dump(*args, **kwargs):
            raise TypeError("Object of type float32 is not JSON serializable")

        monkeypatch.setattr(cli.json, "dump", failing_dump)
        # A different seed, so a partial write of the new results would show.
        cfg = write_config(tmp_path, GOOD_CONFIG.replace("90210", "90211"), name="b.cfg")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert_one_line_error(capsys)
        assert sorted(os.listdir(out)) == ["results.csv", "results.json", "run_manifest.json"]
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


class TestBounds:
    def test_single_model_has_zero_t2(self, capsys):
        assert cli.main(["bounds", "--r", "1", "--m", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t2_budget"] == 0.0
        assert payload["combined_budget"] == 0.0
        assert payload["psi"]["r"] == 1.0

    def test_large_ratio_prefers_t3(self, capsys):
        assert cli.main(["bounds", "--r", "100", "--m", "1000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t3_budget"] < payload["t2_budget"]
        assert payload["combined_budget"] == payload["t3_budget"]

    def test_ratio_below_one_is_domain_error(self, capsys):
        assert cli.main(["bounds", "--r", "0.5", "--m", "10"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_non_finite_ratio_is_domain_error(self, capsys, ratio):
        assert cli.main(["bounds", "--r", ratio, "--m", "10"]) == 2
        assert_one_line_error(capsys)

    def test_nonpositive_count_is_domain_error(self):
        assert cli.main(["bounds", "--r", "2", "--m", "0"]) == 2

    def test_huge_model_count_needs_no_memory(self, tmp_path):
        # Run capped: a budget that allocated per model would ask for terabytes.
        proc = run_capped(["bounds", "--r", "2", "--m", "1000000000000"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["t2_budget"] == pytest.approx(4.0 * math.log(1e12), rel=1e-15)
        assert payload["combined_budget"] == min(payload["t2_budget"], payload["t3_budget"])


class TestPsi:
    def test_zero_row(self, capsys):
        assert cli.main(["psi", "0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "r,psi,epsilon_star"
        r, value, eps = lines[1].split(",")
        assert float(r) == 0.0
        assert float(value) == 0.0
        assert float(eps) == 1e-6

    def test_rows_match_library(self, capsys):
        from ewagg.bounds import psi

        assert cli.main(["psi", "1", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        for line, r in zip(lines, (1.0, 0.01)):
            _, value, eps = (float(x) for x in line.split(","))
            assert value == psi(r).psi
            assert eps == psi(r).epsilon_star

    def test_domain_error(self):
        assert cli.main(["psi", "1.5"]) == 2
        assert cli.main(["psi", "0.5", "-0.1"]) == 2


class TestLemmaCheck:
    def test_chi2_upper_passes(self, capsys):
        code = cli.main(
            ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25",
             "--kmax", "500", "--reps", "500", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["budget"] == 4.0
        assert payload["mean"] <= payload["budget"] + payload["tolerance"]

    def test_linear_needs_mu(self):
        code = cli.main(["lemma-check", "--which", "linear", "--alpha", "0.5"])
        assert code == 2

    def test_linear_with_mu(self, capsys):
        code = cli.main(
            ["lemma-check", "--which", "linear", "--alpha", "0.5",
             "--mu", "poly:beta=1,scale=1,N=50", "--reps", "500", "--seed", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_alpha_domain_error(self):
        code = cli.main(
            ["lemma-check", "--which", "chi2_upper", "--alpha", "0.75", "--reps", "10"]
        )
        assert code == 2

    @pytest.mark.parametrize("reps", ["1", "0", "-3"])
    def test_fewer_than_two_replicates_is_domain_error(self, capsys, reps):
        code = cli.main(
            ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25", "--reps", reps]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "replicates" in err, err

    def test_unknown_variant_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lemma-check", "--which", "bogus", "--alpha", "0.25"])
        assert exc.value.code == 2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "99")
        code = cli.main(
            ["lemma-check", "--which", "chi2_lower", "--alpha", "0.5",
             "--kmax", "300", "--reps", "300"]
        )
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        cli.main(
            ["lemma-check", "--which", "chi2_lower", "--alpha", "0.5",
             "--kmax", "300", "--reps", "300", "--seed", "99"]
        )
        second = json.loads(capsys.readouterr().out)
        assert first == second


class TestOversizedInputs:
    """Inputs that need more memory than is available are configuration errors."""

    @pytest.mark.parametrize(
        "config_edit, argv",
        [
            (("models = 1..10", "models = 1..10000000000"), None),  # 74.5 GiB of indices
            (("models = 1..10", "models = 10000000000"), None),  # 74.5 GiB mean vector
            (("replicates = 300", "replicates = 10000000000000"), None),  # 72.8 TiB of losses
            (None, ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25",
                    "--kmax", "10000000000", "--reps", "2"]),  # 74.5 GiB of steps
        ],
        ids=["model_range", "model_index", "replicates", "lemma_kmax"],
    )
    def test_exits_two_with_one_line(self, tmp_path, config_edit, argv):
        # Only ever run capped: uncapped, some of these could be granted lazily
        # and then touched page by page.
        if argv is None:
            cfg = write_config(tmp_path, GOOD_CONFIG.replace(*config_edit))
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        proc = run_capped(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: input needs more memory than is available: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "o").exists()


class TestOverflowingInputs:
    """Inputs whose float64 arithmetic overflows are configuration errors."""

    @pytest.mark.parametrize(
        "config_edit, argv",
        [
            (("mu = zero", "mu = explicit:1e200,1,1,1,1,1,1,1,1,1"), None),  # mu_1^2
            (("sigma = 1.0", "sigma = 1e154"), None),  # sigma^2 m
            (("sigma = 1.0", "sigma = 1e150"), None),  # the losses' variance
            (
                ("mu = zero\nsigma = 1.0\nmodels = 1..10\n",
                 "mu = explicit:1e150,1e150\nsigma = 1e-150\nmodels = 1..1\nreplicates = 2\n"),
                None,
            ),  # r / sigma^2 in the budgets
            (None, ["lemma-check", "--which", "linear", "--alpha", "0.5",
                    "--mu", "explicit:1e200,1"]),  # mu_1^2 in the drift line
        ],
        ids=["mean_square", "noise_times_m", "loss_variance", "budget_ratio", "lemma_linear"],
    )
    def test_exits_two_with_one_line(self, tmp_path, capsys, config_edit, argv):
        if argv is None:
            cfg = write_config(tmp_path, GOOD_CONFIG.replace(*config_edit, 1))
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input overflows float64: overflow encountered in ")
        assert err.count("\n") == 1, err
        assert not caught
        assert not (tmp_path / "o").exists()


class TestModelSetParsing:
    def test_range_and_list(self):
        assert list(cli.parse_model_set_text("1..5")) == [1, 2, 3, 4, 5]
        assert list(cli.parse_model_set_text("1,4,9")) == [1, 4, 9]
        assert list(cli.parse_model_set_text("1..3,7")) == [1, 2, 3, 7]

    def test_duplicates_collapse(self):
        assert list(cli.parse_model_set_text("3,1..4")) == [1, 2, 3, 4]

    def test_text_writes_runs(self):
        assert cli.model_set_text(cli.parse_model_set_text("1..20000")) == "1..20000"
        assert cli.model_set_text(cli.parse_model_set_text("9,1..3,5,6")) == "1..3,5..6,9"
        assert cli.model_set_text(cli.parse_model_set_text("7")) == "7"

    def test_errors(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_model_set_text("")
        with pytest.raises(cli.ConfigError):
            cli.parse_model_set_text("5..2")


class TestConfigDigest:
    def test_digest_tracks_resolved_values(self, tmp_path, monkeypatch):
        scenarios = cli.parse_scenarios(GOOD_CONFIG)
        digest = cli.config_digest(scenarios)
        assert digest == cli.config_digest(cli.parse_scenarios(GOOD_CONFIG))
        other = cli.parse_scenarios(GOOD_CONFIG.replace("90210", "90211"))
        assert cli.config_digest(other) != digest

    def test_digest_bytes_are_pinned(self):
        # The canonical text and its hash must not drift between releases.
        digest = cli.config_digest(cli.parse_scenarios(GOOD_CONFIG))
        assert digest == "7b337c2865edfb551be9f9103e5d7e6b4696f61ba8baba51e3617e27581e6d41"
