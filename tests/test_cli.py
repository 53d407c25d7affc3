"""Tests for the command-line interface: exit codes, file outputs, reproducibility."""

import csv
import dataclasses
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


def _child_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")


def run_capped(argv, cwd):
    """Run the CLI in a child process whose address space is capped at 2 GiB.

    An oversized allocation then fails at once whatever the overcommit policy,
    so inputs that need terabytes are safe to try.
    """
    return subprocess.run(
        [sys.executable, "-m", "ewagg.cli", *argv],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120,
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
        assert manifest["replicates"] == {"zero_small": 300, "poly_small": 300}
        assert "simulate" in manifest["timings_seconds"]
        assert len(manifest["outputs"]) == 2
        assert set(manifest["engine"]) == {"workers", "cpus", "blocks"}
        assert manifest["build"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
            "exp_kernel": manifest["build"]["exp_kernel"],
        }

    def test_manifest_names_the_exp_kernel(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        kernel = json.loads((out / "run_manifest.json").read_text())["build"]["exp_kernel"]
        if int(np.__version__.split(".")[0]) < 2:  # no numpy.lib.introspect
            assert kernel is None
        else:
            assert isinstance(kernel, str) and kernel

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "text, most, blocks",
        [
            # At 10,000 values per block, 300 rows of N = 10 fit one block of
            # 1,000 rows in one process, and 1,000 rows of N = 20 take two of
            # 500.  So a call with workers >= 2 runs in two processes, and each
            # runs a half of each scenario as one block.
            (GOOD_CONFIG.replace("models = 1..20", "models = 1..20\nreplicates = 1000"), 2,
             {1: {"zero_small": 1, "poly_small": 2}, 3: {"zero_small": 2, "poly_small": 2}}),
            # Nothing forks.
            (GOOD_CONFIG.split("[poly_small]")[0], 1,
             {1: {"zero_small": 1}, 3: {"zero_small": 1}}),
        ],
        ids=["two_blocks", "one_block"],
    )
    def test_manifest_records_the_engine(
        self, monkeypatch, tmp_path, workers, text, most, blocks
    ):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 10_000)
        out, config = tmp_path / "out", write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        engine = json.loads((out / "run_manifest.json").read_text())["engine"]
        assert engine["blocks"] == blocks[workers]
        assert engine["workers"] == workers
        processes = min(workers, most)  # most: a scenario's blocks in one process
        if processes == 1:  # the caller runs alone, unpinned
            assert engine["cpus"] is None
        else:
            assert engine["cpus"] == sorted(os.sched_getaffinity(0))[:processes]

    def test_results_do_not_depend_on_workers_or_blocks(self, monkeypatch, tmp_path):
        # 400 rows of N = 100, once with a gapped model set: one-row blocks,
        # blocks of 40 rows, blocks of 150 rows with a short last one, and the
        # production size, in one or more processes.  N = 10,000 runs in
        # one-row blocks at each size.
        config = write_config(tmp_path, GOOD_CONFIG + (
            "[poly_wide]\nmu = poly:beta=1,scale=1,N=100\nsigma = 0.3\nmodels = 1..100\n"
            "replicates = 400\n\n"
            "[sparse_gapped]\nmu = sparse:k=5,amp=1,N=100\nsigma = 0.1\nmodels = 1..5,20,50..60\n"
            "replicates = 400\n\n"
            "[one_row]\nmu = poly:beta=1,scale=1\nsigma = 0.05\nmodels = 1..10000\nreplicates = 5\n"
        ))
        outputs, sizes = set(), (1, 40 * 100, 150 * 100, montecarlo._BLOCK_VALUES)
        for workers in (1, 2, 3):
            for block_values in sizes:
                monkeypatch.setattr(montecarlo, "_WORKERS", workers)
                monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", block_values)
                out = tmp_path / f"out_{workers}_{block_values}"
                assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
                outputs.add(((out / "results.csv").read_bytes(),
                             (out / "results.json").read_bytes()))
                # Every size takes several blocks at N = 100, so workers > 1 fork.
                cpus = json.loads((out / "run_manifest.json").read_text())["engine"]["cpus"]
                assert (cpus is None) == (workers == 1)
        assert len(outputs) == 1

    def test_manifest_times_each_scenario(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        timings = json.loads((out / "run_manifest.json").read_text())["timings_seconds"]
        assert list(timings["scenarios"]) == ["zero_small", "poly_small"]
        assert all(seconds > 0.0 for seconds in timings["scenarios"].values())
        assert sum(timings["scenarios"].values()) <= timings["simulate"]
        # Timings stay out of the results: each record holds the row's fields only.
        fields = [field.name for field in dataclasses.fields(ComparisonRow)]
        assert all(list(r) == fields for r in json.loads((out / "results.json").read_text()))

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

    @pytest.mark.parametrize(
        "old, new",
        [
            ("base_seed = 90210\n", "base_seed = 90210\nestimator = URE\n"),  # removed key
            ("base_seed = 90210", "base_seed = abc"),  # not a number
            ("base_seed = 90210", "base_seed = 1e3"),  # not an integer literal
            ("sigma = 1.0", "sigma = 1e-160"),  # sigma^2 is subnormal
            ("sigma = 1.0", "sigma = 1e-200"),  # sigma^2 underflows to 0
            ("sigma = 1.0", "sigma = 1e200"),  # sigma^2 overflows to inf
            ("mu = zero", "mu = poly:beta=1,beta=3"),  # repeated mean parameter
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

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"[a]\nmu = zero\xff\n")
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and err.count("\n") == 1, err

    def test_empty_scenario_list_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text="# nothing here\n")
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_mu_is_config_error(self, tmp_path, capsys):
        bad = GOOD_CONFIG.replace("mu = zero", "mu = wavelet:q=3")
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert_one_line_error(capsys)

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

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert_one_line_error(capsys)

    def test_env_seed_supplies_missing_base_seed(self, tmp_path, monkeypatch, capsys):
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
        # The seed from the environment gives the bytes of the same seed in the config.
        seeded = write_config(tmp_path, GOOD_CONFIG.replace("90210", "31415"), name="seeded.cfg")
        assert cli.main(["simulate", "--config", seeded, "--out", str(tmp_path / "o4")]) == 0
        assert (tmp_path / "o4" / "results.csv").read_bytes() == (out1 / "results.csv").read_bytes()

        capsys.readouterr()
        monkeypatch.setenv(cli.SEED_ENV, "abc")
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o3")]) == 2
        assert capsys.readouterr().err == "error: EWAGG_SEED must be an integer, got 'abc'\n"

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
        engine = {"workers": 1, "cpus": None, "blocks": {}}
        monkeypatch.setattr(
            cli,
            "verify_scenarios",
            lambda cfgs: ([fake_row] * len(cfgs), [1e-3] * len(cfgs), engine),
        )
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_unexpected_exception_exits_three(self, tmp_path, monkeypatch, capsys):
        def broken(cfgs):
            raise RuntimeError("engine fault\nsecond line")

        monkeypatch.setattr(cli, "verify_scenarios", broken)
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

    def test_ratio_one_ulp_below_one_is_domain_error(self, capsys):
        assert cli.main(["bounds", "--r", "0.9999999999999999", "--m", "10"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: oracle risk must be finite and >= sigma^2 = 1.0, got 0.9999999999999999\n"
        )

    def test_nonpositive_count_is_domain_error(self, capsys):
        assert cli.main(["bounds", "--r", "2", "--m", "0"]) == 2
        assert_one_line_error(capsys)

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

    def test_domain_error(self, capsys):
        assert cli.main(["psi", "1.5"]) == 2
        assert cli.main(["psi", "0.5", "-0.1"]) == 2
        captured = capsys.readouterr()
        assert not captured.out  # not even the header or the row of 0.5
        assert captured.err == (
            "error: psi needs r in [0, 1], got 1.5\nerror: psi needs r in [0, 1], got -0.1\n"
        )


def test_psi_and_bounds_never_import_numpy_random():
    # numpy defers numpy.random, and only the Monte Carlo commands need it.
    script = (
        "import sys\n"
        "import ewagg.cli as cli\n"
        "codes = cli.main(['psi', '0.5', '1e-6']), cli.main(['bounds', '--r', '100', '--m', '10'])\n"
        "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == "(0, 0) False\n"


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

    def test_linear_needs_mu(self, capsys):
        code = cli.main(["lemma-check", "--which", "linear", "--alpha", "0.5"])
        assert code == 2
        assert_one_line_error(capsys)

    def test_repeated_mu_parameter_is_domain_error(self, capsys):
        code = cli.main(["lemma-check", "--which", "linear", "--alpha", "0.5",
                         "--mu", "poly:N=5,N=50", "--reps", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeated parameter" in err, err

    def test_linear_with_mu(self, capsys):
        code = cli.main(
            ["lemma-check", "--which", "linear", "--alpha", "0.5",
             "--mu", "poly:beta=1,scale=1,N=50", "--reps", "500", "--seed", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_alpha_domain_error(self, capsys):
        code = cli.main(
            ["lemma-check", "--which", "chi2_upper", "--alpha", "0.75", "--reps", "10"]
        )
        assert code == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("which", ["chi2_upper", "chi2_lower"])
    def test_mu_rejected_for_chi_square_variants(self, capsys, which):
        code = cli.main(
            ["lemma-check", "--which", which, "--alpha", "0.25", "--reps", "10",
             "--mu", "poly:beta=1,scale=1,N=5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: mu must be given for the linear variant and only for it\n"

    @pytest.mark.parametrize("reps", ["1", "0", "-3"])
    def test_fewer_than_two_replicates_is_domain_error(self, capsys, reps):
        code = cli.main(
            ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25", "--reps", reps]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "replicates" in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma-check", "--which", "bogus", "--alpha", "0.25"],
            ["lemma-check", "--which", "foo", "--alpha", "1"],
            ["bounds", "--r", "abc", "--m", "3"],
            ["psi"],
        ],
    )
    def test_unknown_variant_rejected_by_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert_one_line_error(capsys)

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

        monkeypatch.setenv(cli.SEED_ENV, "abc")
        code = cli.main(["lemma-check", "--which", "chi2_lower", "--alpha", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: EWAGG_SEED must be an integer, got 'abc'\n"


class TestClosedStdout:
    """A reader that closes stdout early does not change the exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", *(repr(j / 2998) for j in range(2999))],  # ~177 kB, past a pipe's buffer
            ["bounds", "--r", "100", "--m", "10"],
        ],
        ids=["psi", "bounds"],
    )
    def test_success_still_exits_zero(self, tmp_path, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ewagg.cli", *argv], cwd=tmp_path, env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")

    def test_failed_lemma_check_still_exits_one(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        failed = montecarlo.RiskEstimate(mean=100.0, std_error=0.1, replicates=2)
        with open(write_end, "w") as closed_pipe, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", closed_pipe)
            patch.setattr(cli, "lemma2_empirical", lambda *args, **kwargs: failed)
            code = cli.main(["lemma-check", "--which", "chi2_upper", "--alpha", "0.25"])
        assert code == 1


def run_cli(argv, cwd, cpu=None):
    """Run the CLI in a child process, confined to the one CPU cpu unless cpu is None.

    The mask is set in the child before it starts Python, so the engine there
    sees a one-CPU machine; the test process keeps its own mask.
    """
    confine = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.run(
        [sys.executable, "-m", "ewagg.cli", *argv],
        cwd=cwd, env=_child_env(), capture_output=True, timeout=120, preexec_fn=confine,
    )


class TestOneCpuMask:
    """A run confined to one CPU by a real affinity mask writes the bytes of an unconfined run.

    Each command is sized against the engine's block size so that one process
    takes several blocks: the confined run then runs them in one unpinned
    process, and the unconfined one forks when its mask has more than one CPU.
    """

    CPU = min(os.sched_getaffinity(0))

    @staticmethod
    def replicates(width):
        """Two full blocks and a short third of width values per replicate, in one process."""
        return 2 * max(1, montecarlo._BLOCK_VALUES // width) + 1

    def test_simulate(self, tmp_path):
        # a and c take three blocks in one process, b (N = 10, 50 rows) one.
        config = write_config(tmp_path, (
            f"[a]\nmu = poly:beta=1,scale=1\nsigma = 0.3\nmodels = 1..100\n"
            f"replicates = {self.replicates(100)}\nbase_seed = 3\n\n"
            "[b]\nmu = zero\nsigma = 1.0\nmodels = 1..10\nreplicates = 50\nbase_seed = 3\n\n"
            f"[c]\nmu = sparse:k=5,amp=1\nsigma = 0.1\nmodels = 1..5000\n"
            f"replicates = {self.replicates(5000)}\nbase_seed = 3\n"
        ))
        runs = {}
        for name, cpu in (("one", self.CPU), ("all", None)):
            proc = run_cli(["simulate", "--config", config, "--out", name], tmp_path, cpu)
            assert (proc.returncode, proc.stderr) == (0, b"")
            runs[name] = json.loads((tmp_path / name / "run_manifest.json").read_text())["engine"]
        for output in ("results.csv", "results.json"):
            one, unconfined = (tmp_path / name / output for name in ("one", "all"))
            assert one.read_bytes() == unconfined.read_bytes()
        assert runs["one"] == {"workers": 1, "cpus": None, "blocks": {"a": 3, "b": 1, "c": 3}}
        mask = sorted(os.sched_getaffinity(0))
        assert runs["all"]["workers"] == len(mask)
        if len(mask) > 1:  # one pinned process per CPU, at most one per block of a
            assert runs["all"]["cpus"] == mask[:3]

    @pytest.mark.parametrize(
        "argv, width",
        [
            (["--which", "chi2_upper", "--alpha", "0.25", "--kmax", "500"], 500),
            (["--which", "linear", "--alpha", "0.5", "--mu", "poly:beta=1,scale=1,N=100"], 100),
        ],
        ids=["chi2_upper", "linear"],
    )
    def test_lemma_check(self, tmp_path, argv, width):
        argv = ["lemma-check", *argv, "--reps", str(self.replicates(width)), "--seed", "4"]
        one, unconfined = (run_cli(argv, tmp_path, cpu) for cpu in (self.CPU, None))
        assert (one.returncode, one.stderr) == (0, b"")
        assert (unconfined.returncode, unconfined.stdout) == (one.returncode, one.stdout)


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

    def test_short_mean_fails_before_the_model_set_is_built(self, tmp_path):
        # 1..1000000000 would take 7.45 GiB of indices, over the 2 GiB cap.
        text = GOOD_CONFIG.replace("mu = zero\nsigma = 1.0\nmodels = 1..10",
                                   "mu = explicit:1,2\nsigma = 1.0\nmodels = 1..1000000000")
        cfg = write_config(tmp_path, text)
        proc = run_capped(["simulate", "--config", cfg, "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "error: scenario [zero_small]: mean spec 'explicit:1,2' has length 2, "
            "below the max model index 1000000000\n"
        )

    @pytest.mark.parametrize("count", [2**60, 2**63 - 1, 2**64], ids=["2^60", "2^63-1", "2^64"])
    @pytest.mark.parametrize("command", ["simulate", "lemma-check"])
    def test_replicate_count_beyond_any_array_names_replicates(self, tmp_path, command, count):
        # Only ever run capped: a count past the check could build block slices
        # until the process is killed.
        if command == "simulate":
            text = GOOD_CONFIG.replace("replicates = 300", f"replicates = {count}")
            cfg = write_config(tmp_path, text)
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        else:
            argv = ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25", "--reps", str(count)]
        proc = run_capped(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert f"replicates must be <= {np.iinfo(np.intp).max // 32}" in proc.stderr
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


MODEL_TEXTS_PAST_INT64 = [
    "99999999999999999999",
    "1..99999999999999999999",
    "-99999999999999999999",
    "-99999999999999999999..3",
    "9223372036854775808",  # 2**63: fits uint64, whose cast to int64 would wrap
    "1..9223372036854775808",
]


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

    @pytest.mark.parametrize("text", MODEL_TEXTS_PAST_INT64)
    def test_index_past_int64_names_the_limit(self, text):
        with pytest.raises(ValueError, match=r"^model indices must be >= 1 and below 2\*\*63$"):
            cli.parse_model_set_text(text)

    @pytest.mark.parametrize("text", MODEL_TEXTS_PAST_INT64)
    def test_index_past_int64_exits_two_through_simulate(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, GOOD_CONFIG.replace("models = 1..10", f"models = {text}"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario [zero_small]: model indices must be >= 1 and below 2**63\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["5,1..9223372036854775807", "1..9223372036854775807"])
    def test_run_numpy_cannot_hold_is_memory_error(self, text):
        # One flag per index up to 2**63 - 1 is 8 EiB, which numpy refuses
        # without touching memory; the run is never dropped.
        with pytest.raises(MemoryError):
            cli.parse_model_set_text(text)

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
