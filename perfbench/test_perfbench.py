"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    spec = _benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_traced_call_counts_match_the_workload_definition():
    grid = workloads.build("grid", 7, 1)["commands"][0]
    metrics = _run("grid", 1)["metrics"]
    assert metrics["sequence_model.generate_observation.calls"]["value"] == grid["replicates"]
    assert metrics["risk.oracle_risk.calls"]["value"] == len(grid["scenarios"])
    checks = workloads.build("checks", 7, 1)["commands"]
    psi_evals = sum(cmd["psi_evals"] for cmd in checks)
    assert _run("checks", 1)["metrics"]["bounds.psi.calls"]["value"] == psi_evals


def test_metric_names_and_declared_units_agree():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_the_child_spans():
    tree = [
        ("cli.main", -1, 0.0, 10.0),
        ("montecarlo.verify_oracle_inequalities", 0, 1.0, 9.0),
        ("sequence_model.generate_observation", 1, 2.0, 3.0),
        ("estimators.risk_profile", 1, 3.0, 4.5),
        ("estimators.aggregate", 3, 3.5, 4.0),
        ("bounds.psi", 0, 9.0, 9.5),
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 5.5, 1.0, 1.0, 0.5, 0.5])

    summary = spans.summarise(tree, wall_s=10.0)
    assert summary["estimators.risk_profile.calls"] == 1
    assert summary["estimators.risk_profile.us_per_call"] == pytest.approx(1.5e6)
    assert summary["montecarlo.verify_oracle_inequalities.share"] == pytest.approx(0.55)
    assert summary["risk.oracle_risk.calls"] == 0
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == pytest.approx(10.0)


def _ewagg_bindings():
    import ewagg  # noqa: F401
    import ewagg.cli  # noqa: F401

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "ewagg" or name.startswith("ewagg.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_uninstall_restores_every_binding():
    import ewagg.cli

    before = _ewagg_bindings()
    tracer = spans.Tracer()
    tracer.install()
    wrapped = {key for key, value in _ewagg_bindings().items() if hasattr(value, "perfbench_layer")}
    # Each lookup site of a re-exported name is wrapped, not only the defining module.
    assert {("ewagg.cli", "psi"), ("ewagg.bounds", "psi"), ("ewagg.montecarlo", "aggregate"),
            ("ewagg.cli", "main")} <= wrapped
    tracer.uninstall()
    after = _ewagg_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, "perfbench_layer") for value in after.values())

    # Calls after uninstall record nothing.
    recorded = len(tracer.spans)
    assert ewagg.cli.main(["psi", "0.5"]) == 0
    assert len(tracer.spans) == recorded


def test_runs_outside_a_checkout_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_benchmark_json()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
