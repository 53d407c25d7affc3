"""ewagg benchmark: one workload, closed loop, one fresh process per iteration.

Usage:
    python3 perfbench/run.py --workload grid|wide|checks --seed N --seconds S --trace 0|1

Run from the root of an ewagg checkout; the program under test is imported
from its src/ directory.  Each iteration starts a fresh child process that
imports ewagg, writes the workload's generated inputs and calls
ewagg.cli.main(argv) for every command of the workload, with one BLAS/OpenMP
thread.  Children start on the CPUs in rotation and then widen their CPU mask
to every CPU this process may use.  Iterations repeat until S seconds have
passed (at least three).
After the timed loop, every output is checked against an independent numpy
reference (perfbench/reference.py) and all iterations must produce the same
bytes.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over iterations); with --trace 1 traced and untraced
iterations alternate and the metrics are per layer.  A result file with
provenance, output hashes and every sample goes to .perfbench_run/results/.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
CHILD = os.path.join(HERE, "child.py")

MIN_ITERATIONS = 3
SETUP_ONLY_CHILDREN = 10
CHILD_TIMEOUT_S = 60
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIMULATE_OUTPUTS = ("results.csv", "results.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "psi_evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "share": "fraction"}
PER_LAYER_UNITS = {
    **{f"{layer}.{stat}": _STAT_UNITS[stat] for layer in spans.LAYER_NAMES for stat in spans.LAYER_STATS},
    "sequence_model.normals_drawn": "count",
    "trace.overhead_ratio": "fraction",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """sha256 over every file under src/ewagg, byte-code caches excluded."""
    package = os.path.join(SRC, "ewagg")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(package, "**", "*"), recursive=True)):
        if not os.path.isfile(path) or "__pycache__" in path.split(os.sep):
            continue
        digest.update(os.path.relpath(path, package).encode())
        with open(path, "rb") as fh:
            digest.update(_sha256(fh.read()).encode())
    return digest.hexdigest()


def inputs_digest(spec: dict) -> str:
    """Identifies the generated inputs: config files and command lines."""
    inputs = {"inputs": spec["inputs"], "argv": [cmd["argv"] for cmd in spec["commands"]]}
    return _sha256(json.dumps(inputs, sort_keys=True).encode())


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, seconds: int, spec: dict) -> dict:
    return {
        "git_commit": git_commit(),
        **_reproducibility_key(spec),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
        "command_lines": [["ewagg", *cmd["argv"]] for cmd in spec["commands"]],
        "replicates": [cmd["replicates"] for cmd in spec["commands"]],
        "inputs": spec["inputs"],
    }


class Runner:
    """Runs child iterations of one workload in its own working directory."""

    def __init__(self, workload: str, seed: int, spec: dict):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.workdir = os.path.join(WORK, f"{workload}-seed{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        self.report_path = os.path.join(self.workdir, "report.json")
        self.env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
        argvs = [cmd["argv"] for cmd in spec["commands"]]
        self.jobs = {}
        for name, commands, trace in (("setup", [], False), ("plain", argvs, False),
                                      ("traced", argvs, True)):
            path = os.path.join(self.workdir, f"job-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"src": SRC, "cpus": self.cpus, "inputs": spec["inputs"],
                           "commands": commands, "trace": trace}, fh)
            self.jobs[name] = path
        self.launches = dict.fromkeys(self.jobs, 0)

    def run(self, job: str) -> dict:
        """One child process; returns its report with setup_s, wall_s and output files."""
        out_dir = os.path.join(self.workdir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        # Each kind of child starts on the CPUs in turn, so a run's median weighs
        # every CPU alike: the CPUs of a shared host differ in speed, and the
        # kernel would otherwise start every child on the CPU the parent is not
        # on.  The child then widens its mask to all of self.cpus (child.py), so
        # it and any worker it starts may run on every CPU.
        cpu = self.cpus[self.launches[job] % len(self.cpus)]
        self.launches[job] += 1
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, self.jobs[job], self.report_path],
            cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}),
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stderr = f"child timed out after {CHILD_TIMEOUT_S} s".encode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        ended = time.monotonic()
        if proc.returncode != 0 or not os.path.exists(self.report_path):
            return {"ok": False, "error": stderr.decode("utf-8", "replace").strip()[-2000:]}
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.update(ok=True, setup_s=report["ready"] - started, wall_s=ended - started)
        report["files"] = {}
        for name in SIMULATE_OUTPUTS:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    report["files"][name] = fh.read()
        return report


def signature(report: dict) -> dict:
    """Exit codes and sha256 of every output that must repeat byte for byte."""
    return {
        "exit_codes": [cmd["code"] for cmd in report["commands"]],
        "stdout_sha256": [_sha256(cmd["stdout"].encode()) for cmd in report["commands"]],
        **{f"{name}_sha256": _sha256(data) for name, data in sorted(report["files"].items())},
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def _rate(report: dict, spec: dict, field: str) -> float:
    pairs = [(cmd[field], res["seconds"]) for cmd, res in zip(spec["commands"], report["commands"])
             if cmd[field]]
    return sum(count for count, _ in pairs) / sum(seconds for _, seconds in pairs)


def _reproducibility_key(spec: dict) -> dict:
    """What must match for an earlier run to have produced the same bytes."""
    return {"inputs_sha256": inputs_digest(spec), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__}


def _previous_run(workload: str, seed: int, spec: dict) -> tuple[str, dict] | None:
    """The newest earlier result file with the same key, and its output signature."""
    key = _reproducibility_key(spec)
    pattern = os.path.join(WORK, "results", f"{workload}-seed{seed}-*.json")
    for path in sorted(glob.glob(pattern), key=os.path.getmtime, reverse=True):
        try:
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            continue
        prov = old.get("provenance", {})
        if all(prov.get(name) == value for name, value in key.items()) and old.get("signature"):
            return path, old["signature"]
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "ewagg", "cli.py")):
        raise BenchmarkError(f"no ewagg sources under {SRC}; run from the root of an ewagg checkout")
    spec = workloads.build(workload, seed, seconds)
    runner = Runner(workload, seed, spec)
    operations = sum(cmd["operations"] for cmd in spec["commands"])

    runner.run("setup")  # warm the byte-code and file caches; not measured
    iterations: list[tuple[bool, dict]] = []
    started = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append((traced, runner.run("traced" if traced else "plain")))
        counts = [sum(1 for t, _ in iterations if t == kind) for kind in (False, True)]
        enough = counts[0] >= MIN_ITERATIONS and (not trace or counts[1] >= MIN_ITERATIONS)
        if enough and time.monotonic() - started >= seconds:
            break
    setup_only = [runner.run("setup") for _ in range(SETUP_ONLY_CHILDREN)]

    # Correctness, outside the timed loop: the first good iteration against the
    # reference; every other iteration must reproduce its bytes exactly.
    good = [report for _, report in iterations if report["ok"]]
    if not good:
        raise BenchmarkError("every iteration failed: " + iterations[0][1]["error"])
    first_sig = signature(good[0])
    failures = reference.check_iteration(spec, good[0]["commands"], good[0]["files"])
    reproducible = True
    failed = 0
    for _, report in iterations:
        if not report["ok"]:
            failed += operations
        elif signature(report) == first_sig:
            failed += len(failures)
        else:
            failed += operations
            reproducible = False
    # Against the newest earlier run only: a mismatch fails this run and is
    # named once; the next run compares against this run's bytes.
    previous = _previous_run(workload, seed, spec)
    if previous is not None and previous[1] != first_sig:
        reproducible = False
        failed = operations * len(iterations)
        failures.insert(0, f"outputs differ from those of the earlier run "
                        f"{os.path.relpath(previous[0], ROOT)} with the same inputs and sources")
    attempted = operations * len(iterations)

    plain = [r for t, r in iterations if not t and r["ok"]]
    traced_reports = [r for t, r in iterations if t and r["ok"]]
    if not plain or (trace and not traced_reports):
        raise BenchmarkError("no successful iteration to measure")
    samples = {
        "setup_s": [r["setup_s"] for r in plain + setup_only if r["ok"]],
        "wall_s": [r["wall_s"] for r in plain],
        "replicates_per_s": [_rate(r, spec, "replicates") for r in plain],
        "psi_evals_per_s": [_rate(r, spec, "psi_evals") for r in plain],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in plain],
    }
    if trace:
        layer_names = list(traced_reports[0]["layers"])
        for name in layer_names:
            samples[name] = [r["layers"][name] for r in traced_reports]
        calls = [[r["layers"][n] for n in layer_names if n.endswith(".calls")] for r in traced_reports]
        if any(c != calls[0] for c in calls):
            reproducible = False
        plain_cmd = statistics.median(sum(c["seconds"] for c in r["commands"]) for r in plain)
        traced_cmd = statistics.median(sum(c["seconds"] for c in r["commands"]) for r in traced_reports)
        samples["sequence_model.normals_drawn"] = [spec["normals_drawn"]]
        samples["trace.overhead_ratio"] = [traced_cmd / plain_cmd - 1.0]
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    summaries = {name: _summary(samples[name]) for name in units}

    result = {
        "correct": not failures and reproducible and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summaries[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "provenance": dict(provenance(workload, seed, seconds, spec), trace=trace,
                           child_numpy=good[0]["numpy"]),
        "result": result,
        "summaries": summaries,
        "signature": first_sig,
        "iteration_signatures": [signature(r) if r["ok"] else None for _, r in iterations],
        "reproducible": reproducible,
        "failures": failures[:50],
        "iteration_errors": [r["error"] for _, r in iterations if not r["ok"]][:10],
        "samples": samples,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for message in record["failures"][:10]:
        print(f"FAILED {message}")
    notes = {"sequence_model.normals_drawn": "computed from the inputs",
             "trace.overhead_ratio": "ratio of medians"}
    for name, summary in record["summaries"].items():
        note = notes.get(name, f"median of {summary['n']}")
        print(f"{name:55s} {summary['median']:.6g} {result['metrics'][name]['unit']:8s} ({note})")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
