"""Command-line front end: scenario configs, experiment runs, machine-readable output.

Commands
--------
simulate     run a scenario grid and emit a CSV plus a JSON mirror
bounds       evaluate the regret budgets at a given risk-to-noise ratio
psi          evaluate the remainder function at one or more arguments
lemma-check  run one empirical maximal-inequality check

Exit codes: 0 success, 1 bound violation, 2 configuration or domain error
(also an input that needs more memory than is available, or whose arithmetic
overflows float64), 3 internal error (an unexpected exception, reported as one
stderr line that names its type).  A closed stdout does not change the code.
The environment variable EWAGG_SEED supplies a default base seed wherever a
scenario or command omits one.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from collections.abc import Callable
from typing import NoReturn, TextIO

import numpy as np

from . import __version__
from .bounds import psi, theorem_bounds
from .montecarlo import (
    LEMMA2_VARIANTS,
    ComparisonRow,
    ScenarioConfig,
    lemma2_empirical,
    verify_scenarios,
)
from .sequence_model import check_models, mean_vector_from_spec

__all__ = ["main", "ConfigError", "parse_scenarios", "parse_model_set_text", "model_set_text"]

SEED_ENV = "EWAGG_SEED"

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class ConfigError(Exception):
    """Raised for malformed configuration files or out-of-domain arguments."""


def _fmt(x: float) -> str:
    # 17 significant digits round-trip float64 exactly.
    return format(float(x), ".17g")


def _model_runs(text: str) -> list[tuple[int, int]]:
    """The (lo, hi) runs that "1..100" / "1,2,5" / "1..10,20" list, as written."""
    runs = []
    for item in filter(None, map(str.strip, text.split(","))):
        lo_text, dots, hi_text = item.partition("..")
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        if hi < lo:
            raise ConfigError(f"empty model range {item!r}")
        runs.append((lo, hi))
    if not runs:
        raise ConfigError(f"model set {text!r} lists no indices")
    return runs


def parse_model_set_text(text: str) -> np.ndarray:
    """Parse "1..100" / "1,2,5" / "1..10,20" into a model index set (see check_models)."""
    runs = _model_runs(text)
    # The ends first; then one flag (a byte) per index up to the largest, set run by run.
    flags = np.zeros(check_models(sorted({end for run in runs for end in run}))[-1], dtype=bool)
    for lo, hi in runs:
        flags[lo - 1 : hi] = True
    return np.flatnonzero(flags) + 1


def _seed_or_default(seed: str | int | None) -> str | int | None:
    """seed, or EWAGG_SEED's value when seed is None (None when that is unset too)."""
    if seed is not None or SEED_ENV not in os.environ:
        return seed
    raw = os.environ[SEED_ENV]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


def _scenario_from_section(name: str, options: dict[str, str]) -> ScenarioConfig:
    required = {"mu", "sigma", "models", "replicates"}
    missing = sorted(required - options.keys())
    if missing:
        raise ConfigError(f"scenario [{name}] is missing keys: {', '.join(missing)}")
    base_seed = _seed_or_default(options.get("base_seed"))
    if base_seed is None:
        raise ConfigError(f"scenario [{name}] has no base_seed and {SEED_ENV} is not set")
    known = required | {"base_seed"}
    unknown = sorted(options.keys() - known)
    if unknown:
        raise ConfigError(f"scenario [{name}] has unknown keys: {', '.join(unknown)}")
    try:
        # Checked against the largest index first: a short mean fails before the set is built.
        top = max(hi for _, hi in _model_runs(options["models"]))
        config = ScenarioConfig(
            scenario_id=name,
            mu_spec=options["mu"],
            sigma=float(options["sigma"]),
            models=[top],
            replicates=int(options["replicates"]),
            base_seed=int(base_seed),
        )
        return dataclasses.replace(config, models=parse_model_set_text(options["models"]))
    except (ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"scenario [{name}]: {exc}") from exc


def parse_scenarios(text: str) -> list[ScenarioConfig]:
    """Parse the flat key-value scenario file ([DEFAULT] supplies shared keys)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not parser.sections():
        raise ConfigError("config defines no scenarios")
    return [
        _scenario_from_section(name, dict(parser.items(name)))
        for name in parser.sections()
    ]


def model_set_text(models: np.ndarray) -> str:
    """Canonical text of a model set: runs of consecutive indices as "lo..hi"."""
    breaks = np.flatnonzero(np.diff(models) != 1) + 1
    starts = models[np.r_[0, breaks]].tolist()
    ends = models[np.r_[breaks - 1, models.size - 1]].tolist()
    return ",".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in zip(starts, ends))


def config_digest(scenarios: list[ScenarioConfig]) -> str:
    """SHA-256 of the scenarios as canonical text, with each mean as its spec text.

    Model sets are written as runs, so 1..5 and 1,2,3,4,5 give one digest; two
    spellings of one mean (poly:beta=1 and poly:beta=1.0) give two.
    """
    lines = []
    for cfg in scenarios:
        lines.append(f"[{cfg.scenario_id}]")
        lines.append(f"base_seed = {cfg.base_seed}")
        lines.append(f"models = {model_set_text(cfg.models)}")
        lines.append(f"mu = {cfg.mu_spec}")
        lines.append(f"replicates = {cfg.replicates}")
        lines.append(f"sigma = {_fmt(cfg.sigma)}")
    canonical = "\n".join(lines) + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _write_csv(records: list[dict], fh: TextIO) -> None:
    header = [column.name for column in dataclasses.fields(ComparisonRow)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        writer.writerow([_csv_cell(record[key]) for key in header])


def _dump_json(payload, fh: TextIO) -> None:
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _write_outputs(writers: dict[str, Callable[[TextIO], None]]) -> None:
    """Write every file to a temporary sibling first, then rename each into place.

    A failure while writing leaves every earlier output as it was and removes
    the temporary files.
    """
    staged = {path: f"{path}.{os.getpid()}.tmp" for path in writers}
    try:
        for path, write in writers.items():
            with open(staged[path], "w", encoding="utf-8", newline="") as fh:
                write(fh)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.remove(tmp)


def _exp_kernel() -> str | None:
    """The dispatch target of numpy's float64 exp on this CPU (None before numpy 2.0)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="^exp$", signature="float64")
    return info.get("exp", {}).get("dd", {}).get("current")


def cmd_simulate(config_path: str, out_dir: str) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
    scenarios = parse_scenarios(text)

    started = time.perf_counter()
    rows, caller_seconds, engine = verify_scenarios(scenarios)
    elapsed = time.perf_counter() - started
    seconds = {cfg.scenario_id: s for cfg, s in zip(scenarios, caller_seconds)}

    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")
    manifest_path = os.path.join(out_dir, "run_manifest.json")

    records = [dataclasses.asdict(row) for row in rows]
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(scenarios),
        "base_seeds": {cfg.scenario_id: cfg.base_seed for cfg in scenarios},
        "replicates": {cfg.scenario_id: cfg.replicates for cfg in scenarios},
        "timings_seconds": {"simulate": elapsed, "scenarios": seconds},
        "outputs": [csv_path, json_path],
        "engine": engine,
        # The output bytes are reproducible on the same build only: numpy picks
        # its float64 exp kernel per CPU at run time, and exp_kernel names it.
        "build": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
            "exp_kernel": _exp_kernel(),
        },
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_outputs(
            {
                csv_path: lambda fh: _write_csv(records, fh),
                json_path: lambda fh: _dump_json(records, fh),
                manifest_path: lambda fh: _dump_json(manifest, fh),
            }
        )
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir!r}: {exc}") from exc

    all_pass = all(row.t2_pass and row.t3_pass for row in rows)
    return EXIT_OK if all_pass else EXIT_BOUND_VIOLATION


def _emit(text: str) -> None:
    """Write text to stdout and flush; a reader that closed the pipe is no error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the signal module docs' recipe: the exit flush then writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_bounds(r_over_sigma2: float, count_m: int) -> int:
    try:
        budgets = theorem_bounds(r_over_sigma2, 1.0, count_m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    evaluation = psi(1.0 / r_over_sigma2)
    payload = {
        "r_over_sigma2": float(r_over_sigma2),
        "count_m": int(count_m),
        "t1_shape": budgets.t1,
        "t2_budget": budgets.t2,
        "t3_budget": budgets.t3,
        "combined_budget": min(budgets.t2, budgets.t3),
        "psi": evaluation._asdict(),
    }
    _emit(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_psi(r_values: list[float]) -> int:
    try:
        rows = [",".join(map(_fmt, psi(r))) for r in r_values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit("\n".join(["r,psi,epsilon_star", *rows]) + "\n")
    return EXIT_OK


def cmd_lemma_check(
    which: str,
    alpha: float,
    mu_spec: str | None,
    k_max: int,
    replicates: int,
    seed: int,
) -> int:
    try:
        mu = None if mu_spec is None else mean_vector_from_spec(mu_spec)
        estimate = lemma2_empirical(
            alpha, which, mu=mu, k_max=k_max, replicates=replicates, seed=seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    budget = 1.0 / alpha
    passed = estimate.within(budget)
    payload = {
        "which": which,
        "alpha": alpha,
        **dataclasses.asdict(estimate),
        "k_max": k_max,
        "budget": budget,
        "tolerance": estimate.tolerance,
        "passed": passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_BOUND_VIOLATION


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, as every other error is."""

    def error(self, message: str) -> NoReturn:
        print(f"error: {_one_line(message)}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ewagg",
        description="Projection estimation, risk-based model selection, and "
        "exponentially weighted aggregation with Monte Carlo bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario grid from a config file")
    p_sim.add_argument("--config", required=True, help="path to the scenario config")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_bounds = sub.add_parser("bounds", help="evaluate the regret budgets")
    p_bounds.add_argument("--r", type=float, required=True, help="oracle risk over sigma^2 (>= 1)")
    p_bounds.add_argument("--m", type=int, required=True, help="number of candidate models")

    p_psi = sub.add_parser("psi", help="evaluate the remainder function")
    p_psi.add_argument("r_values", type=float, nargs="+", metavar="r")

    p_lemma = sub.add_parser("lemma-check", help="run one maximal-inequality check")
    p_lemma.add_argument("--which", required=True, choices=LEMMA2_VARIANTS)
    p_lemma.add_argument("--alpha", type=float, required=True)
    p_lemma.add_argument("--mu", default=None, help="mean spec for the linear variant")
    p_lemma.add_argument("--kmax", type=int, default=10_000)
    p_lemma.add_argument("--reps", type=int, default=10_000)
    p_lemma.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"base seed (default: ${SEED_ENV} or 0)",
    )
    return parser


def _one_line(exc: Exception | str) -> str:
    # configparser and numpy messages may span several lines.
    return " ".join(str(exc).splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # An input whose squares or sums pass the float64 range raises here
        # rather than carrying inf or nan into the outputs; the worker processes
        # of montecarlo._per_replicate are forked with this error state.
        with np.errstate(over="raise"):
            if args.command == "simulate":
                return cmd_simulate(args.config, args.out)
            if args.command == "bounds":
                return cmd_bounds(args.r, args.m)
            if args.command == "psi":
                return cmd_psi(args.r_values)
            # lemma-check: the required subparsers admit no other command.
            seed = _seed_or_default(args.seed)
            return cmd_lemma_check(
                args.which, args.alpha, args.mu, args.kmax, args.reps, 0 if seed is None else seed
            )
    except ConfigError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:
        print(
            f"error: input needs more memory than is available: {_one_line(exc)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR
    except FloatingPointError as exc:
        print(f"error: input overflows float64: {_one_line(exc)}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
