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
stderr line that names its type).
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
from typing import TextIO

import numpy as np

from . import __version__
from .bounds import psi, theorem_bounds
from .montecarlo import (
    LEMMA2_VARIANTS,
    PASS_TOLERANCE_SE,
    ComparisonRow,
    ScenarioConfig,
    lemma2_empirical,
    verify_oracle_inequalities,
)
from .sequence_model import MeanVector, ModelIndexSet, NoiseLevel, mean_vector_from_spec

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


def parse_model_set_text(text: str) -> ModelIndexSet:
    """Parse "1..100" / "1,2,5" / "1..10,20" into a model index set."""
    values: list[np.ndarray] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            lo_text, _, hi_text = item.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ConfigError(f"empty model range {item!r}")
            values.append(np.arange(lo, hi + 1, dtype=np.int64))
        else:
            values.append(np.array([int(item)], dtype=np.int64))
    if not values:
        raise ConfigError(f"model set {text!r} lists no indices")
    # Sort and drop repeats: np.unique takes a hash-table path for integers
    # that is about 15x slower on a 20,000-index range.
    merged = np.sort(np.concatenate(values))
    return ModelIndexSet(merged[np.r_[True, np.diff(merged) > 0]])


def _default_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


def _scenario_from_section(name: str, options: dict[str, str]) -> ScenarioConfig:
    required = {"mu", "sigma", "models", "replicates"}
    missing = sorted(required - options.keys())
    if missing:
        raise ConfigError(f"scenario [{name}] is missing keys: {', '.join(missing)}")
    if "base_seed" in options:
        base_seed = int(options["base_seed"])
    else:
        base_seed = _default_seed()
        if base_seed is None:
            raise ConfigError(
                f"scenario [{name}] has no base_seed and {SEED_ENV} is not set"
            )
    known = required | {"base_seed"}
    unknown = sorted(options.keys() - known)
    if unknown:
        raise ConfigError(f"scenario [{name}] has unknown keys: {', '.join(unknown)}")
    try:
        return ScenarioConfig(
            scenario_id=name,
            mu_spec=options["mu"],
            sigma=NoiseLevel(float(options["sigma"])),
            models=parse_model_set_text(options["models"]),
            replicates=int(options["replicates"]),
            base_seed=base_seed,
        )
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


def model_set_text(models: ModelIndexSet) -> str:
    """Canonical text of a model set: runs of consecutive indices as "lo..hi"."""
    indices = models.indices
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    starts = indices[np.r_[0, breaks]].tolist()
    ends = indices[np.r_[breaks - 1, indices.size - 1]].tolist()
    return ",".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in zip(starts, ends))


def config_digest(scenarios: list[ScenarioConfig]) -> str:
    """Stable hash of the canonicalized (fully resolved) scenario grid."""
    lines = []
    for cfg in scenarios:
        lines.append(f"[{cfg.scenario_id}]")
        lines.append(f"base_seed = {cfg.base_seed}")
        lines.append(f"models = {model_set_text(cfg.models)}")
        lines.append(f"mu = {cfg.mu_spec}")
        lines.append(f"replicates = {cfg.replicates}")
        lines.append(f"sigma = {_fmt(cfg.sigma.sigma)}")
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


def cmd_simulate(config_path: str, out_dir: str) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
    scenarios = parse_scenarios(text)

    started = time.perf_counter()
    rows = [verify_oracle_inequalities(cfg) for cfg in scenarios]
    elapsed = time.perf_counter() - started

    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")
    manifest_path = os.path.join(out_dir, "run_manifest.json")

    records = [dataclasses.asdict(row) for row in rows]
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(scenarios),
        "base_seeds": {cfg.scenario_id: cfg.base_seed for cfg in scenarios},
        "timings_seconds": {"simulate": elapsed},
        "outputs": [csv_path, json_path],
        # The output bytes are reproducible on the same build only: numpy picks
        # its float64 exp kernel per CPU at run time.
        "build": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "system": platform.system(),
            "machine": platform.machine(),
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


def cmd_bounds(r_over_sigma2: float, count_m: int) -> int:
    if not 1.0 <= r_over_sigma2 < float("inf"):
        raise ConfigError(f"--r must be finite and >= 1 (oracle risk >= sigma^2), got {r_over_sigma2}")
    if count_m < 1:
        raise ConfigError(f"--m must be >= 1, got {count_m}")
    budgets = theorem_bounds(float(r_over_sigma2), NoiseLevel(1.0), count_m)
    evaluation = psi(min(1.0, 1.0 / float(r_over_sigma2)))
    payload = {
        "r_over_sigma2": float(r_over_sigma2),
        "count_m": int(count_m),
        "t1_shape": budgets.t1,
        "t2_budget": budgets.t2,
        "t3_budget": budgets.t3,
        "combined_budget": min(budgets.t2, budgets.t3),
        "psi": {
            "r": evaluation.r,
            "psi": evaluation.psi,
            "epsilon_star": evaluation.epsilon_star,
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_psi(r_values: list[float]) -> int:
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"psi arguments must lie in [0, 1], got {r}")
    print("r,psi,epsilon_star")
    for r in r_values:
        evaluation = psi(r)
        print(f"{_fmt(evaluation.r)},{_fmt(evaluation.psi)},{_fmt(evaluation.epsilon_star)}")
    return EXIT_OK


def cmd_lemma_check(
    which: str,
    alpha: float,
    mu_spec: str | None,
    k_max: int,
    replicates: int,
    seed: int,
) -> int:
    mu: MeanVector | None = None
    if which == "linear":
        if mu_spec is None:
            raise ConfigError("the linear variant needs --mu <spec>")
        try:
            mu = mean_vector_from_spec(mu_spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        estimate = lemma2_empirical(
            alpha, which, mu=mu, k_max=k_max, replicates=replicates, seed=seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    budget = 1.0 / alpha
    tolerance = PASS_TOLERANCE_SE * estimate.std_error
    passed = estimate.mean <= budget + tolerance
    payload = {
        "which": which,
        "alpha": alpha,
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "replicates": estimate.replicates,
        "k_max": k_max,
        "budget": budget,
        "tolerance": tolerance,
        "passed": passed,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if passed else EXIT_BOUND_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _one_line(exc: Exception) -> str:
    # configparser and numpy messages may span several lines.
    return " ".join(str(exc).splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # An input whose squares or sums pass the float64 range raises here
        # rather than carrying inf or nan into the outputs.  The error state
        # is per thread: worker threads compute nothing that can overflow.
        with np.errstate(over="raise"):
            if args.command == "simulate":
                return cmd_simulate(args.config, args.out)
            if args.command == "bounds":
                return cmd_bounds(args.r, args.m)
            if args.command == "psi":
                return cmd_psi(args.r_values)
            # lemma-check: the required subparsers admit no other command.
            seed = args.seed
            if seed is None:
                seed = _default_seed()
                if seed is None:
                    seed = 0
            return cmd_lemma_check(args.which, args.alpha, args.mu, args.kmax, args.reps, seed)
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
