"""Benchmark workloads: the ewagg command lines and input files each one runs.

A workload is built from the seed and the run length.  The seed goes into the
generated config and command lines (base seeds, lemma seeds, and the jitter of
the psi and bounds arguments).  The run length fixes the replicate counts, so
one run length always gives the same work: the sizes below are those of a
30-second run, scaled in proportion for other lengths.  Every command is a
closed-loop call of ewagg.cli.main(argv) in one fresh process per iteration.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid", "wide", "checks")

# The nine-scenario acceptance grid: three mean families at three noise levels.
GRID_MEANS = (
    ("zero", {"family": "zero"}),
    ("poly", {"family": "poly", "beta": 1.0, "scale": 1.0}),
    ("sparse", {"family": "sparse", "k": 5, "amp": 1.0}),
)
GRID_SIGMAS = (1.0, 0.3, 0.1)
GRID_MODELS = 100

# Large-N poly scenarios: kernel time and the O(N * #M) oracle scan dominate.
WIDE_MEANS = (
    ("poly_b1", {"family": "poly", "beta": 1.0, "scale": 1.0}),
    ("poly_b0.75", {"family": "poly", "beta": 0.75, "scale": 1.0}),
    ("poly_b1.5", {"family": "poly", "beta": 1.5, "scale": 2.0}),
)
WIDE_SIGMA = 0.05
WIDE_MODELS = 20_000

LEMMA_KMAX = 10_000
LINEAR_MU = {"family": "poly", "beta": 1.0, "scale": 1.0, "N": 100}
BOUNDS_CALLS = 4
BOUNDS_M = 100

# Sizes at the reference run length; one iteration then takes about two seconds.
REFERENCE_SECONDS = 30
GRID_REPLICATES = 1200
WIDE_REPLICATES = 40
LEMMA_REPLICATES = 800
PSI_ARGUMENTS = 400


def _scaled(size: int, seconds: int) -> int:
    """size for a run of the given length; at least 2, so every SE is defined."""
    return max(2, round(size * seconds / REFERENCE_SECONDS))


def mu_spec(mu: dict) -> str:
    """The ewagg mean-vector spec text for a mean description."""
    params = ",".join(f"{key}={value:g}" for key, value in mu.items() if key != "family")
    return f"{mu['family']}:{params}" if params else mu["family"]


def _simulate(name: str, scenarios: list[dict]) -> dict:
    lines = []
    for scn in scenarios:
        lines += [
            f"[{scn['id']}]",
            f"mu = {mu_spec(scn['mu'])}",
            f"sigma = {scn['sigma']!r}",
            f"models = 1..{scn['n_models']}",
            f"replicates = {scn['replicates']}",
            f"base_seed = {scn['base_seed']}",
            "",
        ]
    config = f"{name}.cfg"
    return {
        "inputs": {config: "\n".join(lines)},
        "commands": [
            {
                "kind": "simulate",
                "argv": ["simulate", "--config", config, "--out", "out"],
                "scenarios": scenarios,
                "operations": len(scenarios),
                "replicates": sum(s["replicates"] for s in scenarios),
                "psi_evals": len(scenarios),
            }
        ],
        "normals_drawn": sum(s["replicates"] * s["n_models"] for s in scenarios),
    }


def _grid(seed: int, seconds: int) -> dict:
    replicates = _scaled(GRID_REPLICATES, seconds)
    scenarios = [
        {"id": f"{label}_sigma{sigma:g}", "mu": mu, "sigma": sigma,
         "n_models": GRID_MODELS, "replicates": replicates, "base_seed": seed}
        for label, mu in GRID_MEANS
        for sigma in GRID_SIGMAS
    ]
    return _simulate("grid", scenarios)


def _wide(seed: int, seconds: int) -> dict:
    replicates = _scaled(WIDE_REPLICATES, seconds)
    scenarios = [
        {"id": label, "mu": mu, "sigma": WIDE_SIGMA,
         "n_models": WIDE_MODELS, "replicates": replicates, "base_seed": seed}
        for label, mu in WIDE_MEANS
    ]
    return _simulate("wide", scenarios)


def _checks(seed: int, seconds: int) -> dict:
    jitter = random.Random(f"checks:{seed}")
    reps = _scaled(LEMMA_REPLICATES, seconds)
    lemmas = [
        {"which": "chi2_upper", "alpha": 0.25, "kmax": LEMMA_KMAX},
        {"which": "chi2_lower", "alpha": 0.5, "kmax": LEMMA_KMAX},
        {"which": "linear", "alpha": 0.5, "kmax": LEMMA_KMAX, "mu": LINEAR_MU},
    ]
    commands = []
    normals = 0
    for lemma in lemmas:
        argv = ["lemma-check", "--which", lemma["which"], "--alpha", repr(lemma["alpha"]),
                "--kmax", str(lemma["kmax"]), "--reps", str(reps), "--seed", str(seed)]
        if "mu" in lemma:
            argv += ["--mu", mu_spec(lemma["mu"])]
        normals += reps * (lemma["mu"]["N"] if "mu" in lemma else lemma["kmax"])
        commands.append(dict(lemma, kind="lemma", argv=argv, reps=reps, seed=seed,
                             operations=1, replicates=reps, psi_evals=0))

    # r log-spaced over [1e-12, 1], shifted by a seed-drawn fraction of a step.
    count = _scaled(PSI_ARGUMENTS, seconds)
    shift = jitter.random()
    r_values = [10.0 ** (-12.0 + 12.0 * (j + shift) / count) for j in range(count)]
    commands.append({"kind": "psi", "argv": ["psi", *map(repr, r_values)],
                     "r_values": r_values, "operations": 1, "replicates": 0,
                     "psi_evals": count})

    # Ratios r/sigma^2 log-spaced over [1, 1e4]; each bounds call evaluates psi twice.
    shift = jitter.random()
    for j in range(BOUNDS_CALLS):
        ratio = 10.0 ** (4.0 * (j + shift) / BOUNDS_CALLS)
        commands.append({"kind": "bounds",
                         "argv": ["bounds", "--r", repr(ratio), "--m", str(BOUNDS_M)],
                         "r": ratio, "m": BOUNDS_M, "operations": 1, "replicates": 0,
                         "psi_evals": 2})
    return {"inputs": {}, "commands": commands, "normals_drawn": normals}


def build(workload: str, seed: int, seconds: int) -> dict:
    """Inputs, commands and work counts of one workload iteration."""
    builders = {"grid": _grid, "wide": _wide, "checks": _checks}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    return builders[workload](int(seed), int(seconds))
