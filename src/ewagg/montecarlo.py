"""Reproducible Monte Carlo engine for risk estimation and bound verification.

Every replicate draws its observation from its own substream keyed by
(base seed, scenario, replicate index), so results are independent of
execution order.  Replicates are processed in blocks of rows: each block is
one Observation, and the public pipeline (risk profile, weights, aggregate,
loss) runs once per block over the last axis.  Every row gets the same bits
as that pipeline gives it alone, and losses are stored in fixed index order,
so a given configuration reproduces bit-identical estimates whatever the
block size.

The lemma-2 walks run on worker threads, one per CPU in the affinity mask
(capped at the replicate count).  Nearly all of a walk's time is numpy
drawing and summing normals with the interpreter lock released, so the
threads overlap.  Each replicate still draws from its own substream and
writes its own slot of the result, so the estimates have the same bits for
any worker count.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bounds import theorem_bounds, u_alpha, u_star_alpha
from .estimators import (
    aggregate,
    exponential_weights,
    m_epsilon,
    profile_values,
    risk_profile,
    ure_weights,
)
from .risk import OracleReport, oracle_risk
from .sequence_model import (
    MeanVector,
    ModelIndexSet,
    NoiseLevel,
    draw_observations,
    mean_vector_from_spec,
    squared_loss,
    standard_normals,
    true_projection_risk,
)

__all__ = [
    "ScenarioConfig",
    "RiskEstimate",
    "ComparisonRow",
    "MEpsilonReport",
    "mc_risk",
    "verify_oracle_inequalities",
    "lemma2_empirical",
    "unbiasedness_check",
    "m_epsilon_study",
    "m_epsilon_budget",
    "PASS_TOLERANCE_SE",
]

# Pass tolerance for every Monte Carlo bound check: estimate <= bound + 4 SE.
# Four standard errors keep the two-sided false-alarm rate near 6e-5 per check.
PASS_TOLERANCE_SE = 4.0

LEMMA2_VARIANTS = ("chi2_upper", "linear", "chi2_lower")

# Normals drawn per block of replicates (at least one row).  Outputs do not
# depend on it; it trades per-call overhead against the block's memory.
_BLOCK_VALUES = 1 << 12


# Threads that run the lemma-2 walks of one call (at most one per replicate):
# the CPUs this process may run on.  Outputs do not depend on it.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # platforms without affinity masks
    _WORKERS = os.cpu_count() or 1


def _stable_key(label: str) -> int:
    """Platform-independent 64-bit key for substream derivation."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _observation_blocks(mu: MeanVector, sigma: NoiseLevel, replicates: int, prefix: tuple):
    """Yield (replicate slice, block Observation) in index order; rep uses (*prefix, rep)."""
    rows = max(1, _BLOCK_VALUES // mu.declared_length)
    for first in range(0, replicates, rows):
        block = range(first, min(replicates, first + rows))
        seeds = [(*prefix, rep) for rep in block]
        yield slice(block.start, block.stop), draw_observations(mu, sigma, seeds)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment; mu is the mean vector mu_spec resolves to."""

    scenario_id: str
    mu_spec: str
    sigma: NoiseLevel
    models: ModelIndexSet
    replicates: int
    base_seed: int
    mu: MeanVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.replicates) < 2:
            raise ValueError("replicates must be >= 2, so that a standard error exists")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        mu = mean_vector_from_spec(self.mu_spec, default_length=self.models.max_index)
        if mu.declared_length < self.models.max_index:
            raise ValueError(
                f"mean spec {self.mu_spec!r} has length {mu.declared_length}, "
                f"below the max model index {self.models.max_index}"
            )
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean with its standard error and replicate count."""

    mean: float
    std_error: float
    replicates: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "RiskEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 2:
            raise ValueError(f"a standard error needs at least 2 samples, got {n}")
        mean = float(samples.mean())
        std_error = float(samples.std(ddof=1) / math.sqrt(n))
        return cls(mean=mean, std_error=std_error, replicates=n)


@dataclass(frozen=True)
class ComparisonRow:
    """One scenario's results.csv row: the fields are its columns, in order.

    The oracle risk, the Monte Carlo risks with their standard errors, the
    three budgets, the back-solved constant empirical_K = (ure_mean -
    oracle_risk) / t1_shape, and the two pass flags.
    """

    scenario_id: str
    oracle_risk: float
    oracle_index: int
    ure_mean: float
    ure_se: float
    ew_mean: float
    ew_se: float
    t1_shape: float
    t2_budget: float
    t3_budget: float
    empirical_K: float
    t2_pass: bool
    t3_pass: bool


def _replicate_losses(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """Per-replicate squared losses of both estimators, in index order."""
    mu = config.mu
    models = config.models
    losses = {"URE": np.empty(config.replicates), "EW": np.empty(config.replicates)}
    prefix = (config.base_seed, _stable_key(config.scenario_id))
    for reps, obs in _observation_blocks(mu, config.sigma, config.replicates, prefix):
        profile = risk_profile(obs, models)
        weights = {"URE": ure_weights(profile), "EW": exponential_weights(profile, config.sigma)}
        for name, w in weights.items():
            losses[name][reps] = squared_loss(aggregate(obs, models, w), mu)
    return losses


def mc_risk(config: ScenarioConfig) -> dict[str, RiskEstimate]:
    """Monte Carlo risk of both estimators, keyed "URE" / "EW"."""
    return {
        name: RiskEstimate.from_samples(losses)
        for name, losses in _replicate_losses(config).items()
    }


def verify_oracle_inequalities(config: ScenarioConfig) -> ComparisonRow:
    """Run both estimators and check their risks against the regret budgets."""
    oracle = oracle_risk(config.mu, config.sigma, config.models)
    budgets = theorem_bounds(oracle.oracle_risk, config.sigma, len(config.models))
    risks = mc_risk(config)
    ure_est, ew_est = risks["URE"], risks["EW"]
    slack = PASS_TOLERANCE_SE * ew_est.std_error
    return ComparisonRow(
        scenario_id=config.scenario_id,
        oracle_risk=oracle.oracle_risk,
        oracle_index=oracle.oracle_index,
        ure_mean=ure_est.mean,
        ure_se=ure_est.std_error,
        ew_mean=ew_est.mean,
        ew_se=ew_est.std_error,
        t1_shape=budgets.t1,
        t2_budget=budgets.t2,
        t3_budget=budgets.t3,
        empirical_K=(ure_est.mean - oracle.oracle_risk) / budgets.t1,
        t2_pass=ew_est.mean <= oracle.oracle_risk + budgets.t2 + slack,
        t3_pass=ew_est.mean <= oracle.oracle_risk + budgets.t3 + slack,
    )


def lemma2_empirical(
    alpha: float,
    which: str,
    mu: MeanVector | None = None,
    k_max: int = 10_000,
    replicates: int = 10_000,
    seed: int = 0,
) -> RiskEstimate:
    """Monte Carlo mean of one maximal statistic of a drift-compensated walk.

    chi2_upper:  max_k { sum_{i<=k} (xi_i^2 - 1) - U(alpha) k },   0 < alpha < 1/2
    chi2_lower:  max_k { sum_{i<=k} (1 - xi_i^2) - U*(alpha) k },  alpha > 0
    linear:      max_k { sum_{i>=k} mu_i xi_i - (alpha/2) sum_{i>=k} mu_i^2 }

    The chi-square walks are truncated at k_max, which can only lower the
    maximum, so comparing the mean against 1/alpha stays conservative.  The
    linear statistic is exact: the finite support of mu makes suffixes beyond
    it empty, contributing the value 0 to the maximum.
    """
    alpha = float(alpha)
    if which not in LEMMA2_VARIANTS:
        raise ValueError(f"which must be one of {LEMMA2_VARIANTS}, got {which!r}")
    if which == "chi2_upper":
        drift = u_alpha(alpha)  # validates 0 < alpha < 1/2
    elif which == "chi2_lower":
        drift = u_star_alpha(alpha)  # validates alpha > 0
    else:
        if mu is None:
            raise ValueError("the linear variant needs a mean vector")
        if not alpha > 0.0:
            raise ValueError(f"the linear variant needs alpha > 0, got {alpha}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if replicates < 2:
        raise ValueError("replicates must be >= 2, so that a standard error exists")

    key = _stable_key(f"lemma2:{which}:{alpha!r}")
    # The drift line, sized by k_max or by the support of mu, is built here
    # before any worker starts, so an oversized input fails in the caller.
    # The caller's numpy error state does not reach the workers; the
    # coefficient squares, the only step that can overflow for finite mu, run
    # here under it.
    if which == "linear":
        coeffs = mu.coefficients
        drift_line = 0.5 * alpha * np.cumsum((coeffs * coeffs)[::-1])[::-1]

        def walk(rep: int) -> float:
            xi = standard_normals((seed, key, rep), coeffs.size)
            suffix_dot = np.cumsum((coeffs * xi)[::-1])[::-1]
            return max(float((suffix_dot - drift_line).max()), 0.0)  # empty suffixes give 0
    else:
        drift_line = drift * np.arange(1, k_max + 1, dtype=float)
        upper = which == "chi2_upper"

        def walk(rep: int) -> float:
            steps = standard_normals((seed, key, rep), k_max)
            steps *= steps
            if upper:
                steps -= 1.0
            else:
                np.subtract(1.0, steps, out=steps)
            np.cumsum(steps, out=steps)
            steps -= drift_line
            return float(steps.max())

    return RiskEstimate.from_samples(_run_replicates(walk, replicates))


def _run_replicates(walk: Callable[[int], float], replicates: int) -> np.ndarray:
    """[walk(rep) for rep in range(replicates)] as an array, over _WORKERS threads.

    Worker w runs the replicates congruent to w modulo the worker count; the
    calling thread is worker 0.  The first exception, in a walk or in starting
    a thread, stops every worker at its next replicate and is raised once all
    started threads have joined.
    """
    stats = np.empty(replicates)
    workers = min(_WORKERS, replicates)
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for rep in range(first, replicates, workers):
                if errors:
                    return
                stats[rep] = walk(rep)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            started.append(thread)
    except BaseException as exc:
        errors.append(exc)
    run(0)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]
    return stats


def unbiasedness_check(
    mu: MeanVector,
    sigma: NoiseLevel,
    m_values,
    replicates: int,
    base_seed: int,
) -> dict[int, RiskEstimate]:
    """MC estimate of rbar(Y, m) + ||mu||^2 - true risk, per m; all means should be ~0."""
    m_values = [int(m) for m in m_values]
    if any(m > mu.declared_length for m in m_values):
        raise ValueError(f"every m must be <= the mean vector length {mu.declared_length}")
    norm2 = mu.squared_norm
    offsets = np.array([norm2 - true_projection_risk(mu, sigma, m) for m in m_values])
    indices = np.array(m_values, dtype=np.int64)
    stats = np.empty((len(m_values), replicates))
    prefix = (base_seed, _stable_key("unbiasedness"))
    for reps, obs in _observation_blocks(mu, sigma, replicates, prefix):
        stats[:, reps] = (profile_values(obs.values, sigma.variance, indices) + offsets).T
    return {m: RiskEstimate.from_samples(row) for m, row in zip(m_values, stats)}


@dataclass(frozen=True)
class MEpsilonReport:
    """Diagnostic study of the random envelope index.

    The scan is reported under both centerings (the profile minimum and the
    externally computed oracle risk), together with the analytic budget for
    its expectation.
    """

    epsilon: float
    profile_centered: RiskEstimate
    oracle_centered: RiskEstimate
    analytic_budget: float
    oracle: OracleReport


def m_epsilon_budget(oracle_value: float, sigma: NoiseLevel, epsilon: float) -> float:
    """Analytic budget r/sigma^2 + 7 eps r / ((1-6 eps) sigma^2) + 15 / ((1-6 eps) eps)."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0 / 7.0:
        raise ValueError("epsilon must lie in (0, 1/7]")
    ratio = oracle_value / sigma.variance
    shrink = 1.0 - 6.0 * epsilon
    return ratio + 7.0 * epsilon * ratio / shrink + 15.0 / (shrink * epsilon)


def m_epsilon_study(config: ScenarioConfig, epsilon: float) -> MEpsilonReport:
    """MC estimate of the expected envelope index under both centerings."""
    epsilon = float(epsilon)
    mu = config.mu
    report = oracle_risk(mu, config.sigma, config.models)
    budget = m_epsilon_budget(report.oracle_risk, config.sigma, epsilon)  # checks epsilon
    by_profile = np.empty(config.replicates)
    by_oracle = np.empty(config.replicates)
    prefix = (config.base_seed, _stable_key(config.scenario_id))
    for reps, obs in _observation_blocks(mu, config.sigma, config.replicates, prefix):
        profile = risk_profile(obs, config.models)
        by_profile[reps] = m_epsilon(profile, config.sigma, epsilon)
        by_oracle[reps] = m_epsilon(profile, config.sigma, epsilon, report.oracle_risk)
    return MEpsilonReport(
        epsilon=epsilon,
        profile_centered=RiskEstimate.from_samples(by_profile),
        oracle_centered=RiskEstimate.from_samples(by_oracle),
        analytic_budget=budget,
        oracle=report,
    )
