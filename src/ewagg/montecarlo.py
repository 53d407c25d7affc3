"""Reproducible Monte Carlo engine for risk estimation and bound verification.

Each Monte Carlo result has one entry point: verify_oracle_inequalities gives
a scenario's URE and EW risks checked against the regret budgets (one
ComparisonRow), lemma2_empirical the mean of one maximal statistic of Lemma 2,
and unbiasedness_check a scenario's centred risk estimates per model.

Every replicate draws from its own substream keyed by (base seed, scenario
or walk, replicate index).  One engine, _per_replicate, runs every entry
point in blocks of replicates, one (B, N) array per block; every row gets
the same bits as it would alone and results are kept in replicate order, so
estimates are bit-identical whatever the block size, worker count or
execution order.

A ScenarioConfig checks its inputs and resolves its mean once; the kernels
then take sigma, models and mu as a float, an int64 array and a float64 array.

verify_oracle_inequalities allocates one workspace per call, that is per
scenario: the observation, profile, weight and difference buffers of a full
block, which every block's kernels write into through their out= argument (a
shorter last block uses their leading rows).

The engine runs a call's blocks in _WORKERS processes, one per CPU in the
affinity mask: the calling process and workers forked from it, each pinned
to its own CPU, each with a contiguous share of the blocks and its own
fork-copied workspace.  Only the result arrays and a failure cross the
process boundary.  The pinning is what makes the processes overlap: on a
2-vCPU x86_64 host the kernel often left two busy unpinned processes on one
CPU, so two unpinned CPU-bound processes ran at x0.81-1.07 of one process's
speed in 3 of 4 rounds, and at x1.25-1.99 once each was pinned to its own
CPU.  A call with one block, or on a platform without fork or affinity
masks, runs in the calling process.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .bounds import theorem_bounds, u_alpha, u_star_alpha
from .estimators import aggregate, exponential_weights, projection_estimate, risk_profile
from .risk import oracle_risk
from .sequence_model import (
    check_mean,
    check_models,
    check_replicates,
    check_sigma,
    draw_observations,
    mean_vector_from_spec,
    squared_loss,
    standard_normals,
    tail_squared_norms,
    true_projection_risk,
)

__all__ = [
    "ScenarioConfig",
    "RiskEstimate",
    "ComparisonRow",
    "verify_oracle_inequalities",
    "lemma2_empirical",
    "unbiasedness_check",
    "engine_record",
    "PASS_TOLERANCE_SE",
]

# RiskEstimate.within's tolerance in standard errors.  Four keep the
# two-sided false-alarm rate near 6e-5 per check.
PASS_TOLERANCE_SE = 4.0

LEMMA2_VARIANTS = ("chi2_upper", "linear", "chi2_lower")

# Normals drawn per block of replicates (at least one row).  Outputs do not
# depend on it; it trades per-call overhead against the block's memory.
_BLOCK_VALUES = 1 << 12


# Processes that run the blocks of one call, the calling process among them
# (at most one per block): one per CPU in the affinity mask.  Outputs do not
# depend on it.
if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # one process where there is no fork or no affinity mask
    _WORKERS = 1


def _stable_key(label: str) -> int:
    """Platform-independent 64-bit key for substream derivation."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _block_rows(width: int) -> int:
    """Replicates per block for rows of width values: max(1, _BLOCK_VALUES // width)."""
    return max(1, _BLOCK_VALUES // width)


def _worker_cpus(mask) -> list[int]:
    """The CPUs the engine pins its processes to: the first _WORKERS of the sorted mask."""
    return sorted(mask)[:_WORKERS]


def engine_record(configs) -> dict:
    """How simulate runs the configs: for the run manifest.

    workers is _WORKERS, cpus the CPUs the processes are pinned to (None when
    the calling process runs alone, unpinned), and blocks the block count of
    each scenario, which runs in min(workers, blocks) processes.
    """
    cpus = _worker_cpus(os.sched_getaffinity(0)) if _WORKERS > 1 else None
    blocks = {cfg.scenario_id: -(-cfg.replicates // _block_rows(cfg.mu.size)) for cfg in configs}
    return {"workers": _WORKERS, "cpus": cpus, "blocks": blocks}


def _shares(blocks: int, workers: int) -> list[range]:
    """Blocks 0..blocks-1 dealt into workers contiguous runs, in order."""
    size, extra = divmod(blocks, workers)
    ends = [w * size + min(w, extra) for w in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _pickled(exc: BaseException) -> bytes:
    """exc pickled, or a RuntimeError naming it when it does not survive pickling."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return data


def _run_worker(run: Callable, share: range, cpu: int, fd: int) -> NoReturn:
    """In a forked child: run share pinned to cpu, write the outcome to fd and exit.

    The outcome is b"R" and the result's raw float64 bytes, or b"E" and the
    pickled exception.  The child leaves through os._exit, so none of the
    caller's exit handlers or buffered output runs twice.
    """
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            payload = b"R" + run(share).tobytes()
        except BaseException as exc:  # every failure goes to the caller
            payload = b"E" + _pickled(exc)
        with open(fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _outcome(data: bytes, status: int, lead: tuple) -> np.ndarray:
    """The result a worker wrote as data, shaped (*lead, replicates), or its exception."""
    if data[:1] == b"R":
        return np.frombuffer(data[1:]).reshape(*lead, -1)
    if data[:1] == b"E":
        raise pickle.loads(data[1:])  # bytes that our own worker wrote
    raise RuntimeError(f"a worker process ended without a result (wait status {status})")


def _per_replicate(kernel: Callable, replicates: int, width: int, prefix: tuple):
    """kernel's results for replicates 0..replicates-1, joined along the last axis.

    Replicate rep draws from the substream (*prefix, rep).  The replicates
    run in blocks of _block_rows(width) rows; kernel(seeds) gets one
    SubstreamSeed per row of a block and returns a float64 array (..., B).
    The blocks are dealt in contiguous shares to min(_WORKERS, blocks)
    processes.  The calling process runs the first share pinned to the first
    CPU of its mask, which is restored on return; each forked worker pins
    itself to the next CPU and inherits the caller's memory, numpy error
    state included.  The first failure in replicate order, in a kernel or in
    a fork, is raised in the caller, and every worker has been reaped by
    then, whether the call returns, raises or is interrupted.
    """
    # substreams imports numpy.random, about 17 ms; importing it here keeps
    # that out of the commands that draw nothing (psi, bounds).
    from .substreams import SubstreamSeed, substream_words

    words = substream_words(prefix, np.arange(replicates, dtype=np.uint64))
    rows = _block_rows(width)
    blocks = [words[first : first + rows] for first in range(0, replicates, rows)]

    def run(share: range) -> np.ndarray:
        results = [kernel(list(map(SubstreamSeed, blocks[i]))) for i in share]
        return np.concatenate(results, axis=-1)

    own, *others = _shares(len(blocks), min(_WORKERS, len(blocks)))
    if not others:
        return run(own)
    mask = os.sched_getaffinity(0)
    cpus = _worker_cpus(mask)
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        os.sched_setaffinity(0, {cpus[0]})
        for w, share in enumerate(others, start=1):
            fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_worker(run, share, cpus[w % len(cpus)], write_fd)
            os.close(write_fd)
            children[pid] = fd
        results = [run(own)]
        for pid, fd in list(children.items()):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()  # to the end: the worker has closed its end
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(fd)
            results.append(_outcome(data, status, results[0].shape[:-1]))
    finally:
        for pid, fd in children.items():  # those not reaped above: stop them first
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass
        os.sched_setaffinity(0, mask)
    return np.concatenate(results, axis=-1)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A copy of values that cannot be written through."""
    values = values.copy()
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one experiment; mu is the mean vector mu_spec resolves to.

    sigma is checked by check_sigma and models by check_models.  models and mu
    are stored as read-only copies, so a validated config cannot be changed
    through the caller's array.  Equality and hashing are by identity.
    Replicate rep draws from the substream (*substream_prefix, rep).
    """

    scenario_id: str
    mu_spec: str
    sigma: float
    models: np.ndarray
    replicates: int
    base_seed: int
    mu: np.ndarray = field(init=False, repr=False)
    substream_prefix: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        models = _read_only(check_models(self.models))
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "replicates", check_replicates(self.replicates))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        mu = mean_vector_from_spec(self.mu_spec, default_length=int(models[-1]))
        if mu.size < models[-1]:
            raise ValueError(
                f"mean spec {self.mu_spec!r} has length {mu.size}, "
                f"below the max model index {models[-1]}"
            )
        object.__setattr__(self, "mu", _read_only(mu))
        prefix = (self.base_seed, _stable_key(self.scenario_id))
        object.__setattr__(self, "substream_prefix", prefix)


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean with its standard error and replicate count."""

    mean: float
    std_error: float
    replicates: int

    @property
    def tolerance(self) -> float:
        """PASS_TOLERANCE_SE standard errors: the slack of every Monte Carlo bound check."""
        return PASS_TOLERANCE_SE * self.std_error

    def within(self, budget: float) -> bool:
        """The pass rule of every Monte Carlo bound check: mean <= budget + tolerance."""
        return self.mean <= budget + self.tolerance

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "RiskEstimate":
        samples = np.asarray(samples, dtype=float)
        n = check_replicates(samples.size)
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


def _replicate_losses(config: ScenarioConfig) -> np.ndarray:
    """Per-replicate squared losses, shape (2, replicates): row 0 URE, row 1 EW.

    The block buffers and the URE penalty row (the risk profile of a zero
    observation) are made once per call, the buffers sized for a full block,
    and every kernel writes into the buffers through out=; a shorter last
    block uses their leading rows.  Each worker writes into its own copies.
    """
    mu, sigma, models = config.mu, config.sigma, config.models
    rows = min(_block_rows(mu.size), config.replicates)
    obs, diff = np.empty((2, rows, mu.size))
    profile, weights = np.empty((2, rows, models.size))
    penalty = risk_profile(np.zeros(models[-1]), sigma, models)

    def losses(seeds) -> np.ndarray:
        block = len(seeds)
        y = draw_observations(mu, sigma, seeds, out=obs[:block])
        rbar = risk_profile(y, sigma, models, out=profile[:block], penalty=penalty)
        w = exponential_weights(rbar, sigma, out=weights[:block])
        # URE puts all weight on mhat, the first argmin model, so its aggregate
        # is Y * 1.0 = Y up to mhat and Y * 0.0 = +-0.0 beyond.  The projection
        # at mhat has the same bits up to mhat and +0.0 beyond, where
        # (+-0.0 - mu_i)^2 is the same square, so the loss keeps its bits.
        mhat = models[np.argmin(rbar, axis=-1)]
        d = diff[:block]
        ure = squared_loss(projection_estimate(y, mhat, out=d), mu, out=d)
        ew = squared_loss(aggregate(y, models, w, out=d), mu, out=d)
        return np.stack([ure, ew])

    return _per_replicate(losses, config.replicates, mu.size, config.substream_prefix)


def verify_oracle_inequalities(config: ScenarioConfig) -> ComparisonRow:
    """Run both estimators and check their Monte Carlo risks against the regret budgets."""
    oracle = oracle_risk(config.mu, config.sigma, config.models)
    budgets = theorem_bounds(oracle.oracle_risk, config.sigma, config.models.size)
    ure_est, ew_est = map(RiskEstimate.from_samples, _replicate_losses(config))
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
        t2_pass=ew_est.within(oracle.oracle_risk + budgets.t2),
        t3_pass=ew_est.within(oracle.oracle_risk + budgets.t3),
    )


def lemma2_empirical(
    alpha: float,
    which: str,
    mu: np.ndarray | None = None,
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
    it empty, contributing the value 0 to the maximum.  mu is required by the
    linear variant and rejected by the others.  alpha must be finite and
    positive, with 1/alpha finite, so that the budget is a number.
    """
    alpha = float(alpha)
    if which not in LEMMA2_VARIANTS:
        raise ValueError(f"which must be one of {LEMMA2_VARIANTS}, got {which!r}")
    if not (alpha > 0.0 and math.isfinite(alpha) and math.isfinite(1.0 / alpha)):
        raise ValueError(f"alpha must be positive and finite, with 1/alpha finite, got {alpha}")
    if (which == "linear") != (mu is not None):
        raise ValueError("mu must be given for the linear variant and only for it")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    replicates = check_replicates(replicates)

    # The drift line, sized by k_max or by the support of mu, is built here
    # before any worker starts, so an oversized input fails in the caller.
    if which == "linear":
        mu = check_mean(mu)
        width, drift_line = mu.size, 0.5 * alpha * tail_squared_norms(mu)[:-1]
    else:  # u_alpha also checks alpha < 1/2
        drift = u_alpha(alpha) if which == "chi2_upper" else u_star_alpha(alpha)
        width, drift_line = k_max, drift * np.arange(1, k_max + 1, dtype=float)

    def walks(seeds) -> np.ndarray:
        steps = np.empty((len(seeds), width))
        for row, seed in zip(steps, seeds):
            standard_normals(seed, width, out=row)
        if which == "linear":
            steps *= mu
            np.cumsum(steps[:, ::-1], axis=-1, out=steps[:, ::-1])  # suffix sums
        else:
            steps *= steps
            if which == "chi2_upper":
                steps -= 1.0
            else:
                np.subtract(1.0, steps, out=steps)
            np.cumsum(steps, axis=-1, out=steps)
        steps -= drift_line
        top = steps.max(axis=-1)
        return np.where(top < 0.0, 0.0, top) if which == "linear" else top

    prefix = (seed, _stable_key(f"lemma2:{which}:{alpha!r}"))
    return RiskEstimate.from_samples(_per_replicate(walks, replicates, width, prefix))


def unbiasedness_check(config: ScenarioConfig) -> dict[int, RiskEstimate]:
    """Per m in config.models, MC estimate of rbar(Y, m) + ||mu||^2 - true risk (~0)."""
    mu, sigma, models = config.mu, config.sigma, config.models
    offsets = tail_squared_norms(mu)[0] - true_projection_risk(mu, sigma, models)

    def centered(seeds) -> np.ndarray:
        obs = draw_observations(mu, sigma, seeds)
        return (risk_profile(obs, sigma, models) + offsets).T

    stats = _per_replicate(centered, config.replicates, mu.size, config.substream_prefix)
    return {m: RiskEstimate.from_samples(row) for m, row in zip(models.tolist(), stats)}
