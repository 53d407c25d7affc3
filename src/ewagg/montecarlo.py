"""Reproducible Monte Carlo engine for risk estimation and bound verification.

Each Monte Carlo result has one entry point: verify_scenarios gives each
scenario's URE and EW risks checked against the regret budgets (one
ComparisonRow per scenario, and verify_oracle_inequalities the row of one),
lemma2_empirical the mean of one maximal statistic of Lemma 2, and
unbiasedness_check a scenario's centred risk estimates per model.

Every replicate draws from its own substream keyed by (base seed, scenario
or walk, replicate index).  One engine, _per_replicate, runs every entry
point in blocks of replicates, one (B, N) array per block; every row gets
the same bits as it would alone and results are kept in replicate order, so
estimates are bit-identical whatever the block size, worker count or
execution order.

A ScenarioConfig checks its inputs and resolves its mean once; the kernels
then take sigma, models and mu as a float, an int64 array and a float64 array.

Each process that runs a share of a scenario allocates one workspace for it,
make_kernel(rows): the observation, profile, weight and difference buffers of
its share's largest block, which every block's kernels write into through
their out= argument (a shorter block uses their leading rows).

The engine runs a call in _WORKERS processes, one per CPU in the affinity
mask: the calling process and workers forked from it once per call, each
pinned to its own CPU.  A call takes a list of jobs (simulate passes every
scenario of its config, the other entry points one job).  Each job's
replicates are dealt into contiguous near-equal shares, one per process, and
each process runs its share of every job in blocks of at most the job's rows,
job after job, writing their results straight into result arrays that the
caller shares with its workers; a worker's pipe carries only a failure.
Dealing replicates rather than whole blocks keeps the shares equal: 1,200
replicates at N = 100 in blocks of 163 rows would split 652/548 by blocks.
Forking once per call rather than once per scenario matters on the grid's
short scenarios, where each fork cost 2.5-6 ms before the worker ran and its
copy-on-write faults slowed the caller's share.  The pinning is what makes
the processes overlap: on a 2-vCPU x86_64 host the kernel often left two
busy unpinned processes on one CPU, so two unpinned CPU-bound processes ran
at x0.81-1.07 of one process's speed in 3 of 4 rounds, and at x1.25-1.99
once each was pinned to its own CPU.  A call where no job needs two blocks
in one process, or on a platform without fork or affinity masks, runs in the
calling process.
"""

from __future__ import annotations

import errno
import hashlib
import math
import mmap
import os
import pickle
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

import numpy as np

from .bounds import theorem_bounds, u_alpha, u_star_alpha
from .estimators import aggregate, exponential_weights, projection_estimate, risk_profile
from .risk import oracle_risk
from .sequence_model import (
    _seed_entropy,
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
    "verify_scenarios",
    "lemma2_empirical",
    "unbiasedness_check",
    "PASS_TOLERANCE_SE",
]

# RiskEstimate.within's tolerance in standard errors.  Four keep the
# two-sided false-alarm rate near 6e-5 per check.
PASS_TOLERANCE_SE = 4.0

LEMMA2_VARIANTS = ("chi2_upper", "linear", "chi2_lower")

# Normals drawn per block of replicates (at least one row).  Outputs do not
# depend on it; it trades per-call overhead against the block's memory.  At
# N = 100 a block is 163 rows; N = 20,000 and the 10^4-step walks stay at one.
_BLOCK_VALUES = 1 << 14


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


def _shares(count: int, parts: int) -> list[range]:
    """0..count-1 dealt into parts contiguous runs of near-equal length, in order."""
    size, extra = divmod(count, parts)
    ends = [w * size + min(w, extra) for w in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(ends, ends[1:])]


class _Job(NamedTuple):
    """One entry point's replicates: replicate rep draws from the substream (*prefix, rep).

    _per_replicate deals the replicates into one contiguous share per process
    and runs each share in blocks of at most _BLOCK_VALUES // width rows.  Each
    process with a share of the job calls make_kernel(rows) once, on reaching
    the job, with its share's largest block, and gets the block kernel:
    kernel(seeds) takes one SubstreamSeed per row of a block (at most rows) and
    returns a float64 array (*shape, B).  So a process holds one job's
    workspace at a time.
    """

    make_kernel: Callable[[int], Callable]
    replicates: int
    width: int
    prefix: tuple
    shape: tuple[int, ...]


def _shared_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array in its own anonymous MAP_SHARED mapping: forked workers share it.

    A mapping the system cannot give raises MemoryError.
    """
    nbytes = 8 * math.prod(shape)
    try:
        mapping = mmap.mmap(-1, nbytes)
    except (OSError, OverflowError) as exc:  # OverflowError: more bytes than ssize_t holds
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {nbytes} bytes of results") from None
    return np.frombuffer(mapping).reshape(shape)


def _pickled_failure(job: int, exc: BaseException) -> bytes:
    """(job, exc) pickled; exc becomes a RuntimeError naming it if it does not survive pickling."""
    try:
        data = pickle.dumps((job, exc))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps((job, RuntimeError(f"{type(exc).__name__}: {exc}")))
    return data


def _run_in_order(run: Callable[[int], None], jobs: int) -> tuple[list[float], tuple | None]:
    """run(0), run(1), ..., run(jobs - 1) until one raises.

    Returns their seconds, and the (job, exception) that stopped them, or
    None when every job ran.
    """
    seconds = []
    for job in range(jobs):
        begun = time.perf_counter()
        try:
            run(job)
        except Exception as exc:
            return seconds, (job, exc)
        seconds.append(time.perf_counter() - begun)
    return seconds, None


def _run_worker(run: Callable, jobs: int, cpu: int, fd: int) -> NoReturn:
    """In a forked child: run every job pinned to cpu, then leave through os._exit.

    run writes the results into the shared arrays; fd gets only the pickled
    (job, exception) of the first failure.  The exit status is 0 unless that
    write fails, and os._exit runs none of the caller's exit handlers or
    buffered output a second time.
    """
    status = 1
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            _, failure = _run_in_order(run, jobs)
        except BaseException as exc:  # every failure goes to the caller
            failure = (0, exc)
        if failure:
            with open(fd, "wb") as pipe:
                pipe.write(_pickled_failure(*failure))
        status = 0
    finally:
        os._exit(status)


def _per_replicate(jobs: list[_Job]) -> tuple[list[np.ndarray], list[float], dict]:
    """Each job's results for its replicates 0..replicates-1: an array (*shape, replicates).

    Also returns the calling process's seconds on each job and the engine
    record {"workers": _WORKERS, "cpus", "blocks": each job's count of blocks
    run, over all processes}.  A job's rows per block are _BLOCK_VALUES //
    width (at least one), and the call runs in min(_WORKERS, most blocks that
    a job would take in one process) processes, forked once; cpus lists their
    CPUs, or is None when the caller runs alone, unpinned.  The result arrays
    are allocated first, in memory that the forked workers share.  Each job's
    replicates are dealt in contiguous near-equal shares to the processes, and
    each process runs its share of every job in job order, in blocks of at
    most the job's rows, deriving the seed words of its own share only and
    writing each block's results into its replicate columns.  The calling
    process runs the first share of each job pinned to the first CPU of its
    mask, which is restored on return; each forked worker pins itself to the
    next CPU and inherits the caller's memory, numpy error state included.
    The first failure in (job, replicate) order, in a kernel or in a fork, is
    raised in the caller, and every worker has been reaped by then, whether
    the call returns, raises or is interrupted.  The caller waits for the
    workers only after its own shares, so no process waits on another while
    it still has work.
    """
    # substreams imports numpy.random, about 17 ms; importing it here keeps
    # that out of the commands that draw nothing (psi, bounds).
    from .substreams import SubstreamSeed, substream_words

    rows = [max(1, _BLOCK_VALUES // job.width) for job in jobs]
    most = max((-(-job.replicates // r) for job, r in zip(jobs, rows)), default=1)
    processes = min(_WORKERS, most)
    mask = os.sched_getaffinity(0) if processes > 1 else None
    cpus = None if mask is None else sorted(mask)[:processes]
    shares = [_shares(job.replicates, processes) for job in jobs]
    blocks = [sum(-(-len(reps) // r) for reps in parts) for parts, r in zip(shares, rows)]
    results = [_shared_zeros((*job.shape, job.replicates)) for job in jobs]

    def run(j: int, w: int) -> None:
        """Process w's share of job j, written into its replicate columns of results[j]."""
        reps, r = shares[j][w], rows[j]
        if not reps:
            return
        words = substream_words(jobs[j].prefix, np.arange(reps.start, reps.stop, dtype=np.uint64))
        kernel = jobs[j].make_kernel(min(r, len(reps)))
        for i in range(0, len(reps), r):
            block, seeds = reps[i : i + r], list(map(SubstreamSeed, words[i : i + r]))
            results[j][..., block.start : block.stop] = kernel(seeds)

    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        if mask is not None:
            os.sched_setaffinity(0, {cpus[0]})
        for w in range(1, processes):
            fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_worker(lambda j: run(j, w), len(jobs), cpus[w % len(cpus)], write_fd)
            os.close(write_fd)
            children[pid] = fd
        seconds, failure = _run_in_order(lambda j: run(j, 0), len(jobs))
        failures = [] if failure is None else [(*failure, 0)]  # (job, exception, process)
        for w, (pid, fd) in enumerate(list(children.items()), start=1):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()  # to the end, which comes when the worker exits
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(fd)
            if data:
                failures.append((*pickle.loads(data), w))  # bytes that our own worker wrote
            elif status:  # where it stopped is unknown, so it is reported at job 0
                ended = f"a worker process ended without a result (wait status {status})"
                failures.append((0, RuntimeError(ended), w))
    finally:
        for pid, fd in children.items():  # those not reaped above: stop them first
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass
        if mask is not None:
            os.sched_setaffinity(0, mask)
    if failures:
        raise min(failures, key=lambda f: (f[0], f[2]))[1]
    return results, seconds, {"workers": _WORKERS, "cpus": cpus, "blocks": blocks}


def _read_only(values: np.ndarray) -> np.ndarray:
    """A copy of values that cannot be written through."""
    values = values.copy()
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one experiment; mu is the mean vector mu_spec resolves to.

    sigma is checked by check_sigma, models by check_models and replicates by
    check_replicates; base_seed must be an integer, by the seed rule of
    standard_normals, so a float such as 2.5 raises ValueError.  models and mu
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
        _seed_entropy((self.base_seed,))
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


def _loss_job(config: ScenarioConfig) -> _Job:
    """The job of a scenario's per-replicate squared losses: row 0 URE, row 1 EW.

    Its kernel's block buffers and URE penalty row (the risk profile of a
    zero observation) are made once per process that runs a share of the
    scenario, the buffers sized for rows (its share's largest block), and every
    kernel writes into them through out=; a shorter block uses their leading rows.
    """
    mu, sigma, models = config.mu, config.sigma, config.models

    def make_kernel(rows: int) -> Callable:
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

        return losses

    return _Job(make_kernel, config.replicates, mu.size, config.substream_prefix, (2,))


def verify_scenarios(
    configs: list[ScenarioConfig],
) -> tuple[list[ComparisonRow], list[float], dict]:
    """Run both estimators on every scenario and check their risks against the regret budgets.

    Returns one ComparisonRow per config, in order, the calling process's
    seconds on each scenario (its oracle scan, its budgets and its own share
    of the replicates), and the engine record of the run for the manifest:
    {"workers", "cpus", "blocks"}, with blocks keyed by scenario id (see
    _per_replicate).  Every oracle risk and budget is computed
    before the replicates run, so a scenario that cannot be bounded fails
    before any worker starts; the replicates of all scenarios then run in one
    engine call.
    """
    checks, seconds = [], []
    for config in configs:
        begun = time.perf_counter()
        oracle = oracle_risk(config.mu, config.sigma, config.models)
        budgets = theorem_bounds(oracle.oracle_risk, config.sigma, config.models.size)
        checks.append((oracle, budgets))
        seconds.append(time.perf_counter() - begun)
    losses, shares, engine = _per_replicate([_loss_job(config) for config in configs])
    engine["blocks"] = {cfg.scenario_id: count for cfg, count in zip(configs, engine["blocks"])}
    rows = []
    for config, (oracle, budgets), samples in zip(configs, checks, losses):
        ure_est, ew_est = map(RiskEstimate.from_samples, samples)
        rows.append(
            ComparisonRow(
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
        )
    return rows, [own + share for own, share in zip(seconds, shares)], engine


def verify_oracle_inequalities(config: ScenarioConfig) -> ComparisonRow:
    """Run both estimators and check their Monte Carlo risks against the regret budgets."""
    (row,), _, _ = verify_scenarios([config])
    return row


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
    positive, with 1/alpha finite, so that the budget is a number, k_max
    a whole number >= 1, and seed an integer, by the seed rule of
    ScenarioConfig's base_seed; each is checked before any worker starts.
    """
    alpha = float(alpha)
    if which not in LEMMA2_VARIANTS:
        raise ValueError(f"which must be one of {LEMMA2_VARIANTS}, got {which!r}")
    if not (alpha > 0.0 and math.isfinite(alpha) and math.isfinite(1.0 / alpha)):
        raise ValueError(f"alpha must be positive and finite, with 1/alpha finite, got {alpha}")
    if (which == "linear") != (mu is not None):
        raise ValueError("mu must be given for the linear variant and only for it")
    if not (k_max >= 1 and k_max % 1 == 0):
        raise ValueError(f"k_max must be a whole number >= 1, got {k_max}")
    k_max = int(k_max)
    replicates = check_replicates(replicates)
    _seed_entropy((seed,))

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
    (maxima,), _, _ = _per_replicate([_Job(lambda rows: walks, replicates, width, prefix, ())])
    return RiskEstimate.from_samples(maxima)


def unbiasedness_check(config: ScenarioConfig) -> dict[int, RiskEstimate]:
    """Per m in config.models, MC estimate of rbar(Y, m) + ||mu||^2 - true risk (~0)."""
    mu, sigma, models = config.mu, config.sigma, config.models
    offsets = tail_squared_norms(mu)[0] - true_projection_risk(mu, sigma, models)

    def centered(seeds) -> np.ndarray:
        obs = draw_observations(mu, sigma, seeds)
        return (risk_profile(obs, sigma, models) + offsets).T

    job = _Job(lambda rows: centered, config.replicates, mu.size, config.substream_prefix,
               models.shape)
    (stats,), _, _ = _per_replicate([job])
    return {m: RiskEstimate.from_samples(row) for m, row in zip(models.tolist(), stats)}
