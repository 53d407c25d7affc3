"""Tests for the reproducible Monte Carlo engine and empirical bound checks."""

import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest

from ewagg import cli, montecarlo
from ewagg.estimators import exponential_weights, risk_profile, ure_weights
from ewagg.montecarlo import (
    LEMMA2_VARIANTS,
    RiskEstimate,
    ScenarioConfig,
    _loss_job,
    _per_replicate,
    _stable_key,
    lemma2_empirical,
    unbiasedness_check,
    verify_oracle_inequalities,
    verify_scenarios,
)
from ewagg.sequence_model import mean_vector_from_spec, standard_normals
from ewagg.substreams import substream_words

SIGMA1 = 1.0


def make_config(**overrides):
    defaults = dict(
        scenario_id="unit",
        mu_spec="zero",
        sigma=SIGMA1,
        models=np.arange(1, 11),
        replicates=2000,
        base_seed=4242,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def replicate_losses(cfg):
    """cfg's per-replicate squared losses from the engine, shape (2, replicates)."""
    (losses,), _, _ = _per_replicate([_loss_job(cfg)])
    return losses


def logging_blocks(job, log):
    """job, with each block's process id and row count appended to the file log as it runs."""

    def make_kernel(rows):
        kernel = job.make_kernel(rows)

        def logged(seeds):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {len(seeds)}\n")
            return kernel(seeds)

        return logged

    return job._replace(make_kernel=make_kernel)


def blocks_by_process(log):
    """{process id: the row counts of its blocks, in run order} from a logging_blocks log."""
    runs: dict[int, list[int]] = {}
    for line in log.read_text().splitlines():
        pid, rows = map(int, line.split())
        runs.setdefault(pid, []).append(rows)
    return runs


class TestScenarioConfig:
    @pytest.mark.parametrize("replicates", [0, 1, -3])  # one sample gives no standard error
    def test_replicates_must_be_positive(self, replicates):
        with pytest.raises(ValueError, match="replicates"):
            make_config(replicates=replicates)

    @pytest.mark.parametrize(
        "mu_spec, models, message",
        [
            ("explicit:1,2", np.arange(1, 6), "length 2"),
            ("zero:N=3", [], "non-empty"),
            ("zero:N=3", [1.5], "integers"),
            ("zero:N=3", [3, 1], "increasing"),
            ("zero:N=3", [1, 4], "length 3"),
        ],
    )
    def test_mean_support_must_cover_models(self, mu_spec, models, message):
        with pytest.raises(ValueError, match=message):
            make_config(mu_spec=mu_spec, models=models)

    @pytest.mark.parametrize("replicates", [2.5, 2.7, math.nan, math.inf, -math.inf])
    def test_replicates_must_be_whole(self, replicates):
        with pytest.raises(ValueError, match="replicates must be a whole number"):
            make_config(replicates=replicates)
        with pytest.raises(ValueError, match="replicates must be a whole number"):
            lemma2_empirical(0.25, "chi2_upper", k_max=5, replicates=replicates)

    def test_a_whole_float_replicate_count_runs_as_its_int(self):
        assert make_config(replicates=3.0).replicates == 3
        assert lemma2_empirical(0.25, "chi2_upper", k_max=5, replicates=3.0).replicates == 3

    @pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(7.0), [3], "3"])
    def test_base_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_config(base_seed=seed)

    @pytest.mark.parametrize("seed", [0, -5, np.int64(-5), 2**70 + 3])
    def test_an_integer_base_seed_keeps_its_address(self, seed):
        cfg = make_config(base_seed=seed)
        assert type(cfg.base_seed) is int and cfg.base_seed == seed
        assert cfg.substream_prefix == (int(seed), _stable_key("unit"))

    def test_mean_vector_defaults_to_model_support(self):
        cfg = make_config(mu_spec="zero", models=np.arange(1, 8))
        assert cfg.mu.size == 7

    def test_mean_spec_is_resolved_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return mean_vector_from_spec(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "mean_vector_from_spec", counting)
        verify_oracle_inequalities(make_config(replicates=20))
        assert len(calls) == 1

    def test_equality_is_identity(self):
        a, b = make_config(models=[1, 2]), make_config(models=[1, 2])
        assert a == a and a != b
        assert hash(a) == hash(a) and {a, b} == {a, b}


class TestReplicateLosses:
    """The Monte Carlo risks of both estimators: the losses and the row's means and SEs."""

    def test_single_model_family(self):
        # With one candidate both estimators are that projection; true risk is 1.
        cfg = make_config(models=np.array([1]), replicates=10_000)
        ure, ew = replicate_losses(cfg)
        np.testing.assert_array_equal(ure, ew)
        row = verify_oracle_inequalities(cfg)
        for mean, se in ((row.ure_mean, row.ure_se), (row.ew_mean, row.ew_se)):
            assert abs(mean - 1.0) <= 4.0 * se

    def test_ure_penalty_is_risk_profiles_own(self, monkeypatch):
        # A default penalty of 1.9 sigma^2 M in risk_profile reaches the URE
        # risk, so the penalty has no second copy in the engine.
        cfg = make_config(mu_spec="poly:beta=1,scale=1", replicates=200)
        ure_mean = verify_oracle_inequalities(cfg).ure_mean

        def mutant(Y, sigma, M, out=None, *, penalty=None):
            if penalty is None:
                penalty = 1.9 * (sigma * sigma) * M
            return risk_profile(Y, sigma, M, out, penalty=penalty)

        monkeypatch.setattr(montecarlo, "risk_profile", mutant)
        assert verify_oracle_inequalities(cfg).ure_mean != ure_mean

    @pytest.mark.parametrize(
        "mu_spec, models, blocks",
        [
            ("poly:beta=1,scale=1", np.arange(1, 4001), [4, 2]),
            ("poly:beta=1,scale=1", np.r_[1:40:3, 100:2000:7, 2500, 3999, 4000], [4, 2]),
            # A mean longer than the largest model: #M < N with M the prefix 1..#M.
            ("poly:beta=1,scale=1,N=4100", np.arange(1, 4001), [4, 2]),
            ("poly:beta=1,scale=1", np.arange(1, 101), [150, 50]),
        ],
        ids=["full", "gapped", "mean_beyond_models", "short_last_block"],
    )
    def test_kernel_bits_equal_the_dense_reference(
        self, monkeypatch, tmp_path, mu_spec, models, blocks
    ):
        # Up to M = 4,000 at sigma = 0.05: the EW weights end in runs of exact
        # zeros (at 3,000 the last ones are still subnormal).
        # The reference spells out the dense pipeline: mu + sigma * Z, one-hot
        # URE weights, every weight scattered before the reversed cumsum, and
        # the zero-padded loss.  Both sides call the same numpy kernels, so the
        # bytes agree on any build.
        cfg = make_config(mu_spec=mu_spec, sigma=0.05, models=models, replicates=sum(blocks))
        mu, sigma, length = cfg.mu, cfg.sigma, cfg.mu.size
        key = _stable_key(cfg.scenario_id)
        expected = np.empty((2, cfg.replicates))
        for rep in range(cfg.replicates):
            obs = mu + sigma * standard_normals((cfg.base_seed, key, rep), length)
            profile = risk_profile(obs, sigma, models)
            weights = (ure_weights(profile), exponential_weights(profile, sigma))
            assert weights[1][-1] == 0.0 or models[-1] < 4000
            for row, w in enumerate(weights):
                dense = np.zeros(max(length, models[-1]))
                dense[models - 1] = w
                estimate = obs * np.cumsum(dense[::-1])[::-1][:length]
                diff = np.zeros(max(length, mu.size))
                diff[:length] = estimate
                diff[: mu.size] -= mu
                expected[row, rep] = np.sum(diff * diff)
        # One process runs a full block and then a short one in the leading
        # rows of the same buffers.
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", blocks[0] * length)
        log = tmp_path / "blocks.txt"
        (losses,), _, _ = _per_replicate([logging_blocks(_loss_job(cfg), log)])
        assert blocks_by_process(log) == {os.getpid(): blocks}
        assert losses.tobytes() == expected.tobytes()

    def test_reference_fixture_low_noise_poly(self):
        # Frozen from a reference run of this exact configuration; any drift in
        # seeding, estimator math, or accumulation order shows up here.
        cfg = ScenarioConfig(
            scenario_id="poly-lowsigma",
            mu_spec="poly:beta=1,scale=1",
            sigma=0.05,
            models=np.arange(1, 201),
            replicates=2000,
            base_seed=20240501,
        )
        row = verify_oracle_inequalities(cfg)
        assert row.ure_mean == pytest.approx(0.1063099810883879, rel=1e-12)
        assert row.ure_se == pytest.approx(0.0005093825536158197, rel=1e-12)
        assert row.ew_mean == pytest.approx(0.08972521133218031, rel=1e-12)
        assert row.ew_se == pytest.approx(0.0004322114956571116, rel=1e-12)


    @pytest.mark.parametrize(
        "cfg, mean_hex, se_hex",
        [
            (
                ScenarioConfig("poly", "poly:beta=1,scale=1", 0.3,
                               np.arange(1, 41), 3000, 2**70 + 3),
                "0x1.994f84cb38dd3p-1", "0x1.3b40a725e2b5fp-7",
            ),
            (
                ScenarioConfig("sparse", "sparse:k=5,amp=1", SIGMA1,
                               np.array([2, 3, 5, 8, 13, 21, 34]), 2000, -1),
                "0x1.9d593ca8e9a66p+2", "0x1.a7d649a7546adp-4",
            ),
        ],
        ids=["poly", "sparse"],
    )
    def test_ure_bits_are_pinned(self, cfg, mean_hex, se_hex):
        # Frozen from the per-replicate SeedSequence draws that preceded the
        # block-derived seed words.  The URE path takes no exp, so these bits
        # hold on any build; a change in seeding or in numpy's streams fails here.
        row = verify_oracle_inequalities(cfg)
        assert (row.ure_mean.hex(), row.ure_se.hex()) == (mean_hex, se_hex)


class TestVerifyOracleInequalities:
    def test_two_model_scenario_passes_t2(self):
        cfg = make_config(models=np.arange(1, 3), replicates=5000)
        row = verify_oracle_inequalities(cfg)
        slack = 4.0 * row.ew_se
        assert row.oracle_risk == 1.0
        assert row.ew_mean <= row.oracle_risk + 4.0 * math.log(2.0) + slack
        assert row.t2_pass

    def test_empirical_k_definition(self):
        cfg = make_config(replicates=2000)
        row = verify_oracle_inequalities(cfg)
        expected = (row.ure_mean - row.oracle_risk) / row.t1_shape
        assert row.empirical_K == pytest.approx(expected, rel=1e-15)


class TestLemma2Empirical:
    def test_linear_with_zero_mean_is_exactly_zero(self):
        mu = mean_vector_from_spec("zero:N=50")
        est = lemma2_empirical(0.5, "linear", mu=mu, replicates=200, seed=13)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lemma2_empirical(0.6, "chi2_upper")
        with pytest.raises(ValueError):
            lemma2_empirical(-0.1, "chi2_lower")
        with pytest.raises(ValueError):
            lemma2_empirical(0.5, "linear")  # mean vector missing
        mu = mean_vector_from_spec("poly:N=5")
        for which in ("chi2_upper", "chi2_lower"):  # a mean vector they would ignore
            with pytest.raises(ValueError, match="linear variant"):
                lemma2_empirical(0.25, which, mu=mu, k_max=10, replicates=10)
        with pytest.raises(ValueError):
            lemma2_empirical(0.5, "gauss_upper")
        with pytest.raises(ValueError):
            lemma2_empirical(0.25, "chi2_upper", k_max=0)
        for replicates in (1, 0, -3):  # rejected before any walk is drawn
            with pytest.raises(ValueError, match="replicates"):
                lemma2_empirical(0.25, "chi2_upper", k_max=10, replicates=replicates)

    @pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(7.0), [3], "3", None])
    def test_seed_is_checked_before_any_fork(self, monkeypatch, forks, seed):
        # 400 one-walk blocks, so an integer seed forks a second worker.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            lemma2_empirical(**lemma_case("chi2_upper"), replicates=400, seed=seed)
        assert forks == []
        lemma2_empirical(**lemma_case("chi2_upper"), replicates=400, seed=3)
        assert len(forks) == 1

    @pytest.mark.parametrize("seed", [0, -5, np.int64(-5), 2**70 + 3])
    def test_an_integer_seed_keeps_its_address(self, monkeypatch, forks, seed):
        # The seed rule of ScenarioConfig's base_seed: any integer, numpy's
        # included, addresses the walks its int does, in the forked workers too.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        forked = lemma2_empirical(**lemma_case("chi2_upper"), replicates=400, seed=seed)
        assert len(forks) == 1
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        assert forked == lemma2_empirical(**lemma_case("chi2_upper"), replicates=400, seed=int(seed))

    @pytest.mark.parametrize("k_max", [2.5, 0.5, math.nan, math.inf, -math.inf])
    def test_k_max_must_be_a_whole_number(self, k_max):
        with pytest.raises(ValueError, match="k_max must be a whole number >= 1"):
            lemma2_empirical(0.25, "chi2_upper", k_max=k_max, replicates=10)

    def test_a_whole_float_k_max_is_its_int(self):
        whole = lemma2_empirical(0.25, "chi2_upper", k_max=3.0, replicates=10, seed=2)
        assert whole == lemma2_empirical(0.25, "chi2_upper", k_max=3, replicates=10, seed=2)


def lemma_case(which):
    """Arguments of the pinned lemma-2 checks, one per variant."""
    if which == "linear":
        return dict(alpha=0.5, which=which, mu=mean_vector_from_spec("poly:beta=1,scale=1,N=100"))
    return dict(alpha=0.25 if which == "chi2_upper" else 0.5, which=which, k_max=500)


def walk_words(rep):
    """Seed words of walk rep of lemma2_empirical(0.25, "chi2_upper", seed=1)."""
    return substream_words((1, _stable_key(f"lemma2:chi2_upper:{0.25!r}")), np.array([rep]))[0]


# The CPU mask the tests run under; the engine pins the caller only for the
# length of a call.
CPU_MASK = os.sched_getaffinity(0)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers the engine forks, with _WORKERS = 2 unless the test sets it."""
    fork = os.fork
    pids = []

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(montecarlo.os, "fork", counting_fork)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    return pids


def assert_engine_left_nothing():
    """No child of the test process, running or unreaped, and the CPU mask restored."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == CPU_MASK


class TestProcessEngine:
    """The replicate engine runs in _WORKERS processes with the same bits for any count.

    Most tests drive it through the walks; the last runs all three entry points.
    """

    # Estimates at seed 9 with 300 replicates, from the single-threaded loop
    # that preceded the worker threads.
    PINNED = {
        "chi2_upper": RiskEstimate(2.193966296959709, 0.24692202194613994, 300),
        "chi2_lower": RiskEstimate(1.4909440913653376, 0.15796849163565066, 300),
        "linear": RiskEstimate(0.601545016587546, 0.035280080819848646, 300),
    }

    @pytest.mark.parametrize("which", LEMMA2_VARIANTS)
    def test_pinned_bits(self, which):
        assert lemma2_empirical(**lemma_case(which), replicates=300, seed=9) == self.PINNED[which]

    def test_more_workers_than_cpus(self, monkeypatch, forks):
        # Eight processes sharing the CPUs, 50 one-walk blocks each: a share
        # joined out of order, or lost, changes the estimate.
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        serial = lemma2_empirical(0.25, "chi2_upper", k_max=50, replicates=400, seed=2)
        monkeypatch.setattr(montecarlo, "_WORKERS", 8)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        assert lemma2_empirical(0.25, "chi2_upper", k_max=50, replicates=400, seed=2) == serial
        assert len(forks) == 7
        assert_engine_left_nothing()

    def test_a_fork_that_fails_stops_the_others(self, monkeypatch):
        fork = os.fork
        forks = []

        def first_fork_only():
            if forks:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(montecarlo.os, "fork", first_fork_only)
        monkeypatch.setattr(montecarlo, "_WORKERS", 3)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)  # one walk per block
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(forks) == 1
        assert_engine_left_nothing()

    LEMMA_CHECKS = {
        "chi2_upper": ["--which", "chi2_upper", "--alpha", "0.25", "--kmax", "400"],
        "chi2_lower": ["--which", "chi2_lower", "--alpha", "0.5", "--kmax", "400"],
        "linear": ["--which", "linear", "--alpha", "0.5", "--mu", "poly:beta=1,scale=1,N=100"],
    }

    # 99 walks of 400 or 100 values: one walk per block, then 10 or 40 walks
    # per block at 4,000 values, and all 99 in one block at 40,000.  3 walks
    # fit one block at 4,000.  So every worker count above one forks for 99
    # walks at the first two sizes only, and never for 3.
    @pytest.mark.parametrize(
        "reps, block_values, forking",
        [(99, 1, True), (99, 4_000, True), (99, 40_000, False), (3, 4_000, False)],
        ids=["99_walks_in_blocks_of_1", "99_walks_in_blocks_of_4000",
             "99_walks_in_one_block", "3_walks_in_one_block"],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("which", LEMMA2_VARIANTS)
    def test_lemma_check_bytes_do_not_depend_on_workers(
        self, monkeypatch, forks, capsys, which, workers, reps, block_values, forking
    ):
        argv = ["lemma-check", *self.LEMMA_CHECKS[which], "--reps", str(reps), "--seed", "3"]
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        assert cli.main(argv) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", block_values)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == serial
        assert bool(forks) == (workers > 1 and forking)

    def test_walks_run_in_two_pinned_processes(self, monkeypatch, tmp_path):
        # Each process appends its pid and CPU mask to a file as it draws; the
        # draw records it, so a one-CPU machine runs the path too.
        log = tmp_path / "draws.txt"
        draw = montecarlo.standard_normals

        def recording(seed, n, out=None):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
            return draw(seed, n, out=out)

        monkeypatch.setattr(montecarlo, "standard_normals", recording)
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        draws = log.read_text().splitlines()
        (worker,) = {int(line.split()[0]) for line in draws} - {os.getpid()}
        cpus = sorted(CPU_MASK)
        caller_line, worker_line = f"{os.getpid()} {cpus[:1]}", f"{worker} {[cpus[1 % len(cpus)]]}"
        # Ten walks each, every one drawn on the process's own CPU.
        assert sorted(draws) == sorted([caller_line] * 10 + [worker_line] * 10)
        assert_engine_left_nothing()

    @pytest.mark.parametrize("failing_rep", [0, 15])  # the caller's share, then a worker's
    def test_a_walk_exception_reaches_the_caller(self, monkeypatch, forks, failing_rep):
        draw = montecarlo.standard_normals
        words = walk_words(failing_rep)

        def failing(seed, n, out=None):
            if np.array_equal(seed.words, words):
                raise RuntimeError(f"walk {failing_rep} failed")
            return draw(seed, n, out=out)

        monkeypatch.setattr(montecarlo, "standard_normals", failing)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with pytest.raises(RuntimeError, match=f"walk {failing_rep} failed"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(forks) == 1
        assert_engine_left_nothing()

    def test_the_callers_error_state_reaches_the_workers(self, monkeypatch, forks):
        draw = montecarlo.standard_normals
        words = walk_words(15)  # blocks 10..19 of 20 run on worker 1 of 2

        def overflowing(seed, n, out=None):
            out = draw(seed, n, out=out)
            if np.array_equal(seed.words, words):
                out[:] = 1e200
            return out

        monkeypatch.setattr(montecarlo, "standard_normals", overflowing)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(forks) == 1
        assert_engine_left_nothing()

    def test_an_exception_that_cannot_be_pickled_arrives_as_its_text(self, monkeypatch, forks):
        class TwoArgumentError(Exception):
            def __init__(self, first, second):
                super().__init__(f"{first} and {second}")

        draw = montecarlo.standard_normals
        words = walk_words(15)

        def failing(seed, n, out=None):
            if np.array_equal(seed.words, words):
                raise TwoArgumentError("walk", "worker")
            return draw(seed, n, out=out)

        monkeypatch.setattr(montecarlo, "standard_normals", failing)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with pytest.raises(RuntimeError, match="TwoArgumentError: walk and worker"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(forks) == 1
        assert_engine_left_nothing()

    def test_a_worker_that_dies_is_reported(self, monkeypatch, forks):
        draw = montecarlo.standard_normals
        words = walk_words(15)
        caller = os.getpid()

        def dying(seed, n, out=None):
            if np.array_equal(seed.words, words):
                if os.getpid() == caller:
                    raise AssertionError("walk 15 belongs to the worker's share")
                os._exit(7)
            return draw(seed, n, out=out)

        monkeypatch.setattr(montecarlo, "standard_normals", dying)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with pytest.raises(RuntimeError, match="ended without a result"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(forks) == 1
        assert_engine_left_nothing()

    @pytest.mark.parametrize(
        "workers, workspaces, blocks",
        [
            # Shares of 210 rows run in blocks of 150 and 60: each workspace has 150 rows.
            (2, [150, 150], 4),
            # Shares of 140 rows are one block each, sized to the share.
            (3, [140, 140, 140], 3),
        ],
        ids=["2_processes", "3_processes"],
    )
    def test_each_process_sizes_its_workspace_for_its_largest_block(
        self, monkeypatch, tmp_path, workers, workspaces, blocks
    ):
        # 420 rows of N = 100 in blocks of at most 150 rows, dealt to the
        # processes in contiguous shares.
        log = tmp_path / "rows.txt"
        cfg = make_config(mu_spec="poly:beta=1,scale=1", models=np.arange(1, 101), replicates=420)
        job = _loss_job(cfg)

        def logged(rows):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{rows}\n")
            return job.make_kernel(rows)

        expected = replicate_losses(cfg)
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        (losses,), _, engine = _per_replicate([job._replace(make_kernel=logged)])
        assert sorted(map(int, log.read_text().split())) == workspaces
        assert engine["blocks"] == [blocks]
        np.testing.assert_array_equal(losses, expected)
        assert_engine_left_nothing()

    def test_two_processes_run_equal_shares_of_replicates(self, monkeypatch, tmp_path):
        # 1,000 rows of N = 100 in blocks of at most 150 rows are dealt 500 to
        # each process, which runs its share in blocks of 150, 150, 150 and 50
        # rows.  Dealt as whole blocks (six of 150 and one of 100), they
        # would split 600/400.
        log = tmp_path / "blocks.txt"
        cfg = make_config(mu_spec="poly:beta=1,scale=1", models=np.arange(1, 101), replicates=1000)
        expected = replicate_losses(cfg)
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        (losses,), _, engine = _per_replicate([logging_blocks(_loss_job(cfg), log)])
        runs = blocks_by_process(log)
        assert sorted(runs.values()) == [[150, 150, 150, 50]] * 2
        assert os.getpid() in runs
        assert engine["blocks"] == [8]
        np.testing.assert_array_equal(losses, expected)
        assert_engine_left_nothing()

    def test_no_child_is_left_by_any_entry_point(self, monkeypatch, forks):
        # 400 rows of N = 100 take three blocks of at most 150 rows, so every
        # entry point forks.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        cfg = make_config(mu_spec="poly:beta=1,scale=1", models=np.arange(1, 101), replicates=400)
        verify_oracle_inequalities(cfg)
        unbiasedness_check(make_config(mu_spec="poly:beta=1,scale=1,N=100", models=[1, 50],
                                       replicates=400, base_seed=1))
        lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=400, seed=1)
        assert len(forks) == 3
        assert_engine_left_nothing()


def batch_configs(one_block_middle=False):
    """Three scenarios of 400 replicates at N = 100; with one_block_middle the second has N = 10."""
    middle = ("zero:N=10", np.arange(1, 11)) if one_block_middle else ("zero", np.arange(1, 101))
    specs = [("poly:beta=1,scale=1", np.arange(1, 101)), middle,
             ("sparse:k=5,amp=1", np.r_[1:40:3, 50, 100])]
    return [make_config(scenario_id=f"s{i}", mu_spec=mu_spec, models=models, replicates=400,
                        sigma=0.3, base_seed=11)
            for i, (mu_spec, models) in enumerate(specs, start=1)]


class TestBatchEngine:
    """verify_scenarios runs every scenario of a call in one set of forked workers."""

    def test_simulate_forks_once_for_all_its_scenarios(self, monkeypatch, forks, tmp_path):
        # Three scenarios of 400 replicates at N = 100: three blocks each of
        # at most 150 rows in one process.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        config = tmp_path / "three.cfg"
        config.write_text("".join(
            f"[{name}]\nmu = {mu}\nsigma = 0.3\nmodels = 1..100\nreplicates = 400\n"
            "base_seed = 5\n\n"
            for name, mu in [("a", "zero"), ("b", "poly:beta=1,scale=1"), ("c", "sparse:k=5,amp=1")]
        ))
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert len(forks) == 1
        assert_engine_left_nothing()

    def test_one_block_scenarios_do_not_fork(self, monkeypatch, forks, tmp_path):
        # 300 rows of N = 10 fit one block of 1,500 rows.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        config = tmp_path / "small.cfg"
        config.write_text("".join(
            f"[{name}]\nmu = {mu}\nsigma = 1.0\nmodels = 1..10\nreplicates = 300\n"
            "base_seed = 5\n\n"
            for name, mu in [("a", "zero"), ("b", "poly:beta=1,scale=1")]
        ))
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert forks == []

    def test_lemma_check_forks_once(self, monkeypatch, forks, capsys):
        # At the default --kmax of 10,000 values each walk is its own block: 200 blocks.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        argv = ["lemma-check", "--which", "chi2_upper", "--alpha", "0.25", "--reps", "200"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["replicates"] == 200
        assert len(forks) == 1
        assert_engine_left_nothing()

    def test_a_bound_that_fails_stops_the_call_before_any_fork(self, monkeypatch, forks):
        # Three blocks of at most 150 rows per scenario would fork.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        configs = batch_configs()
        configs.append(make_config(scenario_id="huge", mu_spec="explicit:1e200,1", models=[1, 2]))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            verify_scenarios(configs)
        assert forks == []

    def test_an_empty_batch_runs_nothing(self, forks):
        engine = {"workers": montecarlo._WORKERS, "cpus": None, "blocks": {}}
        assert verify_scenarios([]) == ([], [], engine)
        assert forks == []

    @pytest.mark.parametrize(
        "workers, blocks",
        [
            # 150, 150 and 100 rows at N = 100, and all 400 rows at N = 10.
            (1, {"s1": 3, "s2": 1, "s3": 3}),
            # Shares of 200 rows: 150 and 50 at N = 100, one block at N = 10.
            (2, {"s1": 4, "s2": 2, "s3": 4}),
            # Shares of a third of the rows: one block each.
            (3, {"s1": 3, "s2": 3, "s3": 3}),
        ],
        ids=["1", "2", "3"],
    )
    def test_batch_rows_are_the_single_scenario_rows(self, monkeypatch, workers, blocks):
        # Blocks of at most 150 rows at N = 100 and 1,500 at N = 10.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        configs = batch_configs(one_block_middle=True)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        singles = [verify_oracle_inequalities(cfg) for cfg in configs]
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        rows, seconds, engine = verify_scenarios(configs)
        assert engine["workers"] == workers and engine["blocks"] == blocks
        assert (engine["cpus"] is None) == (workers == 1)
        assert [dataclasses.astuple(row) for row in rows] == [
            dataclasses.astuple(row) for row in singles
        ]
        assert len(seconds) == len(configs) and all(s > 0.0 for s in seconds)
        assert_engine_left_nothing()

    def test_the_first_failure_in_scenario_order_reaches_the_caller(self, monkeypatch, forks):
        # Each scenario takes three blocks of at most 150 rows in one process,
        # so two processes run: rows 0..199 of each scenario in the caller,
        # rows 200..399 in the worker.  Scenario 2 fails in the worker's share,
        # scenario 3 earlier in time, in the caller's.
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 150 * 100)
        configs = batch_configs()
        worker_fault = substream_words(configs[1].substream_prefix, np.array([290]))[0]
        caller_fault = substream_words(configs[2].substream_prefix, np.array([5]))[0]
        draw, caller = montecarlo.draw_observations, os.getpid()

        def failing(mu, sigma, seeds, out=None):
            for seed in seeds:
                if np.array_equal(seed.words, worker_fault):
                    if os.getpid() == caller:
                        raise AssertionError("row 290 belongs to the worker's share")
                    raise RuntimeError("scenario 2 failed")
                if np.array_equal(seed.words, caller_fault):
                    raise RuntimeError("scenario 3 failed")
            return draw(mu, sigma, seeds, out=out)

        monkeypatch.setattr(montecarlo, "draw_observations", failing)
        with pytest.raises(RuntimeError, match="scenario 2 failed"):
            verify_scenarios(configs)
        assert len(forks) == 1
        assert_engine_left_nothing()


class TestUnbiasednessCheck:
    def test_same_estimates_for_any_worker_count_and_block_size(self, monkeypatch, forks):
        # 400 rows of N = 100: 400 one-row blocks, or three blocks of at most
        # 150 rows, whose (#M, replicates) result each process writes by
        # columns.  Both sizes fork for two and three workers.
        cfg = make_config(mu_spec="poly:beta=1,scale=1,N=100", models=[1, 7, 50, 100],
                          replicates=400, base_seed=5)
        outputs = []
        for workers in (1, 2, 3):
            for block_values in (1, 150 * 100):
                monkeypatch.setattr(montecarlo, "_WORKERS", workers)
                monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", block_values)
                outputs.append(unbiasedness_check(cfg))
        assert all(out == outputs[0] for out in outputs)
        assert len(forks) == 2 * (1 + 2)
        assert_engine_left_nothing()

    @pytest.mark.parametrize("count", [2, 5], ids=["no_memory", "beyond_ssize_t"])
    def test_results_that_cannot_be_mapped_are_a_memory_error(self, count):
        # (count, 2**58 - 1) float64 results, refused before any fork: about
        # 2**62 bytes at count 2, more than an address space maps, and more
        # bytes than ssize_t holds at count 5.
        cfg = make_config(mu_spec=f"zero:N={count}", models=np.arange(1, count + 1),
                          replicates=np.iinfo(np.intp).max // 32)
        with pytest.raises(MemoryError, match="cannot map"):
            unbiasedness_check(cfg)

    def test_keys_are_the_model_indices_as_ints(self):
        cfg = make_config(mu_spec="zero:N=3", models=np.array([1.0, 3.0]), replicates=2)
        results = unbiasedness_check(cfg)
        assert list(results) == [1, 3] and all(type(m) is int for m in results)

    @pytest.mark.parametrize(
        "cfg, pinned",
        [
            (
                ScenarioConfig("unbiasedness", "poly:beta=1,scale=1,N=30", SIGMA1,
                               [1, 5, 20], 2000, 3),
                {
                    1: ("-0x1.a3659f5ae626fp-5", "0x1.b464e59b23679p-5"),
                    5: ("-0x1.8dffe961ee77dp-5", "0x1.659609001f9c4p-4"),
                    20: ("0x1.4d0167f0565acp-3", "0x1.2fddabaa77b4cp-3"),
                },
            ),
            (
                ScenarioConfig("unbiasedness", "sparse:k=5,amp=1,N=40", 0.3,
                               [2, 3, 5, 8, 13, 21, 34], 1500, 2**70 + 3),
                {
                    2: ("-0x1.d5347576fd00bp-11", "0x1.7a58530406931p-6"),
                    3: ("-0x1.4fbb0539a8a06p-6", "0x1.c54dbee560c79p-6"),
                    5: ("-0x1.16e1911014c53p-5", "0x1.1d16a7c351d6ep-5"),
                    8: ("-0x1.2e1326a604a37p-5", "0x1.20e4d23590af2p-5"),
                    13: ("-0x1.3de5841d87f08p-5", "0x1.2a60874ce31fbp-5"),
                    21: ("-0x1.5af1bd40d1fe9p-5", "0x1.343979a7d81ecp-5"),
                    34: ("-0x1.47b72bd4b1b3ap-5", "0x1.3daeceedadf75p-5"),
                },
            ),
        ],
        ids=["poly", "sparse_gapped"],
    )
    def test_bits_are_pinned(self, cfg, pinned):
        # Frozen from the five-argument unbiasedness_check, which keyed its
        # substreams with the label "unbiasedness"; a scenario of that name has
        # the same address, so a change in seeding or in the profile fails here.
        results = unbiasedness_check(cfg)
        assert {m: (e.mean.hex(), e.std_error.hex()) for m, e in results.items()} == pinned
