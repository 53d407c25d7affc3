"""Tests for the reproducible Monte Carlo engine and empirical bound checks."""

import math
import sys
import threading

import numpy as np
import pytest

from ewagg import cli, montecarlo
from ewagg.estimators import (
    aggregate,
    exponential_weights,
    risk_profile,
    ure_weights,
)
from ewagg.montecarlo import (
    LEMMA2_VARIANTS,
    RiskEstimate,
    ScenarioConfig,
    _replicate_losses,
    _stable_key,
    lemma2_empirical,
    m_epsilon_budget,
    m_epsilon_study,
    mc_risk,
    unbiasedness_check,
    verify_oracle_inequalities,
)
from ewagg.sequence_model import (
    ModelIndexSet,
    NoiseLevel,
    generate_observation,
    mean_vector_from_spec,
    squared_loss,
)

SIGMA1 = NoiseLevel(1.0)


def make_config(**overrides):
    defaults = dict(
        scenario_id="unit",
        mu_spec="zero",
        sigma=SIGMA1,
        models=ModelIndexSet.from_range(1, 10),
        replicates=2000,
        base_seed=4242,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_replicates_must_be_positive(self):
        with pytest.raises(ValueError):
            make_config(replicates=0)
        with pytest.raises(ValueError):
            make_config(replicates=1)  # no standard error from one sample

    def test_mean_support_must_cover_models(self):
        with pytest.raises(ValueError):
            make_config(mu_spec="explicit:1,2", models=ModelIndexSet.from_range(1, 5))

    def test_mean_vector_defaults_to_model_support(self):
        cfg = make_config(mu_spec="zero", models=ModelIndexSet.from_range(1, 7))
        assert cfg.mu.declared_length == 7

    def test_mean_spec_is_resolved_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return mean_vector_from_spec(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "mean_vector_from_spec", counting)
        verify_oracle_inequalities(make_config(replicates=20))
        assert len(calls) == 1


class TestMcRisk:
    def test_single_model_family(self):
        # With one candidate both estimators are that projection; true risk is 1.
        cfg = make_config(models=ModelIndexSet(np.array([1])), replicates=10_000)
        losses = _replicate_losses(cfg)
        np.testing.assert_array_equal(losses["URE"], losses["EW"])
        risks = mc_risk(cfg)
        for est in risks.values():
            assert abs(est.mean - 1.0) <= 4.0 * est.std_error

    @pytest.mark.parametrize("block_values", [1, 30, 1 << 20])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, block_values):
        cfg = make_config(mu_spec="poly:beta=1,scale=1", replicates=97)
        mu = cfg.mu

        def run():
            return (
                _replicate_losses(cfg),
                m_epsilon_study(cfg, 0.1),
                unbiasedness_check(mu, cfg.sigma, [1, 4, 10], replicates=97, base_seed=5),
            )

        losses, study, unbiased = run()
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", block_values)
        other_losses, other_study, other_unbiased = run()
        for name in ("URE", "EW"):
            np.testing.assert_array_equal(other_losses[name], losses[name])
        assert other_study == study
        assert other_unbiased == unbiased

    def test_bit_identical_reruns(self):
        cfg = make_config(replicates=500)
        first = mc_risk(cfg)
        second = mc_risk(cfg)
        for key in first:
            assert first[key].mean == second[key].mean
            assert first[key].std_error == second[key].std_error

    def test_matches_manual_op_composition(self):
        # Recompute a few replicates through the public operations directly.
        cfg = make_config(
            mu_spec="poly:beta=1,scale=1",
            models=ModelIndexSet(np.array([1, 3, 8])),
            replicates=25,
        )
        losses = _replicate_losses(cfg)
        mu = cfg.mu
        key = _stable_key(cfg.scenario_id)
        for rep in range(cfg.replicates):
            obs = generate_observation(mu, cfg.sigma, (cfg.base_seed, key, rep))
            profile = risk_profile(obs, cfg.models)
            ure_est = aggregate(obs, cfg.models, ure_weights(profile))
            ew_est = aggregate(obs, cfg.models, exponential_weights(profile, cfg.sigma))
            assert losses["URE"][rep] == squared_loss(ure_est, mu)
            assert losses["EW"][rep] == squared_loss(ew_est, mu)

    def test_ew_respects_log_cardinality_budget(self):
        cfg = make_config(models=ModelIndexSet.from_range(1, 100), replicates=10_000)
        est = mc_risk(cfg)["EW"]
        budget = 1.0 + 4.0 * math.log(100.0)
        assert est.mean <= budget + 4.0 * est.std_error

    def test_reference_fixture_low_noise_poly(self):
        # Frozen from a reference run of this exact configuration; any drift in
        # seeding, estimator math, or accumulation order shows up here.
        cfg = ScenarioConfig(
            scenario_id="poly-lowsigma",
            mu_spec="poly:beta=1,scale=1",
            sigma=NoiseLevel(0.05),
            models=ModelIndexSet.from_range(1, 200),
            replicates=2000,
            base_seed=20240501,
        )
        risks = mc_risk(cfg)
        assert risks["URE"].mean == pytest.approx(0.1063099810883879, rel=1e-12)
        assert risks["URE"].std_error == pytest.approx(0.0005093825536158197, rel=1e-12)
        assert risks["EW"].mean == pytest.approx(0.08972521133218031, rel=1e-12)
        assert risks["EW"].std_error == pytest.approx(0.0004322114956571116, rel=1e-12)


class TestVerifyOracleInequalities:
    def test_two_model_scenario_passes_t2(self):
        cfg = make_config(models=ModelIndexSet.from_range(1, 2), replicates=5000)
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
    def test_chi2_upper_budget(self):
        est = lemma2_empirical(0.25, "chi2_upper", k_max=2000, replicates=2000, seed=11)
        assert est.mean <= 4.0 + 4.0 * est.std_error

    def test_chi2_lower_budget(self):
        est = lemma2_empirical(0.25, "chi2_lower", k_max=2000, replicates=2000, seed=12)
        assert est.mean <= 4.0 + 4.0 * est.std_error

    def test_linear_with_zero_mean_is_exactly_zero(self):
        mu = mean_vector_from_spec("zero:N=50")
        est = lemma2_empirical(0.5, "linear", mu=mu, replicates=200, seed=13)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_linear_budget(self):
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=100")
        est = lemma2_empirical(0.5, "linear", mu=mu, replicates=4000, seed=14)
        assert est.mean <= 2.0 + 4.0 * est.std_error
        assert est.mean >= 0.0  # empty suffixes pin the maximum at >= 0

    def test_deterministic_given_seed(self):
        a = lemma2_empirical(0.1, "chi2_upper", k_max=500, replicates=300, seed=9)
        b = lemma2_empirical(0.1, "chi2_upper", k_max=500, replicates=300, seed=9)
        assert a == b

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lemma2_empirical(0.6, "chi2_upper")
        with pytest.raises(ValueError):
            lemma2_empirical(-0.1, "chi2_lower")
        with pytest.raises(ValueError):
            lemma2_empirical(0.5, "linear")  # mean vector missing
        with pytest.raises(ValueError):
            lemma2_empirical(0.5, "gauss_upper")
        with pytest.raises(ValueError):
            lemma2_empirical(0.25, "chi2_upper", k_max=0)
        for replicates in (1, 0, -3):  # rejected before any walk is drawn
            with pytest.raises(ValueError, match="replicates"):
                lemma2_empirical(0.25, "chi2_upper", k_max=10, replicates=replicates)


def lemma_case(which):
    """Arguments of the pinned lemma-2 checks, one per variant."""
    if which == "linear":
        return dict(alpha=0.5, which=which, mu=mean_vector_from_spec("poly:beta=1,scale=1,N=100"))
    return dict(alpha=0.25 if which == "chi2_upper" else 0.5, which=which, k_max=500)


class TestLemma2Workers:
    """The walks run on _WORKERS threads with the same bits for any count."""

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

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("which", LEMMA2_VARIANTS)
    def test_same_estimate_for_any_worker_count(self, monkeypatch, which, workers):
        # replicates=3 with 5 workers: the count is capped at the replicates.
        for replicates in (3, 41):
            monkeypatch.setattr(montecarlo, "_WORKERS", 1)
            serial = lemma2_empirical(**lemma_case(which), replicates=replicates, seed=9)
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            assert lemma2_empirical(**lemma_case(which), replicates=replicates, seed=9) == serial

    def test_many_workers_with_frequent_switches(self, monkeypatch):
        # More threads than CPUs, switching every microsecond: a walk written
        # to the wrong slot, or lost, changes the estimate.
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        serial = lemma2_empirical(0.25, "chi2_upper", k_max=50, replicates=400, seed=2)
        monkeypatch.setattr(montecarlo, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = lemma2_empirical(0.25, "chi2_upper", k_max=50, replicates=400, seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_a_thread_that_cannot_start_stops_the_others(self, monkeypatch):
        baseline = threading.active_count()
        starts = []

        class OneStartOnly(threading.Thread):
            def start(self):
                if starts:
                    raise RuntimeError("can't start new thread")
                starts.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", OneStartOnly)
        monkeypatch.setattr(montecarlo, "_WORKERS", 3)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert threading.active_count() == baseline

    def test_lemma_check_bytes_do_not_depend_on_workers(self, monkeypatch, capsys):
        commands = [
            ["--which", "chi2_upper", "--alpha", "0.25", "--kmax", "400"],
            ["--which", "chi2_lower", "--alpha", "0.5", "--kmax", "400"],
            ["--which", "linear", "--alpha", "0.5", "--mu", "poly:beta=1,scale=1,N=100"],
        ]
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            for argv in commands:
                assert cli.main(["lemma-check", *argv, "--reps", "99", "--seed", "3"]) == 0
            outputs[workers] = capsys.readouterr().out
        assert outputs[1] == outputs[2]

    def test_walks_run_on_two_threads(self, monkeypatch):
        # Recorded through the draw, so a one-CPU machine runs the path too.
        idents = set()
        draw = montecarlo.standard_normals

        def recording(seed, n):
            idents.add(threading.get_ident())
            return draw(seed, n)

        monkeypatch.setattr(montecarlo, "standard_normals", recording)
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert len(idents) == 2

    @pytest.mark.parametrize("failing_rep", [0, 7])  # the calling thread, then a worker
    def test_a_walk_exception_reaches_the_caller(self, monkeypatch, failing_rep):
        baseline = threading.active_count()
        draw = montecarlo.standard_normals

        def failing(seed, n):
            if seed[-1] == failing_rep:
                raise RuntimeError(f"walk {failing_rep} failed")
            return draw(seed, n)

        monkeypatch.setattr(montecarlo, "standard_normals", failing)
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        with pytest.raises(RuntimeError, match=f"walk {failing_rep} failed"):
            lemma2_empirical(0.25, "chi2_upper", k_max=100, replicates=20, seed=1)
        assert threading.active_count() == baseline


class TestUnbiasednessCheck:
    def test_centered_means_within_tolerance(self):
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=30")
        results = unbiasedness_check(mu, SIGMA1, [1, 5, 20], replicates=5000, base_seed=3)
        for est in results.values():
            assert abs(est.mean) <= 4.0 * est.std_error


class TestMEpsilonStudy:
    def test_singleton_family_is_constant_one(self):
        cfg = make_config(models=ModelIndexSet(np.array([1])), replicates=300)
        report = m_epsilon_study(cfg, 0.1)
        assert report.profile_centered.mean == 1.0
        assert report.profile_centered.std_error == 0.0

    def test_bounded_by_max_model(self):
        cfg = make_config(models=ModelIndexSet.from_range(1, 10), replicates=500)
        report = m_epsilon_study(cfg, 0.05)
        assert report.profile_centered.mean <= 10.0
        assert report.oracle_centered.mean <= 10.0

    def test_reference_fixture(self):
        cfg = ScenarioConfig(
            scenario_id="zero-menv",
            mu_spec="zero",
            sigma=SIGMA1,
            models=ModelIndexSet.from_range(1, 50),
            replicates=1000,
            base_seed=777,
        )
        report = m_epsilon_study(cfg, 0.1)
        assert report.profile_centered.mean == pytest.approx(10.044, rel=1e-12)
        assert report.oracle_centered.mean == pytest.approx(11.201, rel=1e-12)
        assert report.analytic_budget == pytest.approx(
            m_epsilon_budget(1.0, SIGMA1, 0.1), rel=1e-15
        )

    def test_budget_formula(self):
        # r/s^2 + 7 eps r / ((1-6 eps) s^2) + 15 / ((1-6 eps) eps) at r=2, eps=0.1
        expected = 2.0 + 7.0 * 0.1 * 2.0 / 0.4 + 15.0 / (0.4 * 0.1)
        assert m_epsilon_budget(2.0, SIGMA1, 0.1) == pytest.approx(expected, rel=1e-15)

    def test_epsilon_domain(self):
        cfg = make_config(replicates=10)
        with pytest.raises(ValueError):
            m_epsilon_study(cfg, 0.0)
        with pytest.raises(ValueError):
            m_epsilon_study(cfg, 0.2)
