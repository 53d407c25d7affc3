"""Tests for the oracle risk scan."""

import numpy as np
import pytest

from ewagg.risk import oracle_risk
from ewagg.sequence_model import (
    MeanVector,
    ModelIndexSet,
    NoiseLevel,
    mean_vector_from_spec,
    true_projection_risk,
)

SIGMA1 = NoiseLevel(1.0)


class TestOracleRisk:
    def test_zero_mean(self):
        report = oracle_risk(mean_vector_from_spec("zero:N=10"), SIGMA1, ModelIndexSet.from_range(1, 10))
        assert report.oracle_risk == 1.0
        assert report.oracle_index == 1

    def test_brute_force_scan(self):
        # Values over M = {1, 2, 3} are (5, 2, 3); the minimum sits at m = 2.
        mu = MeanVector(np.array([2.0, 2.0, 0.0]))
        report = oracle_risk(mu, SIGMA1, ModelIndexSet.from_range(1, 3))
        assert report.oracle_risk == 2.0
        assert report.oracle_index == 2

    def test_matches_independent_full_scan(self):
        # Independent oracle: direct double loop over tail sums, no library calls.
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=100")
        sigma = NoiseLevel(0.1)
        coeffs = [1.0 / i for i in range(1, 101)]
        best_value, best_index = None, None
        for m in range(1, 101):
            value = sum(c * c for c in coeffs[m:]) + 0.01 * m
            if best_value is None or value < best_value:
                best_value, best_index = value, m
        report = oracle_risk(mu, sigma, ModelIndexSet.from_range(1, 100))
        assert report.oracle_index == best_index
        assert report.oracle_risk == pytest.approx(best_value, rel=1e-12)

    def test_scan_certificate(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu = MeanVector(rng.normal(size=30))
            sigma = NoiseLevel(float(rng.uniform(0.1, 2.0)))
            M = ModelIndexSet(np.sort(rng.choice(np.arange(1, 31), size=8, replace=False)))
            report = oracle_risk(mu, sigma, M)
            for m in M:
                assert report.oracle_risk <= true_projection_risk(mu, sigma, m) + 1e-15

    def test_superset_never_increases(self):
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=40")
        small = oracle_risk(mu, SIGMA1, ModelIndexSet(np.array([2, 5, 9])))
        large = oracle_risk(mu, SIGMA1, ModelIndexSet(np.array([1, 2, 5, 9, 30])))
        assert large.oracle_risk <= small.oracle_risk

    def test_scaling_in_amplitude(self):
        M = ModelIndexSet.from_range(1, 20)
        base = np.array([1.0 / i for i in range(1, 21)])
        values = [
            oracle_risk(MeanVector(c * base), SIGMA1, M).oracle_risk
            for c in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_lower_bound_sigma2_min_m(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mu = MeanVector(rng.normal(size=25))
            sigma = NoiseLevel(float(rng.uniform(0.1, 2.0)))
            M = ModelIndexSet.from_range(int(rng.integers(1, 5)), 25)
            report = oracle_risk(mu, sigma, M)
            assert report.oracle_risk >= sigma.variance * M.min_index

    def test_support_precondition(self):
        with pytest.raises(ValueError):
            oracle_risk(MeanVector(np.zeros(5)), SIGMA1, ModelIndexSet.from_range(1, 6))
