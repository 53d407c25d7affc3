"""Tests for projection estimators, risk profiles, weighting, and aggregation."""

import math

import numpy as np
import pytest

from ewagg import estimators
from ewagg.estimators import (
    aggregate,
    exponential_weights,
    m_epsilon,
    projection_estimate,
    risk_profile,
    ure_weights,
)
from ewagg.sequence_model import check_models, generate_observation, mean_vector_from_spec

SIGMA1 = 1.0


class TestProjectionEstimate:
    def test_definition(self):
        np.testing.assert_allclose(projection_estimate([3.0, 1.0, 4.0], 2), [3, 1, 0])

    def test_m_beyond_support_keeps_everything(self):
        np.testing.assert_allclose(projection_estimate([3.0, 1.0, 4.0], 5), [3, 1, 4])

    def test_single_coordinate(self):
        np.testing.assert_allclose(projection_estimate([2.0, -1.0], 1), [2, 0])

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            projection_estimate([1.0], 0)

    @pytest.mark.parametrize("m", [1.5, 2**63, 0])
    def test_m_follows_the_model_set_rule(self, m):
        with pytest.raises(ValueError, match="model indices"):
            projection_estimate(np.ones(3), m)

    def test_one_m_per_row(self):
        block = np.arange(1.0, 13.0).reshape(3, 4)
        out = projection_estimate(block, np.array([1, 4, 2]))
        for row, m, kept in zip(block, (1, 4, 2), out):
            assert kept.tobytes() == projection_estimate(row, m).tobytes()


def argmin_model(profile, M):
    """The argmin model per row, the smallest on ties."""
    return M[np.argmin(profile, axis=-1)]


def envelope_indices(profile, M):
    """m_epsilon at a small, a middle and a large epsilon."""
    return [m_epsilon(profile, M, SIGMA1, eps) for eps in (0.05, 0.5, 0.95)]


class TestRiskProfile:
    def test_direct_arithmetic(self):
        M = np.arange(1, 3)
        prof = risk_profile([3.0, 0.1], SIGMA1, M)
        np.testing.assert_allclose(prof, [-7.0, -5.01])
        assert np.array_equal(ure_weights(prof), [1.0, 0.0])
        assert argmin_model(prof, M) == 1
        assert envelope_indices(prof, M) == [2, 2, 2]  # -5.01 - (-7) <= 4 + 4 eps

    def test_zero_data(self):
        M = np.arange(1, 3)
        prof = risk_profile([0.0, 0.0], SIGMA1, M)
        np.testing.assert_allclose(prof, [2.0, 4.0])
        assert argmin_model(prof, M) == 1

    def test_single_model_arithmetic(self):
        assert risk_profile([2.0, 1.0], SIGMA1, check_models([2]))[..., 0] == -5.0 + 4.0 == -1.0

    def test_single_model_sets_give_the_full_profile_entries(self):
        rng = np.random.default_rng(4)
        M = np.arange(1, 41)
        for _ in range(20):
            y = rng.normal(0.0, 3.0, size=40)
            sigma = float(rng.uniform(0.1, 2.0))
            profile = risk_profile(y, sigma, M)
            single = [risk_profile(y, sigma, check_models([m]))[..., 0] for m in M]
            assert single == profile.tolist()

    def test_tie_breaks_toward_smallest_m(self):
        M = np.arange(1, 3)
        prof = np.array([3.0, 3.0])
        assert np.array_equal(ure_weights(prof), [1.0, 0.0])
        assert argmin_model(prof, M) == 1
        assert envelope_indices(prof, M) == [2, 2, 2]

    def test_requires_support(self):
        with pytest.raises(ValueError):
            risk_profile([1.0, 2.0], SIGMA1, np.arange(1, 4))


class TestExponentialWeights:
    def test_equal_values_give_uniform(self):
        np.testing.assert_allclose(exponential_weights([5.0, 5.0], SIGMA1), [0.5, 0.5])

    def test_closed_form_ratio(self):
        # Values (0, 4 sigma^2 ln 3) put weights (3/4, 1/4).
        np.testing.assert_allclose(
            exponential_weights([0.0, 4.0 * np.log(3.0)], SIGMA1), [0.75, 0.25], atol=1e-15
        )

    def test_extreme_spread_saturates_cleanly(self):
        w = exponential_weights([0.0, 1e6, 2e6], SIGMA1)
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])
        assert np.all(np.isfinite(w))

    def test_matches_direct_softmax(self):
        # Independent oracle: normalize exponentials directly.
        rng = np.random.default_rng(3)
        sig = 0.7
        for _ in range(50):
            vals = rng.normal(0.0, 5.0, size=8)
            expected = np.exp(-vals / (4.0 * (sig * sig)))
            expected /= expected.sum()
            got = exponential_weights(vals, sig)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_underflow_cut_keeps_the_plain_exp_bits(self):
        # Exponents straddle the cut, including values at and next to it; the
        # skipped entries must be the zeros the full exp would give.  Every
        # exponent but the 0 is below -40, so the row sum is exactly 1 and a
        # subnormal weight such as exp(-745) survives the normalisation.
        rng = np.random.default_rng(29)
        cut = estimators._EXP_UNDERFLOW_CUT
        near = np.nextafter(cut, [-np.inf, np.inf])
        exponents = np.concatenate(
            [[0.0, cut, *near, -745.2, -745.0, -744.0], -rng.uniform(40.0, 2000.0, size=4000)]
        )
        profile = -exponents  # variance 1/4: the softmax forms exactly these exponents
        plain = np.exp(exponents)
        assert np.array_equal(exponential_weights(profile, 0.5), plain / plain.sum())

    def test_exp_is_zero_at_and_below_the_cut(self):
        # The cut is only exact while this build's exp rounds to 0 there.
        cut = estimators._EXP_UNDERFLOW_CUT
        below = np.concatenate([[cut], np.linspace(cut, -1e4, 10_001), [-1e300, -np.inf]])
        assert np.all(np.exp(below) == 0.0)

    def test_wide_profile_matches_exact_normalisation(self):
        # One N = 20,000 profile of the benchmark's wide shape, normalised
        # independently: long-double exponentials over a correctly rounded sum.
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=20000")
        sig = 0.05
        y = generate_observation(mu, sig, (2024, 0))
        M = np.arange(1, 20001)
        profile = risk_profile(y, sig, M)
        exps = np.exp(-(profile - profile.min()).astype(np.longdouble) / (4.0 * (sig * sig)))
        expected = np.asarray(exps / math.fsum(exps.astype(float)), dtype=float)
        got = exponential_weights(profile, sig)
        # Relative accuracy down to the smallest normal float; below it only
        # absolute accuracy is meaningful.
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.finfo(float).tiny)
        assert abs(math.fsum(got) - 1.0) <= 1e-12


class TestAggregate:
    def test_degenerate_weights_give_projection(self):
        y = [3.0, 1.0, 4.0]
        M = np.array([2, 3])
        np.testing.assert_array_equal(aggregate(y, M, [1.0, 0.0]), projection_estimate(y, 2))

    def test_direct_weighted_sum(self):
        M = np.arange(1, 3)
        np.testing.assert_allclose(aggregate([2.0, 2.0], M, [0.5, 0.5]), [2.0, 1.0])

    def test_rejects_misaligned_weights(self):
        M = np.arange(1, 3)
        with pytest.raises(ValueError):
            aggregate([2.0, 2.0], M, [1.0])
        with pytest.raises(ValueError):
            aggregate([[2.0, 2.0], [1.0, 1.0]], M, [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])

    def test_matches_literal_combination(self):
        # Suffix-sum route equals the O(#M * N) sum of weighted projections.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, min(6, n + 1)))
            indices = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
            M = indices
            y = rng.normal(size=n)
            raw = rng.uniform(0.1, 1.0, size=k)
            w = raw / raw.sum()
            literal = np.zeros(n)
            for weight, m in zip(w, M):
                literal += weight * projection_estimate(y, m)
            np.testing.assert_allclose(aggregate(y, M, w), literal, atol=1e-12)

    def test_convexity_bounds_each_coordinate(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = rng.normal(size=15)
            M = np.array([1, 4, 9, 15])
            raw = rng.uniform(0.0, 1.0, size=4) + 1e-9
            agg = aggregate(y, M, raw / raw.sum())
            assert np.all(np.abs(agg) <= np.abs(y) + 1e-15)

    def test_dominant_model_drives_aggregate(self):
        # When one risk value sits far below the rest, the exponential-weight
        # aggregate collapses onto that projection coordinatewise.
        y = [1.0, 2.0, 3.0, 4.0]
        M = np.arange(1, 5)
        w = exponential_weights([500.0, 0.0, 500.0, 500.0], SIGMA1)
        np.testing.assert_allclose(aggregate(y, M, w), projection_estimate(y, 2), atol=1e-20)


class TestMEpsilon:
    def test_result_at_least_argmin(self):
        rng = np.random.default_rng(8)
        M = np.arange(1, 31)
        for _ in range(100):
            prof = rng.normal(0, 10, size=30)
            assert m_epsilon(prof, M, SIGMA1, 0.1) >= M[np.argmin(prof)]

    def test_constant_profile_reaches_the_top(self):
        assert m_epsilon(np.full(10, 3.0), np.arange(1, 11), SIGMA1, 0.1) == 10

    def test_direct_scan_example(self):
        assert m_epsilon([0.0, 9.0, 100.0], np.arange(1, 4), SIGMA1, 0.25) == 1

    def test_epsilon_domain(self):
        M = np.arange(1, 3)
        with pytest.raises(ValueError):
            m_epsilon([0.0, 1.0], M, SIGMA1, 0.0)
        with pytest.raises(ValueError):
            m_epsilon([0.0, 1.0], M, SIGMA1, 1.0)

    def test_rejects_misaligned_profile(self):
        M = np.arange(1, 3)
        with pytest.raises(ValueError):
            m_epsilon([0.0], M, SIGMA1, 0.1)
        with pytest.raises(ValueError):
            m_epsilon([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]], M, SIGMA1, 0.1)

    def test_matches_brute_force_scan(self):
        # Library result equals a literal loop over the defining inequality.
        rng = np.random.default_rng(9)
        for _ in range(200):
            size = int(rng.integers(1, 50))
            start = int(rng.integers(1, 5))
            M = np.arange(start, start + size)
            vals = rng.normal(0.0, 20.0, size=size)
            sig = float(rng.uniform(0.2, 3.0))
            eps = float(rng.uniform(0.01, 0.9))
            mhat, low = M.tolist()[int(np.argmin(vals))], vals.min()
            best = None
            for m, value in zip(M, vals):
                rhs = 4 * eps * (sig * sig) * (m - mhat) + 4 * (sig * sig)
                if value - low <= rhs:
                    best = m
            assert m_epsilon(vals, M, sig, eps) == best

    def test_nondecreasing_in_epsilon(self):
        rng = np.random.default_rng(10)
        M = np.arange(1, 41)
        for _ in range(50):
            prof = rng.normal(0, 15, size=40)
            results = [m_epsilon(prof, M, SIGMA1, e) for e in (0.05, 0.2, 0.5, 0.9)]
            assert all(b >= a for a, b in zip(results, results[1:]))
