"""Tests for projection estimators, risk profiles, weighting, and aggregation."""

import math

import numpy as np
import pytest

from ewagg.estimators import (
    RiskProfile,
    WeightVector,
    aggregate,
    exponential_weights,
    m_epsilon,
    profile_values,
    projection_estimate,
    risk_profile,
    softmax_weights,
    suffix_weights,
    unbiased_risk,
    ure_weights,
)
from ewagg.sequence_model import (
    ModelIndexSet,
    NoiseLevel,
    Observation,
    generate_observation,
    mean_vector_from_spec,
    true_projection_risk,
)

SIGMA1 = NoiseLevel(1.0)


def obs(values, sigma=SIGMA1):
    return Observation(values=np.asarray(values, dtype=float), noise=sigma)


class TestProjectionEstimate:
    def test_definition(self):
        np.testing.assert_allclose(projection_estimate(obs([3.0, 1.0, 4.0]), 2), [3, 1, 0])

    def test_m_beyond_support_keeps_everything(self):
        np.testing.assert_allclose(projection_estimate(obs([3.0, 1.0, 4.0]), 5), [3, 1, 4])

    def test_single_coordinate(self):
        np.testing.assert_allclose(projection_estimate(obs([2.0, -1.0]), 1), [2, 0])

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            projection_estimate(obs([1.0]), 0)


class TestUnbiasedRisk:
    def test_arithmetic(self):
        assert unbiased_risk(obs([2.0, 1.0]), 2) == -5.0 + 4.0 == -1.0

    def test_zero_data(self):
        assert unbiased_risk(obs([0.0, 0.0]), 1) == 2.0

    def test_equals_the_profile_entry_exactly(self):
        rng = np.random.default_rng(4)
        M = ModelIndexSet.from_range(1, 40)
        for _ in range(20):
            y = obs(rng.normal(0.0, 3.0, size=40), NoiseLevel(float(rng.uniform(0.1, 2.0))))
            profile = risk_profile(y, M).values
            assert [unbiased_risk(y, m) for m in M] == profile.tolist()

    def test_m_beyond_support_rejected(self):
        with pytest.raises(ValueError):
            unbiased_risk(obs([1.0, 2.0]), 3)

    def test_expectation_matches_true_risk_up_to_norm(self):
        # E rbar(Y, m) + ||mu||^2 equals the exact projection risk.
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=50")
        sig = NoiseLevel(1.0)
        m = 7
        reps = 20_000
        vals = np.empty(reps)
        for rep in range(reps):
            y = generate_observation(mu, sig, (881, rep))
            vals[rep] = unbiased_risk(y, m)
        se = vals.std(ddof=1) / np.sqrt(reps)
        target = true_projection_risk(mu, sig, m) - mu.squared_norm
        assert abs(vals.mean() - target) <= 4.0 * se


class TestRiskProfile:
    def test_direct_arithmetic(self):
        prof = risk_profile(obs([3.0, 0.1]), ModelIndexSet.from_range(1, 2))
        np.testing.assert_allclose(prof.values, [-7.0, -5.01])
        assert prof.argmin_index == 1
        assert prof.min_value == -7.0

    def test_zero_data(self):
        prof = risk_profile(obs([0.0, 0.0]), ModelIndexSet.from_range(1, 2))
        np.testing.assert_allclose(prof.values, [2.0, 4.0])
        assert prof.argmin_index == 1

    def test_tie_breaks_toward_smallest_m(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 2), [3.0, 3.0])
        assert prof.argmin_index == 1
        assert prof.min_value == 3.0

    def test_requires_support(self):
        with pytest.raises(ValueError):
            risk_profile(obs([1.0, 2.0]), ModelIndexSet.from_range(1, 3))


class TestUreWeights:
    def test_point_mass_on_argmin(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 2), [3.0, 5.0])
        np.testing.assert_allclose(ure_weights(prof).weights, [1.0, 0.0])

    def test_argmin_in_last_position(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 3), [3.0, 2.0, 1.0])
        np.testing.assert_allclose(ure_weights(prof).weights, [0.0, 0.0, 1.0])

    def test_all_ties_pick_smallest(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 3), [2.0, 2.0, 2.0])
        np.testing.assert_allclose(ure_weights(prof).weights, [1.0, 0.0, 0.0])


class TestExponentialWeights:
    def test_equal_values_give_uniform(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 2), [5.0, 5.0])
        np.testing.assert_allclose(exponential_weights(prof, SIGMA1).weights, [0.5, 0.5])

    def test_closed_form_ratio(self):
        # Values (0, 4 sigma^2 ln 3) put weights (3/4, 1/4).
        prof = RiskProfile(
            ModelIndexSet.from_range(1, 2), [0.0, 4.0 * np.log(3.0)]
        )
        np.testing.assert_allclose(
            exponential_weights(prof, SIGMA1).weights, [0.75, 0.25], atol=1e-15
        )

    def test_extreme_spread_saturates_cleanly(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 3), [0.0, 1e6, 2e6])
        w = exponential_weights(prof, SIGMA1).weights
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])
        assert np.all(np.isfinite(w))

    def test_shift_invariance(self):
        # Profile values and shifts are kept on a dyadic grid so that the
        # shifted profile is exactly representable; the weights then must
        # match far inside the 1e-12 contract.
        rng = np.random.default_rng(7)
        M = ModelIndexSet.from_range(1, 12)
        for shift in [1.0, 2.0**10, 2.0**16, 2.0**19, 2.0**20]:
            raw = rng.uniform(-50.0, 50.0, size=12)
            vals = np.round(raw * 2.0**20) / 2.0**20
            w0 = exponential_weights(RiskProfile(M, vals), SIGMA1).weights
            w1 = exponential_weights(RiskProfile(M, vals + shift), SIGMA1).weights
            assert np.max(np.abs(w0 - w1)) <= 1e-12

    def test_argmax_weight_is_profile_argmin(self):
        rng = np.random.default_rng(11)
        M = ModelIndexSet.from_range(1, 20)
        for _ in range(100):
            vals = rng.normal(0.0, 30.0, size=20)
            prof = RiskProfile(M, vals)
            w = exponential_weights(prof, SIGMA1).weights
            assert np.argmax(w) == np.argmin(vals)

    def test_matches_direct_softmax(self):
        # Independent oracle: normalize exponentials directly.
        rng = np.random.default_rng(3)
        M = ModelIndexSet.from_range(1, 8)
        sig = NoiseLevel(0.7)
        for _ in range(50):
            vals = rng.normal(0.0, 5.0, size=8)
            expected = np.exp(-vals / (4.0 * sig.variance))
            expected /= expected.sum()
            got = exponential_weights(RiskProfile(M, vals), sig).weights
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_wide_profile_matches_exact_normalisation(self):
        # One N = 20,000 profile of the benchmark's wide shape, normalised
        # independently: long-double exponentials over a correctly rounded sum.
        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=20000")
        sig = NoiseLevel(0.05)
        y = generate_observation(mu, sig, (2024, 0))
        M = ModelIndexSet.from_range(1, 20000)
        profile = profile_values(y.values, sig.variance, M.indices)
        exps = np.exp(-(profile - profile.min()).astype(np.longdouble) / (4.0 * sig.variance))
        expected = np.asarray(exps / math.fsum(exps.astype(float)), dtype=float)
        got = softmax_weights(profile, sig.variance)
        # Relative accuracy down to the smallest normal float; below it only
        # absolute accuracy is meaningful.
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.finfo(float).tiny)
        assert abs(math.fsum(got) - 1.0) <= 1e-12


class TestWeightVector:
    def test_simplex_validation(self):
        M = ModelIndexSet.from_range(1, 2)
        with pytest.raises(ValueError):
            WeightVector(models=M, weights=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            WeightVector(models=M, weights=np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            WeightVector(models=M, weights=np.array([1.0]))


class TestAggregate:
    def test_degenerate_weights_give_projection(self):
        y = obs([3.0, 1.0, 4.0])
        M = ModelIndexSet(np.array([2, 3]))
        w = WeightVector(models=M, weights=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(aggregate(y, M, w), projection_estimate(y, 2))

    def test_direct_weighted_sum(self):
        y = obs([2.0, 2.0])
        M = ModelIndexSet.from_range(1, 2)
        w = WeightVector(models=M, weights=np.array([0.5, 0.5]))
        np.testing.assert_allclose(aggregate(y, M, w), [2.0, 1.0])

    def test_matches_literal_combination(self):
        # Suffix-sum route equals the O(#M * N) sum of weighted projections.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, min(6, n + 1)))
            indices = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
            M = ModelIndexSet(indices)
            y = obs(rng.normal(size=n))
            raw = rng.uniform(0.1, 1.0, size=k)
            w = WeightVector(models=M, weights=raw / raw.sum())
            literal = np.zeros(n)
            for weight, m in zip(w.weights, M):
                literal += weight * projection_estimate(y, m)
            np.testing.assert_allclose(aggregate(y, M, w), literal, atol=1e-12)

    def test_convexity_bounds_each_coordinate(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = obs(rng.normal(size=15))
            M = ModelIndexSet(np.array([1, 4, 9, 15]))
            raw = rng.uniform(0.0, 1.0, size=4) + 1e-9
            w = WeightVector(models=M, weights=raw / raw.sum())
            agg = aggregate(y, M, w)
            assert np.all(np.abs(agg) <= np.abs(y.values) + 1e-15)

    def test_misaligned_weights_rejected(self):
        y = obs([1.0, 2.0])
        M = ModelIndexSet.from_range(1, 2)
        other = ModelIndexSet(np.array([1, 3]))
        w = WeightVector(models=other, weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            aggregate(y, M, w)

    @pytest.mark.parametrize(
        "indices, length",
        [
            ([1, 4, 5, 9, 12], 12),  # gaps
            ([3, 4, 5, 6, 7], 9),  # no model 1
            ([2, 6, 15], 10),  # largest index beyond the observation
        ],
    )
    def test_suffix_sums_equal_naive_reversed_sums(self, indices, length):
        rng = np.random.default_rng(12)
        M = ModelIndexSet(np.array(indices))
        raw = rng.uniform(0.0, 1.0, size=(4, len(indices)))
        w = WeightVector(models=M, weights=raw / raw.sum(axis=-1, keepdims=True))
        y = Observation(values=rng.normal(size=(4, length)), noise=SIGMA1)
        naive = np.zeros((4, length))
        for b in range(4):
            for i in range(1, length + 1):
                total = 0.0
                for m, weight in zip(reversed(indices), w.weights[b][::-1]):
                    if m >= i:
                        total += weight
                naive[b, i - 1] = total
        assert np.array_equal(suffix_weights(M.indices, w.weights, length), naive)
        assert np.array_equal(aggregate(y, M, w), y.values * naive)

    def test_dominant_model_drives_aggregate(self):
        # When one risk value sits far below the rest, the exponential-weight
        # aggregate collapses onto that projection coordinatewise.
        y = obs([1.0, 2.0, 3.0, 4.0])
        M = ModelIndexSet.from_range(1, 4)
        prof = RiskProfile(M, [500.0, 0.0, 500.0, 500.0])
        w = exponential_weights(prof, SIGMA1)
        np.testing.assert_allclose(
            aggregate(y, M, w), projection_estimate(y, 2), atol=1e-20
        )


class TestMEpsilon:
    def test_result_at_least_argmin(self):
        rng = np.random.default_rng(8)
        M = ModelIndexSet.from_range(1, 30)
        for _ in range(100):
            prof = RiskProfile(M, rng.normal(0, 10, size=30))
            assert m_epsilon(prof, SIGMA1, 0.1) >= prof.argmin_index

    def test_constant_profile_reaches_the_top(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 10), np.full(10, 3.0))
        assert m_epsilon(prof, SIGMA1, 0.1) == 10

    def test_direct_scan_example(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 3), [0.0, 9.0, 100.0])
        assert m_epsilon(prof, SIGMA1, 0.25) == 1

    def test_epsilon_domain(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 2), [0.0, 1.0])
        with pytest.raises(ValueError):
            m_epsilon(prof, SIGMA1, 0.0)
        with pytest.raises(ValueError):
            m_epsilon(prof, SIGMA1, 1.0)

    def test_matches_brute_force_scan(self):
        # Library result equals a literal loop over the defining inequality.
        rng = np.random.default_rng(9)
        for _ in range(200):
            size = int(rng.integers(1, 50))
            start = int(rng.integers(1, 5))
            M = ModelIndexSet.from_range(start, start + size - 1)
            vals = rng.normal(0.0, 20.0, size=size)
            sig = NoiseLevel(float(rng.uniform(0.2, 3.0)))
            eps = float(rng.uniform(0.01, 0.9))
            prof = RiskProfile(M, vals)
            best = None
            for m, value in zip(M, prof.values):
                rhs = 4 * eps * sig.variance * (m - prof.argmin_index) + 4 * sig.variance
                if value - prof.min_value <= rhs:
                    best = m
            assert m_epsilon(prof, sig, eps) == best

    def test_nondecreasing_in_epsilon(self):
        rng = np.random.default_rng(10)
        M = ModelIndexSet.from_range(1, 40)
        for _ in range(50):
            prof = RiskProfile(M, rng.normal(0, 15, size=40))
            results = [m_epsilon(prof, SIGMA1, e) for e in (0.05, 0.2, 0.5, 0.9)]
            assert all(b >= a for a, b in zip(results, results[1:]))

    def test_custom_center_falls_back_to_argmin_when_empty(self):
        prof = RiskProfile(ModelIndexSet.from_range(1, 3), [10.0, 20.0, 30.0])
        # Center far below every value empties the admissible set.
        assert m_epsilon(prof, SIGMA1, 0.1, center=-1e9) == prof.argmin_index


class TestBlocks:
    """A block Observation runs the whole pipeline row by row with the same bits."""

    # The second model set is large enough that numpy sums a contiguous row
    # pairwise, while a strided (F-ordered) row would be summed sequentially.
    MODEL_SETS = [([1, 2, 5, 9, 12], 12), (list(range(1, 30)) + [33, 37, 40], 40)]

    def test_block_rows_match_single_rows(self):
        rng = np.random.default_rng(11)
        sigma = NoiseLevel(0.7)
        for indices, length in self.MODEL_SETS:
            M = ModelIndexSet(np.array(indices))
            values = rng.normal(0.0, 2.0, size=(6, length))
            block = Observation(values=values, noise=sigma)
            profile = risk_profile(block, M)
            weights = {"URE": ure_weights(profile), "EW": exponential_weights(profile, sigma)}
            f_ordered = softmax_weights(np.asfortranarray(profile.values), sigma.variance)
            for b, row in enumerate(values):
                single = obs(row, sigma)
                one = risk_profile(single, M)
                assert np.array_equal(profile.values[b], one.values)
                assert profile.min_value[b] == one.min_value
                assert profile.argmin_index[b] == one.argmin_index
                assert unbiased_risk(block, 9)[b] == unbiased_risk(single, 9)
                assert np.array_equal(
                    projection_estimate(block, 5)[b], projection_estimate(single, 5)
                )
                assert m_epsilon(profile, sigma, 0.1)[b] == m_epsilon(one, sigma, 0.1)
                assert np.array_equal(f_ordered[b], softmax_weights(one.values, sigma.variance))
                for name, w_one in (
                    ("URE", ure_weights(one)),
                    ("EW", exponential_weights(one, sigma)),
                ):
                    assert np.array_equal(weights[name].weights[b], w_one.weights)
                    assert np.array_equal(
                        aggregate(block, M, weights[name])[b], aggregate(single, M, w_one)
                    )

    def test_block_validation_checks_every_row(self):
        M = ModelIndexSet.from_range(1, 2)
        with pytest.raises(ValueError):
            WeightVector(models=M, weights=np.array([[0.5, 0.5], [0.5, 0.6]]))
