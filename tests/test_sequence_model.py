"""Tests for the observation model, exact projection risks, and mean families."""

import math

import numpy as np
import pytest

from ewagg.montecarlo import ScenarioConfig
from ewagg.sequence_model import (
    _seed_entropy,
    check_mean,
    check_models,
    check_replicates,
    check_sigma,
    draw_observations,
    generate_observation,
    mean_vector_from_spec,
    squared_loss,
    standard_normals,
    tail_squared_norms,
    true_projection_risk,
)
from ewagg import substreams
from ewagg.substreams import SubstreamSeed, substream_words


def substream_block(mu, sigma, prefix, reps):
    """Rows generate_observation(mu, sigma, (*prefix, rep)) for rep < reps, seeded in one pass."""
    words = substream_words(prefix, np.arange(reps, dtype=np.uint64))
    return draw_observations(mu, sigma, map(SubstreamSeed, words))


def scenario(sigma=1.0, models=(1, 2)):
    """A ScenarioConfig over a zero mean that runs check_sigma and check_models."""
    return ScenarioConfig("s", "zero", sigma, np.asarray(models), replicates=2, base_seed=0)


class TestInputChecks:
    def test_check_mean_rejects_non_finite_or_empty(self):
        with pytest.raises(ValueError):
            check_mean(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            check_mean(np.array([np.nan]))
        with pytest.raises(ValueError):
            check_mean(np.array([]))

    def test_tail_squared_norms(self):
        tails = tail_squared_norms(np.array([3.0, 4.0]))
        assert tails.tolist() == [25.0, 16.0, 0.0]

    def test_sigma_squared_must_be_a_normal_positive_float(self):
        # sigma^2 subnormal, underflowing to 0, or overflowing to inf
        for sigma in (0.0, -1.0, float("nan"), 1e-160, 1e-200, 1e200, float("inf")):
            with pytest.raises(ValueError):
                check_sigma(sigma)
            with pytest.raises(ValueError):
                scenario(sigma=sigma)
        assert check_sigma(0.5) == 0.5
        assert check_sigma(1e-150) == 1e-150
        assert scenario(sigma=1e-150).sigma == 1e-150

    def test_models_must_be_increasing_whole_indices(self):
        # Non-integer values are rejected, not truncated, and raise no RuntimeWarning.
        non_integers = ([1.5, 2.9], [1.0, np.nan], [1.0, np.inf], [1.0, 2.0**63])
        for models in ([0, 1], [2, 2], [3, 1], np.array([], dtype=int), *non_integers):
            with pytest.raises(ValueError):
                check_models(np.array(models))
            with pytest.raises(ValueError):
                scenario(models=models)
        with pytest.raises(ValueError, match="must be integers, got 1.5"):
            scenario(models=[1.5, 2.9])
        M = check_models(np.arange(1, 6))
        assert M.dtype == np.int64
        assert M.tolist() == [1, 2, 3, 4, 5]
        assert check_models(range(1, 6)).tolist() == M.tolist()
        assert check_models(np.array([1.0, 3.0])).tolist() == [1, 3]
        assert check_models(np.array([1, 2**63 - 1], dtype=np.uint64)).tolist() == [1, 2**63 - 1]

    @pytest.mark.parametrize(
        "models",
        [
            [1, 2**63],  # int and uint64 promote to float64
            np.array([1.0, 2.0**63]),
            np.array([1, 2**63], dtype=np.uint64),  # a cast to int64 would wrap
            [1, 2**64],  # an object array
            [1.0, np.inf],
            [-np.inf, 1.0],
            [-(2**63) - 1, 1],
        ],
    )
    def test_index_past_int64_names_the_limit(self, models):
        with pytest.raises(ValueError, match=r"^model indices must be >= 1 and below 2\*\*63$"):
            check_models(models)

    @pytest.mark.parametrize("models", [[1.0, np.nan], np.array([1, 2.5], dtype=object)])
    def test_non_integer_is_named(self, models):
        with pytest.raises(ValueError, match=r"^model indices must be integers"):
            check_models(models)

    def test_arrays_are_immutable(self):
        models = np.array([1, 2])
        cfg = scenario(models=models)
        models[0] = 9  # the config keeps its own copy
        assert cfg.models.tolist() == [1, 2]
        with pytest.raises(ValueError):
            cfg.models[0] = 9
        with pytest.raises(ValueError):
            cfg.mu[0] = 9.0


class TestGenerateObservation:
    """The observation draw is a pure function of (mu, sigma, seed)."""

    def test_identical_seed_reproduces_bit_for_bit(self):
        mu = np.zeros(3)
        sig = 1.0
        a = generate_observation(mu, sig, 12345)
        b = generate_observation(mu, sig, 12345)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        mu = np.zeros(3)
        sig = 1.0
        a = generate_observation(mu, sig, 1)
        b = generate_observation(mu, sig, 2)
        assert not np.array_equal(a, b)

    def test_recorded_draw_for_fixed_seed(self):
        # Frozen reference draw; numpy guarantees Generator stream stability,
        # so a change here means the sampling path changed.
        obs = generate_observation(np.array([1.0, 2.0]), 1.0, 42)
        np.testing.assert_allclose(obs, [1.3047170797544314, 0.9600158937595045], rtol=1e-15)

    @pytest.mark.parametrize("seed", [(), (7, 2.0), "7", [3, None], 1.5, np.float64(2.0)])
    def test_seed_must_be_integers(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            generate_observation(np.zeros(2), 1.0, seed)

    def test_sequence_seed_addresses_substreams(self):
        mu = np.zeros(4)
        sig = 1.0
        a = generate_observation(mu, sig, (7, 0, 3))
        b = generate_observation(mu, sig, (7, 0, 3))
        c = generate_observation(mu, sig, (7, 0, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_block_rows_are_the_single_draws(self):
        mu = np.linspace(1.0, 0.1, 7)
        sig = 0.3
        seeds = [(5, 1, rep) for rep in range(4)]
        block = draw_observations(mu, sig, seeds)
        assert block.shape == (4, 7)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, generate_observation(mu, sig, seed))

    def test_law_of_large_numbers_on_coordinate_means(self):
        # Means over many independent seeds must approach mu at the MC rate.
        mu = np.array([1.0, 2.0])
        sig = 1.0
        reps = 100_000
        means = substream_block(mu, sig, (555,), reps).sum(axis=0) / reps
        tol = 3.0 / np.sqrt(reps)
        assert abs(means[0] - 1.0) <= tol
        assert abs(means[1] - 2.0) <= tol


def seed_sequence(seed):
    """numpy's own SeedSequence for a seed: the oracle of the block seeding."""
    return np.random.SeedSequence(_seed_entropy(seed))


class TestSubstreamWords:
    """Block-derived seed words are SeedSequence's, row by row."""

    # Ranges of reps that cross 2**32 inside one call, where a rep's entropy
    # grows from one word to two, and the largest rep.
    REPS = np.array([0, 1, 2, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**64 - 1],
                    dtype=np.uint64)

    @pytest.mark.parametrize("base", [0, 2**32, 2**70 + 3, 2**128 - 1, -1])
    @pytest.mark.parametrize("key", [0, 12345, 2**64 - 1])
    def test_rows_are_seed_sequence_words(self, base, key):
        with np.errstate(all="raise"):
            words = substream_words((base, key), self.REPS)
        assert words.shape == (self.REPS.size, 4) and words.dtype == np.uint64
        for row, rep in zip(words, self.REPS):
            oracle = seed_sequence((base, key, int(rep)))
            assert np.array_equal(row, oracle.generate_state(4, np.uint64)), (base, key, rep)
            draws = standard_normals(SubstreamSeed(row), 9)
            assert np.array_equal(draws, np.random.default_rng(oracle).standard_normal(9))

    def test_passes_split_anywhere(self, monkeypatch):
        # Passes of 4 rows split the REPS between and inside the two entropy lengths.
        whole = substream_words((9, 8), self.REPS)
        monkeypatch.setattr(substreams, "_ROWS_PER_PASS", 4)
        assert np.array_equal(substream_words((9, 8), self.REPS), whole)

    def test_no_reps_gives_no_rows(self):
        assert substream_words((1, 2), np.array([], dtype=np.uint64)).shape == (0, 4)

    def test_block_rows_are_the_tuple_seed_draws(self):
        mu = np.linspace(1.0, 0.1, 7)
        sig = 0.3
        words = substream_words((5, 1), np.arange(4, dtype=np.uint64))
        block = draw_observations(mu, sig, map(SubstreamSeed, words))
        for rep, row in enumerate(block):
            assert np.array_equal(row, generate_observation(mu, sig, (5, 1, rep)))

    def test_seed_serves_only_the_pcg64_request(self):
        seed = SubstreamSeed(substream_words((1, 2), np.arange(1, dtype=np.uint64))[0])
        for dtype in [np.uint64, "u8", "uint64", np.dtype(np.uint64)]:
            assert np.array_equal(seed.generate_state(4, dtype), seed.words)
        for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (5, np.uint64),
                               (4, "u4"), (4, np.dtype(np.uint32)), (4, np.int64), (4, "f8")]:
            with pytest.raises(ValueError, match="only the 4 uint64 words"):
                seed.generate_state(n_words, dtype)
        with pytest.raises(ValueError):
            seed.generate_state(4)  # SeedSequence's default word type, uint32
        with pytest.raises(ValueError):
            SubstreamSeed(np.zeros(3, dtype=np.uint64))
        with pytest.raises(ValueError):
            SubstreamSeed(np.zeros((2, 4), dtype=np.uint64))


class TestTrueProjectionRisk:
    def test_zero_mean(self):
        mu = np.zeros(10)
        assert true_projection_risk(mu, 1.0, 3) == 3.0

    def test_empty_tail(self):
        mu = np.array([2.0, 2.0])
        assert true_projection_risk(mu, 1.0, 2) == 2.0

    def test_direct_summation(self):
        # Independent oracle: sum the tail by hand.
        mu = np.array([2.0, 2.0])
        expected = sum(c * c for c in [2.0]) + 1.0 * 1
        assert true_projection_risk(mu, 1.0, 1) == expected == 5.0

    def test_requires_m_at_least_one(self):
        mu = np.zeros(3)
        with pytest.raises(ValueError):
            true_projection_risk(mu, 1.0, 0)

    @pytest.mark.parametrize("m", [1.5, 2**63, 0])
    def test_m_follows_the_model_set_rule(self, m):
        with pytest.raises(ValueError, match="model indices"):
            true_projection_risk(np.ones(3), 1.0, m)

    def test_index_array_gives_each_index_risk(self):
        mu = np.array([1.0, 0.5, 0.25])
        sig = 0.3
        m = np.array([1, 2, 3, 7])
        risks = true_projection_risk(mu, sig, m)
        assert np.array_equal(risks, [true_projection_risk(mu, sig, k) for k in m])
        assert risks[3] == sig * sig * 7  # the tail beyond the support is 0
        with pytest.raises(ValueError):
            true_projection_risk(mu, sig, np.array([2, 0]))

    def test_strictly_increasing_beyond_support(self):
        mu = np.array([1.0, 0.5, 0.25])
        sig = 0.3
        risks = [true_projection_risk(mu, sig, m) for m in range(3, 12)]
        assert all(b > a for a, b in zip(risks, risks[1:]))

    def test_matches_expected_squared_loss(self):
        # The stated risk is the exact expectation of the realized loss.
        from ewagg.estimators import projection_estimate

        mu = mean_vector_from_spec("poly:beta=1,scale=1,N=20")
        sig = 1.0
        reps = 100_000
        m_values = [1, 5, 20]
        obs = substream_block(mu, sig, (9090,), reps)
        losses = {m: squared_loss(projection_estimate(obs, m), mu) for m in m_values}
        for m in m_values:
            sample = losses[m]
            se = sample.std(ddof=1) / np.sqrt(reps)
            assert abs(sample.mean() - true_projection_risk(mu, sig, m)) <= 4.0 * se


class TestSquaredLoss:
    def test_identity_is_zero(self):
        mu = np.array([1.0, -2.0, 3.0])
        assert squared_loss(mu, mu) == 0.0

    def test_zero_estimate(self):
        assert squared_loss([0.0, 0.0], np.array([3.0, 4.0])) == 25.0

    def test_direct_summation(self):
        assert squared_loss([1.0, 1.0], np.array([2.0, 2.0])) == 2.0

    def test_tails_are_zero_padded(self):
        mu = np.array([1.0])
        assert squared_loss([1.0, 3.0], mu) == 9.0
        assert squared_loss([0.0], np.array([1.0, 2.0])) == 5.0

    def test_scalar_estimate_rejected(self):
        with pytest.raises(ValueError, match="sequence of reals"):
            squared_loss(2.0, np.array([1.0, 2.0]))

    def test_block_gives_one_loss_per_row(self):
        mu = np.array([1.0, 2.0])
        block = np.array([[1.0, 3.0, 0.5], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(
            squared_loss(block, mu), [squared_loss(row, mu) for row in block]
        )


class TestMeanVectorFromSpec:
    def test_zero_family(self):
        mu = mean_vector_from_spec("zero", default_length=4)
        assert np.array_equal(mu, np.zeros(4))
        mu = mean_vector_from_spec("zero:N=3")
        assert mu.size == 3

    def test_poly_family(self):
        mu = mean_vector_from_spec("poly:beta=1,scale=2,N=4")
        np.testing.assert_allclose(mu, [2.0, 1.0, 2.0 / 3.0, 0.5])

    def test_sparse_family(self):
        mu = mean_vector_from_spec("sparse:k=2,amp=3,N=5")
        np.testing.assert_allclose(mu, [3.0, 3.0, 0.0, 0.0, 0.0])
        mu = mean_vector_from_spec("sparse:k=2,amp=3")
        assert mu.size == 2

    def test_explicit_family(self):
        mu = mean_vector_from_spec("explicit:1,0.5,0.25")
        np.testing.assert_allclose(mu, [1.0, 0.5, 0.25])

    def test_errors(self):
        with pytest.raises(ValueError):
            mean_vector_from_spec("zero")  # no length available
        with pytest.raises(ValueError):
            mean_vector_from_spec("sparse:k=5,N=3")
        with pytest.raises(ValueError):
            mean_vector_from_spec("gauss:N=3")
        with pytest.raises(ValueError):
            mean_vector_from_spec("poly:beta=1,junk=2,N=3")
        with pytest.raises(ValueError):
            mean_vector_from_spec("explicit:")
        for spec in ("poly:beta=1,beta=3", "poly:N=5,N=50", "sparse:k=1,K=2"):
            with pytest.raises(ValueError, match="repeated parameter"):
                mean_vector_from_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("zero", "mean spec 'zero' needs N=<len> or a default length"),
            ("poly:beta=2", "mean spec 'poly:beta=2' needs N=<len> or a default length"),
            ("sparse:amp=2,N=5", "sparse mean spec 'sparse:amp=2,N=5' needs k=<count>"),
            ("sparse:k=5,N=3", "sparse mean spec 'sparse:k=5,N=3': N=3 is smaller than k=5"),
            ("sparse:k=-1", "sparse k must be >= 0"),
            ("poly:N=0", "mean vector length must be >= 1, got 0"),
            ("gauss:N=3", "unknown mean vector family 'gauss' in spec 'gauss:N=3'"),
            ("poly:beta=1,junk=2,N=3",
             "unexpected parameters ['junk'] in mean spec 'poly:beta=1,junk=2,N=3'"),
            ("zero:amp=1,N=3", "unexpected parameters ['amp'] in mean spec 'zero:amp=1,N=3'"),
            ("poly:N=5,N=50", "repeated parameter 'n' in mean spec 'poly:N=5,N=50'"),
            ("poly:beta,N=3", "malformed parameter 'beta' in mean spec 'poly:beta,N=3'"),
            ("explicit:", "explicit mean spec 'explicit:' lists no coordinates"),
        ],
    )
    def test_single_error_messages(self, spec, message):
        with pytest.raises(ValueError) as exc:
            mean_vector_from_spec(spec)
        assert str(exc.value) == message


class TestCheckReplicates:
    def test_bounds(self):
        limit = np.iinfo(np.intp).max // 32  # the (R, 4) uint64 seed words still fit
        assert check_replicates(2) == 2 and check_replicates(limit) == limit
        assert check_replicates(3.0) == 3 and type(check_replicates(np.float64(3.0))) is int
        for count in (1, 0, -3, 2.5, 2.7, np.float64(3.5), math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="replicates must be a whole number >= 2"):
                check_replicates(count)
        for count in (limit + 1, 2**60, 2**63 - 1, 2**64):
            with pytest.raises(ValueError, match=f"replicates must be <= {limit}"):
                check_replicates(count)
