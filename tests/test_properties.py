"""Property tests for the risk profile, the weight kernels, the block pipeline,
the CLI's exit codes and the canonical text of model sets.

Examples are derandomized and no example database is written, so the suite
stays deterministic and leaves nothing in the working tree.  Profiles are
integer-valued so that ties occur and so that shifts by an integer are exact.
"""

import atexit
import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ewagg import cli
from ewagg.estimators import (
    RiskProfile,
    aggregate,
    exponential_weights,
    m_epsilon,
    risk_profile,
    softmax_weights,
    unbiased_risk,
    ure_weights,
)
from ewagg.montecarlo import LEMMA2_VARIANTS
from ewagg.sequence_model import MeanVector, ModelIndexSet, NoiseLevel, squared_loss

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants it reads from local modules on disk, even
# without an example database, as soon as it collects a property test; point
# it at a directory removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="ewagg-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def first_minimum(row):
    """Position of the first smallest entry, by a plain scan."""
    return next(i for i, value in enumerate(row) if value == min(row))


@st.composite
def integer_profiles(draw, spread=20):
    """A model index set and a (B, #M) block of integer profile values."""
    indices = draw(st.lists(st.integers(1, 60), min_size=1, max_size=30, unique=True))
    models = ModelIndexSet(np.array(sorted(indices)))
    rows = draw(st.integers(1, 5))
    values = draw(
        st.lists(
            st.lists(st.integers(-spread, spread), min_size=len(indices), max_size=len(indices)),
            min_size=rows,
            max_size=rows,
        )
    )
    return models, np.array(values, dtype=float)


variances = st.floats(0.01, 100.0)


@SETTINGS
@given(integer_profiles())
def test_block_minima_are_the_first_occurrence_scan(case):
    models, block = case
    profile = RiskProfile(models, block)
    for b, row in enumerate(block):
        first = first_minimum(row)
        assert profile.min_value[b] == row[first]
        assert profile.argmin_index[b] == models.indices[first]
        one = RiskProfile(models, row)
        assert (one.min_value, one.argmin_index) == (row[first], models.indices[first])


@SETTINGS
@given(integer_profiles())
def test_ure_weights_are_a_point_mass_on_the_argmin(case):
    models, block = case
    expected = np.zeros_like(block)
    for b, row in enumerate(block):
        expected[b, first_minimum(row)] = 1.0
    assert np.array_equal(ure_weights(RiskProfile(models, block)).weights, expected)


@SETTINGS
@given(integer_profiles(spread=10**6), variances)
def test_softmax_rows_lie_on_the_simplex(case, variance):
    _, block = case
    weights = softmax_weights(block, variance)
    assert np.all(weights >= 0.0)
    assert np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-12)


@SETTINGS
@given(integer_profiles(spread=10**6), variances, st.integers(-10**9, 10**9))
def test_softmax_is_bitwise_invariant_under_an_integer_shift(case, variance, shift):
    # Integers below 2**53 shift exactly, so the max-shifted exponents agree.
    _, block = case
    assert np.array_equal(softmax_weights(block, variance), softmax_weights(block + shift, variance))


@SETTINGS
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 3),
    st.integers(2, 4),
)
def test_simulate_ends_in_a_documented_exit_without_warnings(coefficients, sigma, k, replicates):
    config = (
        "[s]\n"
        f"mu = explicit:{','.join(map(repr, coefficients))}\n"
        f"sigma = {sigma!r}\n"
        f"models = 1..{k}\n"
        f"replicates = {replicates}\n"
        "base_seed = 1\n"
    )
    with tempfile.TemporaryDirectory(prefix="ewagg-fuzz-") as tmp:
        path = os.path.join(tmp, "s.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(["simulate", "--config", path, "--out", os.path.join(tmp, "out")])
        wrote_outputs = os.path.exists(os.path.join(tmp, "out"))
    assert code in (0, 1, 2), stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], config
    if code == 2:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
        assert not wrote_outputs


@st.composite
def observation_blocks(draw):
    """A gapped model set, a (B, N) observation block, sigma, a mean, m <= N and epsilon.

    Up to 300 coordinates, so that a row of profile values or weights is long
    enough for numpy to sum it pairwise.  The values come from a drawn seed.
    """
    rows = draw(st.integers(1, 6))
    length = draw(st.integers(1, 300))
    density = draw(st.floats(0.01, 1.0))
    scale = draw(st.floats(1e-3, 1e3))
    sigma = NoiseLevel(draw(st.floats(1e-3, 1e3)))
    epsilon = draw(st.floats(1e-3, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(length) < density
    keep[rng.integers(length)] = True
    models = ModelIndexSet(np.flatnonzero(keep) + 1)
    block = scale * rng.standard_normal((rows, length))
    mu = MeanVector(scale * rng.standard_normal(int(rng.integers(1, length + 1))))
    m = int(rng.integers(1, length + 1))
    return models, block, sigma, mu, m, epsilon


@SETTINGS
@given(observation_blocks())
def test_block_rows_get_the_bits_of_the_row_alone(case):
    models, block, sigma, mu, m, epsilon = case
    profile = risk_profile(block, sigma, models)
    weights = (ure_weights(profile), exponential_weights(profile, sigma))
    estimates = [aggregate(block, w) for w in weights]
    losses = [squared_loss(estimate, mu) for estimate in estimates]
    for b, row in enumerate(block):
        one = risk_profile(row, sigma, models)
        assert np.array_equal(profile.values[b], one.values)
        assert profile.min_value[b] == one.min_value
        assert profile.argmin_index[b] == one.argmin_index
        assert unbiased_risk(block, sigma, m)[b] == unbiased_risk(row, sigma, m)
        assert m_epsilon(profile, sigma, epsilon)[b] == m_epsilon(one, sigma, epsilon)
        single = (ure_weights(one), exponential_weights(one, sigma))
        for w, w_one, estimate, loss in zip(weights, single, estimates, losses):
            assert np.array_equal(w.weights[b], w_one.weights)
            assert np.array_equal(estimate[b], aggregate(row, w_one))
            assert loss[b] == squared_loss(aggregate(row, w_one), mu)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@SETTINGS
@given(st.floats(), st.sampled_from(LEMMA2_VARIANTS))
@example(math.inf, "chi2_lower")
@example(1e308, "chi2_lower")
@example(math.inf, "linear")
@example(1e-320, "chi2_upper")
def test_lemma_check_reaches_a_verdict_for_any_alpha(alpha, which):
    argv = [
        "lemma-check", "--which", which, f"--alpha={alpha!r}", "--reps", "2", "--kmax", "3",
        "--mu", "poly:beta=1,scale=1,N=5",
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2), stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], alpha
    if code == 2:
        assert stderr.getvalue().count("\n") == 1 and not stdout.getvalue()
    else:
        assert math.isfinite(alpha)
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)


def scenario_digest(models_text):
    """config_digest of a one-scenario grid with the given model set text."""
    config = f"[s]\nmu = zero\nsigma = 1.0\nmodels = {models_text}\nreplicates = 2\nbase_seed = 1\n"
    return cli.config_digest(cli.parse_scenarios(config))


@SETTINGS
@given(st.lists(st.integers(1, 200), min_size=1, max_size=60, unique=True))
@example([1, 2, 3, 4, 5])  # text "1..5", list "1,2,3,4,5"
def test_model_set_text_parses_back_to_the_same_indices(indices):
    models = ModelIndexSet(np.array(sorted(indices)))
    text = cli.model_set_text(models)
    assert np.array_equal(cli.parse_model_set_text(text).indices, models.indices)
    assert scenario_digest(text) == scenario_digest(",".join(map(str, indices)))
