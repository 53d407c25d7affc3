"""Property tests for the risk profile, the weight kernels and the CLI's exit codes.

Examples are derandomized and no example database is written, so the suite
stays deterministic and leaves nothing in the working tree.  Profiles are
integer-valued so that ties occur and so that shifts by an integer are exact.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ewagg import cli
from ewagg.estimators import RiskProfile, softmax_weights, ure_weights
from ewagg.sequence_model import ModelIndexSet

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants it reads from local modules on disk, even
# without an example database, as soon as it collects a property test; point
# it at a directory removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="ewagg-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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
