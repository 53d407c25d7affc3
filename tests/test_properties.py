"""Property tests, one home for each rule they state:

- URE selection, the argmin model and the m_epsilon envelope all pivot on the
  first minimum of a profile row;
- the softmax is bitwise invariant under an integer shift;
- each row of a block gets the bits of the row alone, through every kernel;
- aggregate has the bits of the dense suffix sums;
- the kernels write the bits of a fresh result into out=, or refuse it;
- the block-derived substream words are SeedSequence's;
- psi is the objective at epsilon_star, no larger than at its neighbours;
- simulate and lemma-check end in a documented exit code on any input;
- model set text and mean spec text parse back to what they describe.

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
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ewagg import cli
from ewagg.bounds import PSI_EPSILON_HI, PSI_EPSILON_LO, psi
from ewagg.estimators import (
    aggregate,
    exponential_weights,
    m_epsilon,
    projection_estimate,
    risk_profile,
    ure_weights,
)
from ewagg.montecarlo import LEMMA2_VARIANTS
from ewagg.sequence_model import (
    _seed_entropy,
    check_models,
    draw_observations,
    mean_vector_from_spec,
    squared_loss,
)
from ewagg.substreams import SubstreamSeed, substream_words

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
    models = np.array(sorted(indices))
    rows = draw(st.integers(1, 5))
    values = draw(
        st.lists(
            st.lists(st.integers(-spread, spread), min_size=len(indices), max_size=len(indices)),
            min_size=rows,
            max_size=rows,
        )
    )
    return models, np.array(values, dtype=float)


sigmas = st.floats(0.1, 10.0)
SIGMA1 = 1.0


@SETTINGS
@given(integer_profiles())
# Tied minima at models 1 and 5: 40 lies under the envelope that pivots on 1
# (42) and above the one that pivots on 5 (34).
@example((np.array([1, 5, 20]), np.array([[-20.0, -20.0, 20.0]])))
# The minimum first, last, and tied across the whole row.
@example((np.array([1, 2, 3]), np.array([[3.0, 5.0, 4.0], [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]])))
def test_block_minima_are_the_first_occurrence_scan(case):
    models, block = case
    epsilon = 0.5
    by_block = models[np.argmin(block, axis=-1)]
    weights = ure_weights(block)
    envelope = m_epsilon(block, models, SIGMA1, epsilon)
    for b, row in enumerate(block):
        first = first_minimum(row)
        assert by_block[b] == models[first]
        assert np.array_equal(weights[b], np.eye(row.size)[first])
        # The envelope is centred at the row minimum and pivots on its first
        # occurrence: a literal scan of the defining inequality.
        mhat, lowest = models[first], row[first]
        admissible = [
            m for m, value in zip(models, row)
            if value - lowest <= 4 * epsilon * SIGMA1**2 * (m - mhat) + 4 * SIGMA1**2
        ]
        assert envelope[b] == max(admissible)


@SETTINGS
@given(integer_profiles(spread=10**6), sigmas, st.integers(-10**9, 10**9))
def test_softmax_is_bitwise_invariant_under_an_integer_shift(case, sigma, shift):
    # Integers below 2**53 shift exactly, so the max-shifted exponents agree.
    _, block = case
    shifted = exponential_weights(block + shift, sigma)
    assert np.array_equal(exponential_weights(block, sigma), shifted)


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
    enough for numpy to sum it pairwise, while a strided (F-ordered) row would
    be summed sequentially.  The values come from a drawn seed.
    """
    rows = draw(st.integers(1, 6))
    length = draw(st.integers(1, 300))
    density = draw(st.floats(0.01, 1.0))
    scale = draw(st.floats(1e-3, 1e3))
    sigma = draw(st.floats(1e-3, 1e3))
    epsilon = draw(st.floats(1e-3, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(length) < density
    keep[rng.integers(length)] = True
    models = np.flatnonzero(keep) + 1
    block = scale * rng.standard_normal((rows, length))
    mu = scale * rng.standard_normal(int(rng.integers(1, length + 1)))
    m = int(rng.integers(1, length + 1))
    return models, block, sigma, mu, m, epsilon


@SETTINGS
@given(observation_blocks())
def test_block_rows_get_the_bits_of_the_row_alone(case):
    models, block, sigma, mu, m, epsilon = case
    profile = risk_profile(block, sigma, models)
    weights = (ure_weights(profile), exponential_weights(profile, sigma))
    f_ordered = exponential_weights(np.asfortranarray(profile), sigma)
    estimates = [aggregate(block, models, w) for w in weights]
    losses = [squared_loss(estimate, mu) for estimate in estimates]
    by_block = m_epsilon(profile, models, sigma, epsilon)
    kept = projection_estimate(block, m)
    for b, row in enumerate(block):
        one = risk_profile(row, sigma, models)
        assert np.array_equal(profile[b], one)
        one_model = check_models([m])
        assert risk_profile(block, sigma, one_model)[b, 0] == risk_profile(row, sigma, one_model)[0]
        assert np.array_equal(kept[b], projection_estimate(row, m))
        assert by_block[b] == m_epsilon(one, models, sigma, epsilon)
        single = (ure_weights(one), exponential_weights(one, sigma))
        assert np.array_equal(f_ordered[b], single[1])
        for w, w_one, estimate, loss in zip(weights, single, estimates, losses):
            assert np.array_equal(w[b], w_one)
            assert np.array_equal(estimate[b], aggregate(row, models, w_one))
            assert loss[b] == squared_loss(aggregate(row, models, w_one), mu)


def dense_aggregate(Y, M, w):
    """aggregate with every weight scattered: one reversed cumsum over max(N, M[-1])."""
    length = Y.shape[-1]
    dense = np.zeros(w.shape[:-1] + (max(length, M[-1]),))
    dense[..., M - 1] = w
    return Y * np.cumsum(dense[..., ::-1], axis=-1)[..., ::-1][..., :length]


# Weights: exact zeros of both signs, so that zero runs form, values that cancel,
# non-finite values, and any float.
weight_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1.0, -1.0, 0.5, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def weighted_blocks(draw):
    """A gapped model set, observations shorter or longer than M[-1], and weights.

    The shapes cover a (B, N) block with (B, #M) weights, one observation with
    (B, #M) weights, and a (B, N) block with one weight row.
    """
    indices = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    models = np.array(sorted(indices))
    length = draw(st.integers(1, 45))
    rows = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["block", "one_observation", "one_weight_row"]))
    w_rows = 1 if shape == "one_weight_row" else rows
    row = st.lists(weight_values, min_size=models.size, max_size=models.size)
    w = np.array(draw(st.lists(row, min_size=w_rows, max_size=w_rows)))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rows, length))
    if shape == "one_observation":
        y = y[0]
    elif shape == "one_weight_row":
        w = w[0]
    return models, y, w


@SETTINGS
@given(weighted_blocks())
@example((np.array([1, 2, 3]), np.array([[1.0, -2.0, 3.0]]), np.array([[1.0, 0.0, -0.0]])))
@example((np.array([2, 5]), np.array([[1.0, -2.0, 3.0]]), np.array([[-0.0, 0.5]])))
@example((np.array([2, 5]), np.array([[1.0, -2.0, 3.0, -4.0]]), np.array([[-0.0, -0.0]])))
@example((np.array([2, 3]), np.array([[1.0, -2.0, 3.0]]), np.array([[-0.0, -0.0]])))
@example((np.array([1, 3]), np.array([-1.0, 2.0, -3.0]), np.array([[1.0, -1.0], [0.0, 0.0]])))
# M[-1] > N, with a row of weights, an all-+0.0 row and a one-hot row.
@example((
    np.array([2, 6, 15]),
    np.array([[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, -10.0]] * 3),
    np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
))
def test_aggregate_has_the_bits_of_the_dense_suffix_sums(case):
    models, y, w = case
    with np.errstate(all="ignore"):
        expected = dense_aggregate(y, models, w)
        got = aggregate(y, models, w)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@st.composite
def workspace_cases(draw):
    """Seeds for a block of 1 to 5 rows of N <= 300, a model set, sigma and a mean.

    M is the prefix 1..K or a gapped set, with K = M[-1] <= N and often below
    it; the mean is shorter than, as long as or longer than the observations.
    Small sigma against a large spread leaves exponents below the cut.
    """
    rows = draw(st.integers(1, 5))
    length = draw(st.integers(1, 300))
    top = draw(st.integers(1, length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        models = np.arange(1, top + 1)
    else:
        keep = rng.random(top) < draw(st.floats(0.01, 1.0))
        keep[-1] = True
        models = np.flatnonzero(keep) + 1
    sigma = draw(st.floats(1e-3, 1e3))
    mu = draw(st.floats(1e-3, 1e3)) * rng.standard_normal(length)
    loss_mu = rng.standard_normal(draw(st.integers(1, length + 5)))
    words = substream_words((draw(st.integers(0, 2**64)),), np.arange(rows, dtype=np.uint64))
    seeds = list(map(SubstreamSeed, words))
    return seeds, models, sigma, mu, loss_mu


def out_buffers(shape):
    """A fresh buffer, one filled with NaN and 1e300, and the leading rows of a larger one."""
    filled = np.full(shape, np.nan)
    filled.reshape(-1)[::2] = 1e300
    larger = np.full((shape[0] + 3, *shape[1:]), 1e300)
    larger[1::2] = np.nan
    return np.empty(shape), filled, larger[: shape[0]]


@SETTINGS
@given(workspace_cases())
def test_kernels_write_the_bits_of_a_fresh_result_into_out(case):
    seeds, models, sigma, mu, loss_mu = case
    y = draw_observations(mu, sigma, seeds)
    profile = risk_profile(y, sigma, models)
    weights = exponential_weights(profile, sigma)
    mhat = models[np.argmin(profile, axis=-1)]
    penalty = 2.0 * (sigma * sigma) * models  # as the simulation forms it once per scenario
    calls = [
        (lambda out: draw_observations(mu, sigma, seeds, out=out), y),
        (lambda out: risk_profile(y, sigma, models, out=out), profile),
        (lambda out: risk_profile(y, sigma, models, out=out, penalty=penalty), profile),
        (lambda out: exponential_weights(profile, sigma, out=out), weights),
        (lambda out: projection_estimate(y, mhat, out=out), projection_estimate(y, mhat)),
        (lambda out: projection_estimate(y, int(models[-1]), out=out),
         projection_estimate(y, int(models[-1]))),
        (lambda out: aggregate(y, models, weights, out=out), aggregate(y, models, weights)),
    ]
    for call, expected in calls:
        for out in out_buffers(expected.shape):
            assert call(out) is out
            assert out.tobytes() == expected.tobytes()
    # squared_loss returns the loss and leaves the squared differences in out.
    loss = squared_loss(y, loss_mu).tobytes()
    fresh, *others = out_buffers((len(seeds), max(y.shape[-1], loss_mu.size)))
    assert squared_loss(y, loss_mu, out=fresh).tobytes() == loss
    for out in others:
        assert squared_loss(y, loss_mu, out=out).tobytes() == loss
        assert out.tobytes() == fresh.tobytes()
    if loss_mu.size == y.shape[-1]:  # in place, as the simulation takes its losses
        estimate = y.copy()
        assert squared_loss(estimate, loss_mu, out=estimate).tobytes() == loss
        assert estimate.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: draw_observations(np.zeros(3), 1.0, [1, 2], out=np.empty((2, 4))), "out has"),
        (lambda: draw_observations(np.zeros(3), 1.0, [1, 2], out=np.empty((3, 3))), "out has"),
        # A strided row would be summed in another order than a contiguous one.
        (lambda: exponential_weights(np.zeros((2, 3)), 1.0, out=np.empty((3, 2)).T),
         "C-contiguous"),
        (lambda: squared_loss(np.ones((2, 3)), np.zeros(3), out=np.empty((2, 6))[:, ::2]),
         "C-contiguous"),
    ],
)
def test_kernels_refuse_an_out_they_cannot_fill_with_the_fresh_bits(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@SETTINGS
@given(
    st.lists(st.integers(-(2**130), 2**130), min_size=1, max_size=4),
    st.integers(0, 2**64 - 8),
    st.integers(0, 7),
)
@example([2**70 + 3, 2**64 - 1], 2**32 - 3, 7)  # the rep's entropy grows inside the call
@example([1, 2, 3, 4, 5], 0, 5)  # a prefix longer than the strategy draws
def test_substream_words_are_seed_sequence_words(prefix, first, count):
    reps = np.arange(first, first + count, dtype=np.uint64)
    words = substream_words(prefix, reps)
    assert words.shape == (count, 4)
    for row, rep in zip(words, range(first, first + count)):
        oracle = np.random.SeedSequence(_seed_entropy((*prefix, rep)))
        assert np.array_equal(row, oracle.generate_state(4, np.uint64))


def psi_objective(eps, r):
    """49 eps + r (105/eps + exp(c/eps)), c = 2/e, its exponential term in the log domain."""
    return 49.0 * eps + 105.0 * r / eps + math.exp(math.log(r) + 2.0 / (math.e * eps))


@SETTINGS
@given(st.floats(5e-324, 1.0))
@example(5e-324)
@example(1e-300)
@example(1e-30)
@example(1e-6)
@example(1e-3)
@example(0.1)
@example(1.0)
def test_psi_is_no_larger_than_at_neighbouring_epsilon(r):
    ev = psi(r)
    assert PSI_EPSILON_LO <= ev.epsilon_star <= PSI_EPSILON_HI
    assert ev.psi == pytest.approx(psi_objective(ev.epsilon_star, r), rel=1e-14)
    for step in (1e-9, 1e-6, 1e-3):
        for eps in (ev.epsilon_star * (1.0 - step), ev.epsilon_star * (1.0 + step)):
            if PSI_EPSILON_LO <= eps <= PSI_EPSILON_HI:
                assert ev.psi <= psi_objective(eps, r) * (1.0 + 1e-15), (r, eps)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@SETTINGS
@given(st.floats(), st.sampled_from(LEMMA2_VARIANTS))
@example(math.inf, "chi2_lower")
@example(1e308, "chi2_lower")
@example(math.inf, "linear")
@example(1e-320, "chi2_upper")
def test_lemma_check_reaches_a_verdict_for_any_alpha(alpha, which):
    argv = ["lemma-check", "--which", which, f"--alpha={alpha!r}", "--reps", "2", "--kmax", "3"]
    if which == "linear":
        argv += ["--mu", "poly:beta=1,scale=1,N=5"]
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
    models = np.array(sorted(indices))
    text = cli.model_set_text(models)
    assert np.array_equal(cli.parse_model_set_text(text), models)
    assert scenario_digest(text) == scenario_digest(",".join(map(str, indices)))


@SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(1, 200), st.integers(1, 200)).map(sorted), min_size=1, max_size=12
    )
)
@example([[5, 5], [1, 9], [3, 4]])  # a repeat inside a run, written out of order
def test_model_set_text_is_the_sorted_union_of_its_runs(runs):
    text = ",".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in runs)
    models = cli.parse_model_set_text(text)
    expected = sorted(set().union(*(range(lo, hi + 1) for lo, hi in runs)))
    assert models.dtype == np.int64 and models.tolist() == expected
    assert np.array_equal(cli.parse_model_set_text(cli.model_set_text(models)), models)


@SETTINGS
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
@example([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max])
def test_explicit_mean_spec_parses_back_to_the_same_bits(values):
    mu = mean_vector_from_spec("explicit:" + ",".join(map(repr, values)))
    assert mu.dtype == np.float64
    assert mu.tobytes() == np.array(values, dtype=np.float64).tobytes()  # -0.0 keeps its sign


@st.composite
def family_specs(draw):
    """A zero, poly or sparse spec text and its parameters, as the docstring defines them.

    Numbers are written by repr; the text then gets any letter case and any
    spacing around the separators.
    """
    n = draw(st.integers(1, 50))
    family = draw(st.sampled_from(["zero", "poly", "sparse"]))
    if family == "zero":
        params = {"N": n}
    elif family == "poly":
        params = {"beta": draw(st.floats()), "scale": draw(st.floats()), "N": n}
    else:
        params = {"k": draw(st.integers(0, n)), "amp": draw(st.floats()), "N": n}
    space = st.sampled_from(["", " ", "\t", "  "])
    items = [f"{draw(space)}{key}{draw(space)}={draw(space)}{value!r}{draw(space)}"
             for key, value in draw(st.permutations(list(params.items())))]
    text = f"{draw(space)}{family}{draw(space)}:" + ",".join(items)
    upper = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    text = "".join(c.upper() if up else c.lower() for c, up in zip(text, upper))
    return text, family, params


@SETTINGS
@given(family_specs())
@example(("POLY: Beta = -400.0 , scale=1.0,n=3", "poly", {"beta": -400.0, "scale": 1.0, "N": 3}))
@example(("sparse:k=1,amp=inf,N=2", "sparse", {"k": 1, "amp": math.inf, "N": 2}))
def test_family_mean_spec_gives_the_documented_formula(case):
    text, family, params = case
    n = params["N"]
    # The formula may overflow or meet inf * 0; the spec must then be rejected.
    with np.errstate(all="ignore"):
        if family == "zero":
            expected = np.zeros(n)
        elif family == "poly":
            expected = params["scale"] * np.arange(1, n + 1, dtype=float) ** (-params["beta"])
        else:
            expected = np.zeros(n)
            expected[: params["k"]] = params["amp"]
        if not np.all(np.isfinite(expected)):
            with pytest.raises(ValueError, match="finite"):
                mean_vector_from_spec(text)
            return
        mu = mean_vector_from_spec(text)
    assert mu.tobytes() == expected.tobytes(), text
