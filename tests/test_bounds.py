"""Tests for the drift functions, their inverses, entropy bounds, and budgets."""

import math
import sys

import numpy as np
import pytest

from ewagg.bounds import (
    PSI_EPSILON_HI,
    PSI_EPSILON_LO,
    entropy,
    lemma4_bound,
    psi,
    r_rho,
    theorem_bounds,
    u_alpha,
    u_inverse,
    u_star_alpha,
    u_star_inverse,
)
from ewagg.estimators import WeightVector
from ewagg.sequence_model import ModelIndexSet, NoiseLevel


def tail_decay_weights(rng, K, rho):
    """Random weight vector with a K-1 head and a geometrically decaying tail.

    The tail starts at 1 and each later term sits below exp(-rho (k-2) - 1),
    truncated once the envelope is negligible.
    """
    head = rng.uniform(0.0, 10.0, size=K - 1)
    n_tail = int(math.ceil(660.0 / rho)) + 2
    ks = np.arange(2, n_tail + 2)
    envelope = np.exp(-rho * (ks - 2.0) - 1.0)
    tail = np.concatenate([[1.0], envelope * rng.uniform(0.0, 1.0, size=n_tail)])
    raw = np.concatenate([head, tail])
    return raw / raw.sum()


class TestUAlpha:
    def test_vanishes_at_zero(self):
        assert 0.0 < u_alpha(1e-6) < 1e-5

    def test_closed_form_at_quarter(self):
        # -(1/4 + log(1/2)/2) / (1/4) = 2 log 2 - 1
        assert u_alpha(0.25) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)

    def test_domain(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                u_alpha(bad)

    def test_upper_envelope(self):
        for a in np.linspace(0.01, 0.49, 49):
            assert u_alpha(a) <= a / (1.0 - 2.0 * a) + 1e-12

    def test_strictly_increasing(self):
        grid = np.linspace(1e-4, 0.4999, 1000)
        vals = [u_alpha(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestUStarAlpha:
    def test_vanishes_at_zero(self):
        assert 0.0 < u_star_alpha(1e-6) < 1e-5

    def test_closed_form_at_half(self):
        # (1/2 - log 2 / 2) / (1/2) = 1 - log 2
        assert u_star_alpha(0.5) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            u_star_alpha(0.0)
        with pytest.raises(ValueError):
            u_star_alpha(-2.0)

    def test_below_one(self):
        for a in np.geomspace(1e-3, 1e3, 200):
            assert u_star_alpha(a) < 1.0

    def test_strictly_increasing(self):
        grid = np.geomspace(1e-4, 100.0, 1000)
        vals = [u_star_alpha(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_finite_where_two_alpha_overflows(self):
        # U*(alpha) = 1 - log(1 + 2 alpha) / (2 alpha) rises to 1; the log term
        # stays finite although 2 alpha does not.
        half = sys.float_info.max / 2.0
        for a in (half, np.nextafter(half, math.inf), 1e308, sys.float_info.max):
            assert u_star_alpha(a) == 1.0
        assert u_star_alpha(1e300) == 1.0 - (math.log(2.0) + math.log(1e300)) / 2e300


class TestInverses:
    def test_round_trip_through_alpha(self):
        assert u_inverse(u_alpha(0.3)) == pytest.approx(0.3, abs=1e-10)

    def test_u_round_trip_grid(self):
        for y in np.linspace(0.05, 5.0, 1000):
            assert abs(u_alpha(u_inverse(y)) - y) <= 1e-10

    def test_u_star_round_trip_grid(self):
        for y in np.linspace(0.05, 0.95, 1000):
            assert abs(u_star_alpha(u_star_inverse(y)) - y) <= 1e-10

    def test_u_inverse_lower_bound(self):
        for y in np.linspace(0.05, 5.0, 1000):
            assert u_inverse(y) >= y / (1.0 + 2.0 * y) - 1e-12

    def test_u_star_inverse_lower_bound(self):
        for y in np.linspace(0.05, 0.95, 1000):
            assert u_star_inverse(y) >= y - 1e-12

    def test_domains(self):
        with pytest.raises(ValueError):
            u_inverse(0.0)
        with pytest.raises(ValueError):
            u_inverse(-1.0)
        with pytest.raises(ValueError):
            u_star_inverse(0.0)
        with pytest.raises(ValueError):
            u_star_inverse(1.0)


class TestEntropy:
    def test_uniform_is_log_k(self):
        for k in (2, 5, 64):
            w = WeightVector(ModelIndexSet.from_range(1, k), np.full(k, 1.0 / k))
            assert entropy(w) == pytest.approx(math.log(k), rel=1e-12)

    def test_point_mass_is_zero(self):
        w = WeightVector(ModelIndexSet.from_range(1, 3), np.array([1.0, 0.0, 0.0]))
        assert entropy(w) == 0.0

    def test_direct_evaluation(self):
        w = WeightVector(ModelIndexSet.from_range(1, 2), np.array([0.75, 0.25]))
        assert entropy(w) == pytest.approx(0.5623351446188083, abs=1e-15)

    def test_point_mass_is_positive_zero(self):
        w = WeightVector(ModelIndexSet.from_range(1, 2), np.array([0.0, 1.0]))
        assert math.copysign(1.0, entropy(w)) == 1.0

    def test_block_gives_one_entropy_per_row(self):
        M = ModelIndexSet.from_range(1, 3)
        rows = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.75, 0.0, 0.25]])
        h = entropy(WeightVector(M, rows))
        assert h.shape == (3,)
        assert np.array_equal(h, [entropy(WeightVector(M, row)) for row in rows])
        assert np.array_equal(h[:2], [math.log(2.0), 0.0])
        assert math.copysign(1.0, h[1]) == 1.0


class TestRRho:
    def test_first_branch_value(self):
        assert r_rho(1.0 / (2.0 * math.e)) == pytest.approx(4.0, rel=1e-15)

    def test_continuity_at_seam(self):
        rho = 1.0 / math.e
        below = r_rho(np.nextafter(rho, 0.0))
        above = r_rho(np.nextafter(rho, 1.0))
        assert abs(below - above) <= 1e-12
        assert below == pytest.approx(2.0, abs=1e-12)

    def test_limit_at_infinity(self):
        assert r_rho(1e6) == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_rho(0.0)


class TestLemma4Bound:
    def test_k_one_is_r_rho_exactly(self):
        for rho in (0.2, 1.0, 5.0):
            assert lemma4_bound(1, rho) == r_rho(rho)

    def test_arithmetic(self):
        expected = math.log(1.0 + math.exp(4.0))
        assert lemma4_bound(2, 1.0 / (2.0 * math.e)) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_k(self):
        vals = [lemma4_bound(k, 0.7) for k in (1, 2, 5, 20, 1000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma4_bound(0, 1.0)

    def test_entropy_bound_holds_in_slow_decay_regime(self):
        # Below the seam (e * rho <= 1), the regime the aggregation analysis
        # uses, randomized envelope-tight constructions stay under the bound.
        rng = np.random.default_rng(31)
        for _ in range(200):
            K = int(rng.choice([2, 10, 100]))
            rho = float(rng.choice([0.05, 0.2, 1.0 / math.e]))
            w = tail_decay_weights(rng, K, rho)
            wv = WeightVector(ModelIndexSet.from_range(1, w.size), w)
            assert entropy(wv) <= lemma4_bound(K, rho) + 1e-12

    def test_entropy_bound_boundary_of_validity(self):
        # Beyond the seam the stated bound is not an entropy bound any more:
        # with the tail exactly at its decay envelope and head mass 0.5587,
        # K=2, rho=1 yields H = 1.3431 > 1.2141.  Pin the counterexample so a
        # change in either side shows up.
        rho = 1.0
        ks = np.arange(2, 702)
        tail = np.concatenate([[1.0], np.exp(-rho * (ks - 2.0) - 1.0)])
        raw = np.concatenate([[0.558731], tail[tail > 0]])
        wv = WeightVector(ModelIndexSet.from_range(1, raw.size), raw / raw.sum())
        assert entropy(wv) == pytest.approx(1.343142008, abs=1e-6)
        assert entropy(wv) > lemma4_bound(2, rho)


class TestPsi:
    def test_zero_gives_zero(self):
        ev = psi(0.0)
        assert ev.psi == 0.0
        assert ev.epsilon_star == PSI_EPSILON_LO

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(-0.1)
        with pytest.raises(ValueError):
            psi(1.5)

    def test_matches_independent_dense_scan_at_one(self):
        # Independent oracle: a million-point log grid over the same interval.
        eps = np.exp(np.linspace(np.log(PSI_EPSILON_LO), np.log(PSI_EPSILON_HI), 1_000_000))
        with np.errstate(over="ignore"):
            scan = (49.0 * eps + 105.0 / eps + np.exp(2.0 / (math.e * eps))).min()
        ev = psi(1.0)
        assert ev.psi == pytest.approx(float(scan), rel=1e-6)
        assert ev.epsilon_star == pytest.approx(1.0 / 7.0, rel=1e-9)

    def test_interior_minimum_beats_its_neighbours(self):
        # Independent objective, its exponential term in the log domain so that
        # it stays finite at the smallest subnormal r.
        def objective(eps, r):
            return 49.0 * eps + 105.0 * r / eps + math.exp(math.log(r) + 2.0 / (math.e * eps))

        for r in (1e-3, 1e-6, 1e-30, 1e-300, 5e-324):
            ev = psi(r)
            assert PSI_EPSILON_LO < ev.epsilon_star < PSI_EPSILON_HI
            assert ev.psi == pytest.approx(objective(ev.epsilon_star, r), rel=1e-14)
            for step in (1e-9, 1e-6, 1e-3):
                for eps in (ev.epsilon_star * (1.0 - step), ev.epsilon_star * (1.0 + step)):
                    assert ev.psi <= objective(eps, r) * (1.0 + 1e-15)

    def test_nondecreasing_in_r(self):
        values = [psi(r).psi for r in (0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_epsilon_star_in_domain(self):
        for r in (1e-6, 1e-3, 0.1, 1.0):
            ev = psi(r)
            assert PSI_EPSILON_LO <= ev.epsilon_star <= PSI_EPSILON_HI

    def test_product_approaches_one_from_above(self):
        # The normalized product psi(r) * (e/98) * log(49/r) falls toward 1
        # as r -> 0; each decade brings it strictly closer.
        products = [
            psi(r).psi * (math.e / 98.0) * math.log(49.0 / r)
            for r in (1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert all(p > 1.0 for p in products)
        gaps = [abs(p - 1.0) for p in products]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestTheoremBounds:
    def test_t2_arithmetic(self):
        budgets = theorem_bounds(1.0, NoiseLevel(1.0), 100)
        assert budgets.t2 == pytest.approx(4.0 * math.log(100.0), rel=1e-15)

    def test_t3_at_ratio_one(self):
        budgets = theorem_bounds(1.0, NoiseLevel(1.0), 10)
        expected = 4.0 * math.log(1.0 + psi(1.0).psi)
        assert budgets.t3 == pytest.approx(expected, rel=1e-12)

    def test_t1_shape_and_combined(self):
        sigma = NoiseLevel(0.5)
        budgets = theorem_bounds(1.0, sigma, 100)
        assert budgets.t1 == pytest.approx(sigma.variance * math.sqrt(1.0 / sigma.variance))

    def test_t3_ratio_tends_to_one_for_large_risk(self):
        ratios = []
        for r in (1e3, 1e6, 1e9):
            ratios.append(theorem_bounds(r, NoiseLevel(1.0), 100).t3 / (4.0 * math.log(r)))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.06

    def test_finite_and_positive_across_scenarios(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            sigma = NoiseLevel(float(rng.uniform(0.05, 2.0)))
            count = int(rng.integers(1, 500))
            risk = sigma.variance * float(rng.uniform(1.0, 1e6))
            budgets = theorem_bounds(risk, sigma, count)
            assert all(math.isfinite(b) for b in budgets)
            assert budgets.t1 > 0.0
            assert budgets.t2 >= 0.0
            assert budgets.t3 > 0.0

    def test_risk_below_variance_rejected(self):
        with pytest.raises(ValueError):
            theorem_bounds(0.5, NoiseLevel(1.0), 3)
