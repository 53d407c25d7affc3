"""Tests for the drift functions, their inverses, entropy bounds, and budgets."""

import math
import sys

import numpy as np
import pytest

from ewagg import bounds
from ewagg.bounds import (
    PSI_EPSILON_HI,
    PSI_EPSILON_LO,
    entropy,
    lemma4_bound,
    m_epsilon_budget,
    psi,
    r_rho,
    theorem_bounds,
    u_alpha,
    u_inverse,
    u_star_alpha,
    u_star_inverse,
)
from psi_reference import bisection_psi, seam_r


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
        with pytest.raises(ValueError, match="alpha < inf"):
            u_star_alpha(math.inf)

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


def drift_references(alpha):
    """U(alpha) and U*(alpha) in 700-digit arithmetic, rounded to float.

    Their numerators cancel to O(alpha^2), so at alpha = 1e-300 the digits
    beyond the first 600 are the ones that count.
    """
    import mpmath

    with mpmath.workdps(700):
        a = mpmath.mpf(alpha)
        u = -(a + mpmath.log1p(-2 * a) / 2) / a
        u_star = (a - mpmath.log1p(2 * a) / 2) / a
        return float(u), float(u_star)


def inverse_references(k):
    """Roots of U(a) = 10^-k and U*(a) = 10^-k by mpmath's solver, rounded to float.

    Both numerators cancel to O(a^2) near a root a ~ 10^-k, so k + 40 digits
    leave about 40 that count.
    """
    import mpmath

    with mpmath.workdps(k + 40):
        y = mpmath.mpf(10) ** -k
        u = mpmath.findroot(lambda a: -(a + mpmath.log1p(-2 * a) / 2) / a - y, y)
        u_star = mpmath.findroot(lambda a: (a - mpmath.log1p(2 * a) / 2) / a - y, y)
        return float(u), float(u_star)


class TestDriftPrecision:
    """U and U* keep their relative precision down to alpha = 1e-300."""

    # A log grid over [1e-300, 0.49] and the floats on each side of the
    # threshold below which both are summed from their series.
    ALPHAS = [*np.geomspace(1e-300, 0.49, 150), np.nextafter(1.0 / 16.0, 0.0), 1.0 / 16.0]

    def test_match_mpmath(self):
        for alpha in self.ALPHAS:
            u, u_star = drift_references(alpha)
            assert u_alpha(alpha) == pytest.approx(u, rel=1e-14, abs=0.0), alpha
            assert u_star_alpha(alpha) == pytest.approx(u_star, rel=1e-14, abs=0.0), alpha

    def test_small_alpha_stays_positive_and_invertible(self):
        # pytest.approx's default absolute tolerance of 1e-12 would hide these.
        assert u_alpha(1e-17) == pytest.approx(1e-17, rel=1e-15, abs=0.0)
        assert u_star_alpha(1e-17) == pytest.approx(1e-17, rel=1e-15, abs=0.0)
        assert u_alpha(1e-12) == pytest.approx(1e-12 + 4e-24 / 3, rel=1e-15, abs=0.0)
        # U(alpha) = alpha (1 + 4 alpha / 3 + ...), so the root sits 1.3e-15 below y.
        assert u_inverse(1e-15) == pytest.approx(1e-15, rel=1e-14, abs=0.0)

    def test_closed_forms_keep_their_bits_above_the_threshold(self):
        for alpha in (1.0 / 16.0, 0.1, 0.25, 0.4, 0.49):
            assert u_alpha(alpha) == -(alpha + math.log1p(-2.0 * alpha) / 2.0) / alpha
        for alpha in (1.0 / 16.0, 0.1, 0.5, 1.0, 1e6):
            assert u_star_alpha(alpha) == (alpha - math.log1p(2.0 * alpha) / 2.0) / alpha


class TestInverses:
    def test_tiny_targets_match_mpmath(self):
        # Down to y = 1e-300, far below where a bracket fixed at [1e-300, 1/4]
        # runs out of bisection steps.
        for k in range(1, 301):
            y = float(f"1e-{k}")
            u, u_star = inverse_references(k)
            a, b = u_inverse(y), u_star_inverse(y)
            assert u_alpha(a) == pytest.approx(y, rel=1e-14, abs=0.0), y
            assert u_star_alpha(b) == pytest.approx(y, rel=1e-14, abs=0.0), y
            assert a == pytest.approx(u, rel=1e-14, abs=0.0), y
            assert b == pytest.approx(u_star, rel=1e-14, abs=0.0), y

    def test_domains(self):
        with pytest.raises(ValueError):
            u_inverse(0.0)
        with pytest.raises(ValueError):
            u_inverse(-1.0)
        # Above U at the largest float below 1/2 (35.7368...) no alpha solves U(alpha) = y.
        for y in (math.nextafter(bounds._U_MAX, math.inf), 36.0, 100.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="u_inverse needs 0 < y <= 35.7368"):
                u_inverse(y)
        for y in (35.0, 35.7, bounds._U_MAX):
            assert u_inverse(y) == 0.4999999999999999
        with pytest.raises(ValueError):
            u_star_inverse(0.0)
        with pytest.raises(ValueError):
            u_star_inverse(1.0)


class TestEntropy:
    def test_uniform_is_log_k(self):
        for k in (2, 5, 64):
            assert entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k), rel=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_direct_evaluation(self):
        assert entropy(np.array([0.75, 0.25])) == pytest.approx(0.5623351446188083, abs=1e-15)

    def test_point_mass_is_positive_zero(self):
        assert math.copysign(1.0, entropy(np.array([0.0, 1.0]))) == 1.0

    def test_block_gives_one_entropy_per_row(self):
        rows = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.75, 0.0, 0.25]])
        h = entropy(rows)
        assert h.shape == (3,)
        assert np.array_equal(h, [entropy(row) for row in rows])
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
        with pytest.raises(ValueError, match="rho < inf"):
            r_rho(math.inf)


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

    def test_real_k_is_the_formula_at_k(self):
        # K is not truncated to an integer.
        for rho in (0.05, 1.0 / (2.0 * math.e), 0.7):
            assert lemma4_bound(2.5, rho) == pytest.approx(
                math.log(1.5 + math.exp(r_rho(rho))), rel=1e-15
            )

    def test_array_of_k_gives_the_scalar_budgets(self):
        ks = np.array([[1.0, 1.5, 2.0], [7.25, 100.0, 1e6]])
        budgets = lemma4_bound(ks, 0.2)
        assert budgets.shape == ks.shape
        for k, budget in zip(ks.flat, budgets.flat):
            assert budget == lemma4_bound(float(k), 0.2)
        assert lemma4_bound(ks[0, :1], 0.2)[0] == r_rho(0.2)

    @pytest.mark.parametrize(
        "K, rho", [(0, 1.0), (0.999, 1.0), (math.nan, 1.0), ([2.0, 0.5], 1.0), (3, math.inf)]
    )
    def test_domain(self, K, rho):
        with pytest.raises(ValueError):
            lemma4_bound(K, rho)

    def test_entropy_bound_boundary_of_validity(self):
        # Beyond the seam the stated bound is not an entropy bound any more:
        # with the tail exactly at its decay envelope and head mass 0.5587,
        # K=2, rho=1 yields H = 1.3431 > 1.2141.  Pin the counterexample so a
        # change in either side shows up.
        rho = 1.0
        ks = np.arange(2, 702)
        tail = np.concatenate([[1.0], np.exp(-rho * (ks - 2.0) - 1.0)])
        raw = np.concatenate([[0.558731], tail[tail > 0]])
        w = raw / raw.sum()
        assert entropy(w) == pytest.approx(1.343142008, abs=1e-6)
        assert entropy(w) > lemma4_bound(2, rho)


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

    def test_nondecreasing_in_r(self):
        values = [psi(r).psi for r in (0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def seam_arguments():
    """Floats on both sides of the r where epsilon_star leaves 1/7."""
    seam = seam_r()
    values = [seam * (1.0 + j * 1e-4) for j in range(-100, 101)]
    down = up = seam
    for _ in range(32):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, 1.0)
        values += [down, up]
    return values


PSI_SWEEPS = {
    "decades": [10.0**-k for k in range(324)] + [5e-324],
    "log_spaced": [float(r) for r in np.logspace(-300, 0, 2000)],
    "seam": seam_arguments(),
}


def checks_psi_arguments():
    """The shape of the benchmark's psi call: 400 r log-spaced over [1e-12, 1]."""
    return [10.0 ** (-12.0 + 12.0 * (j + 0.5) / 400) for j in range(400)]


def assert_bisection_bits(values):
    for r in values:
        ev = psi(r)
        assert (ev.psi, ev.epsilon_star) == bisection_psi(r), (r, ev)


class TestPsiIsTheBisection:
    """psi returns the float of the plain bisection, whatever the window."""

    @pytest.mark.parametrize("sweep", sorted(PSI_SWEEPS))
    def test_same_bits_as_the_full_bracket_bisection(self, sweep):
        assert_bisection_bits(PSI_SWEEPS[sweep])

    def test_seam_sweep_crosses_the_boundary(self):
        eps = [psi(r).epsilon_star for r in PSI_SWEEPS["seam"]]
        assert PSI_EPSILON_HI in eps
        assert any(e < PSI_EPSILON_HI for e in eps)

    @pytest.mark.parametrize("r", [1e-3, 1e-12, 1e-100, 5e-324])
    def test_certificate_refuses_the_root_and_accepts_its_sides(self, r):
        log_r = math.log(r)
        root = psi(r).epsilon_star
        assert not bounds._psi_certified(root, log_r, 1.0)
        assert not bounds._psi_certified(root, log_r, -1.0)
        assert bounds._psi_certified(root * (1.0 - 1e-9), log_r, 1.0)
        assert bounds._psi_certified(root * (1.0 + 1e-9), log_r, -1.0)
        assert not bounds._psi_certified(root * (1.0 - 1e-9), log_r, -1.0)
        assert not bounds._psi_certified(root * (1.0 + 1e-9), log_r, 1.0)

    def test_failed_certificate_falls_back_to_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(bounds, "_psi_certified", lambda eps, log_r, side: False)
        assert bounds._psi_window(math.log(1e-6)) == (-math.inf, math.inf)
        values = PSI_SWEEPS["decades"] + PSI_SWEEPS["seam"] + checks_psi_arguments()
        assert_bisection_bits(values)

    @pytest.mark.parametrize("failing_side", [1.0, -1.0])
    def test_one_failed_side_falls_back_on_that_side_only(self, monkeypatch, failing_side):
        certified = bounds._psi_certified
        descent = bounds._psi_log_descent
        calls = []

        def counted(eps, log_r):
            calls.append(eps)
            return descent(eps, log_r)

        values = PSI_SWEEPS["decades"] + PSI_SWEEPS["seam"] + checks_psi_arguments()
        monkeypatch.setattr(bounds, "_psi_certified", lambda eps, log_r, side: False)
        monkeypatch.setattr(bounds, "_psi_log_descent", counted)
        for r in values:
            psi(r)
        all_failed = len(calls)

        monkeypatch.setattr(
            bounds, "_psi_certified",
            lambda eps, log_r, side: side != failing_side and certified(eps, log_r, side),
        )
        below, above = bounds._psi_window(math.log(1e-6))
        assert (below == -math.inf) == (failing_side == 1.0)
        assert (above == math.inf) == (failing_side == -1.0)
        assert math.isfinite(below) or math.isfinite(above)
        calls.clear()
        assert_bisection_bits(values)  # the reference calls the unpatched objective
        assert len(calls) < all_failed

    def test_objective_is_evaluated_near_the_root_only(self, monkeypatch):
        # The plain bisection takes about 44 evaluations per call on these arguments.
        calls = []
        descent = bounds._psi_log_descent

        def counted(eps, log_r):
            calls.append(eps)
            return descent(eps, log_r)

        monkeypatch.setattr(bounds, "_psi_log_descent", counted)
        arguments = checks_psi_arguments()
        for r in arguments:
            psi(r)
        assert len(calls) / len(arguments) <= 20.0


class TestTheoremBounds:
    def test_t2_arithmetic(self):
        budgets = theorem_bounds(1.0, 1.0, 100)
        assert budgets.t2 == pytest.approx(4.0 * math.log(100.0), rel=1e-15)

    def test_t3_at_ratio_one(self):
        budgets = theorem_bounds(1.0, 1.0, 10)
        expected = 4.0 * math.log(1.0 + psi(1.0).psi)
        assert budgets.t3 == pytest.approx(expected, rel=1e-12)

    def test_t1_shape_and_combined(self):
        sigma = 0.5
        budgets = theorem_bounds(1.0, sigma, 100)
        assert budgets.t1 == pytest.approx((sigma * sigma) * math.sqrt(1.0 / (sigma * sigma)))

    def test_t3_ratio_tends_to_one_for_large_risk(self):
        ratios = []
        for r in (1e3, 1e6, 1e9):
            ratios.append(theorem_bounds(r, 1.0, 100).t3 / (4.0 * math.log(r)))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.06

    def test_finite_and_positive_across_scenarios(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            sigma = float(rng.uniform(0.05, 2.0))
            count = int(rng.integers(1, 500))
            risk = sigma * sigma * float(rng.uniform(1.0, 1e6))
            budgets = theorem_bounds(risk, sigma, count)
            assert all(math.isfinite(b) for b in budgets)
            assert budgets.t1 > 0.0
            assert budgets.t2 >= 0.0
            assert budgets.t3 > 0.0

    @pytest.mark.parametrize(
        "risk, count",
        [
            (0.5, 3),
            (math.inf, 3),
            (math.nan, 3),
            (math.nextafter(1.0, 0.0), 3),  # one ulp below sigma^2: no rounding allowance
            (2.0, 0),
            (2.0, -1),
            (2.0, 2.7),  # a fraction of a model
        ],
    )
    def test_risk_below_variance_rejected(self, risk, count):
        with pytest.raises(ValueError) as exc:
            theorem_bounds(risk, 1.0, count)
        assert "\n" not in str(exc.value)
        assert ("oracle risk" if count == 3 else "model count") in str(exc.value)

    @pytest.mark.parametrize("risk", [math.nan, -5.0, math.inf, 0.5])
    @pytest.mark.parametrize(
        "budget",
        [lambda r: theorem_bounds(r, 1.0, 3), lambda r: m_epsilon_budget(r, 1.0, 0.1)],
        ids=["theorem_bounds", "m_epsilon_budget"],
    )
    def test_oracle_risk_rule_applies(self, budget, risk):
        with pytest.raises(ValueError, match=r"^oracle risk must be finite and >= sigma\^2"):
            budget(risk)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, 1e-160])  # 1e-160: sigma^2 is subnormal
    @pytest.mark.parametrize(
        "budget", [lambda s: theorem_bounds(1.0, s, 3), lambda s: m_epsilon_budget(1.0, s, 0.1)]
    )
    def test_sigma_rule_applies(self, budget, sigma):
        with pytest.raises(ValueError, match=r"^sigma\^2 must be a normal positive float"):
            budget(sigma)


class TestMEpsilonBudget:
    """The analytic budget for the expected envelope index."""

    def test_budget_formula(self):
        # r/s^2 + 7 eps r / ((1-6 eps) s^2) + 15 / ((1-6 eps) eps) at r=2, eps=0.1
        expected = 2.0 + 7.0 * 0.1 * 2.0 / 0.4 + 15.0 / (0.4 * 0.1)
        assert m_epsilon_budget(2.0, 1.0, 0.1) == pytest.approx(expected, rel=1e-15)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            m_epsilon_budget(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            m_epsilon_budget(1.0, 1.0, 0.2)

    def test_epsilon_domain_closes_at_psi_epsilon_hi(self):
        # (0, 1/7] is psi's own epsilon domain, so its upper edge is in it:
        # at eps = 1/7, 1 - 6 eps = eps, and the budget at r = 2 is 2 + 14 + 15 * 49.
        expected = 2.0 + 14.0 + 15.0 * 49.0
        assert m_epsilon_budget(2.0, 1.0, PSI_EPSILON_HI) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/7\]"):
            m_epsilon_budget(2.0, 1.0, math.nextafter(PSI_EPSILON_HI, 1.0))
