"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the per-criterion
report.  The heavy Monte Carlo fixtures are shared across criteria, and
criterion 1's run also backs the test that pins its bits.
"""

import math
import time
import warnings

import numpy as np
import pytest

import ewagg.cli as cli
from exact import EW_EDGE_REGRET_90, EW_EDGE_REGRET_90_SE, ure_edge_regret
from ewagg.bounds import (
    PSI_EPSILON_HI,
    PSI_EPSILON_LO,
    entropy,
    lemma4_bound,
    psi,
    r_rho,
    u_alpha,
    u_inverse,
    u_star_alpha,
    u_star_inverse,
)
from ewagg.estimators import exponential_weights
from ewagg.montecarlo import (
    ScenarioConfig,
    lemma2_empirical,
    unbiasedness_check,
    verify_oracle_inequalities,
    verify_scenarios,
)
from ewagg.sequence_model import mean_vector_from_spec

GRID_SEED = 20250808
GRID_REPLICATES = 100_000

MU_FAMILIES = [
    ("zero", "zero"),
    ("poly", "poly:beta=1,scale=1"),
    ("sparse", "sparse:k=5,amp=1"),
]
SIGMAS = [1.0, 0.3, 0.1]


def _report(cid: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {cid:2d}] {status}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def scenario_grid():
    """The nine-scenario verification grid shared by criteria 2, 3, and 8."""
    started = time.perf_counter()
    configs = [
        ScenarioConfig(
            scenario_id=f"{family}-sigma{sigma}",
            mu_spec=spec,
            sigma=sigma,
            models=np.arange(1, 101),
            replicates=GRID_REPLICATES,
            base_seed=GRID_SEED,
        )
        for family, spec in MU_FAMILIES
        for sigma in SIGMAS
    ]
    rows, _, _ = verify_scenarios(configs)  # the path simulate runs
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def unbiasedness_run():
    """Criterion 1's unbiasedness_check at 100k replicates and its seconds, run once."""
    started = time.perf_counter()
    config = ScenarioConfig(
        scenario_id="unbiasedness",
        mu_spec="poly:beta=1,scale=1,N=50",
        sigma=1.0,
        models=[1, 5, 20],
        replicates=100_000,
        base_seed=GRID_SEED,
    )
    return unbiasedness_check(config), time.perf_counter() - started


def test_criterion_01_unbiased_risk_identity(unbiasedness_run):
    # E rbar(Y, m) + ||mu||^2 must equal the exact projection risk.
    results, elapsed = unbiasedness_run
    gaps = {m: (abs(est.mean), 4.0 * est.std_error) for m, est in results.items()}
    ok = all(gap <= tol for gap, tol in gaps.values()) and elapsed < 30.0
    detail = (
        "; ".join(f"m={m}: |gap|={g:.3e} tol={t:.3e}" for m, (g, t) in gaps.items())
        + f"; elapsed={elapsed:.1f}s (limit 30s)"
    )
    _report(1, ok, detail)


def test_criterion_01_bits_are_pinned(unbiasedness_run):
    # Frozen from the five-argument unbiasedness_check, which keyed its
    # substreams with the label "unbiasedness"; a scenario of that name has
    # the same address, so a change in seeding or in the profile fails here.
    results, _ = unbiasedness_run
    assert {m: (e.mean.hex(), e.std_error.hex()) for m, e in results.items()} == {
        1: ("0x1.71e35a3264cadp-12", "0x1.f96da88b3e37ap-8"),
        5: ("-0x1.14523d91471bcp-8", "0x1.9cca32282e750p-7"),
        20: ("-0x1.59527b0dc8467p-6", "0x1.6120e84638c87p-6"),
    }


def test_criterion_02_log_cardinality_budget(scenario_grid):
    rows, elapsed = scenario_grid
    failures = [
        row.scenario_id for row in rows if not row.t2_pass
    ]
    ok = not failures and elapsed < 300.0
    detail = (
        f"{len(rows) - len(failures)}/{len(rows)} scenarios within "
        f"oracle + 4 sigma^2 log(100) + 4 SE; grid elapsed={elapsed:.1f}s (limit 300s)"
    )
    if failures:
        detail += f"; failed: {failures}"
    _report(2, ok, detail)


def test_criterion_03_remainder_budget(scenario_grid):
    rows, _ = scenario_grid
    failures = [row.scenario_id for row in rows if not row.t3_pass]
    ok = not failures
    detail = (
        f"{len(rows) - len(failures)}/{len(rows)} scenarios within "
        "oracle + 4 sigma^2 log{(r/s^2)[1+Psi(s^2/r)]} + 4 SE"
    )
    if failures:
        detail += f"; failed: {failures}"
    _report(3, ok, detail)


def test_criterion_04_maximal_inequalities():
    started = time.perf_counter()
    mu = mean_vector_from_spec("poly:beta=1,scale=1,N=100")
    checks = []
    for alpha in (0.1, 0.25, 0.4):
        est = lemma2_empirical(alpha, "chi2_upper", k_max=10_000, replicates=10_000, seed=GRID_SEED)
        checks.append(("chi2_upper", alpha, est))
    for alpha in (0.1, 0.5, 1.0):
        est = lemma2_empirical(alpha, "chi2_lower", k_max=10_000, replicates=10_000, seed=GRID_SEED)
        checks.append(("chi2_lower", alpha, est))
    for alpha in (0.5, 1.0):
        est = lemma2_empirical(alpha, "linear", mu=mu, replicates=10_000, seed=GRID_SEED)
        checks.append(("linear", alpha, est))
    elapsed = time.perf_counter() - started
    bad = [
        f"{which}@alpha={alpha}: mean={est.mean:.4f} > {1/alpha:.2f}+4SE"
        for which, alpha, est in checks
        if est.mean > 1.0 / alpha + 4.0 * est.std_error
    ]
    ok = not bad and elapsed < 120.0
    detail = (
        f"{len(checks) - len(bad)}/{len(checks)} empirical means within 1/alpha + 4 SE; "
        f"elapsed={elapsed:.1f}s (limit 120s)"
    )
    if bad:
        detail += "; " + "; ".join(bad)
    _report(4, ok, detail)


def test_criterion_05_inverse_function_bounds():
    grid_u = np.linspace(0.05, 5.0, 1000)
    grid_star = np.linspace(0.05, 0.95, 1000)
    round_trip = max(
        max(abs(u_alpha(u_inverse(y)) - y) for y in grid_u),
        max(abs(u_star_alpha(u_star_inverse(y)) - y) for y in grid_star),
    )
    lower_ok = all(u_inverse(y) >= y / (1.0 + 2.0 * y) - 1e-12 for y in grid_u)
    star_ok = all(u_star_inverse(y) >= y - 1e-12 for y in grid_star)
    ok = lower_ok and star_ok and round_trip <= 1e-10
    _report(
        5,
        ok,
        f"inverse lower bounds hold on 1000-point grids; max round-trip "
        f"error={round_trip:.2e} (tol 1e-10)",
    )


def _weights(raw: np.ndarray) -> np.ndarray:
    return raw / raw.sum()


def _decay_envelope(rho: float) -> np.ndarray:
    # Caps on the tail after its anchor w_K = 1: w_{K+j} <= exp(-1 - rho (j-1)),
    # truncated once they fall below exp(-660).
    n_tail = int(math.ceil(660.0 / rho)) + 2
    return np.exp(-rho * np.arange(n_tail) - 1.0)


def test_criterion_06_entropy_bound():
    # Lemma 4's budget log(K - 1 + exp(R(rho))) bounds H(w) for K-1 free head
    # weights, an anchor w_K and a tail under the envelope above, but only in
    # the slow-decay domain e * rho <= 1 (README).  Beyond it a tail on its
    # envelope exceeds the budget, so there the exceedance is what is asserted.
    rng = np.random.default_rng(GRID_SEED)

    def worst_sampled_margin(K, rho, draws):
        bound, envelope = lemma4_bound(K, rho), _decay_envelope(rho)
        worst = math.inf
        for _ in range(draws):
            head = rng.uniform(0.0, 10.0, size=K - 1)
            tail = np.concatenate([[1.0], envelope * rng.uniform(0.0, 1.0, size=envelope.size)])
            worst = min(worst, bound - entropy(_weights(np.concatenate([head, tail]))))
        return worst

    def tight_margin(K, rho):
        # Tail on its envelope; each head entry at tail_sum * exp(-H_tail), the
        # head that maximizes H(w), which is then log(K - 1 + exp(H_tail)).
        tail = np.concatenate([[1.0], _decay_envelope(rho)])
        head = np.full(K - 1, tail.sum() * math.exp(-entropy(_weights(tail))))
        return lemma4_bound(K, rho) - entropy(_weights(np.concatenate([head, tail])))

    inside = [(K, rho) for K in (2, 10, 100) for rho in (0.2, 1.0 / math.e)]
    outside = [(K, rho) for K in (2, 10, 100) for rho in (1.0, 5.0)]
    draws_in = 168
    sampled_in = {c: worst_sampled_margin(*c, draws=draws_in) for c in inside}
    sampled_out = {c: worst_sampled_margin(*c, draws=84) for c in outside}
    tight_in = {c: tight_margin(*c) for c in inside}
    tight_out = {c: tight_margin(*c) for c in outside}
    total = draws_in * len(inside)

    # At the seam every tail entry past the anchor has normalized mass below
    # exp(-H_tail), so raising any of them raises H; H is quasi-concave, so no
    # tail under the envelope does better and the tight case is the worst one.
    seam_tail = np.concatenate([[1.0], _decay_envelope(1.0 / math.e)])
    seam_worst = bool(
        np.all(seam_tail[1:] / seam_tail.sum() < math.exp(-entropy(_weights(seam_tail))))
    )
    seam = abs(r_rho(np.nextafter(1 / math.e, 0.0)) - r_rho(np.nextafter(1 / math.e, 1.0)))

    def fmt(margins):
        return ", ".join(f"({K}, {rho:.3g}):{m:.4f}" for (K, rho), m in margins.items())

    ok = (
        total >= 1000
        and min(sampled_in.values()) >= 0.0
        and min(tight_in.values()) > 0.0
        and seam_worst
        and max(tight_out.values()) < 0.0
        and seam <= 1e-12
    )
    _report(
        6,
        ok,
        f"e*rho <= 1: {total} sampled constructions, worst margin "
        f"{min(sampled_in.values()):.3e}; envelope-tight margins {fmt(tight_in)} "
        f"(worst case at the seam: {seam_worst}); e*rho > 1: sampled worst margins "
        f"{fmt(sampled_out)}, envelope-tight margins {fmt(tight_out)} (must be < 0); "
        f"seam gap={seam:.2e} (tol 1e-12)",
    )


def _first_order_root(L: float) -> float:
    """Root u > 1 of u + 2 log u = L + log(2/e), bisected to adjacent floats."""
    target = L + math.log(2.0 / math.e)
    lo, hi = 1.0, target
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid + 2.0 * math.log(mid) < target:
            lo = mid
        else:
            hi = mid


def test_criterion_07_remainder_asymptotics():
    # Psi(r) ~ 98 / (e log(49/r)) as r -> 0, slowly: P(r) = Psi(r) (e/98) L with
    # L = log(49/r) is still 1.548 at r = 1e-6.  Without the r 105/eps term the
    # objective is minimized at eps_u = (2/e)/u, u the root above, with minimum
    # (L/u)(1 + 1/u) in P units.  Restoring the term adds at least its value at
    # the true minimizer eps* and at most its value at eps_u, so
    #   D(eps*) <= P - (L/u)(1 + 1/u) <= D(eps_u),  D(eps) = (e L/98) 105 r/eps,
    # up to rounding, allowed 8 ulps (3 seen over r = 10^-3 .. 10^-300).
    r_values = [10.0**-k for k in (3, 4, 5, 6, 8, 12, 20, 50, 100, 300)]
    products, bracket_ok, domain_ok = [], True, True
    for r in r_values:
        ev = psi(r)
        L = math.log(49.0 / r)
        u = _first_order_root(L)
        eps_u = (2.0 / math.e) / u
        two_term = (L / u) * (1.0 + 1.0 / u)
        product = ev.psi * (math.e / 98.0) * L
        dropped = (math.e * L / 98.0) * 105.0 * r
        slack = 8.0 * math.ulp(two_term)
        gap = product - two_term
        bracket_ok &= dropped / ev.epsilon_star - slack <= gap <= dropped / eps_u + slack
        domain_ok &= PSI_EPSILON_LO <= ev.epsilon_star <= PSI_EPSILON_HI
        products.append(product)
    monotone = all(p > 1.0 for p in products) and all(
        b < a for a, b in zip(products, products[1:])
    )
    # The two-term form itself tends to 1, checked far past float r via L.
    excess = []
    for L in (1e2, 1e3, 1e4, 1e6, 1e9, 1e12):
        u = _first_order_root(L)
        excess.append((L / u) * (1.0 + 1.0 / u) - 1.0)
    limit_ok = all(e > 0.0 for e in excess) and all(
        b < a for a, b in zip(excess, excess[1:])
    ) and excess[-1] < 1e-10
    detail = (
        "products "
        + ", ".join(f"{r:g}:{p:.4f}" for r, p in zip(r_values, products))
        + f"; strictly decreasing to 1 from above: {monotone}; within the dropped "
        + f"105/eps term of (L/u)(1+1/u): {bracket_ok}; eps* in domain: {domain_ok}; "
        + f"(L/u)(1+1/u) - 1 at L=1e12: {excess[-1]:.2e} (< 1e-10)"
    )
    _report(7, monotone and bracket_ok and domain_ok and limit_ok, detail)


def test_criterion_08_empirical_constant_report(scenario_grid):
    rows, _ = scenario_grid
    ks = {row.scenario_id: row.empirical_K for row in rows}
    ok = all(math.isfinite(k) and k > 0.0 for k in ks.values())
    detail = (
        f"empirical K finite and positive in {len(ks)}/{len(ks)} scenarios; "
        f"max K = {max(ks.values()):.4f} at "
        f"{max(ks, key=ks.get)} (no fixed pass constant)"
    )
    _report(8, ok, detail)


def test_criterion_09_weighting_beats_selection():
    config = ScenarioConfig(
        scenario_id="ew-vs-ure",
        mu_spec="poly:beta=1,scale=1",
        sigma=0.05,
        models=np.arange(1, 201),
        replicates=GRID_REPLICATES,
        base_seed=GRID_SEED,
    )
    row = verify_oracle_inequalities(config)
    ew_regret = row.ew_mean - row.oracle_risk
    ure_regret = row.ure_mean - row.oracle_risk
    combined_se = math.hypot(row.ure_se, row.ew_se)
    holds = ew_regret <= ure_regret + 4.0 * combined_se
    detail = (
        f"EW regret={ew_regret:.5f}, URE regret={ure_regret:.5f}, "
        f"4*combined SE={4 * combined_se:.5f}"
    )
    if not holds:
        warnings.warn(
            "exponential weighting did not beat unbiased-risk selection here: " + detail
        )
        print(f"[criterion  9] SOFT-FAIL: {detail}")
    else:
        print(f"[criterion  9] PASS: {detail}")
    assert math.isfinite(ew_regret) and math.isfinite(ure_regret)


def test_criterion_10_softmax_simplex_invariants():
    rng = np.random.default_rng(GRID_SEED)
    trials = 10_000
    quantum = 2.0**-20
    worst_sum = 0.0
    worst_shift = 0.0
    argmax_ok = True
    nonneg_ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 51))
        sigma = float(rng.uniform(0.2, 2.0))
        values = np.round(rng.uniform(-100.0, 100.0, size=k) / quantum) * quantum
        shift = round(float(rng.uniform(0.0, 1e6)) / quantum) * quantum
        w0 = exponential_weights(values, sigma)
        w1 = exponential_weights(values + shift, sigma)
        nonneg_ok &= bool(np.all(w0 >= 0.0))
        worst_sum = max(worst_sum, abs(float(w0.sum()) - 1.0))
        worst_shift = max(worst_shift, float(np.max(np.abs(w0 - w1))))
        argmax_ok &= int(np.argmax(w0)) == int(np.argmin(values))
    ok = nonneg_ok and worst_sum <= 1e-12 and worst_shift <= 1e-12 and argmax_ok
    _report(
        10,
        ok,
        f"{trials} profiles: nonnegative={nonneg_ok}, max |sum-1|={worst_sum:.2e}, "
        f"max shift deviation={worst_shift:.2e} (tol 1e-12), argmax=argmin={argmax_ok}",
    )


def test_criterion_11_simulation_determinism(tmp_path):
    config_text = (
        "[DEFAULT]\n"
        "replicates = 300\n"
        f"base_seed = {GRID_SEED}\n"
        "\n"
        "[zero_small]\n"
        "mu = zero\n"
        "sigma = 1.0\n"
        "models = 1..10\n"
        "\n"
        "[sparse_small]\n"
        "mu = sparse:k=3,amp=2\n"
        "sigma = 0.5\n"
        "models = 1..15\n"
    )
    config_path = tmp_path / "grid.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.main(["simulate", "--config", str(config_path), "--out", str(out1)])
    code2 = cli.main(["simulate", "--config", str(config_path), "--out", str(out2)])
    same = {
        name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("results.csv", "results.json")
    }
    ok = code1 == 0 and code2 == 0 and all(same.values())
    _report(
        11,
        ok,
        f"two runs, exit codes ({code1}, {code2}), bytes equal: "
        + ", ".join(f"{name} {equal}" for name, equal in same.items()),
    )


def test_criterion_12_regrets_at_the_high_signal_edge():
    # Ten means of 10 sigma, then ninety zeros, over M = 1..100: the oracle is
    # m = 10, and both regrets over sigma^2 depend on nothing but the 90
    # pure-noise steps.  The URE regret is exactly sum_{j<=90} Q(j/2 + 1, j);
    # the EW regret is checked against an independent walk's pinned value
    # (tests/exact.py), within 4 SE combined with the pin's own.
    config = ScenarioConfig(
        scenario_id="ure-edge",
        mu_spec="explicit:" + ",".join(["10.0"] * 10 + ["0"] * 90),
        sigma=1.0,
        models=np.arange(1, 101),
        replicates=GRID_REPLICATES,
        base_seed=GRID_SEED,
    )
    row = verify_oracle_inequalities(config)
    exact = ure_edge_regret(90)
    ure_regret = row.ure_mean - row.oracle_risk
    ure_z = (ure_regret - exact) / row.ure_se
    ew_regret = row.ew_mean - row.oracle_risk
    ew_z = (ew_regret - EW_EDGE_REGRET_90) / math.hypot(row.ew_se, EW_EDGE_REGRET_90_SE)
    ok = row.oracle_index == 10 and abs(ure_z) <= 4.0 and abs(ew_z) <= 4.0
    _report(
        12,
        ok,
        f"oracle m={row.oracle_index} (expected 10); URE regret={ure_regret:.5f} +- "
        f"{row.ure_se:.5f}, exact={exact:.6f}, z={ure_z:+.2f} (limit 4), "
        f"regret/t2={ure_regret / row.t2_budget:.3f}; EW regret={ew_regret:.5f} +- "
        f"{row.ew_se:.5f}, walk={EW_EDGE_REGRET_90:.5f} +- {EW_EDGE_REGRET_90_SE:.5f}, "
        f"z={ew_z:+.2f} (limit 4), regret/t2={ew_regret / row.t2_budget:.3f}",
    )
