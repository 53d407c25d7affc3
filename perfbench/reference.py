"""Independent references for the benchmark's correctness check.

Nothing here imports ewagg.  Every expected value is recomputed with numpy
from the workload definition, outside the timed section, and compared with
the program's output at the ROADMAP pin tolerance, rel 1e-12:

- the oracle risk and index by one closed-form suffix-sum scan;
- the budgets t1, t2 and t3 from their formulas;
- psi by bisecting the derivative of its convex objective;
- the Monte Carlo means and standard errors by a vectorised recomputation
  over the same SeedSequence substreams (base seed, scenario key, replicate).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

REL_TOL = 1e-12
PASS_TOLERANCE_SE = 4.0
EPSILON_HI = 1.0 / 7.0
_C = 2.0 / math.e
# Standard normals drawn per block (rows x length); bounds the reference's memory.
_BLOCK_VALUES = 1 << 20


def close(a: float, b: float, scale: float | None = None) -> bool:
    """|a - b| within REL_TOL of scale (default: the larger magnitude)."""
    if scale is None:
        scale = max(abs(a), abs(b))
    return abs(a - b) <= REL_TOL * scale


def stable_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def substream(*parts: int) -> np.random.Generator:
    entropy = [int(p) % (1 << 128) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def mean_vector(mu: dict, n: int) -> np.ndarray:
    n = int(mu.get("N", n))
    if mu["family"] == "zero":
        return np.zeros(n)
    if mu["family"] == "poly":
        return mu["scale"] * np.arange(1, n + 1, dtype=float) ** (-mu["beta"])
    if mu["family"] == "sparse":
        out = np.zeros(n)
        out[: mu["k"]] = mu["amp"]
        return out
    raise ValueError(f"unknown mean family {mu['family']!r}")


def projection_risks(mu: np.ndarray, variance: float) -> np.ndarray:
    """Exact risk sum_{i>m} mu_i^2 + variance * m for m = 1..N (extended-precision tail)."""
    squares = (mu * mu).astype(np.longdouble)
    tail = np.append(np.cumsum(squares[::-1])[::-1][1:], np.longdouble(0.0))
    return np.asarray(tail, dtype=float) + variance * np.arange(1, mu.size + 1)


def psi(r: float) -> tuple[float, float]:
    """(min, argmin) of 49 e + r (105/e + exp(2/(e e))) over e in (0, 1/7].

    The objective is strictly convex, so its derivative
    49 - r (105/e^2 + (2/(e e^2)) exp(2/(e e))) is increasing and the minimum
    sits at its root, or at e = 1/7 when the derivative is still negative
    there.  The root is found by bisection on the sign of the log-domain
    form of the derivative, which cannot overflow.
    """

    def falling(eps: float) -> bool:  # derivative < 0
        log_slope = np.logaddexp(math.log(105.0), math.log(_C) + _C / eps) - 2.0 * math.log(eps)
        return math.log(r) + log_slope > math.log(49.0)

    if falling(EPSILON_HI):
        eps = EPSILON_HI
    else:
        lo, hi = 1e-6, EPSILON_HI
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if falling(mid) else (lo, mid)
        eps = hi
    return psi_objective(eps, r), eps


def psi_objective(eps: float, r: float) -> float:
    return 49.0 * eps + r * (105.0 / eps + math.exp(_C / eps))


def budgets(oracle: float, variance: float, count_m: int) -> tuple[float, float, float]:
    """t1 = sigma^2 sqrt(r/sigma^2), t2 = 4 sigma^2 log #M, t3 = 4 sigma^2 log{(r/sigma^2)(1 + psi)}."""
    ratio = oracle / variance
    t1 = variance * math.sqrt(ratio)
    t2 = 4.0 * variance * math.log(count_m)
    t3 = 4.0 * variance * math.log(ratio * (1.0 + psi(min(1.0, variance / oracle))[0]))
    return t1, t2, t3


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


def scenario_losses(scn: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate squared losses of the URE and EW estimators, vectorised per block."""
    n = scn["n_models"]
    mu = mean_vector(scn["mu"], n)
    sigma = scn["sigma"]
    variance = sigma * sigma
    key = stable_key(scn["id"])
    m = np.arange(1, n + 1)
    reps = scn["replicates"]
    ure, ew = np.empty(reps), np.empty(reps)
    block = max(1, _BLOCK_VALUES // n)
    for first in range(0, reps, block):
        rows = range(first, min(reps, first + block))
        z = np.stack([substream(scn["base_seed"], key, rep).standard_normal(n) for rep in rows])
        y = mu + sigma * z
        profile = 2.0 * variance * m - np.cumsum(y * y, axis=1)
        best = np.argmin(profile, axis=1)
        kept = np.where(m <= (best + 1)[:, None], y, 0.0)
        ure[rows.start:rows.stop] = np.sum((kept - mu) ** 2, axis=1)
        low = profile[np.arange(len(rows)), best][:, None]
        expd = np.exp((-(profile - low) / (4.0 * variance)).astype(np.longdouble))
        weights = np.asarray(expd / expd.sum(axis=1, keepdims=True), dtype=float)
        suffix = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]
        ew[rows.start:rows.stop] = np.sum((y * suffix - mu) ** 2, axis=1)
    return ure, ew


def scenario_row(scn: dict) -> dict:
    """Expected CSV record of one scenario, plus the risks of every m for the index check."""
    variance = scn["sigma"] ** 2
    risks = projection_risks(mean_vector(scn["mu"], scn["n_models"]), variance)
    pos = int(np.argmin(risks))
    oracle = float(risks[pos])
    t1, t2, t3 = budgets(oracle, variance, scn["n_models"])
    ure, ew = scenario_losses(scn)
    ure_mean, ure_se = _mean_se(ure)
    ew_mean, ew_se = _mean_se(ew)
    slack = PASS_TOLERANCE_SE * ew_se
    return {
        "oracle_risk": oracle, "risks": risks,
        "ure_mean": ure_mean, "ure_se": ure_se, "ew_mean": ew_mean, "ew_se": ew_se,
        "t1_shape": t1, "t2_budget": t2, "t3_budget": t3,
        "empirical_K": (ure_mean - oracle) / t1,
        "t2_pass": ew_mean <= oracle + t2 + slack,
        "t3_pass": ew_mean <= oracle + t3 + slack,
    }


def lemma_stats(cmd: dict) -> np.ndarray:
    """Per-replicate maximal statistics of one lemma-2 walk, vectorised per block."""
    which, alpha, reps = cmd["which"], cmd["alpha"], cmd["reps"]
    key = stable_key(f"lemma2:{which}:{alpha!r}")
    if which == "linear":
        coeffs = mean_vector(cmd["mu"], cmd["mu"]["N"])
        length = coeffs.size
        suffix_mu2 = np.cumsum((coeffs * coeffs)[::-1])[::-1]
    else:
        length = cmd["kmax"]
        steps = np.arange(1, length + 1, dtype=float)
        if which == "chi2_upper":
            drift = -(alpha + math.log1p(-2.0 * alpha) / 2.0) / alpha
        else:
            drift = (alpha - math.log1p(2.0 * alpha) / 2.0) / alpha
    stats = np.empty(reps)
    block = max(1, _BLOCK_VALUES // length)
    for first in range(0, reps, block):
        rows = range(first, min(reps, first + block))
        xi = np.stack([substream(cmd["seed"], key, rep).standard_normal(length) for rep in rows])
        if which == "linear":
            suffix_dot = np.cumsum((coeffs * xi)[:, ::-1], axis=1)[:, ::-1]
            walk = suffix_dot - 0.5 * alpha * suffix_mu2
            stats[rows.start:rows.stop] = np.maximum(walk.max(axis=1), 0.0)
        else:
            increments = xi * xi - 1.0 if which == "chi2_upper" else 1.0 - xi * xi
            stats[rows.start:rows.stop] = (np.cumsum(increments, axis=1) - drift * steps).max(axis=1)
    return stats


# ---------------------------------------------------------------------------
# Output checks.  Each returns (operations, failure messages); an operation is
# one scenario or one command.


def _close_fields(label: str, got: dict, want: dict, fields, failures: list) -> None:
    for field in fields:
        if not close(float(got[field]), float(want[field])):
            failures.append(f"{label}: {field} = {got[field]!r}, reference {want[field]!r}")


def _parse_csv(text: str) -> dict[str, dict]:
    rows = {}
    for record in csv.DictReader(io.StringIO(text)):
        record["t2_pass"] = {"true": True, "false": False}[record["t2_pass"]]
        record["t3_pass"] = {"true": True, "false": False}[record["t3_pass"]]
        rows[record["scenario_id"]] = record
    return rows


def check_simulate(cmd: dict, result: dict, files: dict) -> list[str]:
    """Compare results.csv and results.json with the reference, and the exit code with the flags."""
    failures: list[str] = []
    try:
        csv_rows = _parse_csv(files["results.csv"].decode("utf-8"))
        json_rows = {r["scenario_id"]: r for r in json.loads(files["results.json"])}
    except (KeyError, ValueError, TypeError) as exc:
        return [f"simulate: unreadable outputs ({exc!r})"] * cmd["operations"]
    all_pass = True
    for scn in cmd["scenarios"]:
        label = scn["id"]
        want = scenario_row(scn)
        own: list[str] = []
        for source, rows in (("csv", csv_rows), ("json", json_rows)):
            got = rows.get(label)
            if got is None:
                own.append(f"{label}: missing from results.{source}")
                continue
            _close_fields(f"{label} ({source})", got, want,
                          ("oracle_risk", "ure_mean", "ure_se", "ew_mean", "ew_se",
                           "t1_shape", "t2_budget", "t3_budget"), own)
            k_scale = abs(want["ure_mean"]) / want["t1_shape"]
            if not close(float(got["empirical_K"]), want["empirical_K"], max(k_scale, abs(want["empirical_K"]))):
                own.append(f"{label} ({source}): empirical_K = {got['empirical_K']!r}, "
                           f"reference {want['empirical_K']!r}")
            index = int(got["oracle_index"])
            if not (1 <= index <= scn["n_models"] and close(want["risks"][index - 1], want["oracle_risk"])):
                own.append(f"{label} ({source}): oracle_index {index} is not a minimiser")
            for flag in ("t2_pass", "t3_pass"):
                if got[flag] is not want[flag]:
                    own.append(f"{label} ({source}): {flag} = {got[flag]}, reference {want[flag]}")
            all_pass = all_pass and got["t2_pass"] and got["t3_pass"]
        if own:
            failures.append("; ".join(own))
    if result["code"] != (0 if all_pass else 1):
        return [f"simulate: exit code {result['code']} does not match the pass flags"] * cmd["operations"]
    return failures


def check_lemma(cmd: dict, result: dict) -> list[str]:
    try:
        got = json.loads(result["stdout"])
    except ValueError as exc:
        return [f"lemma-check {cmd['which']}: unreadable output ({exc!r})"]
    mean, se = _mean_se(lemma_stats(cmd))
    budget = 1.0 / cmd["alpha"]
    tolerance = PASS_TOLERANCE_SE * se
    want = {"mean": mean, "std_error": se, "budget": budget, "tolerance": tolerance}
    failures: list[str] = []
    _close_fields(f"lemma-check {cmd['which']}", got, want, want, failures)
    if got.get("replicates") != cmd["reps"] or got.get("k_max") != cmd["kmax"]:
        failures.append(f"lemma-check {cmd['which']}: replicates/k_max differ from the command")
    passed = mean <= budget + tolerance
    if got.get("passed") is not passed:
        failures.append(f"lemma-check {cmd['which']}: passed = {got.get('passed')}, reference {passed}")
    if result["code"] != (0 if got.get("passed") is True else 1):
        failures.append(f"lemma-check {cmd['which']}: exit code {result['code']} does not match passed")
    return ["; ".join(failures)] if failures else []


def check_psi(cmd: dict, result: dict) -> list[str]:
    failures: list[str] = []
    lines = result["stdout"].splitlines()
    if result["code"] != 0 or not lines or lines[0] != "r,psi,epsilon_star":
        return [f"psi: exit code {result['code']} or missing header"]
    rows = lines[1:]
    if len(rows) != len(cmd["r_values"]):
        return [f"psi: {len(rows)} rows for {len(cmd['r_values'])} arguments"]
    for r, row in zip(cmd["r_values"], rows):
        got_r, got_psi, got_eps = map(float, row.split(","))
        want_psi, _ = psi(r)
        if got_r != r or not close(got_psi, want_psi):
            failures.append(f"psi({r!r}) = {got_psi!r}, reference {want_psi!r}")
        elif not (0.0 < got_eps <= EPSILON_HI and close(psi_objective(got_eps, r), got_psi)):
            failures.append(f"psi({r!r}): epsilon_star {got_eps!r} does not attain psi")
    return ["; ".join(failures)] if failures else []


def check_bounds(cmd: dict, result: dict) -> list[str]:
    try:
        got = json.loads(result["stdout"])
    except ValueError as exc:
        return [f"bounds --r {cmd['r']!r}: unreadable output ({exc!r})"]
    if result["code"] != 0:
        return [f"bounds --r {cmd['r']!r}: exit code {result['code']}"]
    t1, t2, t3 = budgets(cmd["r"], 1.0, cmd["m"])
    psi_r = min(1.0, 1.0 / cmd["r"])
    want = {"t1_shape": t1, "t2_budget": t2, "t3_budget": t3, "combined_budget": min(t2, t3)}
    failures: list[str] = []
    label = f"bounds --r {cmd['r']!r}"
    _close_fields(label, got, want, want, failures)
    _close_fields(label, got["psi"], {"r": psi_r, "psi": psi(psi_r)[0]}, ("r", "psi"), failures)
    return ["; ".join(failures)] if failures else []


def check_iteration(job: dict, results: list[dict], files: dict) -> list[str]:
    """Failure messages over all operations of one iteration."""
    failures: list[str] = []
    for cmd, result in zip(job["commands"], results):
        if result["error"] is not None:
            failures += [f"{cmd['argv'][0]} raised: {result['error'].strip()}"] * cmd["operations"]
        elif cmd["kind"] == "simulate":
            failures += check_simulate(cmd, result, files)
        elif cmd["kind"] == "lemma":
            failures += check_lemma(cmd, result)
        elif cmd["kind"] == "psi":
            failures += check_psi(cmd, result)
        else:
            failures += check_bounds(cmd, result)
    return failures
