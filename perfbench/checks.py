"""Output checks and the reference math they compare against.

Every check counts as one attempt; a failed check counts toward the run's
`failed` total, like a failed command.  The reference generalized-gamma
(GG) formulas are written here from the documented model, independently of
the program, so a change to the program's kernels is checked rather than
trusted.
"""

import csv
import json
import math
import sys

import numpy as np
from scipy import special

import gen


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)
            print(f"check failed: {name} {detail}", file=sys.stderr)
        return ok


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def to_float(raw):
    """The number in a CSV cell, or None for a missing or non-numeric cell."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# reference GG model


def fp_basis(x, powers) -> list:
    """Fractional-polynomial columns at x (power 0 is ln x; a repeat adds ln x)."""
    x = np.asarray(x, dtype=float)

    def term(p):
        return np.log(x) if p == 0.0 else x**p

    if len(powers) == 1:
        return [term(powers[0])]
    p, q = powers
    if p == q:
        return [term(p), term(p) * np.log(x)]
    return [term(p), term(q)]


def model_params(doc: dict, age_years, is_female, scanners=None):
    """(mu, sigma, nu) of a saved growth model, elementwise over covariates."""
    coef = doc["mu_coef"]
    basis = fp_basis(age_years, doc["fp_mu"]["powers"])
    eta = coef[0] + sum(c * b for c, b in zip(coef[1 : 1 + len(basis)], basis))
    eta = eta + coef[-1] * np.asarray(is_female, dtype=float)
    if scanners is not None:
        eta = eta + np.asarray([doc["scanner_intercepts"].get(s, 0.0) for s in scanners])
    log_sigma = doc["sigma_coef"][0]
    if doc["fp_sigma"] is not None:
        sigma_basis = fp_basis(age_years, doc["fp_sigma"]["powers"])
        log_sigma = log_sigma + sum(c * b for c, b in zip(doc["sigma_coef"][1:], sigma_basis))
    return np.exp(eta), np.exp(log_sigma), float(doc["nu"])


def gg_cdf(y, mu, sigma, nu):
    theta = 1.0 / (sigma**2 * nu**2)
    z = np.exp(nu * (np.log(y) - np.log(mu)))
    return special.gammainc(theta, theta * z) if nu > 0 else special.gammaincc(theta, theta * z)


# ---------------------------------------------------------------------------
# file checks shared by workloads


def check_metrics_csv(checks: Checks, path, seeds, metrics, label: str) -> dict:
    """Every (seed, metric) row present with a value in [0, 1]; returns values."""
    rows = read_csv(path)
    values = {(r["seed"], r["metric"]): r["value"] for r in rows}
    out = {}
    for seed in seeds:
        for metric in metrics:
            key = (str(seed), metric)
            raw = values.get(key)
            value = to_float(raw)
            ok = value is not None and 0.0 <= value <= 1.0
            checks.expect(f"{label}: metrics.csv row seed={seed} metric={metric}", ok, repr(raw))
            if ok:
                out[key] = value
    return out


def check_curves_csv(checks: Checks, path, grid, label: str, model=None, sex_female=None):
    """One row per grid age, p2.5 < p50 < p97.5 at each; optional round trip.

    With a model, the GG cdf at each written quantile must give back its
    probability.  The round trip uses the exact grid ages, since the file
    rounds ages to 4 decimals; quantiles keep far more precision than needed.
    """
    rows = read_csv(path)
    grid = np.asarray(grid, dtype=float)
    checks.expect(f"{label}: row count", len(rows) == grid.size, f"{len(rows)} != {grid.size}")
    table = np.asarray([[float(r[c]) for c in ("age_years", "p2.5", "p50", "p97.5")] for r in rows])
    if len(rows) != grid.size:
        return
    checks.expect(f"{label}: ages on the grid", bool(np.all(np.abs(table[:, 0] - grid) <= 5e-5)))
    ordered = bool(np.all((table[:, 1] < table[:, 2]) & (table[:, 2] < table[:, 3])))
    checks.expect(f"{label}: p2.5 < p50 < p97.5 at each age", ordered)
    if model is not None:
        pick = np.linspace(0, grid.size - 1, num=min(25, grid.size)).astype(int)
        mu, sigma, nu = model_params(model, grid[pick], np.full(pick.size, float(sex_female)))
        err = 0.0
        for col, q in ((1, 0.025), (2, 0.5), (3, 0.975)):
            err = max(err, float(np.max(np.abs(gg_cdf(table[pick, col], mu, sigma, nu) - q))))
        checks.expect(f"{label}: cdf(quantile) round trip", err < 1e-6, f"max error {err:.3g}")


def check_centiles(checks: Checks, written, reference, label: str) -> int:
    """Written centiles against the reference cdf; returns how many print as 0 or 1.

    The CLI writes centiles to 6 decimals, so a centile below 5e-7 prints as
    0.000000 (and one above 1 - 5e-7 as 1.000000).  A written 0 or 1 passes
    only where the reference centile rounds to it.
    """
    written = np.asarray(written, dtype=float)
    reference = np.clip(np.asarray(reference, dtype=float), 1e-15, 1.0 - 1e-15)
    checks.expect(f"{label}: centiles within [0, 1]", bool(np.all((written >= 0.0) & (written <= 1.0))))
    at_bound = (written == 0.0) | (written == 1.0)
    not_rounding = at_bound & (np.abs(reference - written) > 5e-7)
    checks.expect(
        f"{label}: centiles in (0,1) up to the written precision",
        not bool(np.any(not_rounding)),
        f"{int(np.sum(not_rounding))} rows at 0 or 1",
    )
    err = float(np.max(np.abs(reference - written))) if written.size else float("inf")
    checks.expect(f"{label}: centiles match the reference", err < 1e-6, f"max error {err:.3g}")
    return int(np.sum(at_bound))


def check_attrition(checks: Checks, n_in, n_out, dropped_qc, dropped_mprage, expect_in, expect_qc, label):
    checks.expect(
        f"{label}: attrition balances",
        n_in == n_out + dropped_qc + dropped_mprage,
        f"{n_in} != {n_out} + {dropped_qc} + {dropped_mprage}",
    )
    checks.expect(f"{label}: input sessions", n_in == expect_in, f"{n_in} != {expect_in}")
    checks.expect(f"{label}: sessions dropped by QC", dropped_qc == expect_qc, f"{dropped_qc} != {expect_qc}")


def check_stepwise_rule(checks: Checks, path, n_rows: int, label: str) -> None:
    """Each label follows from its answers: Normal iff (Q1=No or Q2=Yes) and Q3=Q4=Q5=No."""
    rows = read_csv(path)
    checks.expect(f"{label}: row count", len(rows) == n_rows, f"{len(rows)} != {n_rows}")
    bad = 0
    for r in rows:
        gate = r["Q1"] == "No" or r["Q2"] == "Yes"
        clear = r["Q3"] == r["Q4"] == r["Q5"] == "No"
        bad += r["label"] != ("Normal" if gate and clear else "Abnormal")
    checks.expect(f"{label}: labels follow the five-question rule", bad == 0, f"{bad} rows")


def bic_bound(y, age_years, is_female, shift, region: str, n_scanners: int) -> float:
    """BIC of the generating FP1 model evaluated at its true parameters.

    The fitter maximizes the ridge-penalized likelihood over a family that
    contains the truth, and its BIC search includes the true basis, so the
    selected model's BIC cannot exceed this (up to the ridge term on the
    mean-zero true intercepts, a few thousandths here).
    """
    mu, sigma, nu = gen.truth_params(region, age_years, is_female, shift)
    loglik = float(np.sum(gen.gg_logpdf(y, mu, sigma, nu)))
    k = 3 + n_scanners + 2 + 1  # intercept, FP1 term, sex; scanners; sigma; nu
    return -2.0 * loglik + k * math.log(len(y))
