"""Normative growth-chart modeling on a generalized gamma backbone.

Distribution: with z = (y/mu)^nu and theta = 1/(sigma^2 nu^2),

    pdf(y) = |nu| * theta^theta * z^theta * exp(-theta z) / (Gamma(theta) * y)

evaluated in log space throughout. mu and sigma are modeled through log
links. The location predictor is an intercept, a fractional-polynomial basis
of age in years, a sex indicator (1 for F), and per-scanner intercepts kept
mean-zero by a ridge penalty. sigma is log-linear with an optional
fractional-polynomial age term; nu is a constant shape. Each candidate basis
is fit by Newton steps on the penalized log-likelihood's exact Hessian, in a
trust region: an FP2 basis from the optimum of a nested FP1 basis fit before
it, any other cold, with seeded restarts only for a fit that did not converge.

gg_cdf, gg_quantile and the scoring commands need numpy alone. The fit imports
scipy.special and scipy.optimize, inside the functions that call them (every
CLI command imports this module); gg_logpdf shares the fit's gammaln.
"""

import functools
import itertools
import json
import math
import sys
from collections import abc
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence, Union, get_args, get_origin

import numpy as np

from .errors import UNDECODABLE_JSON, ConfigError, DataError, NumericalError, warn
from .phenotype import Region, SessionTable
from .report_text import Sex

FP_POWERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
PERCENTILES = (0.025, 0.5, 0.975)


@dataclass(frozen=True)
class GGParams:
    """Generalized-gamma parameters; mu and sigma may be arrays of one shape
    or broadcastable ones, and nu is one shape for every element."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu != 0.0):
            raise NumericalError(f"nu must be finite and nonzero, got {self.nu}")
        # theta too: it overflows, or divides by zero once sigma nu underflows
        for name in ("mu", "sigma", "theta"):
            value = np.asarray(getattr(self, name))
            ok = np.isfinite(value) & (value > 0.0)
            if not ok.all():
                raise NumericalError(f"{name} must be finite and > 0, got {_bad_values(value, ok)}")

    @property
    def theta(self):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / (np.multiply(self.sigma, self.sigma) * self.nu * self.nu)


@dataclass(frozen=True)
class FpSpec:
    order: int
    powers: tuple[float, ...]

    def __post_init__(self):
        if self.order not in (1, 2):
            raise NumericalError(f"order must be 1 or 2, got {self.order}")
        if len(self.powers) != self.order:
            raise NumericalError("powers length must equal order")
        for p in self.powers:
            if p not in FP_POWERS:
                raise NumericalError(f"power {p} not in the allowed set")


def fp_candidates() -> list[FpSpec]:
    """All first-order specs plus all unordered second-order pairs (8 + 36)."""
    first = [FpSpec(1, (p,)) for p in FP_POWERS]
    second = [
        FpSpec(2, (p, q)) for p, q in itertools.combinations_with_replacement(FP_POWERS, 2)
    ]
    return first + second


def _bad_values(value: np.ndarray, ok: np.ndarray) -> str:
    """The first value where ok is False, and how many are, for an error message."""
    bad = ~ok
    return f"{value[bad][0]} ({np.count_nonzero(bad)} of {value.size} values bad)"


def _scalar_or_array(a):
    """A Python float for a 0-d result, the array otherwise."""
    return float(a) if np.ndim(a) == 0 else a


def _positive(y, what: str) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise NumericalError(f"{what}, got {y[~(y > 0.0)][0]}")
    return y


def _gg_terms(logy, log_mu, log_sigma, nu: float):
    """The GG log-density at log y and the terms its gradient reuses.

    Returns (logpdf, w, nu w, z, theta, theta nu, log theta) with
    w = log y - log mu and z = exp(nu w); overflow is left to the caller to
    detect. The logpdf is
    log|nu| + theta log theta + theta nu w - theta z - lgamma(theta) - log y,
    evaluated left to right with buffers updated in place and operands only
    swapped where that is exact, so its bits are those of the formula. Every
    array returned is allocated here, so a caller may overwrite it.
    """
    from scipy import special

    log_nu = math.log(abs(nu))
    with np.errstate(over="ignore", invalid="ignore"):
        w = logy - log_mu
        log_theta = -2.0 * log_sigma
        theta = np.exp(log_theta)
        theta /= nu * nu
        nu_w = nu * w
        z = np.exp(nu_w)
        log_theta -= 2.0 * log_nu
        theta_nu = theta * nu
        # ll starts from theta nu w, which has the full broadcast shape;
        # adding (log|nu| + theta log theta) to it is the formula's first sum
        ll = theta_nu * w
        head = theta * log_theta
        head += log_nu
        ll += head
        ll -= theta * z
        ll -= special.gammaln(theta)
        ll -= logy
    return ll, w, nu_w, z, theta, theta_nu, log_theta


def gg_logpdf(y, p: GGParams):
    y = _positive(y, "support is y > 0")
    return _scalar_or_array(_gg_terms(np.log(y), np.log(p.mu), np.log(p.sigma), p.nu)[0])


def gg_cdf(y, p: GGParams):
    """P(theta, x) for nu > 0 and Q(theta, x) for nu < 0, x = theta (y / mu)^nu;
    a value that is NaN or outside [0, 1] is a NumericalError, never clamped."""
    y = _positive(y, "support is y > 0")
    theta = p.theta
    # x = inf is the exact limit: P(theta, inf) = 1 and Q(theta, inf) = 0
    with np.errstate(over="ignore"):
        x = theta * np.exp(p.nu * (np.log(y) - np.log(p.mu)))
    theta = np.broadcast_to(theta, x.shape).ravel()
    c = _gamma_ratios(theta, x.ravel(), _LGAMMA(theta).astype(float))[0 if p.nu > 0 else 1].reshape(x.shape)
    ok = (c >= 0.0) & (c <= 1.0)
    if not ok.all():
        raise NumericalError(f"the cdf must be in [0, 1], got {_bad_values(c, ok)}")
    return _scalar_or_array(c)


def gg_quantile(q, p: GGParams):
    """Closed-form inverse of gg_cdf: y = mu * (G / theta)^(1/nu), where G
    solves P(theta, G) = q for nu > 0 and Q(theta, G) = q for nu < 0."""
    q = np.asarray(q, dtype=float)
    inside = (q > 0.0) & (q < 1.0)
    if not np.all(inside):
        raise NumericalError(f"quantile probability must be in (0,1), got {q[~inside][0]}")
    theta = p.theta
    theta_b, q_b = np.broadcast_arrays(theta, q)
    g = _gamma_inverse(theta_b.ravel(), q_b.ravel(), p.nu < 0).reshape(q_b.shape)
    # an overflow, or a zero G under a negative power, is reported once below
    with np.errstate(over="ignore", divide="ignore"):
        y = np.asarray(p.mu * np.power(g / theta, 1.0 / p.nu))
    ok = np.isfinite(y)
    if not ok.all():
        qs = np.broadcast_to(q, y.shape)
        at = qs[~ok][0]  # the first probability with a bad value; only its values are counted
        raise NumericalError(f"the {at:g} quantile must be finite, got {_bad_values(y[qs == at], ok[qs == at])}")
    return _scalar_or_array(y)


def gg_sample_one(rng: "np.random.Generator", p: GGParams) -> float:
    """One draw via the gamma representation y = mu * (G/theta)^(1/nu)."""
    theta = p.theta
    g = rng.gamma(theta)
    return float(p.mu * (g / theta) ** (1.0 / p.nu))


@dataclass(frozen=True)
class GrowthModel:
    """A growth model: a fitted one, or the known truth a cohort is drawn
    from, whose fit diagnostics keep their defaults (NaN loglik and BIC).
    A fitted model's search holds fit's FitRecord of every candidate; like
    every field that takes no part in equality, it is no key of its JSON."""

    region: Region
    fp_mu: FpSpec
    mu_coef: tuple[float, ...]
    fp_sigma: Optional[FpSpec]
    sigma_coef: tuple[float, ...]
    nu: float
    scanner_intercepts: Mapping[str, float]
    ridge_lambda: float = 0.0
    converged: bool = True
    loglik: float = math.nan
    bic: float = math.nan
    search: tuple["FitRecord", ...] = field(default=(), compare=False, repr=False)


def linear_predictors(model: GrowthModel, age_years, female, scanner_id=None):
    """The model's (log mu, log sigma) at each age, sex (True for F) and scanner.

    age_years, female and scanner_id broadcast against each other. An
    unknown or absent scanner gets no intercept: a population-level value.
    """
    eta_mu = _predictor(model.mu_coef, age_years, model.fp_mu, np.asarray(female, dtype=float))
    if scanner_id is not None:
        eta_mu = eta_mu + _scanner_shift(model, scanner_id)
    return eta_mu, _predictor(model.sigma_coef, age_years, model.fp_sigma)


def _scanner_shift(model: GrowthModel, scanner_id) -> np.ndarray:
    """Each scanner id's intercept, looked up once per distinct id; an unknown one gets none, 0.0."""
    ids, where = np.unique(scanner_id, return_inverse=True)
    intercepts = np.array([model.scanner_intercepts.get(s, 0.0) for s in ids.tolist()], dtype=float)
    return intercepts[where.reshape(np.shape(scanner_id))]


def _predictor(coef, ages, spec: Optional[FpSpec], *columns):
    """coef[0] plus each further coefficient times its column, in order: the
    fractional-polynomial basis of spec at ages (none for None), then columns."""
    basis = () if spec is None else np.moveaxis(_basis_matrix(ages, spec), -1, 0)
    eta = coef[0]
    for c, column in zip(coef[1:], [*basis, *columns], strict=True):
        eta = eta + c * column
    return eta


def params_at(model: GrowthModel, age_years, female, scanner_id=None) -> GGParams:
    """The model's (mu, sigma, nu) at each age, sex and scanner; see linear_predictors."""
    eta_mu, eta_sigma = linear_predictors(model, age_years, female, scanner_id)
    # an overflow to inf is reported once, by GGParams, rather than warned per call
    with np.errstate(over="ignore"):
        return GGParams(mu=np.exp(eta_mu), sigma=np.exp(eta_sigma), nu=model.nu)


def _basis_matrix(ages, spec: FpSpec) -> np.ndarray:
    """The fractional-polynomial basis of every age: shape ages.shape + (order,).

    Power 0 means ln x, and a repeated power (p, p) expands to
    [x^p, x^p * ln x], which for p = 0 gives [ln x, (ln x)^2].
    """
    ages = np.asarray(ages, dtype=float)
    if np.any(ages <= 0.0):
        raise NumericalError(f"fractional polynomials need x > 0, got {ages[ages <= 0.0][0]}")
    log_x = np.log(ages)

    def term(p: float) -> np.ndarray:
        return log_x if p == 0.0 else ages**p

    if spec.order == 1:
        columns = [term(spec.powers[0])]
    elif spec.powers[0] == spec.powers[1]:
        columns = [term(spec.powers[0]), term(spec.powers[0]) * log_x]
    else:
        columns = [term(p) for p in spec.powers]
    return np.stack(columns, axis=-1)


def _design(ages: np.ndarray, spec: Optional[FpSpec], *columns: np.ndarray) -> np.ndarray:
    """A design matrix: an intercept column, the fractional-polynomial basis
    of spec (none for None), then any further columns."""
    basis = [] if spec is None else [_basis_matrix(ages, spec)]
    return np.column_stack([np.ones(ages.size), *basis, *columns])


def _layout(p_mu: int, n_scanners: int, p_sig: int) -> tuple[slice, slice, slice]:
    """The slices of the fit's parameter vector holding the location coefficients,
    the scanner intercepts and the scale coefficients; the shape nu is vec[-1]."""
    sc = p_mu + n_scanners
    return slice(0, p_mu), slice(p_mu, sc), slice(sc, sc + p_sig)


# The objective's value on numerical blow-up: above that of any fit, so a
# trial step that blows up is rejected, and no start ending there converges.
_BIG = 1e30


def _blown_up(vec):
    """What _neg_penalized_loglik returns on numerical blow-up."""
    return _BIG, np.zeros_like(vec), np.full((vec.size, vec.size), np.nan)


def _objective_args(logy, x_mu, x_sigma, scanner_idx, n_scanners: int, lam: float) -> tuple:
    """The arguments after vec of _neg_penalized_loglik: x_mu is also laid
    beside the scanner intercepts' one-hot design, once, for its Hessian."""
    d_mu = np.column_stack([x_mu, np.eye(n_scanners).take(scanner_idx, axis=0)])
    return logy, x_mu, d_mu, x_sigma, scanner_idx, lam


def _penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam):
    """The penalized log-likelihood at vec, laid out as _layout gives it, and
    the per-session _gg_terms behind it; (-_BIG, None) on numerical blow-up."""
    mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
    d, nu = vec[sc], vec[-1]
    if nu == 0.0:
        return -_BIG, None
    eta_mu = x_mu @ vec[mu]
    eta_mu += d[scanner_idx]
    terms = _gg_terms(logy, eta_mu, x_sigma @ vec[sig], nu)
    # a sum is finite only if every term is; a finite-term sum can still overflow
    total = float(terms[0].sum())
    if not math.isfinite(total) and not np.isfinite(terms[0]).all():
        return -_BIG, None
    return total - lam * float(d @ d), terms


def _neg_penalized_loglik(vec, logy, x_mu, d_mu, x_sigma, scanner_idx, lam):
    """Negative penalized log-likelihood, its analytic gradient and its exact
    Hessian, from one set of per-session terms (_penalized_loglik's).

    The arguments after vec are _objective_args'. On numerical blow-up it
    returns (_BIG, zeros, an all-NaN Hessian), which ends a Newton start at
    once. With a = log theta + 1 + nu w - z - digamma(theta) and
    t = 1 - theta psi'(theta), each session's terms are, in
    (eta_mu, log sigma, nu),

        g_mu    = theta nu (z - 1)
        g_sigma = -2 theta a
        g_nu    = 1/nu + theta w (1 - z) - (2 theta / nu) a

        h_mm = theta nu^2 z             h_ms = 2 theta nu (z - 1)
        h_ss = -4 theta (a + t)         h_mn = theta (z - 1 - nu w z)
        h_sn = 2 theta (w (1 - z) - 2 (a + t) / nu)
        h_nn = (1 - theta (6 a + 4 t)) / nu^2 + theta w (4 (1 - z) / nu + w z)

    The gradient is evaluated in place in _gg_terms' buffers; each term
    differs from the expression above only by exact swaps and sign flips, so
    the objective and gradient are bit for bit those of the expression. Each
    Hessian block is a design's X.T @ (h[:, None] * X), d_mu for the location
    and the scanner intercepts, plus the ridge's 2 lam on their diagonal;
    past a finite gradient an entry may still be inf or nan, and no warning
    is raised.
    """
    from scipy import special

    n_scanners = d_mu.shape[1] - x_mu.shape[1]
    pll, terms = _penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam)
    if terms is None:
        return _blown_up(vec)
    obj = -pll
    _, w, nu_w, z, theta, theta_nu, log_theta = terms
    mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
    d, nu = vec[sc], vec[-1]
    a = log_theta
    a += 1.0
    a += nu_w
    a -= z
    a -= special.digamma(theta)
    z_m1 = z - 1.0
    g_mu = theta_nu
    g_mu *= z_m1
    # theta w (1 - z) is -(theta w (z - 1)), and 1/nu + (-x) is 1/nu - x
    g_nu = theta * w
    g_nu *= z_m1
    np.subtract(1.0 / nu, g_nu, out=g_nu)
    # -2 theta gives g_sigma, and (-2 theta / nu) a is -((2 theta / nu) a)
    m2_theta = theta * -2.0
    g_sigma = m2_theta * a
    m2_theta /= nu
    m2_theta *= a
    g_nu += m2_theta
    grad = np.empty_like(vec)
    grad[mu] = x_mu.T @ g_mu
    grad[sc] = np.bincount(scanner_idx, weights=g_mu, minlength=n_scanners) - 2.0 * lam * d
    grad[sig] = x_sigma.T @ g_sigma
    grad[-1] = float(g_nu.sum())
    if not np.isfinite(grad).all():
        return _blown_up(vec)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = _one_minus_x_trigamma(theta)
        h_mm = theta * (nu * nu) * z
        h_ms = 2.0 * nu * theta * z_m1
        h_mn = theta * (z_m1 - nu_w * z)
        h_ss = -4.0 * theta * (a + t)
        h_sn = 2.0 * theta * (-w * z_m1 - 2.0 * (a + t) / nu)
        h_nn = (1.0 - theta * (6.0 * a + 4.0 * t)) / (nu * nu)
        h_nn += theta * w * (-4.0 * z_m1 / nu + w * z)
        hess = np.empty((vec.size, vec.size))
        s = sig.start
        hess[:s, :s] = d_mu.T @ (h_mm[:, None] * d_mu)
        hess[:s, sig] = d_mu.T @ (h_ms[:, None] * x_sigma)
        hess[sig, sig] = x_sigma.T @ (h_ss[:, None] * x_sigma)
        hess[:-1, -1] = np.concatenate([d_mu.T @ h_mn, x_sigma.T @ h_sn])
        hess[-1, -1] = h_nn.sum()
    hess[sig, :s] = hess[:s, sig].T
    hess[-1, :-1] = hess[:-1, -1]
    hess[sc, sc] += 2.0 * lam * np.eye(n_scanners)
    return obj, -grad, hess


# The Bernoulli numbers B_2 to B_14 of the asymptotic series of trigamma
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _one_minus_x_trigamma(x) -> np.ndarray:
    """1 - x psi'(x) for x > 0, elementwise, with no cancellation at large x.

    While the smallest x is below 6, the recurrence psi'(x) = 1/x^2 +
    psi'(x + 1) moves every x up by one; from there 1 - x psi'(x) = -1/(2x) -
    sum B_2k / x^2k. Written as a sum of those terms, not 1 - x psi'(x), it
    keeps its relative precision where x psi'(x) tends to 1.
    """
    x = np.asarray(x, dtype=float)
    xs, head, steps = x, 0.0, 0  # head: x times the recurrence's terms 1/(x + k)^2
    lowest = x.min(initial=np.inf)
    while steps < 6 and lowest + steps < 6.0:
        head = head + x / xs / xs
        xs = xs + 1.0
        steps += 1
    r = 1.0 / xs
    r2 = r * r
    series = np.full_like(r, _BERNOULLI[-1])
    for b in _BERNOULLI[-2::-1]:
        series *= r2
        series += b
    series *= r2
    tail = -0.5 * r - series  # 1 - xs psi'(xs)
    # 1 - x psi'(x) = 1 - head - (x / xs)(1 - tail), with xs - x = steps
    return tail if steps == 0 else (steps + x * tail) * r - head


# Temme's expansion serves theta >= _TEMME_THETA with |x / theta - 1| <= _TEMME_T, where a series takes
# O(sqrt(theta)) terms; Stirling's series of log Gamma(theta), sum _STIRLING[k] / theta^(2k + 1)
_TEMME_THETA, _TEMME_T = 30.0, 0.3
_STIRLING = [b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1)]
_LGAMMA, _ERFC, _EPS = np.frompyfunc(math.lgamma, 1, 1), np.frompyfunc(math.erfc, 1, 1), sys.float_info.epsilon


@functools.cache
def _temme_coefficients(k_max: int = 10, n_max: int = 20) -> np.ndarray:
    """d[k, n] of Temme's C_k(eta) = sum_n d[k, n] eta^n (DLMF 8.12.12), from
    lambda - 1 = sum alpha_n eta^n, which inverts eta^2 / 2 = lambda - 1 - log
    lambda, and g_k of Gamma*(a) = sum g_k / a^k, the exp of Stirling's series."""
    alpha = [0.0, 1.0]  # (n + 1) alpha_n = alpha_(n-1) - sum_(i=2)^(n-1) (n + 1 - i) alpha_i alpha_(n+1-i)
    for n in range(2, n_max + 2 * k_max + 1):
        alpha.append((alpha[-1] - sum((n + 1 - i) * alpha[i] * alpha[n + 1 - i] for i in range(2, n))) / (n + 1))
    g = [1.0]
    for n in range(1, k_max):
        g.append(sum(j * _STIRLING[j // 2] * g[n - j] for j in range(1, n + 1, 2)) / n)
    d = [[-1.0 / 3.0] + [(n + 2) * alpha[n + 2] for n in range(1, len(alpha) - 2)]]
    for k in range(1, k_max):
        d.append([(-1) ** k * g[k] * d[0][n] + (n + 2) * d[-1][n + 2] for n in range(len(d[-1]) - 2)])
    return np.array([row[:n_max] for row in d])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gamma_ratios(theta: np.ndarray, x: np.ndarray, lgamma: np.ndarray):
    """P(theta, x), Q = 1 - P and log D, D = x^theta e^-x / Gamma(theta), over 1-d arrays;
    lgamma = log Gamma(theta). Near x = theta at large theta Temme's expansion
    Q = erfc(eta sqrt(theta / 2)) / 2 + R serves; else P by its power series below
    x = theta + 1 or Q by its continued fraction, and the other is 1 minus it."""
    p, q, log_d = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    big, near = theta >= _TEMME_THETA, np.zeros(x.size, dtype=bool)
    log_d[~big] = theta[~big] * np.log(x[~big]) - x[~big] - lgamma[~big]
    if big.any():
        th, t = theta[big], (x[big] - theta[big]) / theta[big]
        near[big] = close = np.abs(t) <= _TEMME_T
        poly = np.polynomial.polynomial
        # theta (log(x / theta) - t) = -theta eta^2 / 2, by log1p where x is near theta
        w = np.where(close, np.log1p(t), np.log(x[big] / th)) - t
        log_d[big] = th * w + 0.5 * np.log(th / (2.0 * math.pi)) - poly.polyval(th**-2.0, _STIRLING) / th
        th, eta = th[close], np.copysign(np.sqrt(-2.0 * w[close]), t[close])
        c = poly.polyval(1.0 / th, _temme_coefficients())  # sum_k d[k, n] / theta^k
        r = poly.polyval(eta, c, tensor=False) * np.exp(-0.5 * th * eta * eta) / np.sqrt(2.0 * math.pi * th)
        q[near] = 0.5 * _ERFC(eta * np.sqrt(0.5 * th)).astype(float) + r
        p[near] = 0.5 * _ERFC(-eta * np.sqrt(0.5 * th)).astype(float) - r
    d, lower = np.exp(log_d), ~near & (x < theta + 1.0)
    upper = ~near & ~lower
    p[lower] = d[lower] / theta[lower] * _series(theta[lower], x[lower])
    # Q is 0 where D underflows (or is NaN, at x = inf): the fraction runs where it is not
    q[upper], live = 0.0, upper & (d > 0.0)
    q[live] = d[live] * _fraction(theta[live], x[live])
    q[lower], p[upper] = 1.0 - p[lower], 1.0 - q[upper]
    return p, q, log_d


def _series(theta, x):
    """sum_(n >= 0) x^n / ((theta + 1) ... (theta + n)), each element until its term is below eps of its sum."""
    total, term, live, n = np.ones_like(x), np.ones_like(x), np.ones(x.size, dtype=bool), 0
    while live.any():
        n += 1
        term *= x / (theta + n)
        np.add(total, term, out=total, where=live)
        live &= term > _EPS * total
    return total


def _fraction(theta, x):
    """Q / D by the continued fraction 1 / (x + 1 - theta - 1 (1 - theta) / (x + 3 - theta - ...)) for
    x >= theta + 1, modified Lentz, each element until its factor is within eps of 1."""
    b, c, live, i = x + 1.0 - theta, np.full_like(x, np.inf), np.ones(x.size, dtype=bool), 0
    h = d = 1.0 / b
    while live.any():
        i += 1
        a = -i * (i - theta)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        np.multiply(h, d * c, out=h, where=live)
        live &= np.abs(d * c - 1.0) > _EPS
    return h


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gamma_inverse(theta: np.ndarray, q: np.ndarray, upper: bool) -> np.ndarray:
    """G with P(theta, G) = q, or Q(theta, G) = q if upper, over 1-d arrays; 0 where G underflows.

    Halley steps in u = log G solve log f(G) = log s in the smaller tail (1 - q
    is exact past 1/2); log f is concave in u, so P starts below the root and Q
    above it, or steps there first. The starts (DiDonato and Morris 1986):
    Wilson-Hilferty for theta >= 1 (normal quantile: Abramowitz and Stegun
    26.2.23), below it the bound P <= G^theta / Gamma(theta + 1). An element stops
    after a step below 1e-6 / sqrt(max(theta, 1)), an error of order 1e-18 on u's
    scale 1 / sqrt(theta), or after 100 steps.
    """
    s, upper = np.minimum(q, 1.0 - q), (q > 0.5) != upper
    sign, r, lgamma = np.where(upper, 1.0, -1.0), np.sqrt(-2.0 * np.log(s)), _LGAMMA(theta).astype(float)
    z = r - (2.515517 + r * (0.802853 + 0.010328 * r)) / (1.0 + r * (1.432788 + r * (0.189269 + 0.001308 * r)))
    wilson = theta * np.maximum(1.0 - 1.0 / (9.0 * theta) + sign * z / (3.0 * np.sqrt(theta)), 0.0) ** 3
    small = np.exp((np.where(upper, np.log1p(-s), np.log(s)) + lgamma + np.log(theta)) / theta)
    g = np.where(theta >= 1.0, np.where(upper, wilson, np.maximum(small, wilson)), small)
    live, steps = np.flatnonzero(g > 0.0), 0
    while live.size and steps < 100:
        th, gl, sgn, steps = theta[live], g[live], sign[live], steps + 1
        lower_tail, upper_tail, log_d = _gamma_ratios(th, gl, lgamma[live])
        f = np.where(upper[live], upper_tail, lower_tail)
        # d log f / du = -+D / f, whose derivative over itself is theta - G - d log f / du
        slope = sgn * -np.exp(log_d) / f
        newton = np.where(f > 0.0, np.log(f / s[live]) / slope, sgn * np.inf)  # f = 0: the largest step
        halley = 1.0 - 0.5 * newton * (th - gl - slope)
        step = np.clip(np.where(halley > 0.5, newton / halley, newton), -2.0, 2.0)
        g[live] = gl + gl * np.expm1(-step)
        live = live[np.abs(step) * np.sqrt(np.maximum(th, 1.0)) > 1e-6]
    return g


# The largest ridge_lambda: 2 lam on the Hessian's diagonal, plus a trust-region shift as large, is finite
_MAX_RIDGE = sys.float_info.max / 4


@dataclass(frozen=True)
class FitOptions:
    """Search settings for fit(); fp_candidates None means all 44 location bases."""

    fp_candidates: Optional[Sequence[FpSpec]] = None
    sigma_age: bool = True
    ridge_lambda: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.ridge_lambda <= _MAX_RIDGE:  # false for nan too
            raise ConfigError(f"ridge_lambda must be in [0, {_MAX_RIDGE:g}], got {self.ridge_lambda}")


# The scale predictor uses a fixed first-order basis when sigma_age is on;
# candidate search applies to the location predictor only.
SIGMA_FP = FpSpec(1, (1.0,))
NU_BOUNDS = (0.05, 8.0)
# The starting shape of each start per candidate (see fit), and the iteration
# cap and per-session gradient tolerance of each start (gtol is _TOL * n).
_NU_STARTS = (1.0, 2.0, 0.5)
_MAX_ITER = 400
_TOL = 1e-3


def _pinned(nu: float, nu_grad: float) -> bool:
    """Whether the shape sits on a bound of NU_BOUNDS with its gradient
    pushing outward, so that it cannot move."""
    lo, hi = NU_BOUNDS
    return bool((nu <= lo and nu_grad > 0.0) or (nu >= hi and nu_grad < 0.0))


# A Newton start converges once its Newton step predicts a smaller decrease:
# near the optimum of an objective of about 2e4, a gradient rule spends its
# iterations in rounding noise.
_NEWTON_TOL = 1e-9


def _trust_newton(fun, x0, args=(), *, gtol, **_):
    """Minimize fun(x, *args), which returns the value, the gradient and the
    exact Hessian, by trust-region Newton steps, with no scipy: fit calls it
    through optimize.minimize only so that perfbench/tracer.py sees every start.

    Each step solves the trust-region subproblem in the Hessian's eigenbasis:
    the Newton step if the Hessian is positive definite and the step fits the
    radius, else the step to the radius with every eigenvalue shifted by the
    root of the secular equation (Nocedal and Wright, Algorithm 4.3). nu =
    x[-1] keeps within NU_BOUNDS: a step past a bound is cut back to it, and
    a _pinned nu is held there while the rest move. The Hessian is that of
    the last accepted point: a rejected step costs one evaluation.

    Its success is the fit's one verdict of convergence. The solve converges
    when an interior Newton step predicts a decrease below _NEWTON_TOL. It
    also stops after _MAX_ITER steps, on a non-finite Hessian (every
    blow-up of fun returns one), or when a step to the radius predicts
    less, and has then converged if it left every blow-up (f < _BIG) with
    a gradient below gtol, a _pinned nu's component left out.
    """
    (lo, hi), x = NU_BOUNDS, np.array(x0, dtype=float)
    f, g, h = fun(x, *args)
    # from a cold start on standardized columns a first radius of 1 was always too long
    radius, nit, nfev, success = 0.1, 0, 1, False
    while nit < _MAX_ITER:
        nit += 1
        if not np.isfinite(h).all():
            break
        k = x.size - _pinned(x[-1], g[-1])  # a pinned nu is held
        lam, v = np.linalg.eigh(h[:k, :k])
        gv = v.T @ g[:k]
        # an eigenvalue below 1e-12 of the largest counts as singular
        floor = 1e-12 * np.abs(lam).max()
        newton = lam[0] > floor and (gv / lam) @ (gv / lam) <= radius * radius
        shift = 0.0 if newton else max(0.0, -lam[0]) + floor
        for _ in range(0 if newton else 50):
            q = gv / (lam + shift)
            norm = math.sqrt(q @ q)
            if norm <= 1.001 * radius:
                break
            # a Newton step on 1/norm = 1/radius, which rises to its root
            shift += (norm / radius - 1.0) * norm * norm / (q @ (q / (lam + shift)))
        s = -gv / (lam + shift)
        pred = -(gv @ s + 0.5 * (lam * s) @ s)
        if pred < _NEWTON_TOL:
            success = bool(newton)
            break
        p = np.zeros_like(x)
        p[:k] = v @ s
        trial = x + p
        if not lo <= trial[-1] <= hi:
            bound = lo if trial[-1] < lo else hi
            cut = (bound - x[-1]) / p[-1]
            s, trial = cut * s, x + cut * p
            trial[-1] = bound
            pred = -(gv @ s + 0.5 * (lam * s) @ s)
        rho = -math.inf
        if pred > 0.0:  # not so when nu is on a bound and the step leaves it at once
            f_new, g_new, h_new = fun(trial, *args)
            nfev += 1
            rho = (f - f_new) / pred
            if rho > 0.0:
                x, f, g, h = trial, f_new, g_new, h_new
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75:
            radius = max(radius, 2.0 * math.sqrt(s @ s))
    if not success and f < _BIG:
        free = g[: x.size - _pinned(x[-1], g[-1])]
        success = bool(np.abs(free).max() < gtol)
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, success=success)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centre and scale every column after the intercept in column 0.

    Returns (standardized design, centres, scales). A column without spread
    is centred to zero and keeps scale 1.
    """
    centre = x.mean(axis=0)
    scale = x.std(axis=0)
    flat = (x == x[0]).all(axis=0)
    centre[flat] = x[0, flat]
    scale[flat] = 1.0
    centre[0], scale[0] = 0.0, 1.0
    return (x - centre) / scale, centre, scale


def _unstandardize(coef: np.ndarray, centre: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Coefficients on the original design from those on the standardized one."""
    out = coef / scale
    out[0] = coef[0] - float(out[1:] @ centre[1:])
    return out


def _standardized(coef: np.ndarray, centre: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of _unstandardize: coefficients on the standardized design."""
    out = coef * scale
    out[0] = coef[0] + float(coef[1:] @ centre[1:])
    return out


def _start_values(logy) -> tuple[float, float]:
    """The location and scale intercepts every start begins from: the log of
    the median volume and of its coefficient of variation, clamped to [1e-3, 5]."""
    y = np.exp(logy)
    med = float(np.median(y))
    # the sums behind std and mean overflow past about 1e300; NaN takes the clamp's top
    with np.errstate(over="ignore", invalid="ignore"):
        cv = float(np.std(y) / np.mean(y))
    return math.log(med), math.log(5.0 if math.isnan(cv) else min(max(cv, 1e-3), 5.0))


@dataclass(frozen=True)
class FitRecord:
    """One candidate of fit's search: its model, the Newton iterations and
    objective evaluations summed over its starts, and the start that won:
    "warm", "nested", "cold" or "seeded r"."""

    model: GrowthModel
    nit: int
    nfev: int
    start: str

    @property
    def nu_on_bound(self) -> bool:
        return self.model.nu in NU_BOUNDS


def fit(
    cohort: SessionTable, region: Region, options: FitOptions = FitOptions(), warm: Sequence[FitRecord] = ()
) -> GrowthModel:
    """Fit the growth model, selecting the location basis by BIC.

    fit_one fits one candidate basis on standardized columns by trust-region
    Newton on the exact Hessian (_trust_newton). A basis with a converged
    model in warm, an earlier fit's search, starts warm: at that model on this
    cohort's standardized columns, scanner intercepts by id (0 for one it
    lacks), the sex coefficient kept or dropped. Otherwise, or if that start
    did not converge, an FP2(p, q) basis after a converged FP1(p) or FP1(q)
    fit of this search starts at the optimum of the one with the lower
    objective, whose column x^p (or x^q) it shares, the added column's
    coefficient at 0 (Royston and Altman 1994); any other basis starts cold.
    Only while the best start so far has not converged, a start per further
    _NU_STARTS shape follows, cold with seeded jitter on its location
    coefficients. It then recentres the scanner intercepts, the shift folded
    into the intercept. The first lowest BIC = -2 loglik + k ln n wins: k
    counts all free coefficients, and loglik is unpenalized, at the recentred
    fit. The model returned keeps every candidate's FitRecord as its search.
    """
    if len(cohort) < 30:
        raise DataError(f"need at least 30 sessions, got {len(cohort)}")
    y = cohort.volume(region)
    if np.any(y <= 0.0):
        raise DataError("volumes must be positive")
    finite = np.isfinite(y)
    if not finite.all():
        raise NumericalError(f"{region.value} must be finite, got {_bad_values(y, finite)}")
    from scipy import optimize

    ages = cohort.age_years
    sex_col = cohort.female.astype(float)
    scanners, scanner_idx = np.unique(cohort.scanner_id, return_inverse=True)
    n_scanners, lam = len(scanners), options.ridge_lambda
    logy = np.log(y)
    one_sex = bool(np.all(sex_col == sex_col[0]))
    if one_sex:
        warn(__name__, "single-sex cohort: sex coefficient dropped")
    fp_sigma = SIGMA_FP if options.sigma_age else None
    x_sigma = _design(ages, fp_sigma)
    z_sigma, centre_sig, scale_sig = _standardize(x_sigma)
    start = _start_values(logy)
    newton = {"gtol": _TOL * logy.size}  # every start's options
    optima = {}  # the best start of each converged FP1 fit so far, by its power
    priors = {r.model.fp_mu: r.model for r in warm if r.model.converged and r.model.fp_sigma == fp_sigma}

    def fit_one(spec: FpSpec) -> FitRecord:
        x_mu = _design(ages, spec, *([] if one_sex else [sex_col]))
        z_mu, centre_mu, scale_mu = _standardize(x_mu)
        mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
        args = _objective_args(logy, z_mu, z_sigma, scanner_idx, n_scanners, lam)
        nested = [p for p in spec.powers if p in optima] if spec.order == 2 else []

        def starts():
            if prior := priors.get(spec):
                yield "warm", np.concatenate([
                    _standardized(np.array(prior.mu_coef[: mu.stop]), centre_mu, scale_mu),
                    _scanner_shift(prior, scanners),
                    _standardized(np.array(prior.sigma_coef), centre_sig, scale_sig),
                    [prior.nu],
                ])
            for r, nu in enumerate(_NU_STARTS):
                x0 = np.zeros(sig.stop + 1)
                x0[mu.start], x0[sig.start] = start
                x0[-1] = nu
                if r:
                    x0[mu] += np.random.default_rng(1000 + r).normal(0.0, 0.05, size=x_mu.shape[1])
                    yield f"seeded {r}", x0
                elif nested:
                    # the parent's x^p is column 1 + (its index in powers); the added one enters at 0
                    p = min(nested, key=lambda p: optima[p].fun)
                    yield "nested", np.insert(optima[p].x, mu.start + 2 - spec.powers.index(p), 0.0)
                else:
                    yield "cold", x0

        best, nit, nfev = None, 0, 0
        for kind, x0 in starts():
            res = optimize.minimize(_neg_penalized_loglik, x0, args=args, method=_trust_newton, options=newton)
            nit, nfev = nit + res.nit, nfev + res.nfev
            if best is None or res.fun < best.fun:
                best, won = res, kind
            if best.success:
                break
        if best.success and spec.order == 1:
            optima[spec.powers[0]] = best
        vec = best.x.copy()
        vec[mu] = _unstandardize(vec[mu], centre_mu, scale_mu)
        vec[sig] = _unstandardize(vec[sig], centre_sig, scale_sig)
        shift = float(np.mean(vec[sc]))
        vec[sc] -= shift
        vec[mu.start] += shift
        d = vec[sc]
        pll, _ = _penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam)
        loglik = pll + lam * float(d @ d)
        model = GrowthModel(
            region=region,
            fp_mu=spec,
            mu_coef=tuple(vec[mu].tolist() + ([0.0] if one_sex else [])),
            fp_sigma=fp_sigma,
            sigma_coef=tuple(vec[sig].tolist()),
            nu=float(vec[-1]),
            scanner_intercepts=dict(zip(scanners.tolist(), d.tolist())),
            ridge_lambda=lam,
            converged=best.success,
            loglik=float(loglik),
            bic=float(-2.0 * loglik + vec.size * math.log(len(cohort))),
        )
        return FitRecord(model, nit, nfev, won)

    records = tuple(map(fit_one, options.fp_candidates or fp_candidates()))
    return replace(min(records, key=lambda r: r.model.bic).model, search=records)


def centile(model: GrowthModel, sessions: SessionTable) -> np.ndarray:
    """Where each session's volume sits in the model's distribution, in (0,1),
    at its own age, sex and scanner; one value per session, in table order."""
    p = params_at(model, sessions.age_years, sessions.female, sessions.scanner_id)
    eps = 1e-15
    return np.clip(gg_cdf(sessions.volume(model.region), p), eps, 1.0 - eps)


def percentile_curves(
    model: GrowthModel,
    age_grid: Sequence[float],
    sex: Sex,
) -> dict[str, np.ndarray]:
    """Population-level quantile curves over an age grid, as columns:
    "age_years" and one "p<100 q>" column per PERCENTILES probability (p2.5, p50, p97.5)."""
    ages = np.asarray(age_grid, dtype=float)
    p = params_at(model, ages, sex is Sex.F)
    quantiles = gg_quantile(np.array(PERCENTILES)[:, None], p)
    return {"age_years": ages, **{f"p{100 * q:g}": y for q, y in zip(PERCENTILES, quantiles)}}


def compare_centiles(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation between two centile vectors."""
    if len(a) != len(b):
        raise DataError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 3:
        raise DataError("need at least 3 paired values")
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    ac = av - av.mean()
    bc = bv - bv.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        r = float((ac @ bc) / math.sqrt((ac @ ac) * (bc @ bc)))
    if not math.isfinite(r):
        # 0/0 for zero variance; x/0 once a sum of squares underflows
        raise DataError(f"Pearson r is {r}: zero variance, or an underflow, in a centile vector")
    return r


def model_to_dict(model: GrowthModel) -> dict:
    """The model as JSON values: its fields by name (search left out, see
    GrowthModel), the region by its value."""
    doc = asdict(replace(model, search=()))
    del doc["search"]
    return {**doc, "region": model.region.value}


# The JSON types that may hold a field of each declared type (a generic by its
# origin) and their name in an error; any other type is a dataclass, an object.
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "a whole number"),
    float: ((int, float), "a number"),
    Region: ((str,), "a string"),
    tuple: ((list, tuple), "a list"),
    abc.Mapping: ((dict,), "an object"),
}


def _field(kind, value, key: str):
    """A JSON value read as kind, a dataclass field's declared type; key is its
    path ("" for the document). A missing key raises KeyError, another JSON
    type TypeError (bool is no number), an integer past float OverflowError,
    a key that is no field or a wrong value ValueError or NumericalError."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]
        return None if value is None else _field(args[0], value, key)
    json_types, what = _JSON_TYPES.get(origin or kind, ((dict,), "an object"))
    if not isinstance(value, json_types) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key or 'a growth model'} must be {what}, got {value!r}")
    if origin is tuple:
        return tuple(_field(args[0], v, key) for v in value)
    if origin is abc.Mapping:
        return {k: _field(args[1], v, key) for k, v in value.items()}
    if is_dataclass(kind):
        at = f"{key}." if key else ""
        keyed = [f for f in fields(kind) if f.compare]  # a field outside equality is no key
        names = [f.name for f in keyed]
        if missing := [name for name in names if name not in value]:
            raise KeyError(at + missing[0])
        if unknown := [k for k in value if k not in names]:
            raise ValueError(f"unknown key {at + unknown[0]!r}")
        return kind(**{f.name: _field(f.type, value[f.name], at + f.name) for f in keyed})
    return kind(value)


def model_from_dict(doc) -> GrowthModel:
    """Inverse of model_to_dict: every field is read by its declared type
    (_field), then the coefficient counts are checked against the bases."""
    model = _field(GrowthModel, doc, "")
    # intercept, the FP terms, and the sex coefficient
    n_mu = model.fp_mu.order + 2
    if len(model.mu_coef) != n_mu:
        raise ValueError(f"mu_coef needs {n_mu} entries, got {len(model.mu_coef)}")
    n_sigma = 1 + (0 if model.fp_sigma is None else model.fp_sigma.order)
    if len(model.sigma_coef) != n_sigma:
        raise ValueError(f"sigma_coef needs {n_sigma} entries, got {len(model.sigma_coef)}")
    return model


def save_growth_model(path, model: GrowthModel) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2, sort_keys=True)
        f.write("\n")


def load_growth_model(path) -> GrowthModel:
    """Read a save_growth_model file; a malformed one is a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except UNDECODABLE_JSON as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e
    try:
        return model_from_dict(doc)
    except KeyError as e:
        raise DataError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError, NumericalError) as e:
        raise DataError(f"{path}: {e}") from e
