"""Normative growth-chart modeling on a generalized gamma backbone.

Distribution: with z = (y/mu)^nu and theta = 1/(sigma^2 nu^2),

    pdf(y) = |nu| * theta^theta * z^theta * exp(-theta z) / (Gamma(theta) * y)

evaluated in log space throughout. mu and sigma are modeled through log
links. The location predictor is an intercept, a fractional-polynomial basis
of age in years, a sex indicator (1 for F), and per-scanner intercepts kept
mean-zero by a ridge penalty. sigma is log-linear with an optional
fractional-polynomial age term; nu is a constant shape.

scipy.special and scipy.optimize are imported inside the functions that call
them: every CLI command imports this module, and most never fit or score.
"""

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError
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
    from scipy import special

    y = _positive(y, "support is y > 0")
    theta = p.theta
    # x = inf is the exact limit: P(theta, inf) = 1 and Q(theta, inf) = 0
    with np.errstate(over="ignore"):
        x = theta * np.exp(p.nu * (np.log(y) - np.log(p.mu)))
    c = special.gammainc(theta, x) if p.nu > 0 else special.gammaincc(theta, x)
    return _scalar_or_array(c)


def gg_quantile(q, p: GGParams):
    """Closed-form inverse of gg_cdf: y = mu * (G / theta)^(1/nu), where G
    solves P(theta, G) = q for nu > 0 and Q(theta, G) = q for nu < 0."""
    from scipy import special

    q = np.asarray(q, dtype=float)
    inside = (q > 0.0) & (q < 1.0)
    if not np.all(inside):
        raise NumericalError(f"quantile probability must be in (0,1), got {q[~inside][0]}")
    theta = p.theta
    g = special.gammaincinv(theta, q) if p.nu > 0 else special.gammainccinv(theta, q)
    # an overflow, or a zero G under a negative power, is reported once below
    with np.errstate(over="ignore", divide="ignore"):
        y = np.asarray(p.mu * np.power(g / theta, 1.0 / p.nu))
    ok = np.isfinite(y)
    if not ok.all():
        at = np.broadcast_to(q, y.shape)[~ok][0]
        raise NumericalError(f"the {at:g} quantile must be finite, got {_bad_values(y, ok)}")
    return _scalar_or_array(y)


def gg_sample_one(rng: np.random.Generator, p: GGParams) -> float:
    """One draw via the gamma representation y = mu * (G/theta)^(1/nu)."""
    theta = p.theta
    g = rng.gamma(theta)
    return float(p.mu * (g / theta) ** (1.0 / p.nu))


@dataclass(frozen=True)
class GrowthModel:
    """A growth model: a fitted one, or the known truth a cohort is drawn
    from, whose fit diagnostics keep their defaults (NaN loglik and BIC)."""

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


def linear_predictors(model: GrowthModel, age_years, female, scanner_id=None):
    """The model's (log mu, log sigma) at each age, sex (True for F) and scanner.

    age_years, female and scanner_id broadcast against each other. An
    unknown or absent scanner gets no intercept: a population-level value.
    """
    age_years = np.asarray(age_years, dtype=float)
    basis = _basis_matrix(age_years, model.fp_mu)
    eta_mu = model.mu_coef[0]
    for k in range(model.fp_mu.order):
        eta_mu = eta_mu + model.mu_coef[1 + k] * basis[..., k]
    eta_mu = eta_mu + model.mu_coef[-1] * np.asarray(female, dtype=float)
    if scanner_id is not None:
        shift = np.frompyfunc(lambda s: model.scanner_intercepts.get(s, 0.0), 1, 1)
        eta_mu = eta_mu + np.asarray(shift(scanner_id), dtype=float)
    eta_sigma = model.sigma_coef[0]
    if model.fp_sigma is not None:
        basis = _basis_matrix(age_years, model.fp_sigma)
        for k in range(model.fp_sigma.order):
            eta_sigma = eta_sigma + model.sigma_coef[1 + k] * basis[..., k]
    return eta_mu, eta_sigma


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


_BIG = 1e30


def _neg_penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam):
    """Negative penalized log-likelihood and its analytic gradient.

    vec is laid out as _layout gives it. Returns (_BIG, zeros) on numerical
    blow-up so the optimizer backs off. The gradient terms, per session, are

        g_mu    = theta nu (z - 1)
        g_sigma = -2 theta a,  a = log theta + 1 + nu w - z - digamma(theta)
        g_nu    = 1/nu + theta w (1 - z) - (2 theta / nu) a

    evaluated in place in _gg_terms' buffers; each differs from the
    expression above only by exact swaps and sign flips, so the objective and
    gradient are bit for bit those of the expression.
    """
    from scipy import special

    mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
    beta_mu, d, beta_sig, nu = vec[mu], vec[sc], vec[sig], vec[-1]
    if nu == 0.0:
        return _BIG, np.zeros_like(vec)
    eta_mu = x_mu @ beta_mu
    eta_mu += d[scanner_idx]
    log_sigma = x_sigma @ beta_sig
    ll, w, nu_w, z, theta, theta_nu, log_theta = _gg_terms(logy, eta_mu, log_sigma, nu)
    # a sum is finite only if every term is; a finite-term sum can still overflow
    total = float(ll.sum())
    if not math.isfinite(total) and not np.isfinite(ll).all():
        return _BIG, np.zeros_like(vec)
    obj = -(total - lam * float(d @ d))
    a = log_theta
    a += 1.0
    a += nu_w
    a -= z
    a -= special.digamma(theta)
    z_m1 = z
    z_m1 -= 1.0
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
        return _BIG, np.zeros_like(vec)
    return obj, -grad


@dataclass(frozen=True)
class FitOptions:
    """Search settings for fit(); fp_candidates None means all 44 location bases."""

    fp_candidates: Optional[Sequence[FpSpec]] = None
    sigma_age: bool = True
    ridge_lambda: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.ridge_lambda < math.inf:  # false for nan too
            raise ConfigError(f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda}")


# The scale predictor uses a fixed first-order basis when sigma_age is on;
# candidate search applies to the location predictor only.
SIGMA_FP = FpSpec(1, (1.0,))
NU_BOUNDS = (0.05, 8.0)
# The starting shape of each L-BFGS-B start per candidate (see _fit_one), the
# iteration cap of one start, and the gradient tolerance per session of _converged.
_NU_STARTS = (1.0, 2.0, 0.5)
_MAX_ITER = 400
_TOL = 1e-3


def _converged(res, tol: float) -> bool:
    """Whether a fit converged: the minimiser says so, or its gradient
    projected onto the bounds is below tol.  A shape component sitting on a
    bound of NU_BOUNDS and pushing outward cannot move, so it counts as zero.
    """
    grad = np.array(res.jac, dtype=float)
    nu, (lo, hi) = res.x[-1], NU_BOUNDS
    if (nu <= lo and grad[-1] > 0.0) or (nu >= hi and grad[-1] < 0.0):
        grad[-1] = 0.0
    return bool(res.success or np.max(np.abs(grad)) < tol)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centre and scale every column after the intercept in column 0.

    Returns (standardized design, centres, scales). A column without spread
    is centred to zero and keeps scale 1.
    """
    centre = x.mean(axis=0)
    scale = x.std(axis=0)
    flat = np.ptp(x, axis=0) == 0.0
    centre[flat] = x[0, flat]
    scale[flat] = 1.0
    centre[0], scale[0] = 0.0, 1.0
    return (x - centre) / scale, centre, scale


def _unstandardize(coef: np.ndarray, centre: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Coefficients on the original design from those on the standardized one."""
    out = coef / scale
    out[0] = coef[0] - float(out[1:] @ centre[1:])
    return out


def _start_values(logy) -> tuple[float, float]:
    """The location and scale intercepts every start begins from: the log of
    the median volume and of its coefficient of variation, clamped to [1e-3, 5]."""
    y = np.exp(logy)
    med = float(np.median(y))
    cv = float(np.std(y) / np.mean(y))
    return math.log(med), math.log(min(max(cv, 1e-3), 5.0))


def _fit_one(logy, x_mu, sigma_design, scanner_idx, n_scanners, ridge_lambda, start):
    """Fit one design by L-BFGS-B in the standardized parametrization.

    sigma_design is _standardize of the scale design and start is
    _start_values(logy); neither depends on the location basis. Returns the
    coefficient vector on the original design and whether the fit converged.
    A further seeded start runs, one per _NU_STARTS shape, only while the
    best start so far has not converged.
    """
    from scipy import optimize

    z_mu, centre_mu, scale_mu = _standardize(x_mu)
    z_sigma, centre_sig, scale_sig = sigma_design
    mu, sc, sig = _layout(x_mu.shape[1], n_scanners, z_sigma.shape[1])
    # one bound per entry of the vector: the coefficients are free, nu is not
    bounds = [(None, None)] * sig.stop + [NU_BOUNDS]
    best, converged = None, False
    for r, nu in enumerate(_NU_STARTS):
        x0 = np.zeros(len(bounds))
        x0[mu.start], x0[sig.start] = start
        x0[-1] = nu
        if r > 0:
            rng = np.random.default_rng(1000 + r)
            x0[mu] += rng.normal(0.0, 0.05, size=x_mu.shape[1])
        res = optimize.minimize(
            _neg_penalized_loglik,
            x0,
            args=(logy, z_mu, z_sigma, scanner_idx, n_scanners, ridge_lambda),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _MAX_ITER, "ftol": 1e-12, "gtol": 1e-8},
        )
        if best is None or res.fun < best.fun:
            best = res
            converged = _converged(best, _TOL * logy.size)
        if converged:
            break
    vec = best.x.copy()
    vec[mu] = _unstandardize(vec[mu], centre_mu, scale_mu)
    vec[sig] = _unstandardize(vec[sig], centre_sig, scale_sig)
    return vec, converged


def fit(cohort: SessionTable, region: Region, options: FitOptions = FitOptions()) -> GrowthModel:
    """Fit the growth model, selecting the location basis by BIC.

    Every candidate basis is fit by L-BFGS-B with analytic gradients on
    standardized design columns, restarting from a seeded start only while
    no start has converged; BIC = -2 loglik + k ln n over all free
    coefficients decides. Scanner intercepts are exactly recentered after
    the fit, with the shift folded into the intercept.
    """
    if len(cohort) < 30:
        raise DataError(f"need at least 30 sessions, got {len(cohort)}")
    y = cohort.volume(region)
    if np.any(y <= 0.0):
        raise DataError("volumes must be positive")
    ages = cohort.age_years
    sex_col = cohort.female.astype(float)
    scanners, scanner_idx = np.unique(cohort.scanner_id, return_inverse=True)
    n_scanners, lam = len(scanners), options.ridge_lambda
    logy = np.log(y)
    one_sex = bool(np.all(sex_col == sex_col[0]))
    if one_sex:
        import logging  # here, so that importing the CLI stays as cheap as it is

        logging.getLogger(__name__).warning("single-sex cohort: sex coefficient dropped")
    fp_sigma = SIGMA_FP if options.sigma_age else None
    x_sigma = _design(ages, fp_sigma)
    sigma_design = _standardize(x_sigma)
    start = _start_values(logy)
    candidates = list(options.fp_candidates) if options.fp_candidates else fp_candidates()
    best_model = None
    for spec in candidates:
        x_mu = _design(ages, spec, *([] if one_sex else [sex_col]))
        vec, converged = _fit_one(logy, x_mu, sigma_design, scanner_idx, n_scanners, lam, start)
        mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
        shift = float(np.mean(vec[sc]))
        vec[sc] -= shift
        vec[mu.start] += shift
        # unpenalized loglik at the centered parameters, for BIC
        obj, _ = _neg_penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam)
        d = vec[sc]
        loglik = -obj + lam * float(d @ d)
        model = GrowthModel(
            region=region,
            fp_mu=spec,
            mu_coef=tuple(vec[mu].tolist() + ([0.0] if one_sex else [])),
            fp_sigma=fp_sigma,
            sigma_coef=tuple(vec[sig].tolist()),
            nu=float(vec[-1]),
            scanner_intercepts=dict(zip(scanners.tolist(), d.tolist())),
            ridge_lambda=lam,
            converged=converged,
            loglik=float(loglik),
            bic=float(-2.0 * loglik + vec.size * math.log(len(cohort))),
        )
        if best_model is None or model.bic < best_model.bic:
            best_model = model
    return best_model


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
    curves = {"age_years": ages}
    for q in PERCENTILES:
        curves[f"p{100 * q:g}"] = gg_quantile(q, p)
    return curves


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
    """The model as JSON values: its fields by name, the region by its value."""
    return {**asdict(model), "region": model.region.value}


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_number(v, key) for v in value)


def _fp_spec(value, key: str) -> FpSpec:
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be an object, got {value!r}")
    return FpSpec(value["order"], _numbers(value["powers"], f"{key}.powers"))


def model_from_dict(doc: dict) -> GrowthModel:
    """Inverse of model_to_dict; a missing key raises KeyError, a wrong type
    TypeError and a wrong value ValueError or NumericalError."""
    if not isinstance(doc, dict):
        raise TypeError(f"a growth model must be an object, got {type(doc).__name__}")
    fp_mu = _fp_spec(doc["fp_mu"], "fp_mu")
    fp_sigma = None if doc.get("fp_sigma") is None else _fp_spec(doc["fp_sigma"], "fp_sigma")
    mu_coef = _numbers(doc["mu_coef"], "mu_coef")
    sigma_coef = _numbers(doc["sigma_coef"], "sigma_coef")
    # intercept, the FP terms, and the sex coefficient
    if len(mu_coef) != fp_mu.order + 2:
        raise ValueError(f"mu_coef needs {fp_mu.order + 2} entries, got {len(mu_coef)}")
    n_sigma = 1 + (0 if fp_sigma is None else fp_sigma.order)
    if len(sigma_coef) != n_sigma:
        raise ValueError(f"sigma_coef needs {n_sigma} entries, got {len(sigma_coef)}")
    intercepts = doc["scanner_intercepts"]
    if not isinstance(intercepts, dict):
        raise TypeError(f"scanner_intercepts must be an object, got {intercepts!r}")
    if not isinstance(doc["converged"], bool):
        raise TypeError(f"converged must be true or false, got {doc['converged']!r}")
    return GrowthModel(
        region=Region(doc["region"]),
        fp_mu=fp_mu,
        mu_coef=mu_coef,
        fp_sigma=fp_sigma,
        sigma_coef=sigma_coef,
        nu=_number(doc["nu"], "nu"),
        scanner_intercepts={k: _number(v, "scanner_intercepts") for k, v in intercepts.items()},
        ridge_lambda=_number(doc["ridge_lambda"], "ridge_lambda"),
        converged=doc["converged"],
        loglik=_number(doc["loglik"], "loglik"),
        bic=_number(doc["bic"], "bic"),
    )


def save_growth_model(path, model: GrowthModel) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2, sort_keys=True)
        f.write("\n")


def load_growth_model(path) -> GrowthModel:
    """Read a save_growth_model file; a malformed one is a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e
    try:
        return model_from_dict(doc)
    except KeyError as e:
        raise DataError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, NumericalError) as e:
        raise DataError(f"{path}: {e}") from e
