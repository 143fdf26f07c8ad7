import itertools
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from normcharts.errors import ConfigError, DataError, NumericalError
from normcharts import growthchart
from normcharts.growthchart import (
    FP_POWERS,
    FitOptions,
    FpSpec,
    GGParams,
    GrowthModel,
    NU_BOUNDS,
    PERCENTILES,
    _basis_matrix,
    _gg_terms,
    _layout,
    _neg_penalized_loglik,
    _objective_args,
    _one_minus_x_trigamma,
    _standardize,
    _standardized,
    _unstandardize,
    centile,
    compare_centiles,
    fit,
    fp_candidates,
    gg_cdf,
    gg_logpdf,
    gg_quantile,
    gg_sample_one,
    linear_predictors,
    load_growth_model,
    model_from_dict,
    model_to_dict,
    params_at,
    percentile_curves,
    save_growth_model,
)
from normcharts.experiments import PipelineConfig, _default_truth
from normcharts.phenotype import AggregationMethod, Region, build_sessions
from normcharts.report_text import Sex
from normcharts.synthcorpus import synth_cohort


def gg_pdf(y, p):
    return math.exp(gg_logpdf(y, p))


# --- fractional polynomial basis ---


def test_fp_basis_first_order():
    assert _basis_matrix([4.0], FpSpec(1, (0.5,))).tolist() == [[pytest.approx(2.0)]]
    assert _basis_matrix([5.0], FpSpec(1, (0.0,))).tolist() == [[pytest.approx(math.log(5.0))]]


def test_fp_basis_second_order_distinct_and_repeated():
    e = math.e
    assert _basis_matrix([e], FpSpec(2, (0.0, 0.0))).tolist() == [
        [pytest.approx(1.0), pytest.approx(1.0)]
    ]
    (out,) = _basis_matrix([2.0], FpSpec(2, (1.0, 1.0)))
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(2.0 * math.log(2.0))


def test_fp_basis_rejects_nonpositive_x():
    with pytest.raises(NumericalError, match=r"^fractional polynomials need x > 0, got 0\.0$"):
        _basis_matrix(0.0, FpSpec(1, (1.0,)))
    with pytest.raises(NumericalError, match=r"^fractional polynomials need x > 0, got -3\.0$"):
        _basis_matrix([-3.0], FpSpec(1, (2.0,)))


def scalar_fp_basis(x: float, spec: FpSpec) -> list[float]:
    """The FP basis at one x with libm's log and pow: power 0 means ln x, and
    a repeated power (p, p) gives [x^p, x^p ln x]."""

    def term(p):
        return math.log(x) if p == 0.0 else x**p

    if spec.order == 1:
        return [term(spec.powers[0])]
    p, q = spec.powers
    return [term(p), term(p) * math.log(x)] if p == q else [term(p), term(q)]


@pytest.mark.parametrize("spec", fp_candidates(), ids=str)
def test_basis_matrix_matches_scalar_basis(spec):
    # numpy's log and power differ from libm's by at most 1 ulp each; the
    # x^p * ln x column of a repeated power multiplies two such factors.
    ages = np.concatenate([np.arange(1, 7000, 7) / 365.25, [0.01, 1.0, 30.0]])
    got = _basis_matrix(ages, spec)
    want = np.asarray([scalar_fp_basis(a, spec) for a in ages.tolist()])
    assert got.shape == want.shape == (ages.size, spec.order)
    repeated = spec.order == 2 and spec.powers[0] == spec.powers[1]
    np.testing.assert_array_max_ulp(got[:, 0], want[:, 0], maxulp=1)
    if spec.order == 2:
        np.testing.assert_array_max_ulp(got[:, 1], want[:, 1], maxulp=3 if repeated else 1)


def test_basis_matrix_of_one_age_equals_its_row():
    ages = np.array([0.3, 2.0, 17.5])
    for spec in fp_candidates():
        rows = _basis_matrix(ages, spec)
        for k, age in enumerate(ages.tolist()):
            assert _basis_matrix(age, spec).tobytes() == rows[k].tobytes()


def test_basis_matrix_rejects_nonpositive_age():
    with pytest.raises(NumericalError, match=r"^fractional polynomials need x > 0, got 0\.0$"):
        _basis_matrix(np.array([1.0, 0.0]), FpSpec(1, (1.0,)))


def test_fp_candidates_count():
    cands = fp_candidates()
    assert len(cands) == 44
    assert sum(1 for c in cands if c.order == 1) == 8
    assert sum(1 for c in cands if c.order == 2) == 36
    for c in cands:
        assert all(p in FP_POWERS for p in c.powers)


# --- generalized gamma kernel ---

PARAM_GRID = [
    GGParams(mu=1.0, sigma=0.3, nu=1.0),
    GGParams(mu=5.0, sigma=0.1, nu=2.5),
    GGParams(mu=2.0, sigma=0.5, nu=-0.5),
    GGParams(mu=0.7, sigma=0.2, nu=-1.5),
    GGParams(mu=10.0, sigma=0.8, nu=1.0),
    GGParams(mu=3.0, sigma=0.15, nu=0.3),
    GGParams(mu=1.0, sigma=1.0, nu=1.5),
    GGParams(mu=100.0, sigma=0.12, nu=1.6),
    GGParams(mu=4.0, sigma=0.4, nu=3.0),
    GGParams(mu=2.5, sigma=0.25, nu=-2.0),
]


@pytest.mark.parametrize("p", PARAM_GRID)
def test_pdf_integrates_to_one(p):
    total, err = integrate.quad(lambda y: gg_pdf(y, p), 0.0, np.inf, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_nu_one_is_gamma_with_mean_mu():
    p = GGParams(mu=3.0, sigma=0.4, nu=1.0)
    mean, _ = integrate.quad(lambda y: y * gg_pdf(y, p), 0.0, np.inf, limit=200)
    assert mean == pytest.approx(p.mu, rel=1e-8)


@pytest.mark.parametrize("p", PARAM_GRID[:6])
def test_cdf_matches_pdf_quadrature(p):
    for q in (0.7, 1.3, 2.0):
        y = p.mu * q
        area, _ = integrate.quad(lambda t: gg_pdf(t, p), 0.0, y, limit=200)
        assert gg_cdf(y, p) == pytest.approx(area, abs=1e-6)


def test_cdf_monotone_increasing():
    p = GGParams(mu=2.0, sigma=0.3, nu=-0.8)
    ys = np.linspace(0.2, 8.0, 60)
    cs = [gg_cdf(y, p) for y in ys]
    assert all(b >= a for a, b in zip(cs, cs[1:]))


@pytest.mark.parametrize("p", PARAM_GRID)
def test_quantile_round_trips(p):
    for q in (0.01, 0.025, 0.5, 0.975, 0.99):
        y = gg_quantile(q, p)
        assert gg_cdf(y, p) == pytest.approx(q, abs=1e-8)


def test_quantile_against_gammaincinv():
    # closed form: y = mu * (gammaincinv(theta, q) / theta)^(1/nu) for nu > 0
    p = GGParams(mu=4.0, sigma=0.3, nu=1.7)
    theta = p.theta
    for q in (0.1, 0.5, 0.9):
        closed = p.mu * (special.gammaincinv(theta, q) / theta) ** (1.0 / p.nu)
        assert gg_quantile(q, p) == pytest.approx(closed, rel=1e-9)


def brent_quantile(q, p):
    """gg_cdf inverted by bracket expansion and Brent's method."""
    lo = hi = p.mu
    while gg_cdf(lo, p) > q:
        lo *= 0.5
    while gg_cdf(hi, p) < q:
        hi *= 2.0
    if lo == hi:
        return lo
    return optimize.brentq(lambda y: gg_cdf(y, p) - q, lo, hi, xtol=1e-300, rtol=1e-14)


QUANTILE_MUS = (1e3, 3.7e4, 1e6)
QUANTILE_SIGMAS = (0.03, 0.12, 0.5)
QUANTILE_NUS = (0.05, 0.4, 1.5, 8.0, -0.05, -0.4, -1.5, -8.0)
QUANTILE_PROBS = (0.001, 0.025, 0.3, 0.5, 0.975, 0.999)


@pytest.mark.parametrize("nu", QUANTILE_NUS)
def test_closed_form_quantile_matches_brent_reference(nu):
    worst = 0.0
    for mu, sigma, q in itertools.product(QUANTILE_MUS, QUANTILE_SIGMAS, QUANTILE_PROBS):
        p = GGParams(mu=mu, sigma=sigma, nu=nu)
        want = brent_quantile(q, p)
        worst = max(worst, abs(gg_quantile(q, p) - want) / want)
    assert worst <= 1e-9


@pytest.mark.parametrize("nu", QUANTILE_NUS)
def test_quantile_array_call_equals_scalar_calls(nu):
    grid = np.array(list(itertools.product(QUANTILE_MUS, QUANTILE_SIGMAS, QUANTILE_PROBS)))
    mu, sigma, q = grid.T
    got = gg_quantile(q, GGParams(mu=mu, sigma=sigma, nu=nu))
    want = [gg_quantile(qk, GGParams(mu=mk, sigma=sk, nu=nu)) for mk, sk, qk in grid.tolist()]
    assert all(type(w) is float for w in want)
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("nu", QUANTILE_NUS)
def test_cdf_array_call_equals_scalar_calls(nu):
    grid = np.array(list(itertools.product(QUANTILE_MUS, QUANTILE_SIGMAS, QUANTILE_PROBS)))
    mu, sigma, q = grid.T
    p = GGParams(mu=mu, sigma=sigma, nu=nu)
    y = gg_quantile(q, p)
    got = gg_cdf(y, p)
    want = [gg_cdf(yk, GGParams(mu=mk, sigma=sk, nu=nu)) for yk, mk, sk in zip(y.tolist(), mu.tolist(), sigma.tolist())]
    assert all(type(w) is float for w in want)
    assert got.tobytes() == np.array(want).tobytes()


# --- special functions against scipy.special, the oracle ---

# theta log-uniform over [1e-3, 1e7]; x anywhere, log-uniform, or within 40 standard deviations of theta
ORACLE_THETAS = st.floats(-3.0, 7.0).map(lambda e: 10.0**e)
ORACLE_PAIRS = st.one_of(
    st.tuples(ORACLE_THETAS, st.one_of(st.floats(0.0, sys.float_info.max), st.floats(-700.0, 700.0).map(math.exp))),
    st.tuples(ORACLE_THETAS, st.floats(-40.0, 40.0)).map(lambda t: (t[0], t[0] * math.exp(t[1] / math.sqrt(t[0] + 1.0)))),
)


def gamma_ratios(theta, x):
    """growthchart's P, Q and log D at each (theta, x)."""
    return growthchart._gamma_ratios(theta, x, np.array([math.lgamma(t) for t in theta.tolist()]))


def gamma_ratio_oracle(theta, x):
    """scipy's P and Q, except where scipy's power series stops at 2000 terms
    before it converges: there, above theta = 2e5 and below x = theta, it is
    off by up to 4% (theta = 1e7), and growthchart's power series summed to
    convergence, a method apart from the Temme expansion that serves there,
    is the oracle."""
    p, q = special.gammainc(theta, x), special.gammaincc(theta, x)
    cut = (theta > 2e5) & (x < theta)
    log_d = gamma_ratios(theta[cut], x[cut])[2]
    p[cut] = np.exp(log_d) / theta[cut] * growthchart._series(theta[cut], x[cut])
    q[cut] = 1.0 - p[cut]
    return p, q


@settings(deadline=None, max_examples=150)
@given(st.lists(ORACLE_PAIRS, min_size=1, max_size=40))
@example([(1e7, 1e7 * (1.0 - 3e-3)), (1e7, 1e7 * (1.0 + 3e-3)), (30.0, 39.0), (29.99, 29.99), (1e-3, 0.0),
          (1e-3, math.inf), (5.0, 1e-300), (2e5, 2e5 - 2e3)])
def test_incomplete_gamma_matches_scipy(pairs):
    theta, x = (np.array(a) for a in zip(*pairs))
    p, q, _ = gamma_ratios(theta, x)
    want_p, want_q = gamma_ratio_oracle(theta, x)
    np.testing.assert_allclose(p, want_p, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q, want_q, rtol=0.0, atol=1e-12)
    for got, want in ((p, want_p), (q, want_q)):
        tail = (want >= 1e-300) & (want <= 1e-3)
        np.testing.assert_allclose(got[tail], want[tail], rtol=1e-10)


# q in (0, 1), and log-uniform near either end
ORACLE_Q = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(-745.0, -1e-3).map(math.exp),
                     st.floats(-36.0, -1e-3).map(lambda e: -math.expm1(e)).filter(lambda q: q < 1.0))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(ORACLE_THETAS, ORACLE_Q), min_size=1, max_size=40), st.booleans())
@example([(1e7, 1e-300), (1e7, 0.5), (1e-3, 0.5), (1e-3, 1e-300), (1.0, 0.5), (0.9, 1 - 1e-16), (30.0, 0.025)], False)
@example([(1e7, 1e-300), (1e-3, 0.5), (1e-3, 1e-300), (0.5, 0.999), (2.3, 2e-164)], True)
def test_incomplete_gamma_inverse_matches_scipy_and_round_trips(pairs, upper):
    theta, q = (np.array(a) for a in zip(*pairs))
    g = growthchart._gamma_inverse(theta, q, upper)
    # scipy's inverse inherits the error of its P (see gamma_ratio_oracle) below x = theta;
    # a subnormal q has too few bits to fix G to 1e-12
    want = (special.gammainccinv if upper else special.gammaincinv)(theta, q)
    compare = (theta >= 1.0) & (q >= sys.float_info.min) & ~((theta > 2e5) & (want < theta))
    np.testing.assert_allclose(g[compare], want[compare], rtol=1e-12)
    # where G underflows, the root lies below the least double
    least = np.full(theta.size, 5e-324)
    tails = gamma_ratios(theta, least)
    under = (tails[1] <= q) if upper else (tails[0] >= q)
    assert under[g == 0.0].all()
    # elsewhere f(G) is q, to within the change four ulps of G make in f
    g, theta, q = g[g > 0.0], theta[g > 0.0], q[g > 0.0]
    p, q_tail, log_d = gamma_ratios(theta, g)
    ulps = 4.0 * np.exp(log_d) * (np.spacing(g) / g)
    assert np.all(np.abs((q_tail if upper else p) - q) <= 1e-13 + 1e-12 * q + ulps)


def test_one_minus_x_trigamma_matches_polygamma():
    x = np.logspace(-3.0, 3.0, 2001)
    np.testing.assert_allclose(
        growthchart._one_minus_x_trigamma(x), 1.0 - x * special.polygamma(1, x), rtol=1e-9
    )
    # 1 - x psi'(x) = -1/(2x) - 1/(6x^2) - ..., where 1 - x * polygamma cancels to noise
    big = np.array([1e6, 1e10, 1e100, 1e300])
    np.testing.assert_allclose(2.0 * big * growthchart._one_minus_x_trigamma(big), -1.0, rtol=1e-6)
    # beside a small x, which moves every x up the recurrence, as alone
    for x_big in big:
        got = growthchart._one_minus_x_trigamma(np.array([0.5, x_big]))
        np.testing.assert_allclose(got, [1.0 - 0.5 * special.polygamma(1, 0.5), -0.5 / x_big], rtol=1e-6)



def test_exponential_special_case():
    # theta = 1 requires sigma = 1 with nu = 1; then y ~ Exp(rate 1/mu)
    p = GGParams(mu=2.0, sigma=1.0, nu=1.0)
    assert p.theta == pytest.approx(1.0)
    for q in (0.2, 0.5, 0.8):
        assert gg_quantile(q, p) == pytest.approx(-p.mu * math.log(1.0 - q), rel=1e-9)
    assert gg_quantile(0.5, p) == pytest.approx(p.mu * math.log(2.0), rel=1e-9)


def test_logpdf_rejects_nonpositive_support():
    p = GGParams(mu=1.0, sigma=0.3, nu=1.0)
    with pytest.raises(NumericalError, match=r"^support is y > 0, got 0\.0$"):
        gg_logpdf(0.0, p)
    with pytest.raises(NumericalError, match=r"^support is y > 0, got -1\.0$"):
        gg_cdf(-1.0, p)
    with pytest.raises(NumericalError, match=r"^quantile probability must be in \(0,1\), got 0\.0$"):
        gg_quantile(0.0, p)


def test_params_validation():
    with pytest.raises(NumericalError, match=r"^mu must be finite and > 0, got -1\.0 \(1 of 1 values bad\)$"):
        GGParams(mu=-1.0, sigma=0.3, nu=1.0)
    with pytest.raises(NumericalError, match=r"^sigma must be finite and > 0, got 0\.0 \(1 of 1 values bad\)$"):
        GGParams(mu=1.0, sigma=0.0, nu=1.0)
    with pytest.raises(NumericalError, match=r"^nu must be finite and nonzero, got 0\.0$"):
        GGParams(mu=1.0, sigma=0.3, nu=0.0)
    # sigma and nu that each pass, but theta = 1/(sigma^2 nu^2) is inf or 0
    for sigma, nu, bad in ((1.0, 1e-200, "inf"), (math.exp(-400), 1.0, "inf"), (1e200, 1e200, "0.0")):
        with pytest.raises(NumericalError, match=rf"^theta must be finite and > 0, got {bad} \(1 of 1"):
            GGParams(mu=1.0, sigma=sigma, nu=nu)
    with pytest.raises(NumericalError, match=r"^theta .* got inf \(2 of 3 values bad\)$"):
        GGParams(mu=np.ones(3), sigma=np.array([1e-170, 0.5, 1e-200]), nu=1.0)


def test_sampler_matches_cdf_ks():
    rng = np.random.default_rng(42)
    p = GGParams(mu=3.0, sigma=0.25, nu=1.4)
    draws = [gg_sample_one(rng, p) for _ in range(2000)]
    u = [gg_cdf(y, p) for y in draws]
    stat = stats.kstest(u, "uniform").statistic
    assert stat < 0.05


# --- fitting machinery ---


def small_truth(scanners=("scan-00", "scan-01")):
    shifts = dict(zip(scanners, (0.03, -0.03)))
    return GrowthModel(
        region=Region.CORTICAL_GM,
        fp_mu=FpSpec(1, (0.5,)),
        mu_coef=(12.2, 0.12, -0.05),
        fp_sigma=None,
        sigma_coef=(-2.12,),
        nu=1.5,
        scanner_intercepts=shifts,
    )


def build_cohort(seed, n_sessions, truth):
    records = synth_cohort(seed=seed, n_sessions=n_sessions, truth=truth)
    sessions, _ = build_sessions(records, AggregationMethod.MEDIAN_ALL_SEQUENCES)
    return sessions


def test_objective_gradient_matches_finite_differences():
    truth = small_truth()
    cohort = build_cohort(3, 50, truth)
    logy = np.log(cohort.volume(Region.CORTICAL_GM))
    ages = cohort.age_years
    x_mu = np.column_stack([
        np.ones(len(cohort)),
        _basis_matrix(ages, FpSpec(1, (0.5,))),
        cohort.female.astype(float),
    ])
    x_sigma = np.ones((len(cohort), 1))
    _, idx = np.unique(cohort.scanner_id, return_inverse=True)
    rng = np.random.default_rng(9)
    vec = np.concatenate([
        [12.0, 0.1, -0.02], rng.normal(0, 0.02, size=2), [-2.0], [1.3],
    ])
    args = _objective_args(logy, x_mu, x_sigma, idx, 2, 1.0)
    _, grad, _ = _neg_penalized_loglik(vec, *args)
    h = 1e-6
    for k in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[k] += h
        dn[k] -= h
        fu = _neg_penalized_loglik(up, *args)[0]
        fd = _neg_penalized_loglik(dn, *args)[0]
        numeric = (fu - fd) / (2 * h)
        assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


# The objective as the plain expressions, each operation in its order, and
# the same BLAS operands (x_mu.T @ g): the in-place objective must give these
# bits. Regrouping (theta nu) w as theta (nu w), or dividing by nu or nu nu
# through a multiplication by the reciprocal, changes them.
def reference_gg_terms(logy, log_mu, log_sigma, nu):
    with np.errstate(over="ignore", invalid="ignore"):
        w = logy - log_mu
        theta = np.exp(-2.0 * log_sigma) / (nu * nu)
        z = np.exp(nu * w)
        log_theta = -2.0 * log_sigma - 2.0 * math.log(abs(nu))
        ll = (
            math.log(abs(nu))
            + theta * log_theta
            + theta * nu * w
            - theta * z
            - special.gammaln(theta)
            - logy
        )
    return ll, w, z, theta, log_theta


def reference_neg_penalized_loglik(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam):
    p_mu = x_mu.shape[1]
    p_sig = x_sigma.shape[1]
    beta_mu = vec[:p_mu]
    d = vec[p_mu : p_mu + n_scanners]
    beta_sig = vec[p_mu + n_scanners : p_mu + n_scanners + p_sig]
    nu = vec[-1]
    if nu == 0.0:
        return growthchart._BIG, np.zeros_like(vec)
    eta_mu = x_mu @ beta_mu + d[scanner_idx]
    log_sigma = x_sigma @ beta_sig
    ll, w, z, theta, log_theta = reference_gg_terms(logy, eta_mu, log_sigma, nu)
    if not np.all(np.isfinite(ll)):
        return growthchart._BIG, np.zeros_like(vec)
    penalty = lam * float(d @ d)
    obj = -(float(np.sum(ll)) - penalty)
    digam = special.digamma(theta)
    a = log_theta + 1.0 + nu * w - z - digam
    g_mu = theta * nu * (z - 1.0)
    g_sigma = -2.0 * theta * a
    g_nu = 1.0 / nu + theta * w * (1.0 - z) - (2.0 * theta / nu) * a
    grad = np.empty_like(vec)
    grad[:p_mu] = x_mu.T @ g_mu
    grad[p_mu : p_mu + n_scanners] = (
        np.bincount(scanner_idx, weights=g_mu, minlength=n_scanners) - 2.0 * lam * d
    )
    grad[p_mu + n_scanners : p_mu + n_scanners + p_sig] = x_sigma.T @ g_sigma
    grad[-1] = float(np.sum(g_nu))
    if not np.all(np.isfinite(grad)):
        return growthchart._BIG, np.zeros_like(vec)
    return obj, -grad


# The Hessian as a second evaluation of its own, from its own _gg_terms: the
# objective's Hessian, which reuses the gradient's terms, must give these bits.
def reference_neg_penalized_hessian(vec, logy, x_mu, x_sigma, scanner_idx, n_scanners, lam):
    mu, sc, sig = _layout(x_mu.shape[1], n_scanners, x_sigma.shape[1])
    nu = vec[-1]
    eta_mu = x_mu @ vec[mu]
    eta_mu += vec[sc][scanner_idx]
    _, w, nu_w, z, theta, _, log_theta = _gg_terms(logy, eta_mu, x_sigma @ vec[sig], nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = log_theta + 1.0 + nu_w - z - special.digamma(theta)
        t = _one_minus_x_trigamma(theta)
        z_m1 = z - 1.0
        h_mm = theta * (nu * nu) * z
        h_ms = 2.0 * nu * theta * z_m1
        h_mn = theta * (z_m1 - nu_w * z)
        h_ss = -4.0 * theta * (a + t)
        h_sn = 2.0 * theta * (-w * z_m1 - 2.0 * (a + t) / nu)
        h_nn = (1.0 - theta * (6.0 * a + 4.0 * t)) / (nu * nu)
        h_nn += theta * w * (-4.0 * z_m1 / nu + w * z)
        d_mu = np.column_stack([x_mu, np.eye(n_scanners).take(scanner_idx, axis=0)])
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
    return hess


# nu on both NU_BOUNDS and their negatives, zero, and anywhere in between
_NUS = st.one_of(
    st.sampled_from([NU_BOUNDS[0], NU_BOUNDS[1], -NU_BOUNDS[0], -NU_BOUNDS[1], 0.0]),
    st.floats(-NU_BOUNDS[1], NU_BOUNDS[1]),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 70),
    p_mu=st.integers(1, 4),
    p_sig=st.integers(1, 3),
    n_scanners=st.integers(1, 4),
    # coefficient scale: the larger ones overflow z, theta or the sum
    scale=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 5.0, 40.0, 400.0]),
    nu=_NUS,
    lam=st.sampled_from([0.0, 1.0, 2.5]),
)
@example(seed=1, n=50, p_mu=3, p_sig=2, n_scanners=3, scale=400.0, nu=8.0, lam=1.0)
@example(seed=2, n=50, p_mu=3, p_sig=2, n_scanners=3, scale=0.05, nu=-0.05, lam=1.0)
def test_objective_equals_reference_bit_for_bit(seed, n, p_mu, p_sig, n_scanners, scale, nu, lam):
    rng = np.random.default_rng(seed)
    logy = rng.normal(12.0, 0.5, size=n)
    x_mu = np.column_stack([np.ones(n), rng.normal(0.0, 1.5, size=(n, p_mu - 1))])
    x_sigma = np.column_stack([np.ones(n), rng.normal(0.0, 1.5, size=(n, p_sig - 1))])
    idx = rng.integers(0, n_scanners, size=n)
    vec = rng.normal(0.0, scale, size=p_mu + n_scanners + p_sig + 1)
    vec[0] += 12.0
    vec[p_mu + n_scanners] -= 2.0
    vec[-1] = nu
    args = (logy, x_mu, x_sigma, idx, n_scanners, lam)
    with np.errstate(all="ignore"):
        obj, grad, hess = _neg_penalized_loglik(vec, *_objective_args(*args))
        ref_obj, ref_grad = reference_neg_penalized_loglik(vec, *args)
        # a blow-up's Hessian is all NaN; past a finite gradient it is the reference's
        blown = obj == growthchart._BIG
        ref_hess = np.full_like(hess, np.nan) if blown else reference_neg_penalized_hessian(vec, *args)
    assert np.array_equal(obj, ref_obj, equal_nan=True) and type(obj) is type(ref_obj)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(hess, ref_hess, equal_nan=True)
    if nu != 0.0:
        with np.errstate(over="ignore"):
            mu = np.exp(x_mu @ vec[:p_mu])
            sigma = np.exp(x_sigma @ vec[p_mu + n_scanners : -1])
        if np.all(np.isfinite(mu) & (mu > 0.0) & np.isfinite(sigma) & (sigma > 0.0)):
            y = np.exp(logy)
            # arrays throughout, a scalar y, and a scalar mu and sigma
            for yy, m, s in ((y, mu, sigma), (y[0], mu, sigma), (y, mu[0], sigma[0])):
                with np.errstate(all="ignore"):
                    theta = 1.0 / (s * s * nu * nu)
                if not np.all(np.isfinite(theta) & (theta > 0.0)):
                    # a shape that overflows, or divides by zero, has no GGParams
                    with pytest.raises(NumericalError, match="^theta must be finite and > 0"):
                        GGParams(mu=m, sigma=s, nu=nu)
                    continue
                with np.errstate(all="ignore"):
                    got = gg_logpdf(yy, GGParams(mu=m, sigma=s, nu=nu))
                    ref = reference_gg_terms(np.log(yy), np.log(m), np.log(s), nu)[0]
                assert np.array_equal(got, ref, equal_nan=True)


def test_objective_keeps_an_overflowing_sum_of_finite_terms():
    # every term finite but their sum -inf: the objective is +inf, not _BIG
    n, n_scanners = 1000, 8
    logy = 12.0 + np.tile([2.0, -2.0], n // 2)
    x_mu = np.full((n, 1), 0.01)
    x_sigma = np.full((n, 1), 0.01)
    idx = np.arange(n) % n_scanners
    # theta = 0.8e305 at nu = 1, mu = exp(12)
    vec = np.concatenate([[1200.0], np.zeros(n_scanners), [-0.5 * math.log(0.8e305) / 0.01], [1.0]])
    args = (logy, x_mu, x_sigma, idx, n_scanners, 1.0)
    with np.errstate(all="ignore"):
        obj, grad, _ = _neg_penalized_loglik(vec, *_objective_args(*args))
        ref_obj, ref_grad = reference_neg_penalized_loglik(vec, *args)
    assert ref_obj == obj == math.inf
    assert np.all(np.isfinite(ref_grad)) and np.array_equal(grad, ref_grad)


def test_objective_equals_reference_along_a_fit(monkeypatch):
    """Every evaluation of a real search matches the reference."""
    cohort = build_cohort(5, 400, small_truth())
    calls = []
    real = growthchart._neg_penalized_loglik

    def both(vec, *args):
        got = real(vec, *args)
        # the reference takes the scanner count where the objective takes x_mu beside the one-hot design
        logy, x_mu, d_mu, x_sigma, idx, lam = args
        args = (logy, x_mu, x_sigma, idx, d_mu.shape[1] - x_mu.shape[1], lam)
        ref = reference_neg_penalized_loglik(vec, *args)
        finite = ref[0] < growthchart._BIG
        calls.append((got, ref, reference_neg_penalized_hessian(vec, *args) if finite else None))
        return got

    monkeypatch.setattr(growthchart, "_neg_penalized_loglik", both)
    specs = [FpSpec(2, (-1.0, 2.0))] + [FpSpec(1, (p,)) for p in FP_POWERS]
    fit(cohort, Region.CORTICAL_GM, quick_options(fp_candidates=specs))
    assert len(calls) > 20
    for (obj, grad, hess), (ref_obj, ref_grad), ref_hess in calls:
        assert obj == ref_obj and np.array_equal(grad, ref_grad)
        assert ref_hess is None or np.array_equal(hess, ref_hess)


# location design: (FP basis, sex column?), scale design: with the age term?
HESSIAN_LAYOUTS = {"two_sex": (True, True), "one_sex": (False, True), "no_sigma_age": (True, False)}


@pytest.mark.parametrize("layout", sorted(HESSIAN_LAYOUTS))
@pytest.mark.parametrize("nu", [0.06, 1.3, 7.9])
@pytest.mark.parametrize("spec", [FpSpec(1, (0.5,)), FpSpec(2, (0.0, 0.0)), FpSpec(2, (-2.0, 3.0))], ids=str)
def test_hessian_matches_central_differences_of_the_gradient(spec, nu, layout):
    with_sex, sigma_age = HESSIAN_LAYOUTS[layout]
    cohort = build_cohort(3, 200, small_truth())
    logy = np.log(cohort.volume(Region.CORTICAL_GM))
    ages = cohort.age_years
    sex = [cohort.female.astype(float)] if with_sex else []
    x_mu = _standardize(growthchart._design(ages, spec, *sex))[0]
    x_sigma = _standardize(growthchart._design(ages, growthchart.SIGMA_FP if sigma_age else None))[0]
    _, idx = np.unique(cohort.scanner_id, return_inverse=True)
    rng = np.random.default_rng(1)
    vec = np.concatenate([
        [12.2], rng.normal(0.0, 0.03, x_mu.shape[1] - 1), rng.normal(0.0, 0.02, 2),
        [-2.1], rng.normal(0.0, 0.05, x_sigma.shape[1] - 1), [nu],
    ])
    args = _objective_args(logy, x_mu, x_sigma, idx, 2, 1.0)
    hess = _neg_penalized_loglik(vec, *args)[2]
    numeric = np.empty_like(hess)
    for k in range(vec.size):
        step = np.zeros_like(vec)
        step[k] = 1e-6 * max(1.0, abs(vec[k]))
        up = _neg_penalized_loglik(vec + step, *args)[1]
        dn = _neg_penalized_loglik(vec - step, *args)[1]
        numeric[:, k] = (up - dn) / (2.0 * step[k])
    # the difference quotient loses digits to the objective's rounding at small nu
    tol = 2e-5 if nu < 0.1 else 1e-8
    np.testing.assert_allclose(hess, numeric, rtol=tol, atol=tol * np.abs(hess).max())
    assert np.array_equal(hess[-1, :], hess[:, -1])


# 9e307 and just below half the largest double made the fit warn: 2 lam, or a
# trust-region shift added to it, overflowed
@pytest.mark.parametrize(
    "ridge_lambda", [-5.0, -1e-300, math.inf, math.nan, 9e307, 1e308, math.nextafter(sys.float_info.max / 2, 0)]
)
def test_fit_options_reject_a_negative_or_non_finite_ridge(ridge_lambda):
    with pytest.raises(ConfigError, match="ridge_lambda"):
        FitOptions(ridge_lambda=ridge_lambda)
    assert FitOptions(ridge_lambda=0.0).ridge_lambda == 0.0


def test_largest_ridge_fits_without_warning():
    cohort = build_cohort(5, 300, small_truth())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(cohort, Region.CORTICAL_GM, quick_options(ridge_lambda=growthchart._MAX_RIDGE, sigma_age=True))


def quick_options(**kw):
    defaults = dict(fp_candidates=[FpSpec(1, (0.5,))], sigma_age=False)
    defaults.update(kw)
    return FitOptions(**defaults)


def test_fit_requires_minimum_cohort():
    truth = small_truth()
    cohort = build_cohort(1, 20, truth).take(slice(0, 29))
    with pytest.raises(DataError, match="^need at least 30 sessions, got 20$"):
        fit(cohort, Region.CORTICAL_GM, quick_options())


def test_linear_predictors_shift_each_session_by_its_scanners_intercept():
    # known scanners get their intercept, unknown ones none; scanner ids broadcast as ages do
    model = small_truth()
    rng = np.random.default_rng(4)
    ages, female = rng.uniform(0.5, 19.0, 12), rng.random(12) < 0.5
    scanner_id = np.array(rng.choice(["scan-00", "scan-01", "scan-99", ""], (3, 12)).tolist(), dtype=object)
    eta_mu, eta_sigma = linear_predictors(model, ages, female, scanner_id)
    base_mu, base_sigma = linear_predictors(model, ages, female)
    shift = np.array([[model.scanner_intercepts.get(s, 0.0) for s in row] for row in scanner_id.tolist()])
    assert eta_mu.shape == scanner_id.shape
    assert eta_mu.tobytes() == (base_mu + shift).tobytes()
    assert np.asarray(eta_sigma).tobytes() == np.asarray(base_sigma).tobytes()


def test_scanner_intercepts_mean_zero():
    cohort = build_cohort(5, 120, small_truth())
    model = fit(cohort, Region.CORTICAL_GM, quick_options())
    vals = list(model.scanner_intercepts.values())
    assert sum(vals) == pytest.approx(0.0, abs=1e-12)
    assert set(model.scanner_intercepts) == {"scan-00", "scan-01"}


def test_single_scanner_intercept_is_zero():
    truth = small_truth(scanners=("scan-00",))
    truth = GrowthModel(
        region=truth.region, fp_mu=truth.fp_mu, mu_coef=truth.mu_coef,
        fp_sigma=None, sigma_coef=truth.sigma_coef, nu=truth.nu,
        scanner_intercepts={"scan-00": 0.0},
    )
    cohort = build_cohort(6, 80, truth)
    model = fit(cohort, Region.CORTICAL_GM, quick_options())
    assert model.scanner_intercepts == {"scan-00": 0.0}


def test_single_sex_cohort_warns_and_zeroes_coefficient(caplog):
    cohort = build_cohort(7, 80, small_truth())
    males = replace(cohort, sex=np.full(len(cohort), "M", dtype=object))
    with caplog.at_level("WARNING"):
        model = fit(males, Region.CORTICAL_GM, quick_options())
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("normcharts.growthchart", "WARNING", "single-sex cohort: sex coefficient dropped")
    ]
    assert model.mu_coef[-1] == 0.0


def test_fit_loglik_at_least_truth_loglik():
    truth = small_truth()
    cohort = build_cohort(8, 300, truth)
    model = fit(cohort, Region.CORTICAL_GM, quick_options())
    truth_ll = sum(
        gg_logpdf(
            y, params_at(truth, age, female, scanner)
        )
        for y, age, female, scanner in zip(
            cohort.volume(Region.CORTICAL_GM).tolist(), cohort.age_years.tolist(),
            cohort.female.tolist(), cohort.scanner_id.tolist(),
        )
    )
    assert model.loglik >= truth_ll - 1e-6


def fitted_model():
    cohort = build_cohort(9, 200, small_truth())
    return fit(cohort, Region.CORTICAL_GM, quick_options()), cohort


def probe_sessions(cohort, volumes):
    """The first session of cohort once per volume, every region set to it."""
    rows = np.zeros(len(volumes), dtype=int)
    probe = cohort.take(rows)
    return replace(probe, volumes=np.repeat(np.asarray(volumes)[:, None], len(Region), axis=1))


def test_centile_of_median_volume_is_half():
    model, cohort = fitted_model()
    p = params_at(model, cohort.age_years[0], cohort.female[0], cohort.scanner_id[0])
    med = gg_quantile(0.5, p)
    (c,) = centile(model, probe_sessions(cohort, [med]))
    assert c == pytest.approx(0.5, abs=1e-8)


def test_centile_increases_with_volume():
    model, cohort = fitted_model()
    base = cohort.volume(Region.CORTICAL_GM)[0]
    cents = centile(model, probe_sessions(cohort, [base * f for f in (0.8, 0.95, 1.0, 1.05, 1.2)]))
    assert all(b > a for a, b in zip(cents, cents[1:]))


def scalar_centile(model, age_days, sex, scanner, y):
    """One session's centile with libm and scipy's scalar incomplete gamma."""
    x = age_days / 365.25
    eta = model.mu_coef[0]
    for c, b in zip(model.mu_coef[1:-1], scalar_fp_basis(x, model.fp_mu)):
        eta += c * b
    eta += model.mu_coef[-1] * (1.0 if sex == "F" else 0.0)
    eta += model.scanner_intercepts.get(scanner, 0.0)
    eta_sigma = model.sigma_coef[0]
    if model.fp_sigma is not None:
        for c, b in zip(model.sigma_coef[1:], scalar_fp_basis(x, model.fp_sigma)):
            eta_sigma += c * b
    mu, sigma, nu = math.exp(eta), math.exp(eta_sigma), model.nu
    theta = 1.0 / (sigma * sigma * nu * nu)
    z = math.exp(nu * (math.log(y) - math.log(mu)))
    c = float(special.gammainc(theta, theta * z) if nu > 0 else special.gammaincc(theta, theta * z))
    return min(max(c, 1e-15), 1.0 - 1e-15)


@pytest.mark.parametrize("nu, fp_sigma, sigma_coef", [
    (1.5, None, (-2.12,)),
    (-0.7, FpSpec(1, (1.0,)), (-2.3, 0.02)),
])
def test_batched_centile_matches_scalar_reference(nu, fp_sigma, sigma_coef):
    cohort = build_cohort(10, 300, small_truth())
    model = replace(small_truth(), nu=nu, fp_sigma=fp_sigma, sigma_coef=sigma_coef,
                    fp_mu=FpSpec(2, (-0.5, 2.0)), mu_coef=(12.1, 0.05, 0.001, -0.04))
    # extreme volumes put the cdf at 0 and 1, where the 1e-15 clamp holds it
    y = cohort.volume(Region.CORTICAL_GM).copy()
    y[:3] = (1e-3, 1e30, 1e6)
    cohort = replace(cohort, volumes=np.repeat(y[:, None], len(Region), axis=1))
    got = centile(model, cohort)
    want = [
        scalar_centile(model, age, sex, scanner, v)
        for age, sex, scanner, v in zip(cohort.age_days.tolist(), cohort.sex.tolist(),
                                        cohort.scanner_id.tolist(), y.tolist())
    ]
    assert got.shape == (len(cohort),)
    assert {got[0], got[1]} == {1e-15, 1.0 - 1e-15}
    assert np.max(np.abs(got - want)) <= 1e-12


def test_percentile_curves_match_per_age_quantiles():
    model, _ = fitted_model()
    grid = np.linspace(0.5, 19.0, 57)
    for sex in (Sex.F, Sex.M):
        curves = percentile_curves(model, grid, sex)
        assert list(curves) == ["age_years", "p2.5", "p50", "p97.5"]
        assert curves["age_years"].tolist() == grid.tolist()
        for q, column in zip(PERCENTILES, ("p2.5", "p50", "p97.5")):
            want = [gg_quantile(q, params_at(model, age, sex is Sex.F)) for age in grid.tolist()]
            assert curves[column].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("nu, fp_sigma, sigma_coef", [
    (1.5, None, (-2.12,)),
    (-0.7, FpSpec(1, (1.0,)), (-2.3, 0.02)),
])
def test_percentile_curves_equal_one_quantile_call_per_probability(nu, fp_sigma, sigma_coef):
    # one solve over a column of the probabilities, bit for bit a call per probability
    model = replace(small_truth(), nu=nu, fp_sigma=fp_sigma, sigma_coef=sigma_coef)
    grid = np.linspace(0.5, 19.0, 38)
    for sex in (Sex.F, Sex.M):
        curves = percentile_curves(model, grid, sex)
        p = params_at(model, grid, sex is Sex.F)
        for q in PERCENTILES:
            assert curves[f"p{100 * q:g}"].tobytes() == gg_quantile(q, p).tobytes()


@pytest.mark.parametrize("change", [
    {"mu_coef": (709.4, 0.05, 0.0)},  # the 0.975 curve overflows at the older ages
    {"nu": -800.0},  # G is 0 in double for 0.5 and 0.975, at every age
])
def test_percentile_curves_fail_as_the_first_failing_probability_alone(change):
    model = replace(small_truth(), **change)
    grid = np.linspace(0.5, 19.0, 38)
    p = params_at(model, grid, False)
    singles = []
    for q in PERCENTILES:
        try:
            gg_quantile(q, p)
        except NumericalError as e:
            singles.append(str(e))
    # the message names that probability and counts its values only
    with pytest.raises(NumericalError) as e:
        percentile_curves(model, grid, Sex.M)
    assert str(e.value) == singles[0]


def test_percentile_curves_ordered_and_invertible():
    model, _ = fitted_model()
    grid = [1.0, 5.0, 10.0, 15.0]
    curves = percentile_curves(model, grid, Sex.F)
    assert curves["age_years"].tolist() == grid
    assert np.all(curves["p2.5"] < curves["p50"]) and np.all(curves["p50"] < curves["p97.5"])
    p = params_at(model, grid, True)
    assert gg_cdf(curves["p97.5"], p) == pytest.approx(np.full(len(grid), 0.975), abs=1e-6)


def test_percentile_curves_reject_bad_probs(monkeypatch):
    model, _ = fitted_model()
    monkeypatch.setattr(growthchart, "PERCENTILES", (0.0, 0.5))
    with pytest.raises(NumericalError, match=r"^quantile probability must be in \(0,1\), got 0\.0$"):
        percentile_curves(model, [5.0], Sex.M)


def test_compare_centiles_reference_values():
    assert compare_centiles([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == pytest.approx(1.0)
    assert compare_centiles([0.1, 0.5, 0.9], [0.9, 0.5, 0.1]) == pytest.approx(-1.0)
    a, b = [0.1, 0.4, 0.9], [0.2, 0.5, 0.8]
    expected = float(np.corrcoef(a, b)[0, 1])
    assert compare_centiles(a, b) == pytest.approx(expected, abs=1e-12)


def test_compare_centiles_errors():
    with pytest.raises(DataError, match="^length mismatch: 2 vs 3$"):
        compare_centiles([0.1, 0.2], [0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="^need at least 3 paired values$"):
        compare_centiles([0.1, 0.2], [0.3, 0.4])
    with pytest.raises(DataError, match="^Pearson r is nan: zero variance, or an underflow, in a centile vector$"):
        compare_centiles([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
    # nonzero variances whose sums of squares underflow: r would be x/0 = inf
    with pytest.raises(DataError, match="^Pearson r is inf: zero variance, or an underflow, in a centile vector$"):
        compare_centiles([0.0, 1e-160, 2e-160], [0.0, 2e-160, 1e-160])


def test_model_json_round_trip(tmp_path):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_growth_model(path, model)
    back = load_growth_model(path)
    assert back == model
    doc = json.loads(path.read_text())
    assert model_from_dict(model_to_dict(model)) == model
    assert doc["region"] == "vol_cortical_gm"


@pytest.mark.parametrize(
    "nu, nu_grad, expected",
    [
        (NU_BOUNDS[0], 50.0, True),  # on the lower bound, pushing below it
        (NU_BOUNDS[1], -50.0, True),  # on the upper bound, pushing above it
        (NU_BOUNDS[0], -50.0, False),  # on a bound, pushing inward
        (1.5, 50.0, False),  # interior: the raw gradient decides
        (1.5, 0.5, True),
    ],
)
def test_convergence_uses_gradient_projected_on_nu_bounds(nu, nu_grad, expected):
    x0 = np.array([0.3, -0.1, nu])

    def stalled(f, grad):
        """The value f and gradient grad everywhere, and an all-NaN Hessian: the start ends at x0."""
        return lambda x: (f, np.array(grad, dtype=float), np.full((x.size, x.size), np.nan))

    res = growthchart._trust_newton(stalled(10.0, [0.2, -0.4, nu_grad]), x0, gtol=1.0)
    assert res.nit == 1 and np.array_equal(res.x, x0)
    assert res.success is expected
    # a start still at a blown-up point never converged, whatever its zero gradient says
    res = growthchart._trust_newton(stalled(growthchart._BIG, np.zeros(3)), x0, gtol=1.0)
    assert res.success is False


def test_newton_stop_converges_whatever_the_gradient_tolerance():
    # a quadratic at its minimum: the first Newton step predicts no decrease
    centre = np.array([0.3, -0.1, 1.5])
    a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])

    def quadratic(x):
        d = x - centre
        return 0.5 * d @ a @ d, a @ d, a

    res = growthchart._trust_newton(quadratic, centre, gtol=0.0)
    assert res.success is True and res.nit == 1
    assert np.array_equal(res.x, centre)


# --- standardized fit path ---


def test_standardized_objective_equals_original_objective():
    cohort = build_cohort(4, 200, small_truth())
    logy = np.log(cohort.volume(Region.CORTICAL_GM))
    ages = cohort.age_years
    n = len(cohort)
    sex = cohort.female.astype(float)
    x_mu = np.column_stack([np.ones(n), _basis_matrix(ages, FpSpec(2, (-2.0, 3.0))), sex])
    x_sigma = np.column_stack([np.ones(n), ages])
    idx = np.asarray([int(s[-2:]) for s in cohort.scanner_id])
    z_mu, c_mu, s_mu = _standardize(x_mu)
    z_sigma, c_sig, s_sig = _standardize(x_sigma)
    assert np.allclose(z_mu[:, 1:].mean(axis=0), 0.0)
    assert np.allclose(z_mu[:, 1:].std(axis=0), 1.0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vec = np.concatenate([
            [12.0], rng.normal(0.0, 0.02, size=3), rng.normal(0.0, 0.02, size=2),
            [-2.0], rng.normal(0.0, 0.02, size=1), [rng.uniform(0.5, 3.0)],
        ])
        back = vec.copy()
        back[:4] = _unstandardize(vec[:4], c_mu, s_mu)
        back[6:8] = _unstandardize(vec[6:8], c_sig, s_sig)
        f_std = _neg_penalized_loglik(vec, *_objective_args(logy, z_mu, z_sigma, idx, 2, 1.0))[0]
        f_orig = _neg_penalized_loglik(back, *_objective_args(logy, x_mu, x_sigma, idx, 2, 1.0))[0]
        assert f_std == pytest.approx(f_orig, rel=1e-10)


def test_flat_column_is_centred_not_divided():
    x = np.column_stack([np.ones(4), [0.3] * 4, [1.0, 2.0, 3.0, 4.0]])
    z, centre, scale = _standardize(x)
    assert scale[1] == 1.0 and centre[1] == 0.3
    assert np.all(z[:, 1] == 0.0)
    assert np.all(z[:, 0] == 1.0)
    coef = np.array([1.0, 0.7, 2.0])
    assert np.allclose(x @ _unstandardize(coef, centre, scale), z @ coef)


def test_same_age_cohort_fits_without_warning():
    cohort = build_cohort(12, 120, small_truth())
    cohort = replace(cohort, age_days=np.full(len(cohort), 3000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(cohort, Region.CORTICAL_GM, quick_options(sigma_age=True))
    values = list(model.mu_coef) + list(model.sigma_coef) + [model.nu, model.loglik, model.bic]
    assert all(math.isfinite(v) for v in values)


def test_same_age_cohort_is_converged_as_its_winning_start_says(monkeypatch):
    # the Newton start stops short of a Newton step here, with a gradient below gtol
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(12, 120, small_truth())
    cohort = replace(cohort, age_days=np.full(len(cohort), 3000))
    model = fit(cohort, Region.CORTICAL_GM, quick_options(sigma_age=True))
    best = min((res for _, _, res in starts), key=lambda res: res.fun)
    assert best.success is True
    assert model.converged is best.success


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_volumes_whose_sums_overflow_fit_as_the_unscaled_ones():
    # the start's mean and std of volumes near 1e306 overflow: the CV clamps to 5
    cohort = build_cohort(5, 300, small_truth())
    big = replace(cohort, volumes=cohort.volumes * 1e301)
    with np.errstate(over="ignore"):
        assert np.sum(big.volume(Region.CORTICAL_GM)) == math.inf
    model = fit(big, Region.CORTICAL_GM, quick_options(sigma_age=True))
    unscaled = fit(cohort, Region.CORTICAL_GM, quick_options(sigma_age=True))
    assert model.converged
    assert model.nu == pytest.approx(unscaled.nu, rel=1e-4)
    assert model.mu_coef[0] == pytest.approx(unscaled.mu_coef[0] + 301 * math.log(10), rel=1e-6)


def _recording_newton(monkeypatch):
    """Record each start's objective arguments, x0 and result."""
    starts, newton = [], growthchart._trust_newton

    def recording(fun, x0, args=(), **kwargs):
        x0 = x0.copy()
        res = newton(fun, x0, args, **kwargs)
        starts.append((args, x0, res))
        return res

    monkeypatch.setattr(growthchart, "_trust_newton", recording)
    return starts


def test_one_start_per_candidate_when_it_converges(monkeypatch):
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(13, 300, small_truth())
    specs = [FpSpec(1, (0.5,)), FpSpec(2, (-1.0, 2.0))]
    model = fit(cohort, Region.CORTICAL_GM, quick_options(fp_candidates=specs))
    assert model.converged
    assert len(starts) == len(specs)


def test_every_start_runs_while_none_converges(monkeypatch):
    starts = _recording_newton(monkeypatch)
    monkeypatch.setattr(growthchart, "_MAX_ITER", 1)
    cohort = build_cohort(13, 300, small_truth())
    model = fit(cohort, Region.CORTICAL_GM, quick_options())
    assert not model.converged
    assert len(starts) == len(growthchart._NU_STARTS) == 3


def test_seeded_starts_move_only_the_location_coefficients(monkeypatch):
    starts = _recording_newton(monkeypatch)
    monkeypatch.setattr(growthchart, "_MAX_ITER", 1)
    cohort = build_cohort(13, 300, small_truth())
    fit(cohort, Region.CORTICAL_GM, quick_options(sigma_age=True))
    # [intercept, FP term, sex | 2 scanner intercepts | scale intercept, age slope | nu]
    cold, *seeded = (x0 for _, x0, _ in starts)
    assert cold.size == 8 and cold[3:].tolist() == [0.0, 0.0, cold[5], 0.0, 1.0]
    for x0, nu in zip(seeded, growthchart._NU_STARTS[1:], strict=True):
        assert np.flatnonzero(x0[:-1] != cold[:-1]).tolist() == [0, 1, 2]
        assert x0[-1] == nu


def test_newton_start_that_does_not_converge_is_followed_by_a_seeded_newton_start(monkeypatch):
    # the one cold start of 4,400 (100 full searches) that did not converge
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(3, 40, replace(small_truth(), nu=5.0))
    options = quick_options(fp_candidates=[FpSpec(2, (0.0, 2.0))], sigma_age=True)
    model = fit(cohort, Region.CORTICAL_GM, options)
    (_, _, cold), (_, _, seeded) = starts
    assert not cold.success
    assert seeded.success and model.converged


@pytest.mark.parametrize("truth_nu, bound", [(0.02, NU_BOUNDS[0]), (14.0, NU_BOUNDS[1])])
def test_newton_start_ends_on_the_bound_past_which_the_best_shape_lies(monkeypatch, truth_nu, bound):
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(1, 300, replace(small_truth(), nu=truth_nu))
    model = fit(cohort, Region.CORTICAL_GM, quick_options())
    ((_, _, res),) = starts
    assert res.success
    assert model.nu == bound and model.converged
    assert model.search[0].nu_on_bound


def test_non_finite_hessian_ends_the_newton_start_unconverged_and_silent():
    cohort = build_cohort(3, 50, small_truth())
    logy = np.log(cohort.volume(Region.CORTICAL_GM))
    x_mu = np.ones((len(cohort), 1))
    x_sigma = np.ones((len(cohort), 1))
    _, idx = np.unique(cohort.scanner_id, return_inverse=True)
    # mu = exp(-1000): z = (y / mu)^nu overflows, and so does every Hessian entry it enters
    x0 = np.array([-1000.0, 0.0, 0.0, -2.0, 1.0])
    args = _objective_args(logy, x_mu, x_sigma, idx, 2, 1.0)
    assert not np.isfinite(_neg_penalized_loglik(x0, *args)[2]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = growthchart._trust_newton(_neg_penalized_loglik, x0, args, gtol=1.0)
    assert not res.success and res.nit == 1
    assert np.array_equal(res.x, x0) and res.fun == growthchart._BIG


def _starts_by_candidate(starts, specs):
    """The recorded starts of each spec, in search order: a candidate's starts share its design."""
    groups = []
    for args, x0, res in starts:
        if not groups or groups[-1][0][0][1] is not args[1]:
            groups.append([])
        groups[-1].append((args, x0, res))
    assert len(groups) == len(specs)
    return dict(zip(specs, groups))


def _cold_start(x0):
    """Whether x0 is a cold start: the two intercepts from the volumes, nu 1, else zeros."""
    nonzero = np.flatnonzero(x0[:-1])
    return bool(nonzero.size == 2 and nonzero[0] == 0 and x0[-1] == 1.0)


@pytest.mark.parametrize("layout", ["two_sex", "one_sex_no_sigma_age"])
def test_fp2_nested_start_begins_at_its_better_converged_fp1_optimum(monkeypatch, layout):
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(14, 300, small_truth())
    options = FitOptions()
    if layout.startswith("one_sex"):
        cohort = replace(cohort, sex=np.full(len(cohort), "M", dtype=object))
        options = FitOptions(sigma_age=False)
    fit(cohort, Region.CORTICAL_GM, options)
    by_spec = _starts_by_candidate(starts, fp_candidates())
    optima = {}
    for spec, group in by_spec.items():
        if spec.order == 1:
            best = min((res for _, _, res in group), key=lambda res: res.fun)
            assert best.success
            optima[spec.powers[0]] = best
    assert len(optima) == len(FP_POWERS)
    for spec, ((args, x0, res), *_) in by_spec.items():
        if spec.order == 1:
            assert _cold_start(x0)
            continue
        parent = min(spec.powers, key=lambda p: optima[p].fun)
        # [intercept, x^p, added column, ...] or [intercept, added column, x^q, ...]
        added = 2 if parent == spec.powers[0] else 1
        assert x0[added] == 0.0
        assert np.array_equal(np.delete(x0, added), optima[parent].x)
        f0 = _neg_penalized_loglik(x0, *args)[0]
        assert f0 == pytest.approx(optima[parent].fun, rel=1e-9)
        assert res.fun <= f0


def test_fp2_specs_alone_get_no_nested_start_and_keep_their_bits(monkeypatch):
    starts = _recording_newton(monkeypatch)
    cohort = build_cohort(14, 300, small_truth())
    specs = [FpSpec(2, (0.5, 0.5)), FpSpec(2, (-1.0, 2.0))]
    model = fit(cohort, Region.CORTICAL_GM, FitOptions(fp_candidates=specs))
    for (_, x0, _), *_ in _starts_by_candidate(starts, specs).values():
        assert _cold_start(x0)
    # the model this search gave before FP2 candidates had nested starts, bit for bit
    assert model.fp_mu == FpSpec(2, (0.5, 0.5))
    assert (model.loglik, model.bic, model.nu) == (-3571.274243789054, 7193.882529850013, 0.6653049236992472)
    assert model.mu_coef == (12.072879587690664, 0.2207723564645942, -0.026737921845255374, -0.047404163311510275)


# --- the search records and warm starts ---


def test_fit_keeps_one_search_record_per_candidate_and_returns_the_first_lowest_bic(monkeypatch, tmp_path):
    starts = _recording_newton(monkeypatch)
    evals, objective = [], growthchart._neg_penalized_loglik
    monkeypatch.setattr(growthchart, "_neg_penalized_loglik", lambda *a: evals.append(1) or objective(*a))
    cohort = build_cohort(14, 300, small_truth())
    model = fit(cohort, Region.CORTICAL_GM, FitOptions())
    specs = fp_candidates()
    assert [r.model.fp_mu for r in model.search] == specs
    bics = [r.model.bic for r in model.search]
    assert model == model.search[bics.index(min(bics))].model
    for record, group in zip(model.search, _starts_by_candidate(starts, specs).values(), strict=True):
        results = [res for _, _, res in group]
        assert (record.nit, record.nfev) == (sum(r.nit for r in results), sum(r.nfev for r in results))
        assert record.start == ("cold" if record.model.fp_mu.order == 1 else "nested")
        assert record.model.converged and not record.nu_on_bound and record.model.search == ()
    assert sum(r.nfev for r in model.search) == len(evals)
    # the records are no key of the model's JSON and no part of its equality
    path = tmp_path / "model.json"
    save_growth_model(path, model)
    assert "search" not in json.loads(path.read_text()) and "search" not in model_to_dict(model)
    assert load_growth_model(path) == model and load_growth_model(path).search == ()


@settings(max_examples=200, deadline=None)
@given(coef=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6), data=st.data())
def test_standardized_is_the_inverse_of_unstandardize(coef, data):
    k = len(coef) - 1
    centre = [0.0, *data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k))]
    scale = [1.0, *data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))]
    b, m, s = (np.array(v) for v in (coef, centre, scale))
    back = _unstandardize(_standardized(b, m, s), m, s)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(back[1:], b[1:], rtol=4 * eps, atol=1e-300)
    # to within rounding of each product and sum, and of a product gone subnormal
    assert abs(back[0] - b[0]) <= 8 * (k + 1) * eps * (abs(b[0]) + np.abs(b[1:] * m[1:]).sum()) + 1e-300


def _halves(cohort):
    """The two subsets of cohort that exp6 fits, sharing 92% of its sessions."""
    n = len(cohort)
    n_shared = round(0.92 * n)
    shared, only_a, only_b = np.split(np.arange(n), [n_shared, n_shared + (n - n_shared) // 2])
    return cohort.take(np.concatenate([shared, only_a])), cohort.take(np.concatenate([shared, only_b]))


def _male(cohort):
    return replace(cohort, sex=np.full(len(cohort), "M", dtype=object))


@pytest.mark.parametrize("layout", ["two_sex", "one_sex_no_sigma_age"])
def test_warm_start_begins_at_the_earlier_optimum_mapped_to_this_cohort(monkeypatch, layout):
    cohort_a, cohort_b = _halves(build_cohort(15, 300, small_truth()))
    specs = [FpSpec(1, (0.5,)), FpSpec(2, (-1.0, 2.0))]
    options = FitOptions(fp_candidates=specs)
    if layout.startswith("one_sex"):
        cohort_a, cohort_b = _male(cohort_a), _male(cohort_b)
        options = FitOptions(fp_candidates=specs, sigma_age=False)
    a = fit(cohort_a, Region.CORTICAL_GM, options)
    starts = _recording_newton(monkeypatch)
    b = fit(cohort_b, Region.CORTICAL_GM, options, a.search)
    for record, prior, ((args, x0, _),) in zip(b.search, a.search, _starts_by_candidate(starts, specs).values()):
        assert record.start == "warm" and record.model.converged
        _, z_mu, _, z_sigma, _, _ = args
        mu, sc, sig = _layout(z_mu.shape[1], 2, z_sigma.shape[1])
        # on this cohort's standardized design the start's predictors are the earlier model's
        eta_mu, eta_sigma = linear_predictors(prior.model, cohort_b.age_years, cohort_b.female)
        np.testing.assert_allclose(z_mu @ x0[mu], eta_mu, rtol=1e-12)
        np.testing.assert_allclose(z_sigma @ x0[sig], eta_sigma, rtol=1e-12)
        assert x0[sc].tolist() == [prior.model.scanner_intercepts[s] for s in ("scan-00", "scan-01")]
        assert x0[-1] == prior.model.nu


def test_unconverged_earlier_record_gives_no_warm_start(monkeypatch):
    cohort_a, cohort_b = _halves(build_cohort(15, 300, small_truth()))
    specs = [FpSpec(1, (0.5,)), FpSpec(1, (2.0,)), FpSpec(2, (0.5, 2.0))]
    a = fit(cohort_a, Region.CORTICAL_GM, FitOptions(fp_candidates=specs))
    # the earlier fit of FP1(2) and FP2(0.5, 2) said it did not converge
    warm = [replace(r, model=replace(r.model, converged=r.model.fp_mu == specs[0])) for r in a.search]
    starts = _recording_newton(monkeypatch)
    b = fit(cohort_b, Region.CORTICAL_GM, FitOptions(fp_candidates=specs), warm)
    assert [r.start for r in b.search] == ["warm", "cold", "nested"]
    assert _cold_start(_starts_by_candidate(starts, specs)[specs[1]][0][1])


def test_warm_start_that_does_not_converge_is_followed_by_the_cold_start(monkeypatch):
    cohort_a, cohort_b = _halves(build_cohort(15, 300, small_truth()))
    a = fit(cohort_a, Region.CORTICAL_GM, quick_options())
    x0s, results, newton = [], [], growthchart._trust_newton

    def warm_fails(fun, x0, *args, **kwargs):
        res = newton(fun, x0, *args, **kwargs)
        if not x0s:
            res.success, res.fun = False, growthchart._BIG
        x0s.append(x0.copy())
        results.append(res)
        return res

    monkeypatch.setattr(growthchart, "_trust_newton", warm_fails)
    b = fit(cohort_b, Region.CORTICAL_GM, quick_options(), a.search)
    assert len(x0s) == 2 and not _cold_start(x0s[0]) and _cold_start(x0s[1])
    (record,) = b.search
    assert record.start == "cold" and b.converged
    # a record sums the iterations and evaluations of every start it ran
    assert (record.nit, record.nfev) == (sum(r.nit for r in results), sum(r.nfev for r in results))


@pytest.mark.parametrize("layout", ["b_has_a_scanner_a_lacks", "b_one_sex", "a_one_sex"])
def test_warm_start_across_scanner_and_sex_layouts_fits_and_converges(monkeypatch, layout):
    shifts = {"scan-00": 0.03, "scan-01": -0.01, "scan-02": -0.02}
    cohort_a, cohort_b = _halves(build_cohort(16, 300, replace(small_truth(), scanner_intercepts=shifts)))
    if layout == "b_has_a_scanner_a_lacks":
        cohort_a = cohort_a.take(np.flatnonzero(cohort_a.scanner_id != "scan-02"))
    else:
        cohort_a, cohort_b = (cohort_a, _male(cohort_b)) if layout == "b_one_sex" else (_male(cohort_a), cohort_b)
    specs = [FpSpec(1, (0.5,)), FpSpec(2, (-1.0, 2.0))]
    options = FitOptions(fp_candidates=specs)
    a = fit(cohort_a, Region.CORTICAL_GM, options)
    cold = fit(cohort_b, Region.CORTICAL_GM, options)
    starts = _recording_newton(monkeypatch)
    b = fit(cohort_b, Region.CORTICAL_GM, options, a.search)
    for warm, record, ((args, x0, _), *_) in zip(
        b.search, cold.search, _starts_by_candidate(starts, specs).values(), strict=True
    ):
        assert warm.start == "warm" and warm.model.converged
        assert x0.size == args[2].shape[1] + args[3].shape[1] + 1
        assert warm.model.bic <= record.model.bic + 1e-6
    if layout == "b_has_a_scanner_a_lacks":
        assert x0[_layout(args[1].shape[1], 3, args[3].shape[1])[1]][2] == 0.0
    assert b.fp_mu == cold.fp_mu


def test_warm_b_ends_at_cold_b_bic_or_lower_on_criterion_07_replicates():
    # criterion 07's 50 replicate cohorts and search, each split as exp6 splits its cohort
    truth = _default_truth(PipelineConfig(n_scanners=5))
    options = FitOptions(fp_candidates=[FpSpec(1, (p,)) for p in FP_POWERS], sigma_age=False)
    for rep_seed in range(100, 150):
        cohort_a, cohort_b = _halves(build_cohort(rep_seed, 300, truth))
        a = fit(cohort_a, Region.CORTICAL_GM, options)
        b = fit(cohort_b, Region.CORTICAL_GM, options, a.search)
        cold = fit(cohort_b, Region.CORTICAL_GM, options)
        assert b.fp_mu == cold.fp_mu
        for warm, record in zip(b.search, cold.search, strict=True):
            assert warm.start == "warm" and warm.model.converged
            assert warm.model.bic <= record.model.bic + 1e-6
