"""GB2 density, sampler, moments, and the weighted maximum-likelihood
fitter.  Reference values computed with mpmath at 40-digit precision."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from prodstat import gb2, kernels
from prodstat.errors import InsufficientData
from prodstat.specfun import log_beta

# (mu, nu, q, c1, n) -> E[c^n]
MOMENT_REF = [
    ((1.5, 1.0, 1.0, 1.0, 1), 2.0),
    ((2.5, 0.8, 1.2, 2.0, 1), 1.1428320798890093),
    ((2.5, 0.8, 1.2, 2.0, 2), 7.2078848745243311),
    ((3.0, 2.0, 0.7, 0.5, 1), 0.5),
    ((2.2, 2.0, 1.0, 1.0, -0.5), 1.24245697326892),
]

# (mu, nu, q, c1, c) -> pdf, ccdf
POINT_REF = [
    ((1.5, 1.0, 1.0, 1.0, 0.5), 0.54433105395181736, 0.54433105395181731),
    ((1.5, 1.0, 1.0, 1.0, 3.0), 0.046874999999999997, 0.125),
    ((2.5, 0.8, 1.2, 2.0, 10.0), 0.0016926089112572617, 0.0076357671312062371),
    ((3.0, 2.0, 0.7, 0.5, 0.1), 2.3224291446404527, 0.79684240117018109),
]

PARAM_GRID = [
    gb2.Gb2Params(1.5, 1.0, 1.0, 1.0),
    gb2.Gb2Params(2.5, 0.8, 1.2, 2.0),
    gb2.Gb2Params(3.0, 2.0, 0.7, 0.5),
]


def test_params_validation():
    with pytest.raises(ValueError):
        gb2.Gb2Params(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gb2.Gb2Params(1.5, 1.0, 1.0, -2.0)


@pytest.mark.parametrize("args,expected", MOMENT_REF)
def test_moment_reference(args, expected):
    mu, nu, q, c1, n = args
    p = gb2.Gb2Params(mu, nu, q, c1)
    assert gb2.moment(p, n) == pytest.approx(expected, rel=1e-12)


def test_moment_existence_bounds():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gb2.moment(p, 2)        # n >= mu diverges
    with pytest.raises(ValueError):
        gb2.moment(p, -1)       # n <= -nu diverges


@pytest.mark.parametrize("args,pdf_ref,ccdf_ref", POINT_REF)
def test_point_reference(args, pdf_ref, ccdf_ref):
    mu, nu, q, c1, c = args
    p = gb2.Gb2Params(mu, nu, q, c1)
    assert gb2.pdf(p, c) == pytest.approx(pdf_ref, rel=1e-12)
    assert gb2.ccdf(p, c) == pytest.approx(ccdf_ref, rel=1e-10)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_pdf_normalization(p):
    total, err = integrate.quad(lambda t: gb2.pdf(p, math.exp(t)) * math.exp(t),
                                math.log(p.c1) - 40.0, math.log(p.c1) + 40.0,
                                limit=300)
    assert total == pytest.approx(1.0, abs=2e-9)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_ccdf_pdf_consistency(p):
    # -dF_bar/dc = pdf by central differences
    for c in np.geomspace(0.05 * p.c1, 50.0 * p.c1, 25):
        h = 1e-5 * c
        fd = (gb2.ccdf(p, c - h) - gb2.ccdf(p, c + h)) / (2.0 * h)
        assert fd == pytest.approx(gb2.pdf(p, c), rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("p", PARAM_GRID)
def test_tail_constancy(p):
    # ccdf * (c/c0)^mu flattens to 1 across the far tail; the leading
    # correction decays like (c/c1)^-q, so the window start scales with 1/q
    c0 = gb2.tail_scale(p)
    w = 10.0 ** math.ceil(3.0 / min(p.q, 1.0))
    vals = [gb2.ccdf(p, x * p.c1) * (x * p.c1 / c0) ** p.mu
            for x in (w, 10.0 * w, 100.0 * w)]
    for v in vals:
        assert v == pytest.approx(1.0, rel=0.02)


def test_sampler_ks():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    draws = gb2.sample(p, 100_000, 1234)
    res = stats.kstest(draws, lambda x: 1.0 - np.array([gb2.ccdf(p, v) for v in x]))
    assert res.statistic < 0.01


def test_sampler_deterministic():
    p = gb2.Gb2Params(2.5, 0.8, 1.2, 2.0)
    a = gb2.sample(p, 1000, 77)
    b = gb2.sample(p, 1000, 77)
    assert np.array_equal(a, b)


def test_tail_scale_matches_ccdf_asymptote():
    # ccdf(c) -> (c/c0)^-mu exactly in the limit, so compare at c/c1 = 1e6
    for p in PARAM_GRID:
        c = 1e6 * p.c1
        approx = (c / gb2.tail_scale(p)) ** (-p.mu)
        assert gb2.ccdf(p, c) == pytest.approx(approx, rel=0.01)


def _pairs(c, w=None):
    if w is None:
        w = np.ones_like(c)
    return np.column_stack([c, w])


def test_fit_requires_min_observations():
    rng = np.random.default_rng(0)
    c = rng.uniform(0.5, 2.0, 99)
    with pytest.raises(InsufficientData):
        gb2.fit_mle(_pairs(c))


def test_fit_rejects_bad_values():
    c = np.linspace(0.1, 10.0, 200)
    with pytest.raises(ValueError):
        gb2.fit_mle(_pairs(c, np.full_like(c, -1.0)))
    c[0] = 0.0
    with pytest.raises(ValueError):
        gb2.fit_mle(_pairs(c))


def test_fit_recovery_basic():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 50_000, 42)
    res = gb2.fit_mle(_pairs(c))
    assert res.converged
    assert 1.45 <= res.params.mu <= 1.55
    assert res.n_obs == 50_000
    assert res.mu_stderr > 0.0


def test_fit_recovery_heavier_params():
    p = gb2.Gb2Params(2.5, 0.8, 1.2, 2.0)
    c = gb2.sample(p, 50_000, 43)
    res = gb2.fit_mle(_pairs(c))
    assert 2.4 <= res.params.mu <= 2.6


def test_fit_duplicated_dataset_identical():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 3000, 7)
    res1 = gb2.fit_mle(_pairs(c))
    res2 = gb2.fit_mle(_pairs(np.concatenate([c, c])))
    assert res2.params.mu == pytest.approx(res1.params.mu, rel=1e-9)
    assert res2.params.nu == pytest.approx(res1.params.nu, rel=1e-9)
    assert res2.params.q == pytest.approx(res1.params.q, rel=1e-9)
    assert res2.params.c1 == pytest.approx(res1.params.c1, rel=1e-9)
    assert res2.log_likelihood == pytest.approx(2.0 * res1.log_likelihood, rel=1e-9)


def test_fit_scale_equivariance():
    # the likelihood is exactly scale-equivariant
    p = gb2.Gb2Params(2.0, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 5000, 11)
    res1 = gb2.fit_mle(_pairs(c))
    res2 = gb2.fit_mle(_pairs(1000.0 * c))
    assert res2.params.mu == pytest.approx(res1.params.mu, rel=1e-5)
    assert res2.params.nu == pytest.approx(res1.params.nu, rel=1e-5)
    assert res2.params.q == pytest.approx(res1.params.q, rel=1e-5)
    assert res2.params.c1 == pytest.approx(1000.0 * res1.params.c1, rel=1e-5)


def test_fit_weighted_tilt():
    # weighting by c^a turns GB2(mu, nu) into GB2(mu - a, nu + a)
    p = gb2.Gb2Params(2.2, 2.0, 1.0, 1.0)
    c = gb2.sample(p, 30_000, 19)
    res = gb2.fit_mle(_pairs(c, c ** -0.5))
    assert res.params.mu == pytest.approx(2.7, abs=3.0 * max(res.mu_stderr, 0.02))


def test_fit_with_init_skips_multistart():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 2000, 3)
    res = gb2.fit_mle(_pairs(c), init=p)
    assert res.converged
    assert abs(res.params.mu - 1.5) < 0.2


def test_fit_deterministic():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 2000, 3)
    r1 = gb2.fit_mle(_pairs(c))
    r2 = gb2.fit_mle(_pairs(c))
    assert r1.params == r2.params
    assert r1.mu_stderr == r2.mu_stderr


# ---------------------------------------------------------------------------
# analytic derivatives and the damped-Newton bootstrap

# the panel law of the benchmark panels; a fixed 2000-observation sample
PANEL_LAW = gb2.Gb2Params(2.2, 2.0, 3.0, 1.0)
# mu_stderr of the 2000-observation sample under the former 200-replicate
# Nelder-Mead bootstrap (simplex refits from the point estimate)
SIMPLEX_ERA_MU_STDERR = 0.1842847366487273
# the same under the damped-Newton bootstrap from a simplex-found optimum;
# globalising with Newton paths moves the optimum by ~1e-7 relative
NEWTON_BOOTSTRAP_MU_STDERR = 0.18436178006625512

THETA_POINTS = [
    np.array([0.8, 0.7, 1.1, 0.05]),
    np.array([0.2, -0.5, 0.0, 0.3]),
    np.array([1.5, 1.2, -0.7, -0.4]),
]


def _panel_sample():
    return gb2.sample(PANEL_LAW, 2000, 5)


def _reference_nll(theta, lc, w, w_total, wlc_total):
    """Negative weighted log-likelihood written out from the density,
    with the data sum taken by kernels.softplus, not the fused pass."""
    lmu, lnu, lq, lc1 = theta
    mu, nu, q = math.exp(lmu), math.exp(lnu), math.exp(lq)
    data = w @ kernels.softplus(q * (lc - lc1))
    return -(w_total * (lq - log_beta(mu / q, nu / q)) + (nu - 1.0) * wlc_total
             - nu * w_total * lc1 - (mu + nu) / q * data)


def _likelihood_args(weights):
    c = _panel_sample()
    lc = np.log(c)
    w = np.ones_like(c) if weights == "unit" else np.floor(200.0 * c ** -0.5) + 1.0
    return lc, w, float(np.sum(w)), float(w @ lc)


@pytest.mark.parametrize("weights", ["unit", "workers"])
@pytest.mark.parametrize("theta", THETA_POINTS)
def test_analytic_derivatives_match_finite_differences(theta, weights):
    args = _likelihood_args(weights)

    def f(x):
        return _reference_nll(x, *args)

    val, g, h = gb2._nll_derivatives(theta, *args)
    assert val == pytest.approx(f(theta), rel=1e-13)
    eye = np.eye(4)
    hg, hh = 1e-5, 1e-4
    g_fd = np.array([(f(theta + hg * e) - f(theta - hg * e)) / (2.0 * hg)
                     for e in eye])
    h_fd = np.array([[(f(theta + hh * (ei + ej)) - f(theta + hh * (ei - ej))
                       - f(theta - hh * (ei - ej)) + f(theta - hh * (ei + ej)))
                      / (4.0 * hh * hh) for ej in eye] for ei in eye])
    assert np.array_equal(h, h.T)
    assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-6 * np.max(np.abs(g)))
    assert h == pytest.approx(h_fd, rel=1e-6, abs=1e-6 * np.max(np.abs(h)))


def test_starts_reach_one_optimum():
    # the five default starts, a start at the true law and a far start
    data = _pairs(_panel_sample())
    fits = [gb2.fit_mle(data), gb2.fit_mle(data, init=PANEL_LAW),
            gb2.fit_mle(data, init=gb2.Gb2Params(6.0, 0.3, 0.5, 5.0))]
    for res in fits:
        assert res.converged
        for name in ("mu", "nu", "q", "c1"):
            assert getattr(res.params, name) == pytest.approx(
                getattr(fits[0].params, name), rel=1e-5)
        assert res.log_likelihood == pytest.approx(fits[0].log_likelihood,
                                                   rel=1e-12)


def test_derivatives_outside_bound_are_inf():
    args = _likelihood_args("unit")
    f, g, h = gb2._nll_derivatives(np.array([31.0, 0.0, 0.0, 0.0]), *args)
    assert f == math.inf and g is None and h is None


def test_bootstrap_matches_simplex_era():
    res = gb2.fit_mle(_pairs(_panel_sample()))
    assert res.converged
    assert res.bootstrap_converged == 200
    assert res.mu_stderr == pytest.approx(SIMPLEX_ERA_MU_STDERR, rel=0.02)
    assert res.mu_stderr == pytest.approx(NEWTON_BOOTSTRAP_MU_STDERR, rel=1e-6)
    assert res.mu_stderr_hessian == pytest.approx(res.mu_stderr, rel=0.25)
    assert res.n_evaluations > res.n_iterations


def test_newton_damps_a_non_positive_definite_start():
    args = _likelihood_args("unit")
    optimum = gb2._newton(np.log([2.2, 2.0, 3.0, 1.0]), *args)
    assert optimum.converged
    start = np.array([1.5, -1.0, 1.0, 0.0])
    _, g, h = gb2._nll_derivatives(start, *args)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(h)
    _, _, lam = gb2._damped_newton_step(g, h)
    assert lam > 0.0                        # the first step is damped
    path = gb2._newton(start, *args)
    assert path.converged
    assert path.theta == pytest.approx(optimum.theta, abs=1e-3)


def test_worker_weighted_hessian_stderr_is_unit_free():
    # rescaling all weights leaves the fit and both stderrs unchanged
    c = _panel_sample()
    w = np.floor(200.0 * c ** -0.5) + 1.0
    r1 = gb2.fit_mle(_pairs(c, w))
    r2 = gb2.fit_mle(_pairs(c, 8.0 * w))
    assert r2.params.mu == pytest.approx(r1.params.mu, rel=1e-9)
    assert r2.mu_stderr_hessian == pytest.approx(r1.mu_stderr_hessian, rel=1e-6)
    assert r2.mu_stderr == pytest.approx(r1.mu_stderr, rel=1e-6)
