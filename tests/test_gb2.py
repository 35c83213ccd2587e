"""GB2 density, sampler, moments, and the weighted maximum-likelihood
fitter.  Reference values computed with mpmath at 40-digit precision."""

import math
import re
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

from panelgen import write_panel
from prodstat import gb2, ingest, kernels
from prodstat.errors import InsufficientData
from prodstat.gb2 import log_beta

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


def test_sampler_refuses_draws_that_are_not_finite_positive():
    # at nu/q = 0.015 and mu/q = 0.025 a beta draw can round to 1.0,
    # where c = inf, or to 0.0, where c = 0
    p = gb2.Gb2Params(2.5, 1.5, 100.0, 1.0)
    b = np.random.default_rng(1).beta(0.015, 0.025, size=2000)
    bad = np.count_nonzero((b == 0.0) | (b == 1.0))
    assert bad > 0
    with pytest.raises(ValueError, match=re.escape(
            f"{bad} of 2000 draws are not finite positive floats for {p!r}")):
        gb2.sample(p, 2000, 1)


def test_tail_scale_matches_ccdf_asymptote():
    # ccdf(c) -> (c/c0)^-mu exactly in the limit, so compare at c/c1 = 1e6
    for p in PARAM_GRID:
        c = 1e6 * p.c1
        approx = (c / gb2.tail_scale(p)) ** (-p.mu)
        assert gb2.ccdf(p, c) == pytest.approx(approx, rel=0.01)


def test_digamma_and_trigamma_match_scipy():
    # digamma changes sign near 1.46, so it is held to 1e-12 absolute or
    # relative; trigamma is positive and held to 1e-13 relative
    for x in np.geomspace(1e-3, 1e6, 901).tolist():
        psi, tri = gb2._psi01(x)
        ref_psi, ref_tri = special.digamma(x), special.polygamma(1, x)
        assert abs(psi - ref_psi) <= 1e-12 * max(1.0, abs(ref_psi))
        assert tri == pytest.approx(ref_tri, rel=1e-13, abs=0.0)


def test_reg_inc_beta_matches_scipy_on_a_grid():
    # both sides of the continued fraction's switch at z = (s+1)/(s+t+2);
    # the smallest value on the grid is about 1e-203
    shapes = np.geomspace(0.05, 50.0, 10).tolist()
    for z in (1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
        for s in shapes:
            for t in shapes:
                assert gb2.reg_inc_beta(z, s, t) == pytest.approx(
                    special.betainc(s, t, z), rel=1e-12, abs=0.0)


def test_fit_requires_min_observations():
    rng = np.random.default_rng(0)
    c = rng.uniform(0.5, 2.0, 99)
    with pytest.raises(InsufficientData):
        gb2.fit_mle(c)


def test_fit_rejects_bad_values():
    c = np.linspace(0.1, 10.0, 200)
    with pytest.raises(ValueError):
        gb2.fit_mle(c, np.full_like(c, -1.0))
    c[0] = 0.0
    with pytest.raises(ValueError):
        gb2.fit_mle(c)


def test_fit_recovery_basic():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 50_000, 42)
    res = gb2.fit_mle(c)
    assert res.converged
    assert 1.45 <= res.params.mu <= 1.55
    assert res.n_obs == 50_000
    assert res.mu_stderr > 0.0


def test_fit_recovery_heavier_params():
    p = gb2.Gb2Params(2.5, 0.8, 1.2, 2.0)
    c = gb2.sample(p, 50_000, 43)
    res = gb2.fit_mle(c)
    assert 2.4 <= res.params.mu <= 2.6


def test_fit_duplicated_dataset_identical():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 3000, 7)
    res1 = gb2.fit_mle(c)
    res2 = gb2.fit_mle(np.concatenate([c, c]))
    assert res2.params.mu == pytest.approx(res1.params.mu, rel=1e-9)
    assert res2.params.nu == pytest.approx(res1.params.nu, rel=1e-9)
    assert res2.params.q == pytest.approx(res1.params.q, rel=1e-9)
    assert res2.params.c1 == pytest.approx(res1.params.c1, rel=1e-9)
    assert res2.log_likelihood == pytest.approx(2.0 * res1.log_likelihood, rel=1e-9)


def test_fit_scale_equivariance():
    # the likelihood is exactly scale-equivariant
    p = gb2.Gb2Params(2.0, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 5000, 11)
    res1 = gb2.fit_mle(c)
    res2 = gb2.fit_mle(1000.0 * c)
    assert res2.params.mu == pytest.approx(res1.params.mu, rel=1e-5)
    assert res2.params.nu == pytest.approx(res1.params.nu, rel=1e-5)
    assert res2.params.q == pytest.approx(res1.params.q, rel=1e-5)
    assert res2.params.c1 == pytest.approx(1000.0 * res1.params.c1, rel=1e-5)


def test_fit_weighted_tilt():
    # weighting by c^a turns GB2(mu, nu) into GB2(mu - a, nu + a)
    p = gb2.Gb2Params(2.2, 2.0, 1.0, 1.0)
    c = gb2.sample(p, 30_000, 19)
    res = gb2.fit_mle(c, c ** -0.5)
    assert res.params.mu == pytest.approx(2.7, abs=3.0 * max(res.mu_stderr, 0.02))


def test_fit_deterministic():
    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    c = gb2.sample(p, 2000, 3)
    r1 = gb2.fit_mle(c)
    r2 = gb2.fit_mle(c)
    assert r1.params == r2.params
    assert r1.mu_stderr == r2.mu_stderr


# ---------------------------------------------------------------------------
# analytic derivatives and the sandwich stderr

# the panel law of the benchmark panels; a fixed 2000-observation sample
PANEL_LAW = gb2.Gb2Params(2.2, 2.0, 3.0, 1.0)
# mu_stderr of the 2000-observation sample under the former 200-replicate
# Nelder-Mead bootstrap (simplex refits from the point estimate)
SIMPLEX_ERA_MU_STDERR = 0.1842847366487273
# two sds of the bootstrap stderr's own seed-to-seed spread on this sample
# (0.188 +- 0.012 over 20 bootstrap seeds)
BOOTSTRAP_SPREAD = 0.024
# the sandwich stderr of the same sample
SANDWICH_MU_STDERR = 0.17650351928291502

# multiplicative perturbations of (mu, nu, q, c1) around fit_mle's start,
# which earlier versions ran as four more start paths of every fit
FORMER_START_FACTORS = [
    (1.6, 0.6, 1.4, 0.7),
    (0.6, 1.6, 0.7, 1.4),
    (2.2, 1.0, 0.5, 1.0),
    (0.5, 2.2, 1.8, 1.0),
]

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
    # paths from the four perturbations of fit_mle's start that earlier
    # versions also ran, from the true law and from a far start each reach
    # the optimum of fit_mle's one path, unweighted and worker-weighted
    c = _panel_sample()
    order = np.argsort(c)
    for weights in ("unit", "workers"):
        args = _likelihood_args(weights)
        w = args[1]
        res = gb2.fit_mle(c, w)
        assert res.converged
        theta_hat = np.log([res.params.mu, res.params.nu, res.params.q,
                            res.params.c1])
        cs, ws = c[order], w[order]
        base = np.log([gb2._tail_index_guess(cs[::-1], ws[::-1]), 1.0, 1.0,
                       gb2._weighted_median(cs, ws)])
        starts = [base + np.log(factors) for factors in FORMER_START_FACTORS]
        starts += [np.log([p.mu, p.nu, p.q, p.c1])
                   for p in (PANEL_LAW, gb2.Gb2Params(6.0, 0.3, 0.5, 5.0))]
        for start in starts:
            path = gb2._newton(start, *args)
            assert path.converged
            assert np.exp(path.theta) == pytest.approx(np.exp(theta_hat),
                                                       rel=1e-5)
            assert -path.f == pytest.approx(res.log_likelihood, rel=1e-12)


def test_tail_index_guess_fallbacks():
    # one firm holds a fifth of the workers: the weighted top decile is
    # empty, so the start slope comes from the ten largest values
    c = _panel_sample()
    w = np.ones_like(c)
    w[np.argmax(c)] = 0.2 * len(c)
    order = np.argsort(c)[::-1]
    cs, ws = c[order], w[order]
    rank_frac = np.cumsum(ws) / np.sum(ws)
    slope = np.polyfit(np.log(cs[:10]), np.log(rank_frac[:10]), 1)[0]
    assert gb2._tail_index_guess(cs, ws) == float(np.clip(-slope, 0.3, 8.0))
    assert gb2.fit_mle(c, w).converged
    # one distinct value, alone or repeated, has no slope
    assert gb2._tail_index_guess(np.array([3.0]), np.array([7.0])) == 1.5
    assert gb2._tail_index_guess(np.full(50, 3.0), np.ones(50)) == 1.5


def test_fit_takes_c_and_weights_as_they_are():
    c = _panel_sample()
    with pytest.raises(ValueError, match="c must be 1-d"):
        gb2.fit_mle(np.column_stack([c, np.ones_like(c)]))
    with pytest.raises(ValueError, match="weights must have c's shape"):
        gb2.fit_mle(c, np.ones(len(c) - 1))
    # None and unit weights are the same fit
    assert gb2.fit_mle(c, np.ones_like(c)) == gb2.fit_mle(c)


def test_derivatives_outside_bound_are_inf():
    args = _likelihood_args("unit")
    f, g, h = gb2._nll_derivatives(np.array([31.0, 0.0, 0.0, 0.0]), *args)
    assert f == math.inf and g is None and h is None


def test_bootstrap_matches_simplex_era():
    res = gb2.fit_mle(_panel_sample())
    assert res.converged
    assert res.mu_stderr == pytest.approx(SANDWICH_MU_STDERR, rel=1e-6)
    assert abs(res.mu_stderr - SIMPLEX_ERA_MU_STDERR) < BOOTSTRAP_SPREAD
    assert res.n_evaluations > res.n_iterations


@pytest.mark.parametrize("weights", ["unit", "workers"])
def test_sandwich_stderr_matches_per_observation_reference(weights):
    # H^-1 J H^-1 with J from central-difference scores of log_pdf, one
    # per observation; the sample rounded up to 0.01 repeats values, which
    # the fit aggregates
    c = np.ceil(100.0 * _panel_sample()) / 100.0
    assert len(np.unique(c)) < len(c) // 2
    w = np.ones_like(c) if weights == "unit" else np.floor(200.0 * c ** -0.5) + 1.0
    res = gb2.fit_mle(c, w)
    assert res.converged
    theta = np.log([res.params.mu, res.params.nu, res.params.q, res.params.c1])
    lc = np.log(c)

    def nll_obs(x):
        return -gb2.log_pdf(gb2.Gb2Params(*np.exp(x)), lc)

    h = 1e-5
    scores = np.column_stack([(nll_obs(theta + h * e) - nll_obs(theta - h * e))
                              / (2.0 * h) for e in np.eye(4)])
    ws = w[:, None] * scores
    _, _, hess = gb2._nll_derivatives(theta, lc, w, float(np.sum(w)),
                                      float(w @ lc))
    hinv = np.linalg.inv(hess)
    cov = hinv @ (ws.T @ ws) @ hinv
    assert res.mu_stderr == pytest.approx(res.params.mu * math.sqrt(cov[0, 0]),
                                          rel=1e-6)


def test_unconverged_fit_has_infinite_stderr(tmp_path):
    # the year-2000 worker fit of this panel ends unconverged, away from a
    # stationary point, where the sandwich estimates nothing
    path = write_panel(tmp_path / "panel.csv", n_firms=1500, mu=2.2, nu=2.0,
                       weight_exp=-0.5, seed=22)
    samples = ingest.build_samples(ingest.load_csv(path).records).samples
    samples = samples[samples["year"] == 2000]
    res = gb2.fit_mle(samples["c"], samples["weight_workers"])
    assert not res.converged
    assert res.mu_stderr == math.inf


def test_n_evaluations_counts_kernel_passes(monkeypatch):
    calls = []
    softplus_wsum = kernels.softplus_wsum

    def counted(*args):
        calls.append(1)
        return softplus_wsum(*args)

    monkeypatch.setattr(kernels, "softplus_wsum", counted)
    res = gb2.fit_mle(_panel_sample())
    assert res.n_evaluations == len(calls) > 0


def test_sandwich_stderr_covers_true_mu(tmp_path):
    # 40 superstatistical 2000-firm panels: mu_F = 2.5, mu_W = 2.5 + 0.5
    t0 = time.monotonic()
    truth = {"firms": 2.5, "workers": 3.0}
    fits = {"firms": [], "workers": []}
    for seed in range(1000, 1040):
        path = write_panel(tmp_path / "panel.csv", n_firms=2000, mu=2.5,
                           nu=1.5, weight_exp=-0.5, seed=seed, q=3.0,
                           years=(1999, 2000))
        build = ingest.build_samples(ingest.load_csv(path).records,
                                     ingest.FilterConfig())
        samples = build.samples[build.samples["year"] == 2000]
        assert len(samples) == 2000
        fits["firms"].append(gb2.fit_mle(samples["c"]))
        fits["workers"].append(gb2.fit_mle(samples["c"],
                                           samples["weight_workers"]))
    for side, results in fits.items():
        mu = np.array([r.params.mu for r in results])
        se = np.array([r.mu_stderr for r in results])
        covered = np.abs(mu - truth[side]) <= 1.96 * se
        assert np.mean(covered) >= 0.9, side
        assert np.median(se) == pytest.approx(np.std(mu, ddof=1), rel=0.25), side
    assert time.monotonic() - t0 < 20.0


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
    # rescaling all weights leaves the fit and its stderr unchanged
    c = _panel_sample()
    w = np.floor(200.0 * c ** -0.5) + 1.0
    r1 = gb2.fit_mle(c, w)
    r2 = gb2.fit_mle(c, 8.0 * w)
    assert r2.params.mu == pytest.approx(r1.params.mu, rel=1e-9)
    assert r2.mu_stderr == pytest.approx(r1.mu_stderr, rel=1e-6)


def _trial_points_fail(monkeypatch, how):
    """Evaluate the start point as it is and make every later (trial)
    point fail as `how` says; returns the list of evaluated points."""
    nll = gb2._nll_derivatives
    softplus_wsum = kernels.softplus_wsum
    seen = []

    def patched(theta, *args):
        seen.append(theta)
        if len(seen) == 1 or how == "derivatives":
            return nll(theta, *args)
        lc, w, _, wlc_total = args
        if how == "objective":          # a NaN weight total leaves f NaN
            return nll(theta, lc, w, math.nan, wlc_total)
        f, g, h = nll(seen[0], *args)
        return f + 1.0, g, h            # how == "no decrease"

    def inf_hessian_sum(*args):
        sums = softplus_wsum(*args)
        if len(seen) > 1:
            sums[5] = math.inf
        return sums

    monkeypatch.setattr(gb2, "_nll_derivatives", patched)
    if how == "derivatives":
        monkeypatch.setattr(kernels, "softplus_wsum", inf_hessian_sum)
    return seen


@pytest.mark.parametrize("how", ["objective", "derivatives", "no decrease"])
def test_failing_line_search_ends_unconverged(monkeypatch, how):
    # every trial point of the first step is non-finite or no lower, so
    # the line search uses up its halvings and the path ends at its start
    seen = _trial_points_fail(monkeypatch, how)
    res = gb2.fit_mle(_panel_sample())
    assert res.params == gb2.Gb2Params(*(math.exp(t) for t in seen[0]))
    assert not res.converged
    assert res.mu_stderr == math.inf
    assert res.n_iterations == 1
    assert res.n_evaluations == len(seen) == 1 + gb2._MAX_BACKTRACK


def test_hessian_beyond_the_damping_ladder_ends_unconverged(monkeypatch):
    # a zero diagonal keeps the shift tiny and the off-diagonal ones
    # leave eigenvalues -1 + lam on every rung of the ladder
    nll = gb2._nll_derivatives
    seen = []

    def indefinite(theta, *args):
        seen.append(theta)
        f, g, _ = nll(theta, *args)
        return f, g, np.ones((4, 4)) - np.eye(4)

    monkeypatch.setattr(gb2, "_nll_derivatives", indefinite)
    assert gb2._damped_newton_step(np.ones(4), np.ones((4, 4)) - np.eye(4)) is None
    res = gb2.fit_mle(_panel_sample())
    assert res.params == gb2.Gb2Params(*(math.exp(t) for t in seen[0]))
    assert not res.converged
    assert res.mu_stderr == math.inf
    assert res.n_iterations == 0
    assert res.n_evaluations == len(seen) == 1


@pytest.mark.parametrize("call,message", [
    (lambda: log_beta(0.0, 1.0), "log_beta requires finite s, t > 0"),
    (lambda: gb2.pdf(PANEL_LAW, -1.0), "pdf requires finite c >= 0"),
    (lambda: gb2.ccdf(PANEL_LAW, -1.0), "ccdf requires finite c >= 0"),
    (lambda: gb2.sample(PANEL_LAW, 0, 1), "sample requires n >= 1"),
], ids=["log_beta", "pdf", "ccdf", "sample"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_ccdf_at_zero_is_one():
    assert gb2.ccdf(PANEL_LAW, 0.0) == 1.0
