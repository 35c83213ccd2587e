"""GB2 (generalized beta of the second kind) productivity distribution.

Density, upper-tail cdf, sampling, closed-form moments, and weighted
maximum-likelihood fitting.  The density is

    p(c) = q / B(mu/q, nu/q) * (1/c) * (c/c1)^nu * [1 + (c/c1)^q]^-((mu+nu)/q)

with mu, nu, q, c1 > 0.  The upper tail is Pareto with index mu
(p(c) ~ c^(-mu-1)), the lower end rises as c^(nu-1), q sets the
sharpness of the crossover and c1 its location.

Fitting maximizes sum_i w_i ln p(c_i) over the log-transformed
parameters theta = (ln mu, ln nu, ln q, ln c1) with damped Newton
steps on the exact score and Hessian, one path from each of five
deterministic starts; the best path wins (the globalisation step).  The
data enter the likelihood only through weighted softplus sums, so the
objective, score and Hessian cost one fused pass over the data
(kernels.softplus_wsum) plus digamma and trigamma of the log-beta
arguments.  The bootstrap stderr of mu refits each resampled replicate
with the same damped-Newton path, warm-started at the point estimate,
and uses only the replicates that converged.
Per-observation weights make worker-side fits (weight = employee count)
identical in law to exploding each firm into that many observations, at
a fraction of the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, zeta

from . import kernels
from .errors import InsufficientData
from .specfun import log_beta, reg_inc_beta

_MIN_OBS = 100               # fits below this are refused
_N_BOOTSTRAP = 200           # replicates behind mu_stderr
_BOOTSTRAP_SEED = 20240917   # fixed so repeated fits are reproducible
_THETA_BOUND = 30.0          # |log parameter| guard against degeneracy
_NEWTON_TOL = 1e-10          # stop when decrement^2 / 2 <= tol * (1 + |f|)
_NEWTON_MAX_ITER = 50        # Newton step cap per path
_ARMIJO = 1e-4               # sufficient-decrease fraction of the line search
_MAX_BACKTRACK = 40          # step halvings before a line search gives up
_MAX_DAMPING = 30            # tenfold increases of the Hessian shift


@dataclass(frozen=True)
class Gb2Params:
    """The four GB2 parameters: tail index, low-end shape, crossover
    sharpness, and scale."""

    mu: float
    nu: float
    q: float
    c1: float

    def __post_init__(self):
        for name in ("mu", "nu", "q", "c1"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"Gb2Params.{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class FitResult:
    params: Gb2Params
    log_likelihood: float
    n_obs: int
    mu_stderr: float
    converged: bool
    n_iterations: int
    n_evaluations: int
    bootstrap_converged: int
    mu_stderr_hessian: float

    def __post_init__(self):
        if self.converged and not math.isfinite(self.log_likelihood):
            raise ValueError("converged fit must have finite log-likelihood")
        if not self.mu_stderr >= 0.0:
            raise ValueError("mu_stderr must be >= 0")
        if not self.mu_stderr_hessian >= 0.0:
            raise ValueError("mu_stderr_hessian must be >= 0")


def pdf(p: Gb2Params, c) -> float | np.ndarray:
    """Density at c >= 0.  Evaluated in log space; pdf(p, 0) = 0."""
    arr = np.asarray(c, dtype=np.float64)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("pdf requires finite c >= 0")
    ln_norm = math.log(p.q) - log_beta(p.mu / p.q, p.nu / p.q)
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        lc = np.log(arr[pos] / p.c1)
        logpdf = (ln_norm - np.log(arr[pos]) + p.nu * lc
                  - (p.mu + p.nu) / p.q * kernels.softplus(p.q * lc))
        out[pos] = np.exp(logpdf)
    if arr.ndim == 0:
        return float(out)
    return out


def ccdf(p: Gb2Params, c: float) -> float:
    """Upper-tail probability P(C > c) = I_z(mu/q, nu/q), z = [1+(c/c1)^q]^-1."""
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError("ccdf requires finite c >= 0")
    if c == 0.0:
        return 1.0
    z = math.exp(-float(kernels.softplus(p.q * math.log(c / p.c1))))
    return reg_inc_beta(z, p.mu / p.q, p.nu / p.q)


def sample(p: Gb2Params, n: int, seed) -> np.ndarray:
    """n i.i.d. draws, deterministic given seed.

    Uses the beta representation: b ~ Beta(nu/q, mu/q) and
    c = c1 * (b / (1-b))^(1/q).
    """
    if n < 1:
        raise ValueError("sample requires n >= 1")
    rng = np.random.default_rng(seed)
    b = rng.beta(p.nu / p.q, p.mu / p.q, size=n)
    return p.c1 * (b / (1.0 - b)) ** (1.0 / p.q)


def moment(p: Gb2Params, n: float) -> float:
    """E[c^n], closed form, finite exactly for -nu < n < mu."""
    if not (-p.nu < n < p.mu):
        raise ValueError(f"moment of order {n} diverges for mu={p.mu}, nu={p.nu}")
    return p.c1 ** n * math.exp(
        log_beta((p.nu + n) / p.q, (p.mu - n) / p.q)
        - log_beta(p.nu / p.q, p.mu / p.q))


def tail_scale(p: Gb2Params) -> float:
    """Scale c0 of the Pareto tail, defined by ccdf(c) -> (c/c0)^-mu.

    From the z -> 0 limit of the incomplete beta,
    ccdf(c) -> (c/c1)^-mu / [(mu/q) B(mu/q, nu/q)], so
    c0 = c1 * [(mu/q) B(mu/q, nu/q)]^(-1/mu).
    """
    s = p.mu / p.q
    return p.c1 * math.exp(-(math.log(s) + log_beta(s, p.nu / p.q)) / p.mu)


# ---------------------------------------------------------------------------
# fitting


def _nll_derivatives(theta: np.ndarray, lc: np.ndarray, w: np.ndarray,
                     w_total: float, wlc_total: float):
    """Negative weighted log-likelihood at theta = (ln mu, ln nu, ln q,
    ln c1) with its exact gradient and Hessian in theta.

    Returns (f, g, H); where the objective or a derivative is not finite,
    f is inf and g, H are None.  With a = mu/q, b = nu/q, m = a + b the
    objective is
        W (ln B(a, b) - ln q) - (nu - 1) S + nu W ln c1 + m K(q, ln c1),
    K = sum w softplus(q (lc - ln c1)).  The log-beta term is a function
    of (ln a, ln b) = (ln mu - ln q, ln nu - ln q), and K's derivatives
    in (ln q, ln c1) come from the fused kernel's six sums.
    """
    if np.max(np.abs(theta)) > _THETA_BOUND:
        return math.inf, None, None
    lmu, lnu, lq, lc1 = theta
    nu = math.exp(lnu)
    q = math.exp(lq)
    a = math.exp(lmu) / q
    b = nu / q
    m = a + b
    k, k0, k1, h0, h1, h2 = kernels.softplus_wsum(lc, w, q, lc1)
    wt, st = w_total, wlc_total
    f = float(wt * (log_beta(a, b) - lq) - (nu - 1.0) * st + nu * wt * lc1
              + m * k)
    if not math.isfinite(f):
        return math.inf, None, None

    psi_a, psi_b, psi_m = digamma([a, b, m])
    # trigamma(x) = zeta(2, x); scipy's polygamma(1, x) wraps this call
    tri_a, tri_b, tri_m = zeta(2.0, [a, b, m])
    # ln B(a, b) as a function of (ln a, ln b)
    gu = a * (psi_a - psi_m)
    gv = b * (psi_b - psi_m)
    guu = gu + a * a * (tri_a - tri_m)
    gvv = gv + b * b * (tri_b - tri_m)
    guv = -a * b * tri_m
    # K in (ln q, ln c1)
    kr = q * k1
    kl = -q * k0
    krr = kr + q * q * h2
    krl = kl - q * q * h1
    kll = q * q * h0
    nu_terms = -nu * st + nu * wt * lc1      # the nu-dependent data terms

    g = np.array([
        wt * gu + a * k,
        wt * gv + nu_terms + b * k,
        -wt * (gu + gv + 1.0) + m * (kr - k),
        nu * wt + m * kl,
    ])
    h01 = wt * guv
    h02 = -wt * (guu + guv) + a * (kr - k)
    h03 = a * kl
    h12 = -wt * (guv + gvv) + b * (kr - k)
    h13 = nu * wt + b * kl
    h23 = m * (krl - kl)
    h = np.array([
        [wt * guu + a * k, h01, h02, h03],
        [h01, wt * gvv + nu_terms + b * k, h12, h13],
        [h02, h12, wt * (guu + 2.0 * guv + gvv) + m * (k - 2.0 * kr + krr), h23],
        [h03, h13, h23, m * kll],
    ])
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        return math.inf, None, None
    return f, g, h


def _damped_newton_step(g: np.ndarray, h: np.ndarray):
    """Newton step on H + lam*I with the smallest lam in a tenfold ladder
    (0, then 1e-8 * max|diag H| upward) that makes it positive definite.

    Returns (step, decrement^2, lam), or None when no shift on the
    ladder gives a positive-definite matrix.
    """
    lam = 0.0
    for _ in range(_MAX_DAMPING):
        shifted = h + lam * np.eye(len(g)) if lam else h
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam = (10.0 * lam if lam
                   else 1e-8 * max(float(np.max(np.abs(np.diag(h)))), 1e-300))
            continue
        step = -np.linalg.solve(shifted, g)
        return step, float(-(g @ step)), lam
    return None


@dataclass(frozen=True)
class _NewtonPath:
    theta: np.ndarray
    f: float
    hess: np.ndarray | None
    n_iterations: int
    n_passes: int          # fused likelihood passes, trial points included
    converged: bool


def _newton(theta0: np.ndarray, lc: np.ndarray, w: np.ndarray,
            w_total: float, wlc_total: float) -> _NewtonPath:
    """Damped Newton minimization of the negative log-likelihood from theta0.

    Each step solves with the Hessian, shifted by lam*I until its
    Cholesky factorization succeeds, and halves the step until the
    Armijo condition holds.  The path has converged when, at an
    unshifted (positive-definite) Hessian, the Newton decrement
    satisfies decrement^2 / 2 <= _NEWTON_TOL * (1 + |f|); scaling all
    weights by a constant scales f and decrement^2 alike, so the test is
    independent of the weight units.  A failed line search or the step
    cap ends the path unconverged.
    """
    theta = np.array(theta0, dtype=np.float64)
    f, g, h = _nll_derivatives(theta, lc, w, w_total, wlc_total)
    n_passes = 1
    n_iter = 0
    converged = False
    while g is not None and n_iter < _NEWTON_MAX_ITER:
        found = _damped_newton_step(g, h)
        if found is None:
            break
        step, dec2, lam = found
        if lam == 0.0 and 0.5 * dec2 <= _NEWTON_TOL * (1.0 + abs(f)):
            converged = True
            break
        n_iter += 1
        alpha = 1.0
        for _ in range(_MAX_BACKTRACK):
            trial = theta + alpha * step
            ft, gt, ht = _nll_derivatives(trial, lc, w, w_total, wlc_total)
            n_passes += 1
            if ft <= f - _ARMIJO * alpha * dec2:
                break
            alpha *= 0.5
        else:
            break
        theta, f, g, h = trial, ft, gt, ht
    return _NewtonPath(theta=theta, f=f, hess=h, n_iterations=n_iter,
                       n_passes=n_passes, converged=converged)


def _tail_index_guess(c_sorted_desc: np.ndarray, w_desc: np.ndarray) -> float:
    """Slope of the top-decile rank-size plot, clipped to a sane range."""
    rank_frac = np.cumsum(w_desc) / np.sum(w_desc)
    top = rank_frac <= 0.1
    if np.count_nonzero(top) < 10:
        top = np.zeros_like(top)
        top[:min(10, len(top))] = True
    x = np.log(c_sorted_desc[top])
    y = np.log(rank_frac[top])
    if len(x) < 2 or np.ptp(x) == 0.0:
        return 1.5
    slope = np.polyfit(x, y, 1)[0]
    return float(np.clip(-slope, 0.3, 8.0))


def _weighted_median(values_sorted: np.ndarray, weights: np.ndarray) -> float:
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values_sorted[min(idx, len(values_sorted) - 1)])


# multiplicative perturbations of (mu, nu, q, c1) around the base start
_START_FACTORS = (
    (1.0, 1.0, 1.0, 1.0),
    (1.6, 0.6, 1.4, 0.7),
    (0.6, 1.6, 0.7, 1.4),
    (2.2, 1.0, 0.5, 1.0),
    (0.5, 2.2, 1.8, 1.0),
)


def fit_mle(data, init: Gb2Params | None = None) -> FitResult:
    """Weighted maximum-likelihood GB2 fit.

    Parameters
    ----------
    data : sequence of (c, w) pairs or array of shape (n, 2)
        Observations c > 0 with weights w > 0.  Use w = 1 for firm fits
        and w = employee count for worker-weighted fits.
    init : optional Gb2Params
        Single starting point; when absent, five deterministic starts
        are used (rank-size tail slope for mu, weighted median for c1,
        nu = q = 1, plus four fixed perturbations).

    A damped-Newton path on the exact score and Hessian runs from each
    start; the path with the lowest objective wins, converged paths
    before unconverged ones.  This globalises the fit.

    Returns
    -------
    FitResult with the fitted parameters and weighted log-likelihood;
    converged, the winning path's convergence; n_iterations, the Newton
    steps of all start paths (bootstrap excluded); n_evaluations, every
    likelihood pass the fit made (fused passes of the start paths and
    the bootstrap); mu_stderr, the standard deviation of mu
    over the converged ones of 200 nonparametric bootstrap replicates
    (observations resampled uniformly, carrying their weights), each
    refit by a damped-Newton path warm-started at the point estimate,
    inf when fewer than two converged; bootstrap_converged, how many
    replicates converged; and mu_stderr_hessian, the observed-information
    stderr of mu from the Newton Hessian at the optimum, with the
    weights rescaled to sum to the observation count (inf when that
    Hessian is not positive definite).

    Raises
    ------
    InsufficientData
        Fewer than 100 observations.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be (c, w) pairs")
    n_obs = arr.shape[0]
    if n_obs < _MIN_OBS:
        raise InsufficientData(
            f"need at least {_MIN_OBS} observations, got {n_obs}")
    c = arr[:, 0]
    w = arr[:, 1]
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise ValueError("all c must be finite and > 0")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("all weights must be finite and > 0")

    # Aggregate duplicate c values so the kernel length is the number of
    # distinct observations; the likelihood only sees (value, weight).
    uc, inv = np.unique(c, return_inverse=True)
    uw = np.bincount(inv, weights=w)
    lc = np.log(uc)
    w_total = float(np.sum(uw))
    wlc_total = float(uw @ lc)

    if init is not None:
        starts = [np.log([init.mu, init.nu, init.q, init.c1])]
    else:
        mu0 = _tail_index_guess(uc[::-1], uw[::-1])
        c1_0 = _weighted_median(uc, uw)
        base = np.log([mu0, 1.0, 1.0, c1_0])
        starts = [base + np.log(fac) for fac in _START_FACTORS]

    paths = [_newton(theta0, lc, uw, w_total, wlc_total) for theta0 in starts]
    best = min(paths, key=lambda path: (not path.converged, path.f))
    theta_hat = best.theta
    lmu, lnu, lq, lc1 = theta_hat
    params = Gb2Params(math.exp(lmu), math.exp(lnu), math.exp(lq), math.exp(lc1))

    mu_stderr, n_boot_ok, n_boot_passes = _bootstrap_mu_stderr(
        theta_hat, lc, inv, w, n_obs)

    return FitResult(params=params, log_likelihood=-best.f, n_obs=n_obs,
                     mu_stderr=mu_stderr, converged=best.converged,
                     n_iterations=sum(path.n_iterations for path in paths),
                     n_evaluations=(sum(path.n_passes for path in paths)
                                    + n_boot_passes),
                     bootstrap_converged=n_boot_ok,
                     mu_stderr_hessian=_mu_stderr_hessian(
                         theta_hat, best.hess, n_obs / w_total))


def _mu_stderr_hessian(theta: np.ndarray, hess: np.ndarray | None,
                       info_scale: float) -> float:
    """Observed-information stderr of mu: the Hessian of the negative
    log-likelihood in theta, times info_scale, inverted; mu = exp(theta[0])
    carries the ln-mu variance by the delta method."""
    if hess is None:
        return math.inf
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return math.inf
    var_lmu = np.linalg.inv(hess)[0, 0] / info_scale
    return math.exp(theta[0]) * math.sqrt(var_lmu)


def _bootstrap_mu_stderr(theta_hat: np.ndarray, lc: np.ndarray,
                         inv: np.ndarray, w: np.ndarray, n_obs: int):
    """Std of fitted mu over nonparametric bootstrap replicates.

    Each replicate resamples the n_obs observations uniformly with
    replacement (multinomial counts) and refits with a damped-Newton
    path from the point estimate.  Returns (stderr over the converged
    replicates, or inf when fewer than two converged; the number that
    converged; the fused passes spent).
    """
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    mus = []
    n_passes = 0
    pvals = np.full(n_obs, 1.0 / n_obs)
    n_unique = len(lc)
    for _ in range(_N_BOOTSTRAP):
        counts = rng.multinomial(n_obs, pvals)
        wb = np.bincount(inv, weights=w * counts, minlength=n_unique)
        drawn = wb > 0.0            # about 1/e of the values are not drawn
        lc_b = lc[drawn]
        wb = wb[drawn]
        path = _newton(theta_hat, lc_b, wb, float(np.sum(wb)), float(wb @ lc_b))
        n_passes += path.n_passes
        if path.converged:
            mus.append(math.exp(path.theta[0]))
    stderr = float(np.std(mus, ddof=1)) if len(mus) >= 2 else math.inf
    return stderr, len(mus), n_passes
