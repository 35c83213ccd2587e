"""GB2 (generalized beta of the second kind) productivity distribution.

Density, upper-tail cdf, sampling, closed-form moments, and weighted
maximum-likelihood fitting.  The density is

    p(c) = q / B(mu/q, nu/q) * (1/c) * (c/c1)^nu * [1 + (c/c1)^q]^-((mu+nu)/q)

with mu, nu, q, c1 > 0.  The upper tail is Pareto with index mu
(p(c) ~ c^(-mu-1)), the lower end rises as c^(nu-1), q sets the
sharpness of the crossover and c1 its location; the special functions
(digamma, trigamma, log_beta, reg_inc_beta) are written out below.

Fitting maximizes sum_i w_i ln p(c_i) over the log-transformed
parameters theta = (ln mu, ln nu, ln q, ln c1) with damped Newton
steps on the exact score and Hessian, one path from a data-driven start
(the rank-size tail slope for mu, the weighted median for c1).  The
data enter the likelihood only through weighted softplus sums, so the
objective, score and Hessian cost one fused pass over the data
(kernels.softplus_wsum) plus digamma and trigamma of the log-beta
arguments.  The stderr of mu is the robust (sandwich) covariance
H^-1 J H^-1 of an M-estimator at a converged optimum (White 1982,
Econometrica 50:1): H is the Hessian at the optimum, J the sum over
observations of their outer products of weighted scores, from one pass
over the data.
Per-observation weights make worker-side fits (weight = employee count)
identical in law to exploding each firm into that many observations, at
a fraction of the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InsufficientData

_MIN_OBS = 100               # fits below this are refused
_THETA_BOUND = 30.0          # |log parameter| guard against degeneracy
_NEWTON_TOL = 1e-14          # stop when decrement^2 / 2 <= tol * (1 + |f|)
_NEWTON_MAX_ITER = 50        # Newton step cap
_ARMIJO = 1e-4               # sufficient-decrease fraction of the line search
_MAX_BACKTRACK = 40          # step halvings before a line search gives up
_MAX_DAMPING = 30            # tenfold increases of the Hessian shift
_CF_MAX_ITER = 10_000        # continued-fraction steps of reg_inc_beta
_CF_EPS = 2.0 ** -52         # its stop rule on the last factor's distance to 1
_TINY = 1e-300               # stands in for a zero denominator there
# B_2k, k = 1..7, in trigamma's asymptotic series (A&S 6.4.12); over 2k
# in digamma's (6.3.18), over 2k (2k - 1) in Stirling's series (6.1.40)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_PSI_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))


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


def _series(coeffs, x: float) -> float:
    """sum_k coeffs[k-1] x^(-2k), k = 1, 2, ..., by Horner's rule."""
    r, acc = 1.0 / (x * x), 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * r
    return acc


def _psi01(x: float) -> tuple[float, float]:
    """(digamma(x), trigamma(x)) for x > 0: psi(x) = psi(x+1) - 1/x and
    psi'(x) = psi'(x+1) + 1/x^2 up to x >= 10, then the series to B_14."""
    psi = tri = 0.0
    while x < 10.0:
        psi -= 1.0 / x
        tri += 1.0 / (x * x)
        x += 1.0
    return (psi + math.log(x) - 0.5 / x - _series(_PSI_SERIES, x),
            tri + (1.0 + 0.5 / x + _series(_BERNOULLI, x)) / x)


def log_beta(s: float, t: float) -> float:
    """ln B(s, t) for s, t > 0.  Once the larger argument x is >= 10,
    ln Gamma(x) - ln Gamma(x + y) is one difference of Stirling's series,
    so that the two large terms cannot cancel to lose digits."""
    if not (s > 0.0 and t > 0.0) or math.isinf(s) or math.isinf(t):
        raise ValueError(f"log_beta requires finite s, t > 0, got {s!r}, {t!r}")
    return _log_beta(s, t)


def _log_beta(s: float, t: float) -> float:
    # log_beta unchecked, so reg_inc_beta's calls stay out of its trace count
    x, y = (s, t) if s >= t else (t, s)
    if x < 10.0:
        return math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t)
    xy = x + y
    return (math.lgamma(y) - (x - 0.5) * math.log1p(y / x) - y * math.log(xy) + y
            + x * _series(_STIRLING, x) - xy * _series(_STIRLING, xy))


def reg_inc_beta(z: float, s: float, t: float) -> float:
    """Regularized incomplete beta I_z(s, t) for z in [0, 1], s, t > 0."""
    if not (0.0 <= z <= 1.0):
        raise ValueError(f"reg_inc_beta requires 0 <= z <= 1, got {z!r}")
    if not (s > 0.0 and t > 0.0) or math.isinf(s) or math.isinf(t):
        raise ValueError(f"reg_inc_beta requires finite s, t > 0, got {s!r}, {t!r}")
    if z == 0.0 or z == 1.0:
        return z
    if z < (s + 1.0) / (s + t + 2.0):
        return _inc_beta_cf(z, s, t)
    return 1.0 - _inc_beta_cf(1.0 - z, t, s)


def _inc_beta_cf(z: float, s: float, t: float) -> float:
    """I_z(s, t) = front / (1 + d_1 / (1 + d_2 / (1 + ...))) by the
    modified Lentz method (Press et al., Numerical Recipes, 3rd ed.,
    6.4), which converges fast for z < (s+1)/(s+t+2).  With both shapes
    >= 10, s ln z + t ln(1-z) - ln B(s, t) takes ln B from Stirling's
    series about p = s/(s+t), so that its large terms cannot cancel."""
    if s >= 10.0 and t >= 10.0:
        p = s / (s + t)
        q = 1.0 - p
        front = math.exp(s * math.log(z / p) + t * math.log((1.0 - z) / q)
                         + 0.5 * math.log(p * t / (2.0 * math.pi))
                         - s * _series(_STIRLING, s) - t * _series(_STIRLING, t)
                         + (s + t) * _series(_STIRLING, s + t)) / s
    else:
        front = math.exp(s * math.log(z) + t * math.log1p(-z) - _log_beta(s, t)) / s
    c, d, g = 1.0, 0.0, 1.0
    for m in range(_CF_MAX_ITER):
        # d_2m+1, then d_2m+2
        for num in (-(s + m) * (s + t + m) * z / ((s + 2 * m) * (s + 2 * m + 1)),
                    (m + 1) * (t - m - 1) * z / ((s + 2 * m + 1) * (s + 2 * m + 2))):
            d = 1.0 / (1.0 + num * d or _TINY)
            c = 1.0 + num / c or _TINY
            g *= c * d
        if abs(c * d - 1.0) <= _CF_EPS:
            return front / g
    raise ValueError(f"I_z(s, t) did not converge at z={z!r}, s={s!r}, t={t!r}")


def log_pdf(p: Gb2Params, lc: np.ndarray) -> np.ndarray:
    """ln p(c) at lc = ln c."""
    ln_norm = math.log(p.q) - log_beta(p.mu / p.q, p.nu / p.q)
    t = lc - math.log(p.c1)
    return (ln_norm - lc + p.nu * t
            - (p.mu + p.nu) / p.q * kernels.softplus(p.q * t))


def pdf(p: Gb2Params, c) -> float | np.ndarray:
    """Density at c >= 0.  Evaluated in log space; pdf(p, 0) = 0."""
    arr = np.asarray(c, dtype=np.float64)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("pdf requires finite c >= 0")
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = np.exp(log_pdf(p, np.log(arr[pos])))
    return float(out) if arr.ndim == 0 else out


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
    c = c1 * (b / (1-b))^(1/q).  Raises ValueError if a draw is not a
    finite positive float, as when b rounds to 0 or 1 at small nu/q or
    mu/q.
    """
    if n < 1:
        raise ValueError("sample requires n >= 1")
    rng = np.random.default_rng(seed)
    b = rng.beta(p.nu / p.q, p.mu / p.q, size=n)
    with np.errstate(divide="ignore", over="ignore"):
        c = p.c1 * (b / (1.0 - b)) ** (1.0 / p.q)
    if bad := n - np.count_nonzero((c > 0.0) & (c < math.inf)):
        raise ValueError(f"{bad} of {n} draws are not finite positive floats for {p}")
    return c


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


def _shape_terms(theta: np.ndarray):
    """(nu, q, a, b, m, gu, gv, tri) at theta = (ln mu, ln nu, ln q,
    ln c1): a = mu/q, b = nu/q, m = a + b, (gu, gv) the gradient of
    ln B(a, b) in (ln a, ln b), and tri the trigammas of (a, b, m)."""
    lmu, lnu, lq, _ = theta
    nu = math.exp(lnu)
    q = math.exp(lq)
    a = math.exp(lmu) / q
    b = nu / q
    m = a + b
    (psi_a, psi_b, psi_m), tri = zip(*map(_psi01, (a, b, m)))
    return nu, q, a, b, m, a * (psi_a - psi_m), b * (psi_b - psi_m), tri


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
    _, _, lq, lc1 = theta
    nu, q, a, b, m, gu, gv, (tri_a, tri_b, tri_m) = _shape_terms(theta)
    k, k0, k1, h0, h1, h2 = kernels.softplus_wsum(lc, w, q, lc1)
    wt, st = w_total, wlc_total
    f = float(wt * (log_beta(a, b) - lq) - (nu - 1.0) * st + nu * wt * lc1
              + m * k)
    if not math.isfinite(f):
        return math.inf, None, None

    # ln B(a, b) as a function of (ln a, ln b)
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


def _nll_scores(theta: np.ndarray, lc: np.ndarray) -> np.ndarray:
    """Per-value scores: row v is the gradient in theta of -ln p(c_v),
    lc_v = ln c_v.  In the notation of _nll_derivatives, with
    d = lc - ln c1, t = q d, sp = softplus(t) and s = sigmoid(t), the row
    is [gu + a sp, gv - nu d + b sp, -(gu + gv + 1) + m (q s d - sp),
    nu - m q s]; the weighted column sums are _nll_derivatives' g."""
    nu, q, a, b, m, gu, gv, _ = _shape_terms(theta)
    d = lc - theta[3]
    t = q * d
    e = np.exp(-np.abs(t))          # as in kernels.softplus_wsum
    sp = np.maximum(t, 0.0) + np.log1p(e)
    s = np.where(t >= 0.0, 1.0, e) / (1.0 + e)
    return np.column_stack([gu + a * sp, gv - nu * d + b * sp,
                            -(gu + gv + 1.0) + m * (q * s * d - sp),
                            nu - m * q * s])


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
    Armijo condition holds.  The path has converged when the unshifted
    Hessian's Cholesky factorization succeeded (lam = 0) and the Newton
    decrement satisfies decrement^2 / 2 <= _NEWTON_TOL * (1 + |f|);
    scaling all weights by a constant scales f and decrement^2 alike, so
    the test is independent of the weight units.  A converged path's
    hess is therefore positive definite.  A failed line search or the
    step cap ends the path unconverged.
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
        top = np.arange(len(top)) < 10
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


def fit_mle(c, weights=None) -> FitResult:
    """Weighted maximum-likelihood GB2 fit.

    Parameters
    ----------
    c : 1-d array
        Observations c > 0.
    weights : optional 1-d array of c's shape
        Weights w > 0: None (unit weights) for firm fits, employee
        counts for worker-weighted fits.

    One damped-Newton path on the exact score and Hessian runs from a
    data-driven start: the rank-size tail slope for mu, the weighted
    median for c1, and nu = q = 1.

    Returns
    -------
    FitResult with the fitted parameters and weighted log-likelihood;
    converged, the path's convergence; n_iterations, the path's Newton
    steps; n_evaluations, the path's fused likelihood passes, line-search
    trial points included; and mu_stderr, the sandwich stderr of mu at
    the optimum: the delta method on the (ln mu, ln mu) entry of
    H^-1 J H^-1, where H is the Hessian at the optimum and J sums each
    observation's outer product of its weighted score, so that each
    observation (firm) is one sampling unit.  Scaling all weights leaves
    it unchanged.  It is inf when the path did not converge, where the
    score sum is not zero and the sandwich means nothing.

    Raises
    ------
    ValueError
        c not 1-d, weights not of c's shape, or a value not finite and > 0.
    InsufficientData
        Fewer than 100 observations.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError(f"c must be 1-d, weights apart; got shape {c.shape}")
    w = np.ones_like(c) if weights is None else np.asarray(weights, np.float64)
    if w.shape != c.shape:
        raise ValueError(f"weights must have c's shape {c.shape}, got {w.shape}")
    n_obs = len(c)
    if n_obs < _MIN_OBS:
        raise InsufficientData(
            f"need at least {_MIN_OBS} observations, got {n_obs}")
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

    mu0 = _tail_index_guess(uc[::-1], uw[::-1])
    c1_0 = _weighted_median(uc, uw)
    path = _newton(np.log([mu0, 1.0, 1.0, c1_0]), lc, uw, w_total, wlc_total)
    params = Gb2Params(*(math.exp(t) for t in path.theta))

    mu_stderr = (_mu_stderr(path.theta, path.hess, lc,
                            np.bincount(inv, weights=w * w))
                 if path.converged else math.inf)
    return FitResult(params=params, log_likelihood=-path.f, n_obs=n_obs,
                     mu_stderr=mu_stderr, converged=path.converged,
                     n_iterations=path.n_iterations,
                     n_evaluations=path.n_passes)


def _mu_stderr(theta: np.ndarray, hess: np.ndarray, lc: np.ndarray,
               w2: np.ndarray) -> float:
    """Sandwich stderr of mu at a converged optimum theta with its
    positive-definite Hessian: the (ln mu, ln mu) entry of H^-1 J H^-1,
    J = sum_v w2_v s_v s_v^T over the distinct values lc with per-value
    scores s_v and summed squared weights w2_v, and mu = exp(theta[0])
    carries it by the delta method."""
    var_lmu = float(w2 @ (_nll_scores(theta, lc) @ np.linalg.inv(hess)[0]) ** 2)
    return math.exp(theta[0]) * math.sqrt(var_lmu)
