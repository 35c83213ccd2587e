"""Partition-function machinery over a firm-productivity distribution.

For a density p(c) on c > 0 with Pareto tail index mu_f and tail scale
c0 (upper-tail cdf ~ (c/c0)^-mu_f), this module computes

    Z(beta)      = int e^{-beta c} p(c) dc          (partition)
    D(beta)      = -d ln Z / d beta = <c>_beta      (demand)
    <c^n>_beta   = int c^n e^{-beta c} p(c) dc / Z  (moment)

by quadrature (closed forms at beta = 0), plus the three-branch
small-beta expansions of Z and D and a monotonicity check of the
demand-temperature relation dD/dT = beta^2 Var_beta(c) >= 0, T = 1/beta.

Quadrature strategy: in x = ln(c - floor), with floor the lower end of
the support, c^n e^{-beta c} p(c) is smooth and decays at both ends, so
the trapezoid rule converges geometrically in the step (Trefethen and
Weideman, SIAM Review 56 (2014) 385).  One rule serves every order n a
caller needs (Z, <c> and <c^2> together) on one node array; the step is
halved until two sums agree to the relative target.  The range comes
from the two edge decay rates: u^(n+a) below the model scale, where
p ~ u^(a-1), and the e^{-beta u} cutoff above.

Supported models: GB2, exponential (tail index +inf), and a pure
power-law tail on [c0, inf) for tail-only work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gb2, kernels
from .errors import DivergentMoment, OutOfRegime
from .specfun import gamma_neg, log_beta

QUAD_EPSREL = 1e-12        # relative error target of every Laplace integral
_MAX_NODES = 1 << 21       # quad raises rather than evaluate more nodes
_TAIL_EFOLDS = 45.0        # integrand e-folds kept beyond each end of the range
_EXPANSION_GUARD = 0.1     # expansions refuse c0 * beta at or above this
_BRANCH_TOL = 1e-6         # |mu_f - 2| below this selects the log branch
_FD_STEP = 1e-4            # relative step of the demand finite difference
_VAR_AGREEMENT = 1e-4      # two-way dD/dT agreement requirement


@dataclass(frozen=True)
class ExponentialPdf:
    """p(c) = e^{-c/mean} / mean on c > 0."""

    mean: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError("exponential mean must be finite and > 0")


@dataclass(frozen=True)
class TabulatedTailPdf:
    """Pure Pareto tail: p(c) = mu c0^mu c^{-mu-1} on c >= c0, so the
    upper-tail cdf is exactly (c/c0)^-mu."""

    mu: float
    c0: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 1.0):
            raise ValueError("tail index must be finite and > 1")
        if not (math.isfinite(self.c0) and self.c0 > 0.0):
            raise ValueError("tail scale must be finite and > 0")


@dataclass(frozen=True)
class ThermoModel:
    """A firm-productivity pdf with cached tail and moment constants.

    mean0 is the unweighted mean <c>_0 (requires mu_f > 1); m2 is
    <c^2>_0, present exactly when mu_f > 2.  c0 is the Pareto tail
    scale; for the exponential model, which has no power tail, c0
    carries the mean as the characteristic scale used by the expansion
    validity guard.
    """

    firm_pdf: gb2.Gb2Params | ExponentialPdf | TabulatedTailPdf
    mu_f: float
    c0: float
    mean0: float
    m2: float | None

    @classmethod
    def _of(cls, pdf, mu_f: float, c0: float) -> "ThermoModel":
        return cls(firm_pdf=pdf, mu_f=mu_f, c0=c0, mean0=_moment0(pdf, 1),
                   m2=_moment0(pdf, 2) if mu_f > 2.0 else None)

    @classmethod
    def from_gb2(cls, params: gb2.Gb2Params) -> "ThermoModel":
        if params.mu <= 1.0:
            raise ValueError("mean diverges for mu <= 1; no thermodynamics")
        return cls._of(params, params.mu, gb2.tail_scale(params))

    @classmethod
    def exponential(cls, mean: float) -> "ThermoModel":
        return cls._of(ExponentialPdf(mean), math.inf, mean)

    @classmethod
    def tabulated_tail(cls, mu_f: float, c0: float) -> "ThermoModel":
        return cls._of(TabulatedTailPdf(mu_f, c0), mu_f, c0)


def _moment0(pdf, n: int) -> float:
    """<c^n>_0 in closed form, for 0 <= n < mu_f."""
    if isinstance(pdf, gb2.Gb2Params):
        return gb2.moment(pdf, n)
    if isinstance(pdf, ExponentialPdf):
        return math.factorial(n) * pdf.mean ** n
    return pdf.mu * pdf.c0 ** n / (pdf.mu - n)


# ---------------------------------------------------------------------------
# quadrature


def quad(f, a: float, b: float) -> np.ndarray:
    """Trapezoid-rule integrals over the real line of the integrands f
    returns at once, each negligible outside [a, b].

    f maps a 1-d node array to values of shape (integrands, nodes).  The
    nodes are the multiples of the step that cover [a, b], so each is
    exact.  The step starts at 1/2 and is halved, each level evaluating
    only the new midpoints, until two successive sums agree to
    QUAD_EPSREL relative for every integrand.  A non-finite sum is
    returned as it is; a level that would bring the node count past
    _MAX_NODES raises ValueError.
    """
    if not 2.0 * (b - a) + 3.0 <= _MAX_NODES:
        raise ValueError(f"quad range [{a}, {b}] needs more than "
                         f"{_MAX_NODES} nodes")
    h, k0, k1 = 0.5, math.floor(2.0 * a), math.ceil(2.0 * b)
    total = h * f(h * np.arange(k0, k1 + 1)).sum(axis=1)
    while np.all(np.isfinite(total)):
        h, k0, k1 = 0.5 * h, 2 * k0, 2 * k1
        if k1 - k0 + 1 > _MAX_NODES:
            raise ValueError(
                f"quad did not converge within {_MAX_NODES} nodes")
        new = 0.5 * total + h * f(h * np.arange(k0 + 1, k1, 2)).sum(axis=1)
        if np.all(np.abs(new - total) <= QUAD_EPSREL * np.abs(new)):
            return new
        total = new
    return total


def _density(m: ThermoModel):
    """The model's terms for quadrature: ln p(c) as a function of node
    arrays (c, ln c), the support floor lo, the scale s below which
    p(lo + u) ~ u^(a - 1) holds to within a factor e, the exponent a,
    and the rate of the model's own e^{-u/mean} factor (0 for the power
    tails)."""
    p = m.firm_pdf
    if isinstance(p, gb2.Gb2Params):
        ln_norm = math.log(p.q) - log_beta(p.mu / p.q, p.nu / p.q)
        ln_c1 = math.log(p.c1)

        def ln_p(c, lc):
            t = lc - ln_c1
            return (ln_norm - lc + p.nu * t
                    - (p.mu + p.nu) / p.q * kernels.softplus(p.q * t))

        s = p.c1 * min(1.0, p.q / (p.mu + p.nu)) ** (1.0 / p.q)
        return ln_p, 0.0, s, p.nu, 0.0
    if isinstance(p, ExponentialPdf):
        ln_lam = -math.log(p.mean)
        return ((lambda c, lc: ln_lam - c / p.mean), 0.0, math.inf, 1.0,
                1.0 / p.mean)
    ln_a = math.log(p.mu) + p.mu * math.log(p.c0)
    return ((lambda c, lc: ln_a - (p.mu + 1.0) * lc), p.c0,
            p.c0 / (p.mu + 1.0), 1.0, 0.0)


def _laplace(m: ThermoModel, beta: float, orders) -> tuple[list, float]:
    """(values, lo): int u^n e^{-beta u} p(c) dc for each n in orders and
    beta > 0, from one quad call, where lo is the support floor and
    u = c - lo.

    In x = ln u each integrand is smooth and decays like e^{(n + a) x}
    below min(s, 1/r), r = beta + the model's own rate, and above like a
    gamma density in r u of shape at most n + a.  The range keeps
    _TAIL_EFOLDS e-folds of the first and ends at
    r u = _TAIL_EFOLDS + 4 (n + a + 1).  Powers of u rather than of c
    keep the variance of the floor-supported tail model free of
    cancellation, and e^{-beta u} leaves the caller a factor e^{-beta lo}
    that cancels in ratios and lets demand stay computable where the
    absolute Z underflows.
    """
    ln_p, lo, s, a, rate = _density(m)
    r = beta + rate
    x_lo = math.log(min(s, 1.0 / r)) - _TAIL_EFOLDS / (min(orders) + a)
    x_hi = math.log((_TAIL_EFOLDS + 4.0 * (max(orders) + a + 1.0)) / r)
    n = np.asarray(orders, dtype=np.float64)[:, None]

    def f(x):
        u = np.exp(x)
        c = lo + u
        expo = x + ln_p(c, np.log(c) if lo else x) - beta * u
        return np.exp(n * x + expo)

    return quad(f, x_lo, x_hi).tolist(), lo


# ---------------------------------------------------------------------------
# operations


def partition(m: ThermoModel, beta: float) -> float:
    """Z(beta), with Z(0) = 1."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"partition requires finite beta >= 0, got {beta!r}")
    if beta == 0.0:
        return 1.0
    (z,), lo = _laplace(m, beta, (0,))
    return z * math.exp(-beta * lo)


def demand(m: ThermoModel, beta: float) -> float:
    """Mean demand D(beta) = <c>_beta; D(0) is the cached mean0."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"demand requires finite beta >= 0, got {beta!r}")
    if beta == 0.0:
        return m.mean0
    (z, m1), lo = _laplace(m, beta, (0, 1))
    return lo + m1 / z


def moment(m: ThermoModel, n: int, beta: float) -> float:
    """<c^n>_beta, in closed form at beta = 0, where it diverges (raises)
    for n >= mu_f."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"moment requires finite beta >= 0, got {beta!r}")
    if beta == 0.0:
        if n >= m.mu_f:
            raise DivergentMoment(
                f"<c^{n}> at beta = 0 diverges for mu_f = {m.mu_f}")
        return _moment0(m.firm_pdf, n)
    vals, lo = _laplace(m, beta, range(n + 1))
    # <c^n> from the moments of u = c - lo, all terms nonnegative
    return sum(math.comb(n, k) * lo ** (n - k) * v
               for k, v in enumerate(vals)) / vals[0]


def _require_expansion_regime(m: ThermoModel, beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"expansion requires finite beta >= 0, got {beta!r}")
    if m.c0 * beta >= _EXPANSION_GUARD:
        raise OutOfRegime(
            f"c0 * beta = {m.c0 * beta:.3g} is outside the small-beta "
            f"expansion regime (< {_EXPANSION_GUARD})")


def partition_expansion(m: ThermoModel, beta: float) -> float:
    """Leading small-beta behavior of Z(beta), branch set by mu_f:

        1 - mean0 b + m2 b^2 / 2                    mu_f > 2
        1 - mean0 b - (c0 b)^2 log(c0 b)            mu_f = 2
        1 - mean0 b + mu_f Gamma(-mu_f) (c0 b)^mu_f 1 < mu_f < 2
    """
    _require_expansion_regime(m, beta)
    if beta == 0.0:
        return 1.0
    if abs(m.mu_f - 2.0) < _BRANCH_TOL:
        x = m.c0 * beta
        return 1.0 - m.mean0 * beta - x * x * math.log(x)
    if m.mu_f > 2.0:
        return 1.0 - m.mean0 * beta + 0.5 * m.m2 * beta * beta
    return (1.0 - m.mean0 * beta
            + m.mu_f * gamma_neg(-m.mu_f) * (m.c0 * beta) ** m.mu_f)


def demand_expansion(m: ThermoModel, beta: float) -> float:
    """Leading small-beta behavior of D(beta), branch set by mu_f:

        mean0 - (m2 - mean0^2) b                        mu_f > 2
        mean0 + 2 c0^2 b log(c0 b)                      mu_f = 2
        mean0 - mu_f^2 Gamma(-mu_f) c0^mu_f b^(mu_f-1)  1 < mu_f < 2
    """
    _require_expansion_regime(m, beta)
    if beta == 0.0:
        return m.mean0
    if abs(m.mu_f - 2.0) < _BRANCH_TOL:
        x = m.c0 * beta
        return m.mean0 + 2.0 * m.c0 * m.c0 * beta * math.log(x)
    if m.mu_f > 2.0:
        return m.mean0 - (m.m2 - m.mean0 * m.mean0) * beta
    return (m.mean0 - m.mu_f ** 2 * gamma_neg(-m.mu_f)
            * m.c0 ** m.mu_f * beta ** (m.mu_f - 1.0))


def expansion_error_orders(m: ThermoModel, x: float) -> tuple[float, float]:
    """Predicted log-log slopes, at c0*beta = x, of the relative deficit
    errors of demand_expansion and partition_expansion: the order in x
    of the first neglected term relative to the leading kept one.

    With e = |mu_f - 2|, the demand error is O(x^min(e, 1)); as mu_f
    approaches 2 its coefficient and that of the kept linear term both
    diverge like 1/e, and the slope becomes min(e, 1) / (1 - x^min(e, 1)),
    whose e -> 0 limit 1/|ln x| is the slope of the log branch's
    O(1/ln x) error.  The partition error is O(x^min(mu_f - 1, 2)) above
    mu_f = 2 and O(x) at and below it.  Below mu_f = 2 a GB2 tail carries
    a (c/c1)^-q correction, which adds an O(x^q) demand and O(x^(mu_f-1+q))
    partition error.  The exponential model's errors are O(x) and O(x^2).
    """
    if math.isinf(m.mu_f):
        return 1.0, 2.0
    if abs(m.mu_f - 2.0) < _BRANCH_TOL:
        return 1.0 / abs(math.log(x)), 1.0
    e = min(abs(m.mu_f - 2.0), 1.0)
    d_order = e / (1.0 - x ** e)
    if m.mu_f > 2.0:
        return d_order, min(m.mu_f - 1.0, 2.0)
    if isinstance(m.firm_pdf, gb2.Gb2Params):
        q = m.firm_pdf.q
        return min(d_order, q), min(1.0, m.mu_f - 1.0 + q)
    return d_order, 1.0


# ---------------------------------------------------------------------------
# monotonicity report


@dataclass(frozen=True)
class MonotonicityPoint:
    beta: float
    demand: float
    dd_dt_fd: float        # -beta^2 * dD/dbeta by central finite difference
    dd_dt_var: float       # beta^2 * (<c^2>_beta - <c>_beta^2)
    rel_diff: float
    passed: bool


@dataclass(frozen=True)
class MonotonicityReport:
    points: tuple[MonotonicityPoint, ...]
    all_passed: bool


def check_monotonicity(m: ThermoModel, beta_grid) -> MonotonicityReport:
    """Verify dD/dT >= 0 along the grid and that the two routes to
    dD/dT (finite difference of D, and the variance identity) agree to
    1e-4 relative, with an absolute floor for zero-variance models."""
    grid = np.asarray(beta_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("beta_grid must be a nonempty 1-d sequence")
    if (not np.all(np.isfinite(grid)) or np.any(grid <= 0.0)
            or np.any(np.diff(grid) <= 0.0)):
        raise ValueError(
            "beta_grid must be finite, positive and strictly increasing")

    floor = 1e-10 * m.mean0 ** 2
    points = []
    prev_demand = math.inf
    for beta in grid:
        (z, m1, m2), lo = _laplace(m, beta, (0, 1, 2))
        mean_u = m1 / z
        d_mid = lo + mean_u
        d_lo = demand(m, beta * (1.0 - _FD_STEP))
        d_hi = demand(m, beta * (1.0 + _FD_STEP))
        dd_dbeta = (d_hi - d_lo) / (2.0 * beta * _FD_STEP)
        dd_dt_fd = -beta * beta * dd_dbeta
        var = m2 / z - mean_u ** 2
        dd_dt_var = beta * beta * var

        denom = max(abs(dd_dt_fd), abs(dd_dt_var))
        rel = abs(dd_dt_fd - dd_dt_var) / denom if denom > 0.0 else 0.0
        agree = rel <= _VAR_AGREEMENT or denom <= floor
        nonneg = dd_dt_var >= -floor
        noninc = d_mid <= prev_demand * (1.0 + 1e-12) + floor
        points.append(MonotonicityPoint(
            beta=float(beta), demand=d_mid, dd_dt_fd=dd_dt_fd,
            dd_dt_var=dd_dt_var, rel_diff=rel,
            passed=bool(agree and nonneg and noninc)))
        prev_demand = d_mid
    return MonotonicityReport(points=tuple(points),
                              all_passed=all(p.passed for p in points))
