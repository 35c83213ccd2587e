"""Partition-function machinery over a firm-productivity distribution.

For a density p(c) on c > 0 with Pareto tail index mu_f and tail scale
c0 (upper-tail cdf ~ (c/c0)^-mu_f), this module computes

    Z(beta)      = int e^{-beta c} p(c) dc          (partition)
    D(beta)      = -d ln Z / d beta = <c>_beta      (demand)
    <c^n>_beta   = int c^n e^{-beta c} p(c) dc / Z  (moment)

by adaptive quadrature, plus the three-branch small-beta expansions of
Z and D and a monotonicity check of the demand-temperature relation
dD/dT = beta^2 Var_beta(c) >= 0, T = 1/beta.

Quadrature strategy: split the axis at powers of ten around the model
scale.  The lower end is brought onto a power substitution that removes
the c^(nu-1) edge behavior, the far tail is folded to a finite interval
by c -> C/v (with an extra power substitution at beta = 0, where no
exponential factor tames the Pareto tail).  Every segment is smooth, so
the summed absolute errors stay at the requested relative level; the
scheme reproduces 40-digit reference values of the GB2 Laplace
transform to full double precision for beta from 0 to 1e4.

Supported models: GB2, exponential (tail index +inf), and a pure
power-law tail on [c0, inf) for tail-only work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import gb2
from .errors import DivergentMoment, OutOfRegime
from .specfun import gamma_neg, log_beta

_EPSREL = 1e-12            # per-segment quadrature target
_QUAD_LIMIT = 200
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
    def from_gb2(cls, params: gb2.Gb2Params) -> "ThermoModel":
        if params.mu <= 1.0:
            raise ValueError("mean diverges for mu <= 1; no thermodynamics")
        m2 = gb2.moment(params, 2) if params.mu > 2.0 else None
        return cls(firm_pdf=params, mu_f=params.mu,
                   c0=gb2.tail_scale(params),
                   mean0=gb2.moment(params, 1), m2=m2)

    @classmethod
    def exponential(cls, mean: float) -> "ThermoModel":
        pdf = ExponentialPdf(mean)
        return cls(firm_pdf=pdf, mu_f=math.inf, c0=mean,
                   mean0=mean, m2=2.0 * mean * mean)

    @classmethod
    def tabulated_tail(cls, mu_f: float, c0: float) -> "ThermoModel":
        pdf = TabulatedTailPdf(mu_f, c0)
        m2 = mu_f * c0 * c0 / (mu_f - 2.0) if mu_f > 2.0 else None
        return cls(firm_pdf=pdf, mu_f=mu_f, c0=c0,
                   mean0=mu_f * c0 / (mu_f - 1.0), m2=m2)


# ---------------------------------------------------------------------------
# quadrature


def _make_integrand(m: ThermoModel, n: float, beta: float):
    """Scalar integrand c^n e^{-beta c} p(c) with constants folded in."""
    p = m.firm_pdf
    if isinstance(p, gb2.Gb2Params):
        ln_norm = math.log(p.q) - log_beta(p.mu / p.q, p.nu / p.q)
        mu, nu, q, c1 = p.mu, p.nu, p.q, p.c1

        def f(c: float) -> float:
            if c <= 0.0:
                return 0.0
            lc = math.log(c / c1)
            lsp = max(q * lc, 0.0) + math.log1p(math.exp(-abs(q * lc)))
            expo = (ln_norm + (n - 1.0) * math.log(c) + nu * lc
                    - (mu + nu) / q * lsp - beta * c)
            return math.exp(expo) if expo > -745.0 else 0.0

        return f
    if isinstance(p, ExponentialPdf):
        lam = 1.0 / p.mean

        def f(c: float) -> float:
            if c <= 0.0:
                return 0.0
            expo = n * math.log(c) - lam * c - beta * c if n > 0 else -lam * c - beta * c
            return lam * math.exp(expo) if expo > -745.0 else 0.0

        return f
    mu, c0 = p.mu, p.c0
    ln_a = math.log(mu) + mu * math.log(c0)

    # the exponential is shifted to the support floor; the caller owes a
    # factor e^{-beta c0}, which cancels in ratios and lets demand stay
    # computable when the absolute Z underflows
    def f(c: float) -> float:
        if c < c0:
            return 0.0
        expo = ln_a + (n - mu - 1.0) * math.log(c) - beta * (c - c0)
        return math.exp(expo) if expo > -745.0 else 0.0

    return f


def _support_lo(m: ThermoModel) -> float:
    if isinstance(m.firm_pdf, TabulatedTailPdf):
        return m.firm_pdf.c0
    return 0.0


def _scale(m: ThermoModel) -> float:
    p = m.firm_pdf
    if isinstance(p, gb2.Gb2Params):
        return p.c1
    if isinstance(p, ExponentialPdf):
        return p.mean
    return p.c0


def _edge_exponent(m: ThermoModel, n: float) -> float:
    """a such that c^n p(c) ~ c^(a-1) at the lower support edge."""
    p = m.firm_pdf
    if isinstance(p, gb2.Gb2Params):
        return n + p.nu
    return n + 1.0


def _laplace_parts(m: ThermoModel, n: float, beta: float) -> tuple[float, float]:
    """(value, ln_prefactor) with the integral equal to value * e^{ln_prefactor}.

    The prefactor is e^{-beta c0} for the floor-supported tail model
    (whose integrand is shifted to the support edge) and 1 otherwise.
    Ratios of parts at the same beta cancel the prefactor exactly.
    """
    f = _make_integrand(m, n, beta)
    s = _scale(m)
    lo = _support_lo(m)

    hi = s * 1e12
    if beta > 0.0:
        hi = min(hi, max(50.0 / beta, 10.0 * s))

    pts = []
    if lo == 0.0:
        pts.append(s * 1e-6)
    else:
        pts.append(lo)
        if beta > 0.0:
            # resolve the e^{-beta (c - c0)} boundary layer before the
            # first decade split
            edge = 10.0 ** (math.floor(math.log10(lo)) + 1)
            j = 0
            while lo + 10.0 ** j / beta < min(edge, hi):
                pts.append(lo + 10.0 ** j / beta)
                j += 1
    k = math.floor(math.log10(pts[0])) + 1
    while 10.0 ** k < hi:
        if 10.0 ** k > pts[-1]:
            pts.append(10.0 ** k)
        k += 1
    pts.append(hi)

    total = 0.0
    if lo == 0.0:
        total += _head_segment(f, pts[0], _edge_exponent(m, n))
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, a, b, epsabs=0.0, epsrel=_EPSREL, limit=_QUAD_LIMIT)
        total += val
    total += _tail_segment(f, pts[-1], m, n, beta)
    ln_pref = -beta * lo if lo > 0.0 else 0.0
    return total, ln_pref


def laplace_integral(m: ThermoModel, n: float, beta: float) -> float:
    """int c^n e^{-beta c} p(c) dc over the support, by smooth segments."""
    val, ln_pref = _laplace_parts(m, n, beta)
    if ln_pref == 0.0 or val == 0.0:
        return val
    expo = math.log(val) + ln_pref
    return math.exp(expo) if expo > -745.0 else 0.0


def _head_segment(f, upper: float, a: float) -> float:
    """int_0^upper f(c) dc with f ~ c^(a-1) at zero, via u = c^a."""
    inv_a = 1.0 / a

    def g(u: float) -> float:
        c = u ** inv_a
        return f(c) * inv_a * u ** (inv_a - 1.0)

    val, _ = quad(g, 0.0, upper ** a, epsabs=0.0, epsrel=_EPSREL,
                  limit=_QUAD_LIMIT)
    return val


def _tail_segment(f, lower: float, m: ThermoModel, n: float,
                  beta: float) -> float:
    """int_lower^inf f(c) dc folded to (0, 1] by c = lower / v.

    At beta = 0 a pure power tail leaves v^(mu_f - n - 1) at v = 0; a
    second substitution y = v^(mu_f - n) flattens it exactly.
    """
    def g(v: float) -> float:
        return f(lower / v) * lower / (v * v)

    if beta == 0.0 and math.isfinite(m.mu_f):
        a2 = m.mu_f - n
        if a2 <= 0.0:
            raise DivergentMoment(
                f"moment of order {n} diverges at beta = 0 for mu_f = {m.mu_f}")
        inv_a2 = 1.0 / a2

        def h(y: float) -> float:
            v = y ** inv_a2
            return g(v) * inv_a2 * y ** (inv_a2 - 1.0)

        val, _ = quad(h, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL,
                      limit=_QUAD_LIMIT)
        return val

    val, _ = quad(g, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL, limit=_QUAD_LIMIT)
    return val


# ---------------------------------------------------------------------------
# operations


def partition(m: ThermoModel, beta: float) -> float:
    """Z(beta), with Z(0) = 1."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"partition requires finite beta >= 0, got {beta!r}")
    return laplace_integral(m, 0.0, beta)


def demand(m: ThermoModel, beta: float) -> float:
    """Mean demand D(beta) = <c>_beta; D(0) is the cached mean0."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"demand requires finite beta >= 0, got {beta!r}")
    if beta == 0.0:
        return m.mean0
    m1, _ = _laplace_parts(m, 1.0, beta)
    z, _ = _laplace_parts(m, 0.0, beta)
    return m1 / z


def moment(m: ThermoModel, n: int, beta: float) -> float:
    """<c^n>_beta.  Diverges (raises) when beta = 0 and n >= mu_f."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"moment requires finite beta >= 0, got {beta!r}")
    if beta == 0.0 and n >= m.mu_f:
        raise DivergentMoment(
            f"<c^{n}> at beta = 0 diverges for mu_f = {m.mu_f}")
    mn, _ = _laplace_parts(m, float(n), beta)
    z, _ = _laplace_parts(m, 0.0, beta)
    return mn / z


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
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("beta_grid must be positive and strictly increasing")

    floor = 1e-10 * m.mean0 ** 2
    points = []
    prev_demand = math.inf
    for beta in grid:
        m1, _ = _laplace_parts(m, 1.0, beta)
        m2b, _ = _laplace_parts(m, 2.0, beta)
        z, _ = _laplace_parts(m, 0.0, beta)
        d_mid = m1 / z
        d_lo = demand(m, beta * (1.0 - _FD_STEP))
        d_hi = demand(m, beta * (1.0 + _FD_STEP))
        dd_dbeta = (d_hi - d_lo) / (2.0 * beta * _FD_STEP)
        dd_dt_fd = -beta * beta * dd_dbeta
        var = m2b / z - d_mid ** 2
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
