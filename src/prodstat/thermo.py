"""Partition-function machinery over a firm-productivity distribution.

For a density p(c) on c > 0 with Pareto tail index mu_f and tail scale
c0 (upper-tail cdf ~ (c/c0)^-mu_f), this module computes

    Z(beta)      = int e^{-beta c} p(c) dc          (partition)
    D(beta)      = -d ln Z / d beta = <c>_beta      (demand)
    <c^n>_beta   = int c^n e^{-beta c} p(c) dc / Z  (moment)

by Gauss-Legendre quadrature, plus the three-branch small-beta
expansions of Z and D and a monotonicity check of the demand-temperature
relation dD/dT = beta^2 Var_beta(c) >= 0, T = 1/beta.

Quadrature strategy: c^n e^{-beta c} p(c) for every order n a caller
needs (Z, <c> and <c^2> together) comes from one vectorised pass over
one node array.  The axis is split at powers of ten around the model
scale.  The lower end is brought onto a power substitution that removes
the c^(nu-1) edge behavior, the far tail is folded to a finite interval
by c -> C/v (with an extra power substitution at beta = 0, where no
exponential factor tames the Pareto tail).  Every segment is smooth; a
20- and a 40-node rule on each bound its error, and only the segments
that miss the shared relative target are bisected, all in one batch.
The scheme reproduces 40-digit reference values of the GB2 Laplace
transform to full double precision for beta from 0 to 1e4.

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
_MAX_ROUNDS = 60           # bisection rounds before quad stops refining
_EXPANSION_GUARD = 0.1     # expansions refuse c0 * beta at or above this
_BRANCH_TOL = 1e-6         # |mu_f - 2| below this selects the log branch
_FD_STEP = 1e-4            # relative step of the demand finite difference
_VAR_AGREEMENT = 1e-4      # two-way dD/dT agreement requirement

# 20- and 40-node Gauss-Legendre rules on [-1, 1]
_GL_COARSE_X, _GL_COARSE_W = np.polynomial.legendre.leggauss(20)
_GL_FINE_X, _GL_FINE_W = np.polynomial.legendre.leggauss(40)
_GL_NODES = np.concatenate([_GL_COARSE_X, _GL_FINE_X])


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


def quad(f, a, b) -> np.ndarray:
    """Sum over the segments [a_i, b_i] of int f(x) dx for each of the
    integrands f returns at once.

    f maps a node array of shape (segments, nodes) to values of shape
    (integrands, segments, nodes).  Every segment gets a 20- and a
    40-node Gauss-Legendre rule and keeps the 40-node value; the
    difference of the two bounds its error.  While some integrand's
    summed error exceeds QUAD_EPSREL of its total, each segment whose
    error exceeds an equal share of that budget is bisected, and all new
    halves go through f in one call.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    vals, errs = _gauss_pair(f, a, b)
    for _ in range(_MAX_ROUNDS):
        tol = QUAD_EPSREL * np.abs(vals.sum(axis=1))
        if np.all(errs.sum(axis=1) <= tol):
            break
        split = np.any(errs > tol[:, None] / len(a), axis=0)
        if not split.any():            # NaN values: nothing to refine
            break
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_vals, new_errs = _gauss_pair(f, new_a, new_b)
        keep = ~split
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
    return vals.sum(axis=1)


def _gauss_pair(f, a: np.ndarray, b: np.ndarray):
    """Per-segment 40-node values and their distance to the 20-node ones."""
    half = 0.5 * (b - a)
    y = f((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES)
    n = len(_GL_COARSE_X)
    coarse = y[..., :n] @ _GL_COARSE_W * half
    fine = y[..., n:] @ _GL_FINE_W * half
    return fine, np.abs(fine - coarse)


def _density(m: ThermoModel):
    """The model's terms for quadrature: ln p(c) as a function of node
    arrays (c, ln c), the support floor, the scale that anchors the
    decade split, and the exponent a with p(c) ~ c^(a-1) at the lower
    edge (None when the support starts above zero)."""
    p = m.firm_pdf
    if isinstance(p, gb2.Gb2Params):
        ln_norm = math.log(p.q) - log_beta(p.mu / p.q, p.nu / p.q)
        ln_c1 = math.log(p.c1)

        def ln_p(c, lc):
            t = lc - ln_c1
            return (ln_norm - lc + p.nu * t
                    - (p.mu + p.nu) / p.q * kernels.softplus(p.q * t))

        return ln_p, 0.0, p.c1, p.nu
    if isinstance(p, ExponentialPdf):
        ln_lam = -math.log(p.mean)
        return (lambda c, lc: ln_lam - c / p.mean), 0.0, p.mean, 1.0
    ln_a = math.log(p.mu) + p.mu * math.log(p.c0)
    return (lambda c, lc: ln_a - (p.mu + 1.0) * lc), p.c0, p.c0, None


def _laplace(m: ThermoModel, beta: float, orders) -> tuple[list, float]:
    """(values, lo): int u^n e^{-beta u} p(c) dc for each n in orders,
    from one quad call, where lo is the support floor and u = c - lo.

    Powers of u rather than of c keep the variance of the floor-supported
    tail model free of cancellation, and e^{-beta u} leaves the caller a
    factor e^{-beta lo} that cancels in ratios and lets demand stay
    computable where the absolute Z underflows.
    """
    ln_p, lo, s, a = _density(m)
    hi = s * 1e12
    if beta > 0.0:
        hi = min(hi, max(50.0 / beta, 10.0 * s))

    pts = [s * 1e-6 if a is not None else lo]
    if a is None and beta > 0.0:
        # resolve the e^{-beta (c - c0)} boundary layer before the first
        # decade split
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

    # Each piece is u = e^{ln_scale} x^power on x in [x0, x1]: the head
    # u = x^(1/a) flattens the c^(a-1) edge, the decades are plain, and
    # the tail folds to (0, 1] by u = (hi - lo) / v.  At beta = 0 no
    # exponential tames a power tail, and u = (hi - lo) y^(-1/(mu_f - n))
    # leaves the top order's integrand flat at y = 0.
    pieces = [(x0 - lo, x1 - lo, 0.0, 1.0)
              for x0, x1 in zip(pts[:-1], pts[1:])]
    if a is not None:
        pieces.insert(0, (0.0, pts[0] ** a, 0.0, 1.0 / a))
    fold = 1.0
    if beta == 0.0 and math.isfinite(m.mu_f):
        fold = m.mu_f - max(orders)
    pieces.append((0.0, 1.0, math.log(hi - lo), -1.0 / fold))
    x0, x1, ln_scale, power = (np.array(col) for col in zip(*pieces))
    width = x1 - x0
    ln_jac = np.log(np.abs(power) * width)
    n = np.asarray(orders, dtype=np.float64)[:, None, None]

    # piece i spans [i, i + 1] of the quadrature axis t
    def f(t):
        i = np.minimum(t.astype(np.intp), len(pieces) - 1)
        lx = np.log(x0[i] + (t - i) * width[i])
        lu = ln_scale[i] + power[i] * lx
        u = np.exp(lu)
        c = lo + u
        expo = ln_p(c, np.log(c)) + ln_jac[i] + lu - lx
        if beta > 0.0:
            expo -= beta * u
        return np.exp(n * lu + expo)

    edges = np.arange(len(pieces) + 1, dtype=np.float64)
    return quad(f, edges[:-1], edges[1:]).tolist(), lo


# ---------------------------------------------------------------------------
# operations


def partition(m: ThermoModel, beta: float) -> float:
    """Z(beta), with Z(0) = 1."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"partition requires finite beta >= 0, got {beta!r}")
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
    """<c^n>_beta.  Diverges (raises) when beta = 0 and n >= mu_f."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"moment requires finite beta >= 0, got {beta!r}")
    if beta == 0.0 and n >= m.mu_f:
        raise DivergentMoment(
            f"<c^{n}> at beta = 0 diverges for mu_f = {m.mu_f}")
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
