"""Partition-function machinery over a firm-productivity distribution.

For a density p(c) on c > 0 with Pareto tail index mu_f and tail scale
c0 (upper-tail cdf ~ (c/c0)^-mu_f), this module computes

    Z(beta)      = int e^{-beta c} p(c) dc          (partition)
    D(beta)      = -d ln Z / d beta = <c>_beta      (demand)
    <c^n>_beta   = int c^n e^{-beta c} p(c) dc / Z  (moment)

by quadrature (closed forms at beta = 0), plus the three-branch
small-beta expansions of Z and D (with gamma_neg, a domain-checked
math.gamma at negative arguments) and a monotonicity check of the
demand-temperature relation dD/dT = beta^2 Var_beta(c) >= 0, T = 1/beta.
check_model runs that check, the demand limits and the expansions'
error orders, and returns the report the `prodstat thermo` job writes.

Quadrature strategy: in x = ln(c - floor), with floor the lower end of
the support, c^n e^{-beta c} p(c) is smooth and decays at both ends, so
the trapezoid rule converges geometrically in the step (Trefethen and
Weideman, SIAM Review 56 (2014) 385).  One rule serves every order n a
caller needs (Z, <c> and <c^2> together) at every beta it needs on one
node array: the monotonicity check takes each grid beta and its two
finite-difference neighbours beta (1 +- _FD_STEP) from one pass, and the
expansion check takes Z and D together.  The step is halved until two
sums agree to the relative target for every integrand.  The range comes
from the two edge decay rates: u^(n+a) below the model scale, where
p ~ u^(a-1), and the e^{-beta u} cutoff above, at the largest and the
smallest beta.

Supported models: GB2, exponential (tail index +inf), and a pure
power-law tail on [c0, inf) for tail-only work.  parse_model reads one
from a spec kind:key=value,... by the MODEL_KINDS table, so a new family
touches this module only.  A thermal moment that overflows a float
raises ValueError naming its beta.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import gb2
from .errors import DivergentMoment, OutOfRegime
# log_beta stays bound here: perfbench/tracing.py wraps thermo.log_beta by name
from .gb2 import log_beta  # noqa: F401

QUAD_EPSREL = 1e-12        # relative error target of every Laplace integral
_MAX_NODES = 1 << 21       # quad raises rather than evaluate more nodes
_TAIL_EFOLDS = 45.0        # integrand e-folds kept beyond each end of the range
_EXPANSION_GUARD = 0.1     # expansions refuse c0 * beta at or above this
_BRANCH_TOL = 1e-6         # |mu_f - 2| below this selects the log branch
_POLE_TOL = 1e-12          # distance to a non-positive integer treated as a pole
_FD_STEP = 1e-4            # relative step of the demand finite difference
_VAR_AGREEMENT = 1e-4      # two-way dD/dT agreement requirement
_ORDER_TOL = 0.5           # allowed |observed / predicted - 1| error order
# D/mean0 and Z noise bound: 1000x the quadrature target, 1e-9
_ORDER_FLOOR = 1e3 * QUAD_EPSREL


@contextlib.contextmanager
def _finite_at(beta: float):
    """Turn a float overflow in the block into ValueError naming beta."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ValueError(f"thermal moments at beta = {float(beta)!r} "
                         "overflow a float") from None


def _normal(name: str, compute: Callable[[], float]) -> float:
    """compute(), or ValueError naming it unless a normal float > 0."""
    try:
        v = compute()
    except OverflowError:
        raise ValueError(f"{name} overflows a float") from None
    if not (math.isfinite(v) and v >= np.finfo(np.float64).tiny):
        raise ValueError(f"{name} = {v!r} is not a positive normal float")
    return v


@dataclass(frozen=True)
class ThermoModel:
    """A firm-productivity pdf as the data the computations read.

    mu_f is the Pareto tail index and c0 the tail scale; for the
    exponential model, which has no power tail, mu_f is inf and c0
    carries the mean as the scale of the expansion validity guard.
    mean0 is <c>_0 (requires mu_f > 1) and m2 is <c^2>_0, present exactly
    when mu_f > 2; moment0(n) is <c^n>_0 in closed form for n < mu_f.

    ln_p(c, ln c) is the log density on node arrays.  The support starts
    at floor, and below scale p(floor + u) ~ u^(low_exp - 1) holds to
    within a factor e; rate is the model's own e^{-rate u} factor (0 for
    the power tails).  p(floor + u) / u^(low_exp - 1) does not increase
    in u for any family.  tail_q is the exponent of the GB2 tail's
    (c/c1)^-q correction, inf for the other families.

    Each constructor is the one place that knows its family; it raises
    ValueError naming c0, mean0 or m2 if that is not a normal float > 0.
    """

    mu_f: float
    c0: float
    mean0: float
    m2: float | None
    moment0: Callable[[int], float]
    ln_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    floor: float
    scale: float
    low_exp: float
    rate: float
    tail_q: float

    @classmethod
    def _of(cls, mu_f: float, c0: Callable[[], float], moment0,
            **terms) -> "ThermoModel":
        return cls(mu_f=mu_f, c0=_normal("c0", c0),
                   mean0=_normal("mean0", lambda: moment0(1)),
                   m2=_normal("m2", lambda: moment0(2)) if mu_f > 2.0 else None,
                   moment0=moment0, **terms)

    @classmethod
    def from_gb2(cls, p: gb2.Gb2Params) -> "ThermoModel":
        if p.mu <= 1.0:
            raise ValueError("mean diverges for mu <= 1; no thermodynamics")
        return cls._of(p.mu, lambda: gb2.tail_scale(p),
                       lambda n: gb2.moment(p, n),
                       ln_p=lambda c, lc: gb2.log_pdf(p, lc), floor=0.0,
                       scale=p.c1 * min(1.0, p.q / (p.mu + p.nu)) ** (1.0 / p.q),
                       low_exp=p.nu, rate=0.0, tail_q=p.q)

    @classmethod
    def exponential(cls, mean: float) -> "ThermoModel":
        """p(c) = e^{-c/mean} / mean on c > 0."""
        if not (math.isfinite(mean) and mean > 0.0):
            raise ValueError("exponential mean must be finite and > 0")
        return cls._of(math.inf, lambda: mean,
                       lambda n: math.factorial(n) * mean ** n,
                       ln_p=lambda c, lc: -math.log(mean) - c / mean, floor=0.0,
                       scale=math.inf, low_exp=1.0, rate=1.0 / mean,
                       tail_q=math.inf)

    @classmethod
    def tabulated_tail(cls, mu_f: float, c0: float) -> "ThermoModel":
        """Pure Pareto tail: p(c) = mu_f c0^mu_f c^{-mu_f-1} on c >= c0, so
        the upper-tail cdf is exactly (c/c0)^-mu_f."""
        if not (math.isfinite(mu_f) and mu_f > 1.0):
            raise ValueError("tail index must be finite and > 1")
        return cls._of(mu_f, lambda: c0, lambda n: mu_f * c0 ** n / (mu_f - n),
                       ln_p=lambda c, lc: (math.log(mu_f) + mu_f * math.log(c0)
                                           - (mu_f + 1.0) * lc),
                       floor=c0, scale=c0 / (mu_f + 1.0), low_exp=1.0,
                       rate=0.0, tail_q=math.inf)


# model kind -> (constructor, the keys of its spec in argument order)
MODEL_KINDS = {
    "exponential": (ThermoModel.exponential, ("mean",)),
    "gb2": (lambda *p: ThermoModel.from_gb2(gb2.Gb2Params(*p)),
            ("mu", "nu", "q", "c1")),
    "tail": (ThermoModel.tabulated_tail, ("mu", "c0")),
}


def parse_model(spec: str) -> ThermoModel:
    """The model of a spec kind:key=value,... that gives each of its
    kind's MODEL_KINDS keys once; ValueError naming the spec otherwise."""
    kind, _, rest = spec.partition(":")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r} "
                         f"(want {', '.join(MODEL_KINDS)})")
    make, keys = MODEL_KINDS[kind]
    items = [item.partition("=") for item in rest.split(",") if item]
    if sorted(key.strip() for key, _, _ in items) != sorted(keys):
        raise ValueError(f"bad model spec {spec!r}: {kind} wants each of "
                         f"{', '.join(keys)} once and no other key")
    values = {key.strip(): val for key, _, val in items}
    try:
        return make(*(float(values[key]) for key in keys))
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from None


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


def _laplace(m: ThermoModel, betas, orders) -> tuple[np.ndarray, np.ndarray]:
    """(values, ln_scale) for betas > 0, from one quad call on one node
    array: values[i, j] times e^{ln_scale[i]} is
    int u^n e^{-beta c} p(c) dc for beta = betas[i] and n = orders[j],
    where u = c - floor.  An overflow raises ValueError naming betas[0].

    In x = ln u each integrand is smooth and decays like
    e^{(n + low_exp) x} below min(scale, 1/r), r = beta + rate, and above
    like a gamma density in r u of shape at most n + low_exp.  The range
    keeps _TAIL_EFOLDS e-folds of the first at the largest beta and ends
    at r u = _TAIL_EFOLDS + 4 (n + low_exp + 1) at the smallest.  Powers
    of u rather than of c keep the variance of the floor-supported tail
    model free of cancellation.  The integrands of each beta are divided
    by its largest order-0 value on quad's first level, so ratios stay
    finite where Z underflows; ln_scale restores that factor and
    e^{-beta floor}.
    """
    b = np.asarray(betas, dtype=np.float64)[:, None]
    r = b + m.rate
    x_lo = (math.log(min(m.scale, 1.0 / r.max()))
            - _TAIL_EFOLDS / (min(orders) + m.low_exp))
    # a difference of logs: the quotient overflows for r near the normal floor
    x_hi = math.log(_TAIL_EFOLDS + 4.0 * (max(orders) + m.low_exp + 1.0)) - math.log(r.min())
    n = np.asarray(orders, dtype=np.float64)[:, None]
    peak = None

    def f(x):
        nonlocal peak
        u = np.exp(x)
        c = m.floor + u
        expo = x + m.ln_p(c, np.log(c) if m.floor else x) - b * u
        if peak is None:
            peak = expo.max(axis=1, keepdims=True)
        return np.exp(n * x + (expo - peak)[:, None]).reshape(-1, len(x))

    with _finite_at(b[0, 0]):
        vals = quad(f, x_lo, x_hi).reshape(len(b), len(n))
    return vals, (peak - b * m.floor)[:, 0]


# ---------------------------------------------------------------------------
# operations


def partition(m: ThermoModel, beta: float) -> float:
    """Z(beta), with Z(0) = 1."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"partition requires finite beta >= 0, got {beta!r}")
    if beta == 0.0:
        return 1.0
    vals, ln_scale = _laplace(m, (beta,), (0,))
    return float(vals[0, 0]) * math.exp(ln_scale[0])


def demand(m: ThermoModel, beta: float) -> float:
    """Mean demand D(beta) = <c>_beta; D(0) is mean0."""
    return moment(m, 1, beta)


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
        return m.moment0(n)
    vals = _laplace(m, (beta,), range(n + 1))[0][0].tolist()
    # <c^n> from the moments of u = c - floor, all terms nonnegative
    return sum(math.comb(n, k) * m.floor ** (n - k) * (v / vals[0])
               for k, v in enumerate(vals))


def gamma_neg(x: float) -> float:
    """Gamma(x) for non-integer x, including x < 0, |x| < 170."""
    if not math.isfinite(x) or abs(x) >= 170.0:
        raise ValueError(f"gamma_neg requires finite |x| < 170, got {x!r}")
    r = round(x)
    if r <= 0 and abs(x - r) < _POLE_TOL:
        raise ValueError(f"gamma_neg pole at non-positive integer x = {x!r}")
    return math.gamma(x)


def _expansion_terms(m: ThermoModel, beta: float) -> tuple[float, float]:
    """(Z term, D term): what partition_expansion adds to 1 - mean0 beta
    and demand_expansion adds to mean0, both from one branch on mu_f."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"expansion requires finite beta >= 0, got {beta!r}")
    if m.c0 * beta >= _EXPANSION_GUARD:
        raise OutOfRegime(
            f"c0 * beta = {m.c0 * beta:.3g} is outside the small-beta "
            f"expansion regime (< {_EXPANSION_GUARD})")
    if beta == 0.0:
        return 0.0, 0.0
    if abs(m.mu_f - 2.0) < _BRANCH_TOL:
        x = m.c0 * beta
        log_x = math.log(x)
        return -(x * x * log_x), 2.0 * m.c0 * m.c0 * beta * log_x
    if m.mu_f > 2.0:
        return (0.5 * m.m2 * beta * beta,
                -((m.m2 - m.mean0 * m.mean0) * beta))
    g = gamma_neg(-m.mu_f)
    return (m.mu_f * g * (m.c0 * beta) ** m.mu_f,
            -(m.mu_f ** 2 * g * m.c0 ** m.mu_f * beta ** (m.mu_f - 1.0)))


def partition_expansion(m: ThermoModel, beta: float) -> float:
    """Leading small-beta behavior of Z(beta), branch set by mu_f:

        1 - mean0 b + m2 b^2 / 2                    mu_f > 2
        1 - mean0 b - (c0 b)^2 log(c0 b)            mu_f = 2
        1 - mean0 b + mu_f Gamma(-mu_f) (c0 b)^mu_f 1 < mu_f < 2
    """
    return 1.0 - m.mean0 * beta + _expansion_terms(m, beta)[0]


def demand_expansion(m: ThermoModel, beta: float) -> float:
    """Leading small-beta behavior of D(beta), branch set by mu_f:

        mean0 - (m2 - mean0^2) b                        mu_f > 2
        mean0 + 2 c0^2 b log(c0 b)                      mu_f = 2
        mean0 - mu_f^2 Gamma(-mu_f) c0^mu_f b^(mu_f-1)  1 < mu_f < 2
    """
    return m.mean0 + _expansion_terms(m, beta)[1]


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
    return min(d_order, m.tail_q), min(1.0, m.mu_f - 1.0 + m.tail_q)


# ---------------------------------------------------------------------------
# monotonicity report


# one monotonicity point per grid beta: dd_dt_fd is -beta^2 dD/dbeta by
# central finite difference, dd_dt_var is beta^2 (<c^2>_beta - <c>_beta^2)
_POINT_DTYPE = np.dtype([("beta", np.float64), ("demand", np.float64),
                         ("dd_dt_fd", np.float64), ("dd_dt_var", np.float64),
                         ("rel_diff", np.float64), ("passed", np.bool_)])


def check_monotonicity(m: ThermoModel, beta_grid) -> np.ndarray:
    """The monotonicity points of the grid, one structured array of
    _POINT_DTYPE with a row per grid beta.  A point passes when
    dD/dT >= 0 there, D does not rise from the previous point, and the
    two routes to dD/dT (finite difference, variance identity) agree to
    1e-4 relative, with absolute floors 1e-10 for unitless beta^2 Var
    and 1e-10 mean0 for D."""
    grid = np.asarray(beta_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("beta_grid must be a nonempty 1-d sequence")
    if (not np.all(np.isfinite(grid)) or np.any(grid <= 0.0)
            or np.any(np.diff(grid) <= 0.0)):
        raise ValueError(
            "beta_grid must be finite, positive and strictly increasing")
    # below the normal floats the finite-difference step underflows to 0
    if grid[0] < np.finfo(np.float64).tiny:
        raise ValueError(f"beta_grid point {float(grid[0])!r} is not a normal float")

    var_floor, d_floor = 1e-10, 1e-10 * m.mean0
    rows = []
    prev_demand = math.inf
    for beta in grid:
        with _finite_at(beta):
            # beta and its finite-difference neighbours share one node array
            vals, _ = _laplace(m, beta * np.array([1.0, 1.0 - _FD_STEP, 1.0 + _FD_STEP]),
                               (0, 1, 2))
            d_mid, d_lo, d_hi = (m.floor + vals[:, 1] / vals[:, 0]).tolist()
            z, m1, m2 = vals[0].tolist()
            dd_dbeta = (d_hi - d_lo) / (2.0 * beta * _FD_STEP)
            dd_dt_fd = -beta * beta * dd_dbeta
            dd_dt_var = beta * beta * (m2 / z - (m1 / z) ** 2)

        denom = max(abs(dd_dt_fd), abs(dd_dt_var))
        rel = abs(dd_dt_fd - dd_dt_var) / denom if denom > 0.0 else 0.0
        agree = (not (math.isnan(dd_dt_fd) or math.isnan(dd_dt_var))
                 and (rel <= _VAR_AGREEMENT or denom <= var_floor))
        nonneg = dd_dt_var >= -var_floor
        noninc = d_mid <= prev_demand * (1.0 + 1e-12) + d_floor
        rows.append((beta, d_mid, dd_dt_fd, dd_dt_var, rel,
                     agree and nonneg and noninc))
        prev_demand = d_mid
    return np.array(rows, dtype=_POINT_DTYPE)


# ---------------------------------------------------------------------------
# model check


def _check_expansion(m: ThermoModel, grid) -> dict:
    """Check the small-beta expansions at up to three grid points with
    c0*beta < 0.01: over each step from the previous point, the observed
    log-log slope of each relative error of the demand deficit mean0 - D
    and the partition deficit 1 - Z must be within a fraction _ORDER_TOL
    of the order expansion_error_orders predicts, unless quadrature noise
    dominates that error.  A deficit within its noise (_ORDER_FLOOR mean0
    for D, _ORDER_FLOOR for Z) has a null error and gives no order.  A
    wrong expansion coefficient leaves an error that does not shrink.
    One point in the regime is paired with half its beta."""
    small = [float(b) for b in grid if m.c0 * b < 0.01][:3]
    if not small:
        return {"checked": False}
    if len(small) == 1:
        small.insert(0, 0.5 * small[0])
    noise = (_ORDER_FLOOR * m.mean0, _ORDER_FLOOR)
    points = []
    prev = None
    for beta in small:
        vals, ln_scale = _laplace(m, (beta,), (0, 1))
        z, m1 = vals[0].tolist()
        deficits = (m.mean0 - (m.floor + m1 / z), 1.0 - z * math.exp(ln_scale[0]))
        kept = (m.mean0 - demand_expansion(m, beta),
                1.0 - partition_expansion(m, beta))
        errs = [abs(k / d - 1.0) if abs(d) > n else None
                for k, d, n in zip(kept, deficits, noise)]
        signal = [e is not None and e > n / abs(d)
                  for e, d, n in zip(errs, deficits, noise)]
        point = {"beta": beta, "demand_deficit_rel_err": errs[0],
                 "partition_deficit_rel_err": errs[1], "passed": True}
        if prev is not None:
            p_beta, p_errs, p_signal = prev
            predicted = expansion_error_orders(
                m, m.c0 * math.sqrt(p_beta * beta))
            for i, name in enumerate(("demand", "partition")):
                order = None
                if signal[i] and p_signal[i]:
                    order = math.log(errs[i] / p_errs[i]) / math.log(beta / p_beta)
                    point["passed"] &= abs(order / predicted[i] - 1.0) <= _ORDER_TOL
                point[f"{name}_order"] = order
                point[f"{name}_order_predicted"] = predicted[i]
        points.append(point)
        prev = (beta, errs, signal)
    return {"checked": True, "order_tolerance": _ORDER_TOL, "points": points}


def check_model(m: ThermoModel, beta_grid) -> dict:
    """The thermo report of m: check_monotonicity's points on beta_grid
    and whether all of them passed, the demand limits at beta_lo and
    beta_hi set by m (ValueError if either is not a normal float), and
    the expansion check; "passed" when all three hold."""
    # the relative demand deficit is O((c0 beta)^e), e = min(mu_f - 1, 1):
    # beta_lo brings it to about 1e-3 where e < 1/3
    e = min(m.mu_f - 1.0, 1.0)
    beta_lo = _normal("beta_lo", lambda: 1e-9 ** max(1.0, 1.0 / (3.0 * e)) / m.c0)
    # with a = low_exp, p(floor + u) / u^(a - 1) does not increase in u, so
    # the tilted law lies below Gamma(a, beta) and D - floor <= a / beta,
    # with the ratio tending to 1 as beta -> inf
    a = m.low_exp
    beta_hi = _normal("beta_hi", lambda: 1e4 * (max(a, 1.0) / m.scale + m.rate))

    points = check_monotonicity(m, beta_grid)
    mono_ok = bool(points["passed"].all())
    d_lo = demand(m, beta_lo)
    d_hi = demand(m, beta_hi)
    low_ok = abs(d_lo / m.mean0 - 1.0) <= 1e-2
    high_ok = 0.9 <= (d_hi - m.floor) * beta_hi / a <= 1.0 + 1e-9

    expansion = _check_expansion(m, beta_grid)
    exp_ok = all(p["passed"] for p in expansion.get("points", ()))

    passed = bool(mono_ok and low_ok and high_ok and exp_ok)
    return {"model": {"mu_f": m.mu_f, "c0": m.c0, "mean0": m.mean0, "m2": m.m2},
            "monotonicity": {"points": points, "all_passed": mono_ok},
            "limits": {"beta_lo": beta_lo, "beta_hi": beta_hi,
                       "demand_at_beta_lo": d_lo, "demand_at_beta_hi": d_hi,
                       "low_ok": low_ok, "high_ok": high_ok},
            "expansion": expansion,
            "passed": passed}
