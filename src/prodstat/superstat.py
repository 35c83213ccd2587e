"""Tail-index algebra and the temperature-fluctuation factor.

Links the fitted firm and worker tail indices (mu_f, mu_w) to the
exponent gamma of the temperature weight f(beta) ~ beta^-gamma, the
demand-ceiling exponent delta, and the demand index kappa = 1/(2-delta).
The mapping has two branches, split at mu_f = 2, that join continuously,
and a fixed point at (mu_f, mu_w) = (1, 1).

Classification of a (mu_f, mu_w) cell:

* Superstatistical     mu_w > mu_f, mu_f away from 1: gamma < 1 and
                       kappa in (0, 1) are well defined.
* FixedPointDegenerate mu_f within 1e-6 of 1: every delta maps to the
                       same point, kappa is undefined.
* NegativeTemperature  mu_w <= mu_f: gamma >= 1, the weight f(beta) is
                       not normalizable, no kappa.  Detected and
                       flagged, never modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy.special import gammainc, gammaincc

from .errors import RegimeError

_FIXED_POINT_TOL = 1e-6     # |mu_f - 1| below this is the degenerate fixed point


class Regime(str, Enum):
    SUPERSTATISTICAL = "Superstatistical"
    FIXED_POINT_DEGENERATE = "FixedPointDegenerate"
    NEGATIVE_TEMPERATURE = "NegativeTemperature"


@dataclass(frozen=True)
class ParetoIndices:
    """Fitted tail indices for one (year, sector class) cell."""

    mu_f: float
    mu_w: float
    mu_f_stderr: float = 0.0
    mu_w_stderr: float = 0.0

    def __post_init__(self):
        if not (self.mu_f > 0.0 and self.mu_w > 0.0):
            raise ValueError("tail indices must be > 0")
        if self.mu_f_stderr < 0.0 or self.mu_w_stderr < 0.0:
            raise ValueError("stderrs must be >= 0")


@dataclass(frozen=True)
class DemandIndexPoint:
    """Derived (gamma, delta, kappa) with regime classification.

    kappa and kappa_stderr are None outside the superstatistical regime;
    delta is NaN at the degenerate fixed point, where it is a 0/0 limit.
    """

    gamma: float
    delta: float
    kappa: float | None
    kappa_stderr: float | None
    regime: Regime

    def __post_init__(self):
        if self.regime is Regime.SUPERSTATISTICAL:
            if not (self.gamma < 1.0 and self.delta < 1.0):
                raise ValueError("superstatistical point needs gamma, delta < 1")
            if self.kappa is None or not (0.0 < self.kappa < 1.0):
                raise ValueError("superstatistical kappa must lie in (0, 1)")
        elif self.regime is Regime.NEGATIVE_TEMPERATURE:
            if self.kappa is not None:
                raise ValueError("negative-temperature point carries no kappa")


@dataclass(frozen=True)
class BetaWeight:
    """Truncated power-law temperature weight f(beta) ~ beta^-gamma.

    The pure power law is not normalizable on (0, inf); truncation to
    [beta_min, beta_max] makes every integral finite.  The asymptotic
    power-law behavior of the averaged Boltzmann factor emerges in the
    window beta_min << 1/c << beta_max.  beta_min == beta_max is the
    degenerate point-mass weight (a single fixed temperature).
    """

    gamma: float
    beta_min: float
    beta_max: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma < 1.0):
            raise ValueError("gamma must be finite and < 1")
        if not (0.0 < self.beta_min <= self.beta_max) or math.isinf(self.beta_max):
            raise ValueError("need 0 < beta_min <= beta_max < inf")

    @property
    def degenerate(self) -> bool:
        return self.beta_min == self.beta_max

    def normalizer(self) -> float:
        """Integral of beta^-gamma over [beta_min, beta_max]."""
        if self.degenerate:
            raise ValueError("point-mass weight has no density normalizer")
        e = 1.0 - self.gamma
        return (self.beta_max ** e - self.beta_min ** e) / e


def gamma_from_mus(p: ParetoIndices) -> float:
    """gamma = mu_f - mu_w + 1; requires the superstatistical ordering."""
    if p.mu_w <= p.mu_f:
        raise RegimeError(
            f"mu_w={p.mu_w} <= mu_f={p.mu_f}: negative-temperature regime, "
            "gamma >= 1 is not normalizable")
    return p.mu_f - p.mu_w + 1.0


def delta_from_gamma(gamma: float, mu_f: float) -> float:
    """Demand-ceiling exponent delta from gamma, branching at mu_f = 2."""
    if not gamma < 1.0:
        raise ValueError(f"gamma must be < 1, got {gamma!r}")
    if not mu_f > 1.0:
        raise ValueError(f"mu_f must be > 1, got {mu_f!r}")
    return _delta(gamma, mu_f)


def _delta(gamma: float, mu_f: float) -> float:
    if mu_f >= 2.0:
        return gamma
    return 1.0 + (gamma - 1.0) / (mu_f - 1.0)


def mu_w_predicted(mu_f: float, delta: float) -> float:
    """Worker tail index implied by (mu_f, delta); inverse of the chain
    mu_w -> gamma -> delta on each branch."""
    if not mu_f > 1.0:
        raise ValueError(f"mu_f must be > 1, got {mu_f!r}")
    if not delta < 1.0:
        raise ValueError(f"delta must be < 1, got {delta!r}")
    if mu_f >= 2.0:
        return mu_f - delta + 1.0
    return (mu_f - 1.0) * (1.0 - delta) + mu_f


def kappa_from_mus(p: ParetoIndices) -> DemandIndexPoint:
    """Classify the regime of a fitted cell and derive (gamma, delta, kappa).

    kappa = 1/(2 - delta), and its stderr kappa^2 hypot(d_f s_f, d_w s_w)
    treats the index stderrs s_f, s_w as independent; delta's gradient
    (d_f, d_w) is (1, -1) for mu_f >= 2 and
    ((mu_w - 1)/(mu_f - 1)^2, -1/(mu_f - 1)) below.
    """
    if p.mu_f <= 1.0 - _FIXED_POINT_TOL:
        raise ValueError(f"mu_f must exceed 1, got {p.mu_f!r}")

    near_fixed_point = abs(p.mu_f - 1.0) < _FIXED_POINT_TOL
    gamma = p.mu_f - p.mu_w + 1.0

    if p.mu_w <= p.mu_f:
        # gamma >= 1: flag only; delta by the same branch arithmetic,
        # meaningless as a density exponent but reported for inspection
        delta = math.nan if near_fixed_point else _delta(gamma, p.mu_f)
        return DemandIndexPoint(gamma=gamma, delta=delta, kappa=None,
                                kappa_stderr=None,
                                regime=Regime.NEGATIVE_TEMPERATURE)

    if near_fixed_point:
        return DemandIndexPoint(gamma=gamma, delta=math.nan, kappa=None,
                                kappa_stderr=None,
                                regime=Regime.FIXED_POINT_DEGENERATE)

    delta = delta_from_gamma(gamma, p.mu_f)
    kappa = 1.0 / (2.0 - delta)
    if p.mu_f >= 2.0:
        d_f, d_w = 1.0, -1.0
    else:
        d_f, d_w = (p.mu_w - 1.0) / (p.mu_f - 1.0) ** 2, -1.0 / (p.mu_f - 1.0)
    kappa_stderr = kappa * kappa * math.hypot(d_f * p.mu_f_stderr,
                                              d_w * p.mu_w_stderr)
    return DemandIndexPoint(gamma=gamma, delta=delta, kappa=kappa,
                            kappa_stderr=kappa_stderr,
                            regime=Regime.SUPERSTATISTICAL)


def b_factor(w: BetaWeight, c: float) -> float:
    """Averaged Boltzmann factor B(c) = int e^{-beta c} f(beta) dbeta,
    normalized so B(0+) = 1.

    In closed form, with s = beta c and a = 1 - gamma > 0,

        B(c) = c^-a Gamma(a) [P(a, beta_max c) - P(a, beta_min c)] / normalizer

    where P is the regularized lower incomplete gamma function.  Where
    beta_min c > a both P values are close to 1, and the difference of
    the upper functions Q = 1 - P keeps the digits.
    """
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"b_factor requires finite c >= 0, got {c!r}")
    if c == 0.0:
        return 1.0
    if w.degenerate:
        return math.exp(-w.beta_min * c)
    a = 1.0 - w.gamma
    x_lo, x_hi = w.beta_min * c, w.beta_max * c
    if x_lo > a:
        mass = gammaincc(a, x_lo) - gammaincc(a, x_hi)
    else:
        mass = gammainc(a, x_hi) - gammainc(a, x_lo)
    scale = math.exp(math.lgamma(a) - a * math.log(c))
    return scale * float(mass) / w.normalizer()
