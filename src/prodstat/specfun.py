"""Special functions for heavy-tail work.

log-gamma, log-beta, the regularized incomplete beta function, and the
gamma function at negative non-integer arguments.  Each is a validated
call to the standard library or to scipy.special: the checks here fix
the domain (ValueError outside it, including near the poles of Gamma),
and the library does the arithmetic.

All functions are pure and operate on Python floats.
"""

from __future__ import annotations

import math

from scipy.special import betainc

_POLE_TOL = 1e-12        # distance to a non-positive integer treated as a pole


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(s: float, t: float) -> float:
    """ln B(s, t) for s, t > 0."""
    if not (s > 0.0 and t > 0.0) or math.isinf(s) or math.isinf(t):
        raise ValueError(f"log_beta requires finite s, t > 0, got {s!r}, {t!r}")
    return math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t)


def gamma_neg(x: float) -> float:
    """Gamma(x) for non-integer x, including x < 0, |x| < 170."""
    if not math.isfinite(x) or abs(x) >= 170.0:
        raise ValueError(f"gamma_neg requires finite |x| < 170, got {x!r}")
    r = round(x)
    if r <= 0 and abs(x - r) < _POLE_TOL:
        raise ValueError(f"gamma_neg pole at non-positive integer x = {x!r}")
    return math.gamma(x)


def reg_inc_beta(z: float, s: float, t: float) -> float:
    """Regularized incomplete beta I_z(s, t) for z in [0, 1], s, t > 0."""
    if not (0.0 <= z <= 1.0):
        raise ValueError(f"reg_inc_beta requires 0 <= z <= 1, got {z!r}")
    if not (s > 0.0 and t > 0.0) or math.isinf(s) or math.isinf(t):
        raise ValueError(f"reg_inc_beta requires finite s, t > 0, got {s!r}, {t!r}")
    return float(betainc(s, t, z))
