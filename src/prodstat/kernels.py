"""Likelihood inner-loop reductions with two interchangeable backends.

The compiled extension (prodstat._fastkern) is used when available;
otherwise a numpy fallback.  Both compute the same reduction, and the
backend is fixed once at import time.  BACKEND reports which one is
active; perfbench reports the reduction's cost per element
(``kernels.ns_per_elem.*`` under ``--trace 1``).

softplus_wsum_derivs is the numpy reduction behind the analytic score
and Hessian of the GB2 likelihood; it has no compiled form.
"""

from __future__ import annotations

import numpy as np

try:
    from . import _fastkern as _impl

    BACKEND = "c-ext"
except ImportError:  # pragma: no cover - depends on the build environment
    _impl = None
    BACKEND = "numpy"


def softplus(t: np.ndarray) -> np.ndarray:
    """Elementwise log(1 + e^t), overflow-safe. Numpy reference form."""
    t = np.asarray(t, dtype=np.float64)
    out = np.maximum(t, 0.0)
    out += np.log1p(np.exp(-np.abs(t)))
    return out


def softplus_wsum(lc: np.ndarray, w: np.ndarray, q: float, lc1: float) -> float:
    """sum(w[i] * softplus(q * (lc[i] - lc1))).

    lc and w must be contiguous float64 arrays of equal length; this is
    the hot reduction of the weighted GB2 log-likelihood, called once per
    objective evaluation with lc fixed and (q, lc1) varying.
    """
    if _impl is not None:
        return _impl.softplus_wsum(lc, w, q, lc1)
    return float(w @ softplus(q * (lc - lc1)))


def softplus_wsum_derivs(lc: np.ndarray, w: np.ndarray, q: float,
                         lc1: float) -> np.ndarray:
    """The six weighted sums behind the GB2 likelihood and its derivatives.

    With d = lc - lc1, t = q*d, s = sigmoid(t) and v = s*(1-s), returns
    [sum w*softplus(t), sum w*s, sum w*s*d, sum w*v, sum w*v*d,
    sum w*v*d^2] from one pass that shares a single exp(-|t|).
    """
    d = lc - lc1
    t = q * d
    e = np.exp(-np.abs(t))          # in (0, 1]: no overflow for any t
    inv = 1.0 / (1.0 + e)
    s = np.where(t >= 0.0, inv, e * inv)
    v = e * inv * inv
    wv = w * v
    wvd = wv * d
    return np.array([w @ (np.maximum(t, 0.0) + np.log1p(e)), w @ s,
                     (w * s) @ d, w @ v, wv @ d, wvd @ d])
