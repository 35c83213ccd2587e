"""The likelihood inner-loop reduction, in numpy.

softplus_wsum is the one pass over the data of a GB2 likelihood
evaluation: the weighted softplus sum of the log-likelihood and the five
further sums behind its exact score and Hessian, which every Newton step
of the fit needs.  perfbench reports its cost per element
(``kernels.ns_per_elem.*`` under ``--trace 1``).  BACKEND names the
implementation and is recorded with every benchmark result.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def softplus(t: np.ndarray) -> np.ndarray:
    """Elementwise log(1 + e^t), overflow-safe."""
    t = np.asarray(t, dtype=np.float64)
    out = np.maximum(t, 0.0)
    out += np.log1p(np.exp(-np.abs(t)))
    return out


def softplus_wsum(lc: np.ndarray, w: np.ndarray, q: float, lc1: float) -> np.ndarray:
    """The six weighted sums behind the GB2 likelihood and its derivatives.

    With d = lc - lc1, t = q*d, s = sigmoid(t) and v = s*(1-s), returns
    [sum w*softplus(t), sum w*s, sum w*s*d, sum w*v, sum w*v*d,
    sum w*v*d^2] from one pass that shares a single exp(-|t|).  lc and
    w are float64 arrays of equal length; lc is fixed over a fit while
    (q, lc1) vary.
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
