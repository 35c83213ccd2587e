"""The likelihood kernels: the weighted softplus sum and the fused
derivative pass must match direct numpy references to float rounding
across the full argument range."""

import numpy as np
import pytest

from prodstat import kernels


def _reference(lc, w, q, lc1):
    t = q * (lc - lc1)
    return float(w @ (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))))


def test_backend_reported():
    assert kernels.BACKEND == "numpy"


def test_agreement_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5000))
        lc = rng.normal(0.0, 4.0, n)
        w = rng.uniform(0.0, 100.0, n)
        q = 10.0 ** rng.uniform(-1, 1)
        lc1 = rng.normal(0.0, 2.0)
        got = kernels.softplus_wsum(lc, w, q, lc1)
        ref = _reference(lc, w, q, lc1)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_extreme_arguments():
    # far tails: softplus(t) -> t for large t, -> exp(t) for very negative t
    lc = np.array([-800.0, -50.0, -1.0, 0.0, 1.0, 50.0, 800.0])
    w = np.ones_like(lc)
    got = kernels.softplus_wsum(lc, w, 1.0, 0.0)
    ref = _reference(lc, w, 1.0, 0.0)
    assert got == pytest.approx(ref, rel=1e-12)


def test_empty_and_zero_weights():
    assert kernels.softplus_wsum(np.array([]), np.array([]), 1.0, 0.0) == 0.0
    lc = np.array([1.0, 2.0])
    assert kernels.softplus_wsum(lc, np.zeros(2), 1.0, 0.0) == 0.0


def test_length_mismatch():
    with pytest.raises(ValueError):
        kernels.softplus_wsum(np.zeros(3), np.zeros(2), 1.0, 0.0)


def test_softplus_scalar_properties():
    t = np.linspace(-40, 40, 401)
    s = kernels.softplus(t)
    assert np.all(s >= 0.0)
    assert np.all(s >= t)                       # softplus(t) > t
    assert np.all(np.diff(s) > 0.0)             # strictly increasing
    # symmetry softplus(t) - softplus(-t) = t
    assert np.allclose(s - kernels.softplus(-t), t, atol=1e-12)


def _derivs_reference(lc, w, q, lc1):
    d = lc - lc1
    t = q * d
    s = 1.0 / (1.0 + np.exp(-t))
    v = s * (1.0 - s)
    return np.array([_reference(lc, w, q, lc1), w @ s, w @ (s * d),
                     w @ v, w @ (v * d), w @ (v * d * d)])


def test_derivs_softplus_sum_matches_kernel():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5000))
        lc = rng.normal(0.0, 4.0, n)
        w = rng.uniform(0.0, 100.0, n)
        q = 10.0 ** rng.uniform(-1, 1)
        lc1 = rng.normal(0.0, 2.0)
        got = kernels.softplus_wsum_derivs(lc, w, q, lc1)
        assert got[0] == pytest.approx(kernels.softplus_wsum(lc, w, q, lc1),
                                       rel=1e-12, abs=1e-12)
        ref = _derivs_reference(lc, w, q, lc1)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10 * np.max(np.abs(ref)))


def test_derivs_extreme_arguments():
    # t = -800 .. 800: sigmoid saturates to 0 or 1 and s(1-s) underflows
    # to 0 without overflow or invalid values
    lc = np.array([-800.0, -50.0, -1.0, 0.0, 1.0, 50.0, 800.0])
    w = np.ones_like(lc)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = kernels.softplus_wsum_derivs(lc, w, 1.0, 0.0)
    assert got[0] == pytest.approx(_reference(lc, w, 1.0, 0.0), rel=1e-12)
    s = 1.0 / (1.0 + np.exp(-np.clip(lc, -700, 700)))
    assert got[1] == pytest.approx(s.sum(), rel=1e-12)
    assert got[2] == pytest.approx(s @ lc, rel=1e-12)
    v = s * (1.0 - s)
    assert got[3:] == pytest.approx([v.sum(), v @ lc, v @ lc ** 2], rel=1e-12,
                                    abs=1e-15)


def test_derivs_empty_and_zero_weights():
    assert np.array_equal(
        kernels.softplus_wsum_derivs(np.array([]), np.array([]), 1.0, 0.0),
        np.zeros(6))
    lc = np.array([1.0, 2.0, 800.0])
    assert np.array_equal(
        kernels.softplus_wsum_derivs(lc, np.zeros(3), 1.0, 0.0), np.zeros(6))
