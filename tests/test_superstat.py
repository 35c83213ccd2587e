"""Index algebra (gamma, delta, kappa), regime detection, and the
temperature weight."""

import math

import numpy as np
import pytest

from prodstat import superstat
from prodstat.errors import RegimeError
from prodstat.superstat import (BetaWeight, ParetoIndices, Regime,
                                delta_from_gamma, gamma_from_mus,
                                kappa_from_mus, mu_w_predicted)

def _indices(mu_f, mu_w):
    return ParetoIndices(mu_f=mu_f, mu_w=mu_w)


def test_gamma_from_mus():
    assert gamma_from_mus(_indices(2.5, 3.0)) == pytest.approx(0.5, abs=1e-15)
    assert gamma_from_mus(_indices(1.5, 2.0)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(RegimeError):
        gamma_from_mus(_indices(2.5, 2.5))
    with pytest.raises(RegimeError):
        gamma_from_mus(_indices(2.5, 2.0))


def test_delta_branches():
    # mu_f >= 2: delta = gamma; below: delta = 1 + (gamma-1)/(mu_f-1)
    assert delta_from_gamma(0.5, 2.5) == 0.5
    assert delta_from_gamma(0.5, 1.5) == pytest.approx(0.0)
    assert delta_from_gamma(-1.0, 1.5) == pytest.approx(-3.0)


def test_round_trip_closure():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        mu_f = rng.uniform(1.05, 4.0)
        mu_w = mu_f + rng.uniform(0.05, 1.5)
        gamma = gamma_from_mus(_indices(mu_f, mu_w))
        delta = delta_from_gamma(gamma, mu_f)
        back = mu_w_predicted(mu_f, delta)
        assert abs(back - mu_w) < 1e-12


def test_branch_continuity_at_two():
    # the two delta branches agree as mu_f crosses 2
    for gamma in (-0.5, 0.0, 0.3, 0.9):
        above = delta_from_gamma(gamma, 2.0 + 1e-9)
        below = delta_from_gamma(gamma, 2.0 - 1e-9)
        assert above == pytest.approx(below, abs=1e-8)


def test_kappa_equals_inverse_two_minus_delta():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        mu_f = rng.uniform(1.05, 4.0)
        mu_w = mu_f + rng.uniform(0.05, 1.5)
        pt = kappa_from_mus(ParetoIndices(mu_f=mu_f, mu_w=mu_w))
        gamma = gamma_from_mus(_indices(mu_f, mu_w))
        delta = delta_from_gamma(gamma, mu_f)
        assert pt.kappa == 1.0 / (2.0 - delta)


def test_kappa_in_unit_interval():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        mu_f = rng.uniform(1.05, 4.0)
        mu_w = mu_f + rng.uniform(0.05, 1.5)
        pt = kappa_from_mus(ParetoIndices(mu_f=mu_f, mu_w=mu_w))
        assert 0.0 < pt.kappa < 1.0


def test_regime_negative_temperature():
    pt = kappa_from_mus(ParetoIndices(mu_f=3.0, mu_w=2.5))
    assert pt.regime is Regime.NEGATIVE_TEMPERATURE
    assert pt.kappa is None
    assert pt.kappa_stderr is None
    # equality also counts: no positive-beta weight reproduces mu_w <= mu_f
    assert kappa_from_mus(ParetoIndices(mu_f=2.0, mu_w=2.0)).regime \
        is Regime.NEGATIVE_TEMPERATURE


def test_regime_fixed_point():
    pt = kappa_from_mus(ParetoIndices(mu_f=1.0, mu_w=1.7))
    assert pt.regime is Regime.FIXED_POINT_DEGENERATE
    assert pt.kappa is None
    assert math.isnan(pt.delta)
    # the detection tolerance window
    assert kappa_from_mus(ParetoIndices(mu_f=1.0 + 5e-7, mu_w=1.7)).regime \
        is Regime.FIXED_POINT_DEGENERATE
    assert kappa_from_mus(ParetoIndices(mu_f=1.01, mu_w=1.7)).regime \
        is Regime.SUPERSTATISTICAL


def test_negative_temperature_checked_before_fixed_point():
    pt = kappa_from_mus(ParetoIndices(mu_f=1.0, mu_w=0.5))
    assert pt.regime is Regime.NEGATIVE_TEMPERATURE


def test_kappa_vanishes_toward_fixed_point():
    # as mu_f -> 1+ the lower branch kappa = (mu_f-1)/(mu_w-1) -> 0+
    for eps in (1e-2, 1e-3, 1e-4):
        pt = kappa_from_mus(ParetoIndices(mu_f=1.0 + eps, mu_w=1.7))
        assert pt.regime is Regime.SUPERSTATISTICAL
        assert pt.kappa == pytest.approx(eps / 0.7, rel=1e-9)


def test_gamma_delta_boundary_rejected():
    # gamma = 1 (the fixed-point weight) is outside the normalizable range
    with pytest.raises(ValueError):
        delta_from_gamma(1.0, 2.5)
    with pytest.raises(ValueError):
        mu_w_predicted(2.5, 1.0)


def test_kappa_stderr_matches_finite_difference():
    # delta-method stderr vs numeric propagation of the two mu errors
    for mu_f, mu_w in [(2.5, 3.0), (1.5, 2.0), (1.8, 2.1)]:
        s_f, s_w = 0.03, 0.05
        pt = kappa_from_mus(ParetoIndices(mu_f=mu_f, mu_w=mu_w,
                                          mu_f_stderr=s_f, mu_w_stderr=s_w))
        h = 1e-6

        def kap(f, w):
            return kappa_from_mus(ParetoIndices(mu_f=f, mu_w=w)).kappa

        dk_df = (kap(mu_f + h, mu_w) - kap(mu_f - h, mu_w)) / (2 * h)
        dk_dw = (kap(mu_f, mu_w + h) - kap(mu_f, mu_w - h)) / (2 * h)
        expected = math.hypot(dk_df * s_f, dk_dw * s_w)
        assert pt.kappa_stderr == pytest.approx(expected, rel=1e-4)


def test_kappa_stderr_zero_for_exact_inputs():
    pt = kappa_from_mus(ParetoIndices(mu_f=2.5, mu_w=3.0))
    assert pt.kappa_stderr == 0.0


def test_domain_error_near_mu_f_one():
    with pytest.raises(ValueError):
        kappa_from_mus(ParetoIndices(mu_f=0.9, mu_w=2.0))


def test_beta_weight_validation():
    with pytest.raises(ValueError):
        BetaWeight(gamma=1.5, beta_min=0.1, beta_max=1.0)   # gamma < 1 required
    with pytest.raises(ValueError):
        BetaWeight(gamma=0.5, beta_min=-0.1, beta_max=1.0)
    with pytest.raises(ValueError):
        BetaWeight(gamma=0.5, beta_min=1.0, beta_max=0.5)
    w = BetaWeight(gamma=0.5, beta_min=0.3, beta_max=0.3)
    assert w.degenerate


def test_regime_values():
    assert superstat.Regime.SUPERSTATISTICAL.value == "Superstatistical"
    assert superstat.Regime.NEGATIVE_TEMPERATURE.value == "NegativeTemperature"
    assert superstat.Regime.FIXED_POINT_DEGENERATE.value == "FixedPointDegenerate"


@pytest.mark.parametrize("call,message", [
    (lambda: ParetoIndices(mu_f=0.0, mu_w=2.0), "tail indices must be > 0"),
    (lambda: ParetoIndices(mu_f=2.0, mu_w=3.0, mu_w_stderr=-0.1),
     "stderrs must be >= 0"),
    (lambda: delta_from_gamma(0.5, 1.0), "mu_f must be > 1"),
    (lambda: mu_w_predicted(1.0, 0.5), "mu_f must be > 1"),
], ids=["mu", "stderr", "delta_from_gamma", "mu_w_predicted"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
