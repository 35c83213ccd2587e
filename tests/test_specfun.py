"""Special-function layer: reference values computed with mpmath at
40+ digit precision, plus identity-based property checks."""

import math

import numpy as np
import pytest

from prodstat import specfun

# (z, s, t) -> I_z(s, t), regularized incomplete beta
INC_BETA_REF = [
    ((0.3, 0.5, 0.5), 0.36901011956554538),
    ((0.7, 2.0, 3.0), 0.91629999999999997),
    ((0.01, 0.1, 5.0), 0.76908892078434628),
    ((0.99, 5.0, 0.1), 0.23091107921565366),
    ((0.5, 10.0, 10.0), 0.5),
    ((1e-06, 1.5, 2.5), 3.3953023968527386e-9),
    ((0.999999, 2.5, 1.5), 0.9999999966046976),
    ((0.2, 30.0, 2.0), 2.6843545600000044e-20),
    ((0.9, 0.001, 0.001), 0.50109669457416793),
    ((0.6, 1.0, 1.0), 0.59999999999999998),
    # large s, tiny t near z = 1, where a continued-fraction evaluation
    # of I_z loses accuracy (4e-12 relative)
    ((0.99, 50.0, 0.02), 0.01136845072630811493862106732287333639660),
]

# x -> Gamma(x) including negative non-integer arguments
GAMMA_REF = [
    (-0.5, -3.5449077018110321),
    (-1.5, 2.3632718012073547),
    (-2.5, -0.94530872048294188),
    (-3.7, 0.25164399590242268),
    (-10.3, -5.2623632395356096e-7),
    (-169.5, 5.6482208842233255e-306),
    (0.5, 1.772453850905516),
    (3.7, 4.170651783796604),
]

LOG_GAMMA_REF = [
    (1e-06, 13.815509980749432),
    (0.5, 0.57236494292470009),
    (1.0, 0.0),
    (20.0, 39.339884187199494),
    (1000000.0, 12815504.569147612),
]


@pytest.mark.parametrize("args,expected", INC_BETA_REF)
def test_reg_inc_beta_reference(args, expected):
    z, s, t = args
    got = specfun.reg_inc_beta(z, s, t)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x,expected", GAMMA_REF)
def test_gamma_neg_reference(x, expected):
    assert specfun.gamma_neg(x) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("x,expected", LOG_GAMMA_REF)
def test_log_gamma_reference(x, expected):
    assert specfun.log_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_gamma_recurrence():
    # lgamma(x+1) = lgamma(x) + log(x)
    xs = np.geomspace(0.1, 100.0, 400)
    for x in xs:
        lhs = specfun.log_gamma(x + 1.0)
        rhs = specfun.log_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        specfun.log_gamma(0.0)
    with pytest.raises(ValueError):
        specfun.log_gamma(-1.0)


def test_gamma_neg_recurrence_identity():
    # Gamma(x) * x * (x+1) = Gamma(x+2) on (-2, 0)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 0.0, 500):
        if min(abs(x - round(x)), abs(x + 1 - round(x + 1))) < 1e-3:
            continue
        lhs = specfun.gamma_neg(x) * x * (x + 1.0)
        rhs = specfun.gamma_neg(x + 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gamma_neg_poles():
    for pole in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            specfun.gamma_neg(pole + 5e-13)
    # just outside the pole tolerance still evaluates
    assert math.isfinite(specfun.gamma_neg(-1.0 + 1e-9))


def test_gamma_neg_range_guard():
    with pytest.raises(ValueError):
        specfun.gamma_neg(-170.5)


def test_reg_inc_beta_symmetry():
    # I_z(s, t) + I_{1-z}(t, s) = 1
    rng = np.random.default_rng(6)
    for _ in range(300):
        z = rng.uniform(1e-6, 1.0 - 1e-6)
        s = 10.0 ** rng.uniform(-2, 2)
        t = 10.0 ** rng.uniform(-2, 2)
        total = specfun.reg_inc_beta(z, s, t) + specfun.reg_inc_beta(1.0 - z, t, s)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_reg_inc_beta_monotone():
    zs = np.linspace(0.0, 1.0, 200)
    for s, t in [(0.5, 0.5), (3.0, 1.2), (0.1, 8.0)]:
        vals = [specfun.reg_inc_beta(z, s, t) for z in zs]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_reg_inc_beta_domain():
    with pytest.raises(ValueError):
        specfun.reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.reg_inc_beta(0.5, -1.0, 1.0)


def test_log_beta_vs_gamma():
    for s, t in [(0.5, 0.5), (3.0, 1.2), (0.1, 8.0), (40.0, 2.0)]:
        direct = specfun.log_beta(s, t)
        viagamma = specfun.log_gamma(s) + specfun.log_gamma(t) - specfun.log_gamma(s + t)
        assert direct == pytest.approx(viagamma, rel=1e-12, abs=1e-12)
