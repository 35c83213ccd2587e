"""The special functions of gb2 (digamma, trigamma, log-beta,
regularized incomplete beta) and thermo (gamma at negative arguments):
reference values computed with mpmath at 40+ digit precision, plus
identity-based property checks."""

import math

import numpy as np
import pytest

from prodstat import gb2
from prodstat.gb2 import _psi01, log_beta, reg_inc_beta
from prodstat.thermo import gamma_neg

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

# x -> (digamma(x), trigamma(x)): both sides of the recurrence's stop
# at x = 10, where the asymptotic series takes over
PSI_REF = [
    (1e-3, -1000.5755719318102797, 1000001.6425331958273),
    (0.25, -4.2274535333762654081, 17.197329154507110739),
    (1.0, -0.57721566490153286061, 1.6449340668482264365),
    (2.5, 0.70315664064524318723, 0.49035775610023486497),
    (9.75, 2.225109535044576012, 0.10800324333663185456),
    (10.0, 2.2517525890667211076, 0.10516633568168574612),
    (10.25, 2.2777047906867239693, 0.1024745215179918668),
    (123.456, 4.8118293238289854123, 0.0081329458342781978071),
    (1e6, 13.815510057964190771, 1.0000005000001666667e-6),
]

# (s, t) -> ln B(s, t): lgamma sums below a larger argument of 10,
# Stirling's series from there on, where the lgamma sum cancels
LOG_BETA_REF = [
    ((0.5, 0.5), 1.1447298858494001741),
    ((2.0, 3.0), -2.4849066497880003102),
    ((9.5, 0.5), -0.54012911635950104157),
    ((10.0, 0.5), -0.56643279639759393488),
    ((50.0, 0.02), 3.8227606829071695358),
    ((0.02, 50.0), 3.8227606829071695358),
    ((1000.0, 0.001), 6.900271629687954933),
    ((12.0, 12.0), -16.602059876016601892),
    ((1e6, 2.5), -34.254095399436516102),
    ((200.0, 150.0), -240.32367373916216301),
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

@pytest.mark.parametrize("args,expected", INC_BETA_REF)
def test_reg_inc_beta_reference(args, expected):
    z, s, t = args
    got = reg_inc_beta(z, s, t)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x,psi,tri", PSI_REF)
def test_digamma_reference(x, psi, tri):
    assert _psi01(x)[0] == pytest.approx(psi, rel=1e-14)


@pytest.mark.parametrize("x,psi,tri", PSI_REF)
def test_trigamma_reference(x, psi, tri):
    assert _psi01(x)[1] == pytest.approx(tri, rel=1e-14)


@pytest.mark.parametrize("args,expected", LOG_BETA_REF)
def test_log_beta_reference(args, expected):
    assert log_beta(*args) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,expected", GAMMA_REF)
def test_gamma_neg_reference(x, expected):
    assert gamma_neg(x) == pytest.approx(expected, rel=1e-11)




def test_gamma_neg_recurrence_identity():
    # Gamma(x) * x * (x+1) = Gamma(x+2) on (-2, 0)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 0.0, 500):
        if min(abs(x - round(x)), abs(x + 1 - round(x + 1))) < 1e-3:
            continue
        lhs = gamma_neg(x) * x * (x + 1.0)
        rhs = gamma_neg(x + 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gamma_neg_poles():
    for pole in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            gamma_neg(pole + 5e-13)
    # just outside the pole tolerance still evaluates
    assert math.isfinite(gamma_neg(-1.0 + 1e-9))


def test_gamma_neg_range_guard():
    with pytest.raises(ValueError):
        gamma_neg(-170.5)


def test_reg_inc_beta_symmetry():
    # I_z(s, t) + I_{1-z}(t, s) = 1
    rng = np.random.default_rng(6)
    for _ in range(300):
        z = rng.uniform(1e-6, 1.0 - 1e-6)
        s = 10.0 ** rng.uniform(-2, 2)
        t = 10.0 ** rng.uniform(-2, 2)
        total = reg_inc_beta(z, s, t) + reg_inc_beta(1.0 - z, t, s)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_reg_inc_beta_monotone():
    zs = np.linspace(0.0, 1.0, 200)
    for s, t in [(0.5, 0.5), (3.0, 1.2), (0.1, 8.0)]:
        vals = [reg_inc_beta(z, s, t) for z in zs]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_reg_inc_beta_domain():
    with pytest.raises(ValueError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, -1.0, 1.0)


def test_log_beta_vs_gamma():
    for s, t in [(0.5, 0.5), (3.0, 1.2), (0.1, 8.0), (40.0, 2.0)]:
        direct = log_beta(s, t)
        viagamma = math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t)
        assert direct == pytest.approx(viagamma, rel=1e-12, abs=1e-12)


def test_psi_recurrence_across_the_series_switch():
    # psi(x+1) - psi(x) = 1/x and psi'(x) - psi'(x+1) = 1/x^2, where x
    # and x + 1 take different numbers of recurrence steps
    for x in np.linspace(8.5, 10.5, 81).tolist():
        (p0, t0), (p1, t1) = _psi01(x), _psi01(x + 1.0)
        assert p1 - p0 == pytest.approx(1.0 / x, rel=1e-13)
        assert t0 - t1 == pytest.approx(1.0 / (x * x), rel=1e-12)
    assert abs(_psi01(1.4616321449683623)[0]) < 1e-15   # psi's one root


def test_reg_inc_beta_closed_forms():
    # I_z(1, 1) = z, I_z(a, 1) = z^a, I_z(1, a) = 1 - (1-z)^a and
    # I_z(1/2, 1/2) = (2/pi) asin(sqrt(z))
    for z in np.linspace(0.01, 0.99, 99).tolist():
        assert reg_inc_beta(z, 1.0, 1.0) == pytest.approx(z, rel=1e-14)
        for a in (0.3, 2.5, 40.0):
            assert reg_inc_beta(z, a, 1.0) == pytest.approx(z ** a, rel=1e-12)
            assert reg_inc_beta(z, 1.0, a) == pytest.approx(
                -math.expm1(a * math.log1p(-z)), rel=1e-12)
        assert reg_inc_beta(z, 0.5, 0.5) == pytest.approx(
            2.0 / math.pi * math.asin(math.sqrt(z)), rel=1e-13)


def test_reg_inc_beta_calls_no_public_special_function(monkeypatch):
    # a profiler wraps gb2.log_beta and gb2.reg_inc_beta by name: it must
    # count one call per outside call, on either side of the swap at
    # z = (s+1)/(s+t+2)
    calls = []
    for name in ("log_beta", "reg_inc_beta"):
        f = getattr(gb2, name)
        monkeypatch.setattr(gb2, name, lambda *a, f=f, name=name: (
            calls.append(name), f(*a))[1])
    for z in (0.1, 0.9):
        gb2.reg_inc_beta(z, 2.0, 3.0)
    assert calls == ["reg_inc_beta", "reg_inc_beta"]
