"""Partition function, mean demand, small-beta expansions, and the
dD/dT >= 0 monotonicity check.  Reference values computed with mpmath
at 40-digit precision."""

import dataclasses
import json
import math

import numpy as np
import pytest

from prodstat import cli, gb2, thermo
from prodstat.errors import DivergentMoment, OutOfRegime
from prodstat.thermo import ThermoModel

# (mu, nu, q, c1, beta) -> Z, D for GB2 firm densities
GB2_REF = [
    ((1.5, 1.0, 1.0, 1.0, 1e-06), 0.99999800354091124, 1.9946946119191953),
    ((1.5, 1.0, 1.0, 1.0, 0.001), 0.99810820931248725, 1.8430645142411666),
    ((1.5, 1.0, 1.0, 1.0, 0.5), 0.65567954241879847, 0.57540582848294363),
    ((1.5, 1.0, 1.0, 1.0, 20.0), 0.066973775674787326, 0.044841299737774731),
    ((2.5, 0.8, 1.2, 2.0, 1e-06), 0.99999885717151682, 1.142826196388352),
    ((2.5, 0.8, 1.2, 2.0, 0.001), 0.99886054776968073, 1.1374765481345168),
    ((2.5, 0.8, 1.2, 2.0, 0.5), 0.68542604605772707, 0.56467369172346837),
    ((2.5, 0.8, 1.2, 2.0, 20.0), 0.081327540652186278, 0.038428497604402374),
    ((3.0, 2.0, 0.7, 0.5, 1e-06), 0.99999950000053752, 0.49999917435299931),
    ((3.0, 2.0, 0.7, 0.5, 0.001), 0.9995005330125166, 0.49918725707323977),
    ((3.0, 2.0, 0.7, 0.5, 0.5), 0.81700796225108526, 0.34502749504104399),
    ((3.0, 2.0, 0.7, 0.5, 20.0), 0.088805855052200789, 0.058423982799159781),
]

# (mu, c0, beta) -> Z, D for the pure Pareto tail density
TAIL_REF = [
    ((1.5, 1.0, 1e-05), 0.99997011194982449, 2.9833041914461691),
    ((1.5, 1.0, 0.01), 0.97339507411883438, 2.5664953634695128),
    ((1.5, 1.0, 1.0), 0.18973172938988163, 1.4084179200371107),
    ((2.5, 0.3, 1e-05), 0.99999500002246318, 0.4999980091820047),
    ((2.5, 0.3, 0.01), 0.99502135751882949, 0.49826518032954802),
    ((2.5, 0.3, 1.0), 0.63045949542019653, 0.4376122735211089),
]

# (mu, nu, q, c1, beta) -> <c^3>_beta for a GB2 with mu_f > 3
MOMENT3_GB2_REF = [
    ((3.5, 1.5, 0.9, 1.2, 0.01), 8.5673094227837652),
    ((3.5, 1.5, 0.9, 1.2, 0.5), 0.81590890748263308),
    ((3.5, 1.5, 0.9, 1.2, 5.0), 0.021371760909310108),
]

# (mu, c0, beta) -> <c^3>_beta for the pure Pareto tail
MOMENT3_TAIL_REF = [
    ((3.5, 0.5, 0.01), 0.77510963759457187),
    ((3.5, 0.5, 1.0), 0.35708916226947568),
]

# (nu, beta) -> Z, D for a GB2 with mu = 2.5, q = 1, c1 = 1 and small nu:
# Z = Gamma(mu + nu) / Gamma(mu) U(nu, 1 - mu, beta c1) and
# Z <c> = c1 Gamma(nu + 1) U(nu + 1, 2 - mu, beta c1) / B(nu, mu)
SMALL_NU_REF = [
    ((0.01, 1e-3), 0.99999333977270909, 0.006653974910090114),
    ((0.01, 1.0), 0.99545559483910941, 0.0034341415384652321),
    ((0.01, 20.0), 0.97622738770485466, 0.00044631987312564623),
    ((0.003, 1e-3), 0.99999800191859109, 0.0019962092339465252),
    ((0.003, 1.0), 0.99863363147011152, 0.0010311141447165205),
    ((0.003, 20.0), 0.99280382625379454, 0.00013393206644053567),
]

# (mu_f, n) -> <c^n>_0 for tail c0 = 0.3 and GB2 nu = 0.8, q = 1.2,
# c1 = 2, at mu_f - n = 0.5, 0.01 and 0.001 (mu_f taken as its double)
MOMENT0_REF = [
    ((2.5, 2), 0.44999999999999997, 7.2078848745243309),
    ((2.01, 2), 18.090000000000382, 464.5851864689873),
    ((2.001, 2), 180.09000000001981, 4672.2404503394454),
    ((1.001, 1), 300.30000000003303, 1391.877668237423),
]


def _gb2_model(mu, nu, q, c1):
    return ThermoModel.from_gb2(gb2.Gb2Params(mu, nu, q, c1))


def test_exponential_closed_form():
    m = ThermoModel.exponential(1.0)
    for beta in np.geomspace(1e-8, 1e3, 40):
        expect = 1.0 / (1.0 + beta)
        assert thermo.partition(m, beta) == pytest.approx(expect, rel=1e-9)
        assert thermo.demand(m, beta) == pytest.approx(expect, rel=1e-9)


def test_exponential_general_mean():
    m = ThermoModel.exponential(3.0)
    for beta in (0.01, 0.3, 2.0):
        assert thermo.partition(m, beta) == pytest.approx(
            1.0 / (1.0 + 3.0 * beta), rel=1e-9)
        assert thermo.demand(m, beta) == pytest.approx(
            3.0 / (1.0 + 3.0 * beta), rel=1e-9)


@pytest.mark.parametrize("args,z_ref,d_ref", GB2_REF)
def test_gb2_partition_demand_reference(args, z_ref, d_ref):
    mu, nu, q, c1, beta = args
    m = _gb2_model(mu, nu, q, c1)
    assert thermo.partition(m, beta) == pytest.approx(z_ref, rel=1e-9)
    assert thermo.demand(m, beta) == pytest.approx(d_ref, rel=1e-9)


@pytest.mark.parametrize("args,z_ref,d_ref", TAIL_REF)
def test_tail_partition_demand_reference(args, z_ref, d_ref):
    mu, c0, beta = args
    m = ThermoModel.tabulated_tail(mu, c0)
    assert thermo.partition(m, beta) == pytest.approx(z_ref, rel=1e-9)
    assert thermo.demand(m, beta) == pytest.approx(d_ref, rel=1e-9)


def test_partition_at_zero_is_one():
    for m in (ThermoModel.exponential(2.0), _gb2_model(1.5, 1.0, 1.0, 1.0),
              ThermoModel.tabulated_tail(1.5, 1.0)):
        assert thermo.partition(m, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert thermo.demand(m, 0.0) == pytest.approx(m.mean0, rel=1e-9)


def test_moment_divergence_at_zero_beta():
    m = ThermoModel.tabulated_tail(1.5, 1.0)
    with pytest.raises(DivergentMoment):
        thermo.moment(m, 2, 0.0)
    # regularized by any positive beta
    assert math.isfinite(thermo.moment(m, 2, 0.01))
    m2 = _gb2_model(1.5, 1.0, 1.0, 1.0)
    with pytest.raises(DivergentMoment):
        thermo.moment(m2, 2, 0.0)


def test_moments_at_zero_beta_match_closed_forms():
    # beta = 0 moments are the closed forms the constructors cache
    for m in (_gb2_model(2.5, 0.8, 1.2, 2.0),
              ThermoModel.tabulated_tail(2.5, 0.3)):
        assert thermo.moment(m, 1, 0.0) == pytest.approx(m.mean0, rel=1e-10)
        assert thermo.moment(m, 2, 0.0) == pytest.approx(m.m2, rel=1e-10)
    p = gb2.Gb2Params(3.5, 1.5, 0.9, 1.2)
    assert thermo.moment(ThermoModel.from_gb2(p), 3, 0.0) == pytest.approx(
        gb2.moment(p, 3), rel=1e-10)


@pytest.mark.parametrize("args,z_ref,d_ref", SMALL_NU_REF)
def test_gb2_small_nu_partition_demand_reference(args, z_ref, d_ref):
    # the head of the integrand spans ~45/nu e-folds of c below c1
    nu, beta = args
    m = _gb2_model(2.5, nu, 1.0, 1.0)
    assert thermo.partition(m, beta) == pytest.approx(z_ref, rel=1e-12)
    assert thermo.demand(m, beta) == pytest.approx(d_ref, rel=1e-12)


@pytest.mark.parametrize("args,tail_ref,gb2_ref", MOMENT0_REF)
def test_moments_at_zero_beta_next_to_integer_mu(args, tail_ref, gb2_ref):
    mu, n = args
    assert thermo.moment(ThermoModel.tabulated_tail(mu, 0.3), n, 0.0) \
        == pytest.approx(tail_ref, rel=1e-12)
    assert thermo.moment(_gb2_model(mu, 0.8, 1.2, 2.0), n, 0.0) \
        == pytest.approx(gb2_ref, rel=1e-12)


@pytest.mark.parametrize("args,ref", MOMENT3_GB2_REF)
def test_gb2_third_moment_reference(args, ref):
    mu, nu, q, c1, beta = args
    assert thermo.moment(_gb2_model(mu, nu, q, c1), 3, beta) == pytest.approx(
        ref, rel=1e-9)


@pytest.mark.parametrize("args,ref", MOMENT3_TAIL_REF)
def test_tail_third_moment_reference(args, ref):
    mu, c0, beta = args
    assert thermo.moment(ThermoModel.tabulated_tail(mu, c0), 3, beta) \
        == pytest.approx(ref, rel=1e-9)


def test_quad_trapezoid_two_integrands_nan_and_node_cap():
    # two integrands at once, each negligible outside the range:
    # int e^{x - e^x} dx = 1 and int e^{-x^2/2} dx = sqrt(2 pi)
    calls = []

    def f(x):
        calls.append(len(x))
        return np.stack([np.exp(x - np.exp(x)), np.exp(-0.5 * x * x)])

    got = thermo.quad(f, -40.0, 40.0)
    assert got[0] == pytest.approx(1.0, rel=1e-13)
    assert got[1] == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-13)
    # each halving evaluates only the new midpoints
    assert calls[1:] == [(calls[0] - 1) * 2 ** i for i in range(len(calls) - 1)]

    # a NaN sum is returned at once, without refining
    calls.clear()
    got = thermo.quad(lambda x: f(x) * np.nan, -40.0, 40.0)
    assert np.all(np.isnan(got)) and len(calls) == 1

    # a range past the node cap raises before f sees a node
    calls.clear()
    with pytest.raises(ValueError, match="nodes"):
        thermo.quad(f, 0.0, float(thermo._MAX_NODES))
    with pytest.raises(ValueError, match="nodes"):
        thermo.quad(f, -np.inf, 0.0)
    assert calls == []


def test_moment_matches_demand():
    # moment(n=1) is the thermal average <c>_beta, which is the demand
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    for beta in (0.01, 0.5):
        assert thermo.demand(m, beta) == pytest.approx(
            thermo.moment(m, 1, beta), rel=1e-12)


def test_second_moment_bounds_variance():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    for beta in (0.01, 0.5, 5.0):
        var = thermo.moment(m, 2, beta) - thermo.demand(m, beta) ** 2
        assert var > 0.0


def test_expansion_regime_guard():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    with pytest.raises(OutOfRegime):
        thermo.demand_expansion(m, 0.2 / m.c0)
    with pytest.raises(OutOfRegime):
        thermo.partition_expansion(m, 0.2 / m.c0)
    # below the c0*beta < 0.1 guard both evaluate
    assert math.isfinite(thermo.demand_expansion(m, 0.05 / m.c0))


def test_expansion_boundary_beta_zero():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    assert thermo.partition_expansion(m, 0.0) == pytest.approx(1.0)
    assert thermo.demand_expansion(m, 0.0) == pytest.approx(m.mean0)


@pytest.mark.parametrize("mu,nu,q,c1", [(2.5, 0.8, 1.2, 2.0),
                                        (3.0, 2.0, 0.7, 0.5)])
def test_expansion_above_two_matches_quadrature(mu, nu, q, c1):
    # Z = 1 - <c>b + 0.5<c^2>b^2, D = <c> - var*b in the small-b regime;
    # the omitted next order is O(b^(mu-1)) relative, hence the tolerance
    m = _gb2_model(mu, nu, q, c1)
    for beta in (1e-6, 1e-5, 1e-4):
        z_err = abs((1.0 - thermo.partition_expansion(m, beta))
                    / (1.0 - thermo.partition(m, beta)) - 1.0)
        d_err = abs((m.mean0 - thermo.demand_expansion(m, beta))
                    / (m.mean0 - thermo.demand(m, beta)) - 1.0)
        assert z_err < 0.05
        assert d_err < 0.05


def test_expansion_below_two_matches_quadrature():
    # fractional branch: deficit ~ beta^(mu-1)
    m = _gb2_model(1.5, 1.0, 1.0, 1.0)
    for beta in (1e-6, 1e-5):
        d_exp = thermo.demand_expansion(m, beta)
        d_quad = thermo.demand(m, beta)
        rel = abs((m.mean0 - d_exp) / (m.mean0 - d_quad) - 1.0)
        assert rel < 0.05


def test_expansion_log_branch_at_two():
    # mu = 2 exactly: the deficit is -2 c0^2 b log(c0 b) plus an O(b)
    # remainder the expansion does not carry, so the sharp check is that
    # (deficit_quad - deficit_exp) / b settles to a constant while the
    # raw deficit / b itself keeps growing like |log b|
    m = _gb2_model(2.0, 1.0, 1.0, 1.0)
    betas = (1e-5, 1e-6, 1e-7)
    residuals = []
    raw = []
    for beta in betas:
        deficit_quad = m.mean0 - thermo.demand(m, beta)
        deficit_exp = m.mean0 - thermo.demand_expansion(m, beta)
        residuals.append((deficit_quad - deficit_exp) / beta)
        raw.append(deficit_quad / beta)
    lo, hi = min(residuals), max(residuals)
    assert abs(hi - lo) < 0.1 * max(abs(lo), abs(hi))
    assert raw[2] > raw[1] > raw[0]
    assert raw[2] - raw[0] > 5.0 * abs(hi - lo)


def test_expansion_error_orders_per_branch():
    x = 1e-3
    assert thermo.expansion_error_orders(ThermoModel.exponential(1.0), x) == (1.0, 2.0)
    d, z = thermo.expansion_error_orders(ThermoModel.tabulated_tail(2.0, 1.0), x)
    assert (d, z) == (pytest.approx(1.0 / math.log(1.0 / x)), 1.0)
    d, z = thermo.expansion_error_orders(ThermoModel.tabulated_tail(2.5, 1.0), x)
    assert (d, z) == (pytest.approx(0.5, rel=0.05), 1.5)
    d, z = thermo.expansion_error_orders(ThermoModel.tabulated_tail(1.5, 1.0), x)
    assert (d, z) == (pytest.approx(0.5, rel=0.05), 1.0)
    d, z = thermo.expansion_error_orders(ThermoModel.tabulated_tail(4.0, 1.0), x)
    assert (d, z) == (pytest.approx(1.0, rel=0.01), 2.0)
    # a GB2 with 1 < mu < 2 and a soft crossover: the (c/c1)^-q correction leads
    d, z = thermo.expansion_error_orders(_gb2_model(1.5, 1.0, 0.3, 1.0), x)
    assert (d, z) == (0.3, pytest.approx(0.8))
    # approaching mu = 2 from either side the slope tends to the log branch's
    log_order = 1.0 / math.log(1.0 / x)
    for mu in (2.0 - 1e-5, 2.0 + 1e-5):
        d, _ = thermo.expansion_error_orders(ThermoModel.tabulated_tail(mu, 1.0), x)
        assert d == pytest.approx(log_order, rel=1e-3)


def test_deficit_slope_fractional():
    # log-log slope of mean0 - D vs beta equals mu - 1 for 1 < mu < 2
    m = _gb2_model(1.5, 1.0, 1.0, 1.0)
    betas = np.geomspace(1e-6, 1e-4, 9)
    deficits = [m.mean0 - thermo.demand(m, b) for b in betas]
    slope = np.polyfit(np.log(betas), np.log(deficits), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)


def test_deficit_slope_linear():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    betas = np.geomspace(1e-6, 1e-4, 9)
    deficits = [m.mean0 - thermo.demand(m, b) for b in betas]
    slope = np.polyfit(np.log(betas), np.log(deficits), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.02)


def test_monotonicity_exponential():
    m = ThermoModel.exponential(1.0)
    report = thermo.check_monotonicity(m, np.geomspace(1e-4, 1e2, 50))
    assert report.all_passed
    assert len(report.points) == 50
    assert all(p.passed for p in report.points)
    with pytest.raises(ValueError, match="finite"):
        thermo.check_monotonicity(m, [1e-3, np.inf])


def test_monotonicity_exponential_variance_closed_form():
    # beta^2 Var_beta(c) = (beta / (1 + beta))^2 for the unit exponential
    m = ThermoModel.exponential(1.0)
    report = thermo.check_monotonicity(m, np.geomspace(1e-8, 1e3, 40))
    for p in report.points:
        assert p.dd_dt_var == pytest.approx((p.beta / (1.0 + p.beta)) ** 2,
                                            rel=1e-9)


def test_monotonicity_gb2():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    report = thermo.check_monotonicity(m, np.geomspace(1e-3, 1e2, 50))
    assert report.all_passed


def test_monotonicity_demand_decreasing_in_beta():
    m = _gb2_model(1.5, 1.0, 1.0, 1.0)
    grid = np.geomspace(1e-4, 1e3, 30)
    demands = [thermo.demand(m, b) for b in grid]
    assert all(b < a for a, b in zip(demands, demands[1:]))


def test_demand_limits():
    m = _gb2_model(2.5, 0.8, 1.2, 2.0)
    assert thermo.demand(m, 1e-9) == pytest.approx(m.mean0, rel=1e-6)
    assert thermo.demand(m, 1e4) < 1e-3 * m.mean0


def test_demand_below_gamma_bound_tight_at_large_beta():
    # p(floor + u) / u^(low_exp - 1) does not increase in u, so the
    # tilted law lies below Gamma(low_exp, beta): (D - floor) beta /
    # low_exp <= 1 at every beta, tending to 1 as beta -> inf
    for m in (ThermoModel.exponential(2.0), ThermoModel.tabulated_tail(1.5, 1.0),
              _gb2_model(2.5, 0.8, 1.2, 2.0), _gb2_model(3.0, 2.0, 0.1, 1.0),
              _gb2_model(2.5, 100.0, 1.0, 1.0)):
        unit = max(m.low_exp, 1.0) / m.scale + m.rate
        ratios = [(thermo.demand(m, b) - m.floor) * b / m.low_exp
                  for b in unit * np.geomspace(1e-3, 1e4, 8)]
        assert all(r <= 1.0 + 1e-12 for r in ratios)
        assert ratios[-1] > 0.9


# the README's thermo models, as CLI spec and as library model
README_MODELS = [
    ("exponential:mean=1.0", ThermoModel.exponential(1.0)),
    ("gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0",
     ThermoModel.from_gb2(gb2.Gb2Params(2.5, 0.8, 1.2, 2.0))),
    ("tail:mu=1.5,c0=1.0", ThermoModel.tabulated_tail(1.5, 1.0)),
]


@pytest.mark.parametrize("spec,m", README_MODELS,
                         ids=[spec for spec, _ in README_MODELS])
def test_check_model_is_the_cli_report(spec, m, tmp_path):
    report = thermo.check_model(m, np.geomspace(1e-3, 1e3, 50))
    assert report["passed"] is True
    out = tmp_path / "t.json"
    assert cli.main(["thermo", "--model", spec, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["manifest"]
    assert json.loads(json.dumps(cli._json_safe(report))) == payload
    wrong = dataclasses.replace(m, low_exp=2.0 * m.low_exp)
    limits = thermo.check_model(wrong, np.geomspace(1e-3, 1e3, 50))["limits"]
    assert limits["high_ok"] is False


def test_model_validation():
    with pytest.raises(ValueError):
        ThermoModel.from_gb2(gb2.Gb2Params(0.9, 1.0, 1.0, 1.0))  # mean diverges
    m = _gb2_model(1.5, 1.0, 1.0, 1.0)
    assert m.m2 is None                    # second moment divergent for mu < 2
    m2 = _gb2_model(2.5, 0.8, 1.2, 2.0)
    assert m2.m2 == pytest.approx(7.2078848745243311, rel=1e-12)


def test_tabulated_tail_moments():
    m = ThermoModel.tabulated_tail(2.5, 0.3)
    assert m.mean0 == pytest.approx(2.5 * 0.3 / 1.5, rel=1e-12)
    assert m.m2 == pytest.approx(2.5 * 0.09 / 0.5, rel=1e-12)
    assert ThermoModel.tabulated_tail(1.5, 1.0).m2 is None


def test_negative_beta_rejected():
    m = ThermoModel.exponential(1.0)
    with pytest.raises(ValueError):
        thermo.partition(m, -0.1)
