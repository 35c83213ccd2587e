"""Monte Carlo allocation engine, scaling-window guardrails, and the
flat key = value scenario format."""

import numpy as np
import pytest

from prodstat import gb2, simulate
from prodstat.errors import WindowError
from prodstat.simulate import SimConfig, parse_scenario
from prodstat.superstat import BetaWeight


def _config(**overrides):
    base = dict(
        firm_params=gb2.Gb2Params(2.5, 2.0, 1.0, 1.0),
        beta_weight=BetaWeight(gamma=0.5, beta_min=1e-4, beta_max=2.0),
        n_firms=2000, n_workers_per_epoch=500, n_epochs=200, seed=99)
    base.update(overrides)
    return SimConfig(**base)


def test_worker_conservation():
    cfg = _config()
    out = simulate.run_sim(cfg)
    assert out.worker_counts.sum() == cfg.n_workers_per_epoch * cfg.n_epochs
    assert len(out.firm_productivities) == cfg.n_firms
    assert len(out.realized_betas) == cfg.n_epochs
    assert len(out.epoch_demand) == cfg.n_epochs


def test_run_deterministic():
    cfg = _config()
    a = simulate.run_sim(cfg)
    b = simulate.run_sim(cfg)
    assert np.array_equal(a.firm_productivities, b.firm_productivities)
    assert np.array_equal(a.worker_counts, b.worker_counts)
    assert np.array_equal(a.realized_betas, b.realized_betas)


def test_seed_changes_output():
    a = simulate.run_sim(_config(seed=1))
    b = simulate.run_sim(_config(seed=2))
    assert not np.array_equal(a.worker_counts, b.worker_counts)


def test_epoch_demand_decreases_with_beta():
    # within one run, high-beta epochs put workers on low-c firms
    out = simulate.run_sim(_config(n_epochs=400))
    betas = out.realized_betas
    demand = np.asarray(out.epoch_demand)
    hot = demand[betas < np.median(betas)].mean()    # hot = low beta
    cold = demand[betas >= np.median(betas)].mean()
    assert hot > cold


def test_sample_betas_range_and_law():
    w = BetaWeight(gamma=0.5, beta_min=1e-3, beta_max=5.0)
    draws = simulate.sample_betas(w, 20_000, np.random.default_rng(123))
    assert draws.min() >= w.beta_min and draws.max() <= w.beta_max
    # inverse-cdf law: P(beta < x) = (x^e - min^e) / (max^e - min^e), e = 1 - gamma
    e = 1.0 - w.gamma
    x = np.median(draws)
    expect = (x ** e - w.beta_min ** e) / (w.beta_max ** e - w.beta_min ** e)
    assert expect == pytest.approx(0.5, abs=0.02)


def test_sample_betas_degenerate():
    w = BetaWeight(gamma=0.0, beta_min=0.7, beta_max=0.7)
    draws = simulate.sample_betas(w, 100, np.random.default_rng(5))
    assert np.all(draws == 0.7)


def test_window_preconditions():
    cfg = _config()
    out = simulate.run_sim(cfg)
    # beta_min * c_hi must stay < 0.1: 1e-4 * 2000 = 0.2 fails
    with pytest.raises(WindowError, match="beta_min"):
        simulate.verify_tail_relation(cfg, out, (20.0, 2000.0))
    # beta_max * c_lo must exceed 10: 2.0 * 3 = 6 fails
    with pytest.raises(WindowError, match="beta_max"):
        simulate.verify_tail_relation(cfg, out, (3.0, 900.0))
    with pytest.raises(WindowError,
                       match=r"^empty scaling window: c_lo=900 >= c_hi=6$"):
        simulate.verify_tail_relation(cfg, out, (900.0, 6.0))
    for c_lo in (0.0, -1.0):
        with pytest.raises(ValueError, match="c_lo"):
            simulate.verify_tail_relation(cfg, out, (c_lo, 900.0))


def test_degenerate_weight_has_no_window():
    # a single fixed temperature leaves no admissible scaling window:
    # c_lo > 10/beta and c_hi < 0.1/beta cannot both hold
    cfg = _config(beta_weight=BetaWeight(gamma=0.0, beta_min=0.01,
                                         beta_max=0.01))
    out = simulate.run_sim(cfg)
    with pytest.raises(WindowError):
        simulate.verify_tail_relation(cfg, out, (1001.0, 1200.0))
    with pytest.raises(WindowError):
        simulate.verify_tail_relation(cfg, out, (6.0, 9.0))


def test_min_firm_guard():
    cfg = _config(n_firms=500)
    with pytest.raises(WindowError, match="firms"):
        simulate.verify_tail_relation(cfg, simulate.run_sim(cfg), (6.0, 900.0))


def test_verify_report_structure():
    cfg = _config()
    report = simulate.verify_tail_relation(cfg, simulate.run_sim(cfg),
                                           (6.0, 900.0))
    assert report.gamma == 0.5
    assert report.mu_w_predicted == pytest.approx(
        cfg.firm_params.mu - 0.5 + 1.0)
    assert report.window == (6.0, 900.0)
    assert report.firm_fit.n_obs == cfg.n_firms
    assert report.worker_fit.n_obs <= cfg.n_firms
    assert isinstance(report.passed, bool)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(n_firms=0)
    with pytest.raises(ValueError):
        _config(n_epochs=-1)


def test_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "# allocation scenario\n"
        "n_firms = 2000\n"
        "n_workers_per_epoch = 500\n"
        "n_epochs = 200\n"
        "seed = 31\n"
        "firm_mu = 2.5\n"
        "firm_nu = 2.0\n"
        "firm_q = 1.0\n"
        "firm_c1 = 1.0\n"
        "gamma = 0.5\n"
        "beta_min = 1e-4\n"
        "beta_max = 2.0\n"
        "\n"
        "fit_window_lo = 6.0\n"
        "fit_window_hi = 900.0\n"
        "verify = true\n")
    scenario = parse_scenario(path)
    cfg = scenario.config
    assert cfg.n_firms == 2000
    assert cfg.beta_weight.beta_min == pytest.approx(1e-4)
    assert scenario.verify is True
    assert scenario.window == (6.0, 900.0)
    assert cfg.seed == 31
    assert cfg.firm_params.mu == 2.5
    assert cfg.beta_weight.gamma == 0.5


def test_scenario_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n_firms = 100\nbogus_key = 3\n")
    with pytest.raises(ValueError) as err:
        parse_scenario(path)
    assert "bogus_key" in str(err.value)
    assert ":2" in str(err.value)


def test_scenario_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n_firms 100\n")
    with pytest.raises(ValueError, match=":1"):
        parse_scenario(path)


def test_scenario_missing_keys(tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text("n_firms = 100\nseed = 1\n")
    with pytest.raises(ValueError) as err:
        parse_scenario(path)
    assert "firm_mu" in str(err.value)


NO_SEED = ("n_firms = 1500\nn_workers_per_epoch = 10\nn_epochs = 5\n"
           "firm_mu = 2.5\nfirm_nu = 2.0\nfirm_q = 1.0\nfirm_c1 = 1.0\n"
           "gamma = 0.5\nbeta_min = 1e-4\nbeta_max = 2.0\n")


def test_scenario_default_seed(tmp_path):
    path = tmp_path / "noseed.txt"
    path.write_text(NO_SEED)
    assert parse_scenario(path, default_seed=lambda: 77).config.seed == 77
    with pytest.raises(ValueError, match="seed"):
        parse_scenario(path)
    with pytest.raises(ValueError, match="seed"):
        parse_scenario(path, default_seed=lambda: None)


def test_scenario_default_seed_unused_when_seed_set(tmp_path):
    def unreadable():
        raise AssertionError("default seed read for a scenario with a seed")

    path = tmp_path / "seeded.txt"
    path.write_text(NO_SEED + "seed = 4\n")
    assert parse_scenario(path, default_seed=unreadable).config.seed == 4


def test_scenario_defaults(tmp_path):
    # the widest window the preconditions beta_max * c_lo > 10 and
    # beta_min * c_hi < 0.1 admit, pulled in by 0.1% at each end
    path = tmp_path / "defaults.txt"
    path.write_text(NO_SEED)
    scenario = parse_scenario(path, default_seed=lambda: 1)
    assert scenario.window == (10.0 / 2.0 * 1.001, 0.1 / 1e-4 * 0.999)
    assert scenario.tolerance == 0.15
    assert scenario.verify is True


@pytest.mark.parametrize("text,line,message", [
    (NO_SEED + "n_epochs = 5\n", 11, "repeated key 'n_epochs'"),
    (NO_SEED.replace("n_firms = 1500", "n_firms = 1.5e3"), 1,
     "n_firms: invalid literal for int()"),
    (NO_SEED + "verify = yes\n", 11, "verify: must be true or false"),
    (NO_SEED + "fit_window_lo = -1\n", 11, "fit_window_lo: must be > 0"),
    (NO_SEED + "fit_window_hi = 0\n", 11, "fit_window_hi: must be > 0"),
    (NO_SEED + "fit_window_hi = nan\n", 11, "fit_window_hi: must be > 0"),
])
def test_scenario_bad_line_names_line_and_key(tmp_path, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        parse_scenario(path, default_seed=lambda: 1)
    assert str(err.value).startswith(f"{path}:{line}: {message}")
