"""Monte Carlo allocation engine, scaling-window guardrails, and the
flat key = value scenario format."""

import os
import sys

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
    assert np.array_equal(a.epoch_demand, b.epoch_demand)


def _serial_run(cfg):
    """run_sim's epochs as one loop over the allocation stream in order;
    each epoch's demand also as the dot product n_k @ c."""
    ss_firms, ss_betas, ss_alloc = np.random.SeedSequence(cfg.seed).spawn(3)
    c = gb2.sample(cfg.firm_params, cfg.n_firms, ss_firms)
    betas = simulate.sample_betas(cfg.beta_weight, cfg.n_epochs,
                                  np.random.default_rng(ss_betas))
    rng = np.random.default_rng(ss_alloc)
    n = cfg.n_workers_per_epoch
    dc = c - c.min()
    cdf = np.empty(cfg.n_firms)
    counts = np.zeros(cfg.n_firms, dtype=np.int64)
    demand = np.empty(cfg.n_epochs)
    dot_demand = np.empty(cfg.n_epochs)
    for j in range(cfg.n_epochs):
        np.multiply(dc, -betas[j], out=cdf)
        np.exp(cdf, out=cdf)
        np.cumsum(cdf, out=cdf)
        u = 1.0 - rng.random(n)
        u.sort()
        u *= cdf[-1]
        firm = np.searchsorted(cdf, u, side="left")
        n_k = np.bincount(firm, minlength=cfg.n_firms)
        counts += n_k
        demand[j] = c[firm].sum() / n
        dot_demand[j] = (n_k @ c) / n
    return counts, betas, demand, dot_demand


_CHUNK = simulate._CHUNK_EPOCHS


# the epoch count at and around the chunk size, and N above K = 20
@pytest.mark.parametrize("n_firms, n_workers, n_epochs", [
    (300, 40, 1), (300, 40, _CHUNK - 1), (300, 40, _CHUNK),
    (300, 40, _CHUNK + 1), (300, 40, 3 * _CHUNK + 7), (20, 60, _CHUNK + 1)])
@pytest.mark.parametrize("cpus", [1, 3])
def test_chunked_run_matches_serial_loop(monkeypatch, cpus, n_firms,
                                         n_workers, n_epochs):
    # each chunk advances its own generator to its first epoch's place in
    # the stream, so the pool's outputs are the serial loop's, bit for bit,
    # whatever the worker count; a short switch interval interleaves the
    # workers' Python steps more often
    monkeypatch.setattr(simulate, "_n_cpus", lambda: cpus)
    cfg = _config(n_firms=n_firms, n_workers_per_epoch=n_workers,
                  n_epochs=n_epochs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = simulate.run_sim(cfg)
    finally:
        sys.setswitchinterval(interval)
    counts, betas, demand, dot_demand = _serial_run(cfg)
    assert np.array_equal(out.worker_counts, counts)
    assert np.array_equal(out.realized_betas, betas)
    assert np.array_equal(out.epoch_demand, demand)
    # two orders of one sum of N positive terms, each within (N - 1) eps
    np.testing.assert_allclose(demand, dot_demand,
                               rtol=2 * n_workers * np.finfo(float).eps)


def test_n_cpus_without_affinity(monkeypatch):
    # where os has no sched_getaffinity, the pool sizes by os.cpu_count,
    # and by one CPU when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert simulate._n_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._n_cpus() == 1


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


def _fixed_beta(beta):
    return BetaWeight(gamma=0.0, beta_min=beta, beta_max=beta)


# n_workers_per_epoch below, at and above n_firms = 20
@pytest.mark.parametrize("n_workers", [8, 20, 60])
def test_counts_match_boltzmann_weights(n_workers):
    # at one fixed beta each epoch's counts are multinomial(N, p_k), so
    # a firm's mean count per epoch is N p_k with sd sqrt(N p_k (1 - p_k) / E)
    cfg = _config(n_firms=20, n_workers_per_epoch=n_workers, n_epochs=4000,
                  beta_weight=_fixed_beta(1.0))
    out = simulate.run_sim(cfg)
    w = np.exp(-(out.firm_productivities - out.firm_productivities.min()))
    p = w / w.sum()
    assert 0.05 < p.max() < 0.5 and (p < 0.01).any()
    mean = out.worker_counts / cfg.n_epochs
    sd = np.sqrt(n_workers * p * (1.0 - p) / cfg.n_epochs)
    assert np.all(np.abs(mean - n_workers * p) <= 5.0 * sd)


@pytest.mark.parametrize("n_workers", [50, 400])
def test_underflowing_firm_gets_no_worker(n_workers):
    # at beta = 2000, exp(-beta (c_k - c_min)) is 0 for most firms,
    # the first four in draw order among them
    cfg = _config(n_firms=200, n_workers_per_epoch=n_workers, n_epochs=50,
                  beta_weight=_fixed_beta(2000.0))
    out = simulate.run_sim(cfg)
    c = out.firm_productivities
    zero = np.exp(-2000.0 * (c - c.min())) == 0.0
    assert zero[:4].all() and 100 < zero.sum() < len(c) - 20
    assert not out.worker_counts[zero].any()
    assert out.worker_counts.sum() == n_workers * cfg.n_epochs


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
    (NO_SEED + "fit_window_hi = inf\n", 11,
     "fit_window_hi: must be > 0 and finite, got 'inf'"),
    (NO_SEED + "tolerance = nan\n", 11,
     "tolerance: must be > 0 and finite, got 'nan'"),
    (NO_SEED + "tolerance = -0.5\n", 11,
     "tolerance: must be > 0 and finite, got '-0.5'"),
    (NO_SEED + "tolerance = inf\n", 11,
     "tolerance: must be > 0 and finite, got 'inf'"),
])
def test_scenario_bad_line_names_line_and_key(tmp_path, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        parse_scenario(path, default_seed=lambda: 1)
    assert str(err.value).startswith(f"{path}:{line}: {message}")


@pytest.mark.parametrize("old,new,message", [
    ("n_firms = 1500", "n_firms = 0", "counts must be >= 1"),
    ("gamma = 0.5", "gamma = 1.5", "gamma must be finite and < 1"),
    ("firm_q = 1.0", "firm_q = -1",
     "Gb2Params.q must be finite and > 0, got -1.0"),
    ("beta_min = 1e-4", "beta_min = 3.0",
     "need 0 < beta_min <= beta_max < inf"),
])
def test_scenario_value_refused_by_config_names_file(tmp_path, old, new, message):
    # each value parses, and SimConfig, BetaWeight or Gb2Params refuses it
    path = tmp_path / "bad.txt"
    path.write_text(NO_SEED.replace(old, new))
    with pytest.raises(ValueError) as err:
        parse_scenario(path, default_seed=lambda: 1)
    assert str(err.value).startswith(f"{path}: {message}")
