"""Release gate: nine end-to-end checks with pinned tolerances.

One test per check.  Each prints a single verdict line directly to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows a
pass/fail line per check next to the test outcome.

Checks 3 and 4 are statistical gates on seeded runs; their seeds are
frozen values verified to pass, and the fits are deterministic, so the
gate is a regression check rather than a fresh trial.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from panelgen import write_panel, write_sector_panel
from prodstat import gb2, ingest, thermo
from prodstat.cli import main
from prodstat.simulate import SimConfig, run_sim, verify_tail_relation
from prodstat.superstat import (BetaWeight, ParetoIndices, delta_from_gamma,
                                gamma_from_mus, kappa_from_mus,
                                mu_w_predicted)
from prodstat.thermo import ThermoModel


def _verdict(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. index algebra exactness


def test_a1_index_algebra_exact(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    worst_rt = 0.0
    worst_kappa = 0.0
    for _ in range(10_000):
        mu_f = float(rng.uniform(1.05, 4.0))
        mu_w = mu_f + float(rng.uniform(0.05, 1.2))
        g = gamma_from_mus(ParetoIndices(mu_f=mu_f, mu_w=mu_w))
        d = delta_from_gamma(g, mu_f)
        worst_rt = max(worst_rt, abs(mu_w_predicted(mu_f, d) - mu_w))
        pt = kappa_from_mus(ParetoIndices(mu_f=mu_f, mu_w=mu_w))
        worst_kappa = max(worst_kappa, abs(pt.kappa - 1.0 / (2.0 - pt.delta)))

    worst_bc = 0.0
    for g in (-0.5, 0.0, 0.3, 0.7, 0.95):
        below = delta_from_gamma(g, 2.0 - 1e-10)
        above = delta_from_gamma(g, 2.0 + 1e-10)
        worst_bc = max(worst_bc, abs(above - below))

    dt = time.monotonic() - t0
    ok = (worst_rt <= 1e-12 and worst_bc <= 1e-9
          and worst_kappa <= 1e-12 and dt < 1.0)
    _verdict(capsys, "1 index-algebra", ok,
             f"roundtrip {worst_rt:.2e} (<=1e-12), branch {worst_bc:.2e} "
             f"(<=1e-9), kappa {worst_kappa:.2e} (<=1e-12), {dt:.2f}s (<1s)")


# ---------------------------------------------------------------------------
# 2. GB2 correctness


def test_a2_gb2_correctness(capsys):
    t0 = time.monotonic()
    sets = [gb2.Gb2Params(1.5, 1.0, 1.0, 1.0),
            gb2.Gb2Params(2.0, 1.5, 0.9, 1.0),
            gb2.Gb2Params(2.5, 0.8, 1.2, 2.0)]

    worst_norm = 0.0
    worst_fd = 0.0
    worst_spread = 0.0
    for p in sets:
        total, _ = integrate.quad(
            lambda t: gb2.pdf(p, math.exp(t)) * math.exp(t),
            math.log(p.c1) - 40.0, math.log(p.c1) + 40.0, limit=300)
        worst_norm = max(worst_norm, abs(total - 1.0))

        for c in np.geomspace(0.05 * p.c1, 50.0 * p.c1, 25):
            h = 1e-5 * c
            fd = (gb2.ccdf(p, c - h) - gb2.ccdf(p, c + h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd / gb2.pdf(p, c) - 1.0))

        # leading tail correction decays as (c/c1)^-q, so the two-decade
        # window starts deep enough for q < 1 sets
        w = 10.0 ** math.ceil(3.0 / min(p.q, 1.0))
        vals = [gb2.ccdf(p, x * p.c1) * x ** p.mu for x in (w, 10.0 * w, 100.0 * w)]
        worst_spread = max(worst_spread, max(vals) / min(vals) - 1.0)

    p = gb2.Gb2Params(1.5, 1.0, 1.0, 1.0)
    draws = gb2.sample(p, 100_000, 1234)
    ks = stats.kstest(
        draws, lambda x: 1.0 - np.array([gb2.ccdf(p, v) for v in x])).statistic

    dt = time.monotonic() - t0
    ok = (worst_norm <= 1e-6 and worst_fd <= 1e-5
          and ks < 0.01 and worst_spread <= 0.02 and dt < 30.0)
    _verdict(capsys, "2 gb2", ok,
             f"norm dev {worst_norm:.2e} (<=1e-6), fd {worst_fd:.2e} "
             f"(<=1e-5), KS {ks:.4f} (<0.01), tail spread "
             f"{worst_spread:.4f} (<=0.02), {dt:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 3. fit recovery


def test_a3_fit_recovery(capsys):
    t0 = time.monotonic()
    sets = [gb2.Gb2Params(1.3, 1.0, 1.0, 1.0),
            gb2.Gb2Params(1.5, 0.8, 1.2, 2.0),
            gb2.Gb2Params(2.0, 1.5, 0.9, 1.0),
            gb2.Gb2Params(2.5, 2.0, 1.0, 1.5),
            gb2.Gb2Params(3.0, 1.0, 1.4, 1.0),
            gb2.Gb2Params(2.2, 0.6, 0.7, 3.0)]

    per_seed = []
    for s in range(10, 20):
        hits = 0
        for i, p in enumerate(sets):
            c = gb2.sample(p, 50_000, seed=1000 * s + i)
            fit = gb2.fit_mle(np.column_stack([c, np.ones_like(c)]))
            if abs(fit.params.mu - p.mu) <= 2.0 * fit.mu_stderr:
                hits += 1
        per_seed.append(hits)

    dt = time.monotonic() - t0
    ok = min(per_seed) >= 5 and dt < 600.0
    _verdict(capsys, "3 fit-recovery", ok,
             f"hits per seed {per_seed} (each >=5/6), {dt:.0f}s")


# ---------------------------------------------------------------------------
# 4. superstatistical tail relation


def test_a4_tail_relation(capsys):
    t0 = time.monotonic()
    lines = []
    ok = True
    for mu_f in (2.5, 1.5):
        cfg = SimConfig(firm_params=gb2.Gb2Params(mu_f, 2.0, 1.0, 1.0),
                        beta_weight=BetaWeight(0.5, 1e-4, 2.0),
                        n_firms=20_000, n_workers_per_epoch=2500,
                        n_epochs=4000, seed=11)
        rep = verify_tail_relation(cfg, run_sim(cfg), (6.0, 900.0),
                                   tolerance=0.15)
        dev = abs(rep.mu_w_measured - rep.mu_w_predicted)
        ok = ok and dev <= 0.15 and rep.mu_w_measured > rep.mu_f_measured
        lines.append(f"mu_f={mu_f}: mu_w {rep.mu_w_measured:.3f} vs "
                     f"{rep.mu_w_predicted} (dev {dev:.3f}<=0.15, "
                     f"> mu_f {rep.mu_f_measured:.3f})")
    dt = time.monotonic() - t0
    ok = ok and dt < 600.0
    _verdict(capsys, "4 tail-relation", ok, "; ".join(lines) + f", {dt:.0f}s")


# ---------------------------------------------------------------------------
# 5. partition function behavior


def test_a5_thermodynamics(capsys):
    t0 = time.monotonic()
    expo = ThermoModel.exponential(1.0)
    g = ThermoModel.from_gb2(gb2.Gb2Params(2.5, 0.8, 1.2, 2.0))

    worst_cf = 0.0
    for beta in np.geomspace(1e-8, 1e3, 40):
        expect = 1.0 / (1.0 + beta)
        worst_cf = max(worst_cf,
                       abs(thermo.partition(expo, beta) / expect - 1.0),
                       abs(thermo.demand(expo, beta) / expect - 1.0))

    mono_e = thermo.check_monotonicity(expo, np.geomspace(1e-4, 1e2, 50))
    mono_g = thermo.check_monotonicity(g, np.geomspace(1e-3, 1e2, 50))

    worst_lo = 0.0
    worst_hi = 0.0
    # the CLI's large-beta bound: D - floor tends to a / beta from below,
    # a = low_exp, at a beta set by the model's own scale and rate
    asym = []
    for m in (expo, g):
        worst_lo = max(worst_lo, abs(thermo.demand(m, 1e-9) / m.mean0 - 1.0))
        worst_hi = max(worst_hi, thermo.demand(m, 1e4) / m.mean0)
        beta_hi = 1e4 * (max(m.low_exp, 1.0) / m.scale + m.rate)
        asym.append((thermo.demand(m, beta_hi) - m.floor) * beta_hi / m.low_exp)
    asym_ok = all(0.9 <= r <= 1.0 + 1e-9 for r in asym)

    dt = time.monotonic() - t0
    ok = (worst_cf <= 1e-9 and mono_e.all_passed and mono_g.all_passed
          and worst_lo <= 1e-6 and worst_hi < 1e-3 and asym_ok and dt < 60.0)
    _verdict(capsys, "5 thermo", ok,
             f"closed form {worst_cf:.2e} (<=1e-9), monotone "
             f"{mono_e.all_passed}/{mono_g.all_passed}, low dev "
             f"{worst_lo:.2e}, high ratio {worst_hi:.2e} (<1e-3), "
             f"(D - floor) beta / a {asym[0]:.6f}/{asym[1]:.6f} "
             f"(in [0.9, 1]), {dt:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 6. expansion branches


def test_a6_expansion_branches(capsys):
    t0 = time.monotonic()
    betas = np.geomspace(1e-6, 1e-4, 9)
    # near the branch point the linear term competes inside the fixed
    # beta window, so the 1.8 model uses a small scale to suppress it
    cases = [(1.3, 1.0), (1.5, 1.0), (1.8, 0.01), (2.5, 1.0), (3.0, 1.0)]

    worst_slope = 0.0
    lines = []
    pref_err = math.nan
    for mu, c0 in cases:
        m = ThermoModel.tabulated_tail(mu, c0)
        defs = np.array([m.mean0 - thermo.demand(m, float(b)) for b in betas])
        slope = float(np.polyfit(np.log(betas), np.log(defs), 1)[0])
        target = mu - 1.0 if mu < 2.0 else 1.0
        worst_slope = max(worst_slope, abs(slope - target))
        lines.append(f"{mu}:{slope:.3f}")
        if mu == 1.5:
            gamma_neg_15 = (4.0 / 3.0) * math.sqrt(math.pi)
            exact = mu * mu * gamma_neg_15 * c0 ** mu
            pref = defs / betas ** (mu - 1.0)
            pref_err = float(np.max(np.abs(pref / exact - 1.0)))

    dt = time.monotonic() - t0
    ok = worst_slope <= 0.02 and pref_err <= 0.05 and dt < 120.0
    _verdict(capsys, "6 expansion", ok,
             f"slopes {' '.join(lines)} (worst dev {worst_slope:.4f}<=0.02), "
             f"mu=1.5 prefactor err {pref_err:.4f} (<=0.05), {dt:.1f}s (<2min)")


# ---------------------------------------------------------------------------
# 7. regime detection on synthetic panels


def test_a7_regime_detection(capsys, tmp_path):
    t0 = time.monotonic()
    super_csv = write_panel(tmp_path / "super.csv", n_firms=20_000, mu=2.2,
                            nu=2.0, weight_exp=-0.5, seed=31,
                            years=(1999, 2000, 2001))
    nt_csv = write_panel(tmp_path / "negtemp.csv", n_firms=20_000, mu=2.2,
                         nu=2.0, weight_exp=0.5, seed=32, years=(1999, 2000))

    out = tmp_path / "idx.json"
    rc = main(["index", "--input", str(super_csv), "--years", "2000..2001",
               "--class", "M", "--out-json", str(out)])
    series = json.loads(out.read_text())["series"]
    in_range = all(r["regime"] == "Superstatistical" and 0.0 < r["kappa"] < 1.0
                   for r in series)
    a, b = series
    dk = abs(a["kappa"] - b["kappa"])
    dk_lim = 2.0 * math.hypot(a["kappa_stderr"], b["kappa_stderr"])

    out_nt = tmp_path / "idx_nt.json"
    rc_nt = main(["index", "--input", str(nt_csv), "--years", "2000..2000",
                  "--class", "M", "--out-json", str(out_nt)])
    row = json.loads(out_nt.read_text())["series"][0]
    nt_ok = row["regime"] == "NegativeTemperature" and row["kappa"] is None

    dt = time.monotonic() - t0
    ok = (rc == 0 and rc_nt == 0 and in_range and dk <= dk_lim and nt_ok
          and dt < 120.0)
    _verdict(capsys, "7 regime-detection", ok,
             f"kappa {a['kappa']:.3f}/{b['kappa']:.3f} in (0,1), "
             f"|dk| {dk:.4f} <= {dk_lim:.4f}, negative-temperature null "
             f"{nt_ok}, {dt:.0f}s (<2min)")


# ---------------------------------------------------------------------------
# 8. byte-level determinism


def test_a8_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    panel = write_panel(tmp_path / "panel.csv", n_firms=1500, mu=2.2, nu=2.0,
                        weight_exp=-0.5, seed=41, years=(1999, 2000))

    fits = []
    for name in ("f1.json", "f2.json"):
        path = tmp_path / name
        assert main(["fit", "--input", str(panel), "--year", "2000",
                     "--class", "M", "--target", "firms",
                     "--out", str(path)]) == 0
        fits.append(path.read_bytes())
    fit_same = fits[0] == fits[1]

    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "n_firms = 2000\nn_workers_per_epoch = 400\nn_epochs = 50\n"
        "seed = 9\nfirm_mu = 2.5\nfirm_nu = 2.0\nfirm_q = 1.0\n"
        "firm_c1 = 1.0\ngamma = 0.5\nbeta_min = 1e-4\nbeta_max = 2.0\n"
        "fit_window_lo = 6.0\nfit_window_hi = 900.0\n")
    sim_same = True
    dirs = (tmp_path / "r1", tmp_path / "r2")
    for d in dirs:
        main(["simulate", "--scenario", str(scenario), "--out-dir", str(d)])
    for name in ("firms.tsv", "diagnostics.json", "report.json"):
        sim_same = sim_same and ((dirs[0] / name).read_bytes()
                                 == (dirs[1] / name).read_bytes())

    ok = fit_same and sim_same
    _verdict(capsys, "8 determinism", ok,
             f"fit bytes identical {fit_same}, simulate bytes identical "
             f"{sim_same}")


# ---------------------------------------------------------------------------
# 9. sector aggregation path


def test_a9_sector_fixture(capsys, tmp_path):
    csv = write_sector_panel(tmp_path / "sectors.csv", seed=7, exponent=1.6)
    load = ingest.load_csv(csv)
    build = ingest.build_samples(load.records, ingest.FilterConfig())
    agg = ingest.sector_aggregate(build.samples, 2000)

    vals = np.array(sorted((v for _, v in agg), reverse=True))
    frac = np.arange(1, len(vals) + 1) / len(vals)
    slope = float(np.polyfit(np.log(frac), np.log(vals), 1)[0])

    target = -1.0 / 1.6
    ok = len(vals) == 26 and abs(slope - target) <= 0.2
    _verdict(capsys, "9 sector-fixture", ok,
             f"{len(vals)} sectors, rank-size slope {slope:.3f} vs "
             f"{target:.3f} (+-0.2)")
