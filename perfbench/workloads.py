"""The benchmark's workloads: seeded inputs, the CLI jobs run on them,
and the checks on every job's outputs.

A workload builds one pass, a list of CLI jobs, from the run seed; a run
repeats that pass.  The panels use a sharp GB2 crossover (q = 3): over
seeds 21-26 the likelihood evaluations of a 2000-firm fit vary by 10%
(coefficient of variation) with the default q = 1 and by 2% with q = 3,
so the timings measure the code rather than how well the seed
conditioned the simplex search.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from panelgen import write_panel
from prodstat import ingest, thermo

OK = "ok"
KNOWN_DEFECT = "known-defect"
FAILED = "failed"

PANEL_MU = 2.2              # firm-side GB2 of the generated panels
PANEL_NU = 2.0
PANEL_Q = 3.0
PANEL_WEIGHT_EXP = -0.5     # workers ~ c^-0.5: superstatistical, mu_w = mu + 0.5
LARGE_FIRMS = 8000          # kernel reductions of 4k-32k elements
SMALL_FIRMS = 2000          # kernel reductions under 4k elements
# The first year of a panel has no prior-year workforce, so the index
# covers the years after it.
LARGE_YEARS = (1999, 2000, 2001)
SMALL_YEARS = (1999, 2000)
# The years of one panel share its firms, so their fits cost alike, and a
# seed that makes one year's fits slow makes them all slow.  panel-small
# therefore indexes one year of several independent panels rather than
# many years of one: the seed-to-seed variation of the work then averages
# out.
SMALL_PANELS = 4

# The simulation the README documents, with n_firms cut from 20000 to
# 8000 so one pass fits the run window; seed 11 is the documented seed.
VERIFIED_SCENARIO = dict(
    n_firms=8000, n_workers_per_epoch=2500, n_epochs=4000, seed=11,
    firm_mu=2.5, firm_nu=2.0, firm_q=1.0, firm_c1=1.0, gamma=0.5,
    beta_min=1e-4, beta_max=2.0, fit_window_lo=6.0, fit_window_hi=900.0,
    verify="true")
# The same model without the fits, so run_sim is the cost.
UNVERIFIED_SCENARIO = dict(VERIFIED_SCENARIO, n_firms=10000, verify="false")

# The three model kinds the README documents, run as documented on the
# default grid, and one finer grid on the model with an exact answer.
THERMO_RUNS = (
    ("exponential:mean=1.0", None),
    ("gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0", None),
    ("tail:mu=1.5,c0=1.0", None),
    ("exponential:mean=1.0", "1e-3:1e3:100"),
)


@dataclass(frozen=True)
class Job:
    kind: str                        # index | ranksize | simulate | thermo
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]        # files the job writes
    check: Callable[[int], tuple[str, str]]   # exit code -> (status, reason)
    inputs: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[Path, int], list[Job]]         # (dir, seed) -> jobs
    input_check: Callable[[list[Job]], list[str]]       # once per run
    bypassed: tuple[str, ...]        # traced functions this workload must not call
    sizes: dict = field(default_factory=dict)           # job kind -> input size


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect(cond: bool, reason: str, problems: list[str]) -> None:
    if not cond:
        problems.append(reason)


def _verdict(problems: list[str]) -> tuple[str, str]:
    return (FAILED, "; ".join(problems)) if problems else (OK, "")


# ---------------------------------------------------------------------------
# panel jobs


def _tsv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest: "):
        raise ValueError(f"{path.name}: missing manifest or header")
    return [line.split("\t") for line in lines[1:]]


def _check_index(path: Path, code: int, accuracy: bool) -> tuple[str, str]:
    """Every year converged in the Superstatistical regime with kappa in
    (0, 1).  With accuracy, both indices also lie within 3 bootstrap
    stderr of the values that generated the panel."""
    problems: list[str] = []
    _expect(code == 0, f"index exit {code}, want 0", problems)
    if problems:
        return _verdict(problems)
    series = json.loads(path.read_text(encoding="utf-8"))["series"]
    _expect(len(series) > 0, "empty index series", problems)
    for e in series:
        y = e["year"]
        if "error" in e:
            problems.append(f"{y}: {e['error']}")
            continue
        _expect(e["firm_converged"] and e["worker_converged"],
                f"{y}: fit did not converge", problems)
        _expect(e["regime"] == "Superstatistical"
                and e["kappa"] is not None and 0.0 < e["kappa"] < 1.0,
                f"{y}: regime {e['regime']}, kappa {e['kappa']}", problems)
        if not accuracy:
            continue
        for name, truth in (("mu_f", PANEL_MU),
                            ("mu_w", PANEL_MU - PANEL_WEIGHT_EXP)):
            fitted, se = e[name], e[name + "_stderr"]
            _expect(abs(fitted - truth) <= 3.0 * se,
                    f"{y}: {name} {fitted:.4f} not within 3 x {se:.4f} of "
                    f"{truth}", problems)
    return _verdict(problems)


def _check_ranksize(points: Path, curve: Path, code: int,
                    n_samples: int) -> tuple[str, str]:
    problems: list[str] = []
    _expect(code == 0, f"ranksize exit {code}, want 0", problems)
    if problems:
        return _verdict(problems)
    rows = _tsv_rows(points)
    _expect(rows[0] == ["c", "rank_fraction"], "points header", problems)
    c = np.array([float(r[0]) for r in rows[1:]])
    frac = np.array([float(r[1]) for r in rows[1:]])
    _expect(len(c) == n_samples, f"{len(c)} points, want {n_samples}", problems)
    _expect(bool(np.all(np.diff(c) <= 0.0)), "points not descending", problems)
    _expect(bool(np.all(np.diff(frac) > 0.0)) and abs(frac[-1] - 1.0) <= 1e-12,
            "rank fractions not increasing to 1", problems)
    rows = _tsv_rows(curve)
    _expect(rows[0] == ["c", "ccdf"], "curve header", problems)
    ccdf = np.array([float(r[1]) for r in rows[1:]])
    _expect(len(ccdf) == 200, f"{len(ccdf)} curve points, want 200", problems)
    _expect(bool(np.all((ccdf >= 0.0) & (ccdf <= 1.0))
                 and np.all(np.diff(ccdf) <= 0.0)),
            "fitted ccdf not a non-increasing probability", problems)
    return _verdict(problems)


def _panel_path(d: Path, seed, n_firms: int, years, name="panel") -> Path:
    d.mkdir(parents=True, exist_ok=True)
    return write_panel(d / f"{name}.csv", n_firms=n_firms, mu=PANEL_MU,
                       nu=PANEL_NU, q=PANEL_Q, weight_exp=PANEL_WEIGHT_EXP,
                       seed=seed, years=years)


def _index_job(d: Path, panel: Path, years: str, accuracy: bool) -> Job:
    out_json = d / f"{panel.stem}-index.json"
    out_tsv = d / f"{panel.stem}-index.tsv"
    return Job("index",
               ("index", "--input", str(panel), "--years", years,
                "--class", "M", "--out-json", str(out_json),
                "--out-tsv", str(out_tsv)),
               (out_json, out_tsv),
               lambda code: _check_index(out_json, code, accuracy),
               (panel,))


def _large_pass(d: Path, seed: int) -> list[Job]:
    panel = _panel_path(d, seed, LARGE_FIRMS, LARGE_YEARS)
    points, curve = d / "ranksize.tsv", d / "ranksize_fit.tsv"
    return [
        _index_job(d, panel, f"{LARGE_YEARS[1]}..{LARGE_YEARS[-1]}",
                   accuracy=True),
        Job("ranksize",
            ("ranksize", "--input", str(panel), "--year", str(LARGE_YEARS[-1]),
             "--class", "M", "--target", "workers", "--fit",
             "--out-tsv", str(points), "--fit-out", str(curve)),
            (points, curve),
            lambda code: _check_ranksize(points, curve, code, LARGE_FIRMS),
            (panel,)),
    ]


def _small_pass(d: Path, seed: int) -> list[Job]:
    seeds = np.random.SeedSequence(seed).spawn(SMALL_PANELS)
    return [_index_job(d, _panel_path(d, s, SMALL_FIRMS, SMALL_YEARS,
                                      f"panel{i}"),
                       f"{SMALL_YEARS[1]}..{SMALL_YEARS[-1]}", accuracy=False)
            for i, s in enumerate(seeds)]


def _check_panel_ingest(jobs: list[Job], n_firms: int, years) -> list[str]:
    """records = samples + exclusions on each panel, with the
    exact counts the generator implies: every firm-year parses, and the
    first year of each firm has no prior-year workforce."""
    problems: list[str] = []
    n_years = len(years)
    for panel in sorted({p for job in jobs for p in job.inputs}):
        load = ingest.load_csv(panel)
        build = ingest.build_samples(load.records)
        _expect(not load.errors and not load.exclusions,
                f"{panel}: {len(load.errors)} malformed, "
                f"{len(load.exclusions)} excluded rows", problems)
        _expect(len(load.records) == len(build.samples) + len(build.exclusions),
                f"{panel}: records {len(load.records)} != samples "
                f"{len(build.samples)} + exclusions {len(build.exclusions)}",
                problems)
        _expect(len(load.records) == n_firms * n_years
                and len(build.samples) == n_firms * (n_years - 1),
                f"{panel}: {len(load.records)} records, {len(build.samples)} "
                f"samples for {n_firms} firms over {n_years} years", problems)
    return problems


# ---------------------------------------------------------------------------
# model jobs


def _write_scenario(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")
    return path


def _check_simulate(d: Path, code: int, values: dict) -> tuple[str, str]:
    problems: list[str] = []
    verify = values["verify"] == "true"
    _expect(code == 0, f"simulate exit {code}, want 0", problems)
    if problems:
        return _verdict(problems)
    diag = json.loads((d / "diagnostics.json").read_text(encoding="utf-8"))
    want_total = values["n_workers_per_epoch"] * values["n_epochs"]
    _expect(diag["total_workers"] == want_total,
            f"total_workers {diag['total_workers']}, want {want_total}", problems)
    _expect(len(diag["epochs"]) == values["n_epochs"], "epoch count", problems)
    firms = _tsv_rows(d / "firms.tsv")
    _expect(len(firms) - 1 == values["n_firms"], "firm count", problems)
    _expect(sum(int(r[2]) for r in firms[1:]) == want_total,
            "firm worker counts do not sum to total_workers", problems)
    report = d / "report.json"
    if verify:
        r = json.loads(report.read_text(encoding="utf-8"))
        _expect(r["passed"] is True, f"tail relation failed: mu_w "
                f"{r['mu_w_measured']} vs {r['mu_w_predicted']}", problems)
        _expect(r["firm_fit"]["converged"] and r["worker_fit"]["converged"],
                "tail fit did not converge", problems)
    else:
        _expect(not report.exists(), "report.json written with verify = false",
                problems)
    return _verdict(problems)


def _check_thermo(path: Path, code: int, model: str) -> tuple[str, str]:
    """Exit 4 from the expansion check alone is the recorded defect: the
    CLI compares the small-beta expansion at c0*beta < 0.01 against a 5%
    tolerance, and the true deviation there is larger.  A later fix that
    makes the job exit 0 passes this check unchanged."""
    problems: list[str] = []
    _expect(code in (0, 4), f"thermo exit {code}, want 0 or 4", problems)
    if problems:
        return _verdict(problems)
    r = json.loads(path.read_text(encoding="utf-8"))
    _expect(r["passed"] is (code == 0), "passed flag disagrees with exit code",
            problems)
    _expect(r["monotonicity"]["all_passed"] is True, "monotonicity failed",
            problems)
    _expect(r["limits"]["low_ok"] and r["limits"]["high_ok"], "demand limits",
            problems)
    if model.startswith("exponential:mean=1.0"):
        _expect(code == 0, "exponential model must pass", problems)
        for p in r["monotonicity"]["points"]:
            b = p["beta"]
            _expect(abs(p["demand"] * (1.0 + b) - 1.0) <= 1e-9,
                    f"D({b}) = {p['demand']} != 1/(1+beta)", problems)
            _expect(abs(p["dd_dt_var"] * (1.0 + b) ** 2 / (b * b) - 1.0) <= 1e-9,
                    f"beta^2 Var({b}) != (beta/(1+beta))^2", problems)
    if problems or code == 0:
        return _verdict(problems)
    bad = [p for p in r["expansion"]["points"] if not p["passed"]]
    if not r["expansion"]["checked"] or not bad:
        return FAILED, "exit 4 without a failing expansion point"
    worst = max(max(p["demand_deficit_rel_err"], p["partition_deficit_rel_err"])
                for p in bad)
    return KNOWN_DEFECT, (f"small-beta expansion check failed at {len(bad)} "
                          f"points (worst deficit error {worst:.3f} vs 0.05 "
                          "tolerance)")


def _thermo_job(d: Path, i: int, model: str, grid: str | None) -> Job:
    out = d / f"thermo{i}.json"
    argv = ("thermo", "--model", model, "--out", str(out))
    if grid is not None:
        argv += ("--beta-grid", grid)
    return Job("thermo", argv, (out,), lambda code: _check_thermo(out, code, model))


def _model_pass(d: Path, seed: int) -> list[Job]:
    d.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, values in (
            ("verified", VERIFIED_SCENARIO),
            ("unverified", dict(UNVERIFIED_SCENARIO, seed=seed))):
        scenario = _write_scenario(d / f"{name}.txt", values)
        out = d / name
        jobs.append(Job(
            "simulate",
            ("simulate", "--scenario", str(scenario), "--out-dir", str(out)),
            tuple(out / f for f in ("firms.tsv", "diagnostics.json", "report.json")),
            lambda code, out=out, values=values: _check_simulate(out, code, values),
            (scenario,)))
    jobs += [_thermo_job(d, i, m, g) for i, (m, g) in enumerate(THERMO_RUNS)]
    return jobs


def _check_partition(jobs: list[Job]) -> list[str]:
    """Z(beta) = 1/(1+beta) for the exponential model on the default grid."""
    model = thermo.ThermoModel.exponential(1.0)
    problems: list[str] = []
    for b in np.geomspace(1e-3, 1e3, 50):
        z = thermo.partition(model, float(b))
        _expect(abs(z * (1.0 + b) - 1.0) <= 1e-9, f"Z({b}) = {z}", problems)
    return problems


# ---------------------------------------------------------------------------

_PANEL_BYPASSES = ("gb2.sample", "simulate.run_sim",
                   "simulate.verify_tail_relation", "thermo.check_monotonicity",
                   "thermo.demand", "thermo.quad")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "panel-large", _large_pass,
            lambda jobs: _check_panel_ingest(jobs, LARGE_FIRMS, LARGE_YEARS),
            _PANEL_BYPASSES,
            {"index": f"2 years, {LARGE_FIRMS} firms, 4 fits",
             "ranksize": f"1 year, {LARGE_FIRMS} firms, worker-weighted fit"}),
        Workload(
            "panel-small", _small_pass,
            lambda jobs: _check_panel_ingest(jobs, SMALL_FIRMS, SMALL_YEARS),
            _PANEL_BYPASSES + ("gb2.ccdf", "specfun.reg_inc_beta",
                               "ingest.ranksize"),
            {"index": f"{SMALL_PANELS} panels x 1 year, {SMALL_FIRMS} "
                      f"firms, {2 * SMALL_PANELS} fits"}),
        Workload(
            "model-checks", _model_pass, _check_partition,
            ("gb2.ccdf", "specfun.reg_inc_beta", "superstat.kappa_from_mus",
             "ingest.load_csv", "ingest.build_samples", "ingest.ranksize"),
            {"simulate": "{n_firms} + {u} firms x 2500 workers x 4000 epochs, "
                         "one verified".format(
                             n_firms=VERIFIED_SCENARIO["n_firms"],
                             u=UNVERIFIED_SCENARIO["n_firms"]),
             "thermo": "3 models x 50 grid points + 1 x 100"}),
    )
}

