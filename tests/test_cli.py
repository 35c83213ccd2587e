"""Command-line front end: exit codes, embedded manifests, output
formats, and consistency between subcommands."""

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from panelgen import write_panel
from prodstat import cli, gb2, ingest, simulate, thermo
from prodstat.cli import main
from prodstat.superstat import ParetoIndices, kappa_from_mus

pytestmark = pytest.mark.usefixtures("fixed_epoch")


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


# keys of an index year entry that has fits; the per-side fields are
# gb2.FitResult fields
INDEX_FIT_FIELDS = {"converged", "n_evaluations"}
INDEX_ENTRY_KEYS = ({"year", "mu_f", "mu_f_stderr", "mu_w", "mu_w_stderr",
                     "gamma", "delta", "kappa", "kappa_stderr", "regime"}
                    | {f"{side}_{name}" for side in ("firm", "worker")
                       for name in INDEX_FIT_FIELDS})


@pytest.fixture
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture(scope="module")
def super_panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("panels") / "super.csv"
    return str(write_panel(path, n_firms=1500, mu=2.2, nu=2.0,
                           weight_exp=-0.5, seed=21,
                           years=(1999, 2000, 2001)))


@pytest.fixture(scope="module")
def negtemp_panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("panels") / "negtemp.csv"
    return str(write_panel(path, n_firms=1500, mu=2.2, nu=2.0,
                           weight_exp=0.5, seed=22, years=(1999, 2000)))


@pytest.fixture(scope="module")
def unconverged_panel(tmp_path_factory):
    # the worker fits of 2000 and 2001 end unconverged
    path = tmp_path_factory.mktemp("panels") / "unconverged.csv"
    return str(write_panel(path, n_firms=1500, mu=2.2, nu=2.0,
                           weight_exp=-0.5, seed=22))


def _assert_tsv_holds_json(tsv_path, series):
    """The index TSV: manifest comment, header, one row per year holding
    its JSON entry's values in header order, nan for null."""
    lines = tsv_path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split("\t")
    assert header[0] == "year"
    assert len(lines) == 2 + len(series)
    for line, entry in zip(lines[2:], series):
        assert line.split("\t") == [
            "nan" if entry[col] is None
            else repr(entry[col]) if isinstance(entry[col], float)
            else str(entry[col]) for col in header]


def _scenario(tmp_path, **overrides):
    values = dict(n_firms=1500, n_workers_per_epoch=400, n_epochs=100,
                  seed=9, firm_mu=2.5, firm_nu=2.0, firm_q=1.0, firm_c1=1.0,
                  gamma=0.5, beta_min=1e-4, beta_max=2.0,
                  fit_window_lo=6.0, fit_window_hi=900.0)
    values.update(overrides)
    path = tmp_path / "scenario.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["fit", "--input", "x.csv"]) == 1     # missing required args
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_fit_json_structure(super_panel, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", super_panel, "--year", "2000",
                 "--class", "M", "--target", "firms", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"manifest", "fit", "n_samples_in_slice",
                            "exclusions"}
    man = payload["manifest"]
    assert man["command"] == "fit"
    assert man["inputs"] == [super_panel]
    assert man["tool_version"]
    assert man["timestamp"].startswith("2023-11-14")   # SOURCE_DATE_EPOCH
    fit = payload["fit"]
    assert set(fit) == _field_names(gb2.FitResult)
    assert set(fit["params"]) == _field_names(gb2.Gb2Params)
    assert fit["converged"] is True
    assert fit["n_obs"] == payload["n_samples_in_slice"]
    assert 1.5 < fit["params"]["mu"] < 3.0
    assert fit["n_evaluations"] > fit["n_iterations"] > 0
    assert payload["exclusions"]["counts"]["no prior-year workers"] == 1500


def test_fit_insufficient_data_exit_two(tmp_path, super_panel):
    code = main(["fit", "--input", super_panel, "--year", "1890",
                 "--class", "M", "--target", "firms",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_fit_missing_file_exit_one(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--year",
                 "2000", "--class", "M", "--target", "firms"])
    assert code == 1
    capsys.readouterr()


def test_bad_header_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("firm_id,year,sector_code,sector_class,value_added\n")
    assert main(["fit", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms"]) == 1
    assert "missing columns: workers_eoy" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", [0, 1000])
def test_panel_not_utf8_names_file(tmp_path, capsys, bad_row):
    # the 0xff byte in the header, or in a data row past the first
    # 8 KiB that the header read decodes
    rows = [b"firm_id,year,sector_code,sector_class,value_added,workers_eoy"]
    rows += [b"F%d,2000,3,M,10.0,5" % i for i in range(1200)]
    rows[bad_row] += b"\xff"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    assert main(["fit", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prodstat: {path}: 'utf-8' codec can't decode "
                          "byte 0xff in position ")
    assert err.count("\n") == 1


def test_too_many_bad_rows_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "firm_id,year,sector_code,sector_class,value_added,workers_eoy\n"
        + "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(50))
        + "BAD,x,y,z,q,w\n")
    assert main(["fit", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms"]) == 1
    assert "1 malformed rows out of 51" in capsys.readouterr().err


def test_field_past_csv_limit_exit_one(tmp_path, capsys):
    # a field csv cannot read is one line on stderr and exit 1, not a
    # traceback
    path = tmp_path / "long.csv"
    path.write_text(
        "firm_id,year,sector_code,sector_class,value_added,workers_eoy\n"
        + "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
        + "X" * 200_000 + ",2000,3,M,10.0,5\n")
    assert main(["fit", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms"]) == 1
    assert capsys.readouterr().err == (
        "prodstat: line 201: field larger than field limit (131072)\n")


def test_ranksize_empty_year_exit_two(super_panel, tmp_path, capsys):
    assert main(["ranksize", "--input", super_panel, "--year", "1890",
                 "--class", "M", "--target", "firms",
                 "--out-tsv", str(tmp_path / "rs.tsv")]) == 2
    assert "no samples for year 1890" in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--min-workers", "min_workers"),
                                       ("--max-productivity",
                                        "max_productivity")])
def test_nan_filter_exit_one(super_panel, tmp_path, capsys, flag, name):
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", super_panel, "--year", "2000",
                 "--class", "M", "--target", "firms", flag, "nan",
                 "--out", str(out)]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_value_added_is_one_malformed_row(super_panel, tmp_path):
    lines = open(super_panel, encoding="utf-8").read().splitlines()
    row = lines[-1].split(",")
    row[4] = "1e400"
    lines[-1] = ",".join(row)
    path = tmp_path / "inf.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(path), "--year", "2001",
                 "--class", "M", "--target", "firms", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["exclusions"]["malformed_rows"] == 1
    assert payload["n_samples_in_slice"] == 1499


def test_fit_exclusion_summary_merges_both_ledgers(tmp_path):
    path = write_panel(tmp_path / "mixed.csv", n_firms=1500, mu=2.2, nu=2.0,
                       weight_exp=-0.5, seed=23, years=(1999, 2000))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Z0,2000,3,M,50.0,0\n"        # load: zero workers
                 "Z1,2000,27,M,50.0,5\n"       # load: sector out of range
                 "Z2,2000,3,M,abc,5\n"         # malformed
                 "Z3,1999,3,M,40.0,4\n"        # build: no prior
                 "Z3,2000,3,M,-1.0,4\n"        # build: nonpositive
                 "Z3,2000,3,M,999.0,4\n")      # build: duplicate
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_samples_in_slice"] == 1500
    summary = payload["exclusions"]
    assert summary["counts"] == {"no prior-year workers": 1501,
                                 "nonpositive value added": 1,
                                 "duplicate firm-year": 1,
                                 "zero workers": 1,
                                 "sector_code out of range": 1}
    assert summary["malformed_rows"] == 1
    # the ten largest c = Y / mean(L_2000, L_1999) of the panel's firms
    rows = [line.split(",") for line in
            path.read_text().splitlines()[1:3001]]
    prior = {r[0]: int(r[5]) for r in rows if r[1] == "1999"}
    c = [float(r[4]) / (0.5 * (int(r[5]) + prior[r[0]]))
         for r in rows if r[1] == "2000"]
    assert summary["top_productivities"] == sorted(c, reverse=True)[:10]


def test_index_series_and_kappa_consistency(super_panel, tmp_path):
    out_json = tmp_path / "idx.json"
    out_tsv = tmp_path / "idx.tsv"
    code = main(["index", "--input", super_panel, "--years", "2000..2001",
                 "--class", "M", "--out-json", str(out_json),
                 "--out-tsv", str(out_tsv)])
    assert code == 0
    series = json.loads(out_json.read_text())["series"]
    assert [row["year"] for row in series] == [2000, 2001]
    assert INDEX_FIT_FIELDS <= _field_names(gb2.FitResult)
    for row in series:
        assert set(row) == INDEX_ENTRY_KEYS
        assert row["regime"] == "Superstatistical"
        assert 0.0 < row["kappa"] < 1.0
        for side in ("firm", "worker"):
            assert row[f"{side}_n_evaluations"] > 0

    # the index kappa must equal the algebra applied to cmd_fit outputs
    fits = {}
    for target in ("firms", "workers"):
        fit_out = tmp_path / f"fit_{target}.json"
        assert main(["fit", "--input", super_panel, "--year", "2000",
                     "--class", "M", "--target", target,
                     "--out", str(fit_out)]) == 0
        fits[target] = json.loads(fit_out.read_text())["fit"]
    point = kappa_from_mus(ParetoIndices(
        mu_f=fits["firms"]["params"]["mu"],
        mu_w=fits["workers"]["params"]["mu"],
        mu_f_stderr=fits["firms"]["mu_stderr"],
        mu_w_stderr=fits["workers"]["mu_stderr"]))
    assert abs(series[0]["kappa"] - point.kappa) < 1e-12
    assert abs(series[0]["kappa_stderr"] - point.kappa_stderr) < 1e-12

    _assert_tsv_holds_json(out_tsv, series)


def test_index_alike_whichever_read_takes_the_panel(tmp_path):
    # one malformed row sends the file from the np.loadtxt pass to the
    # csv row loop; both end in one column step, so the index must not move
    clean = write_panel(tmp_path / "clean.csv", n_firms=2000, mu=2.2, nu=2.0,
                        weight_exp=-0.5, seed=23)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(Path(clean).read_text() + "BAD,x,y,z,q,w\n")
    assert [len(ingest.load_csv(p).errors) for p in (clean, dirty)] == [0, 1]
    outputs = []
    for path in (Path(clean), dirty):
        out_json = tmp_path / f"{path.stem}.json"
        out_tsv = tmp_path / f"{path.stem}.tsv"
        assert main(["index", "--input", str(path), "--years", "2000..2001",
                     "--class", "M", "--out-json", str(out_json),
                     "--out-tsv", str(out_tsv)]) == 0
        tsv = out_tsv.read_text().splitlines()
        assert tsv[0].startswith("# manifest: ")
        outputs.append((json.loads(out_json.read_text())["series"], tsv[1:]))
    assert outputs[0] == outputs[1]
    assert [len(rows) for _, rows in outputs] == [3, 3]


def test_index_unconverged_fit_exit_three(unconverged_panel, tmp_path):
    # both files are written; the TSV has nan where the JSON has null
    out_json, out_tsv = tmp_path / "idx.json", tmp_path / "idx.tsv"
    assert main(["index", "--input", unconverged_panel, "--years",
                 "2000..2001", "--class", "M", "--out-json", str(out_json),
                 "--out-tsv", str(out_tsv)]) == 3
    series = json.loads(out_json.read_text())["series"]
    assert [(e["firm_converged"], e["worker_converged"]) for e in series] \
        == [(True, False), (True, False)]
    assert all(e["mu_w_stderr"] is None and e["kappa_stderr"] is None
               for e in series)
    _assert_tsv_holds_json(out_tsv, series)


def test_fit_unconverged_stderr_null_exit_three(unconverged_panel, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", unconverged_panel, "--year", "2000",
                 "--class", "M", "--target", "workers", "--out", str(out)]) == 3
    fit = json.loads(out.read_text())["fit"]
    assert fit["converged"] is False
    assert fit["mu_stderr"] is None


def test_fit_without_out_writes_stdout(super_panel, tmp_path, capsys):
    out = tmp_path / "fit.json"
    args = ["fit", "--input", super_panel, "--year", "2000", "--class", "M",
            "--target", "firms"]
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_index_negative_temperature(negtemp_panel, tmp_path):
    out_json = tmp_path / "idx.json"
    code = main(["index", "--input", negtemp_panel, "--years", "2000..2000",
                 "--class", "M", "--out-json", str(out_json)])
    assert code == 0
    row = json.loads(out_json.read_text())["series"][0]
    assert set(row) == INDEX_ENTRY_KEYS | {"warning"}
    assert row["regime"] == "NegativeTemperature"
    assert row["kappa"] is None
    assert "negative-temperature" in row["warning"]


def test_index_empty_range_exit_one(super_panel, capsys):
    assert main(["index", "--input", super_panel, "--years", "2005..2001",
                 "--class", "M"]) == 1
    assert main(["index", "--input", super_panel, "--years", "2000-2001",
                 "--class", "M"]) == 1
    capsys.readouterr()
    assert main(["index", "--input", super_panel, "--years", "2000..x",
                 "--class", "M"]) == 1
    assert capsys.readouterr().err \
        == "prodstat: --years wants integers, got '2000..x'\n"


def test_index_missing_years_recorded(super_panel, tmp_path):
    out_json = tmp_path / "idx.json"
    code = main(["index", "--input", super_panel, "--years", "2000..2003",
                 "--class", "M", "--out-json", str(out_json)])
    assert code == 0
    series = json.loads(out_json.read_text())["series"]
    assert len(series) == 4
    assert set(series[2]) == set(series[3]) == {"year", "error"}


def test_index_year_with_mu_f_below_one_recorded(tmp_path):
    # 2000 fits mu_f = 0.80, where kappa is undefined: it is recorded like
    # a year with too little data, and the run goes on to 2003
    low = write_panel(tmp_path / "low.csv", n_firms=1500, mu=0.8, nu=2.0,
                      weight_exp=-0.5, seed=3, years=(1999, 2000))
    good = write_panel(tmp_path / "good.csv", n_firms=1500, mu=2.2, nu=2.0,
                       weight_exp=-0.5, seed=21, years=(2002, 2003))
    panel = tmp_path / "mixed.csv"
    panel.write_text(low.read_text() + good.read_text().split("\n", 1)[1])
    out_json, out_tsv = tmp_path / "idx.json", tmp_path / "idx.tsv"
    assert main(["index", "--input", str(panel), "--years", "2000..2003",
                 "--class", "M", "--out-json", str(out_json),
                 "--out-tsv", str(out_tsv)]) == 0
    series = json.loads(out_json.read_text())["series"]
    assert [e["year"] for e in series] == [2000, 2001, 2002, 2003]
    assert set(series[0]) == {"year", "error"}
    assert series[0]["error"].startswith("mu_f must exceed 1, got 0.80")
    assert series[3]["regime"] == "Superstatistical"
    assert [ln.split("\t")[0] for ln in out_tsv.read_text().splitlines()[2:]] \
        == ["2003"]


def test_index_no_year_names_each_cause(tmp_path, capsys):
    # 1999 is the panel's first year, so it has no samples; 2000 and 2001
    # fit mu_f = 0.80: the one stderr line names each year's own error
    panel = write_panel(tmp_path / "low.csv", n_firms=1500, mu=0.8, nu=2.0,
                        weight_exp=-0.5, seed=3)
    out_json = tmp_path / "idx.json"
    assert main(["index", "--input", str(panel), "--years", "1999..2001",
                 "--class", "M", "--out-json", str(out_json)]) == 2
    series = json.loads(out_json.read_text())["series"]
    err = capsys.readouterr().err
    assert err == "index: no year produced an index: " + "; ".join(
        f"{e['year']}: {e['error']}" for e in series) + "\n"
    assert "1999: need at least 100 observations, got 0; " in err
    assert "2000: mu_f must exceed 1, got 0.80" in err


def test_simulate_outputs_and_report(tmp_path):
    scenario = _scenario(tmp_path)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == _field_names(simulate.TailRelationReport) | {"manifest"}
    assert code == (0 if report["passed"] else 4)
    assert report["gamma"] == 0.5
    assert report["mu_w_predicted"] == pytest.approx(3.0)
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    assert diag["total_workers"] == 400 * 100
    lines = (out_dir / "firms.tsv").read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "firm_id\tc_k\tn_k"
    assert len(lines) == 2 + 1500
    total = sum(int(ln.split("\t")[2]) for ln in lines[2:])
    assert total == 400 * 100


def test_simulate_window_below_five_firms_has_nan_slope(tmp_path):
    # [6.0, 6.0001] holds fewer than the five firms the window slope needs
    scenario = _scenario(tmp_path, fit_window_hi=6.0001)
    parsed = simulate.parse_scenario(scenario)
    report = simulate.verify_tail_relation(
        parsed.config, simulate.run_sim(parsed.config), parsed.window)
    assert math.isnan(report.window_slope)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)]) == (0 if report.passed else 4)
    assert json.loads((out_dir / "report.json").read_text())["window_slope"] is None


def test_simulate_degenerate_window_exit_four(tmp_path, capsys):
    scenario = _scenario(tmp_path, gamma=0.0, beta_min=0.01, beta_max=0.01,
                         fit_window_lo=6.0, fit_window_hi=900.0)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)])
    assert code == 4
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is False
    assert "window" in report["window_error"]
    # the window is checked before the run, so nothing else is written
    assert not (out_dir / "firms.tsv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("overrides,message", [
    ({"fit_window_hi": 2000.0}, "beta_min * c_hi = 0.2 >= 0.1"),
    ({"n_firms": 900}, "tail fits need >= 1000 firms, got 900")])
def test_simulate_window_checked_before_run(tmp_path, capsys, overrides,
                                            message):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", _scenario(tmp_path, **overrides),
                 "--out-dir", str(out_dir)]) == 4
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is False and message in report["window_error"]
    assert message in capsys.readouterr().err


def test_simulate_seed_from_environment(tmp_path, monkeypatch):
    scenario = _scenario(tmp_path)
    # drop the seed line entirely
    text = "".join(ln + "\n" for ln in
                   open(scenario).read().splitlines()
                   if not ln.startswith("seed"))
    open(scenario, "w").write(text)
    monkeypatch.setenv("PRODSTAT_SEED", "9")
    out_dir = tmp_path / "run_env"
    assert main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)]) in (0, 4)
    man = json.loads((out_dir / "report.json").read_text())["manifest"]
    assert man["seed"] == 9

    monkeypatch.delenv("PRODSTAT_SEED")
    assert main(["simulate", "--scenario", scenario,
                 "--out-dir", str(tmp_path / "run_noseed")]) == 1


def test_simulate_bad_seed_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRODSTAT_SEED", "abc")
    # a scenario with its own seed never reads the variable
    scenario = _scenario(tmp_path, verify="false")
    assert main(["simulate", "--scenario", scenario,
                 "--out-dir", str(tmp_path / "seeded")]) == 0
    text = "".join(ln + "\n" for ln in open(scenario).read().splitlines()
                   if not ln.startswith("seed"))
    open(scenario, "w").write(text)
    out_dir = tmp_path / "unseeded"
    for value in ("abc", "-1"):
        monkeypatch.setenv("PRODSTAT_SEED", value)
        assert main(["simulate", "--scenario", scenario,
                     "--out-dir", str(out_dir)]) == 1
        assert (f"PRODSTAT_SEED must be an integer >= 0, got {value!r}"
                in capsys.readouterr().err)
        assert not out_dir.exists()


# _scenario writes 13 lines: n_firms first, seed fourth, fit_window_lo
# twelfth
@pytest.mark.parametrize("key,value,line,message", [
    ("n_epochs", "5", 14, "repeated key 'n_epochs'"),      # appended
    ("n_firms", "1.5e3", 1, "n_firms: invalid literal for int()"),
    ("fit_window_lo", "-1", 12, "fit_window_lo: must be > 0"),
    ("seed", "-1", 4, "seed: must be >= 0, got '-1'"),
    ("tolerance", "inf", 14, "tolerance: must be > 0 and finite, got 'inf'"),
])
def test_simulate_bad_scenario_line_exits_one_before_output(
        tmp_path, capsys, key, value, line, message):
    if line == 14:
        scenario = _scenario(tmp_path)
        with open(scenario, "a") as fh:
            fh.write(f"{key} = {value}\n")
    else:
        scenario = _scenario(tmp_path, **{key: value})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)]) == 1
    assert f"{scenario}:{line}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_skip_verify(tmp_path):
    scenario = _scenario(tmp_path, verify="false")
    out_dir = tmp_path / "run2"
    code = main(["simulate", "--scenario", scenario,
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert not (out_dir / "report.json").exists()
    assert (out_dir / "firms.tsv").exists()


def test_simulate_refuses_nonfinite_firm_draws(tmp_path, capsys):
    # Beta(0.015, 0.025) draws round to 1.0, where b / (1 - b) is inf
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "n_firms = 2000\nn_workers_per_epoch = 100\nn_epochs = 50\nseed = 1\n"
        "firm_mu = 2.5\nfirm_nu = 1.5\nfirm_q = 100\nfirm_c1 = 1.0\n"
        "gamma = 0.5\nbeta_min = 1e-3\nbeta_max = 10.0\nverify = false\n")
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "prodstat: 277 of 2000 draws are not finite positive floats for "
        "Gb2Params(mu=2.5, nu=1.5, q=100.0, c1=1.0)\n")
    assert not (out_dir / "firms.tsv").exists()


def test_thermo_exponential(tmp_path):
    out = tmp_path / "thermo.json"
    code = main(["thermo", "--model", "exponential:mean=1.0",
                 "--beta-grid", "1e-4:1e2:25", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["monotonicity"]["all_passed"] is True
    assert len(payload["monotonicity"]["points"]) == 25
    for point in payload["monotonicity"]["points"]:
        assert set(point) == set(thermo._POINT_DTYPE.names)
    assert payload["limits"]["low_ok"] and payload["limits"]["high_ok"]
    assert payload["expansion"]["checked"] is True


def test_thermo_gb2_and_tail(tmp_path):
    assert main(["thermo", "--model", "gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0",
                 "--beta-grid", "1e-6:10:12",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["thermo", "--model", "tail:mu=1.5,c0=1.0",
                 "--beta-grid", "1e-6:10:12",
                 "--out", str(tmp_path / "b.json")]) == 0


def test_thermo_small_nu_gb2(tmp_path):
    # the README gb2 invocation with a head c^(nu - 1) steep enough that
    # it spans thousands of e-folds of c
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", "gb2:mu=2.5,nu=0.01,q=1.0,c1=1.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert all(p["demand"] > 0.0 for p in payload["monotonicity"]["points"])


# models that fixed-beta limit checks got wrong: demand at beta = 1e4/c0
# still far from 0 for large-nu gb2 (D ~ nu / beta), a demand deficit
# O((c0 beta)^(mu_f - 1)) still above 1% at beta = 1e-9/c0 for mu_f near
# 1, and a Z that underflows on the grid
@pytest.mark.parametrize("model,grid", [
    ("gb2:mu=2.5,nu=30,q=1.0,c1=1.0", None),
    ("gb2:mu=2.5,nu=60,q=1.0,c1=1.0", None),
    ("gb2:mu=2.5,nu=100,q=1.0,c1=1.0", None),
    ("gb2:mu=3,nu=2,q=0.1,c1=1.0", None),
    ("tail:mu=1.1,c0=1.0", None),
    ("gb2:mu=1.2,nu=1.0,q=1.0,c1=1.0", None),
    ("gb2:mu=2.5,nu=100,q=1.0,c1=1.0", "1e-3:1e7:3")])
def test_thermo_limits_from_each_models_asymptotes(model, grid, tmp_path):
    out = tmp_path / "t.json"
    argv = ["thermo", "--model", model, "--out", str(out)]
    if grid is not None:
        argv += ["--beta-grid", grid]
    assert main(argv) == 0
    limits = json.loads(out.read_text())["limits"]
    assert limits["low_ok"] and limits["high_ok"]
    assert 0.0 < limits["beta_lo"] < limits["beta_hi"]


@pytest.mark.parametrize("model", ["gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0",
                                   "exponential:mean=1.0",
                                   "tail:mu=1.5,c0=1.0"])
@pytest.mark.parametrize("field,factor,flag", [("mean0", 1.05, "low_ok"),
                                               ("low_exp", 2.0, "high_ok")])
def test_thermo_wrong_limit_constant_exit_four(model, field, factor, flag,
                                               tmp_path, monkeypatch):
    parse = thermo.parse_model

    def wrong(spec):
        m = parse(spec)
        return dataclasses.replace(m, **{field: factor * getattr(m, field)})

    monkeypatch.setattr(thermo, "parse_model", wrong)
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", model, "--out", str(out)]) == 4
    limits = json.loads(out.read_text())["limits"]
    assert limits[flag] is False
    assert limits["high_ok" if flag == "low_ok" else "low_ok"] is True


# one model per branch of thermo.demand_expansion: mu_f > 2 (the README
# gb2 model and the exponential), 1 < mu_f < 2 (the README tail model and
# a gb2) and the mu_f = 2 log branch (tail and gb2)
BRANCH_MODELS = ["gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0", "exponential:mean=1.0",
                 "tail:mu=1.5,c0=1.0", "gb2:mu=1.5,nu=1.0,q=1.0,c1=1.0",
                 "tail:mu=2.0,c0=1.0", "gb2:mu=2.0,nu=1.0,q=1.0,c1=1.0"]


@pytest.mark.parametrize("model", BRANCH_MODELS)
def test_thermo_expansion_error_shrinks_at_predicted_order(model, tmp_path):
    # the README invocation: default grid, three points in the regime
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", model, "--out", str(out)]) == 0
    expansion = json.loads(out.read_text())["expansion"]
    assert expansion["checked"] is True
    points = expansion["points"]
    assert len(points) == 3 and all(p["passed"] for p in points)
    for p in points[1:]:
        assert p["demand_order"] == pytest.approx(p["demand_order_predicted"],
                                                  rel=expansion["order_tolerance"])


@pytest.mark.parametrize("model", BRANCH_MODELS)
def test_thermo_wrong_expansion_coefficient_exit_four(model, tmp_path,
                                                      monkeypatch):
    # halving the deficit coefficient leaves an error that tends to 1/2
    # instead of shrinking toward beta -> 0
    exact = thermo.demand_expansion
    monkeypatch.setattr(thermo, "demand_expansion",
                        lambda m, beta: m.mean0 - 0.5 * (m.mean0 - exact(m, beta)))
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", model, "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    assert payload["monotonicity"]["all_passed"] is True
    assert not all(p["passed"] for p in payload["expansion"]["points"])


def test_thermo_single_regime_point_is_paired(tmp_path):
    # only beta = 1e-3 has c0*beta < 0.01; half of it supplies the order
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", "tail:mu=1.5,c0=1.0",
                 "--beta-grid", "1e-3:1:2", "--out", str(out)]) == 0
    points = json.loads(out.read_text())["expansion"]["points"]
    assert [p["beta"] for p in points] == [5e-4, 1e-3]
    assert points[1]["demand_order"] is not None


def test_thermo_bad_model_exit_one(capsys):
    assert main(["thermo", "--model", "cauchy:mean=1"]) == 1
    assert main(["thermo", "--model", "gb2:mu=2.5"]) == 1
    # keys the kind does not have, and repeated keys, are errors too
    for spec, keys in (("tail:mu=1.5,c0=1.0,c1=7,q=3", "mu, c0"),
                       ("exponential:mean=1.0,mean=5", "mean"),
                       ("gb2:mu=2.5,nu=0.8,q=1.2,c1=2.0,mu=3", "mu, nu, q, c1")):
        assert main(["thermo", "--model", spec]) == 1
        assert f"wants each of {keys} once" in capsys.readouterr().err
    # closed-form constants outside the positive normal floats
    for spec, message in (
            ("exponential:mean=1e-300", "m2 = 0.0 is not a positive normal float"),
            ("exponential:mean=1e300", "m2 overflows a float"),
            ("gb2:mu=2.5,nu=0.8,q=1.2,c1=1e200", "m2 overflows a float"),
            ("gb2:mu=2.5,nu=0.8,q=1e-3,c1=1", "c0 overflows a float")):
        assert main(["thermo", "--model", spec]) == 1
        assert f"bad model spec {spec!r}: {message}" in capsys.readouterr().err
    assert main(["thermo", "--model", "exponential:mean=1",
                 "--beta-grid", "banana"]) == 1
    for grid in ("1e-3:inf:5", "1e-3:1e400:5"):
        assert main(["thermo", "--model", "exponential:mean=1.0",
                     "--beta-grid", grid]) == 1
        assert "--beta-grid wants finite" in capsys.readouterr().err


# the monotonicity floors scale with what they bound, so models far from
# unit scale pass; a model whose beta_lo is below the normal floats exits 1
@pytest.mark.parametrize("model,code,message", [
    ("exponential:mean=1e-5", 0, ""),
    ("tail:mu=1.5,c0=1e-100", 0, ""),
    ("gb2:mu=1.5,nu=1.0,q=1.0,c1=1e-100", 0, ""),
    ("tail:mu=1.5,c0=1e300", 1, "beta_lo = 1e-309 is not a positive normal float"),
    # beta_lo = 1e-307 is normal, but the moments there pass the largest float
    ("tail:mu=1.5,c0=1e298", 1,
     "prodstat: thermal moments at beta = 1.0000000000000001e-307 overflow a float\n")])
def test_thermo_models_far_from_unit_scale(model, code, message, tmp_path,
                                           capsys):
    out = tmp_path / "t.json"
    assert main(["thermo", "--model", model, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    if code == 0:
        assert json.loads(out.read_text())["monotonicity"]["all_passed"]


# deficits at or below their quadrature noise, of either sign or zero,
# give a null error and no order: correct models at far scales and on a
# grid where D and Z round to their beta = 0 values pass
@pytest.mark.parametrize("model,grid", [
    ("exponential:mean=1e-100", None),
    ("tail:mu=1.5,c0=1e-300", None),
    ("exponential:mean=1", "1e-300:1e-299:2")])
def test_thermo_expansion_noise_level_deficits(model, grid, tmp_path):
    out = tmp_path / "t.json"
    argv = ["thermo", "--model", model, "--out", str(out)]
    if grid is not None:
        argv += ["--beta-grid", grid]
    assert main(argv) == 0
    points = json.loads(out.read_text())["expansion"]["points"]
    assert points and all(p["passed"] for p in points)
    nulls = 0
    for p, prev in zip(points[1:], points):
        for name in ("demand", "partition"):
            if p[f"{name}_deficit_rel_err"] is None:
                nulls += 1
            if None in (p[f"{name}_deficit_rel_err"],
                        prev[f"{name}_deficit_rel_err"]):
                assert p[f"{name}_order"] is None
    assert nulls > 0


def test_thermo_overflowing_moments_exit_one(capsys):
    # <c^2> of this tail passes the largest float at every grid point: one
    # error line names the first beta, with no warning and no traceback
    assert main(["thermo", "--model", "tail:mu=1.9,c0=1e170",
                 "--beta-grid", "1e-180:1e-175:5"]) == 1
    assert capsys.readouterr().err == (
        "prodstat: thermal moments at beta = 1e-180 overflow a float\n")


# not an integer, and integers that datetime cannot hold (the last one
# also overflows a C time_t)
@pytest.mark.parametrize("epoch", ["abc", "1e9", "-99999999999999",
                                   "99999999999999999999"])
def test_thermo_bad_source_date_epoch_exit_one(epoch, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "thermo.json"
    assert main(["thermo", "--model", "exponential:mean=1.0",
                 "--beta-grid", "1e-4:1e2:3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "prodstat: SOURCE_DATE_EPOCH must be an integer count of seconds "
        f"a date can hold, got {epoch!r}\n")
    assert not out.exists()


def test_thermo_subnormal_grid_beta_exit_one(capsys):
    assert main(["thermo", "--model", "exponential:mean=1.0",
                 "--beta-grid", "5e-324:1e-300:3"]) == 1
    assert capsys.readouterr().err == (
        "prodstat: beta_grid point 5e-324 is not a normal float\n")


def test_readme_prodstat_invocations_pass(tmp_path, monkeypatch):
    # every prodstat line of the README's sh blocks, continuations joined,
    # run where panel.csv and the README's scenario block are at hand
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("prodstat ")]
    assert len(lines) == 7
    write_panel(tmp_path / "panel.csv", n_firms=1500, mu=2.2, nu=2.0,
                weight_exp=-0.5, seed=21, years=range(1999, 2006))
    scenario = re.search(r"```\n(n_firms = .*?)```", readme, re.S).group(1)
    (tmp_path / "scenario.txt").write_text(scenario)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        if argv[0] == "thermo":
            report = Path(argv[argv.index("--out") + 1])
        elif argv[0] == "simulate":
            report = Path(argv[argv.index("--out-dir") + 1]) / "report.json"
        else:
            continue
        assert json.loads(report.read_text())["passed"] is True, line


def test_readme_python_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    # the second block reads panel.csv from the working directory
    write_panel(tmp_path / "panel.csv", n_firms=1500, mu=2.2, nu=2.0,
                weight_exp=-0.5, seed=21, years=(1999, 2000))
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_thermo_model_help_lists_each_kind(capsys):
    with pytest.raises(SystemExit):
        main(["thermo", "--help"])
    help_text = capsys.readouterr().out
    for spec in ("exponential:mean=V", "gb2:mu=V,nu=V,q=V,c1=V",
                 "tail:mu=V,c0=V"):
        assert spec in help_text


def test_ranksize_points(super_panel, tmp_path):
    out_tsv = tmp_path / "rs.tsv"
    code = main(["ranksize", "--input", super_panel, "--year", "2000",
                 "--class", "M", "--target", "firms",
                 "--out-tsv", str(out_tsv)])
    assert code == 0
    lines = out_tsv.read_text().splitlines()
    assert lines[1] == "c\trank_fraction"
    body = [ln.split("\t") for ln in lines[2:]]
    cs = [float(r[0]) for r in body]
    fr = [float(r[1]) for r in body]
    assert cs == sorted(cs, reverse=True)
    assert fr[-1] == pytest.approx(1.0)
    assert len(body) == 1500


def test_ranksize_with_fit(super_panel, tmp_path):
    out_tsv = tmp_path / "rs.tsv"
    fit_tsv = tmp_path / "rs_fit.tsv"
    code = main(["ranksize", "--input", super_panel, "--year", "2000",
                 "--class", "M", "--target", "workers", "--fit",
                 "--out-tsv", str(out_tsv), "--fit-out", str(fit_tsv)])
    assert code == 0
    lines = fit_tsv.read_text().splitlines()
    assert lines[1] == "c\tccdf"
    assert len(lines) == 2 + 200
    ccdfs = [float(ln.split("\t")[1]) for ln in lines[2:]]
    assert all(b <= a for a, b in zip(ccdfs, ccdfs[1:]))


def test_ranksize_fit_curve_not_converging_exits_one(super_panel, tmp_path,
                                                    monkeypatch, capsys):
    # shapes mu/q = nu/q = 1e12 with c1 at the smallest c put the curve's
    # first point at z = 1/2, where the continued fraction of I_z(s, t)
    # does not converge: one error line, no traceback
    fit_mle = gb2.fit_mle

    def extreme_fit(c, weights):
        return dataclasses.replace(
            fit_mle(c, weights),
            params=gb2.Gb2Params(1e12, 1e12, 1.0, float(np.min(c))))

    monkeypatch.setattr(gb2, "fit_mle", extreme_fit)
    code = main(["ranksize", "--input", super_panel, "--year", "2000",
                 "--class", "M", "--target", "workers", "--fit",
                 "--out-tsv", str(tmp_path / "rs.tsv"),
                 "--fit-out", str(tmp_path / "rs_fit.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("prodstat: I_z(s, t) did not converge at z=")
    assert err.count("\n") == 1


def test_ranksize_small_slice_skips_fit(tmp_path, capsys):
    # two firms, one year: points still written, no fit attempted
    path = tmp_path / "tiny.csv"
    path.write_text(
        "firm_id,year,sector_code,sector_class,value_added,workers_eoy\n"
        "A,1999,1,M,10.0,2\nA,2000,1,M,12.0,2\n"
        "B,1999,1,M,20.0,2\nB,2000,1,M,24.0,2\n")
    out_tsv = tmp_path / "rs.tsv"
    code = main(["ranksize", "--input", str(path), "--year", "2000",
                 "--class", "M", "--target", "firms", "--fit",
                 "--out-tsv", str(out_tsv),
                 "--fit-out", str(tmp_path / "rf.tsv")])
    assert code == 0
    assert len(out_tsv.read_text().splitlines()) == 4
    assert not (tmp_path / "rf.tsv").exists()
    assert "skipping" in capsys.readouterr().err


def test_byte_identical_reruns(super_panel, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["fit", "--input", super_panel, "--year", "2000",
                     "--class", "M", "--target", "firms",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    s = _scenario(tmp_path, n_epochs=20)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        main(["simulate", "--scenario", s, "--out-dir", str(d)])
    for name in ("firms.tsv", "diagnostics.json", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_tsv_cells_match_the_per_cell_rule(tmp_path):
    # each cell is the str of the column's JSON value, nan where the
    # JSON has null: float repr, int and str as written
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e22, 0.1])
    columns = {"f": floats, "i": np.arange(-3, 5, dtype=np.int64),
               "r": range(8), "mixed": [None, "a b", -7, 2.5, math.inf,
                                        math.nan, 10 ** 20, "nan"]}
    path = tmp_path / "t.tsv"
    cli._write_tsv(str(path), {"command": "test"}, columns)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "f\ti\tr\tmixed"
    assert [line.split("\t") for line in lines[2:]] == [
        ["nan", "-3", "0", "nan"],
        ["nan", "-2", "1", "a b"],
        ["nan", "-1", "2", "-7"],
        ["-0.0", "0", "3", "2.5"],
        ["5e-324", "1", "4", "nan"],
        ["1e+16", "2", "5", "nan"],
        ["1e+22", "3", "6", "100000000000000000000"],
        ["0.1", "4", "7", "nan"]]


def test_json_safe_structured_array_matches_row_dicts():
    points = np.zeros(4, dtype=[("x", np.float64), ("n", np.int64), ("ok", bool)])
    points["x"] = [1.5, np.nan, np.inf, -np.inf]
    points["n"] = [1, -2, 3, 2 ** 40]
    points["ok"] = [True, False, True, False]
    rows = [{name: (None if isinstance(v, float) and not math.isfinite(v) else v)
             for name, v in zip(points.dtype.names, row)} for row in points.tolist()]
    got = cli._json_safe(points)
    assert got == rows
    assert got[1]["x"] is None and got[3]["n"] == 2 ** 40
    assert [type(r["ok"]) for r in got] == [bool] * 4
    assert json.loads(json.dumps(got)) == rows


def test_json_safe_converts_every_numpy_scalar():
    payload = {"b": np.bool_(True), "s": np.str_("M"), "i": np.int32(-4),
               "f": np.float32(0.5), "nan": np.float64("nan"), "u": np.uint8(7)}
    got = cli._json_safe(payload)
    assert got == {"b": True, "s": "M", "i": -4, "f": 0.5, "nan": None, "u": 7}
    assert [type(got[k]) for k in ("b", "s", "i", "f", "u")] == [
        bool, str, int, float, int]
    assert json.loads(json.dumps(got)) == got
