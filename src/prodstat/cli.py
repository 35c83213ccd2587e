"""Batch command-line front end.

Subcommands
-----------
fit       GB2 MLE on one (year, sector class) slice of a panel CSV
index     per-year firm/worker fits -> gamma, delta, kappa series
simulate  run a scenario file, write outputs, check the tail relation
thermo    partition-function checks for a model spec
ranksize  empirical rank-size points, optionally with a fitted curve

Every output embeds a run manifest (command, input paths, filter
config, seed, tool version, timestamp).  Timestamps honor
SOURCE_DATE_EPOCH so runs can be made byte-reproducible; PRODSTAT_SEED
supplies a default seed to scenarios that omit one.

Exit codes: 0 ok; 1 usage or input error; 2 insufficient data;
3 fit did not converge (result still written); 4 a check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, gb2, ingest, simulate, thermo
from .errors import (EmptyYear, InsufficientData, SchemaError,
                     TooManyBadRows, WindowError)
from .superstat import ParetoIndices, Regime, SectorClass, kappa_from_mus

_ENV_SEED = "PRODSTAT_SEED"
_ORDER_TOL = 0.5       # allowed |observed / predicted - 1| expansion error order
_ORDER_FLOOR = 1e-9    # D/mean0 and Z noise bound: 1000x the quadrature target
_CLASS_FLAGS = {"M": SectorClass.MANUFACTURING,
                "N": SectorClass.NONMANUFACTURING}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse default exits with 2
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: tuple[str, ...]
    filters: dict
    seed: int | None
    tool_version: str
    timestamp: str

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": list(self.inputs),
                "filters": self.filters, "seed": self.seed,
                "tool_version": self.tool_version,
                "timestamp": self.timestamp}


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        dt = datetime.datetime.now(datetime.timezone.utc)
    return dt.isoformat()


def _manifest(command: str, inputs=(), filters=None, seed=None) -> RunManifest:
    return RunManifest(command=command, inputs=tuple(str(p) for p in inputs),
                       filters=filters or {}, seed=seed,
                       tool_version=__version__, timestamp=_timestamp())


def _json_safe(obj):
    """Recursively convert to JSON-clean values (NaN -> null, numpy -> python)."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_tsv(path: str, manifest: RunManifest, header: list[str],
               rows) -> None:
    lines = ["# manifest: " + json.dumps(_json_safe(manifest.to_dict()),
                                         sort_keys=True)]
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(_fmt_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fit_result_dict(fr: gb2.FitResult) -> dict:
    return {"params": {"mu": fr.params.mu, "nu": fr.params.nu,
                       "q": fr.params.q, "c1": fr.params.c1},
            "log_likelihood": fr.log_likelihood, "n_obs": fr.n_obs,
            "mu_stderr": fr.mu_stderr, "converged": fr.converged,
            "n_iterations": fr.n_iterations,
            "n_evaluations": fr.n_evaluations,
            "bootstrap_converged": fr.bootstrap_converged,
            "mu_stderr_hessian": fr.mu_stderr_hessian}


# ---------------------------------------------------------------------------
# slicing helpers


def _filters_from_args(args) -> ingest.FilterConfig:
    return ingest.FilterConfig(min_workers=args.min_workers,
                               max_productivity=args.max_productivity)


def _load_build(args):
    load = ingest.load_csv(args.input)
    build = ingest.build_samples(load.records, _filters_from_args(args))
    return load, build


def _slice_samples(samples, year: int, class_flag: str):
    if class_flag == "all":
        keep = lambda s: s.year == year
    else:
        cls = _CLASS_FLAGS[class_flag]
        keep = lambda s: s.year == year and s.sector_class is cls
    return [s for s in samples if keep(s)]


def _pairs(samples, target: str) -> np.ndarray:
    if target == "firms":
        rows = [(s.c, 1.0) for s in samples]
    else:
        rows = [(s.c, s.weight_workers) for s in samples]
    # keep the (n, 2) shape when the slice is empty so the fit can
    # report insufficient data instead of a shape error
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _exclusion_summary(load, build) -> dict:
    counts = dict(build.counts)
    for e in load.exclusions:
        counts[e.reason] = counts.get(e.reason, 0) + 1
    return {"counts": counts,
            "malformed_rows": len(load.errors),
            "top_productivities": list(build.top_productivities)}


# ---------------------------------------------------------------------------
# fit


def _cmd_fit(args) -> int:
    load, build = _load_build(args)
    samples = _slice_samples(build.samples, args.year, args.klass)
    manifest = _manifest(
        "fit", inputs=[args.input],
        filters={"min_workers": args.min_workers,
                 "max_productivity": args.max_productivity,
                 "year": args.year, "class": args.klass,
                 "target": args.target})
    result = gb2.fit_mle(_pairs(samples, args.target))
    payload = {"manifest": manifest.to_dict(),
               "fit": _fit_result_dict(result),
               "n_samples_in_slice": len(samples),
               "exclusions": _exclusion_summary(load, build)}
    _write_json(args.out, payload)
    return 0 if result.converged else 3


# ---------------------------------------------------------------------------
# index


def _parse_years(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise _UsageError(f"--years wants Y1..Y2, got {spec!r}")
    try:
        y1, y2 = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"--years wants integers, got {spec!r}") from None
    if y2 < y1:
        raise _UsageError(f"empty year range {spec!r}")
    return range(y1, y2 + 1)


_INDEX_COLUMNS = ["year", "mu_f", "mu_f_stderr", "mu_w", "mu_w_stderr",
                  "gamma", "delta", "kappa", "kappa_stderr", "regime"]


def _cmd_index(args) -> int:
    years = _parse_years(args.years)
    load, build = _load_build(args)
    manifest = _manifest(
        "index", inputs=[args.input],
        filters={"min_workers": args.min_workers,
                 "max_productivity": args.max_productivity,
                 "years": args.years, "class": args.klass})
    series = []
    rows = []
    n_ok = 0
    for year in years:
        samples = _slice_samples(build.samples, year, args.klass)
        try:
            firm_fit = gb2.fit_mle(_pairs(samples, "firms"))
            worker_fit = gb2.fit_mle(_pairs(samples, "workers"))
        except InsufficientData as exc:
            series.append({"year": year, "error": str(exc)})
            continue
        indices = ParetoIndices(
            mu_f=firm_fit.params.mu, mu_w=worker_fit.params.mu,
            mu_f_stderr=firm_fit.mu_stderr, mu_w_stderr=worker_fit.mu_stderr,
            year=year, sector_class=_CLASS_FLAGS[args.klass])
        point = kappa_from_mus(indices)
        entry = {"year": year,
                 "mu_f": indices.mu_f, "mu_f_stderr": indices.mu_f_stderr,
                 "mu_w": indices.mu_w, "mu_w_stderr": indices.mu_w_stderr,
                 "gamma": point.gamma, "delta": point.delta,
                 "kappa": point.kappa, "kappa_stderr": point.kappa_stderr,
                 "regime": point.regime.value,
                 "firm_converged": firm_fit.converged,
                 "worker_converged": worker_fit.converged}
        for side, fr in (("firm", firm_fit), ("worker", worker_fit)):
            entry[f"{side}_n_evaluations"] = fr.n_evaluations
            entry[f"{side}_bootstrap_converged"] = fr.bootstrap_converged
            entry[f"{side}_mu_stderr_hessian"] = fr.mu_stderr_hessian
        if point.regime is Regime.NEGATIVE_TEMPERATURE:
            entry["warning"] = ("negative-temperature regime: mu_f >= mu_w, "
                                "kappa undefined")
        series.append(entry)
        rows.append([year, indices.mu_f, indices.mu_f_stderr, indices.mu_w,
                     indices.mu_w_stderr, point.gamma, point.delta,
                     point.kappa, point.kappa_stderr, point.regime.value])
        n_ok += 1
    payload = {"manifest": manifest.to_dict(), "series": series}
    _write_json(args.out_json, payload)
    if args.out_tsv:
        _write_tsv(args.out_tsv, manifest, _INDEX_COLUMNS, rows)
    if n_ok == 0:
        print("index: no year produced a fit", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    values = simulate.parse_scenario(args.scenario)
    env_seed = os.environ.get(_ENV_SEED)
    default_seed = int(env_seed) if env_seed is not None else None
    cfg = simulate.scenario_config(values, default_seed=default_seed)
    manifest = _manifest("simulate", inputs=[args.scenario],
                         filters={}, seed=cfg.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    out = simulate.run_sim(cfg)
    _write_tsv(os.path.join(args.out_dir, "firms.tsv"), manifest,
               ["firm_id", "c_k", "n_k"],
               ((i, float(c), int(n)) for i, (c, n) in enumerate(
                   zip(out.firm_productivities, out.worker_counts))))
    diag = {"manifest": manifest.to_dict(),
            "total_workers": out.diagnostics.total_workers,
            "n_epochs": cfg.n_epochs,
            "epochs": [{"beta": float(b), "demand": float(d)}
                       for b, d in zip(out.realized_betas,
                                       out.diagnostics.epoch_demand)]}
    _write_json(os.path.join(args.out_dir, "diagnostics.json"), diag)

    if not values.get("verify", True):
        return 0

    w = cfg.beta_weight
    window = (values.get("fit_window_lo", 10.0 / w.beta_max * 1.001),
              values.get("fit_window_hi", 0.1 / w.beta_min * 0.999))
    tolerance = values.get("tolerance", 0.15)
    report_path = os.path.join(args.out_dir, "report.json")
    try:
        if not window[0] < window[1]:
            raise WindowError(
                f"empty scaling window: c_lo={window[0]:.4g} >= "
                f"c_hi={window[1]:.4g}")
        report = simulate.verify_tail_relation(cfg, window,
                                               tolerance=tolerance, sim=out)
    except WindowError as exc:
        _write_json(report_path, {"manifest": manifest.to_dict(),
                                  "window_error": str(exc),
                                  "passed": False})
        print(f"simulate: {exc}", file=sys.stderr)
        return 4
    payload = {"manifest": manifest.to_dict(),
               "gamma": report.gamma,
               "mu_f_measured": report.mu_f_measured,
               "mu_f_stderr": report.mu_f_stderr,
               "mu_w_measured": report.mu_w_measured,
               "mu_w_stderr": report.mu_w_stderr,
               "mu_w_predicted": report.mu_w_predicted,
               "tolerance": report.tolerance,
               "window": list(report.window),
               "window_slope": report.window_slope,
               "firm_fit": _fit_result_dict(report.firm_fit),
               "worker_fit": _fit_result_dict(report.worker_fit),
               "passed": report.passed}
    _write_json(report_path, payload)
    return 0 if report.passed else 4


# ---------------------------------------------------------------------------
# thermo


def _parse_model(spec: str) -> thermo.ThermoModel:
    kind, _, rest = spec.partition(":")
    try:
        kv = {}
        for item in rest.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            kv[key.strip()] = float(val)
        if kind == "exponential":
            return thermo.ThermoModel.exponential(kv["mean"])
        if kind == "gb2":
            return thermo.ThermoModel.from_gb2(
                gb2.Gb2Params(kv["mu"], kv["nu"], kv["q"], kv["c1"]))
        if kind == "tail":
            return thermo.ThermoModel.tabulated_tail(kv["mu"], kv["c0"])
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"bad model spec {spec!r}: {exc}") from None
    raise _UsageError(
        f"unknown model kind {kind!r} (want exponential, gb2, or tail)")


def _parse_beta_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise _UsageError(f"--beta-grid wants lo:hi:n, got {spec!r}") from None
    if not (0.0 < lo < hi and n >= 2):
        raise _UsageError(f"--beta-grid wants 0 < lo < hi and n >= 2, got {spec!r}")
    return np.geomspace(lo, hi, n)


def _deficit_errors(model: thermo.ThermoModel, beta: float):
    """Relative errors of the expansions' demand deficit mean0 - D and
    partition deficit 1 - Z at beta, and for each the error below which
    quadrature noise in the deficit dominates it."""
    d_def = model.mean0 - thermo.demand(model, beta)
    z_def = 1.0 - thermo.partition(model, beta)
    errs = (abs((model.mean0 - thermo.demand_expansion(model, beta)) / d_def - 1.0),
            abs((1.0 - thermo.partition_expansion(model, beta)) / z_def - 1.0))
    return errs, (_ORDER_FLOOR * model.mean0 / d_def, _ORDER_FLOOR / z_def)


def _check_expansion(model: thermo.ThermoModel, grid: np.ndarray) -> dict:
    """Check the small-beta expansions at up to three grid points with
    c0*beta < 0.01: over each step from the previous point, the observed
    log-log slope of each relative deficit error must be within a
    fraction _ORDER_TOL of the order thermo.expansion_error_orders
    predicts.  A wrong expansion coefficient leaves an error that does
    not shrink.  One point in the regime is paired with half its beta."""
    small = [float(b) for b in grid if model.c0 * b < 0.01][:3]
    if not small:
        return {"checked": False}
    if len(small) == 1:
        small.insert(0, 0.5 * small[0])
    points = []
    prev = None
    for beta in small:
        errs, floors = _deficit_errors(model, beta)
        point = {"beta": beta, "demand_deficit_rel_err": errs[0],
                 "partition_deficit_rel_err": errs[1], "passed": True}
        if prev is not None:
            p_beta, p_errs, p_floors = prev
            predicted = thermo.expansion_error_orders(
                model, model.c0 * math.sqrt(p_beta * beta))
            for i, name in enumerate(("demand", "partition")):
                order = None
                if errs[i] > floors[i] and p_errs[i] > p_floors[i]:
                    order = math.log(errs[i] / p_errs[i]) / math.log(beta / p_beta)
                    point["passed"] &= abs(order / predicted[i] - 1.0) <= _ORDER_TOL
                point[f"{name}_order"] = order
                point[f"{name}_order_predicted"] = predicted[i]
        points.append(point)
        prev = (beta, errs, floors)
    return {"checked": True, "order_tolerance": _ORDER_TOL, "points": points}


def _cmd_thermo(args) -> int:
    model = _parse_model(args.model)
    grid = _parse_beta_grid(args.beta_grid)
    manifest = _manifest("thermo", inputs=[],
                         filters={"model": args.model,
                                  "beta_grid": args.beta_grid})

    mono = thermo.check_monotonicity(model, grid)

    beta_lo = 1e-9 / model.c0
    beta_hi = 1e4 / model.c0
    d_lo = thermo.demand(model, beta_lo)
    d_hi = thermo.demand(model, beta_hi)
    low_ok = abs(d_lo / model.mean0 - 1.0) <= 1e-2
    if isinstance(model.firm_pdf, thermo.TabulatedTailPdf):
        # support floor at c0: infinite-beta demand approaches c0, not 0
        high_ok = d_hi <= model.c0 * 1.01
    else:
        high_ok = d_hi < 1e-3 * model.mean0

    expansion = _check_expansion(model, grid)
    exp_ok = all(p["passed"] for p in expansion.get("points", ()))

    passed = bool(mono.all_passed and low_ok and high_ok and exp_ok)
    payload = {"manifest": manifest.to_dict(),
               "model": {"mu_f": model.mu_f, "c0": model.c0,
                         "mean0": model.mean0, "m2": model.m2},
               "monotonicity": {
                   "all_passed": mono.all_passed,
                   "points": [{"beta": p.beta, "demand": p.demand,
                               "dd_dt_fd": p.dd_dt_fd,
                               "dd_dt_var": p.dd_dt_var,
                               "rel_diff": p.rel_diff, "passed": p.passed}
                              for p in mono.points]},
               "limits": {"demand_at_beta_lo": d_lo,
                          "demand_at_beta_hi": d_hi,
                          "low_ok": low_ok, "high_ok": high_ok},
               "expansion": expansion,
               "passed": passed}
    _write_json(args.out, payload)
    return 0 if passed else 4


# ---------------------------------------------------------------------------
# ranksize


def _cmd_ranksize(args) -> int:
    load, build = _load_build(args)
    samples = _slice_samples(build.samples, args.year, args.klass)
    if not samples:
        raise EmptyYear(f"no samples for year {args.year} class {args.klass}")
    manifest = _manifest(
        "ranksize", inputs=[args.input],
        filters={"min_workers": args.min_workers,
                 "max_productivity": args.max_productivity,
                 "year": args.year, "class": args.klass,
                 "target": args.target})
    points = ingest.ranksize(samples, weighted=(args.target == "workers"))
    _write_tsv(args.out_tsv, manifest, ["c", "rank_fraction"], points)

    if args.fit:
        pairs = _pairs(samples, args.target)
        if len(pairs) < 100:
            print(f"ranksize: {len(pairs)} samples is below the fit "
                  "threshold; skipping the fitted curve", file=sys.stderr)
            return 0
        result = gb2.fit_mle(pairs)
        cs = np.geomspace(min(s.c for s in samples),
                          max(s.c for s in samples), 200)
        curve = [(float(c), gb2.ccdf(result.params, float(c))) for c in cs]
        _write_tsv(args.fit_out, manifest, ["c", "ccdf"], curve)
        return 0 if result.converged else 3
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_panel_args(p: argparse.ArgumentParser, with_target: bool,
                    class_choices) -> None:
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--class", dest="klass", required=True,
                   choices=class_choices, help="sector class slice")
    p.add_argument("--min-workers", type=float, default=1.0,
                   help="drop samples with averaged workforce below this")
    p.add_argument("--max-productivity", type=float, default=None,
                   help="drop samples with productivity above this cap")
    if with_target:
        p.add_argument("--target", required=True, choices=("firms", "workers"),
                       help="unweighted firm fit or worker-weighted fit")


def build_parser() -> _Parser:
    parser = _Parser(prog="prodstat",
                     description="heavy-tail productivity toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fit", help="GB2 MLE on a panel slice")
    _add_panel_args(p, with_target=True, class_choices=("M", "N", "all"))
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("index", help="per-year demand-index series")
    _add_panel_args(p, with_target=False, class_choices=("M", "N"))
    p.add_argument("--years", required=True, help="inclusive range Y1..Y2")
    p.add_argument("--out-json", default=None, help="JSON path (default stdout)")
    p.add_argument("--out-tsv", default=None, help="optional TSV path")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("thermo", help="partition-function checks")
    p.add_argument("--model", required=True,
                   help="exponential:mean=V | gb2:mu=V,nu=V,q=V,c1=V | "
                        "tail:mu=V,c0=V")
    p.add_argument("--beta-grid", default="1e-3:1e3:50",
                   help="log-spaced grid lo:hi:n")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("ranksize", help="rank-size plot data")
    _add_panel_args(p, with_target=True, class_choices=("M", "N", "all"))
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--fit", action="store_true",
                   help="also fit GB2 and write the model curve")
    p.add_argument("--out-tsv", required=True, help="points TSV path")
    p.add_argument("--fit-out", default="ranksize_fit.tsv",
                   help="fitted-curve TSV path (with --fit)")
    p.set_defaults(func=_cmd_ranksize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, TooManyBadRows) as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 1
    except (EmptyYear, InsufficientData) as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
