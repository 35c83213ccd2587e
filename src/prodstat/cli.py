"""Batch command-line front end.

Subcommands
-----------
fit       GB2 MLE on one (year, sector class) slice of a panel CSV
index     per-year firm/worker fits -> gamma, delta, kappa series
simulate  run a scenario file, write outputs, check the tail relation
thermo    partition-function checks for a model spec
ranksize  empirical rank-size points, optionally with a fitted curve

Every output embeds a run manifest (command, input paths, filter
config, seed, tool version, timestamp).  JSON outputs write result
dataclasses as they are: the ``fit`` object carries every field of
gb2.FitResult, ``report.json`` every field of
simulate.TailRelationReport, and the monotonicity points every field
of thermo.MonotonicityPoint, each under its own name.  Timestamps honor
SOURCE_DATE_EPOCH so runs can be made byte-reproducible; PRODSTAT_SEED
supplies a default seed to scenarios that omit one.

Exit codes: 0 ok; 1 usage or input error; 2 insufficient data;
3 fit did not converge (result still written); 4 a check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, gb2, ingest, simulate, thermo
from .errors import (EmptyYear, InsufficientData, SchemaError,
                     TooManyBadRows, WindowError)
from .superstat import ParetoIndices, Regime, kappa_from_mus

_ENV_SEED = "PRODSTAT_SEED"
_ORDER_TOL = 0.5       # allowed |observed / predicted - 1| expansion error order
# D/mean0 and Z noise bound: 1000x the quadrature target, 1e-9
_ORDER_FLOOR = 1e3 * thermo.QUAD_EPSREL


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse default exits with 2
        raise _UsageError(message)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: tuple[str, ...]
    filters: dict
    seed: int | None
    tool_version: str
    timestamp: str


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


def _panel_manifest(command: str, args, **slice_filters) -> RunManifest:
    """Manifest of a panel subcommand: its CSV, sample filters and slice."""
    return _manifest(command, inputs=[args.input],
                     filters={"min_workers": args.min_workers,
                              "max_productivity": args.max_productivity,
                              "class": args.klass, **slice_filters})


def _json_safe(obj):
    """Recursively convert to JSON-clean values (dataclass -> dict of its
    fields, NaN -> null, numpy -> python)."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
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
    lines = ["# manifest: " + json.dumps(_json_safe(manifest), sort_keys=True)]
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


# ---------------------------------------------------------------------------
# slicing helpers


def _filters_from_args(args) -> ingest.FilterConfig:
    return ingest.FilterConfig(min_workers=args.min_workers,
                               max_productivity=args.max_productivity)


def _load_build(args):
    filters = _filters_from_args(args)
    load = ingest.load_csv(args.input)
    return load, ingest.build_samples(load.records, filters)


def _slice_samples(samples: np.ndarray, year: int, class_flag: str) -> np.ndarray:
    mask = samples["year"] == year
    if class_flag != "all":
        mask &= samples["sector_class"] == class_flag
    return samples[mask]


def _pairs(samples: np.ndarray, target: str) -> np.ndarray:
    weights = (np.ones(len(samples)) if target == "firms"
               else samples["weight_workers"])
    return np.column_stack((samples["c"], weights))


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
    manifest = _panel_manifest("fit", args, year=args.year,
                               target=args.target)
    result = gb2.fit_mle(_pairs(samples, args.target))
    payload = {"manifest": manifest, "fit": result,
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
# gb2.FitResult fields an index entry carries as firm_<f> and worker_<f>
_INDEX_FIT_FIELDS = ("converged", "n_evaluations", "bootstrap_converged",
                     "mu_stderr_hessian")


def _cmd_index(args) -> int:
    years = _parse_years(args.years)
    load, build = _load_build(args)
    manifest = _panel_manifest("index", args, years=args.years)
    series = []
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
            year=year, sector_class=ingest.CLASS_BY_CODE[args.klass])
        point = kappa_from_mus(indices)
        entry = {"year": year,
                 "mu_f": indices.mu_f, "mu_f_stderr": indices.mu_f_stderr,
                 "mu_w": indices.mu_w, "mu_w_stderr": indices.mu_w_stderr,
                 "gamma": point.gamma, "delta": point.delta,
                 "kappa": point.kappa, "kappa_stderr": point.kappa_stderr,
                 "regime": point.regime.value}
        for side, fr in (("firm", firm_fit), ("worker", worker_fit)):
            entry.update((f"{side}_{name}", getattr(fr, name))
                         for name in _INDEX_FIT_FIELDS)
        if point.regime is Regime.NEGATIVE_TEMPERATURE:
            entry["warning"] = ("negative-temperature regime: mu_f >= mu_w, "
                                "kappa undefined")
        series.append(entry)
    _write_json(args.out_json, {"manifest": manifest, "series": series})
    rows = [[e[col] for col in _INDEX_COLUMNS]
            for e in series if "error" not in e]
    if args.out_tsv:
        _write_tsv(args.out_tsv, manifest, _INDEX_COLUMNS, rows)
    if not rows:
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
    diag = {"manifest": manifest,
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
        _write_json(report_path, {"manifest": manifest,
                                  "window_error": str(exc),
                                  "passed": False})
        print(f"simulate: {exc}", file=sys.stderr)
        return 4
    _write_json(report_path, {"manifest": manifest, **vars(report)})
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
    if not (0.0 < lo < hi < math.inf and n >= 2):
        raise _UsageError(
            f"--beta-grid wants finite 0 < lo < hi and n >= 2, got {spec!r}")
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
    payload = {"manifest": manifest,
               "model": {"mu_f": model.mu_f, "c0": model.c0,
                         "mean0": model.mean0, "m2": model.m2},
               "monotonicity": mono,
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
    if not len(samples):
        raise EmptyYear(f"no samples for year {args.year} class {args.klass}")
    manifest = _panel_manifest("ranksize", args, year=args.year,
                               target=args.target)
    c_desc, frac = ingest.ranksize(
        samples["c"],
        samples["weight_workers"] if args.target == "workers" else None)
    _write_tsv(args.out_tsv, manifest, ["c", "rank_fraction"],
               zip(c_desc.tolist(), frac.tolist()))

    if args.fit:
        try:
            result = gb2.fit_mle(_pairs(samples, args.target))
        except InsufficientData as exc:
            print(f"ranksize: {exc}; skipping the fitted curve",
                  file=sys.stderr)
            return 0
        cs = np.geomspace(c_desc[-1], c_desc[0], 200)
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


# the errors main reports as a one-line message, and their exit codes
_EXIT_CODES = {_UsageError: 1, SchemaError: 1, TooManyBadRows: 1,
               ValueError: 1, OSError: 1, EmptyYear: 2, InsufficientData: 2}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"prodstat: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
