"""Batch command-line front end.

Subcommands
-----------
fit       GB2 MLE on one (year, sector class) slice of a panel CSV
index     per-year firm/worker fits -> gamma, delta, kappa series
simulate  run a scenario file, write outputs, check the tail relation
thermo    partition-function checks for a model spec
ranksize  empirical rank-size points, optionally with a fitted curve

A subcommand writes what the library returns; every check and pass rule
is the library's (simulate.check_window, thermo.check_model, ...), and
so are the scenario file and model spec grammars
(simulate.parse_scenario, thermo.parse_model).
Every output embeds a run manifest, the dict of command, input paths,
filter config, seed, tool version and timestamp.  JSON outputs write
result dataclasses as they are: the ``fit`` object carries every field
of gb2.FitResult and ``report.json`` every field of
simulate.TailRelationReport, each under its own name, and the
monotonicity points, one structured array, are one object per row
keyed by its field names and built field by field.  TSV outputs are
written from whole columns, one per header name, each column turned
into its cells at once: a float array's by float.__repr__, nan where
not finite, any other's by _fmt_cell.  Timestamps honor
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
from collections import Counter

import numpy as np

from . import __version__, gb2, ingest, simulate, thermo
from .errors import (EmptyYear, InsufficientData, SchemaError,
                     TooManyBadRows, WindowError)
from .superstat import ParetoIndices, Regime, kappa_from_mus

_ENV_SEED = "PRODSTAT_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse default exits with 2
        raise _UsageError(message)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        dt = datetime.datetime.now(datetime.timezone.utc)
    return dt.isoformat()


def _manifest(command: str, inputs=(), filters=None, seed=None) -> dict:
    return {"command": command, "inputs": [str(p) for p in inputs],
            "filters": filters or {}, "seed": seed,
            "tool_version": __version__, "timestamp": _timestamp()}


def _panel_manifest(command: str, args, **slice_filters) -> dict:
    """Manifest of a panel subcommand: its CSV, sample filters and slice."""
    return _manifest(command, inputs=[args.input],
                     filters={"min_workers": args.min_workers,
                              "max_productivity": args.max_productivity,
                              "class": args.klass, **slice_filters})


def _json_safe(obj):
    """Recursively convert to JSON-clean values (dataclass -> dict of its
    fields, structured array -> one dict per row built field by field,
    NaN -> null, numpy -> python)."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        names = obj.dtype.names
        if names:
            return [dict(zip(names, row))
                    for row in zip(*(_json_safe(obj[name]) for name in names))]
        if obj.dtype.kind == "f":
            return np.where(np.isfinite(obj), obj, None).tolist()
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_tsv(path: str, manifest: dict, columns: dict) -> None:
    """A TSV of columns, a mapping from header name to a whole column
    (array or list), under a manifest comment line."""
    cells = (map(float.__repr__, np.where(np.isfinite(c), c, np.nan).tolist())
             if isinstance(c, np.ndarray) and c.dtype.kind == "f"
             else map(_fmt_cell, c.tolist() if isinstance(c, np.ndarray) else c)
             for c in columns.values())
    lines = ["# manifest: " + json.dumps(_json_safe(manifest), sort_keys=True),
             "\t".join(columns), *map("\t".join, zip(*cells, strict=True))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_cell(v) -> str:
    """A TSV cell: nan where the JSON writes null (None, non-finite)."""
    if isinstance(v, float):
        return repr(v) if math.isfinite(v) else "nan"
    return "nan" if v is None else str(v)


# ---------------------------------------------------------------------------
# slicing helpers


def _load_build(args):
    filters = ingest.FilterConfig(min_workers=args.min_workers,
                                  max_productivity=args.max_productivity)
    load = ingest.load_csv(args.input)
    return load, ingest.build_samples(load.records, filters)


def _slice_samples(samples: np.ndarray, year: int, class_flag: str) -> np.ndarray:
    mask = samples["year"] == year
    if class_flag != "all":
        mask &= samples["sector_class"] == class_flag
    return samples[mask]


def _weights(samples: np.ndarray, target: str) -> np.ndarray | None:
    """--target's fit weights: None (unit) for firms, workforce for workers."""
    return samples["weight_workers"] if target == "workers" else None


def _exclusion_summary(load, build) -> dict:
    counts = Counter(build.exclusions["reason"].tolist()
                     + [e.reason for e in load.exclusions])
    return {"counts": dict(counts),
            "malformed_rows": len(load.errors),
            "top_productivities": list(build.top_productivities)}


# ---------------------------------------------------------------------------
# fit


def _cmd_fit(args) -> int:
    load, build = _load_build(args)
    samples = _slice_samples(build.samples, args.year, args.klass)
    manifest = _panel_manifest("fit", args, year=args.year,
                               target=args.target)
    result = gb2.fit_mle(samples["c"], _weights(samples, args.target))
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
_INDEX_FIT_FIELDS = ("converged", "n_evaluations")


def _cmd_index(args) -> int:
    years = _parse_years(args.years)
    load, build = _load_build(args)
    manifest = _panel_manifest("index", args, years=args.years)
    series = []
    for year in years:
        samples = _slice_samples(build.samples, year, args.klass)
        # a year without an index: too few samples to fit, or mu_f <= 1
        try:
            firm_fit = gb2.fit_mle(samples["c"])
            worker_fit = gb2.fit_mle(samples["c"], samples["weight_workers"])
            indices = ParetoIndices(
                mu_f=firm_fit.params.mu, mu_w=worker_fit.params.mu,
                mu_f_stderr=firm_fit.mu_stderr, mu_w_stderr=worker_fit.mu_stderr)
            point = kappa_from_mus(indices)
        except (InsufficientData, ValueError) as exc:
            series.append({"year": year, "error": str(exc)})
            continue
        entry = {"year": year, **vars(indices), **vars(point),
                 "regime": point.regime.value}
        for side, fr in (("firm", firm_fit), ("worker", worker_fit)):
            entry.update((f"{side}_{name}", getattr(fr, name))
                         for name in _INDEX_FIT_FIELDS)
        if point.regime is Regime.NEGATIVE_TEMPERATURE:
            entry["warning"] = ("negative-temperature regime: mu_f >= mu_w, "
                                "kappa undefined")
        series.append(entry)
    _write_json(args.out_json, {"manifest": manifest, "series": series})
    fitted = [e for e in series if "error" not in e]
    if args.out_tsv:
        _write_tsv(args.out_tsv, manifest,
                   {col: [e[col] for e in fitted] for col in _INDEX_COLUMNS})
    if not fitted:
        print("index: no year produced an index: " + "; ".join(
            f"{e['year']}: {e['error']}" for e in series), file=sys.stderr)
        return 2
    converged = all(e["firm_converged"] and e["worker_converged"]
                    for e in fitted)
    return 0 if converged else 3


# ---------------------------------------------------------------------------
# simulate


def _env_seed() -> int | None:
    text = os.environ.get(_ENV_SEED)
    try:
        return None if text is None else simulate.parse_seed(text)
    except ValueError:
        raise _UsageError(f"{_ENV_SEED} must be an integer >= 0, got {text!r}") from None


def _cmd_simulate(args) -> int:
    scenario = simulate.parse_scenario(args.scenario, default_seed=_env_seed)
    cfg = scenario.config
    manifest = _manifest("simulate", inputs=[args.scenario], seed=cfg.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    if scenario.verify:
        try:
            simulate.check_window(cfg, scenario.window)
        except WindowError as exc:
            _write_json(report_path, {"manifest": manifest, "passed": False,
                                      "window_error": str(exc)})
            print(f"simulate: {exc}", file=sys.stderr)
            return 4
    out = simulate.run_sim(cfg)
    c_k = out.firm_productivities
    _write_tsv(os.path.join(args.out_dir, "firms.tsv"), manifest,
               {"firm_id": range(len(c_k)), "c_k": c_k, "n_k": out.worker_counts})
    diag = {"manifest": manifest,
            "total_workers": int(out.worker_counts.sum()),
            "n_epochs": cfg.n_epochs,
            "epochs": np.rec.fromarrays([out.realized_betas, out.epoch_demand],
                                        names="beta,demand")}
    _write_json(os.path.join(args.out_dir, "diagnostics.json"), diag)

    if not scenario.verify:
        return 0
    report = simulate.verify_tail_relation(cfg, out, scenario.window,
                                           scenario.tolerance)
    _write_json(report_path, {"manifest": manifest, **vars(report)})
    return 0 if report.passed else 4


# ---------------------------------------------------------------------------
# thermo


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


def _cmd_thermo(args) -> int:
    model = thermo.parse_model(args.model)
    grid = _parse_beta_grid(args.beta_grid)
    manifest = _manifest("thermo", filters={"model": args.model,
                                            "beta_grid": args.beta_grid})
    report = thermo.check_model(model, grid)
    _write_json(args.out, {"manifest": manifest, **report})
    return 0 if report["passed"] else 4


# ---------------------------------------------------------------------------
# ranksize


def _cmd_ranksize(args) -> int:
    load, build = _load_build(args)
    samples = _slice_samples(build.samples, args.year, args.klass)
    if not len(samples):
        raise EmptyYear(f"no samples for year {args.year} class {args.klass}")
    manifest = _panel_manifest("ranksize", args, year=args.year,
                               target=args.target)
    weights = _weights(samples, args.target)
    c_desc, frac = ingest.ranksize(samples["c"], weights)
    _write_tsv(args.out_tsv, manifest, {"c": c_desc, "rank_fraction": frac})

    if args.fit:
        try:
            result = gb2.fit_mle(samples["c"], weights)
        except InsufficientData as exc:
            print(f"ranksize: {exc}; skipping the fitted curve",
                  file=sys.stderr)
            return 0
        cs = np.geomspace(c_desc[-1], c_desc[0], 200).tolist()
        _write_tsv(args.fit_out, manifest,
                   {"c": cs, "ccdf": [gb2.ccdf(result.params, c) for c in cs]})
        return 0 if result.converged else 3
    return 0


# ---------------------------------------------------------------------------
# parser


# fit and ranksize may also pool both sector classes
_ANY_CLASS = ingest.CLASS_CODES + ("all",)


def _add_panel_args(p: argparse.ArgumentParser, with_target: bool,
                    class_choices) -> None:
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--class", dest="klass", required=True,
                   choices=class_choices, help="sector class slice")
    p.add_argument("--min-workers", type=float,
                   default=ingest.FilterConfig.min_workers,
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
    _add_panel_args(p, with_target=True, class_choices=_ANY_CLASS)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("index", help="per-year demand-index series")
    _add_panel_args(p, with_target=False, class_choices=ingest.CLASS_CODES)
    p.add_argument("--years", required=True, help="inclusive range Y1..Y2")
    p.add_argument("--out-json", default=None, help="JSON path (default stdout)")
    p.add_argument("--out-tsv", default=None, help="optional TSV path")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("thermo", help="partition-function checks")
    p.add_argument("--model", required=True, help=" | ".join(
        f"{kind}:" + ",".join(f"{key}=V" for key in keys)
        for kind, (_, keys) in thermo.MODEL_KINDS.items()))
    p.add_argument("--beta-grid", default="1e-3:1e3:50",
                   help="log-spaced grid lo:hi:n")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("ranksize", help="rank-size plot data")
    _add_panel_args(p, with_target=True, class_choices=_ANY_CLASS)
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
