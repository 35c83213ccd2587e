"""Monte Carlo worker allocation over a synthetic firm population.

One run draws K firm productivities c_k once, then repeats over epochs:
draw an inverse temperature beta from the truncated power-law weight,
allocate the epoch's workers over firms multinomially with
p_k ~ e^{-beta c_k} (log-sum-exp guarded), and accumulate per-firm
worker counts.  Averaging epochs over the fluctuating beta realizes the
ensemble whose worker-side tail index should exceed the firm-side one
by 1 - gamma; verify_tail_relation measures both ends with the MLE
pipeline and compares.

Determinism: a master seed feeds a seed tree (firm draw, beta draws,
allocation draws), so identical configs give bit-identical outputs.
Epochs consume the allocation stream in order; they are independent
given per-epoch seeds and could run concurrently with a deterministic
merge, but the sequential loop is already cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gb2
from .errors import WindowError
from .superstat import BetaWeight

_MIN_TAIL_FIT_FIRMS = 1000
_WINDOW_LO_MIN = 10.0      # require beta_max * c_lo above this
_WINDOW_HI_MAX = 0.1       # require beta_min * c_hi below this


@dataclass(frozen=True)
class SimConfig:
    n_firms: int
    n_workers_per_epoch: int
    n_epochs: int
    firm_params: gb2.Gb2Params
    beta_weight: BetaWeight
    seed: int

    def __post_init__(self):
        if self.n_firms < 1 or self.n_workers_per_epoch < 1 or self.n_epochs < 1:
            raise ValueError("counts must be >= 1")


@dataclass(frozen=True)
class SimDiagnostics:
    total_workers: int
    epoch_demand: np.ndarray   # realized sum(n_k c_k) / N per epoch


@dataclass(frozen=True)
class SimOutput:
    firm_productivities: np.ndarray   # c_k, draw order
    worker_counts: np.ndarray         # n_k summed over epochs
    realized_betas: np.ndarray        # one beta per epoch
    diagnostics: SimDiagnostics


def sample_betas(w: BetaWeight, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from f(beta) ~ beta^-gamma on [beta_min, beta_max] by the
    closed-form inverse cdf; a degenerate window returns beta_min."""
    if w.beta_max == w.beta_min:
        return np.full(n, w.beta_min)
    e = 1.0 - w.gamma
    u = rng.random(n)
    return (w.beta_min ** e + u * (w.beta_max ** e - w.beta_min ** e)) ** (1.0 / e)


def run_sim(cfg: SimConfig) -> SimOutput:
    ss_firms, ss_betas, ss_alloc = np.random.SeedSequence(cfg.seed).spawn(3)
    c = gb2.sample(cfg.firm_params, cfg.n_firms, ss_firms)
    betas = sample_betas(cfg.beta_weight, cfg.n_epochs,
                         np.random.default_rng(ss_betas))
    rng = np.random.default_rng(ss_alloc)

    counts = np.zeros(cfg.n_firms, dtype=np.int64)
    epoch_demand = np.empty(cfg.n_epochs)
    for j in range(cfg.n_epochs):
        logits = -betas[j] * c
        logits -= logits.max()                 # log-sum-exp guard
        p = np.exp(logits)
        p /= p.sum()
        n_k = rng.multinomial(cfg.n_workers_per_epoch, p)
        counts += n_k
        epoch_demand[j] = (n_k @ c) / cfg.n_workers_per_epoch

    return SimOutput(
        firm_productivities=c,
        worker_counts=counts,
        realized_betas=betas,
        diagnostics=SimDiagnostics(
            total_workers=int(counts.sum()),
            epoch_demand=epoch_demand))


@dataclass(frozen=True)
class TailRelationReport:
    """Measured firm/worker tail indices against the predicted relation
    mu_w = mu_f - gamma + 1."""

    mu_f_measured: float
    mu_f_stderr: float
    mu_w_measured: float
    mu_w_stderr: float
    gamma: float
    mu_w_predicted: float
    tolerance: float
    passed: bool
    window: tuple[float, float]
    window_slope: float        # diagnostic rank-size exponent in the window
    firm_fit: gb2.FitResult
    worker_fit: gb2.FitResult


def verify_tail_relation(cfg: SimConfig, fit_window: tuple[float, float],
                         tolerance: float = 0.15,
                         sim: SimOutput | None = None) -> TailRelationReport:
    """Run the allocation, fit both tails, compare measured vs predicted.

    The scaling window (c_lo, c_hi) is where the averaged Boltzmann
    factor is in its power-law regime; the preconditions
    beta_min * c_hi < 0.1 and beta_max * c_lo > 10 are enforced and a
    WindowError names whichever fails.  Firms are fit unweighted, the
    worker side is the same productivity values weighted by accumulated
    worker counts; measured mu_w is the worker-weighted MLE tail index,
    and the window-restricted rank-size slope is reported as a
    diagnostic only.  Pass a precomputed SimOutput for cfg to skip the
    internal run (the run is deterministic in cfg, so results match).
    """
    c_lo, c_hi = fit_window
    if not (0.0 < c_lo < c_hi):
        raise ValueError("fit_window must satisfy 0 < c_lo < c_hi")
    w = cfg.beta_weight
    problems = []
    if not w.beta_min * c_hi < _WINDOW_HI_MAX:
        problems.append(
            f"beta_min * c_hi = {w.beta_min * c_hi:.3g} >= {_WINDOW_HI_MAX}")
    if not w.beta_max * c_lo > _WINDOW_LO_MIN:
        problems.append(
            f"beta_max * c_lo = {w.beta_max * c_lo:.3g} <= {_WINDOW_LO_MIN}")
    if problems:
        raise WindowError("scaling window violated: " + "; ".join(problems))
    if cfg.n_firms < _MIN_TAIL_FIT_FIRMS:
        raise WindowError(
            f"tail fits need >= {_MIN_TAIL_FIT_FIRMS} firms, got {cfg.n_firms}")

    out = run_sim(cfg) if sim is None else sim
    c = out.firm_productivities
    firm_fit = gb2.fit_mle(np.column_stack([c, np.ones_like(c)]))
    occupied = out.worker_counts > 0
    worker_fit = gb2.fit_mle(np.column_stack(
        [c[occupied], out.worker_counts[occupied].astype(np.float64)]))

    predicted = cfg.firm_params.mu - w.gamma + 1.0
    measured = worker_fit.params.mu
    passed = (abs(measured - predicted) <= tolerance
              and measured > firm_fit.params.mu)
    slope = _window_ranksize_slope(c, out.worker_counts.astype(np.float64),
                                   c_lo, c_hi)
    return TailRelationReport(
        mu_f_measured=firm_fit.params.mu, mu_f_stderr=firm_fit.mu_stderr,
        mu_w_measured=measured, mu_w_stderr=worker_fit.mu_stderr,
        gamma=w.gamma, mu_w_predicted=predicted, tolerance=tolerance,
        passed=passed, window=(c_lo, c_hi), window_slope=slope,
        firm_fit=firm_fit, worker_fit=worker_fit)


def _window_ranksize_slope(c: np.ndarray, weights: np.ndarray,
                           c_lo: float, c_hi: float) -> float:
    """Log-log slope of the weighted rank-size curve inside [c_lo, c_hi]."""
    order = np.argsort(c)[::-1]
    c_desc = c[order]
    frac = np.cumsum(weights[order])
    total = frac[-1]
    if total <= 0.0:
        return math.nan
    frac /= total
    mask = (c_desc >= c_lo) & (c_desc <= c_hi) & (frac > 0.0)
    if np.count_nonzero(mask) < 5:
        return math.nan
    return float(np.polyfit(np.log(c_desc[mask]), np.log(frac[mask]), 1)[0])


# ---------------------------------------------------------------------------
# scenario files and outputs

_SCENARIO_INT_KEYS = ("n_firms", "n_workers_per_epoch", "n_epochs", "seed")
_SCENARIO_FLOAT_KEYS = ("firm_mu", "firm_nu", "firm_q", "firm_c1",
                        "gamma", "beta_min", "beta_max",
                        "fit_window_lo", "fit_window_hi", "tolerance")
_SCENARIO_BOOL_KEYS = ("verify",)


def parse_scenario(path) -> dict:
    """Flat key = value scenario format, # comments, blank lines allowed.

    Keys mirror SimConfig: n_firms, n_workers_per_epoch, n_epochs, seed,
    plus the flattened parameter groups firm_mu/firm_nu/firm_q/firm_c1
    and gamma/beta_min/beta_max.  Optional keys: fit_window_lo,
    fit_window_hi, tolerance, verify.
    """
    values: dict = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _SCENARIO_INT_KEYS:
            values[key] = int(val)
        elif key in _SCENARIO_FLOAT_KEYS:
            values[key] = float(val)
        elif key in _SCENARIO_BOOL_KEYS:
            if val.lower() not in ("true", "false"):
                raise ValueError(f"{path}:{line_no}: {key} must be true/false")
            values[key] = val.lower() == "true"
        else:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
    return values


def scenario_config(values: dict, default_seed: int | None = None) -> SimConfig:
    """Build a SimConfig from parsed scenario values; the seed may come
    from the scenario or the supplied default."""
    seed = values.get("seed", default_seed)
    if seed is None:
        raise ValueError("scenario needs a seed (key 'seed' or a default)")
    required = ("n_firms", "n_workers_per_epoch", "n_epochs",
                "firm_mu", "firm_nu", "firm_q", "firm_c1",
                "gamma", "beta_min", "beta_max")
    missing = [k for k in required if k not in values]
    if missing:
        raise ValueError(f"scenario missing keys: {', '.join(missing)}")
    return SimConfig(
        n_firms=values["n_firms"],
        n_workers_per_epoch=values["n_workers_per_epoch"],
        n_epochs=values["n_epochs"],
        firm_params=gb2.Gb2Params(values["firm_mu"], values["firm_nu"],
                                  values["firm_q"], values["firm_c1"]),
        beta_weight=BetaWeight(values["gamma"], values["beta_min"],
                               values["beta_max"]),
        seed=int(seed))
