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
Epochs consume the allocation stream in order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gb2
from .errors import WindowError
from .superstat import BetaWeight

_MIN_TAIL_FIT_FIRMS = 1000
_WINDOW_LO_MIN = 10.0      # require beta_max * c_lo above this
_WINDOW_HI_MAX = 0.1       # require beta_min * c_hi below this
_TOLERANCE = 0.15          # allowed |measured - predicted| of mu_w


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
class SimOutput:
    firm_productivities: np.ndarray   # c_k, draw order
    worker_counts: np.ndarray         # n_k summed over epochs
    realized_betas: np.ndarray        # one beta per epoch
    epoch_demand: np.ndarray          # sum(n_k c_k) / N, one per epoch


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

    return SimOutput(c, counts, betas, epoch_demand)


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


def check_window(cfg: SimConfig, window: tuple[float, float]) -> None:
    """Check what verify_tail_relation needs of cfg and the scaling window
    (c_lo, c_hi) before any run: an empty window, a violated precondition
    beta_min * c_hi < 0.1 or beta_max * c_lo > 10 and fewer than 1000
    firms raise a WindowError naming the failure, and c_lo <= 0 a
    ValueError."""
    c_lo, c_hi = window
    if not c_lo > 0.0:
        raise ValueError("fit window must satisfy 0 < c_lo")
    if not c_lo < c_hi:
        raise WindowError(
            f"empty scaling window: c_lo={c_lo:.4g} >= c_hi={c_hi:.4g}")
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


def verify_tail_relation(cfg: SimConfig, out: SimOutput,
                         window: tuple[float, float],
                         tolerance: float = _TOLERANCE) -> TailRelationReport:
    """Fit both tails of the run out of cfg, compare measured vs predicted.

    The scaling window (c_lo, c_hi) is where the averaged Boltzmann
    factor is in its power-law regime; check_window(cfg, window) runs
    first and raises as it does.  Firms are fit unweighted, the worker
    side is the same productivity values weighted by accumulated worker
    counts; measured mu_w is the worker-weighted MLE tail index, and the
    window-restricted rank-size slope is reported as a diagnostic only.
    """
    check_window(cfg, window)
    c_lo, c_hi = window
    w = cfg.beta_weight
    c = out.firm_productivities
    firm_fit = gb2.fit_mle(np.column_stack([c, np.ones_like(c)]))
    occupied = out.worker_counts > 0
    worker_fit = gb2.fit_mle(np.column_stack(
        [c[occupied], out.worker_counts[occupied].astype(np.float64)]))

    predicted = cfg.firm_params.mu - w.gamma + 1.0
    measured = worker_fit.params.mu
    passed = (abs(measured - predicted) <= tolerance
              and measured > firm_fit.params.mu)
    slope = _window_ranksize_slope(c, out.worker_counts, c_lo, c_hi)
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
    c_desc, frac = c[order], np.cumsum(weights[order])
    frac = frac / frac[-1]      # weights are worker counts, total >= 1
    mask = (c_desc >= c_lo) & (c_desc <= c_hi) & (frac > 0.0)
    if np.count_nonzero(mask) < 5:
        return math.nan
    return float(np.polyfit(np.log(c_desc[mask]), np.log(frac[mask]), 1)[0])


# ---------------------------------------------------------------------------
# scenario files


def _true_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text.lower() == "true"


def parse_seed(text: str) -> int:
    """A seed of numpy's seed tree: an integer >= 0."""
    if not int(text) >= 0:
        raise ValueError(f"must be >= 0, got {text!r}")
    return int(text)


def _positive(text: str) -> float:
    if not float(text) > 0.0:
        raise ValueError(f"must be > 0, got {text!r}")
    return float(text)


# scenario key -> parser of its value
_SCENARIO_KEYS = {
    "n_firms": int, "n_workers_per_epoch": int, "n_epochs": int,
    "seed": parse_seed,
    "firm_mu": float, "firm_nu": float, "firm_q": float, "firm_c1": float,
    "gamma": float, "beta_min": float, "beta_max": float,
    "fit_window_lo": _positive, "fit_window_hi": _positive,
    "tolerance": float, "verify": _true_false}
_OPTIONAL_KEYS = ("fit_window_lo", "fit_window_hi", "tolerance", "verify")


@dataclass(frozen=True)
class Scenario:
    config: SimConfig
    window: tuple[float, float]    # (c_lo, c_hi) of verify_tail_relation
    tolerance: float
    verify: bool


def parse_scenario(path, default_seed: Callable[[], int | None] | None = None
                   ) -> Scenario:
    """Flat key = value scenario format, # comments, blank lines allowed.

    Keys mirror SimConfig: n_firms, n_workers_per_epoch, n_epochs, seed
    (>= 0; default_seed() is called for a scenario without one),
    firm_mu/nu/q/c1 and gamma/beta_min/beta_max.  Optional:
    fit_window_lo and _hi (> 0; by default the widest window the beta
    range admits, narrowed by 0.1%), tolerance, verify.  A malformed line, an unknown or repeated
    key and a bad value raise ValueError naming path:line and the key.
    """
    v: dict = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        if key not in _SCENARIO_KEYS or key in v:
            what = "repeated" if key in v else "unknown"
            raise ValueError(f"{path}:{line_no}: {what} key {key!r}")
        try:
            v[key] = _SCENARIO_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None

    if "seed" not in v and default_seed is not None:
        v["seed"] = default_seed()
    missing = [k for k in _SCENARIO_KEYS
               if v.get(k) is None and k not in _OPTIONAL_KEYS]
    if missing:
        raise ValueError(
            f"{path}: scenario missing keys: {', '.join(missing)}")
    w = BetaWeight(v["gamma"], v["beta_min"], v["beta_max"])
    firm = gb2.Gb2Params(v["firm_mu"], v["firm_nu"], v["firm_q"], v["firm_c1"])
    config = SimConfig(v["n_firms"], v["n_workers_per_epoch"], v["n_epochs"],
                       firm, w, v["seed"])
    window = (v.get("fit_window_lo", _WINDOW_LO_MIN / w.beta_max * 1.001),
              v.get("fit_window_hi", _WINDOW_HI_MAX / w.beta_min * 0.999))
    return Scenario(config, window, v.get("tolerance", _TOLERANCE),
                    v.get("verify", True))
