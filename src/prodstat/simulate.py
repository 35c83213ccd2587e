"""Monte Carlo worker allocation over a synthetic firm population.

One run draws K firm productivities c_k once, then repeats over epochs:
draw an inverse temperature beta from the truncated power-law weight,
allocate the epoch's N workers over firms with p_k ~ e^{-beta c_k}, and
accumulate per-firm worker counts.  Each worker's firm is drawn by
inverse cdf: N sorted uniforms searched in the cumulative weights
e^{-beta (c_k - min c)}, at O(K + N log K) an epoch, so an epoch's
counts are multinomial(N, p).  Averaging epochs over the fluctuating beta
realizes the ensemble whose worker-side tail index should exceed the
firm-side one by 1 - gamma; verify_tail_relation measures both ends
with the MLE pipeline and compares.

Determinism: a master seed feeds a seed tree (firm draw, beta draws,
allocation draws), so identical configs give bit-identical outputs.
Epoch j reads uniforms j*N .. (j+1)*N - 1 of the allocation stream, so
the epochs run in chunks of _CHUNK_EPOCHS on a thread pool with one
worker per CPU the process may use, each chunk's generator advanced to
its first epoch's place in the stream; the chunks' counts are summed
exactly, and no output depends on the number of CPUs.
"""

from __future__ import annotations

import math
import os
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
_CHUNK_EPOCHS = 250        # epochs per pool task; 100-2000 ran alike


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
    if w.degenerate:
        return np.full(n, w.beta_min)
    e = 1.0 - w.gamma
    u = rng.random(n)
    return (w.beta_min ** e + u * (w.beta_max ** e - w.beta_min ** e)) ** (1.0 / e)


def _n_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sim(cfg: SimConfig) -> SimOutput:
    # imported here, not at module level: concurrent.futures loads logging,
    # which would add to the import time of every CLI command
    from concurrent.futures import ThreadPoolExecutor

    ss_firms, ss_betas, ss_alloc = np.random.SeedSequence(cfg.seed).spawn(3)
    c = gb2.sample(cfg.firm_params, cfg.n_firms, ss_firms)
    betas = sample_betas(cfg.beta_weight, cfg.n_epochs,
                         np.random.default_rng(ss_betas))

    n = cfg.n_workers_per_epoch
    dc = c - c.min()
    epoch_demand = np.empty(cfg.n_epochs)

    def run_chunk(lo: int) -> np.ndarray:
        # one double per 64-bit output: epoch j reads uniforms j*n .. (j+1)*n - 1
        rng = np.random.Generator(np.random.PCG64(ss_alloc).advance(lo * n))
        cdf = np.empty(cfg.n_firms)
        counts = np.zeros(cfg.n_firms, dtype=np.int64)
        for j in range(lo, min(lo + _CHUNK_EPOCHS, cfg.n_epochs)):
            # each worker's firm by inverse cdf; sorted uniforms in (0, total]
            # keep the search local, and a firm whose weight underflows to 0
            # adds no cdf step, so it is never drawn
            np.multiply(dc, -betas[j], out=cdf)
            np.exp(cdf, out=cdf)
            np.cumsum(cdf, out=cdf)
            u = 1.0 - rng.random(n)
            u.sort()
            u *= cdf[-1]
            firm = np.searchsorted(cdf, u, side="left")
            counts += np.bincount(firm, minlength=cfg.n_firms)
            # the workers' own c summed, not n_k @ c: BLAS may split a long
            # dot product over threads of its own (OpenBLAS past 10 000
            # firms), which then spin on the pool's cores, and the sum's
            # order would depend on their number
            epoch_demand[j] = c[firm].sum() / n
        return counts

    starts = range(0, cfg.n_epochs, _CHUNK_EPOCHS)
    counts = np.zeros(cfg.n_firms, dtype=np.int64)
    with ThreadPoolExecutor(min(_n_cpus(), len(starts))) as pool:
        for chunk_counts in pool.map(run_chunk, starts):
            counts += chunk_counts

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
    firm_fit = gb2.fit_mle(c)
    occupied = out.worker_counts > 0
    worker_fit = gb2.fit_mle(c[occupied], out.worker_counts[occupied])

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
    if not 0.0 < float(text) < math.inf:
        raise ValueError(f"must be > 0 and finite, got {text!r}")
    return float(text)


# scenario key -> parser of its value
_SCENARIO_KEYS = {
    "n_firms": int, "n_workers_per_epoch": int, "n_epochs": int,
    "seed": parse_seed,
    "firm_mu": float, "firm_nu": float, "firm_q": float, "firm_c1": float,
    "gamma": float, "beta_min": float, "beta_max": float,
    "fit_window_lo": _positive, "fit_window_hi": _positive,
    "tolerance": _positive, "verify": _true_false}
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
    fit_window_lo and _hi (finite and > 0; by default the widest window
    the beta range admits, narrowed by 0.1%), tolerance (finite and > 0),
    verify.  The file is UTF-8 in every locale (a leading BOM is
    dropped).  A malformed line, an unknown or repeated key and a bad
    value raise ValueError naming path:line and the key; a byte that is
    not UTF-8, and a value that parses but that SimConfig, BetaWeight or
    Gb2Params refuses, name the path.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    v: dict = {}
    for line_no, raw in enumerate(lines, start=1):
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
    try:
        w = BetaWeight(v["gamma"], v["beta_min"], v["beta_max"])
        firm = gb2.Gb2Params(v["firm_mu"], v["firm_nu"], v["firm_q"], v["firm_c1"])
        config = SimConfig(v["n_firms"], v["n_workers_per_epoch"], v["n_epochs"],
                           firm, w, v["seed"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    window = (v.get("fit_window_lo", _WINDOW_LO_MIN / w.beta_max * 1.001),
              v.get("fit_window_hi", _WINDOW_HI_MAX / w.beta_min * 0.999))
    return Scenario(config, window, v.get("tolerance", _TOLERANCE),
                    v.get("verify", True))
