"""Heavy-tail labour productivity toolkit.

Fits GB2 distributions to firm and worker productivity samples, maps
the fitted Pareto indices to demand indices, checks partition-function
thermodynamics against small-beta expansions, and validates the tail
relation mu_w = mu_f - gamma + 1 by Monte Carlo allocation.
"""

__version__ = "0.1.0"

from .errors import (DivergentMoment, EmptyYear, InsufficientData,
                     OutOfRegime, ProdstatError, RegimeError, SchemaError,
                     TooManyBadRows, WindowError)
from .gb2 import FitResult, Gb2Params, fit_mle
from .ingest import FilterConfig, build_samples, load_csv, ranksize, sector_aggregate
from .simulate import (SimConfig, SimOutput, check_window, run_sim,
                       verify_tail_relation)
from .superstat import (BetaWeight, DemandIndexPoint, ParetoIndices, Regime,
                        b_factor, delta_from_gamma, gamma_from_mus,
                        kappa_from_mus, mu_w_predicted)
from .thermo import (ThermoModel, check_model, check_monotonicity, demand,
                     demand_expansion, moment, partition, partition_expansion)

__all__ = [
    "__version__",
    "ProdstatError", "InsufficientData", "RegimeError",
    "DivergentMoment", "OutOfRegime", "WindowError", "SchemaError",
    "TooManyBadRows", "EmptyYear",
    "Gb2Params", "FitResult", "fit_mle",
    "ParetoIndices", "DemandIndexPoint", "BetaWeight", "Regime",
    "gamma_from_mus", "delta_from_gamma", "kappa_from_mus",
    "mu_w_predicted", "b_factor",
    "ThermoModel", "partition", "demand", "moment", "check_model",
    "partition_expansion", "demand_expansion", "check_monotonicity",
    "SimConfig", "SimOutput", "run_sim", "check_window", "verify_tail_relation",
    "FilterConfig", "load_csv", "build_samples", "sector_aggregate",
    "ranksize",
]
