"""Heavy-tail labour productivity toolkit.

Fits GB2 distributions to firm and worker productivity samples, maps
the fitted Pareto indices to demand indices, checks partition-function
thermodynamics against small-beta expansions, and validates the tail
relation mu_w = mu_f - gamma + 1 by Monte Carlo allocation.

The package root defines only __version__.  Callers import the modules
(gb2, superstat, thermo, simulate, ingest, kernels, errors, cli), as in
``from prodstat import gb2``; each name has its one home there.
"""

__version__ = "0.1.0"
