"""Per-layer tracing of prodstat from outside the package.

A Tracer replaces public module attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and restores them on
exit.  Each wrapper is installed on the name its caller looks up at call
time: ``gb2`` and ``thermo`` bind ``log_beta`` with ``from .specfun
import ...``, ``thermo`` binds scipy's ``quad``, and ``cli`` binds
``kappa_from_mus``, so those wrappers go on the importing module rather
than on the defining one.

Coarse calls (CLI jobs, fits, simulations, monotonicity scans, ingest
steps) are kept as spans: name, start, end, parent.  Hot inner calls
(the kernel reduction, special functions, quadrature and its integrand)
only bump counters with summed time.  Self time of a wrapped call is its
duration minus the time of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from prodstat import cli, gb2, ingest, kernels, simulate, thermo

_perf = time.perf_counter

# name -> (span?, [(module, attribute), ...]).  The name is the layer and
# function the counter reports under; the targets are where callers look
# the function up.
WRAPPED = {
    "cli.job": (True, []),
    "kernels.softplus_wsum": (False, [(kernels, "softplus_wsum")]),
    "gb2.fit_mle": (True, [(gb2, "fit_mle")]),
    "gb2.ccdf": (False, [(gb2, "ccdf")]),
    "gb2.sample": (False, [(gb2, "sample")]),
    "specfun.log_beta": (False, [(gb2, "log_beta"), (thermo, "log_beta")]),
    "specfun.reg_inc_beta": (False, [(gb2, "reg_inc_beta")]),
    "superstat.kappa_from_mus": (False, [(cli, "kappa_from_mus")]),
    "simulate.run_sim": (True, [(simulate, "run_sim")]),
    "simulate.verify_tail_relation": (True, [(simulate, "verify_tail_relation")]),
    "thermo.check_monotonicity": (True, [(thermo, "check_monotonicity")]),
    "thermo.demand": (False, [(thermo, "demand")]),
    "thermo.quad": (False, [(thermo, "quad")]),
    "ingest.load_csv": (True, [(ingest, "load_csv")]),
    "ingest.build_samples": (True, [(ingest, "build_samples")]),
    "ingest.ranksize": (True, [(ingest, "ranksize")]),
}

# kernel reduction lengths are binned at these element counts
KERNEL_BINS = (("le4k", 4096), ("4k_32k", 32768), ("gt32k", None))


@dataclass
class Counter:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    name: str
    start: float
    span_index: int | None
    child_s: float = 0.0


@dataclass
class Tracer:
    counters: dict = field(default_factory=lambda: {n: Counter() for n in WRAPPED})
    spans: list = field(default_factory=list)
    kernel_elems: dict = field(default_factory=lambda: {b: 0 for b, _ in KERNEL_BINS})
    kernel_busy: dict = field(default_factory=lambda: {b: 0.0 for b, _ in KERNEL_BINS})
    fit_kernel_calls: int = 0
    nm_iterations: int = 0
    fits_converged: int = 0
    integrand_evals: int = 0
    integrand_s: float = 0.0
    quad_in_monotonicity: int = 0
    grid_points: int = 0
    firm_epochs: int = 0
    rows_loaded: int = 0
    _stack: list = field(default_factory=list)

    # -- generic frame bookkeeping -------------------------------------

    def _enter(self, name: str, span: bool) -> _Frame:
        parent = next((f.span_index for f in reversed(self._stack)
                       if f.span_index is not None), None)
        start = _perf()
        index = None
        if span:
            index = len(self.spans)
            self.spans.append({"name": name, "start": start, "end": None,
                               "parent": parent})
        frame = _Frame(name, start, index)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = _perf()
        self._stack.pop()
        dur = end - frame.start
        c = self.counters[frame.name]
        c.calls += 1
        c.busy_s += dur
        c.self_s += dur - frame.child_s
        if frame.span_index is not None:
            self.spans[frame.span_index]["end"] = end
        if self._stack:
            self._stack[-1].child_s += dur
        return dur

    @contextlib.contextmanager
    def job(self, argv):
        """Span for one CLI invocation; the CLI layer's self time is what
        its wrapped children leave over."""
        frame = self._enter("cli.job", True)
        self.spans[frame.span_index]["argv"] = list(argv)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, span, fn):
        if name == "kernels.softplus_wsum":
            return self._wrap_kernel(fn)
        if name == "thermo.quad":
            return self._wrap_quad(fn)

        def wrapper(*args, **kwargs):
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        """Work counts read off the arguments and results of a call."""
        if name == "gb2.fit_mle":
            self.nm_iterations += result.n_iterations
            self.fits_converged += bool(result.converged)
        elif name == "simulate.run_sim":
            self.firm_epochs += args[0].n_firms * args[0].n_epochs
        elif name == "thermo.check_monotonicity":
            self.grid_points += len(args[1])
        elif name == "ingest.load_csv":
            self.rows_loaded += (len(result.records) + len(result.errors)
                                 + len(result.exclusions))

    def _wrap_kernel(self, fn):
        def softplus_wsum(lc, w, q, lc1):
            frame = self._enter("kernels.softplus_wsum", False)
            try:
                result = fn(lc, w, q, lc1)
            finally:
                dur = self._exit(frame)
            n = len(lc)
            for label, upper in KERNEL_BINS:
                if upper is None or n <= upper:
                    break
            self.kernel_elems[label] += n
            self.kernel_busy[label] += dur
            if any(f.name == "gb2.fit_mle" for f in self._stack):
                self.fit_kernel_calls += 1
            return result

        return softplus_wsum

    def _wrap_quad(self, fn):
        def quad(func, *args, **kwargs):
            def integrand(x):
                t = _perf()
                try:
                    return func(x)
                finally:
                    self.integrand_s += _perf() - t
                    self.integrand_evals += 1

            frame = self._enter("thermo.quad", False)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._exit(frame)
                if any(f.name == "thermo.check_monotonicity" for f in self._stack):
                    self.quad_in_monotonicity += 1

        return quad

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, (span, targets) in WRAPPED.items():
                for module, attr in targets:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by name.  A ratio whose base is zero reads 0."""
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        elems = sum(self.kernel_elems.values())
        k = c["kernels.softplus_wsum"]
        fits = c["gb2.fit_mle"]
        out = {
            "kernels.softplus_wsum.calls": k.calls,
            "kernels.softplus_wsum.busy_s": k.busy_s,
            "kernels.ns_per_elem": ratio(k.busy_s * 1e9, elems),
            "kernels.bytes_computed": 16 * elems,
        }
        for label, _ in KERNEL_BINS:
            out[f"kernels.ns_per_elem.{label}"] = ratio(
                self.kernel_busy[label] * 1e9, self.kernel_elems[label])
        out.update({
            "gb2.fit_mle.calls": fits.calls,
            "gb2.fit_mle.busy_s": fits.busy_s,
            "gb2.fit_mle.self_s": fits.self_s,
            "gb2.fit_mle.converged_ratio": ratio(self.fits_converged, fits.calls),
            "gb2.objective_evals_per_fit": ratio(self.fit_kernel_calls, fits.calls),
            "gb2.nm_iterations": self.nm_iterations,
            "gb2.ccdf.calls": c["gb2.ccdf"].calls,
            "gb2.ccdf.busy_s": c["gb2.ccdf"].busy_s,
            "gb2.sample.calls": c["gb2.sample"].calls,
            "gb2.sample.busy_s": c["gb2.sample"].busy_s,
            "specfun.log_beta.calls": c["specfun.log_beta"].calls,
            "specfun.log_beta.busy_s": c["specfun.log_beta"].busy_s,
            "specfun.reg_inc_beta.calls": c["specfun.reg_inc_beta"].calls,
            "specfun.reg_inc_beta.busy_s": c["specfun.reg_inc_beta"].busy_s,
            "superstat.kappa_from_mus.calls": c["superstat.kappa_from_mus"].calls,
            "superstat.kappa_from_mus.busy_s": c["superstat.kappa_from_mus"].busy_s,
            "simulate.run_sim.calls": c["simulate.run_sim"].calls,
            "simulate.run_sim.busy_s": c["simulate.run_sim"].busy_s,
            "simulate.ns_per_firm_epoch": ratio(
                c["simulate.run_sim"].busy_s * 1e9, self.firm_epochs),
            "simulate.verify_tail_relation.self_s":
                c["simulate.verify_tail_relation"].self_s,
            "thermo.check_monotonicity.busy_s": c["thermo.check_monotonicity"].busy_s,
            "thermo.demand.calls": c["thermo.demand"].calls,
            "thermo.quad.calls": c["thermo.quad"].calls,
            "thermo.quad.busy_s": c["thermo.quad"].busy_s,
            "thermo.integrand_evals": self.integrand_evals,
            "thermo.quad_calls_per_point": ratio(self.quad_in_monotonicity,
                                                 self.grid_points),
            "ingest.load_csv.calls": c["ingest.load_csv"].calls,
            "ingest.load_csv.busy_s": c["ingest.load_csv"].busy_s,
            "ingest.rows_per_s": ratio(self.rows_loaded, c["ingest.load_csv"].busy_s),
            "ingest.build_samples.busy_s": c["ingest.build_samples"].busy_s,
            "ingest.ranksize.busy_s": c["ingest.ranksize"].busy_s,
            "cli.self_s": c["cli.job"].self_s,
        })
        return out
