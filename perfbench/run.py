"""End-to-end benchmark of the prodstat batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout: the package is imported from
``src/`` and the panel generator from ``tests/panelgen.py``; without
them the script exits 2 and prints no result.  Inputs are generated
from the seed under ``.perfbench/``.  Jobs run closed-loop in this one
process through ``prodstat.cli.main``, one pass of the workload after
another, until the next pass would end past ``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics, timed
with nothing wrapped.  With ``--trace 1`` each pass runs twice, plain
and then with every layer's public functions wrapped (see tracing.py),
and the result carries the per-layer metrics of the first traced pass.
Every job's outputs are checked, and outputs of repeated jobs must be
byte-identical, within the run and with an earlier run of the same
workload and seed in this checkout.  The last line of standard output is the result JSON.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5        # fresh interpreters timed per run for setup_s
MIN_PASSES = 2
SOURCE_DATE_EPOCH = "1700000000"

# The machine is shared, and for stretches of a second to minutes the
# same code runs up to twice as slow.  While a job runs, or while a fresh
# interpreter measured for setup_s starts, a timer signal every
# PROBE_INTERVAL_S runs a fixed probe in this process -- numpy ufuncs on a
# 2000-element array and plain Python arithmetic, the kind of work the
# jobs do -- and times it in thread CPU time, which grows with the
# slowdown but not with time the thread spends descheduled.  A job's
# reference time is its own wall time (the probes' share taken out)
# scaled by REFERENCE_PROBE_S over its mean probe time: the time it would
# take where the probe takes 0.7 ms, as on an uncontended core of the
# 2-core Xeon VM this was tuned on.  It swings by about 5% from pass to
# pass where the wall time swings by 30%.
PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 40
REFERENCE_PROBE_S = 0.0007
_PROBE_X = np.random.default_rng(0).normal(size=2000)


def probe() -> float:
    """Thread CPU seconds the fixed probe takes now."""
    acc = 0.0
    t0 = time.thread_time()
    for _ in range(PROBE_LOOPS):
        acc += float(np.sum(np.log1p(np.exp(-np.abs(_PROBE_X * 1.1)))))
        for j in range(20):
            acc += math.exp(-0.1 * j) * (j + 1.5)
    return time.thread_time() - t0


class SpeedProbe:
    """Probe samples taken while the with-block runs, one before it
    starts, and the wall time the signal-driven ones took."""

    def __enter__(self):
        self.samples = [probe()]
        self.probe_wall_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_wall_s += time.perf_counter() - t0


@dataclass
class JobResult:
    kind: str
    seconds: float
    code: int
    status: str
    reason: str
    digests: dict
    bytes_written: int
    probe_s: float                   # mean probe time while the job ran

    @property
    def ref_s(self) -> float:
        return self.seconds * REFERENCE_PROBE_S / self.probe_s


@dataclass
class PassResult:
    jobs: list

    @property
    def wall_s(self) -> float:
        return sum(j.seconds for j in self.jobs)


def typical_pass_s(passes, kind=None, ref=True) -> float:
    """One pass, or its jobs of one kind, timed as the sum over jobs of
    each job's median across passes, in reference seconds or, with
    ref=False, in wall seconds."""
    def t(job):
        return job.ref_s if ref else job.seconds
    return sum(statistics.median(t(p.jobs[i]) for p in passes)
               for i, job in enumerate(passes[0].jobs)
               if kind is None or job.kind == kind)


def run_job(job, tracer=None) -> JobResult:
    from prodstat import cli
    from workloads import FAILED, digest

    for path in job.outputs:
        path.unlink(missing_ok=True)
    argv = list(job.argv)
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.job(argv):
                code = cli.main(argv)
        seconds = time.perf_counter() - t0 - speed.probe_wall_s
    try:
        status, reason = job.check(code)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        status, reason = FAILED, f"unreadable output: {exc!r}"
    written = [p for p in job.outputs if p.exists()]
    return JobResult(job.kind, seconds, code, status, reason,
                     {str(p): digest(p) for p in written},
                     sum(p.stat().st_size for p in written),
                     statistics.fmean(speed.samples))


def run_pass(jobs, tracer=None) -> PassResult:
    return PassResult([run_job(job, tracer) for job in jobs])


def measure_setup() -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter until prodstat.cli is
    imported, with the mean probe time meanwhile, once per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as speed:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import prodstat.cli"],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            t = time.perf_counter() - t0 - speed.probe_wall_s
        times.append((t, statistics.fmean(speed.samples)))
    return times


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    from prodstat import kernels

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(index / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "kernels.BACKEND": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _pass_loop(jobs, seconds, body, min_passes):
    """Call body(jobs) while the next call is expected to end inside the
    window, and at least min_passes times."""
    start = time.perf_counter()
    cycle = []
    while True:
        t0 = time.perf_counter()
        body(jobs)
        cycle.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(cycle) >= min_passes and \
                elapsed + statistics.median(cycle) > seconds:
            return


def _summary(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prodstat" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "panelgen.py").is_file():
        print(f"perfbench: {ROOT} has no src/prodstat or tests/panelgen.py; "
              "run from a prodstat source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH

    import prodstat
    if Path(prodstat.__file__).resolve().parent != SRC / "prodstat":
        print(f"perfbench: imported prodstat from {prodstat.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; want one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = measure_setup() if args.trace == 0 else []
    # Jobs run inside the work directory on relative paths, so the input
    # paths the CLI copies into its output manifests are the same in
    # every run and outputs can be compared across runs.
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        return _run(args, workload, workloads, setup)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def check_earlier_run(name: str, digests: dict) -> list[str]:
    """Outputs must be byte-identical to those of an earlier run of the
    same workload and seed in this checkout; the first run records them."""
    path = ROOT / ".perfbench" / "digests" / f"{name}.json"
    try:
        earlier = json.loads(path.read_text())
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return []
    return [f"{out}: differs from an earlier run of this seed"
            for out in sorted(set(earlier) | set(digests))
            if earlier.get(out) != digests.get(out)]


def _run(args, workload, workloads, setup) -> int:
    from tracing import WRAPPED, Tracer

    jobs = workload.make_pass(Path("."), args.seed)
    passes: list[PassResult] = []
    traced_passes: list[PassResult] = []
    tracers = []

    def plain(jobs):
        passes.append(run_pass(jobs))

    def paired(jobs):
        plain(jobs)
        tracer = Tracer()
        with tracer.installed():
            traced_passes.append(run_pass(jobs, tracer))
        tracers.append(tracer)

    if args.trace:
        _pass_loop(jobs, args.seconds, paired, 1)
    else:
        _pass_loop(jobs, args.seconds, plain, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = workload.input_check(jobs)
    # determinism: every repeat of a job writes the bytes of its first run,
    # in this run and in earlier runs of the same seed
    all_jobs = [j for p in passes + traced_passes for j in p.jobs]
    for p in passes[1:] + traced_passes:
        for first, again in zip(passes[0].jobs, p.jobs):
            if again.digests != first.digests:
                problems.append(f"{again.kind}: outputs differ on a repeat run")
    problems += check_earlier_run(
        f"{workload.name}-seed{args.seed}",
        {out: d for j in passes[0].jobs for out, d in j.digests.items()})

    failed = [j for j in all_jobs if j.status == workloads.FAILED]
    known = [j for j in all_jobs if j.status == workloads.KNOWN_DEFECT]
    for j in failed:
        problems.append(f"{j.kind} exit {j.code}: {j.reason}")

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for i, job in enumerate(jobs):
        times = [p.jobs[i].seconds for p in passes]
        refs = [p.jobs[i].ref_s for p in passes]
        probes = [p.jobs[i].probe_s * 1e3 for p in passes]
        print(f"job {i} {job.kind} ({' '.join(job.argv[:3])}): n={len(times)} "
              f"wall median {statistics.median(times):.4f} s, min "
              f"{min(times):.4f}, max {max(times):.4f}; reference median "
              f"{statistics.median(refs):.4f} s; mean probe "
              f"{min(probes):.3f}..{max(probes):.3f} ms")

    if args.trace:
        tracer = tracers[0]
        per_layer = tracer.metrics()
        per_layer["cli.bytes_written"] = sum(
            j.bytes_written for j in traced_passes[0].jobs)
        per_layer["trace_overhead_frac"] = (typical_pass_s(traced_passes)
                                            / typical_pass_s(passes) - 1.0)
        for name in WRAPPED:
            calls = tracer.counters[name].calls
            if name in workload.bypassed and calls:
                problems.append(f"{name} called {calls} times; this workload "
                                "should bypass it")
            elif name not in workload.bypassed and not calls:
                problems.append(f"{name} never called; the wrapper sits on "
                                "a name its callers do not use")
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{workload.name}-seed{args.seed}.json"
        t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
        trace_path.write_text(json.dumps(
            [dict(s, start=s["start"] - t0, end=s["end"] - t0)
             for s in tracer.spans], indent=1) + "\n")
        print(f"spans: {len(tracer.spans)} written to "
              f"{trace_path.relative_to(ROOT)}")
        metrics = {}
        for name, unit in _per_layer_units():
            value = per_layer[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} = {value:.6g} {unit}")
        print("pass seconds: traced "
              f"{_summary([p.wall_s for p in traced_passes])}; plain "
              f"{_summary([p.wall_s for p in passes])}")
    else:
        n = len(passes)
        metrics = {
            "wall_ref_s": {"value": typical_pass_s(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(
                t * REFERENCE_PROBE_S / probe_s for t, probe_s in setup),
                "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"metric wall_ref_s = {typical_pass_s(passes):.4f} s (one pass at "
              f"reference speed, from per-job medians over {n} passes)")
        print(f"metric wall_s = {typical_pass_s(passes, ref=False):.4f} s (the "
              f"same in wall seconds; passes took "
              f"{_summary([p.wall_s for p in passes])})")
        for kind in ("index", "ranksize", "simulate", "thermo"):
            if kind in workload.sizes:
                print(f"metric {kind}_s = {typical_pass_s(passes, kind):.4f} s "
                      f"at reference speed, "
                      f"{typical_pass_s(passes, kind, ref=False):.4f} s wall "
                      f"(per pass from per-job medians over {n} passes; "
                      f"{workload.sizes[kind]})")
        print(f"metric setup_s = {metrics['setup_s']['value']:.4f} s at "
              f"reference speed (fresh interpreter to prodstat.cli imported; "
              f"median of {len(setup)})")
        print(f"metric setup_wall_s = "
              f"{statistics.median(t for t, _ in setup):.4f} s (wall times "
              f"{_summary(t for t, _ in setup)})")
        print(f"metric peak_rss_mb = {peak_rss_mb:.1f} MB")
    n_bad = len(failed) + len(known)
    print(f"metric failed_frac = {n_bad / len(all_jobs):.4f} "
          f"({n_bad} of {len(all_jobs)} jobs: {len(known)} known defect, "
          f"{len(failed)} unexpected)")
    for reason in sorted({j.reason for j in known}):
        print(f"known defect: thermo {reason}")
    for p in problems:
        print(f"problem: {p}")

    print(json.dumps({"correct": not problems, "attempted": len(all_jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
