"""micz-su11 benchmark: run one workload from a seed, check its outputs, print its metrics.

    python3 bench/run.py --workload states --seed 1 --seconds 20 --trace 0

`--trace 0` times the workload untraced and prints the end-to-end metrics.
`--trace 1` runs the workload twice for half the time each, untraced and then
with every public function of the package wrapped (see spans.py), and prints
the per-layer metrics; the spans are written to bench/out/.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
line before it, prefixed "detail ", holds the counts and the environment.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread for this process and every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
SUBCOMMANDS = ("spectrum", "eigenfunction", "verify-algebra", "verify-states", "oracle")


def import_package():
    """Import numpy and then micz_su11 from this checkout's src/, timing each."""
    if not (SRC / "micz_su11" / "__init__.py").is_file():
        sys.exit(f"error: no micz_su11 package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import micz_su11
    import micz_su11.cli  # noqa: F401

    t2 = time.perf_counter()
    if Path(micz_su11.__file__).resolve().parent != SRC / "micz_su11":
        sys.exit(f"error: micz_su11 was imported from {micz_su11.__file__}, not from {SRC}")
    return micz_su11, t1 - t0, t2 - t1


class SpeedGauge:
    """The box's speed, sampled with a fixed kernel between measurements.

    On a shared 2-core box (the one the baseline in bench/README.md comes
    from) the same code takes from 0.65 to 1.2 times its usual time, in
    swings lasting tens of seconds, and the program's items follow the same
    swings.  Every time the benchmark
    reports is therefore rescaled by ref_s / (median kernel time within
    window_s of the measurement), i.e. to the speed at which the kernel
    takes ref_s.  A change to the program does not change the kernels:

    - `cpu()` for work in this process mixes the three kinds of work the
      in-process workloads do: an interpreter loop, numpy ufuncs on a
      4000-point array and Fraction arithmetic;
    - `process()` for work in child processes starts a fresh interpreter that
      imports numpy, which is most of what a child invocation costs.
    """

    def __init__(self, kernel, ref_s: float, every_s: float, window_s: float):
        self.kernel, self.ref_s, self.every_s, self.window_s = kernel, ref_s, every_s, window_s
        self.at: list[float] = []
        self.took: list[float] = []

    @classmethod
    def cpu(cls) -> "SpeedGauge":
        import numpy

        x = numpy.linspace(0.01, 50.0, 4000)

        def kernel():
            acc = 0
            for i in range(25_000):
                acc += i * i % 7
            for _ in range(40):
                x ** 2.37 * numpy.exp(-x)
            q = Fraction(1, 3)
            for i in range(1, 300):
                q = q * Fraction(i + 1, i + 2) + Fraction(1, i)

        return cls(kernel, ref_s=0.005, every_s=0.2, window_s=1.5)

    @classmethod
    def process(cls) -> "SpeedGauge":
        def kernel():
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)

        return cls(kernel, ref_s=0.15, every_s=1.0, window_s=3.0)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - self.window_s)
        hi = bisect.bisect_right(self.at, t + self.window_s)
        if lo == hi:  # no sample in the window: take the one before it
            lo = min(max(lo, 1), len(self.at)) - 1
            hi = lo + 1
        return self.ref_s / statistics.median(self.took[lo:hi])


def timed_loop(wl, seconds: float, inproc: bool, tracer=None) -> dict:
    """Run whole cycles until `seconds` have passed; only `wl.run` is inside item latency.

    Latencies are rescaled by a SpeedGauge sampled between items: the cpu
    kernel for items run in this process, the process kernel for child
    processes.
    """
    perf = time.perf_counter
    gauge = SpeedGauge.cpu() if inproc else SpeedGauge.process()
    gauge.sample()
    raw, labels = [], []
    checks = check_fails = failed = 0
    worst = 0.0
    problems: list[str] = []
    start = perf()
    deadline = start + seconds
    cycle = 0
    while True:
        for item in wl.cycles[cycle % len(wl.cycles)]:
            if tracer is not None:
                tracer.begin_item(len(raw))
            t0 = perf()
            try:
                result = wl.run(item, inproc)
            except Exception as exc:  # an item that raises is counted, the run goes on
                raw.append((t0, perf() - t0))
                labels.append(item)
                failed += 1
                problems.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            raw.append((t0, perf() - t0))
            labels.append(item)
            gauge.maybe_sample()
            outcome = wl.check(item, result)
            checks += outcome.checks
            check_fails += outcome.check_fails
            worst = max(worst, outcome.worst)
            if outcome.problems:
                failed += 1
                problems += outcome.problems
        cycle += 1
        if perf() >= deadline:
            break
    wall_s = perf() - start
    gauge.sample()
    latencies = [lat * gauge.scale(t0 + lat / 2) for t0, lat in raw]
    return {
        "wall_s": wall_s,
        "program_s": sum(latencies),
        "cycles": cycle,
        "latencies": latencies,
        "labels": labels,
        "checks": checks,
        "check_fails": check_fails,
        "failed": failed,
        "worst": worst,
        "problems": problems,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten items beyond it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probes(args) -> tuple[float, float, float]:
    """Fresh interpreters that import, build the inputs and warm up.

    Returns the medians of their wall time, their numpy import time and
    their micz_su11 import time.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    gauge = SpeedGauge.process()
    timed, numpy_s, package_s = [], [], []
    for _ in range(SETUP_PROBES):
        gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
        timed.append((t0, time.perf_counter() - t0))
        imports = json.loads(proc.stdout)
        numpy_s.append(imports["import_numpy_s"])
        package_s.append(imports["import_package_s"])
    gauge.sample()
    scales = [gauge.scale(t0 + wall / 2) for t0, wall in timed]
    return (statistics.median(wall * k for (_, wall), k in zip(timed, scales)),
            statistics.median(t * k for t, k in zip(numpy_s, scales)),
            statistics.median(t * k for t, k in zip(package_s, scales)))


def end_to_end(res: dict, setup_s: float, peak_rss_mb: float) -> dict:
    n = len(res["latencies"])
    tail_s, _ = tail(res["latencies"])
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / res["program_s"], "1/s"),
        "item_p50_ms": (statistics.median(res["latencies"]) * 1000.0, "ms"),
        "item_tail_ms": (tail_s * 1000.0, "ms"),
        "check_pass_ratio": (1.0 - res["check_fails"] / max(res["checks"], 1), "ratio"),
        "item_ok_ratio": (1.0 - res["failed"] / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced: dict, untraced: dict, import_s: tuple[float, float]) -> dict:
    from spans import LAYERS

    stats = tracer.function_stats()
    counts, unique = tracer.counts, tracer.unique
    metrics: dict[str, tuple[float, str]] = {}

    def fn(qualname: str, *extra: str) -> None:
        st = stats.get(qualname, {"calls": 0, "self_s": 0.0})
        metrics[f"{qualname}.calls"] = (st["calls"], "count")
        metrics[f"{qualname}.self_s"] = (st["self_s"], "s")
        for stat in extra:
            if stat == "unique_ratio":
                metrics[f"{qualname}.unique"] = (unique[qualname], "count")
                metrics[f"{qualname}.unique_ratio"] = (unique[qualname] / max(st["calls"], 1), "ratio")
            else:
                metrics[f"{qualname}.{stat}"] = (counts[f"{qualname}.{stat}"], "count")

    fn("operator_algebra.compose", "terms_out", "unique_ratio")
    for name in ("substitute", "monomial_action", "identity_suite", "solve_schrodinger_ansatz"):
        fn(f"operator_algebra.{name}")
    fn("analytic_states.chi", "points", "unique_ratio")
    fn("analytic_states.chi_dn", "points", "unique_ratio")
    fn("analytic_states.radial_state")
    fn("analytic_states.angular_residual")
    fn("special_functions.jacobi")
    fn("numeric_verify.apply_operator", "terms")
    fn("numeric_verify.eig_oracle", "eigenvalues")
    eig = metrics["numeric_verify.eig_oracle.eigenvalues"][0]
    metrics["numeric_verify.eig_oracle.s_per_eigenvalue"] = (
        metrics["numeric_verify.eig_oracle.self_s"][0] / max(eig, 1), "s")
    for name in ("angular_residual_check", "radial_equation_check", "t3_eigen_check", "t3_spacing_check",
                 "casimir_check", "ladder_check", "verify_states_suite", "spectrum_cross_check"):
        metrics[f"numeric_verify.{name}.self_s"] = (stats.get(f"numeric_verify.{name}", {}).get("self_s", 0.0), "s")
    fn("quantum_numbers.make_sector")
    fn("quantum_numbers.energy")

    metrics["cli.import_numpy_s"] = (import_s[0], "s")
    metrics["cli.import_package_s"] = (import_s[1], "s")
    metrics["cli.main.self_s"] = (stats.get("cli.main", {}).get("self_s", 0.0), "s")
    # compare with the import times, which a fresh process pays per invocation
    main = stats.get("cli.main", {"calls": 0, "total_s": 0.0})
    metrics["cli.main.per_call_s"] = (main["total_s"] / max(main["calls"], 1), "s")
    by_sub = dict.fromkeys(SUBCOMMANDS, 0.0)
    for item, dur in tracer.total_by_item("cli.main").items():
        by_sub[traced["labels"][item].subcommand] += dur
    for sub, total in by_sub.items():
        metrics[f"cli.main.{sub.replace('-', '_')}_s"] = (total, "s")

    attributed = 0.0
    for layer in LAYERS:
        self_s = sum(st["self_s"] for name, st in stats.items() if name.startswith(layer + "."))
        attributed += self_s
        metrics[f"{layer}.self_s"] = (self_s, "s")
        with open(SRC / "micz_su11" / f"{layer}.py", encoding="utf-8") as fh:
            metrics[f"{layer}.lines"] = (sum(1 for _ in fh), "count")

    traced_rate = len(traced["latencies"]) / traced["program_s"]
    untraced_rate = len(untraced["latencies"]) / untraced["program_s"]
    metrics["trace.items"] = (len(traced["latencies"]), "count")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.unattributed_s"] = (traced["wall_s"] - attributed, "s")
    metrics["trace.items_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (1.0 - traced_rate / untraced_rate, "ratio")

    both = [traced, untraced]
    checks = sum(r["checks"] for r in both)
    items = sum(len(r["latencies"]) for r in both)
    metrics["verdict.check_fail_ratio"] = (sum(r["check_fails"] for r in both) / max(checks, 1), "ratio")
    metrics["verdict.error_ratio"] = (sum(r["failed"] for r in both) / items, "ratio")
    metrics["verdict.worst_residual_over_tol"] = (max(r["worst"] for r in both), "ratio")
    return metrics


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": "shared box; CPU governor, caches and cgroups left untouched",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("states", "oracle", "algebra", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a fresh interpreter that only sets the workload up; timed by setup_probes
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package, import_numpy_s, import_package_s = import_package()
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        inproc = args.workload != "cli" or bool(args.trace)
        wl.warm_up(inproc)
        if args.setup_only:
            print(json.dumps({"import_numpy_s": import_numpy_s, "import_package_s": import_package_s}))
            return 0
        if args.trace:
            untraced = timed_loop(wl, args.seconds / 2, inproc)
            tracer = Tracer()
            tracer.install(package)
            try:
                traced = timed_loop(wl, args.seconds / 2, inproc, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
            runs = [untraced, traced]
            _, probe_numpy_s, probe_package_s = setup_probes(args)
            metrics = per_layer(tracer, traced, untraced, (probe_numpy_s, probe_package_s))
        else:
            res = timed_loop(wl, args.seconds, inproc)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            runs = [res]
            metrics = end_to_end(res, setup_probes(args)[0], peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    checks = sum(r["checks"] for r in runs)
    tail_s, tail_pct = tail(runs[-1]["latencies"])
    detail = {
        "environment": environment(args),
        "items": attempted,
        "cycles": sum(r["cycles"] for r in runs),
        "checks": checks,
        "check_fails": sum(r["check_fails"] for r in runs),
        "check_fail_ratio": sum(r["check_fails"] for r in runs) / max(checks, 1),
        "error_ratio": failed / attempted,
        "worst_residual_over_tol": max(r["worst"] for r in runs),
        "item_tail": {"percentile": tail_pct, "items": len(runs[-1]["latencies"]), "ms": tail_s * 1000.0},
        "problems": sorted(set(p for r in runs for p in r["problems"]))[:20],
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
