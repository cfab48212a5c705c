"""spectral-scope benchmark: preset sweeps and a CLI round trip.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1-sweep --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one caller: one process, one thread, BLAS
and OpenMP pinned to one thread before numpy loads, the next operation
starting only when the previous one has finished. An operation is one
``run_scenario(name, seed)`` call for the preset sweeps and one
generate -> simulate -> estimate -> verify chain through ``cli.main`` for
``cli-roundtrip``. The pool of operations is fixed by ``--seed0`` and
``--pool``; ``--seed`` orders each pass over the pool. Passes repeat until
``--seconds`` have elapsed at the end of a pass.

``--trace 0`` reports the end-to-end metrics that perfbench/README.md defines:
per-operation and set-up times are CPU time, an operation's time is its median
over the passes and the percentiles are taken over the pool, ``seeds_per_s``
is the median, over blocks of a tenth of a pass, of operations per wall
second, and the per-operation figures are scaled by a calibration kernel to a
nominal machine speed.
``--trace 1`` runs each operation untraced and then traced, and reports the
per-layer split, averaged per operation. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment fingerprint. ``correct`` is false when any check below fails:

(a) an operation that passes in the reference verdicts recorded in
    ``perfbench/reference/`` now fails;
(b) a traced operation's roots (presets) or exit codes and spectrum.json
    (CLI) differ bitwise from the untraced run of the same operation;
(c) a CLI step exits with a code other than 0 or 1, or spectrum.json does not
    round-trip through ``SpectrumEstimate.from_json_dict``;
and, on every operation, a passing verdict must have its matched error within
tolerance, and an operation seen twice must get the same verdict.

An estimate that misses its tolerance is a completed operation with a FAIL
verdict: it counts in ``fail_rate``. ``failed`` counts operations that
raised instead of returning a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

# Pin native thread pools before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The CLI lets this variable override every seed; the benchmark sets its own.
os.environ.pop("SPECTRAL_SCOPE_SEED", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("fig1-sweep", "fig2-sweep", "fig3-sweep", "cli-roundtrip")
DEFAULT_POOL = 300
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "seed_cpu_ms_p50": "ms",
    "seed_cpu_ms_p90": "ms",
    "seeds_per_s": "1/s",
    "fail_rate": "ratio",
    "max_err_over_tol": "ratio",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the package from this checkout's ``src``; exit nonzero if it is absent."""
    if not (SRC / "spectral_scope" / "__init__.py").is_file():
        sys.exit(f"error: no spectral_scope package under {SRC}; "
                 "run from the root of a spectral-scope checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import program

    return program


# =========================================================================
# Operations and reference verdicts
# =========================================================================


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
        WORK_DIR.rmdir()


def pool_items(workload: str, seed0: int, count: int) -> list:
    """Operations ``0 .. count`` of a workload (``count`` is the warm-up one).

    A preset operation is a seed; a CLI operation is a (kind, seed) chain,
    DT and CT alternating so that ``count`` chains cover ``count / 2`` seeds.
    """
    if workload == "cli-roundtrip":
        return [(("dt", "ct")[i % 2], seed0 + i // 2) for i in range(count + 1)]
    return [seed0 + i for i in range(count + 1)]


def load_reference(workload: str) -> dict:
    """Reference verdicts: {operation: passed} over the recorded range."""
    if workload == "cli-roundtrip":
        ref = json.loads((REFERENCE_DIR / "cli_roundtrip.json").read_text())
        lo, hi = ref["seeds"]
        failed = {(kind, s) for kind, seeds in ref["failed"].items() for s in seeds}
        return {(k, s): (k, s) not in failed for s in range(lo, hi) for k in ("dt", "ct")}
    ref = json.loads((REFERENCE_DIR / "bench_all_300.json").read_text())
    name = workload.split("-")[0]
    (sweep,) = [s for s in ref["sweeps"] if s["scenario"] == name]
    failed = set(sweep["failed_seeds"])
    return {s: s not in failed for s in range(sweep["seeds"])}


class Checks:
    """Collects correctness violations; the run is correct when none occur."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.errors: list[str] = []
        self.verdicts: dict = {}

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more ({message})"

    def verdict(self, item, outcome) -> None:
        ok = outcome is not None and outcome.ok
        if self.reference.get(item) and not ok:
            self.fail(f"(a) {item} passes in the reference but fails now")
        if ok and not outcome.error_over_tol <= 1.0:
            self.fail(f"{item} passes with matched error {outcome.error_over_tol} x tol")
        if self.verdicts.setdefault(item, ok) != ok:
            self.fail(f"{item} changed verdict between passes")


# =========================================================================
# Measurement
# =========================================================================


def fingerprint(workload: str, seed: int, seed0: int, pool: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seed0": seed0,
        "pool": pool,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
    }


# The machine's speed drifts by 10-30% within seconds as other tenants come
# and go, and CPU time drifts with it. A fixed pure-Python kernel, run after
# every operation, measures that speed; each operation's CPU and wall time is
# scaled to the speed at which the kernel takes CALIBRATION_MS of CPU time,
# using the kernel samples taken within CALIBRATION_WINDOW operations of it.
CALIBRATION_MS = 0.5
CALIBRATION_WINDOW = 10


def calibration_kernel() -> tuple:
    """Rational and integer arithmetic, the kind the program's exact
    refinement spends its time on; about 0.5 ms on a 2020s x86 core."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    total = 0
    for i in range(3000):
        total += i * i
    return acc, total


def calibrate() -> float:
    """CPU milliseconds of one calibration kernel."""
    c0 = process_time_ns()
    calibration_kernel()
    return (process_time_ns() - c0) / 1e6


def scale(times: list[float], calibration: list[float]) -> list[float]:
    """Each time scaled to the nominal speed by the kernel samples around it."""
    w = CALIBRATION_WINDOW
    return [t * CALIBRATION_MS / statistics.median(calibration[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def measure_setup(workload: str, warm_item, workdir: Path, samples: int) -> float:
    """Median CPU time (user + system) of fresh interpreters that import the
    package and run one warm-up operation outside the timed range.

    Not scaled by the kernel: samples taken between fresh processes track
    their speed poorly, and scaling doubled the spread of this median."""
    code = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import spectral_scope, program; "
        "program.warm_up({workload!r}, {item!r}, {workdir!r})"
    ).format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, item=warm_item,
             workdir=str(workdir))
    times = []
    for _ in range(samples):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(times)


def passes(items: list, seed: int, seconds: float):
    """Yield operations pass by pass, each pass in a seeded order, until a
    pass ends after ``seconds``."""
    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order
        if perf_counter() >= deadline:
            return


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, program, workload: str, seed: int, seconds: float, seed0: int,
                 pool: int, reference: dict, workdir: Path):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.items = pool_items(workload, seed0, pool)
        self.warm_item = self.items.pop()
        self.checks = Checks(reference)
        self.workdir = workdir
        self.attempted = 0
        self.raised = 0
        self.verdict_failed = 0
        self.worst_ratio = 0.0
        self.sink = None

    # -- one untraced operation --------------------------------------------

    def untraced(self, item):
        """Run one operation as a user does; returns (outcome, exception)."""
        pr = self.program
        try:
            if self.workload == "cli-roundtrip":
                pr.clear_chain_files(self.workdir)
                codes = pr.run_chain(*item, self.workdir, self.sink)
                return pr.chain_outcome(codes, self.workdir), None
            return pr.scenario_outcome(pr.run_scenario(self.workload.split("-")[0], item)), None
        except Exception as exc:  # a raised operation is counted, not fatal
            return None, exc

    def record(self, item, outcome, exc) -> None:
        self.attempted += 1
        if exc is not None:
            self.raised += 1
        if outcome is None or not outcome.ok:
            self.verdict_failed += 1
        else:
            self.worst_ratio = max(self.worst_ratio, outcome.error_over_tol)
        self.checks.verdict(item, outcome)
        if outcome is not None and outcome.codes:
            if any(c not in (0, 1) for c in outcome.codes):
                self.checks.fail(f"(c) {item} CLI exit codes {outcome.codes}")
            if outcome.spectrum_text is not None and not self.program.spectrum_round_trips(
                    outcome.spectrum_text):
                self.checks.fail(f"(c) {item} spectrum.json does not round-trip")

    def warm(self) -> None:
        self.program.warm_up(self.workload, self.warm_item, str(self.workdir))

    # -- the two modes -----------------------------------------------------

    def end_to_end(self, setup_samples: int) -> tuple[dict, dict]:
        """End-to-end metrics at the calibrated speed, and the unscaled times."""
        setup_s = measure_setup(self.workload, self.warm_item, self.workdir, setup_samples)
        self.warm()
        order, cpu_ms, wall_s, calibration = [], [], [], []
        for item in passes(self.items, self.seed, self.seconds):
            order.append(item)
            w0, c0 = perf_counter(), process_time_ns()
            outcome, exc = self.untraced(item)
            cpu_ms.append((process_time_ns() - c0) / 1e6)
            wall_s.append(perf_counter() - w0)
            calibration.append(calibrate())
            self.record(item, outcome, exc)
        if len(self.items) < 100:
            print(f"warning: {len(self.items)} operations leave fewer than 10 beyond p90",
                  file=sys.stderr)
        unscaled = self._times(order, cpu_ms, wall_s)
        return {
            "setup_s": setup_s,
            **self._times(order, scale(cpu_ms, calibration), scale(wall_s, calibration)),
            "fail_rate": self.verdict_failed / self.attempted,
            "max_err_over_tol": self.worst_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, {"calibration_ms": statistics.median(calibration), "unscaled": unscaled}

    def _times(self, order: list, cpu_ms: list, wall_s: list) -> dict:
        # Each operation's CPU time is its median over the passes, which keeps
        # a burst of contention from reaching the percentiles through the few
        # operations it hit; every pass covers the whole pool.
        per_item: dict = {}
        for item, ms in zip(order, cpu_ms):
            per_item.setdefault(item, []).append(ms)
        item_ms = [statistics.median(v) for v in per_item.values()]
        block = max(1, len(self.items) // 10)
        rates = [block / sum(wall_s[i:i + block]) for i in range(0, len(wall_s) - block + 1, block)]
        return {
            "seed_cpu_ms_p50": statistics.median(item_ms),
            "seed_cpu_ms_p90": percentile_90(item_ms),
            "seeds_per_s": statistics.median(rates),
        }

    def traced(self) -> tuple[dict, list]:
        pr = self.program
        tracer = pr.Tracer()
        self.warm()
        untraced_ns = []
        hits = 0
        cli_run = self.workload == "cli-roundtrip"
        for item in passes(self.items, self.seed, self.seconds):
            w0 = perf_counter_ns()
            outcome, exc = self.untraced(item)
            untraced_ns.append(perf_counter_ns() - w0)
            self.record(item, outcome, exc)
            try:
                if cli_run:
                    traced = pr.traced_chain(tracer, *item, self.workdir, self.sink)
                else:
                    traced = pr.traced_preset(tracer, self.workload.split("-")[0], item)
            except Exception as t_exc:
                traced = None
                if exc is None or type(exc) is not type(t_exc):
                    self.checks.fail(f"(b) {item} traced run raised {t_exc!r}, untraced {exc!r}")
            if traced is None:
                continue
            if outcome is None or pr.output_key(traced) != pr.output_key(outcome):
                self.checks.fail(f"(b) {item} traced output differs from the untraced run")
            if cli_run:
                hit = traced.spectrum_text is not None and pr.chain_rank_hit(self.workdir)
            else:
                hit = traced.rank is not None and traced.rank == pr.observable_count(
                    traced.system)
            hits += hit
        return self._layer_metrics(tracer, untraced_ns, hits), tracer.spans

    def _layer_metrics(self, tracer, untraced_ns: list, hits: int) -> dict:
        pr = self.program
        self_ns, calls = tracer.self_times()
        n = calls.get(pr.ROOT_SPAN, 0) or 1
        seed_ns = [end - start for name, start, end, _, _ in tracer.spans
                   if name == pr.ROOT_SPAN]
        metrics = {}
        for layer in pr.LAYERS:
            metrics[f"{layer}.ms"] = self_ns.get(layer, 0) / n / 1e6
            metrics[f"{layer}.calls"] = calls.get(layer, 0) / n
        metrics["estimator.hankel.rank_hit_ratio"] = hits / n
        metrics["trace.unaccounted_ms"] = self_ns.get(pr.ROOT_SPAN, 0) / n / 1e6
        metrics["trace.seed_ms"] = sum(seed_ns) / n / 1e6
        metrics["trace.overhead_ratio"] = (
            statistics.median(seed_ns) / statistics.median(untraced_ns) if seed_ns else 0.0
        )
        return metrics


def per_layer_units(program) -> dict:
    units = {}
    for layer in program.LAYERS:
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units["estimator.hankel.rank_hit_ratio"] = "ratio"
    units["trace.unaccounted_ms"] = "ms"
    units["trace.seed_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def measure(workload: str, seed: int, seconds: float, trace: bool, seed0: int = 0,
            pool: int = DEFAULT_POOL, reference: dict | None = None,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record written to OUT_DIR)."""
    program = load_program()
    if reference is None:
        reference = load_reference(workload)
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(program, workload, seed, seconds, seed0, pool, reference, workdir)
    spans: list = []
    extra: dict = {}
    try:
        with open(os.devnull, "w") as sink:
            run.sink = sink
            if trace:
                values, spans = run.traced()
                units = per_layer_units(program)
            else:
                values, extra = run.end_to_end(setup_samples)
                units = END_TO_END_UNITS
    finally:
        remove_workdir(workdir)
    result = {
        "correct": not run.checks.errors,
        "attempted": run.attempted,
        "failed": run.raised,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "fingerprint": fingerprint(workload, seed, seed0, pool),
        "errors": run.checks.errors,
        "result": result,
        **extra,
        "spans": spans,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders each pass over the operation pool")
    parser.add_argument("--seconds", type=float, required=True,
                        help="passes repeat until this many seconds have elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed0", type=int, default=0,
                        help="first scenario seed of the pool (re-check claims on held-out seeds)")
    parser.add_argument("--pool", type=int, default=DEFAULT_POOL,
                        help="operations per pass (presets: seeds; cli-roundtrip: chains)")
    args = parser.parse_args(argv)
    if args.pool < 1:
        parser.error("--pool must be positive")

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.seed0, args.pool)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    for message in record["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
