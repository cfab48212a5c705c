"""Self-test of the benchmark, at a tiny size:

    python3 perfbench/selftest.py

1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, with their units, and passes checks (a)-(c); each
   pool holds a seed that fails in the reference, so FAIL verdicts are
   exercised;
2. traced layer self times plus trace.unaccounted_ms add up to trace.seed_ms;
3. a reference whose verdict for a failing seed is flipped by hand to PASS
   is caught by check (a);
4. a directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit nonzero without printing a result;
5. the stored reference equals a fresh ``bench all --seeds 300 --json`` and
   CLI-chain recording (skip with ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys

import make_reference
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# seed0 per workload: each tiny pool contains a seed that fails in the reference
TINY = {"fig1-sweep": 5, "fig2-sweep": 3, "fig3-sweep": 205, "cli-roundtrip": 0}
TINY_POOL = 8

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(args: list[str], cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workload(workload: str, trace: int) -> None:
    proc = bench(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
                  "--seed0", str(TINY[workload]), "--pool", str(TINY_POOL)])
    tag = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{tag}: exit 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    expect(result["correct"] is True, f"{tag}: checks (a)-(c) pass")
    expect(result["attempted"] >= TINY_POOL, f"{tag}: attempted {result['attempted']}")
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{tag}: every named metric printed with its unit")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()),
           f"{tag}: every value a finite number")
    if trace:
        layers = sum(v for k, v in values.items() if k.endswith(".ms") and not k.startswith("trace."))
        total = layers + values["trace.unaccounted_ms"]
        expect(math.isclose(total, values["trace.seed_ms"], rel_tol=1e-9),
               f"{tag}: layer self times + unaccounted = seed time ({total} vs {values['trace.seed_ms']})")
    else:
        expect(values["fail_rate"] > 0, f"{tag}: the failing reference seed counts in fail_rate")


def check_flipped_verdict() -> None:
    reference = run.load_reference("fig1-sweep")
    expect(reference[8] is False, "fig1 seed 8 fails in the reference")
    reference[8] = True
    result, record = run.measure("fig1-sweep", seed=1, seconds=0, trace=False, seed0=5,
                                 pool=TINY_POOL, reference=reference, setup_samples=1)
    expect(result["correct"] is False and any(e.startswith("(a) 8 ") for e in record["errors"]),
           f"a flipped verdict is caught by check (a): {record['errors']}")


def check_bare_directory() -> None:
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "fig1-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without the program: exit {proc.returncode}, no result printed")
    finally:
        run.remove_workdir(bare)


def check_reference() -> None:
    for name, text in make_reference.record().items():
        stored = json.loads((run.REFERENCE_DIR / name).read_text())
        expect(stored == json.loads(text), f"reference/{name} equals a fresh recording")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test the benchmark at a tiny size")
    parser.add_argument("--quick", action="store_true", help="skip re-recording the reference")
    args = parser.parse_args()
    for workload in TINY:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_flipped_verdict()
    check_bare_directory()
    if not args.quick:
        check_reference()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
