"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads fig1-sweep cli-roundtrip --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace 1 --out /tmp/layers.json

For every workload and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``). End-to-end spreads are compared with
a third of the metric's bound in BENCHMARK.json; ``setup_s`` is exempt, since
only its median is bounded. ``--out`` writes the medians, spreads, values
and fingerprints as JSON; ``baseline.json`` keeps the medians of such runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    steady = True
    summary = {}
    for workload in args.workloads:
        runs = [one_run(workload, s, args.seconds, args.trace) for s in seed_range(args.seeds)]
        results = [r for _, r in runs]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run reported correct=false", file=sys.stderr)
            steady = False
        rows = {}
        print(f"{workload} ({len(runs)} runs, attempted {[r['attempted'] for r in results]})")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and s >= bound / 3:
                flag = f"  spread above bound/3 = {bound / 3:.3f}"
                steady = False
            rows[name] = {"median": statistics.median(values), "unit": first["unit"],
                          "spread": s, "values": values}
            print(f"  {name:36s} {statistics.median(values):12.5g} {first['unit']:6s}"
                  f" spread {s:.4f}{flag}")
        summary[workload] = {"fingerprint": runs[0][0], "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "workloads": summary}, f,
                      indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
