#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload jump --runs 5
    python3 perfbench/spread.py --runs 10 --baseline perfbench/baseline.json

For every end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  With --baseline it also makes one traced run per workload
and writes the end-to-end quartiles plus the per-layer counts to that file,
keeping the entries of workloads not run this time.
Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="write end-to-end quartiles and per-layer counts here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    baseline: dict = {"workloads": {}}
    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {"run_seconds": seconds, "seeds": list(seeds), "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}-{seeds.stop - 1}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            unit = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = dict(stats, unit=unit)
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:16s} median {stats['median']:12.6g} {unit:5s} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        if args.baseline is not None:
            traced = run_once(workload, args.first_seed, seconds, 1)
            entry["per_layer_counts_seed"] = args.first_seed
            entry["per_layer_counts"] = {
                k: v["value"] for k, v in traced["metrics"].items() if k in counts
            }
        baseline["workloads"][workload] = entry
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
