"""Run workloads in fresh processes and print every metric by name and unit.

Each (workload, seed) is one run of ``run.py`` in its own process.  For each
metric the table gives the median over the seeds, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, which is the spread the benchmark's bounds are set against.  A run
whose answers were not all correct is listed with its failures.

Usage (from the root of a checkout):

    python3 perfbench/report.py                       # all workloads, seed 1
    python3 perfbench/report.py --workloads search --seeds 1-10
    python3 perfbench/report.py --seeds 1-10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_one(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    """(median, first quartile, third quartile, quartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's record and result as JSON")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            record, result = run_one(workload, seed, seconds, args.trace)
            runs.append({"record": record, "result": result})
            results.append(result)
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                      "answers failed", *record["failures"], sep="\n  ")
        print(f"\n{workload}: {len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} answers checked, "
              f"{sum(r['failed'] for r in results)} failed")
        print(f"  {'metric':42s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}"
              f" {'bound':>6s}  unit")
        for name, metric in results[0]["metrics"].items():
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:42s} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.3f}"
                  f" {bound:>6s}  {metric['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "runs": runs}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
