#!/usr/bin/env python3
"""Run the benchmark over a set of seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/baseline.json

For each workload: one `--trace 0` run per seed, then one `--trace 1` run on
the first seed. For every end-to-end metric it records the values, their
median and their spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median.
Stops at the first run that fails or reports an incorrect result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr[-3000:]}")
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, s, seconds, 0) for s in seeds]
        e2e = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            e2e[name] = {"median": statistics.median(values), "spread": spread(values),
                         "unit": results[0]["metrics"][name]["unit"], "values": values}
            print(f"{workload:<17} {name:<12} median {e2e[name]['median']:12.4f} "
                  f"spread {e2e[name]['spread']:.3f} (bound {bounds[name]})", flush=True)
        traced = run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
