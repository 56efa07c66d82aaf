#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py <workload> [runs] [seconds] [first_seed]

Runs the workload `runs` times (default 10), each with its own seed, and
prints per metric the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the bound in
BENCHMARK.json, plus the failed share of every run and each run's
calibration loop (for reference). The last line is a JSON object of the
medians, so two sets taken apart in time can be compared. Run from the checkout
root after one `python3 perfbench/run.py` has built the benchmark.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    seconds = sys.argv[3] if len(sys.argv) > 3 else None
    first_seed = int(sys.argv[4]) if len(sys.argv) > 4 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = seconds or str(bench["run_seconds"])
    values, shares, calib = {}, set(), []
    for i in range(runs):
        seed = str(first_seed + i)
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", seed, "--seconds", seconds, "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True)
        lines = r.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        calib += [float(l.split()[-2]) for l in lines
                  if l.startswith("# calibration loop")]
        shares.add((res["failed"] / res["attempted"], res["correct"]))
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    medians = {}
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        medians[k] = med
        spread = (q3 - q1) / med
        print(f"{k:18s} median {med:12.5g}  spread {spread:7.4f}  "
              f"bound {bounds.get(k)}  bound/3 {bounds.get(k, 0) / 3:.4f}")
    print("failed shares / correct:", sorted(shares))
    print("calibration loop (ns/iter, reference):",
          " ".join(f"{c:.3f}" for c in calib))
    print(json.dumps({"workload": workload, "medians": medians}))


if __name__ == "__main__":
    main()
