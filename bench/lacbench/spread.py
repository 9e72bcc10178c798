#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/lacbench/spread.py --workload sim_serving --seeds 1-10 \
        [--seconds 20] [--trace 0]

Runs run.py once per seed and prints, for every metric, the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median -- the figure
BENCHMARK.json's bounds are compared with. --self-test checks the spread
arithmetic on a hand-computed sample.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    """(median, IQR / |median|) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def self_test():
    med, sp = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    # exclusive quartiles of 1..10: 2.75 and 8.25; median 5.5
    ok = med == 5.5 and abs(sp - 5.5 / 5.5) < 1e-12
    print("spread self-test:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    values, failed, attempted = {}, [], []
    for seed in seeds_of(args.seeds):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", args.trace], capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"seed {seed}: correct = false")
            return 1
        failed.append(res["failed"])
        attempted.append(res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in res["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(attempted)} runs, failed/attempted "
          f"{sum(failed)}/{sum(attempted)}")
    for name, vals in values.items():
        med, sp = spread(vals)
        print(f"  {name:32s} median {med:14.6g}  spread {sp:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
