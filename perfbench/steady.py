"""Steadiness check: run one workload with several seeds and compare spreads.

    python3 perfbench/steady.py --workload algebra --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed, one run after another, each for the
``run_seconds`` of BENCHMARK.json.  Prints for each end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json and a
third of it, and the share of failed jobs per run.  These figures are
the evidence behind the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    steady = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        ok = spread < bound / 3 or name == "setup_s"
        steady &= ok
        print(f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f} {bound / 3:8.4f}"
              f"{'' if ok else '  WIDE'}")
    print(f"failed share per run: {sorted(set(shares))}")
    return 0 if steady and len(set(shares)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
