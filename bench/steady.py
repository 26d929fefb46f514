#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and print, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 bench/steady.py [--workloads lookup,churn] [--runs 10]
        [--first-seed 1] [--seconds 50]

The spread is what BENCHMARK.json's bounds are set against: a bound must
sit well above the spread two sets of runs of the same code show.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="lookup,churn")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    args = p.parse_args(argv)
    for workload in args.workloads.split(","):
        results = [one_run(workload, seed, args.seconds)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        failed = {(r["failed"], r["attempted"]) for r in results if r["failed"]}
        print(f"{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, runs with failures: {len(failed)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:22s} median {med:10.4f} {results[0]['metrics'][name]['unit']:6s}"
                  f" Q1 {q1:10.4f} Q3 {q3:10.4f} spread {(q3 - q1) / med:6.3f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
