"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/spread.py --workload tables --seeds 1-10 [--seconds 20]

For each end-to-end metric prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, plus the failed share of attempted operations.  Runs one at a time;
the raw result lines go to bench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="20")
    args = p.parse_args()
    results = []
    out = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.splitlines()[-1])
        results.append(res)
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(res, seed=seed)) + "\n")
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  (q3-q1)/median {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
