"""The maxdep benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is taken from its src/.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb) under
--trace 0 and the per-layer metrics under --trace 1.  Results and spans are
also written to bench/out/.  See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_STARTS = 5  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env(root: str) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("MAXDEP_SEED", None)  # it would override the seeds the workloads pass
    return env


def _worker(args: list[str], ops_json: str, env: dict, deadline: float, python_flags=()):
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    return subprocess.run([sys.executable, *python_flags, os.path.join(HERE, "worker.py"), *args],
                          input=ops_json, capture_output=True, text=True, env=env, timeout=timeout)


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + 170.0

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "maxdep", "__init__.py")):
        return _fail(f"no maxdep sources under {root}/src; run from the root of a checkout")

    import calibrate
    import checks  # noqa: E402  (mpmath and the references load after the sanity check)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    ops = WORKLOADS[args.workload](args.seed)
    ops_json = json.dumps(ops)
    env = _child_env(root)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    # set-up: fresh interpreters that import maxdep and build what the
    # workload builds once (a traced run reports import times instead)
    starts = []
    for _ in range(0 if args.trace else SETUP_STARTS):
        t0 = time.perf_counter()
        proc = _worker(["--setup-only"], ops_json, env, deadline)
        starts.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return _fail(f"set-up failed:\n{proc.stderr}")

    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    proc = _worker(["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans],
                   ops_json, env, deadline)
    if proc.returncode != 0:
        return _fail(f"worker failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.splitlines()[-1])

    # checks, one per distinct output of each operation
    attempted = len(ops) * res["rounds"]
    failed = 0
    correct = True
    report = []
    first = [groups[0][0] for groups in res["outputs"]]
    for op, groups in zip(ops, res["outputs"]):
        for output, rounds in groups:
            issues = checks.problems(op, output, first)
            if issues:
                failed += len(rounds)
                if not op.get("fault"):
                    correct = False
                report.append({"op": op["id"], "known_fault": op.get("fault"), "issues": issues[:5]})

    if args.trace:
        metrics = dict(res["layers"])
        imports = _worker(["--setup-only"], ops_json, env, deadline, python_flags=("-X", "importtime"))
        import tracing

        metrics.update(tracing.import_layers(imports.stderr))
        units = {k: ("1/s" if k.endswith("_per_s") else "s" if k.endswith("_s") else "count") for k in metrics}
        units["trace.coverage"] = units["samplers.cores_busy"] = "ratio"
        units["distortions.quantile.cdf_evals_per_elem"] = "count"
    else:
        metrics = {
            "setup_s": statistics.median(starts),
            "wall_s": statistics.median(calibrate.scale(t, k[0]) for t, k in zip(res["walls"], res["kernels"])),
            "cpu_s": statistics.median(calibrate.scale(t, k[1]) for t, k in zip(res["cpus"], res["kernels"])),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=res["rounds"],
                  setup_starts=starts, walls=res["walls"], cpus=res["cpus"], kernels=res["kernels"],
                  traced_walls=res.get("traced_walls"),
                  op_times=[[op["id"], t] for op, t in zip(ops, res["op_times"])], failures=report)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for item in report:
        print(f"{'known fault' if item['known_fault'] else 'FAILED'}: {item['op']}: {item['issues'][0]}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
