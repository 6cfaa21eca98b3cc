"""Runs one workload's operations in rounds and reports outputs and timings.

Reads the operation list (JSON) on stdin and prints one JSON object on
stdout.  Started by run.py with PYTHONPATH pointing at the checkout's src/
and BLAS/OpenMP pinned to one thread.

    python3 bench/worker.py --seconds 20 --trace 0 < ops.json
    python3 bench/worker.py --setup-only < ops.json   # import and build only

A round runs every operation once.  Rounds repeat until the next one would
end past --seconds, and at least three run.  With --trace 1 the rounds
alternate untraced and traced, starting untraced, so the tracing overhead is
the difference of their medians.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import statistics
import sys
import time

MIN_ROUNDS = 3
CALIBRATE_EVERY_S = 0.3


def build_model(spec):
    from maxdep import samplers

    kind, *a = spec
    return {
        "frailty": lambda: samplers.ArchimedeanFrailty(*a),
        "movingmax": lambda: samplers.MovingMax(*a),
        "efgm": lambda: samplers.EfgmExchangeable(*a),
        "iid": lambda: samplers.IID(),
        "archimax": lambda: samplers.ArchimaxLogistic(*a),
        "berman": lambda: samplers.BermanEquicorrelated(*a),
        "ar1": lambda: samplers.GaussianAR1(*a),
    }[kind]()


def build_family(spec):
    import maxdep

    kind, *a = spec
    if kind == "arch":
        return maxdep.make_diagonal("archimedean", family=a[0], theta=a[1] if len(a) > 1 else None)
    return maxdep.make_diagonal(kind, **({"k": a[0]} if kind == "movingmax" else {"theta": a[0]}))


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def prepare(op):
    """A zero-argument callable running op and returning a JSON-able output.

    Everything an operation needs that a library user would build once
    (models, families, streams) is built here, before timing starts.
    """
    import numpy as np
    import maxdep
    from maxdep import cli

    call = op["call"]
    if call == "cli":
        argv = op["argv"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return {"rc": rc, "text": buf.getvalue()}

        return run
    if call in ("empirical_diagonal", "max_sample", "sample_paths"):
        model = build_model(op["model"])
        rng = maxdep.RngStream(*op["stream"])
        n, reps, workers = op["n"], op["reps"], op["workers"]
        if call == "empirical_diagonal":
            u = op["u"]

            def run():
                est = maxdep.empirical_diagonal(model, n, u, reps, rng, workers=workers)
                return [est.value, est.std_error]

        elif call == "max_sample":
            thresholds = op["uthresh"]

            def run():
                umax = maxdep.max_sample(model, None, n, reps, rng, workers=workers)
                return [int(np.count_nonzero(umax <= t)) for t in thresholds]

        else:
            u = op["u"]

            def run():
                paths = maxdep.sample_paths(model, None, n, reps, rng)
                return [int(np.count_nonzero(paths.max(axis=1) <= u)), int(np.count_nonzero(paths[:, 0] <= u))]

        return run
    if call == "sup_distance":
        fam = build_family(op["family"])
        n = op["n"]
        return lambda: maxdep.distortion_sup_distance(fam, None, n, fam.limit_distortion)
    if call == "mixing_discrepancy":
        fam = build_family(op["family"])
        return lambda: maxdep.mixing_discrepancy(fam, op["n"], op["t1"], op["t2"], op["v"])
    if call == "ratebound":
        fn = getattr(maxdep, op["fn"])
        return lambda: _plain(fn(*op["args"]))
    raise ValueError(f"unknown operation {call!r}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="where to write the spans of a traced run")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    ops = json.load(sys.stdin)

    import maxdep.cli  # noqa: F401  (the import every command-line call pays)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    runners = [prepare(op) for op in ops]
    if args.setup_only:
        return 0
    import calibrate  # after set-up, so set-up times only maxdep

    groups = [[] for _ in ops]  # per op: [output, [rounds]] for each distinct output
    op_times = [[] for _ in ops]
    walls, cpus, kernels, traced = [], [], [], []
    traced_wall = 0.0  # unscaled, for the share the top-level spans cover
    start = time.perf_counter()
    r = 0
    while True:
        on = bool(tracer) and r % 2 == 1
        if tracer:
            tracer.on = on
        # the calibration kernel runs at the start of the round and after any
        # operation that ends CALIBRATE_EVERY_S after its last pass; its time
        # is left out of the round's wall and CPU time
        k_walls, k_cpus = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        last_k = -CALIBRATE_EVERY_S
        for i, run in enumerate(runners):
            if time.perf_counter() - last_k >= CALIBRATE_EVERY_S:
                k_wall, k_cpu = calibrate.kernel_time()
                k_walls.append(k_wall)
                k_cpus.append(k_cpu)
                last_k = time.perf_counter()
            s = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a failing operation is reported, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            if not on:
                op_times[i].append(time.perf_counter() - s)
            for group in groups[i]:
                if group[0] == out:
                    group[1].append(r)
                    break
            else:
                groups[i].append([out, [r]])
        wall = time.perf_counter() - t0 - sum(k_walls)
        cpu = time.process_time() - c0 - sum(k_cpus)
        if tracer:
            tracer.on = False
        if on:
            traced.append(calibrate.scale(wall, k_walls))
            traced_wall += wall
        else:
            walls.append(wall)
            cpus.append(cpu)
            kernels.append([k_walls, k_cpus])
        r += 1
        if r >= MIN_ROUNDS and time.perf_counter() - start + wall > args.seconds:
            break

    result = {
        "rounds": r,
        "walls": walls,
        "cpus": cpus,
        "kernels": kernels,
        "op_times": op_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": groups,
    }
    if tracer:
        # both sides scaled to the reference host speed, the cold round left out
        warm = [calibrate.scale(w, k[0]) for w, k in zip(walls[1:], kernels[1:])]
        layers = tracing.summarize(tracer.spans, tracer.counts, len(traced), traced_wall)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(warm)
        result["layers"] = layers
        result["traced_walls"] = traced
        if args.spans:
            tracer.write(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
