"""The three workloads as lists of operations, made from a seed.

An operation is a plain dict: what the worker calls (``call`` plus its
arguments) and what the checker needs to judge the output (``check``).  One
round of a workload runs every operation once; a run repeats whole rounds.
The seed moves grid points, levels, parameters and random streams; it never
changes how many operations a round holds, how large they are, or which of
them are known faults.
"""

from __future__ import annotations

import os
import random

import reference as ref

BLOCK = 4096
CONVERGE_REPS = 24 * BLOCK  # about 1e5, and an even number of blocks
SHORT_REPS = 3 * BLOCK


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """count increasing points, one uniformly inside each of count equal cells."""
    w = (hi - lo) / count
    return [lo + w * (i + rng.random()) for i in range(count)]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _pow2(a: int, b: int) -> list[int]:
    return [2**e for e in range(a, b + 1)]


def _cli(op_id: str, argv: list[str], check: dict, fault: str | None = None) -> dict:
    return {"id": op_id, "call": "cli", "argv": argv, "check": check, "fault": fault}


def _diagonal(name, spec, flags, ns, ns_arg, grid, fault=None, op_id=None):
    argv = ["diagonal", "--family", name, *flags, "--n", ns_arg, "--u-grid", _csv(grid)]
    return _cli(op_id or f"diagonal {name} {' '.join(flags)}".strip(), argv,
                {"kind": "diagonal", "family": spec, "n": ns, "u": grid}, fault)


def _distortion(name, families, flags, grid, fault=None, op_id=None):
    argv = ["distortion", "--generator", name, *flags, "--u-grid", _csv(grid)]
    return _cli(op_id or f"distortion {name} {' '.join(flags)}".strip(), argv,
                {"kind": "distortion", "families": families, "u": grid}, fault)


def _converge(model, flags, margin, spec, ns, reps, seed, workers, alpha=None, same_as=None, op_id=None):
    argv = ["converge", "--model", model, *flags, "--margin", margin, *(["--alpha", str(alpha)] if alpha else []),
            "--n", ",".join(map(str, ns)), "--reps", str(reps), "--seed", str(seed), "--workers", str(workers)]
    return _cli(op_id or f"converge {model} w={workers}", argv,
                {"kind": "converge", "model": model, "family": spec, "margin": margin, "alpha": alpha,
                 "n": ns, "reps": reps, "same_as": same_as})


# The figure1 preset of `maxdep distortion --generator figure1`, as documented
# in the README: label and reference family of each curve.
FIGURE1 = [
    ["independence", ["arch", "independence"]],
    ["amh(0.5)", ["arch", "amh", 0.5]],
    ["clayton(1.0)", ["arch", "clayton", 1.0]],
    ["clayton(4.0)", ["arch", "clayton", 4.0]],
    ["frank(2.0)", ["arch", "frank", 2.0]],
    ["gumbel(2.0)", ["arch", "gumbel", 2.0]],
    ["joe(2.0)", ["arch", "joe", 2.0]],
    ["ballerini", ["arch", "ballerini"]],
]


def touch_ops(rng: random.Random) -> list[dict]:
    """One small call into each layer, ending every round of every workload.

    They keep every per-layer metric measured on every workload; together
    they cost about 30 ms a round.
    """
    w = nproc()
    return [
        _diagonal("clayton", ["arch", "clayton", 2.0], ["--theta", "2"], [2, 8], "2,8", _grid(rng, 0.1, 0.9, 3),
                  op_id="diagonal clayton (touch)"),
        _distortion("clayton", [["arch-limit[clayton(2.0)]", ["arch", "clayton", 2.0]]], ["--theta", "2"],
                    _grid(rng, 0.1, 0.9, 3), op_id="distortion clayton (touch)"),
        _cli("bound movingmax-normal (touch)", ["bound", "--model", "movingmax-normal", "--k", "1", "--n", "2^7..2^8"],
             {"kind": "bound", "scenario": "movingmax-normal", "k": 1, "n": [128, 256]}),
        _cli("mixing clayton (touch)", ["mixing", "--family", "clayton", "--theta", "2", "--t1", "0.25", "--t2", "0.25",
                                        "--u", "0.5", "--n", "2^4..2^5"],
             {"kind": "mixing", "family": ["arch", "clayton", 2.0], "t1": 0.25, "t2": 0.25, "u": 0.5, "n": [16, 32]}),
        _converge("clayton", ["--theta", "2"], "unit-frechet", ["arch", "clayton", 2.0], [16], BLOCK,
                  rng.randrange(1 << 30), w, op_id="converge clayton (touch)"),
        {"id": "distortion_sup_distance (touch)", "call": "sup_distance", "family": ["arch", "gumbel", 2.0],
         "n": 64, "check": {"kind": "sup"}},
    ]


def tables(seed: int) -> list[dict]:
    """Analytic tables through maxdep.cli.main; the samplers do no work here."""
    rng = random.Random(seed)
    g41 = lambda: _grid(rng, 0.02, 0.98, 41)
    d199 = lambda: _grid(rng, 0.005, 0.995, 199)
    ops = []
    efgm_ns = _pow2(4, 14)  # 2^14 takes the adaptive-quadrature path
    for th in (0.8, -0.5):
        ops.append(_diagonal("efgm", ["efgm", th], ["--theta", str(th)], efgm_ns, "2^4..2^14", g41()))
    ns = _pow2(1, 14)
    for name, spec, flags in [
        ("ballerini", ["arch", "ballerini"], []),
        ("clayton", ["arch", "clayton", 2.0], ["--theta", "2"]),
        ("gumbel", ["arch", "gumbel", 2.0], ["--theta", "2"]),
        ("joe", ["arch", "joe", 2.0], ["--theta", "2"]),
        ("frank", ["arch", "frank", 3.0], ["--theta", "3"]),
        ("amh", ["arch", "amh", 0.6], ["--theta", "0.6"]),
        ("movingmax", ["movingmax", 2], ["--k", "2"]),
        ("cuadras-auge", ["cuadras-auge", 0.4], ["--theta", "0.4"]),
        ("logistic", ["logistic", 2.0], ["--theta", "2"]),
    ]:
        ops.append(_diagonal(name, spec, flags, ns, "2^1..2^14", g41()))
    ops.append(_distortion("figure1", FIGURE1, [], d199()))
    ops.append(_distortion("efgm", [["efgm(0.8)", ["efgm", 0.8]]], ["--theta", "0.8"], d199()))
    ops.append(_distortion("ballerini", [["arch-limit[ballerini]", ["arch", "ballerini"]]], [], d199()))
    ops.append(_distortion("joe", [["arch-limit[joe(2.0)]", ["arch", "joe", 2.0]]], ["--theta", "2"], d199()))
    # 199 points of this quadrature mixture take ~10 s; 11 keep it under a
    # third of the round
    ops.append(_distortion("amh-mixture", [["amh-uniform-mixture", ["amh-mixture"]]], [],
                           _grid(rng, 0.01, 0.99, 11)))
    ops.append(_cli("bound movingmax-normal", ["bound", "--model", "movingmax-normal", "--k", "1", "--n", "2^7..2^14"],
                    {"kind": "bound", "scenario": "movingmax-normal", "k": 1, "n": _pow2(7, 14)}))
    ops.append(_cli("bound logistic-normal", ["bound", "--model", "logistic-normal", "--theta", "2", "--n", "2^7..2^14"],
                    {"kind": "bound", "scenario": "logistic-normal", "theta": 2.0, "n": _pow2(7, 14)}))
    ca_ns = sorted(rng.sample(range(1, 65), 8))
    ops.append(_cli("bound cuadras-auge", ["bound", "--model", "cuadras-auge", "--theta", "0.5", "--n",
                                           ",".join(map(str, ca_ns))],
                    {"kind": "bound", "scenario": "cuadras-auge", "theta": 0.5, "n": ca_ns}))
    ops.append(_cli("bound iid-frechet", ["bound", "--model", "iid-frechet", "--n", "2^1..2^10"],
                    {"kind": "bound", "scenario": "iid-frechet", "n": _pow2(1, 10)}))
    for fam, spec, flags, t1, t2, nsarg, mns in [
        ("logistic", ["logistic", 2.0], ["--theta", "2"], 0.25, 0.25, "2^10..2^20", _pow2(10, 20)),
        ("clayton", ["arch", "clayton", 2.0], ["--theta", "2"], 0.3, 0.2, "2^4..2^14", _pow2(4, 14)),
    ]:
        u = round(rng.uniform(0.3, 0.7), 6)
        ops.append(_cli(f"mixing {fam}", ["mixing", "--family", fam, *flags, "--t1", str(t1), "--t2", str(t2),
                                          "--u", repr(u), "--n", nsarg],
                        {"kind": "mixing", "family": spec, "t1": t1, "t2": t2, "u": u, "n": mns}))
    # Three known faults, on fixed inputs: each fails on every run.
    ops.append(_diagonal("ballerini", ["arch", "ballerini"], [], [2], "2", [1e-200, 0.999999999999999],
                         fault="generators._numeric_inverse clamps to [1e-12, 1e12]",
                         op_id="fault: ballerini diagonal at 1e-200 and 1-1e-15"))
    ops.append(_distortion("efgm", [["efgm(0.8)", ["efgm", 0.8]]], ["--theta", "0.8"], [1e-9],
                           fault="distortions._numeric_quantile bisects to an absolute 1e-13",
                           op_id="fault: efgm quantile at 1e-9"))
    ops.append(_distortion("joe", [["arch-limit[joe(2.0)]", ["arch", "joe", 2.0]]], ["--theta", "2"], [1e-17],
                           fault="joe psi_inv -log1p(-(1-u)**theta) is inf below u ~ 1e-16",
                           op_id="fault: joe quantile at 1e-17"))
    return ops + touch_ops(rng)


def converge(seed: int) -> list[dict]:
    """maxdep converge for nine models; the samplers do almost all the work."""
    rng = random.Random(seed)
    w = nproc()
    R = CONVERGE_REPS
    s = lambda: rng.randrange(1 << 30)
    ops = [
        _converge("movingmax", ["--k", "2"], "unit-frechet", ["movingmax", 2], [64, 512], R, s(), w),
        _converge("clayton", ["--theta", "2"], "unit-frechet", ["arch", "clayton", 2.0], [64, 512], R, s(), w),
        _converge("gumbel", ["--theta", "2"], "exponential", ["arch", "gumbel", 2.0], [64, 512], R, s(), w),
        _converge("frank", ["--theta", "3"], "unit-frechet", ["arch", "frank", 3.0], [64, 512], R, s(), w),
        _converge("joe", ["--theta", "2"], "unit-frechet", ["arch", "joe", 2.0], [256], R, s(), w),
        _converge("amh", ["--theta", "0.6"], "pareto", ["arch", "amh", 0.6], [64, 512], R, s(), w, alpha=2.0),
        _converge("efgm", ["--theta", "0.8"], "unit-frechet", ["efgm", 0.8], [64, 512], R, s(), w),
        _converge("iid", [], "normal", ["independence"], [64, 1024], R, s(), w),
        _converge("ar1", ["--phi", "0.5"], "normal", None, [64, 256], R, s(), w),
    ]
    # C14: one model at one worker and at nproc workers prints the same bytes
    seed_c14 = s()
    ops.append(_converge("frank", ["--theta", "3"], "unit-frechet", ["arch", "frank", 3.0], [64], R, seed_c14, w,
                         op_id=f"converge frank n=64 w={w} (C14)"))
    ops.append(_converge("frank", ["--theta", "3"], "unit-frechet", ["arch", "frank", 3.0], [64], R, seed_c14, 1,
                         same_as=len(ops) - 1, op_id="converge frank n=64 w=1 (C14)"))
    return ops + touch_ops(rng)


def _model_and_family(kind):
    """A sampler model spec and its reference diagonal family."""
    return {
        "clayton": (["frailty", "clayton", 2.0], ["arch", "clayton", 2.0]),
        "gumbel": (["frailty", "gumbel", 2.0], ["arch", "gumbel", 2.0]),
        "frank": (["frailty", "frank", 3.0], ["arch", "frank", 3.0]),
        "joe": (["frailty", "joe", 2.0], ["arch", "joe", 2.0]),
        "amh": (["frailty", "amh", 0.6], ["arch", "amh", 0.6]),
        "movingmax": (["movingmax", 1], ["movingmax", 1]),
        "efgm": (["efgm", 0.8], ["efgm", 0.8]),
        "iid": (["iid"], ["independence"]),
    }[kind]


def crosscheck(seed: int) -> list[dict]:
    """The library's validation loop: many short estimator and scalar calls."""
    rng = random.Random(seed)
    w = nproc()
    ops = []
    stream = iter(range(1, 1 << 20))

    def mc(call, model, n, reps, check, **extra):
        name = model[1] if model[0] in ("frailty", "archimax") else model[0]
        return {"id": f"{call} {name}{' (archimax)' if model[0] == 'archimax' else ''} n={n}", "call": call,
                "model": model, "n": n, "reps": reps, "stream": [seed, next(stream)], "workers": w,
                "check": check, **extra}

    # sizes are fixed so every seed does the same work; the seed moves levels,
    # parameters and streams
    for kind in ("clayton", "gumbel", "frank", "joe", "amh", "movingmax", "efgm", "iid"):
        model, spec = _model_and_family(kind)
        fam = ref.family(spec)
        for n in (4, 64, 256):
            u = fam.draw_u(n, rng.uniform(0.2, 0.8))
            ops.append(mc("empirical_diagonal", model, n, SHORT_REPS, {"kind": "mc_diag", "family": spec}, u=u))
    for fam_name, th, th_stdf, n in (("clayton", 1.5, 2.0, 8), ("gumbel", 1.5, 1.5, 32), ("joe", 2.0, 3.0, 128)):
        spec = ["archimax", fam_name, th, th_stdf]
        u = ref.family(spec).draw_u(n, rng.uniform(0.2, 0.8))
        ops.append(mc("empirical_diagonal", ["archimax", fam_name, th, th_stdf], n, SHORT_REPS,
                      {"kind": "mc_diag", "family": spec}, u=u))
    for n in (16, 64, 256, 512):
        rho = round(rng.uniform(0.1, 0.6), 4)
        xs = [ref.berman_level(rho, n, p) for p in (0.25, 0.5, 0.75)]
        ops.append(mc("max_sample", ["berman", rho], n, SHORT_REPS,
                      {"kind": "berman", "rho": rho, "x": xs}, uthresh=[ref.ncdf(x) for x in xs]))
    for kind, n in (("clayton", 8), ("efgm", 16)):
        model, spec = _model_and_family(kind)
        u = ref.family(spec).draw_u(n, rng.uniform(0.3, 0.7))
        ops.append(mc("sample_paths", model, n, 2 * BLOCK, {"kind": "paths", "family": spec}, u=u))
    ops.append(mc("sample_paths", ["ar1", 0.5], 32, 2 * BLOCK, {"kind": "paths", "family": None},
                  u=round(rng.uniform(0.6, 0.95), 6)))
    # Clayton is left out: its sup lies near u = 1e-130, below the grid the
    # program scans (see the FOUND line in CHANGES.md)
    for spec in (["arch", "amh", 0.6], ["arch", "gumbel", 2.0], ["arch", "joe", 2.0], ["arch", "frank", 3.0],
                 ["movingmax", 1], ["efgm", 0.8]):
        ops.append({"id": f"distortion_sup_distance {spec[-2] if spec[0] == 'arch' else spec[0]}",
                    "call": "sup_distance", "family": spec, "n": 256,
                    "check": {"kind": "sup"}})
    a = rng.uniform(0.2, 2.0)
    for fn, args in (
        ("sup_power_diff", [a, a * rng.uniform(1.05, 3.0)]),
        ("sup_power_diff", [a, a * (1 + 1e-6)]),
        ("movingmax_s", [rng.randrange(2, 5000), rng.randrange(1, 5)]),
        ("cuadras_auge_sup", [rng.randrange(1, 60), round(rng.uniform(0.1, 0.9), 4)]),
        ("composite_rate_bound", [rng.uniform(0, 0.5), rng.uniform(0, 0.1), 1.0, 0.5, rng.uniform(10, 1e4)]),
        ("ceil_power_cdf_bound", [rng.uniform(1, 1e4)]),
        ("ceil_rate_bound", [rng.uniform(1, 1e4)]),
    ):
        ops.append({"id": f"{fn} {len(ops)}", "call": "ratebound", "fn": fn, "args": args,
                    "check": {"kind": "ratebound"}})
    for spec in (["arch", "clayton", 2.0], ["logistic", 2.0]):
        ops.append({"id": f"mixing_discrepancy {spec[1] if spec[0] == 'arch' else spec[0]}",
                    "call": "mixing_discrepancy", "family": spec, "n": 1024, "t1": 0.25, "t2": 0.25,
                    "v": round(rng.uniform(0.9, 0.999), 6), "check": {"kind": "mixing_scalar"}})
    return ops + touch_ops(rng)


WORKLOADS = {"tables": tables, "converge": converge, "crosscheck": crosscheck}
