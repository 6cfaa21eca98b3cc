"""Command-line experiment harness.

Subcommands: diagonal | distortion | bound | converge | mixing.  Tables are
written as CSV (default) or JSON lines, always preceded by a metadata comment
carrying the experiment configuration and seed so any output file can be
reproduced from its own header.  Exit codes: 0 success, 2 usage error,
3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import diagonals, distortions, margins, models, ratebounds, samplers
from .gev import gev_cdf, gev_quantile


class UsageError(ValueError):
    pass


def _parse_n_schedule(spec: str) -> list[int]:
    """Explicit list '100,1000' (entries may be written 2^k) or geometric shorthand '2^4..2^10'."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..")
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise UsageError(f"bad n schedule {spec!r}; use e.g. 2^4..2^12")
        a, b = _pow2_exponent(lo, spec), _pow2_exponent(hi, spec)
        if b < a:
            raise UsageError("empty n schedule")
        return [2**e for e in range(a, b + 1)]
    try:
        tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
        return [2 ** _pow2_exponent(tok, spec) if tok.startswith("2^") else int(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"bad n schedule {spec!r}") from exc


def _pow2_exponent(tok: str, spec: str) -> int:
    """k of a '2^k' token; k must be a nonnegative integer."""
    if not tok[2:].isdecimal():
        raise UsageError(f"bad n schedule {spec!r}; exponents are nonnegative integers")
    return int(tok[2:])


def _parse_grid(spec: str) -> np.ndarray:
    """Comma list '0.25,0.5' or linspace shorthand 'a:b:count'."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad grid {spec!r}; use a:b:count")
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
        return np.linspace(a, b, count)
    try:
        return np.array([float(tok) for tok in spec.split(",") if tok])
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}") from exc


def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, _, val = line.partition("=")
            out[key.strip().replace("_", "-")] = val.strip()
    return out


class Table:
    """Rows plus a reproducibility header; serializable as CSV or jsonl."""

    def __init__(self, command: str, config: dict, columns: list[str]):
        self.command = command
        self.config = config
        self.columns = columns
        self.rows: list[list] = []

    def add(self, *values):
        """Append one row; a NaN cell is a numeric error, never written out."""
        if any(isinstance(v, float) and math.isnan(v) for v in values):
            raise ValueError(f"NaN in {self.command} row {values}")
        self.rows.append(list(values))

    def _meta(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        return f"maxdep {self.command} {items}"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            buf = io.StringIO()
            buf.write(f"# {self._meta()}\n")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(["" if v is None else str(v) for v in row])
            return buf.getvalue()
        if fmt == "jsonl":
            lines = [json.dumps({"_meta": self._meta()}, sort_keys=True)]
            for row in self.rows:
                lines.append(json.dumps(dict(zip(self.columns, row)), sort_keys=True))
            return "\n".join(lines) + "\n"
        raise UsageError(f"unknown format {fmt!r}")


def _resolve(name: str, role: str, args) -> tuple[models.ModelSpec, dict]:
    """(spec, params) of the model ``name``, which must have ``role``.

    role is a ``ModelSpec`` field: "diagonal", "sampler" or "gap".  An
    unknown name, a model without that role and a missing parameter are
    usage errors.
    """
    try:
        spec = models.model_spec(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if getattr(spec, role) is None:
        raise UsageError(f"model {name!r} has no {role}")
    return spec, {p: _require(args, p) for p in spec.params}


def _require(args, name: str):
    val = getattr(args, name, None)
    if val is None:
        raise UsageError(f"--{name.replace('_', '-')} is required here")
    return val


def _composite_bound(
    spec: models.ModelSpec, params: dict, margin: margins.Margin, n: int, r_n: float
) -> ratebounds.RateBoundReport | None:
    """Composite rate bound from the model's exact gap s(n), or None.

    None where the model has no known gap or the margin no known rate.
    """
    if spec.gap is None:
        return None
    try:
        beta = margin.uniform_rate(int(math.ceil(r_n)))
    except margins.NoKnownRateError:
        return None
    s_n, kappa = spec.gap(n, **params)
    return ratebounds.composite_rate_bound(beta, s_n, 1.0, kappa, r_n)


def _rate_from_spec(fam: diagonals.DiagonalFamily, spec: str) -> diagonals.RateFn:
    s = (spec or "canonical").lower()
    if s == "canonical":
        if fam.canonical_rate is None:
            raise UsageError(f"family {fam.tag} has no canonical rate; pass --rate n")
        return fam.canonical_rate
    if s == "n":
        return diagonals.RateFn(lambda n: float(n), "n")
    if s.startswith("n^"):
        p = float(s[2:])
        return diagonals.RateFn(lambda n: float(n) ** p, s)
    raise UsageError(f"unknown rate spec {spec!r}")


def cmd_diagonal(args) -> Table:
    spec, params = _resolve(args.family, "diagonal", args)
    fam = spec.diagonal(**params)
    rate = _rate_from_spec(fam, args.rate)
    ns = _parse_n_schedule(args.n)
    grid = _parse_grid(args.u_grid)
    config = {
        "family": fam.tag,
        "rate": rate.tag or args.rate,
        "n": args.n,
        "u-grid": args.u_grid,
    }
    table = Table("diagonal", config, ["n", "u", "delta", "distortion"])
    for n in ns:
        delta = np.atleast_1d(fam(n, grid))
        dist = np.atleast_1d(diagonals.power_distortion(fam, rate, n, grid))
        for u, dv, pv in zip(grid, delta, dist):
            table.add(n, float(u), float(dv), float(pv))
    return table


_FIGURE1_PRESET = [
    ("independence", None),
    ("amh", 0.5),
    ("clayton", 1.0),
    ("clayton", 4.0),
    ("frank", 2.0),
    ("gumbel", 2.0),
    ("joe", 2.0),
    ("ballerini", None),
]


def _distortion_from_spec(name: str, theta):
    s = name.lower().replace("_", "-")
    if s == "power":
        return distortions.power(_need(theta, "power"))
    if s == "efgm":
        return distortions.efgm_limit(_need(theta, "efgm"))
    if s in ("amh-mixture", "amh-uniform-mixture"):
        return distortions.amh_uniform_mixture()
    return distortions.make_distortion("archimedean", family=s, theta=theta)


def _need(theta, what):
    if theta is None:
        raise UsageError(f"--theta is required for {what}")
    return theta


def cmd_distortion(args) -> Table:
    grid = _parse_grid(args.u_grid)
    config = {"generator": args.generator, "theta": args.theta, "u-grid": args.u_grid}
    table = Table("distortion", config, ["family", "u", "cdf", "density", "quantile"])
    if args.generator.lower() == "figure1":
        specs = [(f"{fam}({th})" if th is not None else fam, _distortion_from_spec(fam, th)) for fam, th in _FIGURE1_PRESET]
    else:
        D = _distortion_from_spec(args.generator, args.theta)
        specs = [(D.tag, D)]
    for label, D in specs:
        for u in grid:
            u = float(u)
            q = float(D.quantile(u)) if 0.0 < u < 1.0 else None
            table.add(label, u, float(D.cdf(u)), float(D.density(u)), q)
    return table


def cmd_bound(args) -> Table:
    ns = _parse_n_schedule(args.n)
    scenario = args.model.lower().replace("_", "-")
    config = {"scenario": scenario, "n": args.n}
    if scenario == "movingmax-normal":
        spec, params = _resolve("movingmax", "gap", args)
        config["k"] = params["k"]
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term", "distortion_term", "holder_K", "holder_kappa"])
        margin = margins.StandardNormal()
        for n in ns:
            rep = _composite_bound(spec, params, margin, n, float(n))
            table.add(n, rep.bound, rep.margin_term, rep.ceiling_term, rep.distortion_term, rep.holder_K, rep.holder_kappa)
        return table
    if scenario == "logistic-normal":
        theta = _require(args, "theta")
        config["theta"] = theta
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term"])
        margin = margins.StandardNormal()
        for n in ns:
            r_n = float(n) ** (1.0 / theta)
            # display form of the bound: the ceiling term is kept even when
            # r_n happens to be an integer (it only enlarges the bound)
            beta = margin.uniform_rate(int(math.ceil(r_n)))
            ceiling = ratebounds.ceil_power_cdf_bound(r_n)
            table.add(n, beta + ceiling, beta, ceiling)
        return table
    if scenario == "cuadras-auge":
        theta = _require(args, "theta")
        config["theta"] = theta
        table = Table("bound", config, ["n", "exact", "bound"])
        for n in ns:
            exact, bound = ratebounds.cuadras_auge_sup(n, theta)
            table.add(n, exact, bound)
        return table
    if scenario == "iid-frechet":
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term", "distortion_term"])
        for n in ns:
            rep = ratebounds.composite_rate_bound(0.0, 0.0, 1.0, 1.0, float(n))
            table.add(n, rep.bound, rep.margin_term, rep.ceiling_term, rep.distortion_term)
        return table
    raise UsageError(f"unknown bound scenario {args.model!r}")


def cmd_converge(args) -> Table:
    spec, params = _resolve(args.model, "sampler", args)
    model = spec.sampler(**params)
    # ar1 has no diagonal; with extremal index 1 it takes the independence
    # rate and distortion
    fam = spec.diagonal(**params) if spec.diagonal else models.MODELS["independence"].diagonal()
    margin = margins.make_margin(args.margin, alpha=args.alpha, lam=args.lam)
    ns = _parse_n_schedule(args.n)
    D = fam.limit_distortion
    rate = fam.canonical_rate
    seed = args.seed
    config = {
        "model": model.tag,
        "margin": margin.tag,
        "n": args.n,
        "reps": args.reps,
        "seed": seed,
        "x-grid": args.x_grid or "auto41",
    }
    table = Table("converge", config, ["n", "sup_distance", "max_se", "bound"])
    for idx, n in enumerate(ns):
        r_n = rate(n)
        c, d, limit = margin.normalizers(int(math.ceil(r_n)))
        if args.x_grid:
            grid = _parse_grid(args.x_grid)
        else:
            grid = gev_quantile(limit, np.linspace(0.02, 0.98, 41))
        target = np.asarray(D.cdf(gev_cdf(limit, grid)), dtype=float)
        ecdf, se = samplers.normalized_max_ecdf(
            model, margin, n, args.reps, c, d, grid, samplers.RngStream(seed, idx), workers=args.workers
        )
        sup = float(np.max(np.abs(ecdf - target)))
        rep = _composite_bound(spec, params, margin, n, r_n)
        table.add(n, sup, float(np.max(se)), rep.bound if rep else None)
    return table


def cmd_mixing(args) -> Table:
    spec, params = _resolve(args.family, "diagonal", args)
    fam = spec.diagonal(**params)
    if not fam.exchangeable:
        raise UsageError(f"family {fam.tag} is not exchangeable")
    rate = _rate_from_spec(fam, args.rate)
    ns = _parse_n_schedule(args.n)
    u = args.u
    config = {"family": fam.tag, "t1": args.t1, "t2": args.t2, "u": u, "n": args.n}
    table = Table("mixing", config, ["n", "v", "discrepancy"])
    for n in ns:
        v = math.exp(math.log(u) / rate(n))
        table.add(n, v, diagonals.mixing_discrepancy(fam, n, args.t1, args.t2, v))
    return table


# every configurable flag defaults to None at parse time so a config file can
# fill it; hard defaults are applied afterwards (flags > file > defaults)
_CASTS = {
    "theta": float,
    "k": int,
    "phi": float,
    "alpha": float,
    "lam": float,
    "reps": int,
    "seed": int,
    "workers": int,
    "t1": float,
    "t2": float,
    "u": float,
}
_DEFAULTS = {
    "format": "csv",
    "rate": "canonical",
    "u_grid": "0.005:0.995:199",
    "alpha": 1.0,
    "lam": 1.0,
    "reps": 10000,
    "seed": 20240901,
    "workers": 1,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxdep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_seed=False):
        p.add_argument("--config", help="flat key=value config file; flags take precedence")
        p.add_argument("--format", choices=["csv", "jsonl"])
        p.add_argument("--out", help="output path (default stdout)")
        if needs_seed:
            p.add_argument("--seed", type=int)
            p.add_argument("--workers", type=int)

    p = sub.add_parser("diagonal", help="tabulate delta_n and its power distortion")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--rate")
    p.add_argument("--n", required=True)
    p.add_argument("--u-grid", dest="u_grid")
    common(p)

    p = sub.add_parser("distortion", help="tabulate limit distortions (cdf/density/quantile)")
    p.add_argument("--generator", required=True, help="generator family, efgm, power, amh-mixture, or figure1")
    p.add_argument("--theta", type=float)
    p.add_argument("--u-grid", dest="u_grid")
    common(p)

    p = sub.add_parser("bound", help="uniform convergence-rate bounds per n")
    p.add_argument("--model", required=True, help="movingmax-normal | logistic-normal | cuadras-auge | iid-frechet")
    p.add_argument("--theta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--n", required=True)
    common(p)

    p = sub.add_parser("converge", help="MC sup distance of normalized-max ecdf from its limit")
    p.add_argument("--model", required=True)
    p.add_argument("--margin", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--phi", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--n", required=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--x-grid", dest="x_grid")
    common(p, needs_seed=True)

    p = sub.add_parser("mixing", help="factorization discrepancy of the diagonal across index blocks")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--rate")
    p.add_argument("--t1", type=float)
    p.add_argument("--t2", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--n", required=True)
    common(p)

    return parser


_COMMANDS = {
    "diagonal": cmd_diagonal,
    "distortion": cmd_distortion,
    "bound": cmd_bound,
    "converge": cmd_converge,
    "mixing": cmd_mixing,
}


def _fill_args(args):
    """Config-file values fill unset flags, then hard defaults fill the rest."""
    if getattr(args, "config", None):
        for key, val in _read_config(args.config).items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise UsageError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                setattr(args, attr, _CASTS.get(attr, str)(val))
    for attr, default in _DEFAULTS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, default)
    for attr in ("t1", "t2", "u"):
        if hasattr(args, attr) and getattr(args, attr) is None:
            raise UsageError(f"--{attr} is required")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _fill_args(args)
        if hasattr(args, "seed") and os.environ.get("MAXDEP_SEED"):
            args.seed = int(os.environ["MAXDEP_SEED"])
        table = _COMMANDS[args.command](args)
        text = table.render(args.format)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
