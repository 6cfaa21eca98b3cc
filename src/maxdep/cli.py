"""Command-line experiment harness.

Subcommands: diagonal | distortion | bound | converge | mixing.  Tables are
written as CSV (default) or JSON lines, always preceded by a metadata comment
carrying the experiment configuration and seed so any output file can be
reproduced from its own header.  Exit codes: 0 success, 2 usage error,
3 numeric/domain error: a parameter outside its domain (an infinite or NaN
one included), a NaN table cell or an arithmetic error such as an
overflowing rate, each reported in one line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, diagonals, margins, models, ratebounds, samplers
from ._numutil import UnknownNameError, name_key
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
    try:
        if ":" not in spec:
            grid = np.array([float(tok) for tok in spec.split(",") if tok])
        else:
            a, b, count = spec.split(":")
            # linspace rejects a negative count with a ValueError
            grid = np.linspace(float(a), float(b), int(count))
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}; use a list or a:b:count") from exc
    if not grid.size:
        raise UsageError(f"grid {spec!r} has no points")
    return grid


def _cast(cast, text: str, what: str):
    """cast(text); text that does not parse is a usage error, not a numeric one."""
    try:
        return cast(text)
    except ValueError:
        raise UsageError(f"bad {what}: {text!r}") from None


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        out[key.strip().replace("_", "-")] = val.strip()
    return out


class Table:
    """Rows plus a reproducibility header; serializable as CSV or jsonl, both
    broadcast by ``_rows`` from the arrays ``add`` stored, as ``rows`` is."""

    def __init__(self, command: str, config: dict, columns: list[str]):
        self.command = command
        self.config = config
        self.columns = columns
        # the arrays of each add call before broadcasting, so that the CSV
        # text is made once for each value rather than once for each row
        self._blocks: list[list[np.ndarray]] = []

    def add(self, *values):
        """Append one row per element of the broadcast values, in C order.

        Scalars repeat, and an n column of shape (k, 1) against a grid of
        shape (m,) gives k*m rows, grid fastest.  A NaN cell is a numeric
        error: it raises before any row is appended, so it is never written
        out.  The values are copied, so changing an array after the call
        changes neither ``rows`` nor the rendered table.
        """
        arrays = [np.array(v, ndmin=1) for v in values]
        for name, col in zip(self.columns, np.broadcast_arrays(*arrays)):
            if np.any(col != col):
                raise ValueError(f"NaN in {self.command} column {name}")
        self._blocks.append(arrays)

    def _rows(self, cells=np.asarray):
        """Every row in C order: a tuple of the Python values (``tolist``) of cells(a), broadcast over each block."""
        blocks = (np.broadcast_arrays(*map(cells, arrays)) for arrays in self._blocks)
        return itertools.chain.from_iterable(zip(*(c.ravel().tolist() for c in cols)) for cols in blocks)

    @property
    def rows(self) -> list[list]:
        return list(map(list, self._rows()))

    def _meta(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        return f"maxdep {self.command} {items} version={__version__}"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            # the text csv.writer writes for rows, made without it: each added
            # array is formatted once, then broadcast by _rows; equal number
            # arrays (figure1's shared u column) are formatted only once
            lines = [f"# {self._meta()}", _QUOTE.writerow(self.columns)[:-1]]
            memo: dict[object, np.ndarray] = {}

            def text(a):
                # an object array's bytes are pointers, so it is its own key
                key = id(a) if a.dtype.kind == "O" else (a.dtype.str, a.shape, a.tobytes())
                if key not in memo:
                    memo[key] = _csv_text(a)
                return memo[key]

            lines.extend(map(",".join, self._rows(text)))
            if len(self.columns) == 1:
                # csv.writer quotes a lone empty cell, which would else be a blank line
                lines[2:] = [line or '""' for line in lines[2:]]
            return "\n".join(lines) + "\n"
        if fmt == "jsonl":
            lines = [json.dumps({"_meta": self._meta()}, sort_keys=True)]
            lines.extend(json.dumps(dict(zip(self.columns, map(_json_cell, row))), sort_keys=True, allow_nan=False)
                         for row in self._rows())
            return "\n".join(lines) + "\n"
        raise UsageError(f"unknown format {fmt!r}")


class _Echo:
    """A file whose write returns the line, so ``writerow`` returns it too."""

    write = staticmethod(str)


_QUOTE = csv.writer(_Echo(), lineterminator="\n")


def _csv_cell(v) -> str:
    """The text csv.writer writes for one cell.

    None is empty, a float its repr and an int its str.  Anything else is
    quoted by csv itself: its quoting of a field does not depend on the row,
    so the field is written ahead of an empty one and the ",\n" cut off.
    """
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    return _QUOTE.writerow((v, ""))[:-2]


def _csv_text(a: np.ndarray) -> np.ndarray:
    """The csv text of every cell of a, as an object array of a's shape."""
    if a.dtype.kind == "f" and a.itemsize <= 8:  # tolist gives Python floats
        fmt = float.__repr__
    elif a.dtype.kind in "iu":  # tolist gives Python ints
        fmt = int.__repr__
    else:
        fmt = _csv_cell
    return np.array(list(map(fmt, a.ravel().tolist())), dtype=object).reshape(a.shape)


def _json_cell(v):
    """An infinite cell as the text the CSV shows; JSON has no infinity."""
    if isinstance(v, float) and math.isinf(v):
        return repr(v)
    return v


def _resolve(name: str, role: str, args) -> tuple[models.ModelSpec, dict]:
    """(spec, params) of the model ``name``, which must have ``role``.

    role is a ``ModelSpec`` field: "diagonal", "sampler", "gap" or "limit".
    An unknown name, a model without that role and a missing parameter are
    usage errors.
    """
    spec = models.model_spec(name, role)
    return spec, {p: _require(args, p) for p in spec.params}


def _require(args, name: str):
    val = getattr(args, name, None)
    if val is None:
        flag = f"--{name.replace('_', '-')}"
        raise UsageError(f"{flag} is required here" if hasattr(args, name) else f"this subcommand has no {flag}")
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
        return diagonals.RATE_N
    if s.startswith("n^"):
        p = _cast(float, s[2:], f"exponent in rate spec {spec!r}")
        return diagonals.RateFn(lambda n: float(n) ** p, s)
    raise UsageError(f"unknown rate spec {spec!r}")


def cmd_diagonal(args) -> Table:
    """tabulate delta_n and its power distortion"""
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
    # the whole schedule in one call: one row of the table per (n, u); an
    # object array keeps an n past the int64 range exact
    n = np.array(ns, dtype=object)[:, None]
    table.add(n, grid, fam(n, grid), diagonals.power_distortion(fam, rate, n, grid))
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


def cmd_distortion(args) -> Table:
    """tabulate limit distortions (cdf/density/quantile)"""
    grid = _parse_grid(args.u_grid)
    config = {"generator": args.generator, "theta": args.theta, "u-grid": args.u_grid}
    table = Table("distortion", config, ["family", "u", "cdf", "density", "quantile"])
    if name_key(args.generator) == "figure1":
        curves = [(name, argparse.Namespace(theta=theta), f"{name}({theta})" if theta is not None else name)
                  for name, theta in _FIGURE1_PRESET]
    else:
        curves = [(args.generator, args, None)]
    # one array call per column; only the levels inside (0, 1) have a quantile
    inside = (grid > 0.0) & (grid < 1.0)
    for name, curve_args, label in curves:
        spec, params = _resolve(name, "limit", curve_args)
        D = spec.limit(**params)
        quantile = np.full(grid.shape, None)
        quantile[inside] = D.quantile(grid[inside])
        table.add(label or D.tag, grid, D.cdf(grid), D.density(grid), quantile)
    return table


def cmd_bound(args) -> Table:
    """uniform convergence-rate bounds per n"""
    ns = _parse_n_schedule(args.n)
    scenario = name_key(args.model)
    config = {"scenario": scenario, "n": args.n}
    if scenario == "movingmax-normal":
        spec, params = _resolve("movingmax", "gap", args)
        config["k"] = params["k"]
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term", "distortion_term", "holder_K", "holder_kappa"])
        margin = margins.StandardNormal()
        _add_reports(table, ns, [_composite_bound(spec, params, margin, n, float(n)) for n in ns])
        return table
    if scenario == "logistic-normal":
        theta = _require(args, "theta")
        config["theta"] = theta
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term"])
        margin = margins.StandardNormal()
        # the logistic model's canonical rate, without building its diagonal
        rate = diagonals.RateFn(diagonals.logistic_eta(theta), "eta")
        rates = [rate(n) for n in ns]
        # display form of the bound: the ceiling term is kept even when
        # r_n happens to be an integer (it only enlarges the bound)
        beta = np.array([margin.uniform_rate(int(math.ceil(r_n))) for r_n in rates])
        ceiling = np.array([ratebounds.ceil_power_cdf_bound(r_n) for r_n in rates])
        table.add(ns, beta + ceiling, beta, ceiling)
        return table
    if scenario == "cuadras-auge":
        theta = _require(args, "theta")
        config["theta"] = theta
        table = Table("bound", config, ["n", "exact", "bound"])
        table.add(ns, *zip(*(ratebounds.cuadras_auge_sup(n, theta) for n in ns)))
        return table
    if scenario == "iid-frechet":
        table = Table("bound", config, ["n", "bound", "margin_term", "ceiling_term", "distortion_term"])
        _add_reports(table, ns, [ratebounds.composite_rate_bound(0.0, 0.0, 1.0, 1.0, float(n)) for n in ns])
        return table
    raise UsageError(f"unknown bound scenario {args.model!r}")


def _add_reports(table: Table, ns: list[int], reports: list[ratebounds.RateBoundReport]) -> None:
    """One row per n; the columns after n name fields of its report."""
    table.add(ns, *([getattr(rep, col) for rep in reports] for col in table.columns[1:]))


def cmd_converge(args) -> Table:
    """MC sup distance of normalized-max ecdf from its limit"""
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
    x_grid = _parse_grid(args.x_grid) if args.x_grid else None
    for idx, n in enumerate(ns):
        r_n = rate(n)
        c, d, limit = margin.normalizers(int(math.ceil(r_n)))
        grid = x_grid if x_grid is not None else gev_quantile(limit, np.linspace(0.02, 0.98, 41))
        # the estimator first, so that a NaN threshold fails before any draw and before D sees it
        ecdf, se = samplers.normalized_max_ecdf(
            model, margin, n, args.reps, c, d, grid, samplers.RngStream(seed, idx), workers=args.workers
        )
        target = D.cdf(gev_cdf(limit, grid))
        sup = np.max(np.abs(ecdf - target))
        rep = _composite_bound(spec, params, margin, n, r_n)
        table.add(n, sup, np.max(se), rep.bound if rep else None)
    return table


def cmd_mixing(args) -> Table:
    """factorization discrepancy of the diagonal across index blocks"""
    spec, params = _resolve(args.family, "diagonal", args)
    fam = spec.diagonal(**params)
    if not fam.exchangeable:
        raise UsageError(f"family {fam.tag} is not exchangeable")
    rate = _rate_from_spec(fam, args.rate)
    ns = _parse_n_schedule(args.n)
    u = args.u
    if not 0.0 < u < 1.0:
        raise ValueError(f"--u must lie in (0, 1), got {u}")
    config = {"family": fam.tag, "t1": args.t1, "t2": args.t2, "u": u, "n": args.n}
    table = Table("mixing", config, ["n", "v", "discrepancy"])
    vs = np.array([math.exp(math.log(u) / rate(n)) for n in ns])
    for n, v in zip(ns, vs):
        if not 0.0 < v < 1.0:
            raise ValueError(f"u^(1/r_n) rounds to {v:g} at n={n} for --u {u}")
    # the whole schedule in one call; an object array keeps an n past the
    # int64 range exact
    table.add(ns, vs, diagonals.mixing_discrepancy(fam, np.array(ns, dtype=object), args.t1, args.t2, vs))
    return table


class _Flag(NamedTuple):
    """A flag's type (for its text on the command line and in a config file), default and help."""

    type: Callable[[str], object] = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


_REQUIRED = object()  # the default of a flag that must be set

# every flag, once.  Each is None at parse time so that a config file can fill
# it; its default fills it after that (flags > file > defaults)
_FLAGS = {
    "family": _Flag(default=_REQUIRED),
    "generator": _Flag(default=_REQUIRED, help="a model with a limit distortion (power, amh-mixture, efgm, clayton, ...) or figure1"),
    "model": _Flag(default=_REQUIRED, help="converge: a model with a sampler; bound: movingmax-normal | logistic-normal | cuadras-auge | iid-frechet"),
    "margin": _Flag(default=_REQUIRED),
    "theta": _Flag(float),
    "k": _Flag(int),
    "phi": _Flag(float),
    "alpha": _Flag(float, 1.0),
    "lam": _Flag(float, 1.0),
    "rate": _Flag(default="canonical"),
    "t1": _Flag(float, _REQUIRED),
    "t2": _Flag(float, _REQUIRED),
    "u": _Flag(float, _REQUIRED),
    "n": _Flag(default=_REQUIRED),
    "u_grid": _Flag(default="0.005:0.995:199"),
    "x_grid": _Flag(),
    "reps": _Flag(int, 10000),
    "config": _Flag(help="flat key=value config file; flags take precedence"),
    "format": _Flag(default="csv", choices=("csv", "jsonl")),
    "out": _Flag(help="output path (default stdout)"),
    "seed": _Flag(int, 20240901),
    "workers": _Flag(int, 1),
}

_COMMANDS = {
    "diagonal": cmd_diagonal,
    "distortion": cmd_distortion,
    "bound": cmd_bound,
    "converge": cmd_converge,
    "mixing": cmd_mixing,
}

# the flags of each subcommand, besides --config, --format and --out
_COMMAND_FLAGS = {
    "diagonal": ("family", "theta", "k", "rate", "n", "u_grid"),
    "distortion": ("generator", "theta", "u_grid"),
    "bound": ("model", "theta", "k", "n"),
    "converge": ("model", "margin", "theta", "k", "phi", "alpha", "lam", "n", "reps", "x_grid", "seed", "workers"),
    "mixing": ("family", "theta", "k", "rate", "t1", "t2", "u", "n"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    A subcommand's help is its function's docstring.  Parsing keeps no state
    in the parser: each call returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(prog="maxdep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__)
        for name in _COMMAND_FLAGS[command] + ("config", "format", "out"):
            flag = _FLAGS[name]
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=flag.type, choices=flag.choices, help=flag.help)
    return parser


def _fill_args(args):
    """Config-file values fill unset flags, then defaults fill the rest; a
    required flag that is still unset is a usage error, and so is a file
    value outside its flag's choices, before the command runs."""
    if args.config:
        keys = _COMMAND_FLAGS[args.command] + ("format", "out")
        for key, val in _read_config(args.config).items():
            attr = key.replace("-", "_")
            if attr not in keys:
                raise UsageError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                flag = _FLAGS[attr]
                value = _cast(flag.type, val, f"value for config key {key!r}")
                if flag.choices and value not in flag.choices:
                    raise UsageError(f"unknown {key} {value!r}")
                setattr(args, attr, value)
    for attr, val in vars(args).items():
        if val is None:
            if _FLAGS[attr].default is _REQUIRED:
                raise UsageError(f"--{attr.replace('_', '-')} is required")
            setattr(args, attr, _FLAGS[attr].default)
    if getattr(args, "workers", 1) < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _fill_args(args)
        if hasattr(args, "seed") and os.environ.get("MAXDEP_SEED"):
            args.seed = _cast(int, os.environ["MAXDEP_SEED"], "MAXDEP_SEED")
        text = _COMMANDS[args.command](args).render(args.format)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    except (UsageError, UnknownNameError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
