"""Spans and counters around the calls into each maxdep module, from outside.

``instrument(tracer)`` rebinds the public names of the library modules to
wrappers: module functions, methods of the margin classes, the callables
held by generator and distortion objects, ``DiagonalFamily.__call__``,
``Table.render``, ``RngStream.block_generator``, the ``ThreadPoolExecutor``
that ``samplers`` uses and the bisection that ``distortions`` uses.  Nothing
under ``src/`` changes.  A wrapper costs one attribute test while the tracer
is off.

Spans live in memory as tuples (id, name, start, end, parent, cpu, elems)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else getattr(self._local, "inherited", 0)

    def count(self, key: str, value: float = 1) -> None:
        if self.on:
            with self._lock:
                self.counts[key] += value

    def wrap(self, name: str, fn, elems=None, cpu: bool = False):
        """fn inside a span called name; elems(args, kwargs) sizes the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = self.current()
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(sid)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, time.process_time() - c0 if cpu else 0.0,
                                   elems(args, kwargs) if elems else 0))

        traced.traced_as = name
        return traced

    def wrap_once(self, name: str, fn, elems=None):
        """wrap, unless fn is already a wrapper (factories that call factories)."""
        return fn if hasattr(fn, "traced_as") else self.wrap(name, fn, elems)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, cpu, n in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                                     "cpu": cpu, "elems": n}) + "\n")


def _size_first(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _size_arg(i):
    return lambda args, kwargs: int(np.size(args[i])) if len(args) > i else 0


def _path_elems(fn):
    sig = inspect.signature(fn)

    def elems(args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        return int(a["n"]) * int(a.get("reps", 1))

    return elems


def instrument(tracer: Tracer) -> None:
    """Rebind the public names of every maxdep module to traced wrappers."""
    from maxdep import cli, diagonals, distortions, gev, generators, margins, ratebounds, samplers
    import maxdep

    modules = [maxdep, cli, diagonals, distortions, gev, generators, margins, ratebounds, samplers]
    swap = {}  # original function -> wrapper, applied to every module namespace

    def instrument_result(fn, fix):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return fix(fn(*args, **kwargs))

        swap[fn] = build

    # generators: the psi / psi_inv callables of every generator handed out
    def fix_generator(g):
        if not isinstance(g, generators.ArchGenerator):
            return g
        return dataclasses.replace(g, psi=tracer.wrap_once("generators.psi", g.psi, _size_first),
                                   psi_inv=tracer.wrap_once("generators.psi_inv", g.psi_inv, _size_first))

    for name in ("builtin_generator", "generator_from_f", "scale_generator"):
        instrument_result(getattr(generators, name), fix_generator)

    # distortions: cdf / density / quantile of every distortion handed out
    def fix_distortion(d):
        if not isinstance(d, distortions.Distortion):
            return d
        return dataclasses.replace(
            d,
            cdf=tracer.wrap_once("distortions.cdf", d.cdf, _size_first),
            density=tracer.wrap_once("distortions.density", d.density, _size_first),
            quantile=tracer.wrap_once("distortions.quantile", d.quantile, _size_first),
        )

    for name in ("power", "archimedean_limit", "efgm_limit", "parameter_mixture", "mixture_over_interval",
                 "amh_uniform_mixture", "make_distortion"):
        instrument_result(getattr(distortions, name), fix_distortion)

    def counted_bisect(f, target, lo, hi, tol=1e-12, _orig=distortions.bisect_increasing):
        def f_counted(x):
            tracer.count("distortions.quantile.cdf_evals")
            return f(x)

        return _orig(f_counted, target, lo, hi, tol)

    distortions.bisect_increasing = counted_bisect

    # diagonals
    diagonals.DiagonalFamily.__call__ = tracer.wrap("diagonals.delta", diagonals.DiagonalFamily.__call__,
                                                    _size_arg(2))
    swap[diagonals.power_distortion] = tracer.wrap("diagonals.power_distortion", diagonals.power_distortion)
    swap[diagonals.distortion_sup_distance] = tracer.wrap("diagonals.sup_distance",
                                                          diagonals.distortion_sup_distance)
    swap[diagonals.mixing_discrepancy] = tracer.wrap("diagonals.mixing", diagonals.mixing_discrepancy)

    # gev, ratebounds: every public function is one layer
    for mod, layer in ((gev, "gev"), (ratebounds, "ratebounds")):
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                swap[obj] = tracer.wrap(layer, obj)

    # margins: the methods of every margin class
    for obj in vars(margins).values():
        if inspect.isclass(obj) and issubclass(obj, margins.Margin):
            for meth in ("cdf", "quantile", "normalizers", "uniform_rate", "hall_constant"):
                if meth in vars(obj):
                    setattr(obj, meth, tracer.wrap("margins", vars(obj)[meth]))

    # samplers: estimators, frailty draws, blocks and thread pools
    # sample_path only forwards to sample_paths, which is traced
    for name in ("normalized_max_ecdf", "empirical_diagonal", "max_sample", "sample_paths"):
        fn = getattr(samplers, name)
        swap[fn] = tracer.wrap("samplers.estimator", fn, _path_elems(fn), cpu=True)
    swap[samplers.frailty_sample] = tracer.wrap("samplers.frailty", samplers.frailty_sample,
                                                lambda a, k: int(a[3] if len(a) > 3 else k["m"]))

    block_generator = samplers.RngStream.block_generator

    def counted_block(self, block=0):
        tracer.count("samplers.blocks")
        return block_generator(self, block)

    samplers.RngStream.block_generator = counted_block

    class CountedPool(samplers.ThreadPoolExecutor):
        """Counts pool starts; worker spans get the submitting span as parent."""

        def __init__(self, *args, **kwargs):
            tracer.count("samplers.pool_starts")
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                tracer._local.inherited = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.inherited = 0

            return super().submit(run, *args, **kwargs)

    samplers.ThreadPoolExecutor = CountedPool

    # cli: one span per subcommand, rendering and the entry point
    for cmd in ("diagonal", "distortion", "bound", "converge", "mixing"):
        swap[getattr(cli, f"cmd_{cmd}")] = tracer.wrap(f"cli.{cmd}", getattr(cli, f"cmd_{cmd}"))
    swap[cli.main] = tracer.wrap("cli.main", cli.main)
    cli.Table.render = tracer.wrap("cli.render", cli.Table.render, lambda a, k: len(a[0].rows))

    # every namespace that holds an original (imports by name, dispatch dicts)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in swap:
                setattr(mod, name, swap[obj])
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in swap:
                        obj[key] = swap[val]


# ---------------------------------------------------------------------------
# per-layer figures from the spans of the traced rounds


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans, counts, rounds: int, traced_wall: float) -> dict[str, float]:
    """Per-round layer figures: calls, elements, self times and ratios."""
    children = defaultdict(list)
    for sid, name, t0, t1, parent, cpu, n in spans:
        if parent:
            children[parent].append((t0, t1))
    calls, elems, self_s, total_s, cpu_s = (defaultdict(float) for _ in range(5))
    top = []
    for sid, name, t0, t1, parent, cpu, n in spans:
        inner = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        self_s[name] += (t1 - t0) - _union_length(inner)
        total_s[name] += t1 - t0
        calls[name] += 1
        elems[name] += n
        cpu_s[name] += cpu
        if not parent:
            top.append((t0, t1))

    def per_round(v):
        return v / rounds

    est_total = total_s["samplers.estimator"]
    frailty_total = total_s["samplers.frailty"]
    quantile_elems = elems["distortions.quantile"]
    out = {
        "cli.diagonal_s": self_s["cli.diagonal"],
        "cli.distortion_s": self_s["cli.distortion"],
        "cli.bound_s": self_s["cli.bound"],
        "cli.mixing_s": self_s["cli.mixing"],
        "cli.render_s": self_s["cli.render"],
        "cli.render.rows": elems["cli.render"],
        "cli.converge_s": self_s["cli.converge"],
        "generators.psi.calls": calls["generators.psi"],
        "generators.psi.elems": elems["generators.psi"],
        "generators.psi_s": self_s["generators.psi"],
        "generators.psi_inv.calls": calls["generators.psi_inv"],
        "generators.psi_inv.elems": elems["generators.psi_inv"],
        "generators.psi_inv_s": self_s["generators.psi_inv"],
        "diagonals.delta.calls": calls["diagonals.delta"],
        "diagonals.delta.elems": elems["diagonals.delta"],
        "diagonals.delta_s": self_s["diagonals.delta"],
        "diagonals.power_distortion_s": self_s["diagonals.power_distortion"],
        "diagonals.sup_distance_s": self_s["diagonals.sup_distance"],
        "diagonals.mixing_s": self_s["diagonals.mixing"],
        "distortions.cdf_s": self_s["distortions.cdf"],
        "distortions.density_s": self_s["distortions.density"],
        "distortions.quantile.elems": quantile_elems,
        "distortions.quantile_s": self_s["distortions.quantile"],
        "margins_s": self_s["margins"],
        "gev_s": self_s["gev"],
        "ratebounds_s": self_s["ratebounds"],
        "samplers.estimator.calls": calls["samplers.estimator"],
        "samplers.estimator_s": self_s["samplers.estimator"],
        "samplers.estimator.cpu_s": cpu_s["samplers.estimator"],
        "samplers.blocks": counts["samplers.blocks"],
        "samplers.pool_starts": counts["samplers.pool_starts"],
        "samplers.path_elems": elems["samplers.estimator"],
        "samplers.frailty.draws": elems["samplers.frailty"],
        "samplers.frailty_s": self_s["samplers.frailty"],
    }
    out = {k: per_round(v) for k, v in out.items()}
    # ratios are taken over all traced rounds and need no scaling
    out["distortions.quantile.cdf_evals_per_elem"] = (
        counts["distortions.quantile.cdf_evals"] / quantile_elems if quantile_elems else 0.0)
    out["samplers.cores_busy"] = cpu_s["samplers.estimator"] / est_total if est_total else 0.0
    out["samplers.path_elems_per_s"] = elems["samplers.estimator"] / est_total if est_total else 0.0
    out["samplers.frailty.draws_per_s"] = elems["samplers.frailty"] / frailty_total if frailty_total else 0.0
    out["trace.coverage"] = _union_length(top) / traced_wall if traced_wall else 0.0
    return out


# ---------------------------------------------------------------------------
# import times from `python -X importtime`


# modules reported on their own; a private helper counts with its importer
IMPORT_LAYERS = {f"maxdep.{m}" for m in ("gev", "generators", "margins", "diagonals", "distortions", "ratebounds",
                                         "samplers", "cli")}


def import_layers(stderr: str) -> dict[str, float]:
    """Import time of maxdep and the self time of each of its modules.

    A module's self time here is its cumulative import time less that of the
    maxdep modules it imports, so third-party imports (numpy, scipy.signal,
    scipy.optimize) count against the maxdep module that pulls them in first.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        cum = int(parts[1])
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        rows.append((depth, raw.strip(), cum))
    # importtime prints children before their parent: rebuild the tree
    pending: list[tuple[int, str, int, list]] = []
    nodes = []
    for depth, name, cum in rows:
        kids = [p for p in pending if p[0] == depth + 1]
        pending = [p for p in pending if p[0] != depth + 1]
        node = (depth, name, cum, kids)
        pending.append(node)
        nodes.append(node)

    def maxdep_below(node):
        total = 0
        for kid in node[3]:
            total += kid[2] if kid[1] in IMPORT_LAYERS else maxdep_below(kid)
        return total

    out = {}
    for node in nodes:
        if node[1] == "maxdep":
            out["import.maxdep_s"] = node[2] / 1e6
        elif node[1] in IMPORT_LAYERS:
            out[f"import.{node[1]}_s"] = (node[2] - maxdep_below(node)) / 1e6
    return out
