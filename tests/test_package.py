"""Whole-package checks, each in a fresh interpreter: what `import maxdep`
loads, that the benchmark's tracer still finds the names it rebinds, and
that every demo script runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxdep

SRC = str(Path(maxdep.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _scipy_after(*calls, scipy=True):
    """(stdout, scipy modules loaded) after each argv of calls runs through
    ``cli.main`` in one fresh interpreter; every call must exit 0.  With
    scipy=False, ``import scipy`` raises ImportError in that interpreter."""
    script = (
        "import sys\n"
        + ("" if scipy else "sys.modules['scipy'] = None\n")
        + "from maxdep import cli\n"
        f"for argv in {[list(c) for c in calls]!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(*sorted(m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v), file=sys.stderr)\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.split()


def test_import_loads_no_heavy_scipy_module():
    # only the normal quantile and Berman's draws need scipy, and each
    # imports it at its first use
    proc = _python("-c", "import sys, maxdep, maxdep.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_analytic_commands_load_no_scipy():
    out, loaded = _scipy_after(
        ["diagonal", "--family", "clayton", "--theta", "2", "--n", "2,1024", "--u-grid", "0:1:11"],
        ["diagonal", "--family", "ballerini", "--n", "2^4", "--u-grid", "0.5"],
        ["distortion", "--generator", "figure1", "--u-grid", "0:1:11"],
        ["distortion", "--generator", "amh-mixture", "--u-grid", "0:1:11"],
        ["distortion", "--generator", "efgm", "--theta", "0.5", "--u-grid", "0:1:11"],
        ["mixing", "--family", "logistic", "--theta", "2", "--t1", "0.25", "--t2", "0.25", "--u", "0.5", "--n", "1000"],
        ["bound", "--model", "movingmax-normal", "--k", "1", "--n", "100,10000"],
        ["bound", "--model", "logistic-normal", "--theta", "2", "--n", "1000000"],
        ["bound", "--model", "cuadras-auge", "--theta", "0.5", "--n", "10"],
        ["bound", "--model", "iid-frechet", "--n", "2^3..2^5"],
        ["converge", "--model", "movingmax", "--k", "1", "--margin", "unit-frechet", "--n", "16", "--reps", "4096", "--seed", "3"],
    )
    assert out.count("# maxdep ") == 11
    assert loaded == []


def test_deferred_scipy_path_prints_the_pinned_bytes():
    # the normal margin and the AR(1) sampler take Phi from math.erfc and
    # Hall's constant from a Newton solve, and the AR(1) recursion runs in
    # numpy, so the run loads no scipy module and prints the bytes pinned
    # in test_cli
    from test_cli import PINNED_PATH_MODELS

    flags, expected = PINNED_PATH_MODELS["ar1"]
    out, loaded = _scipy_after(["converge", "--model", "ar1", *flags, "--n", "16,64", "--reps", "8192", "--seed", "7"])
    assert out == expected
    assert loaded == []


# flags of every model with a sampler (models.MODELS)
SAMPLED_FLAGS = {
    "independence": [],
    "movingmax": ["--k", "2"],
    "efgm": ["--theta", "0.8"],
    "clayton": ["--theta", "2"],
    "frank": ["--theta", "3"],
    "gumbel": ["--theta", "2"],
    "joe": ["--theta", "2"],
    "amh": ["--theta", "0.6"],
    "ar1": ["--phi", "0.5"],
}


def test_converge_runs_without_scipy():
    # Phi and Hall's constant need only math, so converge with the normal
    # margin runs for every sampled model where scipy cannot be imported,
    # and the ar1 pin (run last) prints its bytes
    from test_cli import PINNED_PATH_MODELS

    from maxdep.models import MODELS

    assert set(SAMPLED_FLAGS) == {name for name, spec in MODELS.items() if spec.sampler}
    flags, expected = PINNED_PATH_MODELS["ar1"]
    calls = [["converge", "--model", name, *f, "--margin", "normal", "--n", "16", "--reps", "4096", "--seed", "3"]
             for name, f in SAMPLED_FLAGS.items()]
    calls.append(["converge", "--model", "ar1", *flags, "--n", "16,64", "--reps", "8192", "--seed", "7"])
    out, loaded = _scipy_after(*calls, scipy=False)
    assert out.count("# maxdep converge margin=normal ") == len(calls)
    assert out.endswith(expected)
    assert loaded == []


def test_tracer_sees_one_span_per_estimator_call():
    # bench/tracing.py rebinds the public estimator names, RngStream.block_generator
    # and samplers.ThreadPoolExecutor; an estimator that called another public
    # estimator would nest a second span and count its path elements twice.
    # n = 64, so that the multi-block calls at workers=2 start a pool.
    # bench/ is only read: no bytecode is written there
    script = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import margins, samplers\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        "model, rng = samplers.IID(), samplers.RngStream(1, 0)\n"
        "samplers.empirical_diagonal(model, 64, 0.5, 3 * 4096, rng, workers=2)\n"
        "print(len(tracer.spans), tracer.spans[0][1], tracer.spans[0][6], *sorted(tracer.counts.items()))\n"
        "samplers.max_sample(model, margins.UnitFrechet(), 64, 4097, rng)\n"
        "samplers.sample_paths(model, None, 64, 10, rng)\n"
        "samplers.normalized_max_ecdf(model, None, 64, 5000, 1.0, 0.0, [0.5], rng, workers=2)\n"
        "print(sum(s[1] == 'samplers.estimator' for s in tracer.spans), sum(s[6] for s in tracer.spans),\n"
        "      *sorted(tracer.counts.items()))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    one, four = proc.stdout.splitlines()
    assert one == "1 samplers.estimator 786432 ('samplers.blocks', 3.0) ('samplers.pool_starts', 1.0)"
    elems = 64 * (3 * 4096 + 4097 + 10 + 5000)
    assert four == f"4 {elems} ('samplers.blocks', 8.0) ('samplers.pool_starts', 2.0)"


def test_tracer_sees_the_distortion_layer():
    # bench/tracing.py swaps the cdf, density and quantile fields of every
    # Distortion handed out (dataclasses.replace) and rebinds
    # distortions.bisect_increasing, which the numeric quantile must look up
    # when it is called, to count the cdf evaluations of its solve
    script = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import distortions\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        "distortions.make_distortion('efgm', theta=0.8).quantile([0.1, 0.5])\n"
        "print(sum(s[1] == 'distortions.quantile' for s in tracer.spans), tracer.counts['distortions.quantile.cdf_evals'])\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    spans, evals = proc.stdout.split()
    assert spans == "1" and float(evals) > 0


def test_tracer_sees_the_generator_layer():
    # bench/tracing.py swaps the psi and psi_inv fields of every generator
    # handed out (dataclasses.replace); a clayton diagonal must call each
    # once, on the whole grid, so that the per-layer counters count elements
    script = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import diagonals, generators\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "fam = diagonals.archimedean_diagonal(generators.builtin_generator('clayton', 2.0))\n"
        "tracer.on = True\n"
        "fam(16, [0.1, 0.3, 0.5, 0.7, 0.9])\n"
        "print(*sorted((s[1], s[6]) for s in tracer.spans if s[1].startswith('generators.')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "('generators.psi', 5) ('generators.psi_inv', 5)"


def test_tracer_sees_the_frailty_layer():
    # bench/tracing.py rebinds samplers.frailty_sample and sizes its span by
    # the 4th argument, m; both frailty models must draw V through that one
    # name, once per 256-row slice: 16 + 1 slices of 4097 rows each
    script = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import samplers\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        "for model in (samplers.ArchimedeanFrailty('clayton', 2.0), samplers.ArchimaxLogistic('clayton', 2.0, 2.0)):\n"
        "    samplers.max_sample(model, None, 64, 4097, samplers.RngStream(1, 0))\n"
        "frailty = [s[6] for s in tracer.spans if s[1] == 'samplers.frailty']\n"
        "print(len(frailty), sum(frailty))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["34", "8194"]


def test_tracer_sees_the_margin_layer():
    # bench/tracing.py wraps the cdf, quantile, normalizers, uniform_rate and
    # hall_constant it finds in vars() of each margin class: the public four
    # live on Margin, the checked shell, and the normal's normalizers call
    # the public hall_constant, so its span nests in theirs
    script = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import margins, samplers\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        "samplers.normalized_max_ecdf(samplers.IID(), margins.UnitFrechet(), 16, 1000, 16.0, 0.0, [0.5, 1.0],\n"
        "                             samplers.RngStream(1, 0))\n"
        "margins.StandardNormal().normalizers(64)\n"
        "names = {s[0]: s[1] for s in tracer.spans}\n"
        "print(*sorted(names.get(s[4], 'top') for s in tracer.spans if s[1] == 'margins'))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    # the cdf inside the estimator, the normalizers at the top, hall_constant inside them
    assert proc.stdout.split() == ["margins", "samplers.estimator", "top"]


def test_tracer_sees_the_gev_and_ratebounds_layers():
    # bench/tracing.py wraps every public function it finds in vars(gev) and
    # vars(ratebounds), each as one layer; the public gev functions evaluate
    # private formulas, which must get no span of their own
    calls = [
        ["converge", "--model", "iid", "--margin", "unit-frechet", "--n", "16", "--reps", "4096"],
        ["bound", "--model", "movingmax-normal", "--k", "1", "--n", "16"],
    ]
    script = (
        "import os, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import cli, gev, ratebounds\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        f"for argv in {calls!r}:\n"
        "    del tracer.spans[:]\n"
        "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
        "    names = {s[0]: s[1] for s in tracer.spans}\n"
        "    layers = [(s[1], names.get(s[4])) for s in tracer.spans if s[1] in ('gev', 'ratebounds')]\n"
        "    print(*sorted({layer for layer, _ in layers}), 'nested' if any(l == p for l, p in layers) else 'flat')\n"
        "print(*sorted(n for m in (gev, ratebounds) for n, f in vars(m).items() if hasattr(f, 'traced_as')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    converge, bound, traced = proc.stdout.splitlines()
    assert "gev" in converge.split() and "ratebounds" in bound.split()
    assert converge.split()[-1] == bound.split()[-1] == "flat"
    traced = traced.split()
    assert {"gev_cdf", "gev_density", "gev_quantile", "composite_rate_bound", "movingmax_s"} <= set(traced)
    assert not [name for name in traced if name.startswith("_")]


def test_tracer_sees_the_cli_layer():
    # bench/tracing.py rebinds each cmd_* function where a module-level dict
    # holds it as a value, so cli._COMMANDS must map each name to its function:
    # a subcommand the tracer misses reads 0 s in the benchmark
    calls = [
        ["diagonal", "--family", "clayton", "--theta", "2", "--n", "2,16", "--u-grid", "0.5"],
        ["distortion", "--generator", "clayton", "--theta", "2", "--u-grid", "0.5"],
        ["bound", "--model", "iid-frechet", "--n", "16"],
        ["converge", "--model", "iid", "--margin", "unit-frechet", "--n", "16", "--reps", "4096"],
        ["mixing", "--family", "logistic", "--theta", "2", "--t1", "0.25", "--t2", "0.25", "--u", "0.5", "--n", "16"],
    ]
    script = (
        "import os, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "from tracing import Tracer, instrument\n"
        "from maxdep import cli\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "tracer.on = True\n"
        f"for argv in {calls!r}:\n"
        "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
        "print(*sorted(s[1] for s in tracer.spans if s[1].startswith('cli.') and s[1] not in ('cli.main', 'cli.render')))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cli.bound", "cli.converge", "cli.diagonal", "cli.distortion", "cli.mixing"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _python("-W", "error::RuntimeWarning", str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
