"""Whole-package checks, each in a fresh interpreter: what `import maxdep`
loads, and that every demo script runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxdep

SRC = str(Path(maxdep.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def test_import_loads_no_heavy_scipy_module():
    # scipy.optimize, scipy.signal and scipy.stats took most of the import
    # time; the AR(1) sampler loads scipy.signal when it first draws
    heavy = ("scipy.optimize", "scipy.signal", "scipy.stats")
    proc = _python("-c", f"import sys, maxdep, maxdep.cli; print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _python("-W", "error::RuntimeWarning", str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
