"""Names other code reaches the program by must keep resolving.

Every name a package lists in ``__all__`` resolves, so a deletion cannot
leave a stale re-export.  ``bench/`` (not editable in a PR that claims a
gain) wraps program functions by name with ``vars(obj)[attr]``; running
its ``instrument_program`` in a subprocess (it re-binds functions
process-wide) pins every name it wraps.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGES = sorted(p.parent.name for p in (REPO / "src" / "repro").glob("*/__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves_and_star_import_works(package):
    module = importlib.import_module(f"repro.{package}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from repro.{package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_bench_instrument_program_finds_every_wrapped_name():
    code = ("from layers import instrument_program; from spans import Recorder; "
            "instrument_program(Recorder('pin'))")
    env = dict(os.environ, PYTHONPATH=f"{REPO / 'bench'}{os.pathsep}{REPO / 'src'}")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
