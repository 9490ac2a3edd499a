"""The package runs on numpy alone: importing it must not pull in scipy."""

import os
import subprocess
import sys
from pathlib import Path

import mxpbench

# Importing scipy.sparse alone adds 22 MB of resident memory, enough to take
# the desk benchmark's peak RSS past its bound.  A fresh interpreter shows
# what the package itself imports.
_PROBE = """
import importlib, pkgutil, sys
import mxpbench
names = [m.name for m in pkgutil.iter_modules(mxpbench.__path__)]
assert "krylov" in names, names
for name in names:
    importlib.import_module("mxpbench." + name)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, sorted(loaded)
"""


def test_no_module_imports_scipy():
    src = str(Path(mxpbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
