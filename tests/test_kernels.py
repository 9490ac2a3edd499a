"""The C row kernels: built once into the cache, and bitwise equal to the
sequential oracles on every level of a real hierarchy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mxpbench
from mxpbench import kernels
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import spmv
from mxpbench.metrics import Tally
from mxpbench.multigrid import build_hierarchy, fused_residual_restrict
from mxpbench.smoother import forward_gs_sweep

from _oracles import (oracle_cols, seq_gs_sweep, seq_restrict_residual,
                      seq_spmv)

_SRC = str(Path(mxpbench.__file__).resolve().parents[1])


def _import_mxpbench(cache, path=None):
    """A fresh interpreter importing mxpbench with ``cache`` as XDG_CACHE_HOME."""
    env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(cache))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen([sys.executable, "-c", "import mxpbench"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc):
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


def _cache_entries(cache):
    return sorted(p.name for p in (cache / "mxpbench").iterdir())


def test_first_import_compiles_and_the_next_reuses_the_library(tmp_path):
    assert _finish(_import_mxpbench(tmp_path)) == (0, "")
    [name] = _cache_entries(tmp_path)      # the library, no temporaries
    assert name.startswith("kernels-") and name.endswith(".so")
    lib = tmp_path / "mxpbench" / name
    mtime = lib.stat().st_mtime_ns
    assert _finish(_import_mxpbench(tmp_path)) == (0, "")
    assert _cache_entries(tmp_path) == [name]
    assert lib.stat().st_mtime_ns == mtime


def test_concurrent_first_imports_both_succeed(tmp_path):
    procs = [_import_mxpbench(tmp_path) for _ in range(2)]
    assert [_finish(p) for p in procs] == [(0, ""), (0, "")]
    assert len(_cache_entries(tmp_path)) == 1


def test_import_without_a_c_compiler_names_it(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    code, err = _finish(_import_mxpbench(tmp_path / "cache", path=empty))
    assert code != 0
    assert "ImportError" in err and "C compiler (cc)" in err
    assert not (tmp_path / "cache" / "mxpbench").exists()


@pytest.fixture(scope="module")
def hierarchy16():
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    return build_hierarchy(gp.domain(0), 4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("level", [0, 1, 2, 3])    # 4096, 512, 64, 8 rows
def test_kernels_match_oracles_on_every_level_of_16cubed(hierarchy16, level,
                                                         dtype):
    # Non-integer data make the rounding of every product count; -0.0 in r
    # and a random start that is not zero exercise the signed zeros, and the
    # finest level's colour blocks span several kernel chunks.
    levels = hierarchy16.levels
    lv = levels[level]
    A = lv.A_hi if dtype == np.float64 else lv.A_lo
    cols = oracle_cols(A)
    rng = np.random.default_rng(level)
    r = rng.standard_normal(A.n_rows).astype(dtype)
    r[rng.random(A.n_rows) < 0.1] = -0.0
    z = rng.standard_normal(A.n_cols_extended).astype(dtype)
    z_ref = z.copy()
    for _ in range(2):
        forward_gs_sweep(A, r, z, tally=Tally())
        seq_gs_sweep(A.values, cols, A.diag_pos, r, z_ref)
    assert z.tobytes() == z_ref.tobytes()

    x = rng.standard_normal(A.n_cols_extended).astype(dtype)
    y_ref, _ = seq_spmv(A.values, cols, x)
    assert spmv(A, x, tally=Tally()).tobytes() == y_ref.tobytes()

    if level + 1 < len(levels):
        f2c = levels[level + 1].f2c
        rc_ref, _ = seq_restrict_residual(A.values, cols, r, x, f2c)
        rc = fused_residual_restrict(A, r, x, Tally())
        assert rc.tobytes() == rc_ref.tobytes()


def test_kernels_refuse_vectors_they_would_overrun(hierarchy16):
    lv = hierarchy16.levels[2]
    A = lv.A_hi
    r = np.zeros(A.n_rows)
    with pytest.raises(ValueError, match="at least 64 entries"):
        forward_gs_sweep(A, r, np.zeros(A.n_rows - 1), tally=Tally())
    with pytest.raises(ValueError, match="must be float64"):
        spmv(A, np.zeros(A.n_rows, dtype=np.float32), tally=Tally())
    with pytest.raises(TypeError, match="not C contiguous"):
        spmv(A, np.zeros(2 * A.n_rows)[::2], tally=Tally())


def _pattern(n=4, width=3):
    """Column-major values and in-range int32 columns of an n-row set."""
    vals = np.ones((n, width), order="F")
    cols = np.tile(np.arange(n, dtype=np.int32), (width, 1)).T
    return vals, cols


def test_row_set_refuses_a_negative_column():
    vals, cols = _pattern()
    kernels.row_set(vals, cols)
    cols[2, 1] = -1
    with pytest.raises(ValueError, match=">= 0"):
        kernels.row_set(vals, cols)


def test_row_set_refuses_a_negative_output_row():
    vals, cols = _pattern()
    out = np.arange(4, dtype=np.intp)
    kernels.row_set(vals, cols, out)
    out[3] = -2
    with pytest.raises(ValueError, match=">= 0"):
        kernels.row_set(vals, cols, out)
