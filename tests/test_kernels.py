"""The C row kernels: built once into the cache, and bitwise equal to the
sequential oracles on every level of a real hierarchy."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mxpbench
from mxpbench import kernels
from mxpbench.comm import RankWorld, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import spmv
from mxpbench.metrics import Tally
from mxpbench.multigrid import build_hierarchy, fused_residual_restrict
from mxpbench.problem import chunked
from mxpbench.smoother import forward_gs_sweep

from _oracles import (oracle_cols, row_dot, seq_gs_sweep,
                      seq_restrict_residual, seq_spmv)

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


def test_library_path_covers_the_host_cpu(monkeypatch):
    # A cache shared between hosts keeps one library per CPU: another model
    # name, set of feature flags, family or model number names another file,
    # and naming it compiles nothing.
    cpu = kernels.CPU
    assert cpu.model
    here = kernels._library_path()
    assert here.exists()                    # the library this process loaded
    others = []
    for other in (cpu._replace(model=cpu.model + " (another)"),
                  cpu._replace(flags=cpu.flags + " avx10"),
                  cpu._replace(family=cpu.family + "0"),
                  cpu._replace(model_number=cpu.model_number + "0")):
        monkeypatch.setattr(kernels, "CPU", other)
        others.append(kernels._library_path())
    assert len({here, *others}) == 5
    assert all(p.parent == here.parent and not p.exists() for p in others)


_CPUINFO = """processor\t: {cpu}
vendor_id\t: GenuineIntel
cpu family\t: 6
model\t\t: {model}
model name\t: Intel(R) Xeon(R) Processor
flags\t\t: fpu sse2 avx512f
"""


def test_cpus_that_differ_only_in_model_number_get_their_own_library(
        monkeypatch):
    # Two hosts report the same model name and flags; -march=native may still
    # resolve to another target on each, so the model number keys the cache.
    paths = []
    for model in ("143", "207"):
        text = (_CPUINFO.format(cpu=0, model=model) + "\n"
                + _CPUINFO.format(cpu=1, model="1"))
        monkeypatch.setattr(kernels, "open",
                            lambda *a, text=text, **k: io.StringIO(text),
                            raising=False)
        cpu = kernels._host_cpu()
        assert cpu == kernels.Cpu("Intel(R) Xeon(R) Processor",
                                  "fpu sse2 avx512f", "6", model)
        monkeypatch.setattr(kernels, "CPU", cpu)
        paths.append(kernels._library_path())
    assert paths[0] != paths[1]


def test_host_cpu_falls_back_to_the_machine_name(monkeypatch):
    def missing(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(kernels, "open", missing, raising=False)
    assert kernels._host_cpu() == (os.uname().machine, "", "", "")


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
    """SELL chunks of the values and in-range int32 columns of an n-row set."""
    vals = chunked(np.ones((n, width)))
    cols = chunked(np.tile(np.arange(n, dtype=np.int32), (width, 1)).T)
    return vals, cols


def test_row_set_refuses_a_negative_column():
    vals, cols = _pattern()
    kernels.row_set(vals, cols, 4)
    cols[0, 1, 2] = -1                      # slot 1 of row 2
    with pytest.raises(ValueError, match=">= 0"):
        kernels.row_set(vals, cols, 4)


def test_row_set_refuses_a_negative_output_row():
    vals, cols = _pattern()
    out = np.arange(4, dtype=np.intp)
    kernels.row_set(vals, cols, 4, out)
    out[3] = -2
    with pytest.raises(ValueError, match=">= 0"):
        kernels.row_set(vals, cols, 4, out)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 4097])
def test_row_dot_matches_the_oracle_at_chunk_edges(n, dtype):
    # Sets that end just before, at and just after a 256-row chunk bound,
    # written in order and through a scattered output row list.
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, 27)).astype(dtype)
    vals[rng.random(vals.shape) < 0.1] = -0.0
    cols = rng.integers(0, 300, size=(n, 27))
    x = rng.standard_normal(300).astype(dtype)
    want, _ = seq_spmv(vals, cols, x)
    assert row_dot(vals, cols, x).tobytes() == want.tobytes()
    out = rng.permutation(n + 5)[:n]
    scattered = np.zeros(out.max(initial=-1) + 1, dtype=dtype)
    scattered[out] = want
    assert row_dot(vals, cols, x, out).tobytes() == scattered.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relax_blocks_bounded_inside_chunks_match_the_oracle(dtype):
    # Block bounds 3, 255, 257, 300, 511 and 513 fall inside chunks; each row
    # reads its own diagonal, rows of other blocks and a halo tail, never
    # another row of its block.  Two calls split the blocks mid-chunk too.
    n, tail = 600, 40
    blocks = np.array([0, 3, 255, 256, 257, 300, 511, 513, 600])
    block = np.searchsorted(blocks, np.arange(n), side="right") - 1
    rng = np.random.default_rng(7)
    cols = np.empty((n, 27), dtype=np.int64)
    for i in range(n):
        others = np.flatnonzero(block != block[i])
        cols[i] = np.sort(rng.choice(np.append(others, np.arange(n, n + tail)),
                                     27, replace=False))
    diag_pos = rng.integers(0, 27, size=n)
    cols[np.arange(n), diag_pos] = np.arange(n)
    vals = rng.standard_normal((n, 27)).astype(dtype)
    vals[np.arange(n), diag_pos] = 27 + rng.random(n)
    r = rng.standard_normal(n).astype(dtype)
    z = rng.standard_normal(n + tail).astype(dtype)
    want = z.copy()
    seq_gs_sweep(vals, cols, diag_pos, r, want)

    rows = kernels.row_set(chunked(vals), chunked(cols.astype(np.int32)), n)
    relax = kernels.relax_set(rows, vals[np.arange(n), diag_pos],
                              blocks.astype(np.intp))
    kernels.relax(relax, r, z, 0, 4)
    kernels.relax(relax, r, z, 4, relax.n_blocks)
    assert z.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_jpl_colour_blocks_match_the_oracle(dtype):
    # Jones-Plassmann colour classes have any sizes, so block bounds fall
    # inside chunks.
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    lv = build_hierarchy(gp.domain(0), 1, strategy="jpl", seed=5).levels[0]
    A = lv.A_hi if dtype == np.float64 else lv.A_lo
    assert np.any(lv.coloring.color_offsets % kernels.CHUNK)
    rng = np.random.default_rng(8)
    r = rng.standard_normal(A.n_rows).astype(dtype)
    z = rng.standard_normal(A.n_cols_extended).astype(dtype)
    want = z.copy()
    forward_gs_sweep(A, r, z, tally=Tally())
    seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, r, want)
    assert z.tobytes() == want.tobytes()


def _overlapped_matches_oracle(h, rank, dtype, rng):
    """Overlapped SpMV and sweep, and the fused restriction, on every level
    of ``h``, bitwise against the oracles; the halo tail starts NaN."""
    ok = []
    for level, lv in enumerate(h.levels):
        A = lv.A_hi if dtype == np.float64 else lv.A_lo
        n, cols = A.n_rows, oracle_cols(A)
        r = rng.standard_normal(n).astype(dtype)
        stale = np.full(A.n_cols_extended, np.nan, dtype=dtype)
        stale[:n] = rng.standard_normal(n)
        fresh = stale.copy()
        exchange(fresh, lv.plan, h.world, rank)
        y_ref, _ = seq_spmv(A.values, cols, fresh)
        y = spmv(A, stale.copy(), lv.plan, h.world, rank, tally=Tally())
        z_ref = fresh.copy()
        seq_gs_sweep(A.values, cols, A.diag_pos, r, z_ref)
        z = stale.copy()
        forward_gs_sweep(A, r, z, lv.plan, h.world, rank, tally=Tally())
        ok += [y.tobytes() == y_ref.tobytes(), z.tobytes() == z_ref.tobytes()]
        if level + 1 < len(h.levels):
            f2c = h.levels[level + 1].f2c
            rc_ref, _ = seq_restrict_residual(A.values, cols, r, fresh, f2c)
            rc = fused_residual_restrict(A, r, fresh, Tally())
            ok.append(rc.tobytes() == rc_ref.tobytes())
    return ok


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_coloured_8_rank_hierarchy_matches_the_oracles(dtype):
    # 512 rows per rank in eight 64-row colour blocks: four blocks share
    # each chunk.
    gp = GlobalProblem.from_local(8, 8, 8, 8)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 2, world, rank)
        assert list(h.levels[0].coloring.color_offsets) == list(range(0, 513,
                                                                      64))
        return _overlapped_matches_oracle(h, rank, dtype,
                                          np.random.default_rng(rank))

    assert RankWorld(8).run(worker) == [[True] * 5] * 8


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_halo_and_restriction_packs_span_chunks_on_2_ranks(dtype):
    # 36 x 36 x 4 per rank: 1,296 rows read the halo, 324 of them colour 0
    # on rank 1, and 648 rows feed the next level, so every pack is several
    # chunks and the halo pack's one relax block ends inside one.
    gp = GlobalProblem.from_local(36, 36, 4, 2)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 2, world, rank)
        A = h.levels[0].A_hi
        dot, relax0 = A.sets.halo
        f2c, restrict, _ = A.sets.restrict
        assert (dot.args[0], restrict.args[0]) == (1296, 648)
        assert relax0.arrays[-1][1] == (0, 324)[rank]
        return _overlapped_matches_oracle(h, rank, dtype,
                                          np.random.default_rng(rank))

    assert RankWorld(2).run(worker) == [[True] * 5] * 2
