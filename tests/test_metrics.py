"""Tests for operation accounting, the penalty rule, and the report format."""

import sys
import threading

import numpy as np
import pytest

from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import gmres_solve
from mxpbench.metrics import (
    MOTIFS,
    Tally,
    count_bytes,
    count_flops,
    gflops,
    kernel_motif,
    penalty_factor,
)
from mxpbench.multigrid import build_hierarchy
from mxpbench.problem import generate_matrix, generate_rhs
from mxpbench.smoother import SmootherWorkspace

from _oracles import (
    oracle_cols,
    seq_cgs2,
    seq_dot,
    seq_gemv_update,
    seq_gs_sweep,
    seq_prolong_add,
    seq_restrict_residual,
    seq_spmv,
)


def test_penalty_matches_published_example():
    assert penalty_factor(2305, 2382) == pytest.approx(0.968, abs=0.0005)


def test_penalty_equal_counts_is_one():
    assert penalty_factor(100, 100) == 1.0


def test_penalty_clamps_when_mixed_wins():
    assert penalty_factor(1067, 1000) == 1.0


def test_penalty_rejects_degenerate_counts():
    with pytest.raises(ValueError):
        penalty_factor(0, 10)
    with pytest.raises(ValueError):
        penalty_factor(10, 0)
    with pytest.raises(ValueError):
        penalty_factor(-5, 10)


def test_count_flops_basic_kernels():
    assert count_flops("spmv", nnz=1000, n=100) == 2000
    assert count_flops("gs_sweep", nnz=1000, n=100) == 2000
    assert count_flops("norm", n=512) == 1024
    assert count_flops("scale", n=512) == 512
    assert count_flops("vsub", n=512) == 512
    assert count_flops("vadd", n=512) == 512
    assert count_flops("cgs2", n=100, k=5) == 8 * 100 * 5 + 200
    assert count_flops("gemv_update", n=100, k=5) == 1000
    assert count_flops("restrict_fused", nnz=125, n_c=8) == 258
    assert count_flops("prolong_add", n_c=8) == 8


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        count_flops("fma", n=1)
    with pytest.raises(ValueError, match="unknown kernel"):
        count_bytes("fma", 8, n=1)


def test_kernel_motif_buckets():
    assert kernel_motif("spmv") == "SpMV"
    assert kernel_motif("gs_sweep") == "GS"
    assert kernel_motif("cgs2") == "Ortho"
    assert kernel_motif("gemv_update") == "Ortho"
    assert kernel_motif("restrict_fused") == "Restriction"
    assert kernel_motif("prolong_add") == "Prolongation"
    assert kernel_motif("norm") == "Vector ops"


def test_spmv_low_to_high_byte_ratio():
    # Value arrays shrink with precision but 4-byte indices do not, so the
    # traffic ratio sits strictly between one half and one.
    hi = count_bytes("spmv", 8, nnz=10648, n=512)
    lo = count_bytes("spmv", 4, nnz=10648, n=512)
    assert 0.5 < lo / hi < 1.0


def test_gflops_values():
    assert gflops(2e9, 1.0) == 2.0
    assert gflops(0, 1.0) == 0.0
    with pytest.raises(ValueError):
        gflops(1e9, 0.0)
    with pytest.raises(ValueError):
        gflops(1e9, -1.0)


def _instrumented_fixture():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    A = generate_matrix(gp.domain(0))
    rng = np.random.default_rng(12)
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.standard_normal(A.n_rows)
    b = rng.standard_normal(A.n_rows)
    return A, x, b


def test_sequential_kernels_agree_with_frozen_flop_model():
    # Each independently instrumented sequential kernel reports exactly the
    # operation count that the frozen model predicts for its sizes.
    A, x, b = _instrumented_fixture()
    n = A.n_rows

    _, f = seq_spmv(A.values, oracle_cols(A), x)
    assert f == count_flops("spmv", nnz=A.nnz_total, n=n)

    z = np.zeros(A.n_cols_extended)
    f = seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, b, z)
    assert f == count_flops("gs_sweep", nnz=A.nnz_total, n=n)

    _, f = seq_dot(x[:n], b)
    assert f == count_flops("norm", n=n)

    k = 4
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((k, n))
    w = rng.standard_normal(n)
    _, _, f = seq_cgs2(Q, w)
    assert f == count_flops("cgs2", n=n, k=k)

    y = rng.standard_normal(k)
    _, f = seq_gemv_update(Q, y)
    assert f == count_flops("gemv_update", n=n, k=k)

    hier = build_hierarchy(GlobalProblem.from_local(4, 4, 4, 1).domain(0), 2,
                           sweeps=SmootherWorkspace())
    Af = hier.levels[0].A_hi
    f2c = hier.levels[1].f2c
    xl = np.zeros(Af.n_cols_extended)
    xl[: Af.n_rows] = rng.standard_normal(Af.n_rows)
    bl = rng.standard_normal(Af.n_rows)
    _, f = seq_restrict_residual(Af.values, oracle_cols(Af), bl, xl, f2c)
    nnz_injected = int(np.sum(Af.row_nnz[f2c]))
    assert f == count_flops("restrict_fused", nnz=nnz_injected,
                            n_c=len(f2c))

    xf = np.zeros(Af.n_cols_extended)
    xc = rng.standard_normal(len(f2c))
    f = seq_prolong_add(xf, xc, f2c)
    assert f == count_flops("prolong_add", n_c=len(f2c))


def test_tally_accumulates_by_motif():
    t = Tally()
    t.add("spmv", np.float64, nnz=100, n=10)
    t.add("spmv", np.float32, nnz=100, n=10)
    t.add("norm", np.float64, n=10)
    assert t.flops["SpMV"] == 400
    assert t.flops["Vector ops"] == 20
    # Bytes depend on the value width, flops do not.
    assert t.bytes["SpMV"] == (100 * 12 + 2 * 10 * 8) + (100 * 8 + 2 * 10 * 4)
    assert t.total_flops() == 420
    assert t.total_bytes() > 0


def test_tally_motif_override():
    t = Tally()
    t.add("norm", np.float64, motif="Ortho", n=10)
    assert t.flops["Ortho"] == 20
    assert t.flops["Vector ops"] == 0
    # The same call without the override, and the override again, keep
    # their own buckets.
    t.add("norm", np.float64, n=10)
    t.add("norm", np.float64, motif="Ortho", n=10)
    assert (t.flops["Ortho"], t.flops["Vector ops"]) == (40, 20)


def test_tally_timed():
    t = Tally()
    with t.timed("SpMV"):
        sum(range(1000))
    assert t.seconds["SpMV"] > 0.0


def test_tally_timed_charges_a_block_that_raises():
    t = Tally()
    with pytest.raises(RuntimeError):
        with t.timed("GS"):
            sum(range(1000))
            raise RuntimeError("kernel failed")
    assert t.seconds["GS"] > 0.0
    assert sum(v for m, v in t.seconds.items() if m != "GS") == 0.0


def test_tally_bytes_do_not_depend_on_how_dtype_is_spelled():
    by_type, by_dtype = Tally(), Tally()
    by_type.add("gs_sweep", np.float32, nnz=777, n=31)
    by_dtype.add("gs_sweep", np.dtype("float32"), nnz=777, n=31)
    assert by_type.bytes == by_dtype.bytes
    assert by_type.bytes["GS"] == count_bytes("gs_sweep", 4, nnz=777, n=31)


def test_tally_counts_stay_exact_when_threads_share_call_shapes():
    # Rank threads share the call-shape counts; more threads than cores, and
    # a short switch interval, interleave their first calls of each shape.
    shapes = [("cgs2", {"n": 1000 + i, "k": k}) for i in range(20)
              for k in range(1, 6)]
    expected = sum(count_flops(kernel, **sizes) for kernel, sizes in shapes)
    tallies = [Tally() for _ in range(4)]

    def work(t):
        for kernel, sizes in shapes * 10:
            t.add(kernel, np.float32, **sizes)

    threads = [threading.Thread(target=work, args=(t,)) for t in tallies]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert [t.flops["Ortho"] for t in tallies] == [10 * expected] * 4


def test_desk_solve_accounting_is_frozen():
    # Per-motif counts of one 16^3 solve with the gmres_solve defaults; they
    # change only with the flop/byte model or the algorithm.
    expected = {
        "mixed": ([7849152, 3698768, 5378048, 500940, 10512, 61440],
                  [33416640, 16684000, 12091392, 3026664, 126144, 753664]),
        "double": ([7413088, 3504096, 4915200, 473110, 9928, 40960],
                   [48294144, 22204224, 22085632, 4790668, 238272, 458752]),
    }
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    b = generate_rhs(lv.A_hi).b
    for mode, (flops, nbytes) in expected.items():
        t = Tally()
        res = gmres_solve(lv.A_hi, lv.A_lo, lambda r: hier.apply(r, t), b,
                          np.zeros(len(b)), mode=mode, tally=t)
        assert res.converged
        assert [t.flops[m] for m in MOTIFS] == flops, mode
        assert [t.bytes[m] for m in MOTIFS] == nbytes, mode
