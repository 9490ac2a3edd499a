"""Tests for operation accounting, the penalty rule, and the report format."""

import numpy as np
import pytest

from mxpbench.geometry import GlobalProblem
from mxpbench.metrics import (
    MOTIFS,
    Tally,
    count_bytes,
    count_flops,
    gflops,
    kernel_motif,
    penalty_factor,
    sum_motif_dicts,
)
from mxpbench.multigrid import build_hierarchy
from mxpbench.problem import generate_matrix
from mxpbench.smoother import SmootherWorkspace

from _oracles import (
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
    assert count_flops("dot", n=512) == 1024
    assert count_flops("norm", n=512) == 1024
    assert count_flops("scale", n=512) == 512
    assert count_flops("vsub", n=512) == 512
    assert count_flops("vadd", n=512) == 512
    assert count_flops("waxpby", n=512) == 1536
    assert count_flops("cgs2", n=100, k=5) == 8 * 100 * 5 + 200
    assert count_flops("gemv_update", n=100, k=5) == 1000
    assert count_flops("restrict_fused", nnz=125, n_c=8) == 258
    assert count_flops("restrict_inject", n_c=8) == 0
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
    assert kernel_motif("dot") == "Vector ops"


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

    _, f = seq_spmv(A.values, A.col_idx, x)
    assert f == count_flops("spmv", nnz=A.nnz_total, n=n)

    z = np.zeros(A.n_cols_extended)
    f = seq_gs_sweep(A.values, A.col_idx, A.diag_pos, b, z)
    assert f == count_flops("gs_sweep", nnz=A.nnz_total, n=n)

    _, f = seq_dot(x[:n], b)
    assert f == count_flops("dot", n=n)

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
    _, f = seq_restrict_residual(Af.values, Af.col_idx, bl, xl, f2c)
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
    t.add("dot", np.float64, n=10)
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


def test_tally_timed():
    t = Tally()
    with t.timed("SpMV"):
        sum(range(1000))
    assert t.seconds["SpMV"] > 0.0


def test_sum_motif_dicts():
    a = {m: 0 for m in MOTIFS}
    b = {m: 0 for m in MOTIFS}
    a["SpMV"] = 5
    b["SpMV"] = 7
    b["GS"] = 2
    out = sum_motif_dicts([a, b])
    assert out["SpMV"] == 12
    assert out["GS"] == 2
    assert out["Ortho"] == 0
