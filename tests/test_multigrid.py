"""Tests for the geometric multigrid hierarchy and V-cycle."""

import numpy as np
import pytest

from mxpbench.geometry import CoarseningError, GlobalProblem
from mxpbench.krylov import gmres_solve, spmv
from mxpbench.metrics import Tally
from mxpbench.multigrid import (
    build_hierarchy,
    fused_residual_restrict,
    prolong_add,
)
from mxpbench.smoother import SmootherWorkspace

from _oracles import restrict_inject


def _hierarchy(nx, ny, nz, levels, sweeps=None):
    gp = GlobalProblem.from_local(nx, ny, nz, 1)
    if sweeps is None:
        sweeps = SmootherWorkspace()
    return build_hierarchy(gp.domain(0), levels, sweeps=sweeps)


def _coords(gid, gnx, gny):
    return gid % gnx, (gid // gnx) % gny, gid // (gnx * gny)


def _diag_gids(A):
    return A.col_global[np.arange(A.n_rows), A.diag_pos]


def test_hierarchy_level_shapes():
    h = _hierarchy(16, 16, 16, 4)
    assert len(h.levels) == 4
    assert [lv.domain.lnx for lv in h.levels] == [16, 8, 4, 2]
    assert [lv.domain.lny for lv in h.levels] == [16, 8, 4, 2]
    assert [lv.domain.lnz for lv in h.levels] == [16, 8, 4, 2]
    assert [lv.domain.level for lv in h.levels] == [0, 1, 2, 3]
    assert [lv.A_hi.n_rows for lv in h.levels] == [4096, 512, 64, 8]
    # f2c lives on the coarse level and indexes into the next-finer level.
    assert h.levels[0].f2c is None
    assert [len(h.levels[i].f2c) for i in (1, 2, 3)] == [512, 64, 8]
    for lv in h.levels:
        assert lv.A_hi.values.dtype == np.float64
        assert lv.A_lo.values.dtype == np.float32
        # Low-precision operator shares the sparsity structure.
        assert lv.A_lo.col_idx is lv.A_hi.col_idx


def test_hierarchy_too_deep_raises():
    gp = GlobalProblem.from_local(12, 12, 12, 1)
    # 12 -> 6 -> 3 and 3 is not divisible by 2.
    with pytest.raises(CoarseningError):
        build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())


def test_f2c_matches_coordinate_doubling():
    h = _hierarchy(16, 16, 16, 4)
    for fine, coarse in zip(h.levels[:-1], h.levels[1:]):
        fine_gids = _diag_gids(fine.A_hi)
        coarse_gids = _diag_gids(coarse.A_hi)
        f2c = coarse.f2c
        for c in range(coarse.A_hi.n_rows):
            cf = _coords(fine_gids[f2c[c]], fine.domain.gnx, fine.domain.gny)
            cc = _coords(coarse_gids[c], coarse.domain.gnx, coarse.domain.gny)
            assert cf == tuple(2 * v for v in cc)


def test_f2c_rows_are_unique():
    h = _hierarchy(8, 8, 8, 4)
    for coarse in h.levels[1:]:
        assert len(np.unique(coarse.f2c)) == len(coarse.f2c)


def test_prolong_restrict_roundtrip():
    h = _hierarchy(8, 8, 8, 3)
    fine, coarse = h.levels[0], h.levels[1]
    rng = np.random.default_rng(11)
    x_c = rng.standard_normal(coarse.A_hi.n_rows)
    x_f = np.zeros(fine.A_hi.n_cols_extended)
    prolong_add(x_f, x_c, coarse.f2c)
    # Injection is the exact right-inverse of prolongation.
    assert np.array_equal(restrict_inject(x_f, coarse.f2c), x_c)
    # prolong_add touches exactly the injection slots.
    assert np.count_nonzero(x_f) == len(x_c)
    # A second prolongation accumulates instead of overwriting.
    prolong_add(x_f, x_c, coarse.f2c)
    assert np.array_equal(restrict_inject(x_f, coarse.f2c), 2.0 * x_c)


def test_fused_residual_restrict_matches_unfused():
    h = _hierarchy(8, 8, 8, 3)
    fine, coarse = h.levels[0], h.levels[1]
    A = fine.A_hi
    rng = np.random.default_rng(5)
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.standard_normal(A.n_rows)
    b = rng.standard_normal(A.n_rows)

    r_c = fused_residual_restrict(A, b, x, coarse.f2c)
    y = spmv(A, x)
    r_ref = restrict_inject(b - y, coarse.f2c)
    assert np.array_equal(r_c, r_ref)


def test_vcycle_scaling_by_power_of_two_is_exact():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(16**3)
    # apply() reuses workspace storage, so copy before the next call.
    z = h.apply(r).copy()
    z2 = h.apply(2.0 * r).copy()
    assert np.array_equal(z2, 2.0 * z)


def test_vcycle_is_linear():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r1 = rng.standard_normal(16**3)
    r2 = rng.standard_normal(16**3)
    za = h.apply(0.3 * r1 + 1.7 * r2).copy()
    zb = 0.3 * h.apply(r1).copy() + 1.7 * h.apply(r2).copy()
    assert np.linalg.norm(za - zb) <= 1e-12 * np.linalg.norm(za)


def test_vcycle_low_and_high_precision_agree():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(16**3)
    z_hi = h.apply(r).copy()
    z_lo = h.apply(r.astype(np.float32)).copy()
    assert z_lo.dtype == np.float32
    rel = np.linalg.norm(z_hi - z_lo.astype(np.float64)) / np.linalg.norm(z_hi)
    assert rel <= 5e-7


def test_vcycle_reduces_residual():
    h = _hierarchy(8, 8, 8, 4)
    A = h.levels[0].A_hi
    b = A.values.sum(axis=1)  # rhs whose exact solution is all ones
    z = h.apply(b).copy()
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = z
    r_new = b - spmv(A, x)
    assert np.linalg.norm(r_new) / np.linalg.norm(b) < 0.5


def test_vcycle_tally_motifs():
    h = _hierarchy(8, 8, 8, 4)
    b = h.levels[0].A_hi.values.sum(axis=1)
    tally = Tally()
    h.apply(b, tally=tally)

    gs_expect = sum(
        (h.sweeps.nu1 + h.sweeps.nu2) * 2 * lv.A_hi.nnz_total for lv in h.levels[:-1]
    ) + h.sweeps.nu_c * 2 * h.levels[-1].A_hi.nnz_total
    restr_expect = 0
    prol_expect = 0
    for fine, coarse in zip(h.levels[:-1], h.levels[1:]):
        restr_expect += int(np.sum(2 * fine.A_hi.row_nnz[coarse.f2c] + 1))
        prol_expect += coarse.A_hi.n_rows

    assert tally.flops["GS"] == gs_expect
    assert tally.flops["Restriction"] == restr_expect
    assert tally.flops["Prolongation"] == prol_expect
    assert tally.flops["SpMV"] == 0
    assert tally.flops["Ortho"] == 0
    assert tally.flops["Vector ops"] == 0
    assert tally.seconds["GS"] > 0.0


def test_sweep_counts_are_plumbed_through():
    sweeps = SmootherWorkspace(nu1=2, nu2=2, nu_c=3)
    h = _hierarchy(8, 8, 8, 4, sweeps=sweeps)
    b = h.levels[0].A_hi.values.sum(axis=1)
    tally = Tally()
    z_heavy = h.apply(b, tally=tally).copy()

    gs_expect = sum(4 * 2 * lv.A_hi.nnz_total for lv in h.levels[:-1])
    gs_expect += 3 * 2 * h.levels[-1].A_hi.nnz_total
    assert tally.flops["GS"] == gs_expect

    z_default = _hierarchy(8, 8, 8, 4).apply(b).copy()
    assert not np.array_equal(z_heavy, z_default)


def test_vcycle_preconditioning_reduces_gmres_iterations():
    gp = GlobalProblem.from_local(8, 8, 8, 1)
    h = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = h.levels[0]
    b = lv.A_hi.values.sum(axis=1)

    def precond(r, tally=None):
        return h.apply(r, tally=tally)

    res_pre = gmres_solve(lv.A_hi, lv.A_lo, precond, b, tol=1e-9)
    res_plain = gmres_solve(lv.A_hi, lv.A_lo, None, b, tol=1e-9)
    assert res_pre.converged and res_plain.converged
    assert res_pre.iterations == 10
    assert res_plain.iterations == 12
    assert res_pre.iterations < res_plain.iterations
