"""Multicolor Gauss-Seidel sweeps: exactness, overlap, precision duality."""

import numpy as np
import pytest

from mxpbench.coloring import color
from mxpbench.comm import RankWorld, build_halo_plan, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import spmv
from mxpbench.metrics import Tally
from mxpbench.problem import (SingularDiagonal, generate_matrix, generate_rhs,
                              to_low_precision)
from mxpbench.smoother import SmootherWorkspace, forward_gs_sweep

from _oracles import (ell_from_dense, identity_coloring, oracle_cols,
                      seq_gs_sweep, with_sets)


def _permuted(nx, ny, nz, strategy="greedy"):
    dom = GlobalProblem.from_local(nx, ny, nz, 1).domain(0)
    c = color(dom, strategy)
    return with_sets(generate_matrix(dom, c.perm), c), c


def test_sweep_matches_sequential_oracle_bitwise():
    Ap, _ = _permuted(4, 4, 4)
    rng = np.random.default_rng(0)
    r = rng.integers(-10, 11, size=Ap.n_rows).astype(float)
    z = np.zeros(Ap.n_cols_extended)
    forward_gs_sweep(Ap, r, z, z_is_zero=True, tally=Tally())
    z_ref = np.zeros(Ap.n_rows)
    seq_gs_sweep(Ap.values, oracle_cols(Ap), Ap.diag_pos, r, z_ref)
    assert np.array_equal(z[:Ap.n_rows], z_ref)


@pytest.mark.parametrize("strategy", ["greedy", "jpl"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_two_sweeps_match_oracle_bitwise(dtype, strategy):
    # A random non-integer start makes the rounding of every product count:
    # the sweep zeroes each block's rows of z before its row products, the
    # oracle skips the diagonal.
    Ap, c = _permuted(4, 4, 4, strategy)
    A = Ap if dtype == np.float64 else with_sets(to_low_precision(Ap), c)
    rng = np.random.default_rng(1)
    r = rng.integers(-10, 11, size=A.n_rows).astype(dtype)
    z = rng.standard_normal(A.n_cols_extended).astype(dtype)
    z_ref = z[:A.n_rows].copy()
    forward_gs_sweep(A, r, z, tally=Tally())
    forward_gs_sweep(A, r, z, tally=Tally())
    seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, r, z_ref)
    seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, r, z_ref)
    assert z.dtype == dtype
    assert np.array_equal(z[:A.n_rows], z_ref)


def test_single_point_system_solved_exactly():
    dom = GlobalProblem.from_local(1, 1, 1, 1).domain(0)
    c = color(dom, "greedy")
    Ap = with_sets(generate_matrix(dom, c.perm), c)
    z = np.zeros(1)
    forward_gs_sweep(Ap, np.array([13.0]), z, z_is_zero=True, tally=Tally())
    assert z[0] == 13.0 / 26.0


def test_sweeps_reduce_residual():
    Ap, _ = _permuted(8, 8, 8)
    b = generate_rhs(Ap).b
    z = np.zeros(Ap.n_cols_extended)
    norms = [np.linalg.norm(b)]
    for sweep in range(4):
        forward_gs_sweep(Ap, b, z, z_is_zero=(sweep == 0), tally=Tally())
        norms.append(np.linalg.norm(b - spmv(Ap, z, tally=Tally())))
    assert all(n1 < n0 for n0, n1 in zip(norms, norms[1:]))


def test_three_sweep_residual_regression_on_8cubed():
    # Frozen from the first measured run of this configuration.
    Ap, _ = _permuted(8, 8, 8)
    b = generate_rhs(Ap).b
    z = np.zeros(Ap.n_cols_extended)
    for sweep in range(3):
        forward_gs_sweep(Ap, b, z, z_is_zero=(sweep == 0), tally=Tally())
    relres = (np.linalg.norm(b - spmv(Ap, z, tally=Tally()))
              / np.linalg.norm(b))
    assert relres == pytest.approx(0.1973824330006174, rel=1e-12)


def test_low_high_precision_duality():
    Ap, c = _permuted(8, 8, 8)
    Al = with_sets(to_low_precision(Ap), c)
    rng = np.random.default_rng(2)
    r = rng.integers(-10, 11, size=Ap.n_rows).astype(float)
    z_hi = np.zeros(Ap.n_cols_extended)
    z_lo = np.zeros(Al.n_cols_extended, dtype=np.float32)
    forward_gs_sweep(Ap, r, z_hi, z_is_zero=True, tally=Tally())
    forward_gs_sweep(Al, r.astype(np.float32), z_lo, z_is_zero=True,
                     tally=Tally())
    diff = np.linalg.norm(z_hi - z_lo.astype(np.float64))
    assert diff / np.linalg.norm(z_hi) <= 1e-5


def test_overlapped_matches_blocking_on_8_ranks():
    gp = GlobalProblem.from_local(4, 4, 4, 8)
    rng = np.random.default_rng(3)
    rs = [rng.integers(-10, 11, size=64).astype(float) for _ in range(8)]
    zs = [rng.integers(-5, 6, size=64).astype(float) for _ in range(8)]

    def worker(world, rank, overlapped):
        dom = gp.domain(rank)
        c = color(dom, "greedy")
        Ap = generate_matrix(dom, c.perm)
        plan = build_halo_plan(dom, iperm=c.iperm)
        with_sets(Ap, c)
        z = np.zeros(Ap.n_cols_extended)
        z[:64] = zs[rank][c.perm]
        if overlapped:
            forward_gs_sweep(Ap, rs[rank][c.perm], z, plan=plan, world=world,
                             rank=rank, tally=Tally())
        else:   # blocking reference: a fresh halo, then every row
            exchange(z, plan, world, rank)
            forward_gs_sweep(Ap, rs[rank][c.perm], z, tally=Tally())
        return z

    blocking = RankWorld(8).run(worker, False)
    overlapped = RankWorld(8).run(worker, True)
    for zb, zo in zip(blocking, overlapped):
        assert np.array_equal(zb, zo)


def test_zero_diagonal_rejected():
    # Set-up refuses it, before any sweep could divide by it.
    # structurally present, zero value
    A = ell_from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]),
                       pattern=np.ones((2, 2), dtype=bool))
    with pytest.raises(SingularDiagonal):
        with_sets(A, identity_coloring(A.n_rows))


def test_sweep_counts_flops_in_gs_motif():
    Ap, _ = _permuted(4, 4, 4)
    tally = Tally()
    z = np.zeros(Ap.n_cols_extended)
    forward_gs_sweep(Ap, np.ones(Ap.n_rows), z, z_is_zero=True, tally=tally)
    assert tally.flops["GS"] == 2 * Ap.nnz_total
    assert sum(v for k, v in tally.flops.items() if k != "GS") == 0
    assert tally.seconds["GS"] > 0


def test_workspace_validates_sweep_counts():
    SmootherWorkspace(nu1=2, nu2=1, nu_c=3)
    with pytest.raises(ValueError):
        SmootherWorkspace(nu1=0)
