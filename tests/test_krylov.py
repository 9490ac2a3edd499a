"""Tests for the GMRES solver and its dense/sparse kernels."""

import numpy as np
import pytest

from mxpbench.coloring import color, permute_system
from mxpbench.comm import RankWorld, build_halo_plan, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import (
    BreakdownError,
    GmresWorkspace,
    _back_substitute,
    cgs2_orthogonalize,
    givens_update,
    gmres_solve,
    spmv,
)
from mxpbench.metrics import Tally
from mxpbench.multigrid import build_hierarchy
from mxpbench.problem import generate_matrix, generate_rhs, to_low_precision
from mxpbench.smoother import SmootherWorkspace

from _oracles import seq_spmv


def _single_rank_system(nx, ny, nz):
    gp = GlobalProblem.from_local(nx, ny, nz, 1)
    A = generate_matrix(gp.domain(0))
    vecs = generate_rhs(A)
    return A, vecs


def test_spmv_matches_sequential_oracle_bitwise():
    A, _ = _single_rank_system(4, 4, 4)
    rng = np.random.default_rng(3)
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
    y = spmv(A, x)
    y_ref, _ = seq_spmv(A.values, A.col_idx, x)
    assert np.array_equal(y, y_ref)


def test_spmv_overlapped_matches_blocking_on_eight_ranks():
    gp = GlobalProblem.from_local(8, 8, 8, 8)

    def worker(world, rank):
        A = generate_matrix(gp.domain(rank))
        c = color(A, "greedy")
        A, _ = permute_system(A, [], c)
        plan = build_halo_plan(gp.domain(rank), A, world=world, rank=rank,
                               iperm=c.iperm)
        rng = np.random.default_rng(100 + rank)
        x = np.zeros(A.n_cols_extended)
        x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
        y_over = spmv(A, x.copy(), plan=plan, world=world, rank=rank)
        # Blocking reference: a fresh halo, then every row.
        x_block = x.copy()
        exchange(x_block, plan, world, rank)
        y_block = spmv(A, x_block)
        return np.array_equal(y_over, y_block)

    world = RankWorld(8)
    assert all(world.run(worker))


def test_cgs2_orthogonalizes_against_basis():
    rng = np.random.default_rng(7)
    n, m = 64, 6
    Q = np.zeros((m + 1, n))
    Q[0] = rng.standard_normal(n)
    Q[0] /= np.linalg.norm(Q[0])
    H = np.zeros((m + 1, m))
    for k in range(4):
        w = rng.standard_normal(n)
        cgs2_orthogonalize(Q, k, w, H)
        # After two passes of classical Gram-Schmidt the result is orthogonal
        # to every basis vector at working precision.
        assert np.max(np.abs(Q[: k + 1] @ w)) <= 1e-14 * np.linalg.norm(w)
        Q[k + 1] = w / np.linalg.norm(w)


def test_cgs2_coefficients_reproduce_projection():
    rng = np.random.default_rng(8)
    n = 32
    Q = np.zeros((3, n))
    Q[0] = rng.standard_normal(n)
    Q[0] /= np.linalg.norm(Q[0])
    w = rng.standard_normal(n)
    w_orig = w.copy()
    H = np.zeros((3, 2))
    h = cgs2_orthogonalize(Q, 0, w, H)
    # w_orig == w + h[0] * Q[0] up to roundoff.
    assert np.allclose(w + h[0] * Q[0], w_orig, rtol=0.0, atol=1e-14)
    assert H[0, 0] == h[0]


def test_givens_three_four_five():
    H = np.zeros((2, 1))
    H[0, 0] = 3.0
    H[1, 0] = 4.0
    t = np.zeros(2)
    t[0] = 10.0
    c = np.zeros(1)
    s = np.zeros(1)
    rec = givens_update(H, t, c, s, 0)
    assert H[0, 0] == 5.0
    assert H[1, 0] == 0.0
    assert c[0] == pytest.approx(0.6, rel=1e-15)
    assert s[0] == pytest.approx(0.8, rel=1e-15)
    assert t[0] == pytest.approx(6.0, rel=1e-15)
    assert t[1] == pytest.approx(-8.0, rel=1e-15)
    assert rec == pytest.approx(8.0, rel=1e-15)


def test_givens_zero_column_raises():
    H = np.zeros((2, 1))
    t = np.zeros(2)
    t[0] = 1.0
    with pytest.raises(BreakdownError):
        givens_update(H, t, np.zeros(1), np.zeros(1), 0)


def test_back_substitute_matches_dense_solve():
    rng = np.random.default_rng(9)
    m = 8
    H = np.zeros((m + 1, m))
    R = np.triu(rng.standard_normal((m, m))) + 5.0 * np.eye(m)
    H[:m, :m] = R
    t = np.zeros(m + 1)
    t[:m] = rng.standard_normal(m)
    y = _back_substitute(H, t, m)
    y_ref = np.linalg.solve(R, t[:m])
    assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)


def _solve(nx, ny, nz, mode, m=30, tol=1e-9, max_iters=300, precond=None,
           keep_basis=False, b=None, x0=None):
    A, vecs = _single_rank_system(nx, ny, nz)
    A_lo = to_low_precision(A)
    if b is None:
        b = vecs.b
    return A, gmres_solve(A, A_lo, precond, b, x0=x0, mode=mode, tol=tol,
                          max_iters=max_iters, m=m, keep_basis=keep_basis)


def test_restarted_solve_converges():
    # A short restart length forces several cycles on a random rhs.
    A, vecs = _single_rank_system(4, 4, 4)
    b = np.random.default_rng(42).standard_normal(A.n_rows)
    res = gmres_solve(A, to_low_precision(A), None, b, mode="double",
                      tol=1e-10, m=5)
    assert res.converged
    assert res.restarts == 4
    assert res.iterations == 18
    assert res.relres < 1e-10
    assert res.workspace is None  # basis not kept by default


def test_solution_vector_matches_all_ones():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    A = generate_matrix(gp.domain(0))
    A_lo = to_low_precision(A)
    vecs = generate_rhs(A)
    x0 = np.zeros(A.n_cols_extended)
    res = gmres_solve(A, A_lo, None, vecs.b, x0=x0, mode="double", tol=1e-12)
    assert res.converged
    assert np.allclose(x0[: A.n_rows], np.ones(A.n_rows), rtol=0.0, atol=1e-10)


def test_full_subspace_is_exact_in_at_most_n_iterations():
    # With m == n the Krylov space is exhausted in a single cycle.
    A, _ = _single_rank_system(2, 2, 2)
    b = np.random.default_rng(7).standard_normal(A.n_rows)
    res = gmres_solve(A, to_low_precision(A), None, b, mode="double",
                      tol=1e-12, m=8)
    assert res.converged
    assert res.restarts == 1
    assert res.iterations <= 8
    assert res.relres < 1e-12


def test_zero_rhs_returns_immediately():
    A, res = _solve(2, 2, 2, "double", b=np.zeros(8))
    assert res.converged
    assert res.iterations == 0
    assert res.relres == 0.0


def test_exact_initial_guess_returns_immediately():
    gp = GlobalProblem.from_local(2, 2, 2, 1)
    A = generate_matrix(gp.domain(0))
    A_lo = to_low_precision(A)
    vecs = generate_rhs(A)
    x0 = np.zeros(A.n_cols_extended)
    x0[: A.n_rows] = 1.0
    res = gmres_solve(A, A_lo, None, vecs.b, x0=x0, mode="double")
    assert res.converged
    assert res.iterations == 0
    assert res.relres == 0.0


def test_unknown_mode_rejected():
    A, _ = _single_rank_system(2, 2, 2)
    with pytest.raises(ValueError, match="unknown mode"):
        gmres_solve(A, to_low_precision(A), None, np.ones(8), mode="mxp")


def _preconditioned_solve(mode, tol=1e-9, m=30, max_iters=300,
                          keep_basis=False):
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    b = lv.A_hi.values.sum(axis=1)

    def precond(r, tally=None):
        return hier.apply(r, tally=tally)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, mode=mode, tol=tol,
                       m=m, max_iters=max_iters, keep_basis=keep_basis)


def test_iteration_counts_are_reproducible_double():
    res = _preconditioned_solve("double")
    assert res.converged
    assert res.iterations == 16
    assert res.relres == pytest.approx(4.4911594142630304e-10, rel=1e-12)


def test_iteration_counts_are_reproducible_mixed():
    res = _preconditioned_solve("mixed")
    assert res.converged
    assert res.iterations == 17
    assert res.relres <= 1e-9


def test_keep_basis_returns_workspace():
    res = _preconditioned_solve("double", keep_basis=True)
    assert isinstance(res.workspace, GmresWorkspace)
    q0 = res.workspace.Q[0]
    assert np.linalg.norm(q0) == pytest.approx(1.0, rel=1e-12)


def test_restart_boundary_pairs_recorded():
    res = _preconditioned_solve("double", m=8)
    assert res.converged
    assert res.restarts >= 2
    assert len(res.boundary_pairs) == res.restarts
    for rec_norm, true_norm in res.boundary_pairs:
        assert rec_norm > 0.0 and true_norm > 0.0


def test_solver_tally_covers_expected_motifs():
    gp = GlobalProblem.from_local(8, 8, 8, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    b = lv.A_hi.values.sum(axis=1)
    tally = Tally()

    def precond(r):
        # The preconditioner charges its own work to the shared tally.
        return hier.apply(r, tally=tally)

    res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, tol=1e-9, tally=tally)
    assert res.converged
    for motif in ("SpMV", "GS", "Ortho", "Vector ops", "Restriction",
                  "Prolongation"):
        assert tally.flops[motif] > 0, motif
        assert tally.seconds[motif] > 0.0, motif


def test_unpreconditioned_tally_has_no_multigrid_motifs():
    A, vecs = _single_rank_system(4, 4, 4)
    tally = Tally()
    res = gmres_solve(A, to_low_precision(A), None, vecs.b, tol=1e-9,
                      tally=tally)
    assert res.converged
    assert tally.flops["GS"] == 0
    assert tally.flops["Restriction"] == 0
    assert tally.flops["Prolongation"] == 0
    assert tally.flops["SpMV"] > 0
