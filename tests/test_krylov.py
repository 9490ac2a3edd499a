"""Tests for the GMRES solver and its dense/sparse kernels."""

import hashlib
import threading

import numpy as np
import pytest

from mxpbench import bench, krylov
from mxpbench.bench import BenchConfig
from mxpbench.coloring import color
from mxpbench.comm import RankWorld, build_halo_plan, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import (
    BreakdownError,
    GmresWorkspace,
    RecyclePair,
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

from _oracles import (first_divergence, oracle_cols, replication_digests,
                      seq_spmv, with_sets)


def _single_rank_system(nx, ny, nz):
    gp = GlobalProblem.from_local(nx, ny, nz, 1)
    A = with_sets(generate_matrix(gp.domain(0)))
    vecs = generate_rhs(A)
    return A, vecs


def test_spmv_matches_sequential_oracle_bitwise():
    A, _ = _single_rank_system(4, 4, 4)
    rng = np.random.default_rng(3)
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
    y = spmv(A, x, tally=Tally())
    y_ref, _ = seq_spmv(A.values, oracle_cols(A), x)
    assert np.array_equal(y, y_ref)


def test_spmv_overlapped_matches_blocking_on_eight_ranks():
    gp = GlobalProblem.from_local(8, 8, 8, 8)

    def worker(world, rank):
        c = color(gp.domain(rank), "greedy")
        A = generate_matrix(gp.domain(rank), c.perm)
        plan = build_halo_plan(gp.domain(rank), iperm=c.iperm)
        with_sets(A, c)
        rng = np.random.default_rng(100 + rank)
        x = np.zeros(A.n_cols_extended)
        x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
        y_over = spmv(A, x.copy(), plan=plan, world=world, rank=rank,
                      tally=Tally())
        # Blocking reference: a fresh halo, then every row.
        x_block = x.copy()
        exchange(x_block, plan, world, rank)
        y_block = spmv(A, x_block, tally=Tally())
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
        cgs2_orthogonalize(Q, k, w, H, tally=Tally())
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
    cgs2_orthogonalize(Q, 0, w, H, tally=Tally())
    h = H[:1, 0]
    # w_orig == w + h[0] * Q[0] up to roundoff.
    assert np.allclose(w + h[0] * Q[0], w_orig, rtol=0.0, atol=1e-14)


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


def _solve(nx, ny, nz, mode, m=30, tol=1e-9, max_iters=300,
           precond=lambda r: r, b=None, x0=None):
    A, vecs = _single_rank_system(nx, ny, nz)
    A_lo = with_sets(to_low_precision(A))
    if b is None:
        b = vecs.b
    return A, gmres_solve(A, A_lo, precond, b, x0=x0, mode=mode, tol=tol,
                          max_iters=max_iters, m=m, tally=Tally())


def test_restarted_solve_converges():
    # A short restart length forces several cycles on a random rhs.
    A, vecs = _single_rank_system(4, 4, 4)
    b = np.random.default_rng(42).standard_normal(A.n_rows)
    res = gmres_solve(A, with_sets(to_low_precision(A)), lambda r: r, b,
                      np.zeros(len(b)), mode="double", tol=1e-10, m=5,
                      tally=Tally())
    assert res.converged
    assert res.restarts == 4
    assert res.iterations == 18
    assert res.relres < 1e-10


def test_solution_vector_matches_all_ones():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    A = with_sets(generate_matrix(gp.domain(0)))
    A_lo = with_sets(to_low_precision(A))
    vecs = generate_rhs(A)
    x0 = np.zeros(A.n_cols_extended)
    res = gmres_solve(A, A_lo, lambda r: r, vecs.b, x0=x0, mode="double",
                      tol=1e-12, tally=Tally())
    assert res.converged
    assert np.allclose(x0[: A.n_rows], np.ones(A.n_rows), rtol=0.0, atol=1e-10)


def test_full_subspace_is_exact_in_at_most_n_iterations():
    # With m == n the Krylov space is exhausted in a single cycle.
    A, _ = _single_rank_system(2, 2, 2)
    b = np.random.default_rng(7).standard_normal(A.n_rows)
    res = gmres_solve(A, with_sets(to_low_precision(A)), lambda r: r, b,
                      np.zeros(len(b)), mode="double", tol=1e-12, m=8,
                      tally=Tally())
    assert res.converged
    assert res.restarts == 1
    assert res.iterations <= 8
    assert res.relres < 1e-12


def test_zero_rhs_returns_immediately():
    x0 = np.ones(8)
    A, res = _solve(2, 2, 2, "double", b=np.zeros(8), x0=x0)
    assert res.converged
    assert res.iterations == 0
    assert res.relres == 0.0
    # A is nonsingular, so the solution of A x = 0 is x = 0.
    assert not x0.any()


def test_exact_initial_guess_returns_immediately():
    gp = GlobalProblem.from_local(2, 2, 2, 1)
    A = with_sets(generate_matrix(gp.domain(0)))
    A_lo = with_sets(to_low_precision(A))
    vecs = generate_rhs(A)
    x0 = np.zeros(A.n_cols_extended)
    x0[: A.n_rows] = 1.0
    res = gmres_solve(A, A_lo, lambda r: r, vecs.b, x0=x0, mode="double",
                      tally=Tally())
    assert res.converged
    assert res.iterations == 0
    assert res.relres == 0.0


def test_unknown_mode_rejected():
    A, _ = _single_rank_system(2, 2, 2)
    with pytest.raises(ValueError, match="unknown mode"):
        gmres_solve(A, with_sets(to_low_precision(A)), lambda r: r,
                    np.ones(8), np.zeros(8), mode="mxp", tally=Tally())


def _preconditioned_solve(mode, tol=1e-9, m=30, max_iters=300):
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    b = lv.A_hi.values.sum(axis=1)

    tally = Tally()

    def precond(r):
        return hier.apply(r, tally)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                       mode=mode, tol=tol, m=m, max_iters=max_iters,
                       tally=tally)


def test_iteration_counts_are_reproducible_double():
    res = _preconditioned_solve("double")
    assert res.converged
    assert res.iterations == 16
    assert res.relres == pytest.approx(4.4911594142630304e-10, rel=1e-12)


def test_iteration_counts_are_reproducible_mixed():
    res = _preconditioned_solve("mixed")
    assert res.converged
    assert res.iterations == 16
    assert res.relres <= 1e-9


def test_keep_basis_returns_workspace(workspaces):
    _preconditioned_solve("double")
    assert isinstance(workspaces[-1], GmresWorkspace)
    q0 = workspaces[-1].Q[0]
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

    res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                      tol=1e-9, tally=tally)
    assert res.converged
    for motif in ("SpMV", "GS", "Ortho", "Vector ops", "Restriction",
                  "Prolongation"):
        assert tally.flops[motif] > 0, motif
        assert tally.seconds[motif] > 0.0, motif


def test_unpreconditioned_tally_has_no_multigrid_motifs():
    A, vecs = _single_rank_system(4, 4, 4)
    tally = Tally()
    res = gmres_solve(A, with_sets(to_low_precision(A)), lambda r: r, vecs.b,
                      np.zeros(len(vecs.b)), tol=1e-9, tally=tally)
    assert res.converged
    assert tally.flops["GS"] == 0
    assert tally.flops["Restriction"] == 0
    assert tally.flops["Prolongation"] == 0
    assert tally.flops["SpMV"] > 0


# -- the recycle pair kept at the first float32 stall ----------------------

EPS32 = float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def desk():
    gp = GlobalProblem.from_local(16, 16, 16, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    return hier, lv, lv.A_hi.values.sum(axis=1)


def _desk_solve(desk, mode, **kw):
    hier, lv, b = desk
    x = np.zeros(lv.A_hi.n_rows)
    tally = Tally()
    res = gmres_solve(lv.A_hi, lv.A_lo, lambda r: hier.apply(r, tally), b,
                      x0=x, mode=mode, tally=tally, **kw)
    return res, x


def _recycled(desk, workspaces):
    _desk_solve(desk, "mixed", tol=1e-9)
    ws = workspaces[-1]
    V = ws.recycle.V.astype(np.float64)
    return ws, ws.recycle, V, V.T @ ws.recycle.QG


def test_cgs2_with_recycle_pair_projects_out_c_and_records_b():
    rng = np.random.default_rng(11)
    n, nv, m = 64, 4, 3
    Vq, _ = np.linalg.qr(rng.standard_normal((n, nv + 1)))
    block = np.zeros((nv + m + 1, n))
    block[:nv] = Vq[:, :nv].T
    QG, RG = np.linalg.qr(rng.standard_normal((nv, nv - 1)))
    rp = RecyclePair(block=block, QG=QG, RG=RG, B=np.zeros((nv - 1, m)))
    Q = block[nv:]
    Q[0] = Vq[:, nv]
    C = rp.V.T @ QG
    w = rng.standard_normal(n)
    w_orig = w.copy()
    H = np.zeros((m + 1, m))
    cgs2_orthogonalize(Q, 0, w, H, tally=Tally(), recycle=rp)
    h = H[:1, 0]
    assert np.max(np.abs(C.T @ w)) <= 1e-14 * np.linalg.norm(w_orig)
    assert abs(Q[0] @ w) <= 1e-14 * np.linalg.norm(w_orig)
    # w_orig == w + C B[:, 0] + h[0] Q[0] up to roundoff.
    assert np.allclose(w + C @ rp.B[:, 0] + h[0] * Q[0], w_orig, rtol=0.0,
                       atol=1e-14)


def test_recycle_pair_c_is_orthonormal(desk, workspaces):
    # CGS2 keeps the float32 basis V orthonormal to a few eps32 per entry,
    # and C^T C - I = Q_G^T (V V^T - I) Q_G is bounded by ||V V^T - I||_2.
    _, rp, V, C = _recycled(desk, workspaces)
    E = V @ V.T - np.eye(rp.nv)
    assert np.max(np.abs(E)) <= 4 * EPS32
    assert (np.max(np.abs(C.T @ C - np.eye(rp.nv - 1)))
            <= np.linalg.norm(E, 2) + 1e-12)


def test_recycle_pair_spans_a_m_u_equals_c(desk, workspaces):
    # A M V_k = V_{k+1} H_k holds to float32 rounding of ||H_k|| per column;
    # U = V_k R_G^-1 scales that by ||R_G^-1||, so a column of A M U misses
    # its column of C by about eps32 * cond(R_G).
    hier, lv, _ = desk
    _, rp, V, C = _recycled(desk, workspaces)
    k = rp.nv - 1
    U = V[:k].T @ np.linalg.inv(rp.RG)
    bound = 8 * EPS32 * np.linalg.cond(rp.RG)
    z = np.zeros(lv.A_lo.n_cols_extended, dtype=np.float32)
    for j in range(k):
        z[:lv.A_lo.n_rows] = hier.apply(U[:, j].astype(np.float32), Tally())
        amu = spmv(lv.A_lo, z, tally=Tally()).astype(np.float64)
        assert np.linalg.norm(amu - C[:, j]) <= bound


def test_last_cycle_basis_is_orthogonal_to_c(desk, workspaces):
    ws, rp, _, C = _recycled(desk, workspaces)
    k = np.count_nonzero(np.diag(ws.H))   # the last cycle's iterations
    assert k >= 1
    Q = ws.Q[:k + 1].astype(np.float64)
    assert np.max(np.abs(Q @ C)) <= 4 * EPS32


def test_later_stalls_keep_the_first_recycle_pair(desk, workspaces):
    # Three cycles: the second and third both run on the first stall's
    # 12-iteration space.
    res, x = _desk_solve(desk, "mixed", tol=1e-13)
    assert res.converged
    assert res.iterations == 24  # frozen; 26 with plain restarts
    assert res.restarts == 3
    assert workspaces[-1].recycle.nv == 13
    assert np.max(np.abs(x - 1.0)) <= 1e-11


def test_stall_one_short_of_m_fits_the_block(desk, workspaces):
    # The first cycle stalls after 12 iterations; with m = 13 the kept 13
    # rows and the next 14-row basis end one row short of the 28-row block.
    res, x = _desk_solve(desk, "mixed", tol=1e-9, m=13)
    ws = workspaces[-1]
    assert res.converged and res.iterations == 16
    assert ws.recycle.nv == 13
    assert ws.block.shape[0] == 28
    assert np.shares_memory(ws.Q[-1], ws.block[-2])
    assert np.max(np.abs(x - 1.0)) <= 1e-8


def test_cycles_that_end_at_m_restart_as_before(desk, workspaces):
    # With m = 5 no cycle stalls, so nothing is recycled.
    res, _ = _desk_solve(desk, "mixed", tol=1e-9, m=5)
    assert workspaces[-1].recycle is None
    assert (res.iterations, res.restarts) == (27, 6)
    assert res.relres == 5.923984293839839e-10


def test_double_solution_is_bitwise_unchanged(desk):
    # Double mode never recycles; x hashes as it did before recycling.
    res, x = _desk_solve(desk, "double", tol=1e-9)
    assert res.iterations == 16
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "b4a158d247c7f07ceb44ba73395c6e4531ba7fbe7d6a325fa0fe0d0f0a8490b0")


def test_replication_oracle_reports_the_step_where_one_rank_diverges(
        monkeypatch):
    # At its fourth step rank 1 writes H[k+1, k], which the rotation has just
    # zeroed and nothing reads again in the cycle: the solve is unchanged,
    # but from that step on the two ranks' replicated state differs.
    givens = krylov.givens_update
    steps = []

    def perturbing_rank_1(H, t, c, s, k):
        rec = givens(H, t, c, s, k)
        if threading.current_thread().name == "rank-1":
            steps.append(k)
            if len(steps) == 4:
                H[k + 1, k] = 1.0
        return rec

    monkeypatch.setattr(krylov, "givens_update", perturbing_rank_1)
    cfg = BenchConfig(local_nx=8, local_ny=8, local_nz=8, ranks=2,
                      mg_levels=3)

    def worker(world, rank):
        hier, b = bench._build_state(cfg, 2, world, rank)
        return bench._solve(cfg, hier, b, "mixed", cfg.tol, cfg.max_iters,
                            Tally()).iterations

    with replication_digests() as digests:
        iterations = RankWorld(2).run(worker)
    assert iterations[0] == iterations[1] > 4
    assert len(digests[0]) == len(digests[1]) == iterations[0]
    assert first_divergence(digests) == 3
