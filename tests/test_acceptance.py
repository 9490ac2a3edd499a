"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single ``criterion N
(name): PASS|FAIL`` line, and then asserts.  Runtime budgets are asserted
where a criterion states one.
"""

import time

import numpy as np
import pytest

from mxpbench.bench import BenchConfig, _build_state, run_benchmark
from mxpbench.coloring import color, permute_system
from mxpbench.comm import RankWorld, build_halo_plan, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import gmres_solve, spmv
from mxpbench.metrics import count_bytes, count_flops, penalty_factor
from mxpbench.multigrid import (
    build_hierarchy,
    fused_residual_restrict,
)
from mxpbench.problem import generate_matrix, to_low_precision
from mxpbench.smoother import SmootherWorkspace, forward_gs_sweep

from _oracles import (
    check_coloring,
    dense_stencil_2d,
    ell_from_dense,
    restrict_inject,
    seq_cgs2,
    seq_dot,
    seq_gemv_update,
    seq_gs_sweep,
    seq_prolong_add,
    seq_restrict_residual,
    seq_spmv,
    strip_timing,
)


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _single_rank_matrix(nx, ny, nz):
    gp = GlobalProblem.from_local(nx, ny, nz, 1)
    return generate_matrix(gp.domain(0))


def _desk_hierarchy(nx=16):
    gp = GlobalProblem.from_local(nx, nx, nx, 1)
    hier = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = hier.levels[0]
    return hier, lv, lv.A_hi.values.sum(axis=1)


def _desk_solve(mode, tol=1e-9, m=30, max_iters=300, keep_basis=False):
    hier, lv, b = _desk_hierarchy()

    def precond(r):
        return hier.apply(r)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, mode=mode, tol=tol,
                       m=m, max_iters=max_iters, keep_basis=keep_basis)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # ELL SpMV against the sequential oracle, 4^3, integer data.
    A = _single_rank_matrix(4, 4, 4)
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
    y_ref, _ = seq_spmv(A.values, A.col_idx, x)
    spmv_ok = np.array_equal(spmv(A, x), y_ref)

    # Multicolor GS sweep against sequential GS on the permuted matrix.
    c = color(A, "greedy")
    Ap, _ = permute_system(A, [], c)
    r = rng.integers(-9, 10, size=Ap.n_rows).astype(np.float64)
    z = np.zeros(Ap.n_cols_extended)
    forward_gs_sweep(Ap, r, z, c, z_is_zero=True)
    z_ref = np.zeros(Ap.n_cols_extended)
    seq_gs_sweep(Ap.values, Ap.col_idx, Ap.diag_pos, r, z_ref)
    gs_ok = np.array_equal(z, z_ref)

    # Fused residual+restriction against the unfused pipeline, 8^3.
    gp8 = GlobalProblem.from_local(8, 8, 8, 1)
    hier = build_hierarchy(gp8.domain(0), 2, sweeps=SmootherWorkspace())
    Af = hier.levels[0].A_hi
    f2c = hier.levels[1].f2c
    xf = np.zeros(Af.n_cols_extended)
    xf[: Af.n_rows] = rng.integers(-9, 10, size=Af.n_rows).astype(np.float64)
    bf = rng.integers(-9, 10, size=Af.n_rows).astype(np.float64)
    fused = fused_residual_restrict(Af, bf, xf, f2c)
    unfused = restrict_inject(bf - spmv(Af, xf), f2c)
    fused_ok = np.array_equal(fused, unfused)

    # Overlapped vs blocking halo exchange for SpMV and GS, 8 ranks of 4^3.
    gp = GlobalProblem.from_local(4, 4, 4, 8)

    def worker(world, rank):
        Al = generate_matrix(gp.domain(rank))
        cl = color(Al, "greedy")
        Al, _ = permute_system(Al, [], cl)
        plan = build_halo_plan(gp.domain(rank), Al, world=world, rank=rank,
                               iperm=cl.iperm)
        lrng = np.random.default_rng(50 + rank)
        xv = np.zeros(Al.n_cols_extended)
        xv[: Al.n_rows] = lrng.integers(-9, 10,
                                        size=Al.n_rows).astype(np.float64)
        # Blocking reference for both kernels: exchange, then a call
        # without a world (a fresh halo, then every row).
        x_block = xv.copy()
        exchange(x_block, plan, world, rank)
        spmv_same = np.array_equal(spmv(Al, xv.copy(), plan, world, rank),
                                   spmv(Al, x_block))

        rv = lrng.integers(-9, 10, size=Al.n_rows).astype(np.float64)
        z_over = np.zeros(Al.n_cols_extended)
        z_block = np.zeros(Al.n_cols_extended)
        z_over[: Al.n_rows] = xv[: Al.n_rows]
        z_block[: Al.n_rows] = xv[: Al.n_rows]
        forward_gs_sweep(Al, rv, z_over, cl, plan=plan, world=world,
                         rank=rank)
        exchange(z_block, plan, world, rank)
        forward_gs_sweep(Al, rv, z_block, cl)
        return spmv_same and np.array_equal(z_over, z_block)

    overlap_ok = all(RankWorld(8).run(worker))
    elapsed = time.perf_counter() - t0

    ok = spmv_ok and gs_ok and fused_ok and overlap_ok and elapsed < 5.0
    _report(1, "oracle equivalence", ok)
    assert spmv_ok
    assert gs_ok
    assert fused_ok
    assert overlap_ok
    assert elapsed < 5.0


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_convergence_and_penalty():
    t0 = time.perf_counter()
    dres = _desk_solve("double")
    mres = _desk_solve("mixed")
    elapsed = time.perf_counter() - t0

    penalty = penalty_factor(dres.iterations, mres.iterations)
    ok = (dres.converged and dres.iterations <= 300
          and mres.converged and mres.relres < 1e-9
          and penalty >= 0.85 and elapsed < 60.0)
    _report(2, "mixed-precision convergence", ok)
    assert dres.converged and dres.iterations <= 300
    assert dres.iterations == 16  # frozen desk regression value
    assert mres.converged and mres.relres < 1e-9
    assert mres.iterations == 16  # frozen desk regression value
    assert elapsed < 60.0
    assert penalty >= 0.85, (
        f"penalty {penalty:.3f} below the 0.85 threshold: mixed solve took "
        f"{mres.iterations} iterations in {mres.restarts} cycles against "
        f"{dres.iterations} double iterations")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_penalty_function():
    published = penalty_factor(2305, 2382)
    clamped = penalty_factor(1067, 1000)
    ok = abs(published - 0.968) <= 0.0005 and clamped == 1.0
    _report(3, "penalty function", ok)
    assert published == pytest.approx(0.968, abs=0.0005)
    assert clamped == 1.0
    assert penalty_factor(1000, 1000) == 1.0


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_basis_orthogonality():
    # An unreachable tolerance runs the solver to its 30-iteration cap.  In
    # double mode that is one full m=30 cycle; a mixed cycle ends at float32
    # roundoff and restarts, so only its last cycle's basis is checked.
    levels = {}
    sizes = {}
    for mode in ("double", "mixed"):
        res = _desk_solve(mode, tol=1e-30, max_iters=30, keep_basis=True)
        assert res.iterations == 30
        k, Q = last_cycle_basis(res.workspace)
        G = Q @ Q.T - np.eye(k + 1)
        levels[mode] = float(np.max(np.abs(G)))
        sizes[mode] = k
    ok = (levels["double"] <= 1e-8 and levels["mixed"] <= 1e-3
          and sizes["double"] == 30 and sizes["mixed"] >= 2)
    _report(4, "basis orthogonality", ok)
    assert sizes["double"] == 30
    assert sizes["mixed"] >= 2
    assert levels["double"] <= 1e-8
    assert levels["mixed"] <= 1e-3


def last_cycle_basis(ws):
    """(k, Q[:k+1]) for the last cycle, k being its iteration count."""
    return ws.k, ws.Q[:ws.k + 1].astype(np.float64)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_residual_recurrence():
    deviations = []
    pair_counts = []
    for m in (30, 8):
        res = _desk_solve("double", m=m)
        assert res.converged
        pair_counts.append(len(res.boundary_pairs))
        deviations.extend(abs(rec - true) / true
                          for rec, true in res.boundary_pairs)
    worst = max(deviations)
    ok = worst <= 1e-6 and pair_counts[1] >= 2
    _report(5, "residual recurrence", ok)
    assert pair_counts[0] >= 1
    assert pair_counts[1] >= 2  # the short restart length forces restarts
    assert worst <= 1e-6


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_coloring():
    A3 = _single_rank_matrix(4, 4, 4)
    greedy3 = color(A3, "greedy").num_colors

    A2 = ell_from_dense(dense_stencil_2d(6, 6))
    greedy2 = color(A2, "greedy").num_colors

    jpl_ok = all(check_coloring(A3, color(A3, "jpl", seed=s))
                 for s in range(100))

    ok = greedy3 == 8 and greedy2 == 4 and jpl_ok
    _report(6, "multicoloring", ok)
    assert greedy3 == 8
    assert greedy2 == 4
    assert jpl_ok


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_flop_and_byte_model():
    A = _single_rank_matrix(4, 4, 4)
    n = A.n_rows
    rng = np.random.default_rng(4)
    x = np.zeros(A.n_cols_extended)
    x[:n] = rng.standard_normal(n)
    b = rng.standard_normal(n)

    checks = []
    _, f = seq_spmv(A.values, A.col_idx, x)
    checks.append(f == count_flops("spmv", nnz=A.nnz_total, n=n))
    z = np.zeros(A.n_cols_extended)
    f = seq_gs_sweep(A.values, A.col_idx, A.diag_pos, b, z)
    checks.append(f == count_flops("gs_sweep", nnz=A.nnz_total, n=n))
    _, f = seq_dot(x[:n], b)
    checks.append(f == count_flops("dot", n=n))
    k = 5
    Q = rng.standard_normal((k, n))
    w = rng.standard_normal(n)
    _, _, f = seq_cgs2(Q, w)
    checks.append(f == count_flops("cgs2", n=n, k=k))
    _, f = seq_gemv_update(Q, rng.standard_normal(k))
    checks.append(f == count_flops("gemv_update", n=n, k=k))

    hier = build_hierarchy(GlobalProblem.from_local(4, 4, 4, 1).domain(0), 2,
                           sweeps=SmootherWorkspace())
    Af = hier.levels[0].A_hi
    f2c = hier.levels[1].f2c
    xf = np.zeros(Af.n_cols_extended)
    xf[: Af.n_rows] = rng.standard_normal(Af.n_rows)
    _, f = seq_restrict_residual(Af.values, Af.col_idx,
                                 rng.standard_normal(Af.n_rows), xf, f2c)
    nnz_injected = int(np.sum(Af.row_nnz[f2c]))
    checks.append(f == count_flops("restrict_fused", nnz=nnz_injected,
                                   n_c=len(f2c)))
    f = seq_prolong_add(np.zeros(Af.n_cols_extended),
                        rng.standard_normal(len(f2c)), f2c)
    checks.append(f == count_flops("prolong_add", n_c=len(f2c)))

    hi = count_bytes("spmv", 8, nnz=A.nnz_total, n=n)
    lo = count_bytes("spmv", 4, nnz=A.nnz_total, n=n)
    ratio_ok = 0.5 < lo / hi < 1.0

    ok = all(checks) and ratio_ok
    _report(7, "flop and byte model", ok)
    assert all(checks)
    assert ratio_ok


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_determinism_and_replication():
    cfg = BenchConfig(local_nx=8, local_ny=8, local_nz=8, ranks=1,
                      time_seconds=0.0)
    first = strip_timing(run_benchmark(cfg))
    second = strip_timing(run_benchmark(cfg))
    deterministic = first == second

    # Replicated solver state must agree bitwise across 8 ranks at every
    # step; the solver raises if the debug cross-check ever fails.
    rcfg = BenchConfig(local_nx=8, local_ny=8, local_nz=8, ranks=8,
                       time_seconds=0.0)

    def worker(world, rank):
        hier, lv, b = _build_state(rcfg, 8, world, rank)

        def precond(r):
            return hier.apply(r)

        out = []
        for mode in ("double", "mixed"):
            res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, mode=mode,
                              tol=1e-9, m=rcfg.restart, plan=lv.plan,
                              world=world, rank=rank, debug_replication=True)
            out.append((res.converged, res.iterations))
        return out

    results = RankWorld(8).run(worker)
    replicated = all(r == results[0] for r in results)
    (dconv, dn), (mconv, mn) = results[0]

    ok = deterministic and replicated and dconv and mconv
    _report(8, "determinism and replication", ok)
    assert deterministic
    assert replicated
    assert dconv and dn == 18  # frozen 8-rank regression values
    assert mconv and mn == 19


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_multirank_consistency():
    t0 = time.perf_counter()

    # 8-rank SpMV output equals the 1-rank output bitwise on global 32^3.
    A1 = _single_rank_matrix(32, 32, 32)
    n_global = A1.n_rows
    rng = np.random.default_rng(9)
    x_global = rng.integers(-9, 10, size=n_global).astype(np.float64)
    x1 = np.zeros(A1.n_cols_extended)
    x1[:n_global] = x_global
    y_global = spmv(A1, x1)

    gp = GlobalProblem.from_local(16, 16, 16, 8)

    def spmv_worker(world, rank):
        A = generate_matrix(gp.domain(rank))
        c = color(A, "greedy")
        A, _ = permute_system(A, [], c)
        plan = build_halo_plan(gp.domain(rank), A, world=world, rank=rank,
                               iperm=c.iperm)
        gids = A.col_global[np.arange(A.n_rows), A.diag_pos]
        x = np.zeros(A.n_cols_extended)
        x[: A.n_rows] = x_global[gids]
        y = spmv(A, x, plan, world, rank)
        return np.array_equal(y, y_global[gids])

    spmv_ok = all(RankWorld(8).run(spmv_worker))

    # Both solver modes converge to 1e-9 on the same global problem.
    cfg = BenchConfig(local_nx=16, local_ny=16, local_nz=16, ranks=8,
                      time_seconds=0.0)

    def solve_worker(world, rank):
        hier, lv, b = _build_state(cfg, 8, world, rank)

        def precond(r):
            return hier.apply(r)

        out = []
        for mode in ("double", "mixed"):
            res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, mode=mode,
                              tol=1e-9, m=cfg.restart, plan=lv.plan,
                              world=world, rank=rank)
            out.append((res.converged, res.relres < 1e-9))
        return out

    solve_results = RankWorld(8).run(solve_worker)
    solves_ok = all(flag for per_rank in solve_results
                    for pair in per_rank for flag in pair)
    elapsed = time.perf_counter() - t0

    ok = spmv_ok and solves_ok and elapsed < 120.0
    _report(9, "multi-rank consistency", ok)
    assert spmv_ok
    assert solves_ok
    assert elapsed < 120.0
