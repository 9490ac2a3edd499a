"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single ``criterion N
(name): PASS|FAIL`` line, and then asserts.  Runtime budgets are asserted
where a criterion states one.
"""

import time

import numpy as np
import pytest

from mxpbench.bench import BenchConfig, _build_state, run_benchmark
from mxpbench.coloring import color
from mxpbench.comm import RankWorld, build_halo_plan, exchange
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import gmres_solve, spmv
from mxpbench.metrics import Tally, count_bytes, count_flops, penalty_factor
from mxpbench.multigrid import (
    build_hierarchy,
    fused_residual_restrict,
)
from mxpbench.problem import generate_matrix, to_low_precision
from mxpbench.smoother import SmootherWorkspace, forward_gs_sweep

from _oracles import (
    check_coloring,
    first_divergence,
    oracle_cols,
    replication_digests,
    restrict_inject,
    seq_cgs2,
    seq_dot,
    seq_gemv_update,
    seq_gs_sweep,
    seq_prolong_add,
    seq_restrict_residual,
    seq_spmv,
    strip_timing,
    with_sets,
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


def _desk_solve(mode, tol=1e-9, m=30, max_iters=300):
    hier, lv, b = _desk_hierarchy()
    tally = Tally()

    def precond(r):
        return hier.apply(r, tally)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                       mode=mode, tol=tol, m=m, max_iters=max_iters,
                       tally=tally)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # ELL SpMV against the sequential oracle, 4^3, integer data.
    A = with_sets(_single_rank_matrix(4, 4, 4))
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = rng.integers(-9, 10, size=A.n_rows).astype(np.float64)
    y_ref, _ = seq_spmv(A.values, oracle_cols(A), x)
    spmv_ok = np.array_equal(spmv(A, x, tally=Tally()), y_ref)

    # Multicolor GS sweep against sequential GS on the colored-order matrix.
    dom = GlobalProblem.from_local(4, 4, 4, 1).domain(0)
    c = color(dom, "greedy")
    Ap = with_sets(generate_matrix(dom, c.perm), c)
    r = rng.integers(-9, 10, size=Ap.n_rows).astype(np.float64)
    z = np.zeros(Ap.n_cols_extended)
    forward_gs_sweep(Ap, r, z, z_is_zero=True, tally=Tally())
    z_ref = np.zeros(Ap.n_cols_extended)
    seq_gs_sweep(Ap.values, oracle_cols(Ap), Ap.diag_pos, r, z_ref)
    gs_ok = np.array_equal(z, z_ref)

    # Fused residual+restriction against the unfused pipeline, 8^3.
    gp8 = GlobalProblem.from_local(8, 8, 8, 1)
    hier = build_hierarchy(gp8.domain(0), 2, sweeps=SmootherWorkspace())
    Af = hier.levels[0].A_hi
    f2c = hier.levels[1].f2c
    xf = np.zeros(Af.n_cols_extended)
    xf[: Af.n_rows] = rng.integers(-9, 10, size=Af.n_rows).astype(np.float64)
    bf = rng.integers(-9, 10, size=Af.n_rows).astype(np.float64)
    fused = fused_residual_restrict(Af, bf, xf, tally=Tally())
    unfused = restrict_inject(bf - spmv(Af, xf, tally=Tally()), f2c)
    fused_ok = np.array_equal(fused, unfused)

    # Overlapped vs blocking halo exchange for SpMV and GS, 8 ranks of 4^3.
    gp = GlobalProblem.from_local(4, 4, 4, 8)

    def worker(world, rank):
        cl = color(gp.domain(rank), "greedy")
        Al = generate_matrix(gp.domain(rank), cl.perm)
        plan = build_halo_plan(gp.domain(rank), iperm=cl.iperm)
        with_sets(Al, cl)
        lrng = np.random.default_rng(50 + rank)
        xv = np.zeros(Al.n_cols_extended)
        xv[: Al.n_rows] = lrng.integers(-9, 10,
                                        size=Al.n_rows).astype(np.float64)
        # Blocking reference for both kernels: exchange, then a call
        # without a world (a fresh halo, then every row).
        x_block = xv.copy()
        exchange(x_block, plan, world, rank)
        spmv_same = np.array_equal(
            spmv(Al, xv.copy(), plan, world, rank, tally=Tally()),
            spmv(Al, x_block, tally=Tally()))

        rv = lrng.integers(-9, 10, size=Al.n_rows).astype(np.float64)
        z_over = np.zeros(Al.n_cols_extended)
        z_block = np.zeros(Al.n_cols_extended)
        z_over[: Al.n_rows] = xv[: Al.n_rows]
        z_block[: Al.n_rows] = xv[: Al.n_rows]
        forward_gs_sweep(Al, rv, z_over, plan=plan, world=world, rank=rank,
                         tally=Tally())
        exchange(z_block, plan, world, rank)
        forward_gs_sweep(Al, rv, z_block, tally=Tally())
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


def test_criterion_4_basis_orthogonality(workspaces):
    # An unreachable tolerance runs the solver to its 30-iteration cap.  In
    # double mode that is one full m=30 cycle; a mixed cycle ends at float32
    # roundoff and restarts, so only its last cycle's basis is checked.
    levels = {}
    sizes = {}
    for mode in ("double", "mixed"):
        res = _desk_solve(mode, tol=1e-30, max_iters=30)
        assert res.iterations == 30
        k, Q = last_cycle_basis(workspaces[-1])
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
    """(k, Q[:k+1]) for the last cycle, k being its iteration count.

    H is zeroed at the start of every cycle and its rotated diagonal is
    nonzero up to k, so its nonzeros count the cycle's iterations.
    """
    k = np.count_nonzero(np.diag(ws.H))
    return k, ws.Q[:k + 1].astype(np.float64)


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
    dom3 = GlobalProblem.from_local(4, 4, 4, 1).domain(0)
    greedy3 = color(dom3, "greedy").num_colors

    # 2D: a depth-1 box, where the 27-point stencil is the 9-point one.
    dom2 = GlobalProblem.from_local(6, 6, 1, 1).domain(0)
    greedy2 = color(dom2, "greedy").num_colors

    A3 = generate_matrix(dom3)
    jpl_ok = all(check_coloring(A3, color(dom3, "jpl", seed=s))
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
    _, f = seq_spmv(A.values, oracle_cols(A), x)
    checks.append(f == count_flops("spmv", nnz=A.nnz_total, n=n))
    z = np.zeros(A.n_cols_extended)
    f = seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, b, z)
    checks.append(f == count_flops("gs_sweep", nnz=A.nnz_total, n=n))
    _, f = seq_dot(x[:n], b)
    checks.append(f == count_flops("norm", n=n))
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
    _, f = seq_restrict_residual(Af.values, oracle_cols(Af),
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
    # step of both solves.
    rcfg = BenchConfig(local_nx=8, local_ny=8, local_nz=8, ranks=8,
                       time_seconds=0.0)

    def worker(world, rank):
        hier, b = _build_state(rcfg, 8, world, rank)
        lv = hier.levels[0]
        tally = Tally()

        def precond(r):
            return hier.apply(r, tally)

        out = []
        for mode in ("double", "mixed"):
            res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                              mode=mode, tol=1e-9, m=rcfg.restart, plan=lv.plan,
                              world=world, rank=rank, tally=tally)
            out.append((res.converged, res.iterations))
        return out

    with replication_digests() as digests:
        results = RankWorld(8).run(worker)
    replicated = (all(r == results[0] for r in results)
                  and sorted(digests) == list(range(8))
                  and first_divergence(digests) is None)
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
    A1 = with_sets(_single_rank_matrix(32, 32, 32))
    n_global = A1.n_rows
    rng = np.random.default_rng(9)
    x_global = rng.integers(-9, 10, size=n_global).astype(np.float64)
    x1 = np.zeros(A1.n_cols_extended)
    x1[:n_global] = x_global
    y_global = spmv(A1, x1, tally=Tally())

    gp = GlobalProblem.from_local(16, 16, 16, 8)

    def spmv_worker(world, rank):
        c = color(gp.domain(rank), "greedy")
        A = generate_matrix(gp.domain(rank), c.perm)
        plan = build_halo_plan(gp.domain(rank), iperm=c.iperm)
        with_sets(A, c)
        gids = A.col_global[np.arange(A.n_rows), A.diag_pos]
        x = np.zeros(A.n_cols_extended)
        x[: A.n_rows] = x_global[gids]
        y = spmv(A, x, plan, world, rank, tally=Tally())
        return np.array_equal(y, y_global[gids])

    spmv_ok = all(RankWorld(8).run(spmv_worker))

    # Both solver modes converge to 1e-9 on the same global problem.
    cfg = BenchConfig(local_nx=16, local_ny=16, local_nz=16, ranks=8,
                      time_seconds=0.0)

    def solve_worker(world, rank):
        hier, b = _build_state(cfg, 8, world, rank)
        lv = hier.levels[0]
        tally = Tally()

        def precond(r):
            return hier.apply(r, tally)

        out = []
        for mode in ("double", "mixed"):
            res = gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                              mode=mode, tol=1e-9, m=cfg.restart, plan=lv.plan,
                              world=world, rank=rank, tally=tally)
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
