"""Tests for the geometric multigrid hierarchy and V-cycle."""

import numpy as np
import pytest

from mxpbench.comm import RankWorld
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
        assert lv.A_lo.chunk_cols is lv.A_hi.chunk_cols


def test_greedy_set_up_assembles_each_level_once_in_colored_order(
        monkeypatch):
    import mxpbench.multigrid as multigrid

    perms = []
    generate = multigrid.generate_matrix

    def recording(dom, perm=None):
        perms.append(perm)
        return generate(dom, perm)

    monkeypatch.setattr(multigrid, "generate_matrix", recording)
    h = _hierarchy(8, 8, 8, 3)
    # One matrix per level, no natural-order one: nothing to permute.
    assert len(perms) == len(h.levels)
    assert all(p is lv.coloring.perm for p, lv in zip(perms, h.levels))


def test_hierarchy_too_deep_raises():
    gp = GlobalProblem.from_local(12, 12, 12, 1)
    # 12 -> 6 -> 3 and 3 is not divisible by 2.
    with pytest.raises(CoarseningError):
        build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())


def test_hierarchy_with_neighbors_needs_a_world():
    # Without a world every halo exchange would do nothing and leave the
    # halo slots stale, so a domain with neighbors is refused.
    gp = GlobalProblem.from_local(4, 4, 4, 2)
    with pytest.raises(ValueError, match="neighbors but no world"):
        build_hierarchy(gp.domain(1), 2)


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
    prolong_add(x_f, x_c, coarse.f2c, tally=Tally())
    # Injection is the exact right-inverse of prolongation.
    assert np.array_equal(restrict_inject(x_f, coarse.f2c), x_c)
    # prolong_add touches exactly the injection slots.
    assert np.count_nonzero(x_f) == len(x_c)
    # A second prolongation accumulates instead of overwriting.
    prolong_add(x_f, x_c, coarse.f2c, tally=Tally())
    assert np.array_equal(restrict_inject(x_f, coarse.f2c), 2.0 * x_c)


def _held_arrays(obj):
    """Every array in a tree of tuples, such as a matrix's ``sets``."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for o in obj for a in _held_arrays(o)]
    return []


def _index_packs(sets):
    """The column and row arrays of every pack in ``sets``."""
    packs = [sets.halo[0]]
    if sets.restrict is not None:
        packs.append(sets.restrict[1])
    return [a for p in packs for a in p.arrays[1:]]


def _two_rank_hierarchy(worker):
    gp = GlobalProblem.from_local(8, 8, 8, 2)
    return RankWorld(2).run(
        lambda world, rank: worker(build_hierarchy(gp.domain(rank), 3,
                                                   world, rank)))


def _chunk_count(n):
    return -(-n // 256)


def test_set_up_attaches_chunked_sets_sharing_index_packs():
    # Row-major packs give the same bits, but row_dot over all rows of a
    # 32^3 level then runs 4-6x slower; every set is 256-row SELL chunks.
    def worker(h):
        for lv, coarse in zip(h.levels, h.levels[1:] + [None]):
            hi, lo = lv.A_hi.sets, lv.A_lo.sets
            assert hi.all.dtype == np.float64 and lo.all.dtype == np.float32
            assert hi.halo is not None and lo.halo is not None
            assert (hi.restrict is None) == (coarse is None)
            # one index pack per level, read by both precisions
            assert all(a is b for a, b in zip(_index_packs(hi),
                                              _index_packs(lo), strict=True))
            for A in (lv.A_hi, lv.A_lo):
                held = _held_arrays(A.sets)
                assert all(a.flags.c_contiguous and a.shape[2] == 256
                           for a in held if a.ndim == 3)
                assert not any(a.ndim == 2 for a in held)
                beside = [a for a in held if a is not A.chunk_values
                          and a is not A.chunk_cols]
                # no copy of the level's values or columns, in any shape:
                # beside the diagonal, only the packs' chunks, and each
                # pack holds fewer rows than the level
                packs = [A.sets.halo[0]] + (
                    [] if coarse is None else [A.sets.restrict[1]])
                assert all(p.args[0] < A.n_rows for p in packs)
                chunks = {id(a) for p in packs for a in p.arrays[:2]}
                assert {id(a) for a in beside if a.ndim == 3} == chunks
                assert all(a.size == A.n_rows for a in beside
                           if a.dtype.kind == "f" and a.ndim == 1)
                # packed values only for the rows that read a halo slot and
                # the rows the next level injects from, each pack padded to
                # whole chunks
                packed = {id(a): a.size for a in beside
                          if a.dtype.kind == "f" and a.ndim == 3}
                boundary = (A.col_idx >= A.n_rows).any(axis=1).sum()
                injected = 0 if coarse is None else len(coarse.f2c)
                assert sum(packed.values()) == 256 * 27 * (
                    _chunk_count(boundary) + _chunk_count(injected))
        return True

    assert _two_rank_hierarchy(worker) == [True, True]


def test_solves_leave_every_set_as_set_up_built_it():
    def worker(h):
        def held():
            return [(A.sets, _held_arrays(A.sets)) for lv in h.levels
                    for A in (lv.A_hi, lv.A_lo)]

        before = held()
        lv = h.levels[0]
        b = lv.A_hi.values.sum(axis=1)
        for mode in ("mixed", "double"):
            res = gmres_solve(lv.A_hi, lv.A_lo, lambda r: h.apply(r, Tally()),
                              b, np.zeros(len(b)), mode=mode, plan=lv.plan,
                              world=h.world, rank=h.rank, tally=Tally())
            assert res.converged
        after = held()
        return all(s0 is s1 and len(a0) == len(a1)
                   and all(x is y for x, y in zip(a0, a1))
                   for (s0, a0), (s1, a1) in zip(before, after, strict=True))

    assert _two_rank_hierarchy(worker) == [True, True]


@pytest.mark.parametrize("which", ["A_hi", "A_lo"])   # float64, float32
def test_fused_residual_restrict_matches_unfused(which):
    h = _hierarchy(8, 8, 8, 3)
    fine, coarse = h.levels[0], h.levels[1]
    A = getattr(fine, which)
    rng = np.random.default_rng(5)
    x = np.zeros(A.n_cols_extended, dtype=A.dtype)
    x[: A.n_rows] = rng.standard_normal(A.n_rows)
    b = rng.standard_normal(A.n_rows).astype(A.dtype)

    r_c = fused_residual_restrict(A, b, x, tally=Tally())
    y = spmv(A, x, tally=Tally())
    r_ref = restrict_inject(b - y, coarse.f2c)
    # The V-cycle recurses on the returned array, so it keeps b's precision.
    assert r_c.dtype == b.dtype
    assert np.array_equal(r_c, r_ref)


def test_vcycle_scaling_by_power_of_two_is_exact():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(16**3)
    # apply() reuses workspace storage, so copy before the next call.
    z = h.apply(r, Tally()).copy()
    z2 = h.apply(2.0 * r, Tally()).copy()
    assert np.array_equal(z2, 2.0 * z)


def test_vcycle_is_linear():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r1 = rng.standard_normal(16**3)
    r2 = rng.standard_normal(16**3)
    za = h.apply(0.3 * r1 + 1.7 * r2, Tally()).copy()
    zb = (0.3 * h.apply(r1, Tally()).copy()
          + 1.7 * h.apply(r2, Tally()).copy())
    assert np.linalg.norm(za - zb) <= 1e-12 * np.linalg.norm(za)


def test_vcycle_low_and_high_precision_agree():
    h = _hierarchy(16, 16, 16, 4)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(16**3)
    z_hi = h.apply(r, Tally()).copy()
    z_lo = h.apply(r.astype(np.float32), Tally()).copy()
    assert z_lo.dtype == np.float32
    rel = np.linalg.norm(z_hi - z_lo.astype(np.float64)) / np.linalg.norm(z_hi)
    assert rel <= 5e-7


def test_vcycle_reduces_residual():
    h = _hierarchy(8, 8, 8, 4)
    A = h.levels[0].A_hi
    b = A.values.sum(axis=1)  # rhs whose exact solution is all ones
    z = h.apply(b, Tally()).copy()
    x = np.zeros(A.n_cols_extended)
    x[: A.n_rows] = z
    r_new = b - spmv(A, x, tally=Tally())
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

    z_default = _hierarchy(8, 8, 8, 4).apply(b, Tally()).copy()
    assert not np.array_equal(z_heavy, z_default)


def test_vcycle_preconditioning_reduces_gmres_iterations():
    gp = GlobalProblem.from_local(8, 8, 8, 1)
    h = build_hierarchy(gp.domain(0), 4, sweeps=SmootherWorkspace())
    lv = h.levels[0]
    b = lv.A_hi.values.sum(axis=1)

    tally = Tally()

    def precond(r):
        return h.apply(r, tally)

    res_pre = gmres_solve(lv.A_hi, lv.A_lo, precond, b, np.zeros(len(b)),
                          tol=1e-9, tally=tally)
    res_plain = gmres_solve(lv.A_hi, lv.A_lo, lambda r: r, b,
                            np.zeros(len(b)), tol=1e-9, tally=Tally())
    assert res_pre.converged and res_plain.converged
    assert res_pre.iterations == 10
    assert res_plain.iterations == 12
    assert res_pre.iterations < res_plain.iterations
