"""Rank factorization, global/local index maps, neighbors, coarsening."""

import numpy as np
import pytest

from mxpbench.geometry import CoarseningError, GlobalProblem, factor_ranks

from _oracles import best_factor, local_to_global, owns_global


def test_factor_ranks_small_cases():
    assert factor_ranks(1) == (1, 1, 1)
    assert factor_ranks(2) == (1, 1, 2)
    assert factor_ranks(8) == (2, 2, 2)
    assert factor_ranks(27) == (3, 3, 3)
    assert factor_ranks(12) == (2, 2, 3)
    assert factor_ranks(64) == (4, 4, 4)


def test_factor_ranks_matches_brute_force():
    for p in range(1, 65):
        assert factor_ranks(p) == best_factor(p), p


def test_factor_ranks_product_and_order():
    for p in (1, 2, 3, 5, 7, 30, 36, 60, 100):
        a, b, c = factor_ranks(p)
        assert a * b * c == p
        assert a <= b <= c


def test_global_problem_from_local():
    gp = GlobalProblem.from_local(16, 16, 16, 8)
    assert (gp.npx, gp.npy, gp.npz) == (2, 2, 2)
    assert (gp.nx, gp.ny, gp.nz) == (32, 32, 32)
    assert gp.n_global == 32 ** 3
    assert gp.ranks == 8


def test_domain_offsets_partition_the_grid():
    gp = GlobalProblem.from_local(4, 6, 8, 12)   # 2 x 2 x 3 rank grid
    seen = np.zeros(gp.n_global, dtype=int)
    for r in range(gp.ranks):
        d = gp.domain(r)
        for k in range(d.lnz):
            for j in range(d.lny):
                for i in range(d.lnx):
                    seen[local_to_global(d, i, j, k)] += 1
    assert np.all(seen == 1)    # every point owned exactly once


def test_local_global_roundtrip_random():
    rng = np.random.default_rng(7)
    gp = GlobalProblem.from_local(4, 8, 4, 12)
    for _ in range(200):
        r = int(rng.integers(gp.ranks))
        d = gp.domain(r)
        i = int(rng.integers(d.lnx))
        j = int(rng.integers(d.lny))
        k = int(rng.integers(d.lnz))
        g = local_to_global(d, i, j, k)
        assert owns_global(d, g)
        assert d.global_coords(g) == (d.ox + i, d.oy + j, d.oz + k)
        assert d.global_to_local(g) == d.local_index(i, j, k)
        assert d.owner_rank(g) == r


def test_global_to_local_rejects_a_foreign_index():
    gp = GlobalProblem.from_local(4, 4, 4, 2)
    d0, d1 = gp.domain(0), gp.domain(1)
    own = np.array([local_to_global(d0, i, 1, 2) for i in range(4)])
    assert np.array_equal(d0.global_to_local(own),
                          [d0.local_index(i, 1, 2) for i in range(4)])
    foreign = local_to_global(d1, 0, 0, 0)
    with pytest.raises(ValueError, match="not owned"):
        d0.global_to_local(np.append(own, foreign))


def test_owner_rank_consistent_across_ranks():
    rng = np.random.default_rng(3)
    gp = GlobalProblem.from_local(4, 4, 4, 8)
    d0 = gp.domain(0)
    for _ in range(100):
        g = int(rng.integers(gp.n_global))
        owner = d0.owner_rank(g)
        assert owns_global(gp.domain(owner), g)


def test_local_to_global_is_x_fastest():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    d = gp.domain(0)
    assert local_to_global(d, 0, 0, 0) == 0
    assert local_to_global(d, 1, 0, 0) == 1
    assert local_to_global(d, 0, 1, 0) == 4
    assert local_to_global(d, 0, 0, 1) == 16


def test_neighbor_counts():
    gp = GlobalProblem.from_local(4, 4, 4, 8)     # 2x2x2 rank grid
    for r in range(8):
        assert len(gp.domain(r).neighbor_ranks()) == 7   # corner ranks
    gp27 = GlobalProblem.from_local(4, 4, 4, 27)  # 3x3x3 rank grid
    assert len(gp27.domain(13).neighbor_ranks()) == 26   # interior rank
    corner = gp27.domain(0)
    assert len(corner.neighbor_ranks()) == 7
    gp1 = GlobalProblem.from_local(4, 4, 4, 1)
    assert gp1.domain(0).neighbor_ranks() == []


def test_neighbors_are_symmetric():
    gp = GlobalProblem.from_local(4, 4, 4, 12)
    nbrs = {r: set(gp.domain(r).neighbor_ranks()) for r in range(12)}
    for r, ns in nbrs.items():
        assert r not in ns
        for q in ns:
            assert r in nbrs[q]


def test_coarsen_halves_every_axis():
    gp = GlobalProblem.from_local(16, 16, 16, 8)
    d = gp.domain(3)
    c = d.coarsen()
    assert (c.lnx, c.lny, c.lnz) == (8, 8, 8)
    assert (c.gnx, c.gny, c.gnz) == (16, 16, 16)
    assert c.level == d.level + 1
    assert c.rank == d.rank
    # four levels deep from 16^3: 16 -> 8 -> 4 -> 2
    c3 = c.coarsen().coarsen()
    assert (c3.lnx, c3.lny, c3.lnz) == (2, 2, 2)


def test_coarsen_rejects_odd_dimension():
    gp = GlobalProblem.from_local(6, 6, 6, 1)
    with pytest.raises(CoarseningError):
        gp.domain(0).coarsen().coarsen()
    gp2 = GlobalProblem.from_local(4, 6, 4, 1)
    c = gp2.domain(0).coarsen()   # 2, 3, 2
    with pytest.raises(CoarseningError) as exc:
        c.coarsen()
    assert "y" in str(exc.value)   # the failing axis is named


def test_coarse_offsets_follow_fine_offsets():
    gp = GlobalProblem.from_local(8, 8, 8, 8)
    for r in range(8):
        d = gp.domain(r)
        c = d.coarsen()
        assert (c.ox, c.oy, c.oz) == (d.ox // 2, d.oy // 2, d.oz // 2)
