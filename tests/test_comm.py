"""Thread-backed rank world: collectives, halo plans, exchanges."""

import numpy as np
import pytest

from mxpbench.comm import (RankWorld, TopologyError, build_halo_plan,
                           exchange, exchange_overlapped)
from mxpbench.geometry import GlobalProblem
from mxpbench.problem import generate_matrix


def test_all_reduce_sum_fixed_order():
    # Values chosen so float addition order matters; every rank must see
    # the exact left-to-right ascending-rank fold.
    vals = [0.1, -0.7, 1e-17, 0.3, -1e-17, 0.7, 0.1, -0.2]
    expected = 0.0
    for v in vals:
        expected = expected + v

    def worker(world, rank):
        return world.all_reduce_sum(rank, vals[rank])

    world = RankWorld(8)
    outs = world.run(worker)
    assert all(o == expected for o in outs)


def test_all_reduce_sum_arrays():
    def worker(world, rank):
        return world.all_reduce_sum(rank, np.full(3, float(rank + 1)))

    outs = RankWorld(4).run(worker)
    for o in outs:
        assert np.array_equal(o, np.full(3, 10.0))


def test_send_recv_fifo_order():
    def worker(world, rank):
        if rank == 0:
            for i in range(5):
                world.send(0, 1, i * 10)
            return None
        return [world.recv(1, 0) for _ in range(5)]

    outs = RankWorld(2).run(worker)
    assert outs[1] == [0, 10, 20, 30, 40]


def test_gather_collects_in_rank_order():
    def worker(world, rank):
        return world.gather(rank, rank * rank)

    outs = RankWorld(4).run(worker)
    assert outs[0] == [0, 1, 4, 9]
    assert outs[1] is None and outs[3] is None


def test_run_propagates_worker_exception():
    def worker(world, rank):
        world.gather(rank, rank)
        if rank == 2:
            raise ValueError("rank 2 exploded")
        world.gather(rank, rank)   # others left waiting -> abort path
        return rank

    with pytest.raises(ValueError, match="rank 2 exploded"):
        RankWorld(4).run(worker)


def _plan_worker(world, rank, gp):
    dom = gp.domain(rank)
    A = generate_matrix(dom)
    plan = build_halo_plan(dom, A, world, rank)
    return dom, A, plan


def test_two_rank_face_plan():
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        other = 1 - rank
        assert plan.neighbors == [other]
        assert plan.halo_size == 16                  # one 4x4 plane
        assert plan.recv_counts[other] == 16
        assert len(plan.send_rows[other]) == 16
        assert plan.halo_offset == A.n_rows
        assert A.n_cols_extended == A.n_rows + 16
        assert A.col_idx.max() < A.n_cols_extended
        # slots are assigned in ascending global order
        slots = sorted(plan.slot_of_global.items())
        assert [s for _, s in slots] == list(range(A.n_rows, A.n_rows + 16))
        return True

    assert all(RankWorld(2).run(worker))


def test_exchange_delivers_global_ids():
    # Fill each rank's owned entries with their global ids; after the
    # exchange every halo slot must hold exactly its own global id.
    gp = GlobalProblem.from_local(4, 4, 4, 8)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        assert len(plan.neighbors) == 7
        v = np.zeros(A.n_cols_extended)
        for k in range(dom.lnz):
            for j in range(dom.lny):
                for i in range(dom.lnx):
                    v[dom.local_index(i, j, k)] = dom.local_to_global(i, j, k)
        exchange(v, plan, world, rank)
        for g, slot in plan.slot_of_global.items():
            assert v[slot] == g
        return plan.halo_size

    sizes = RankWorld(8).run(worker)
    # corner blocks of a 2x2x2 decomposition: 3 faces + 3 edges + 1 corner
    assert all(s == 3 * 16 + 3 * 4 + 1 for s in sizes)


def test_exchange_overlapped_matches_blocking():
    gp = GlobalProblem.from_local(4, 4, 4, 8)
    rng = np.random.default_rng(5)
    data = [rng.integers(-9, 9, size=64).astype(float) for _ in range(8)]

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        v1 = np.zeros(A.n_cols_extended)
        v1[:64] = data[rank]
        v2 = v1.copy()
        exchange(v1, plan, world, rank)
        hits = []
        exchange_overlapped(v2, plan, world, rank,
                            lambda: hits.append(True))
        assert hits == [True]     # interior work ran exactly once
        assert np.array_equal(v1, v2)
        return True

    assert all(RankWorld(8).run(worker))


def test_non_neighbor_column_raises_topology_error():
    gp = GlobalProblem.from_local(4, 4, 4, 12)   # 2x2x3 rank grid

    def worker(world, rank):
        dom = gp.domain(rank)
        A = generate_matrix(dom)
        if rank == 0:
            # rank 8 sits two steps away along z: not a geometric neighbor
            assert 8 not in dom.neighbor_ranks()
            bad = gp.domain(8).local_to_global(0, 0, 0)
            unresolved = np.argwhere(A.col_idx == -2)
            i, s = unresolved[0]
            A.col_global[i, s] = bad
        return build_halo_plan(dom, A, world, rank)

    with pytest.raises(TopologyError, match="not a neighbor"):
        RankWorld(12).run(worker)


def test_single_rank_plan_is_empty():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    dom = gp.domain(0)
    A = generate_matrix(dom)
    plan = build_halo_plan(dom, A)
    assert plan.neighbors == []
    assert plan.halo_size == 0
    assert not plan.has_traffic
    assert A.n_cols_extended == A.n_rows
