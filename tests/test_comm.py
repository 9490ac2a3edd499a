"""Thread-backed rank world: collectives, halo plans, exchanges."""

import numpy as np
import pytest

from mxpbench import comm
from mxpbench.comm import (ProtocolError, RankWorld, TopologyError,
                           build_halo_plan, exchange, exchange_overlapped)
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import spmv
from mxpbench.problem import generate_matrix

from _oracles import local_to_global, seq_spmv


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


def test_mismatched_collectives_raise_on_every_rank():
    def worker(world, rank):
        try:
            if rank == 0:
                world.all_reduce_sum(rank, 1.0)
            else:
                world.gather(rank, 1.0)
        except ProtocolError as exc:
            return str(exc)
        return "returned"

    outs = RankWorld(2).run(worker)
    assert all("different collectives" in o for o in outs)


def test_skipped_collective_times_out(monkeypatch):
    monkeypatch.setattr(comm, "_RECV_TIMEOUT", 0.5)

    def worker(world, rank):
        world.all_reduce_sum(rank, 1.0)
        if rank == 0:
            world.all_reduce_sum(rank, 1.0)   # rank 1 never joins this one

    with pytest.raises(ProtocolError, match="timed out"):
        RankWorld(2).run(worker)


def _plan_worker(world, rank, gp):
    dom = gp.domain(rank)
    A = generate_matrix(dom)
    plan = build_halo_plan(dom, A, world, rank)
    return dom, A, plan


def _slot_globals(A):
    """Global id held by each halo slot, read from A's rewritten columns."""
    halo = A.col_idx >= A.n_rows
    pairs = np.unique(np.stack([A.col_idx[halo], A.col_global[halo]]), axis=1)
    slots, globs = pairs
    assert np.array_equal(slots, np.arange(A.n_rows, A.n_cols_extended))
    return globs


def test_two_rank_face_plan():
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        other = 1 - rank
        assert plan.neighbors == [other]
        assert A.n_cols_extended - A.n_rows == 16    # one 4x4 plane
        assert plan.recv_slices[other] == slice(A.n_rows, A.n_rows + 16)
        assert len(plan.send_rows[other]) == 16
        assert A.col_idx.max() < A.n_cols_extended
        # slots are assigned in ascending global order
        assert np.all(np.diff(_slot_globals(A)) > 0)
        return True

    assert all(RankWorld(2).run(worker))


@pytest.mark.parametrize("ranks", [8, 27])
def test_exchange_delivers_global_ids(ranks):
    # Fill each rank's owned entries with their global ids; after the
    # exchange every halo slot must hold exactly its own global id.
    gp = GlobalProblem.from_local(4, 4, 4, ranks)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        v = np.zeros(A.n_cols_extended)
        for k in range(dom.lnz):
            for j in range(dom.lny):
                for i in range(dom.lnx):
                    v[dom.local_index(i, j, k)] = local_to_global(dom, i, j, k)
        exchange(v, plan, world, rank)
        globs = _slot_globals(A)
        assert np.array_equal(v[A.n_rows:], globs)
        # slots ascend by (owner rank, global id); the neighbors' receive
        # slices tile the halo in order, each holding only its own columns
        owners = dom.owner_rank(globs)
        keys = list(zip(owners.tolist(), globs.tolist()))
        assert keys == sorted(keys)
        cols = np.arange(A.n_cols_extended)
        tiled = [cols[plan.recv_slices[nb]] for nb in plan.neighbors]
        assert np.array_equal(np.concatenate(tiled), cols[A.n_rows:])
        for nb, slots in zip(plan.neighbors, tiled):
            assert np.all(owners[slots - A.n_rows] == nb)
        return len(plan.neighbors), A.n_cols_extended - A.n_rows

    outs = RankWorld(ranks).run(worker)
    if ranks == 8:
        # corner blocks of a 2x2x2 decomposition: 3 faces + 3 edges + 1 corner
        assert all(o == (7, 3 * 16 + 3 * 4 + 1) for o in outs)
    else:
        # the centre of a 3x3x3 decomposition sees the whole 6^3 shell
        assert outs[13] == (26, 6 ** 3 - 4 ** 3)


def test_exchange_rejects_a_short_halo_message():
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        if rank == 0:
            plan.send_rows[1] = plan.send_rows[1][:-1]
        exchange(np.zeros(A.n_cols_extended), plan, world, rank)

    with pytest.raises(ProtocolError, match="got 15, expected 16"):
        RankWorld(2).run(worker)


def test_halo_plan_drops_arrays_derived_before_it():
    # spmv_cols() built while off-rank columns were still UNRESOLVED must
    # not outlive the plan that rewrites them; stale, halo entries read x[0].
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        dom = gp.domain(rank)
        A = generate_matrix(dom)
        A.spmv_cols()
        plan = build_halo_plan(dom, A, world, rank)
        rng = np.random.default_rng(40 + rank)
        x = np.zeros(A.n_cols_extended)
        x[:A.n_rows] = rng.standard_normal(A.n_rows)
        y_over = spmv(A, x.copy(), plan=plan, world=world, rank=rank)
        exchange(x, plan, world, rank)
        y_plain = spmv(A, x)
        y_ref, _ = seq_spmv(A.values, A.col_idx, x)
        return (y_over.tobytes() == y_ref.tobytes()
                and y_plain.tobytes() == y_ref.tobytes())

    assert all(RankWorld(2).run(worker))


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
            bad = local_to_global(gp.domain(8), 0, 0, 0)
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
    assert plan.send_rows == {} and plan.recv_slices == {}
    assert A.n_cols_extended == A.n_rows
