"""Thread-backed rank world: collectives, halo plans, exchanges."""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from mxpbench import comm
from mxpbench.coloring import color
from mxpbench.comm import (ProtocolError, RankWorld, build_halo_plan,
                           exchange, exchange_overlapped)
from mxpbench.geometry import GlobalProblem
from mxpbench.krylov import spmv
from mxpbench.metrics import Tally
from mxpbench.multigrid import build_hierarchy
from mxpbench.problem import generate_matrix
from mxpbench.smoother import forward_gs_sweep

from _oracles import (local_index, local_to_global, oracle_cols, owner_rank,
                      seq_gs_sweep, seq_spmv, with_sets)


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


def test_all_reduce_sum_reads_no_buffer_its_caller_reuses():
    # Each rank rewrites one buffer right after every all-reduce returns; a
    # peer still summing the previous round must not see the new values.
    rounds, nranks = 300, 4
    switch = sys.getswitchinterval()

    def worker(world, rank):
        buf = np.empty(8)
        bad = 0
        for i in range(rounds):
            buf[:] = rank + i
            got = world.all_reduce_sum(rank, buf)
            bad += not np.all(got == sum(r + i for r in range(nranks)))
        return bad

    sys.setswitchinterval(1e-6)
    try:
        outs = RankWorld(nranks).run(worker)
    finally:
        sys.setswitchinterval(switch)
    assert outs == [0] * nranks


def test_send_recv_fifo_order():
    def worker(world, rank):
        if rank == 0:
            for i in range(5):
                world.send(0, 1, i * 10)
            return None
        return [world.recv(1, 0) for _ in range(5)]

    outs = RankWorld(2).run(worker)
    assert outs[1] == [0, 10, 20, 30, 40]


def test_mailboxes_keep_fifo_and_rank_order_under_load():
    # Alternate halo messages (two in flight per pair) with collectives; the
    # tuple "sum" concatenates, so it shows the fold order, which two-rank
    # float addition cannot.
    rounds = 2000
    switch = sys.getswitchinterval()

    def worker(world, rank):
        peer = 1 - rank
        bad = 0
        for i in range(rounds):
            world.send(rank, peer, (peer, 2 * i))
            world.send(rank, peer, (peer, 2 * i + 1))
            bad += world.recv(rank, peer) != (rank, 2 * i)
            bad += world.recv(rank, peer) != (rank, 2 * i + 1)
            bad += world.all_reduce_sum(rank, (rank, i)) != (0, i, 1, i)
        return bad

    sys.setswitchinterval(1e-6)
    try:
        outs = RankWorld(2).run(worker)
    finally:
        sys.setswitchinterval(switch)
    assert outs == [0, 0]


def test_run_propagates_worker_exception():
    def worker(world, rank):
        world.all_reduce_sum(rank, rank)
        if rank == 2:
            raise ValueError("rank 2 exploded")
        world.all_reduce_sum(rank, rank)   # others left waiting -> abort path
        return rank

    with pytest.raises(ValueError, match="rank 2 exploded"):
        RankWorld(4).run(worker)


def test_mismatched_collectives_raise_on_every_rank():
    # Ranks 0 and 2 enter a collective while rank 1 exchanges halo messages
    # with both; each rank meets a message of the other kind and raises.
    def worker(world, rank):
        try:
            if rank == 1:
                world.send(1, 0, 1.0)
                world.send(1, 2, 1.0)
                world.recv(1, 0)
            else:
                world.all_reduce_sum(rank, 1.0)
        except ProtocolError as exc:
            return str(exc)
        return "returned"

    outs = RankWorld(3).run(worker)
    assert all("different collectives" in o for o in outs)


def _current_thread(world, rank):
    return threading.current_thread()


def test_each_rank_runs_on_one_named_thread_across_runs():
    world = RankWorld(3)
    first = world.run(_current_thread)
    assert world.run(_current_thread) == first     # the same Thread objects
    assert [t.name for t in first] == ["rank-0", "rank-1", "rank-2"]
    assert len(set(first)) == 3 and threading.current_thread() not in first


def test_run_starts_no_thread():
    world = RankWorld(3)
    before = threading.active_count()
    world.run(_current_thread)
    assert threading.active_count() == before


def test_a_discarded_world_stops_its_threads():
    world = RankWorld(3)
    threads = world.run(_current_thread)
    del world
    gc.collect()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)


def test_halo_message_meeting_a_collective_raises_at_once(monkeypatch):
    monkeypatch.setattr(comm, "_RECV_TIMEOUT", 2.0)

    def worker(world, rank):
        t0 = time.perf_counter()
        try:
            if rank == 0:
                world.send(0, 1, np.zeros(3))
                world.recv(0, 1)
            else:
                world.all_reduce_sum(rank, 1.0)
        except ProtocolError as exc:
            return str(exc), time.perf_counter() - t0
        return "returned", 0.0

    for msg, seconds in RankWorld(2).run(worker):
        assert "'send'" in msg and "'all_reduce_sum'" in msg
        assert "different collectives" in msg
        assert seconds < 1.0


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
    plan = build_halo_plan(dom, np.arange(dom.n_rows))   # natural row order
    return dom, generate_matrix(dom), plan


def _slot_globals(A):
    """Global id held by each halo slot, read from A's columns."""
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
                    v[local_index(dom, i, j, k)] = local_to_global(dom, i, j, k)
        exchange(v, plan, world, rank)
        globs = _slot_globals(A)
        assert np.array_equal(v[A.n_rows:], globs)
        # slots ascend by (owner rank, global id); the neighbors' receive
        # slices tile the halo in order, each holding only its own columns
        owners = owner_rank(dom, globs)
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


def test_overlapped_spmv_matches_oracle_on_two_ranks():
    # A generated matrix holds its halo slots, and the plan comes from the
    # same grid: SpMV gives the oracle's bits both overlapped with the
    # exchange and after it.
    gp = GlobalProblem.from_local(4, 4, 4, 2)

    def worker(world, rank):
        dom, A, plan = _plan_worker(world, rank, gp)
        with_sets(A)
        rng = np.random.default_rng(40 + rank)
        x = np.zeros(A.n_cols_extended)
        x[:A.n_rows] = rng.standard_normal(A.n_rows)
        y_over = spmv(A, x.copy(), plan=plan, world=world, rank=rank,
                      tally=Tally())
        exchange(x, plan, world, rank)
        y_plain = spmv(A, x, tally=Tally())
        y_ref, _ = seq_spmv(A.values, oracle_cols(A), x)
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


@pytest.mark.parametrize("ranks", [2, 8])
def test_overlapped_kernels_recompute_every_row_that_reads_the_halo(ranks):
    # The overlapped work runs on the whole matrix while the halo tail is
    # stale, here NaN: a row that reads a halo slot and is not recomputed
    # once the halo lands keeps a NaN.
    gp = GlobalProblem.from_local(4, 4, 4, ranks)

    def worker(world, rank):
        dom = gp.domain(rank)
        c = color(dom, "greedy")
        A = with_sets(generate_matrix(dom, c.perm), c)
        plan = build_halo_plan(dom, iperm=c.iperm)
        n = A.n_rows
        rng = np.random.default_rng(60 + rank)
        r = rng.standard_normal(n)
        stale = np.full(A.n_cols_extended, np.nan)
        stale[:n] = rng.standard_normal(n)
        fresh = stale.copy()
        exchange(fresh, plan, world, rank)
        assert not np.isnan(fresh).any()

        y_over = spmv(A, stale.copy(), plan, world, rank, tally=Tally())
        y_block = spmv(A, fresh, tally=Tally())
        y_ref, _ = seq_spmv(A.values, oracle_cols(A), fresh)

        z_over = stale.copy()
        forward_gs_sweep(A, r, z_over, plan, world, rank, tally=Tally())
        z_block = fresh.copy()
        forward_gs_sweep(A, r, z_block, tally=Tally())
        z_ref = fresh.copy()
        seq_gs_sweep(A.values, oracle_cols(A), A.diag_pos, r, z_ref)
        return [a.tobytes() == b.tobytes()
                for a, b in ((y_over, y_block), (y_block, y_ref),
                             (z_over, z_block), (z_block, z_ref))]

    assert RankWorld(ranks).run(worker) == [[True] * 4] * ranks


def test_single_rank_plan_is_empty():
    gp = GlobalProblem.from_local(4, 4, 4, 1)
    dom = gp.domain(0)
    A = generate_matrix(dom)
    plan = build_halo_plan(dom, np.arange(dom.n_rows))
    assert plan.neighbors == []
    assert plan.send_rows == {} and plan.recv_slices == {}
    assert A.n_cols_extended == A.n_rows


def test_plans_agree_without_messages():
    # Built from each rank's own grid arithmetic, the rows a rank sends to
    # nb are, in order, the global ids that nb's receive slice from it
    # holds, at every level of the hierarchy.
    gp = GlobalProblem.from_local(4, 4, 4, 27)

    def worker(world, rank):
        h = build_hierarchy(gp.domain(rank), 2, world, rank)
        out = []
        for lv in h.levels:
            A = lv.A_hi
            gids = np.concatenate((
                A.col_global[np.arange(A.n_rows), A.diag_pos],
                _slot_globals(A)))
            out.append(({nb: gids[rows]
                         for nb, rows in lv.plan.send_rows.items()},
                        {nb: gids[sl]
                         for nb, sl in lv.plan.recv_slices.items()}))
        return out

    outs = RankWorld(27).run(worker)
    for lev in range(2):
        pairs = 0
        for rank, levels in enumerate(outs):
            sends, _ = levels[lev]
            for nb, sent in sends.items():
                assert np.array_equal(sent, outs[nb][lev][1][rank])
                pairs += 1
        # Per axis, ranks 0, 1, 2 see 2, 3, 2 coordinates (their own too).
        assert pairs == (2 + 3 + 2) ** 3 - 27
