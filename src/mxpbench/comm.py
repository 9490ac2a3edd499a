"""Multi-rank runtime: worker threads, halo exchange, deterministic reductions.

Ranks are in-process threads connected by per-pair FIFO mailboxes — the same
message structure a neighborhood-and-allreduce MPI program would have, minus
the network.  Global sums are accumulated in ascending rank order on every
rank, so a run with a fixed rank count is bitwise reproducible; sums across
DIFFERENT rank counts are not promised to match (documented, not a bug).

Ranks drifting out of step is a programming error and surfaces as
ProtocolError rather than a hang or silent corruption: every rank posts the
kind of collective it called with its value, and a mismatch raises on every
rank; a rank left waiting for a collective the others skipped raises once
``_RECV_TIMEOUT`` has passed.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .problem import UNRESOLVED


class ProtocolError(Exception):
    """Ranks disagreed about the communication schedule (internal bug trap)."""


class TopologyError(Exception):
    """A matrix references a column owned by a non-neighboring rank."""


_RECV_POLL = 0.05
_RECV_TIMEOUT = 300.0


class RankWorld:
    """A fixed-size set of rank workers with mailboxes and collectives."""

    def __init__(self, nranks):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self._boxes = {(s, d): queue.Queue()
                       for s in range(nranks) for d in range(nranks) if s != d}
        self._send_seq = {pair: 0 for pair in self._boxes}
        self._recv_seq = {pair: 0 for pair in self._boxes}
        self._barrier = threading.Barrier(nranks)
        self._slots = [None] * nranks
        self._abort = threading.Event()

    # -- point to point ----------------------------------------------------

    def send(self, src, dst, payload):
        seq = self._send_seq[(src, dst)]
        self._send_seq[(src, dst)] = seq + 1
        self._boxes[(src, dst)].put((seq, payload))

    def recv(self, dst, src):
        expected = self._recv_seq[(src, dst)]
        self._recv_seq[(src, dst)] = expected + 1
        waited = 0.0
        while True:
            if self._abort.is_set():
                raise ProtocolError("world aborted while waiting for a message")
            try:
                seq, payload = self._boxes[(src, dst)].get(timeout=_RECV_POLL)
                break
            except queue.Empty:
                waited += _RECV_POLL
                if waited >= _RECV_TIMEOUT:
                    raise ProtocolError(
                        f"rank {dst} timed out receiving from rank {src}") from None
        if seq != expected:
            raise ProtocolError(
                f"message reorder on pair ({src}->{dst}): got {seq}, expected {expected}")
        return payload

    # -- collectives ---------------------------------------------------------

    def _sync(self):
        try:
            self._barrier.wait(timeout=_RECV_TIMEOUT)
        except threading.BrokenBarrierError:
            if self._abort.is_set():
                raise ProtocolError("barrier broken (another rank failed)") from None
            raise ProtocolError(
                f"collective timed out after {_RECV_TIMEOUT:g} s "
                "(a rank skipped it)") from None

    def _collect(self, rank, kind, value):
        """Post (kind, value), wait for every rank, return all values."""
        self._slots[rank] = (kind, value)
        self._sync()
        kinds = [k for k, _ in self._slots]
        if any(k != kind for k in kinds):
            raise ProtocolError(f"ranks called different collectives: {kinds}")
        return [v for _, v in self._slots]

    def all_reduce_sum(self, rank, value):
        """Sum a scalar or array over all ranks, in ascending rank order."""
        vals = self._collect(rank, "all_reduce_sum", value)
        acc = vals[0]
        acc = acc.copy() if isinstance(acc, np.ndarray) else acc
        for v in vals[1:]:
            acc = acc + v
        self._sync()
        return acc

    def gather(self, rank, value, root=0):
        """Collect every rank's value at ``root`` (list indexed by rank)."""
        vals = self._collect(rank, "gather", value)
        self._sync()
        return vals if rank == root else None

    # -- lifecycle -----------------------------------------------------------

    def run(self, fn, *args, **kwargs):
        """Run ``fn(world, rank, *args, **kwargs)`` on every rank; return results.

        The first exception (by rank id) is re-raised after all workers stop;
        secondary failures caused by the abort are suppressed.
        """
        results = [None] * self.nranks
        errors = [None] * self.nranks

        def work(rank):
            try:
                results[rank] = fn(self, rank, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[rank] = exc
                self._abort.set()
                self._barrier.abort()

        threads = [threading.Thread(target=work, args=(r,), name=f"rank-{r}")
                   for r in range(self.nranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        primary = next((e for e in errors if e is not None), None)
        if primary is not None:
            def secondary(e):
                return isinstance(e, ProtocolError) and (
                    "abort" in str(e) or "broken" in str(e))
            non_secondary = [e for e in errors if e is not None and not secondary(e)]
            raise (non_secondary[0] if non_secondary else primary)
        return results


# -- halo plans ---------------------------------------------------------------


@dataclass
class HaloPlan:
    """Who sends what to whom, and where received values land.

    Receive slots start at the local row count and are laid out neighbor by
    neighbor in ascending rank id, ascending global index within each
    neighbor.  Send lists mirror the peer's request order.
    """

    neighbors: list = field(default_factory=list)
    send_rows: dict = field(default_factory=dict)
    recv_slices: dict = field(default_factory=dict)


def build_halo_plan(domain, A, world=None, rank=0, iperm=None):
    """Resolve A's off-rank columns into halo slots and build the exchange plan.

    Each rank tells every geometric neighbor which of its global columns it
    needs; the mirrored request becomes the send list.  A's UNRESOLVED column
    entries are rewritten to slot indices >= n_rows through
    ``A.assign_halo_slots``, which also drops A's derived arrays.  Raises
    TopologyError if a referenced column is owned by a rank that is not a
    geometric neighbor.
    """
    n = A.n_rows
    off_mask = A.col_idx == UNRESOLVED
    off_globals, entry_of = np.unique(A.col_global[off_mask],
                                      return_inverse=True)
    owners = domain.owner_rank(off_globals)
    neighbors = domain.neighbor_ranks()
    stray = ~np.isin(owners, neighbors)
    if stray.any():
        g, owner = off_globals[stray][0], owners[stray][0]
        raise TopologyError(
            f"rank {domain.rank}: column {g} owned by rank {owner}, "
            f"which is not a neighbor")

    if world is None:
        if len(off_globals):
            raise TopologyError("off-rank columns present but no world to exchange with")
        return HaloPlan()

    # Slot s holds off_globals[order[s]]: owners ascend, and the stable sort
    # keeps global ids ascending within each owner.
    order = np.argsort(owners, kind="stable")
    ends = np.searchsorted(owners[order], neighbors, side="right").tolist()
    plan = HaloPlan(neighbors=neighbors)
    for nb, lo, hi in zip(neighbors, [0] + ends, ends):
        world.send(rank, nb, off_globals[order[lo:hi]])
        plan.recv_slices[nb] = slice(n + lo, n + hi)
    for nb in neighbors:
        local = domain.global_to_local(world.recv(rank, nb))  # raises if not owned
        plan.send_rows[nb] = local if iperm is None else iperm[local]

    slots = np.empty(len(off_globals), dtype=np.int32)
    slots[order] = np.arange(n, n + len(off_globals))
    A.assign_halo_slots(off_mask, slots[entry_of], n + len(off_globals))
    return plan


def _swap_halo(v, plan, world, rank, interior_work=lambda: None):
    """Send v's boundary rows, run ``interior_work()``, receive v's halo tail."""
    if world is None or not plan.neighbors:
        return interior_work()
    for nb in plan.neighbors:
        world.send(rank, nb, v[plan.send_rows[nb]])
    result = interior_work()
    for nb in plan.neighbors:
        buf = world.recv(rank, nb)
        dst = plan.recv_slices[nb]
        if len(buf) != dst.stop - dst.start:
            raise ProtocolError(
                f"halo exchange count mismatch from rank {nb}: "
                f"got {len(buf)}, expected {dst.stop - dst.start}")
        v[dst] = buf
    return result


def exchange(v, plan, world=None, rank=0):
    """Fill v's halo tail with the neighbors' boundary values (blocking)."""
    _swap_halo(v, plan, world, rank)


def exchange_overlapped(v, plan, world, rank, interior_work):
    """Post sends, run ``interior_work()``, then receive; returns its result.

    The caller guarantees interior_work reads no halo slots and writes no row
    in a send list, so the result is bitwise identical to exchange-then-work.
    """
    return _swap_halo(v, plan, world, rank, interior_work)


def reduce_sum(world, rank, value):
    """all_reduce_sum that degrades to identity when no world is attached."""
    if world is None:
        return value
    return world.all_reduce_sum(rank, value)
