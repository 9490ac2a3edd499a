"""Multi-rank runtime: worker threads, halo exchange, deterministic reductions.

Ranks are in-process threads connected by per-pair FIFO mailboxes — the same
message structure a neighborhood-and-allreduce MPI program would have, minus
the network.  Each rank runs on one thread, ``rank-{r}``, which starts with
its world and lives as long as it: ``RankWorld.run`` hands every thread one
task and waits for all of them, and starts no thread.  Halo messages and
collectives share the mailboxes: a collective posts its value to every other
rank, then takes one value from each rank in ascending rank order.  Global
sums are accumulated in that order on every rank, so a run with a fixed rank
count is bitwise reproducible; sums across DIFFERENT rank counts are not
promised to match (documented, not a bug).

Ranks drifting out of step is a programming error and surfaces as
ProtocolError rather than a hang or silent corruption: every message carries
its pair's sequence number and the kind of operation that sent it, so a rank
that receives a different kind than it waits for raises at once; a rank left
waiting for a message the others never send raises once ``_RECV_TIMEOUT``
has passed.  A rank that fails posts an abort marker into every mailbox, so
a rank waiting for any message stops at once rather than at the timeout.
"""

from __future__ import annotations

import queue
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np


class ProtocolError(Exception):
    """Ranks disagreed about the communication schedule (internal bug trap)."""


class _Aborted(ProtocolError):
    """A rank stopped waiting because another rank failed first."""


_RECV_TIMEOUT = 300.0
_ABORT = object()   # the abort marker, posted in place of a message


def _serve(tasks, done):
    """A rank thread: run each ``(work, rank)`` posted until None, holding no
    task, so no reference to its world, between tasks."""
    while (task := tasks.get()) is not None:
        task[0](task[1])
        del task
        done.put(None)


class RankWorld:
    """A fixed-size set of rank workers joined by per-pair FIFO mailboxes."""

    def __init__(self, nranks):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self._boxes = {(s, d): queue.SimpleQueue()
                       for s in range(nranks) for d in range(nranks) if s != d}
        self._send_seq = {pair: 0 for pair in self._boxes}
        self._recv_seq = {pair: 0 for pair in self._boxes}
        self._tasks = [queue.SimpleQueue() for _ in range(nranks)]
        self._done = queue.SimpleQueue()
        for r, tasks in enumerate(self._tasks):
            threading.Thread(target=_serve, args=(tasks, self._done),
                             name=f"rank-{r}", daemon=True).start()
            weakref.finalize(self, tasks.put, None)   # stops the thread

    # -- point to point ----------------------------------------------------

    def _post(self, src, dst, kind, payload):
        seq = self._send_seq[(src, dst)]
        self._send_seq[(src, dst)] = seq + 1
        self._boxes[(src, dst)].put((seq, kind, payload))

    def _take(self, dst, src, kind):
        """Wait for the next message on (src -> dst); it must be ``kind``."""
        expected = self._recv_seq[(src, dst)]
        self._recv_seq[(src, dst)] = expected + 1
        try:
            msg = self._boxes[(src, dst)].get(timeout=_RECV_TIMEOUT)
        except queue.Empty:
            raise ProtocolError(
                f"rank {dst} timed out after {_RECV_TIMEOUT:g} s waiting "
                f"for {kind!r} from rank {src}") from None
        if msg is _ABORT:
            raise _Aborted("world aborted while waiting for a message")
        seq, got, payload = msg
        if seq != expected:
            raise ProtocolError(
                f"message reorder on pair ({src}->{dst}): got {seq}, expected {expected}")
        if got != kind:
            raise ProtocolError(
                f"ranks called different collectives: rank {dst} waited for "
                f"{kind!r} from rank {src}, which sent {got!r}")
        return payload

    def send(self, src, dst, payload):
        self._post(src, dst, "send", payload)

    def recv(self, dst, src):
        return self._take(dst, src, "send")

    # -- collectives ---------------------------------------------------------

    def _collect(self, rank, kind, value):
        """Post value to every other rank; return all ranks' values by rank."""
        if isinstance(value, np.ndarray):
            value = value.copy()   # the caller may reuse its array on return
        for dst in range(self.nranks):
            if dst != rank:
                self._post(rank, dst, kind, value)
        return [value if src == rank else self._take(rank, src, kind)
                for src in range(self.nranks)]

    def all_reduce_sum(self, rank, value):
        """Sum a scalar or array over all ranks, in ascending rank order."""
        vals = self._collect(rank, "all_reduce_sum", value)
        acc = vals[0]
        for v in vals[1:]:
            acc = acc + v
        return acc

    # -- lifecycle -----------------------------------------------------------

    def run(self, fn, *args, **kwargs):
        """Run ``fn(world, rank, *args, **kwargs)`` on every rank; return results.

        Each rank runs on its own thread.  After all ranks finish, the first
        failure by rank id is re-raised, passing over ranks that only stopped
        waiting because another failed.
        """
        results = [None] * self.nranks
        errors = [None] * self.nranks

        def work(rank):
            try:
                results[rank] = fn(self, rank, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[rank] = exc
                if not isinstance(exc, _Aborted):   # markers already posted
                    for box in self._boxes.values():
                        box.put(_ABORT)

        for r, tasks in enumerate(self._tasks):
            tasks.put((work, r))
        for _ in range(self.nranks):
            self._done.get()
        failed = [e for e in errors if e is not None]
        if failed:
            raise next((e for e in failed if not isinstance(e, _Aborted)), failed[0])
        return results


# -- halo plans ---------------------------------------------------------------


@dataclass
class HaloPlan:
    """Who sends what to whom, and where received values land.

    Receive slots start at the local row count and are laid out neighbor by
    neighbor in ascending rank id, ascending global index within each
    neighbor.  Send lists follow the peer's slot order.
    """

    neighbors: list = field(default_factory=list)
    send_rows: dict = field(default_factory=dict)
    recv_slices: dict = field(default_factory=dict)


def build_halo_plan(domain, iperm):
    """The exchange plan of ``domain``, from grid arithmetic alone.

    The halo is the box's one-point shell (``domain.shell``), whose slot
    order ``generate_matrix`` also uses.  Each neighbor's points form one
    receive slice; the rows sent to it are the owned points nearest its
    points, which is the neighbor's own slot order for them.  ``iperm``
    maps natural local rows to the stored row order.  No message is sent.
    """
    n = domain.n_rows
    _, _, owner, near = domain.shell
    near = iperm[near]
    neighbors, counts = np.unique(owner, return_counts=True)
    ends = np.cumsum(counts).tolist()
    plan = HaloPlan(neighbors=neighbors.tolist())
    for nb, lo, hi in zip(plan.neighbors, [0] + ends, ends):
        plan.recv_slices[nb] = slice(n + lo, n + hi)
        plan.send_rows[nb] = near[lo:hi]
    return plan


def _swap_halo(v, plan, world, rank, interior_work=lambda: None):
    """Send copies of v's boundary rows, run ``interior_work()``, which may
    then write any row of v, and receive v's halo tail."""
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

    interior_work may read stale halo slots and write any row; the caller
    then recomputes every row that read a halo slot, so the result is
    bitwise identical to exchange-then-work.
    """
    return _swap_halo(v, plan, world, rank, interior_work)


def reduce_sum(world, rank, value):
    """all_reduce_sum that degrades to identity when no world is attached."""
    if world is None:
        return value
    return world.all_reduce_sum(rank, value)
