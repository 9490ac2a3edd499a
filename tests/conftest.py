"""Fixtures shared by the mxpbench tests."""

import pytest

from mxpbench import comm
from mxpbench.krylov import GmresWorkspace


@pytest.fixture(autouse=True)
def _fail_stuck_ranks_fast(monkeypatch):
    """A rank left waiting fails the test in 30 s instead of 300 s."""
    monkeypatch.setattr(comm, "_RECV_TIMEOUT", 30.0)


@pytest.fixture
def workspaces(monkeypatch):
    """Every GmresWorkspace allocated during the test, in allocation order.

    ``workspaces[-1]`` after a solve holds its last cycle's basis in
    ``Q[:k+1]`` and its recycle pair in ``ws.recycle`` (None when no cycle
    stalled).  That cycle's iteration count k is
    ``np.count_nonzero(np.diag(ws.H))``: H is zeroed at the start of every
    cycle, and its rotated diagonal is nonzero up to k.
    """
    made = []
    allocate = GmresWorkspace.allocate

    def record(*args, **kwargs):
        made.append(allocate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(GmresWorkspace, "allocate", staticmethod(record))
    return made
