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
    ``Q[:k+1]``, k = ``ws.k`` being that cycle's iteration count, and its
    recycle pair in ``ws.recycle`` (None when no cycle stalled).
    """
    made = []
    allocate = GmresWorkspace.allocate

    def record(*args, **kwargs):
        made.append(allocate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(GmresWorkspace, "allocate", staticmethod(record))
    return made
