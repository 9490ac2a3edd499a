"""Forward Gauss-Seidel in relaxation form over a multicolor ordering.

One sweep walks the color blocks in order; rows inside a block share no
coupling, so the whole block updates at once from already-written values of
earlier colors and frozen halo values (cross-rank couplings see the values
exchanged at the start of the sweep — block-Jacobi between ranks).  Row
accumulation order is fixed (ascending global column), which keeps sweeps
bitwise reproducible and lets a plain sequential sweep over the reordered
matrix serve as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from contextlib import nullcontext

import numpy as np

# ``exchange`` stays bound here, unused: perfbench/test_perfbench.py checks
# that its tracer wraps ``smoother.exchange``.
from .comm import exchange, exchange_overlapped  # noqa: F401
from .problem import row_dot


class SingularDiagonal(Exception):
    """A zero diagonal entry reached the smoother (corrupt input guard)."""


@dataclass
class SmootherWorkspace:
    """Sweep counts: nu1 pre-smooth, nu2 post-smooth, nu_c at the coarsest level."""

    nu1: int = 1
    nu2: int = 1
    nu_c: int = 1

    def __post_init__(self):
        if min(self.nu1, self.nu2, self.nu_c) < 1:
            raise ValueError("sweep counts must all be >= 1")


def _sweep_cache(A, coloring):
    cached = A._caches.get("gs")
    if cached is not None and cached[0] is coloring:
        return cached[1]
    offvals, cols, diag = A.offdiag_view()
    if np.any(diag == 0):
        raise SingularDiagonal("zero diagonal entry in smoother input")
    # Color 0 is rows [0, end0); split it into rows without and with halo
    # columns, packed so the overlapped first color gathers nothing per call.
    end0 = int(coloring.color_offsets[1])
    c0 = []
    for rows in A.halo_row_split():
        rows = rows[rows < end0]
        c0.append((rows, offvals[rows], cols[rows], diag[rows]))
    data = (offvals, cols, diag, c0)
    A._caches["gs"] = (coloring, data)
    return data


def _relax(z, r, rows, vals, cols, diag):
    z[rows] = (r[rows] - row_dot(vals, cols, z)) / diag


def forward_gs_sweep(A, r, z, coloring, plan=None, world=None, rank=0,
                     z_is_zero=False, tally=None):
    """One forward sweep: z_i <- (r_i - sum_{j!=i} a_ij z_j) / a_ii, color by color.

    ``z`` must carry the halo tail.  When ``z_is_zero`` the caller asserts the
    iterate (tail included) is all zero, so the halo exchange is skipped.
    Otherwise, with neighbors, the first color's rows without halo columns
    are updated while the halo messages are in flight and its other rows once
    they land; the result is bitwise that of ``exchange`` followed by a sweep
    without a world.
    """
    offvals, cols, diag, (interior, boundary) = _sweep_cache(A, coloring)
    offsets = coloring.color_offsets
    timer = tally.timed("GS") if tally is not None else nullcontext()

    with timer:
        first = 0
        if z_is_zero:
            z[:] = 0
        elif world is not None and plan is not None and plan.neighbors:
            exchange_overlapped(z, plan, world, rank,
                                lambda: _relax(z, r, *interior))
            _relax(z, r, *boundary)
            first = 1
        for c in range(first, coloring.num_colors):
            lo, hi = int(offsets[c]), int(offsets[c + 1])
            _relax(z, r, slice(lo, hi), offvals[lo:hi], cols[lo:hi],
                   diag[lo:hi])
    if tally is not None:
        tally.add("gs_sweep", A.dtype, nnz=A.nnz_total, n=A.n_rows)
