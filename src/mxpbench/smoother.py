"""Forward Gauss-Seidel in relaxation form over a multicolor ordering.

One sweep walks the color blocks in order; rows inside a block share no
coupling, so the whole block updates at once from already-written values of
earlier colors and frozen halo values (cross-rank couplings see the values
exchanged at the start of the sweep — block-Jacobi between ranks).  Row
accumulation order is fixed (ascending global column), which keeps sweeps
bitwise reproducible and lets a plain sequential sweep over the reordered
matrix serve as an oracle.

A block is a row slice of the one stored matrix, diagonal included.  Its
rows of z are zeroed first, so each row's diagonal product is a zero; the
accumulator starts at +0.0 and under round-to-nearest never becomes -0.0,
so adding that zero changes no bit.  The result is bitwise that of skipping
the diagonal, with no second value array.
"""

from __future__ import annotations

from dataclasses import dataclass

from contextlib import nullcontext

# ``exchange`` stays bound here, unused: perfbench/test_perfbench.py checks
# that its tracer wraps ``smoother.exchange``.
from .comm import exchange, exchange_overlapped  # noqa: F401
from .problem import row_dot


@dataclass
class SmootherWorkspace:
    """Sweep counts: nu1 pre-smooth, nu2 post-smooth, nu_c at the coarsest level."""

    nu1: int = 1
    nu2: int = 1
    nu_c: int = 1

    def __post_init__(self):
        if min(self.nu1, self.nu2, self.nu_c) < 1:
            raise ValueError("sweep counts must all be >= 1")


def _relax(z, r, rows, vals, cols, diag):
    z[rows] = 0   # the rows' own diagonal products become zeros
    z[rows] = (r[rows] - row_dot(vals, cols, z)) / diag[rows]


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
    vals, cols, diag = A.values, A.spmv_cols(), A.diagonal()
    offsets = coloring.color_offsets
    timer = tally.timed("GS") if tally is not None else nullcontext()

    with timer:
        first = 0
        if z_is_zero:
            z[:] = 0
        elif world is not None and plan is not None and plan.neighbors:
            # Color 0 is rows [0, offsets[1]).
            interior, boundary = A.halo_packs(below=offsets[1])
            exchange_overlapped(z, plan, world, rank,
                                lambda: _relax(z, r, *interior, diag))
            _relax(z, r, *boundary, diag)
            first = 1
        for c in range(first, coloring.num_colors):
            lo, hi = int(offsets[c]), int(offsets[c + 1])
            _relax(z, r, slice(lo, hi), vals[lo:hi], cols[lo:hi], diag)
    if tally is not None:
        tally.add("gs_sweep", A.dtype, nnz=A.nnz_total, n=A.n_rows)
