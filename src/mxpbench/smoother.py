"""Forward Gauss-Seidel in relaxation form over a multicolor ordering.

One sweep walks the color blocks in order; rows inside a block share no
coupling, so the whole block updates at once from already-written values of
earlier colors and frozen halo values (cross-rank couplings see the values
exchanged at the start of the sweep — block-Jacobi between ranks).  Row
accumulation order is fixed (ascending global column), which keeps sweeps
bitwise reproducible and lets a plain sequential sweep over the reordered
matrix serve as an oracle.

A block is a row slice of the one stored matrix, diagonal included, relaxed
by the C kernel ``kernels.relax``.  Its rows of z are zeroed first, so each
row's diagonal product is a zero (as is a padding product, which reads the
row's own z too); the accumulator starts at +0.0 and under round-to-nearest
never becomes -0.0, so adding that zero changes no bit.  The result is
bitwise that of skipping the diagonal, with no second value array.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels

# ``exchange`` stays bound here, unused: perfbench/test_perfbench.py checks
# that its tracer wraps ``smoother.exchange``.
from .comm import exchange, exchange_overlapped  # noqa: F401


@dataclass
class SmootherWorkspace:
    """Sweep counts: nu1 pre-smooth, nu2 post-smooth, nu_c at the coarsest level."""

    nu1: int = 1
    nu2: int = 1
    nu_c: int = 1

    def __post_init__(self):
        if min(self.nu1, self.nu2, self.nu_c) < 1:
            raise ValueError("sweep counts must all be >= 1")


def forward_gs_sweep(A, r, z, plan=None, world=None, rank=0,
                     z_is_zero=False, *, tally):
    """One forward sweep: z_i <- (r_i - sum_{j!=i} a_ij z_j) / a_ii, color by color.

    The color blocks are those of ``A.sets.relax``, built at set-up from the
    level's own coloring.

    ``z`` must carry the halo tail.  When ``z_is_zero`` the caller asserts the
    iterate (tail included) is all zero, so the halo exchange is skipped.
    Otherwise, with neighbors, the first color is relaxed while the halo
    messages are in flight and its rows with halo columns again once they
    land; they couple to no row of their color, so the result is bitwise that
    of ``exchange`` followed by a sweep without a world.  The sweep's time
    and work, without the recomputed rows, go to ``tally``.
    """
    with tally.timed("GS"):
        first = 0
        if z_is_zero:
            z[:] = 0
        elif world is not None and plan is not None and plan.neighbors:
            exchange_overlapped(z, plan, world, rank,
                                lambda: kernels.relax(A.sets.relax, r, z))
            kernels.relax(A.sets.halo[1], r, z)
            first = 1
        kernels.relax(A.sets.relax, r, z, first, A.sets.relax.n_blocks)
    tally.add("gs_sweep", A.dtype, nnz=A.nnz_total, n=A.n_rows)
