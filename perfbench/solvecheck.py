"""Checks on every solve, made outside the program.

``Reference`` holds a freshly generated 1-rank float64 matrix of the whole
global grid.  A solve's per-rank solutions are gathered into natural global
order and checked twice: the relative residual ``||b - A x|| / ||b||`` is
recomputed with this module's own ELL loop, and ``max |x - 1|`` is bounded,
because ``generate_rhs`` makes the exact solution all ones.

``signature`` reduces a solve to the exact counts that must repeat on every
solve of a mode, in every run: iterations, restarts, model flops and bytes
per motif on each rank, and the color count of every level on each rank.
"""

from __future__ import annotations

import numpy as np

from mxpbench import geometry, problem

# The residual is recomputed in a different summation order than the
# solver's norm, so it may exceed the solver's own value by rounding.
RESIDUAL_SLACK = 1e-6
# Largest max|x - 1| seen at the seed commit is 1.7e-8 (32^3 grid, mixed
# solve to 1e-9); this bound leaves a factor of about 60.
MAX_X_ERROR = 1e-6


def ell_matvec(values, cols, x):
    """y = A x over padded ELL rows; padding has value 0 and column 0."""
    y = np.zeros(values.shape[0])
    for s in range(values.shape[1]):
        y += values[:, s] * x[cols[:, s]]
    return y


def global_rows(A):
    """Global row id of each local row of ``A``, in its stored row order."""
    return A.col_global[np.arange(A.n_rows), A.diag_pos]


class Reference:
    """The global problem on one rank, for checking gathered solutions."""

    def __init__(self, cfg):
        gp = geometry.GlobalProblem.from_local(cfg.local_nx, cfg.local_ny,
                                               cfg.local_nz, cfg.ranks)
        whole = geometry.GlobalProblem.from_local(gp.nx, gp.ny, gp.nz, 1)
        A = problem.generate_matrix(whole.domain(0))
        self.n = A.n_rows
        self.tol = cfg.tol
        self.values = A.values
        self.cols = np.where(A.col_idx >= 0, A.col_idx, 0)
        self.b = ell_matvec(self.values, self.cols, np.ones(self.n))

    def check(self, pieces):
        """Check per-rank ``(global_row_ids, x)`` pieces of one solution.

        Returns ``(ok, relres, max_x_error, reason)``.
        """
        x = np.zeros(self.n)
        hits = np.zeros(self.n, dtype=np.int64)
        for rows, xr in pieces:
            x[rows] = xr
            np.add.at(hits, rows, 1)
        if not (hits == 1).all():
            return False, float("nan"), float("nan"), \
                "gathered rows do not cover the grid exactly once"
        r = self.b - ell_matvec(self.values, self.cols, x)
        relres = float(np.linalg.norm(r) / np.linalg.norm(self.b))
        xerr = float(np.abs(x - 1.0).max())
        if not relres < self.tol * (1 + RESIDUAL_SLACK):
            return False, relres, xerr, \
                f"recomputed relative residual {relres:.3e} >= {self.tol:g}"
        if not xerr <= MAX_X_ERROR:
            return False, relres, xerr, \
                f"max|x - 1| = {xerr:.3e} > {MAX_X_ERROR:g}"
        return True, relres, xerr, ""


def signature(results, tallies, hierarchies):
    """Exact counts of one solve, as plain JSON data; equal for every solve
    of a mode."""
    return {"iterations": [r.iterations for r in results],
            "restarts": [r.restarts for r in results],
            "flops": [dict(sorted(t.flops.items())) for t in tallies],
            "bytes": [dict(sorted(t.bytes.items())) for t in tallies],
            "colors": [[lv.coloring.num_colors for lv in h.levels]
                       for h in hierarchies]}
