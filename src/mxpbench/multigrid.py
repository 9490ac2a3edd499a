"""Geometric multigrid: fixed hierarchy, V-cycle preconditioner.

Levels coarsen by point injection: coarse point (x, y, z) coincides with fine
point (2x, 2y, 2z).  Restriction copies values at those points, prolongation
scatter-adds them back (the transpose), and the residual that feeds each
coarser level is computed only at injection points — the residual restriction
is fused, never materializing a fine-grid residual vector.

The V-cycle runs entirely in the precision of its input vector: a float32
request smooths on the float32 matrix copy at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .coloring import color as color_rows
from .comm import build_halo_plan, exchange
from .problem import attach_sets, generate_matrix, to_low_precision
from .smoother import SmootherWorkspace, forward_gs_sweep


@dataclass
class MgLevel:
    domain: object
    A_hi: object
    A_lo: object
    coloring: object
    plan: object
    f2c: np.ndarray = None      # coarse row -> row of the parent (finer) level
    z_hi: np.ndarray = None
    z_lo: np.ndarray = None


@dataclass
class MgHierarchy:
    levels: list
    sweeps: SmootherWorkspace
    world: object = None
    rank: int = 0

    def apply(self, r, tally):
        """One V-cycle from the finest level; precision follows r's dtype.

        Every kernel of the cycle charges its time and work to ``tally``.
        """
        return mg_vcycle(self, 0, r, tally)


def build_hierarchy(domain, levels, world=None, rank=0, strategy="greedy",
                    seed=0, sweeps=None):
    """Color, generate in colored order and plan every level below ``domain``.

    Once every level exists, each one's kernel row sets are built in both
    precisions (``problem.attach_sets``); nothing is derived after set-up.
    Raises CoarseningError (from the domain) if the local box cannot be
    halved ``levels - 1`` times, and ValueError for a domain with neighbors
    but no world to exchange with.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if world is None and domain.shell.size:
        raise ValueError(f"rank {domain.rank} has neighbors but no world "
                         f"to exchange with")
    sweeps = sweeps or SmootherWorkspace()
    out = []
    dom = domain
    for lev in range(levels):
        col = color_rows(dom, strategy=strategy, seed=seed)
        A = generate_matrix(dom, col.perm)
        plan = build_halo_plan(dom, iperm=col.iperm)
        level = MgLevel(domain=dom, A_hi=A, A_lo=to_low_precision(A),
                        coloring=col, plan=plan)
        level.z_hi = np.zeros(A.n_cols_extended)
        level.z_lo = np.zeros(A.n_cols_extended, dtype=np.float32)
        if lev > 0:
            parent = out[-1]
            level.f2c = _injection_map(dom, parent.domain,
                                       col.perm, parent.coloring.iperm)
        out.append(level)
        if lev + 1 < levels:
            dom = dom.coarsen()
    for level, coarse in zip(out, out[1:] + [None]):
        attach_sets((level.A_hi, level.A_lo), level.coloring.color_offsets,
                    None if coarse is None else coarse.f2c)
    return MgHierarchy(levels=out, sweeps=sweeps, world=world, rank=rank)


def _injection_map(coarse_dom, fine_dom, coarse_perm, fine_iperm):
    """f2c composed with both levels' reorderings.

    Natural orders: coarse row (x,y,z) injects from fine row (2x,2y,2z).
    The stored map takes a reordered coarse row straight to the reordered
    fine row so kernels never see natural indices.
    """
    cx, cy, cz = 2 * coarse_dom.coords()[:, coarse_perm]
    return fine_iperm[cx + fine_dom.lnx * (cy + fine_dom.lny * cz)]


def fused_residual_restrict(A_f, b_f, x_f, tally):
    """Return r_c[i] = b_f[f2c(i)] - (A_f @ x_f)[f2c(i)], computed only there.

    f2c is the next level's, packed into ``A_f.sets.restrict`` at set-up.
    ``x_f`` must have a fresh halo tail.  Bitwise equal to restricting the
    full residual because each row accumulates in the same fixed order.
    The new coarse residual has ``b_f``'s dtype.
    """
    f2c, rows, nnz = A_f.sets.restrict
    with tally.timed("Restriction"):
        ax = np.empty(len(f2c), dtype=x_f.dtype)
        kernels.row_dot(rows, x_f, ax)
        r_c = b_f[f2c] - ax
    tally.add("restrict_fused", A_f.dtype, nnz=nnz, n_c=len(f2c))
    return r_c


def prolong_add(x_f, x_c, f2c, tally):
    """Scatter-add the coarse correction into the fine iterate (P = R^T)."""
    with tally.timed("Prolongation"):
        x_f[f2c] += x_c
    tally.add("prolong_add", x_f.dtype, n_c=len(f2c))


def mg_vcycle(h, level, r, tally):
    """One V-cycle on ``r`` with zero initial guess; returns the owned view of z.

    Pre-smooth, restrict the smoothed residual, recurse (the coarsest level
    smooths nu_c times instead), prolongate, post-smooth.  The returned array
    is the level's workspace — consume it before the next cycle.
    """
    lv = h.levels[level]
    lo = r.dtype == np.float32
    A = lv.A_lo if lo else lv.A_hi
    z = lv.z_lo if lo else lv.z_hi
    n = A.n_rows
    sw = h.sweeps
    last = level == len(h.levels) - 1

    count = sw.nu_c if last else sw.nu1
    for s in range(count):
        forward_gs_sweep(A, r, z, lv.plan, h.world, h.rank,
                         z_is_zero=(s == 0), tally=tally)
    if last:
        return z[:n]

    exchange(z, lv.plan, h.world, h.rank)
    rc = fused_residual_restrict(A, r, z, tally)
    zc = mg_vcycle(h, level + 1, rc, tally)
    prolong_add(z, zc, h.levels[level + 1].f2c, tally)
    for _ in range(sw.nu2):
        forward_gs_sweep(A, r, z, lv.plan, h.world, h.rank, tally=tally)
    return z[:n]

