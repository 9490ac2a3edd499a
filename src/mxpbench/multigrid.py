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

from dataclasses import dataclass, field

from contextlib import nullcontext

import numpy as np

from .coloring import color as color_rows
from .coloring import permute_system
from .comm import build_halo_plan, exchange
from .problem import generate_matrix, row_dot, to_low_precision
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
    r_hi: np.ndarray = None
    r_lo: np.ndarray = None


@dataclass
class MgHierarchy:
    levels: list
    sweeps: SmootherWorkspace
    world: object = None
    rank: int = 0

    def apply(self, r, tally=None):
        """One V-cycle from the finest level; precision follows r's dtype."""
        return mg_vcycle(self, 0, r, tally)


def build_hierarchy(domain, levels, world=None, rank=0, strategy="greedy",
                    seed=0, sweeps=None):
    """Generate, color, reorder and plan every level below ``domain``.

    Raises CoarseningError (from the domain) if the local box cannot be
    halved ``levels - 1`` times.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    sweeps = sweeps or SmootherWorkspace()
    out = []
    dom = domain
    for lev in range(levels):
        A_nat = generate_matrix(dom)
        col = color_rows(A_nat, strategy=strategy, seed=seed)
        A, _ = permute_system(A_nat, [], col)
        plan = build_halo_plan(dom, A, world, rank, iperm=col.iperm)
        level = MgLevel(domain=dom, A_hi=A, A_lo=to_low_precision(A),
                        coloring=col, plan=plan)
        level.z_hi = np.zeros(A.n_cols_extended)
        level.z_lo = np.zeros(A.n_cols_extended, dtype=np.float32)
        level.r_hi = np.zeros(A.n_rows)
        level.r_lo = np.zeros(A.n_rows, dtype=np.float32)
        if lev > 0:
            parent = out[-1]
            level.f2c = _injection_map(dom, parent.domain,
                                       col.perm, parent.coloring.iperm)
        out.append(level)
        if lev + 1 < levels:
            dom = dom.coarsen()
    return MgHierarchy(levels=out, sweeps=sweeps, world=world, rank=rank)


def _injection_map(coarse_dom, fine_dom, coarse_perm, fine_iperm):
    """f2c composed with both levels' reorderings.

    Natural orders: coarse row (x,y,z) injects from fine row (2x,2y,2z).
    The stored map takes a reordered coarse row straight to the reordered
    fine row so kernels never see natural indices.
    """
    cnx, cny, cnz = coarse_dom.lnx, coarse_dom.lny, coarse_dom.lnz
    cx = np.tile(np.arange(cnx), cny * cnz)
    cy = np.tile(np.repeat(np.arange(cny), cnx), cnz)
    cz = np.repeat(np.arange(cnz), cnx * cny)
    f_nat = (2 * cx) + fine_dom.lnx * ((2 * cy) + fine_dom.lny * (2 * cz))
    return fine_iperm[f_nat[coarse_perm]]


def fused_residual_restrict(A_f, b_f, x_f, f2c, out=None, tally=None):
    """r_c[i] = b_f[f2c(i)] - (A_f @ x_f)[f2c(i)], computed only at those rows.

    ``x_f`` must have a fresh halo tail.  Bitwise equal to restricting the
    full residual because each row accumulates in the same fixed order.
    """
    timer = tally.timed("Restriction") if tally is not None else nullcontext()
    with timer:
        y = row_dot(A_f.values[f2c], A_f.spmv_cols()[f2c], x_f)
        r_c = b_f[f2c] - y
        if out is not None:
            out[:] = r_c
            r_c = out
    if tally is not None:
        tally.add("restrict_fused", A_f.dtype,
                  nnz=int(A_f.row_nnz[f2c].sum()), n_c=len(f2c))
    return r_c


def prolong_add(x_f, x_c, f2c, tally=None):
    """Scatter-add the coarse correction into the fine iterate (P = R^T)."""
    timer = tally.timed("Prolongation") if tally is not None else nullcontext()
    with timer:
        x_f[f2c] += x_c
    if tally is not None:
        tally.add("prolong_add", x_f.dtype, n_c=len(f2c))


def mg_vcycle(h, level, r, tally=None):
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
        forward_gs_sweep(A, r, z, lv.coloring, lv.plan, h.world, h.rank,
                         z_is_zero=(s == 0), tally=tally)
    if last:
        return z[:n]

    exchange(z, lv.plan, h.world, h.rank)
    nxt = h.levels[level + 1]
    rc = nxt.r_lo if lo else nxt.r_hi
    fused_residual_restrict(A, r, z, nxt.f2c, out=rc, tally=tally)
    zc = mg_vcycle(h, level + 1, rc, tally)
    prolong_add(z, zc, nxt.f2c, tally=tally)
    for _ in range(sw.nu2):
        forward_gs_sweep(A, r, z, lv.coloring, lv.plan, h.world, h.rank,
                         tally=tally)
    return z[:n]

