"""27-point stencil system assembly in padded ELL storage.

Each grid point couples to its full 3x3x3 neighborhood: the diagonal entry is
26 and every neighbor entry is -1, so rows sum to a non-negative value and the
matrix is weakly diagonally dominant.  Rows are stored padded to a fixed width
of 27 with the entries of every row ordered by ascending global column index.
That ordering is what makes kernel results independent of how the grid is
split across ranks: every row accumulates its products in the same order no
matter who owns the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STENCIL_WIDTH = 27

# Neighborhood offsets enumerated so that the neighbor global indices of any
# row appear in ascending order (z slowest, x fastest — same as the grid).
_OFFSETS = [(dx, dy, dz)
            for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_SELF_POS = _OFFSETS.index((0, 0, 0))

# col_idx sentinels: padding, and off-rank columns not yet given a halo slot.
PAD = -1
UNRESOLVED = -2


@dataclass
class EllMatrix:
    """Padded fixed-width sparse rows; no row-pointer array.

    ``col_idx`` holds local row indices for owned columns and halo slot
    indices (>= n_rows) for neighbor-owned columns once a halo plan has been
    applied.  ``col_global`` keeps the global ids of all entries; padding uses
    -1 in both.  ``diag_pos[i]`` is the position of the diagonal within row i.
    """

    n_rows: int
    width: int
    values: np.ndarray
    col_idx: np.ndarray
    col_global: np.ndarray
    row_nnz: np.ndarray
    diag_pos: np.ndarray
    nnz_total: int
    n_cols_extended: int
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def dtype(self):
        return self.values.dtype

    def diagonal(self):
        return self.values[np.arange(self.n_rows), self.diag_pos]

    def spmv_cols(self):
        """col_idx with padding redirected to column 0 (its value is 0.0)."""
        cache = self._caches.get("spmv_cols")
        if cache is None:
            cache = np.where(self.col_idx >= 0, self.col_idx, 0).astype(np.int32)
            self._caches["spmv_cols"] = cache
        return cache

    def offdiag_view(self):
        """(values with the diagonal zeroed, safe col_idx, diagonal) for sweeps."""
        cache = self._caches.get("offdiag")
        if cache is None:
            offvals = self.values.copy()
            rows = np.arange(self.n_rows)
            offvals[rows, self.diag_pos] = 0
            cache = (offvals, self.spmv_cols(), self.diagonal().copy())
            self._caches["offdiag"] = cache
        return cache

    def halo_row_split(self):
        """(rows without halo columns, rows with halo columns).

        Not cached: each caller packs its own row subsets once and caches those.
        """
        has_halo = self.col_idx.max(axis=1) >= self.n_rows  # no n x 27 temporary
        return np.flatnonzero(~has_halo), np.flatnonzero(has_halo)


def row_dot(vals, cols, x):
    """Per-row sum of ``vals[:, s] * x[cols[:, s]]``, slots in ascending order.

    The one ELL accumulation kernel.  The accumulator has x's dtype, and the
    slot order is fixed, so any subset of rows gives each row the same bits.
    """
    acc = np.zeros(vals.shape[0], dtype=x.dtype)
    for s in range(vals.shape[1]):
        acc += vals[:, s] * x[cols[:, s]]
    return acc


def generate_matrix(domain):
    """Assemble the rank-local 27-point stencil rows for ``domain``.

    Owned columns get their natural local index in ``col_idx``; columns owned
    by neighboring ranks are left UNRESOLVED until a halo plan assigns slots.
    """
    lnx, lny, lnz = domain.lnx, domain.lny, domain.lnz
    n = domain.n_rows
    # Local coords of every row in natural order (x fastest).
    li = np.tile(np.arange(lnx), lny * lnz)
    lj = np.tile(np.repeat(np.arange(lny), lnx), lnz)
    lk = np.repeat(np.arange(lnz), lnx * lny)
    gx = li + domain.ox
    gy = lj + domain.oy
    gz = lk + domain.oz

    vals = np.zeros((n, STENCIL_WIDTH))
    cols = np.full((n, STENCIL_WIDTH), PAD, dtype=np.int32)
    colg = np.full((n, STENCIL_WIDTH), -1, dtype=np.int64)
    valid = np.zeros((n, STENCIL_WIDTH), dtype=bool)

    for slot, (dx, dy, dz) in enumerate(_OFFSETS):
        nx_, ny_, nz_ = gx + dx, gy + dy, gz + dz
        ok = ((0 <= nx_) & (nx_ < domain.gnx)
              & (0 <= ny_) & (ny_ < domain.gny)
              & (0 <= nz_) & (nz_ < domain.gnz))
        g = nx_ + domain.gnx * (ny_ + domain.gny * nz_)
        owned = (ok
                 & (domain.ox <= nx_) & (nx_ < domain.ox + lnx)
                 & (domain.oy <= ny_) & (ny_ < domain.oy + lny)
                 & (domain.oz <= nz_) & (nz_ < domain.oz + lnz))
        local = (nx_ - domain.ox) + lnx * ((ny_ - domain.oy) + lny * (nz_ - domain.oz))
        valid[:, slot] = ok
        colg[ok, slot] = g[ok]
        vals[:, slot] = np.where(ok, -1.0, 0.0)
        cols[owned, slot] = local[owned].astype(np.int32)
        cols[ok & ~owned, slot] = UNRESOLVED
    vals[:, _SELF_POS] = 26.0

    # Compact each row: valid entries first, order preserved (it is already
    # ascending in global index), padding pushed to the tail.
    keep = np.argsort(~valid, axis=1, kind="stable")
    vals = np.take_along_axis(vals, keep, axis=1)
    cols = np.take_along_axis(cols, keep, axis=1)
    colg = np.take_along_axis(colg, keep, axis=1)
    row_nnz = valid.sum(axis=1).astype(np.int32)
    pad = np.arange(STENCIL_WIDTH) >= row_nnz[:, None]
    vals[pad] = 0.0
    cols[pad] = PAD
    colg[pad] = -1
    diag_pos = valid[:, :_SELF_POS].sum(axis=1).astype(np.int32)

    return EllMatrix(n_rows=n, width=STENCIL_WIDTH, values=vals, col_idx=cols,
                     col_global=colg, row_nnz=row_nnz, diag_pos=diag_pos,
                     nnz_total=int(row_nnz.sum()), n_cols_extended=n)


@dataclass
class ProblemVectors:
    b: np.ndarray


def generate_rhs(A):
    """Right-hand side with exact solution of all ones: b = A @ 1.

    Because the exact solution is one everywhere (including halo columns),
    b is just the row sums: zero for interior rows, positive on the global
    boundary.  Computed in double precision; exact for these integer values.
    """
    return ProblemVectors(b=A.values.sum(axis=1))


def to_low_precision(A):
    """Single-precision copy of A sharing the structure arrays.

    The entry values 26 and -1 are exact in binary32, so only the value array
    narrows; indices, counts and diagonal positions are shared by reference.
    """
    return EllMatrix(n_rows=A.n_rows, width=A.width,
                     values=A.values.astype(np.float32),
                     col_idx=A.col_idx, col_global=A.col_global,
                     row_nnz=A.row_nnz, diag_pos=A.diag_pos,
                     nnz_total=A.nnz_total, n_cols_extended=A.n_cols_extended)


def write_matrix_market(path, A, global_rows, n_global):
    """Dump local rows as MatrixMarket coordinate triplets (1-based, global ids).

    ``global_rows[i]`` is the global id of local row i in A's current row
    order.
    """
    stored = np.arange(A.width) < A.row_nnz[:, None]
    triplets = np.column_stack((
        np.repeat(np.asarray(global_rows) + 1, A.row_nnz),
        A.col_global[stored] + 1,
        A.values[stored]))
    np.savetxt(path, triplets, fmt="%d %d %.17g", comments="",
               header="%%MatrixMarket matrix coordinate real general\n"
                      f"{n_global} {n_global} {A.nnz_total}")
