"""27-point stencil system assembly in padded, column-major ELL storage.

Each grid point couples to its full 3x3x3 neighborhood: the diagonal entry is
26 and every neighbor entry is -1, so rows sum to a non-negative value and the
matrix is weakly diagonally dominant.  Rows are padded to a fixed width of 27
slots, with the entries of every row ordered by ascending global column index
and the padding at the tail.  That slot order is fixed, and it is what makes
kernel results independent of how the grid is split across ranks: every row
accumulates its products in the same order no matter who owns the columns.

The n x 27 arrays are stored column-major (Fortran order), so one slot of all
rows, ``values[:, s]``, is contiguous: the SELL-style layout (Kreutzer et al.,
SISC 2014) that the C row kernels of ``kernels`` walk slot by slot over a
block of rows.  Row subsets are packed in the same layout.

``col_idx`` is the one index array, held in the form the kernels read: int32,
with each padding slot pointing at its own row (value 0.0).  Once a halo
plan has run every entry lies in ``[0, n_cols_extended)``; until then columns
owned by other ranks hold ``UNRESOLVED``, the one sentinel.  A padding
product is a signed zero, and adding it to an accumulator that starts at
+0.0 changes no bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

STENCIL_WIDTH = 27

# Neighborhood offsets enumerated so that the neighbor global indices of any
# row appear in ascending order (z slowest, x fastest — same as the grid).
_OFFSETS = [(dx, dy, dz)
            for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_SELF_POS = _OFFSETS.index((0, 0, 0))

# col_idx entry of an off-rank column not yet given a halo slot.
UNRESOLVED = -2


class SingularDiagonal(Exception):
    """A zero diagonal entry reached the smoother (corrupt input guard)."""


@dataclass
class EllMatrix:
    """Padded fixed-width sparse rows; no row-pointer array.

    ``values``, ``col_idx`` and ``col_global`` are n x width and column-major,
    slot s of every row contiguous; slot order within a row is ascending
    global column and never changes.  ``col_idx`` (int32) holds local row
    indices for owned columns and, once ``assign_halo_slots`` has run, halo
    slot indices (>= n_rows) for neighbor-owned columns; before that they
    are UNRESOLVED.  A padding slot (s >= row_nnz[i]) holds value 0.0 and
    column i, so every kernel reads ``col_idx`` as it is.  ``col_global``
    keeps the global ids of all entries, -1 for padding.  ``diag_pos[i]`` is
    the position of the diagonal within row i.
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

    def _cached(self, key, build):
        """``build()`` once per key, in a store both precisions share.

        Index arrays thus exist once per level; value keys carry the dtype.
        """
        got = self._caches.get(key)
        if got is None:
            got = self._caches[key] = build()
        return got

    def diagonal(self):
        """The diagonal in this precision, built once; its users divide by it."""
        def build():
            diag = self.values[np.arange(self.n_rows), self.diag_pos]
            if np.any(diag == 0):
                raise SingularDiagonal("zero diagonal entry in smoother input")
            return diag
        return self._cached(("diag", self.dtype), build)

    def packed(self, key, rows):
        """(values[rows], col_idx[rows]) for the row set ``key``, built once.

        Both are column-major like the stored arrays.  A key names one row
        array for the matrix's life; another one raises.
        """
        first, cols = self._cached(
            key, lambda: (rows, take_rows(self.col_idx, rows)))
        if first is not rows:
            raise ValueError(f"row set {key!r} was packed from another array")
        vals = self._cached((key, self.dtype),
                            lambda: take_rows(self.values, rows))
        return vals, cols

    def assign_halo_slots(self, mask, slots, n_cols_extended):
        """Write halo slot ids into the ``mask`` entries of ``col_idx``.

        Every array derived from the old ``col_idx`` is dropped with it.
        """
        self.col_idx[mask] = slots
        self.n_cols_extended = n_cols_extended
        self._caches.clear()

    def halo_packs(self):
        """(rows, values, cols) of the rows without, then with, halo columns.

        Rows ascend in each pack.
        """
        def split():
            has_halo = self.col_idx.max(axis=1) >= self.n_rows  # no n x 27 temporary
            return np.flatnonzero(~has_halo), np.flatnonzero(has_halo)
        return [(rows, *self.packed(key, rows)) for key, rows in
                zip(("interior", "boundary"), self._cached("halo_rows", split))]

    def _kernel_cached(self, key, build, keep=None):
        """``build()`` once per key and precision, for the array ``keep``.

        The entry holds ``keep`` and a weak reference to the values it was
        built from, beside the ints and addresses: it is rebuilt when either
        differs, so no address outlives its array.
        """
        key = (key, self.dtype)
        got = self._caches.get(key)
        if got is None or got[0]() is not self.values or got[1] is not keep:
            got = self._caches[key] = (weakref.ref(self.values), keep, build())
        return got[2]

    def row_args(self, key, rows=None, below=None):
        """The ``kernels.row_set`` of the row set ``key``, built once.

        "all" is every row.  The halo sets "interior" and "boundary" of
        ``halo_packs`` write their own rows of the output; any other key
        names ``rows``, packed by ``packed``, and writes set row i to entry
        i.  With ``below``, only the set's rows < below count.
        """
        def build():
            out = None
            if key == "all":
                vals, cols = self.values, self.col_idx
            elif key in ("interior", "boundary"):
                out, vals, cols = self.halo_packs()[key == "boundary"]
            else:
                vals, cols = self.packed(key, rows)
            n = len(vals) if below is None else int(np.searchsorted(out, below))
            return kernels.row_set(vals, cols, n, out)
        return self._kernel_cached(("row_args", key, below), build, rows)

    def relax_args(self, key, below=None, blocks=None):
        """The ``kernels.relax_set`` of ``row_args(key, below=below)``, split
        into blocks by the intp color offsets ``blocks``, built once."""
        def build():
            return kernels.relax_set(self.row_args(key, below=below),
                                     self.diagonal(), blocks)
        return self._kernel_cached(("relax_args", key, below), build, blocks)


def take_rows(a, rows):
    """``a[rows]`` as a new column-major array (``a[rows]`` is row-major)."""
    return np.take(a.T, rows, axis=1).T


def row_dot(vals, cols, x):
    """Per-row sum of ``vals[:, s] * x[cols[:, s]]``, slots in ascending order.

    The C kernel behind every SpMV, restriction and sweep, for arrays of any
    layout: ``vals`` and ``cols`` are first copied, where they differ, to
    column-major arrays of x's dtype and of int32.  Each row adds its
    products in slot order into an accumulator of x's dtype that starts at
    +0.0, so any subset of rows gives each row the same bits.
    """
    vals = np.asfortranarray(vals, dtype=x.dtype)
    cols = np.asfortranarray(cols, dtype=np.int32)
    y = np.empty(len(vals), dtype=x.dtype)
    kernels.row_dot(kernels.row_set(vals, cols, len(vals)), x, y)
    return y


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

    # Column-major from the start; unfilled slots stay padding (0.0, own row).
    vals = np.zeros((n, STENCIL_WIDTH), order="F")
    cols = np.tile(np.arange(n, dtype=np.int32), (STENCIL_WIDTH, 1)).T
    colg = np.full((n, STENCIL_WIDTH), -1, dtype=np.int64, order="F")
    row_nnz = np.zeros(n, dtype=np.int32)

    # Offsets ascend in global index, so appending each valid neighbor at
    # its row's next free slot keeps rows sorted with padding at the tail.
    for k, (dx, dy, dz) in enumerate(_OFFSETS):
        nx_, ny_, nz_ = gx + dx, gy + dy, gz + dz
        ok = ((0 <= nx_) & (nx_ < domain.gnx)
              & (0 <= ny_) & (ny_ < domain.gny)
              & (0 <= nz_) & (nz_ < domain.gnz))
        owned = ((domain.ox <= nx_) & (nx_ < domain.ox + lnx)
                 & (domain.oy <= ny_) & (ny_ < domain.oy + lny)
                 & (domain.oz <= nz_) & (nz_ < domain.oz + lnz))
        rows = np.flatnonzero(ok)
        slot = row_nnz[rows]
        if k == _SELF_POS:      # every row holds itself
            diag_pos = slot
        vals[rows, slot] = 26.0 if k == _SELF_POS else -1.0
        colg[rows, slot] = (nx_ + domain.gnx * (ny_ + domain.gny * nz_))[rows]
        local = (nx_ - domain.ox) + lnx * ((ny_ - domain.oy)
                                           + lny * (nz_ - domain.oz))
        cols[rows, slot] = np.where(owned, local, UNRESOLVED)[rows]
        row_nnz[rows] += 1

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
    """Single-precision copy of A sharing every other field.

    The entry values 26 and -1 are exact in binary32, so only the value array
    narrows; indices, counts, diagonal positions and the store of derived
    arrays are shared by reference.
    """
    return replace(A, values=A.values.astype(np.float32))


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
