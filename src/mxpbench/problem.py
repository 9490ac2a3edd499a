"""27-point stencil system assembly in padded ELL rows, stored as SELL chunks.

Each grid point couples to its full 3x3x3 neighborhood: the diagonal entry is
26 and every neighbor entry is -1, so rows sum to a non-negative value and the
matrix is weakly diagonally dominant.  Rows are padded to a fixed width of 27
slots, with the entries of every row ordered by ascending global column index
and the padding at the tail.  That slot order is fixed, and it is what makes
kernel results independent of how the grid is split across ranks: every row
accumulates its products in the same order no matter who owns the columns.

What a level stores per precision is its entry values and the int32 column
indices, each once, as SELL-C-sigma chunks (Kreutzer et al., SISC 2014) with
C = ``kernels.CHUNK`` = 256 rows and sigma = 1: an array of shape
(ceil(n / C), 27, C) whose entry [i // C, s, i % C] is slot s of row i, so
each chunk holds its 27 slots of C rows one after another, and the last
chunk is padded with rows of value 0.0 and column 0.  ``generate_matrix``
writes the chunks directly, and the C row kernels of ``kernels`` read them
as they are.  ``attach_sets`` packs in the same layout, once, just the rows
that read a halo slot, which an overlapped exchange recomputes, and the rows
the next level injects from.  Readers outside the kernels see ``values``,
``col_idx`` and ``col_global`` as derived, read-only n x 27 arrays.

The column chunks are the one per-entry index array, held in the form the
kernels read, with each padding slot pointing at its own row (value 0.0).
Every entry lies in ``[0, n_cols_extended)`` from generation on: a column
owned by another rank holds its halo slot, which the grid alone decides
(``LocalDomain.shell``).  A padding product is a signed zero, and adding it
to an accumulator that starts at +0.0 changes no bit.  Global ids are held
once per column of the halo-tailed vector (``col_gid``), not per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .kernels import CHUNK

STENCIL_WIDTH = 27

# Neighborhood offsets enumerated so that the neighbor global indices of any
# row appear in ascending order (z slowest, x fastest — same as the grid).
_OFFSETS = [(dx, dy, dz)
            for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_SELF_POS = _OFFSETS.index((0, 0, 0))


class SingularDiagonal(Exception):
    """A matrix has a zero diagonal entry, which Gauss-Seidel divides by."""


@dataclass
class EllMatrix:
    """Padded fixed-width sparse rows in SELL chunks; no row-pointer array.

    ``chunk_values`` and ``chunk_cols`` (int32) are the only per-entry
    arrays, each (ceil(n / CHUNK), width, CHUNK) with slot s of row i at
    [i // CHUNK, s, i % CHUNK]; slot order within a row is ascending global
    column and never changes.  ``chunk_cols`` holds local row indices for
    owned columns and halo slot indices (n_rows and up) for neighbor-owned
    columns.  A padding slot (s >= row_nnz[i]) holds value 0.0 and column i,
    so every kernel reads the columns as they are; a padding row of the last
    chunk holds 0.0 and column 0.  ``col_gid`` (int64) holds the global id
    of each column of the halo-tailed vector: the owned rows in stored order,
    then the halo slots.  ``diag_pos[i]`` is the position of the diagonal
    within row i.  ``sets`` holds the kernel row sets, ``KernelSets``, once
    ``attach_sets`` has run.
    """

    n_rows: int
    width: int
    chunk_values: np.ndarray
    chunk_cols: np.ndarray
    col_gid: np.ndarray
    row_nnz: np.ndarray
    diag_pos: np.ndarray
    nnz_total: int
    sets: object = field(default=None, repr=False)

    @property
    def dtype(self):
        return self.chunk_values.dtype

    @property
    def n_cols_extended(self):
        """Length of the halo-tailed vector: owned rows, then halo slots."""
        return len(self.col_gid)

    @property
    def values(self):
        """n x width entry values, derived from the chunks; read-only."""
        return self._by_row(self.chunk_values)

    @property
    def col_idx(self):
        """n x width column indices, derived from the chunks; read-only."""
        return self._by_row(self.chunk_cols)

    @property
    def col_global(self):
        """n x width global ids of the entries, derived from the columns; a
        padding slot reads its own row's id, as its column names it."""
        return self._by_row(self.chunk_cols, self.col_gid)

    def _by_row(self, chunks, table=None):
        """Read-only n x width ``chunks``, each entry looked up in ``table``
        if given; built a slot at a time, so no larger array is made."""
        width = self.width
        out = np.empty((width, len(chunks), CHUNK),
                       dtype=(chunks if table is None else table).dtype)
        for s in range(width):
            out[s] = chunks[:, s] if table is None else table[chunks[:, s]]
        out = out.reshape(width, -1)[:, :self.n_rows].T
        out.flags.writeable = False
        return out


class KernelSets(NamedTuple):
    """The kernel row sets of one level in one precision."""

    all: kernels.RowSet     # every row, in order
    relax: kernels.RowSet   # every row, one relax block per colour
    halo: tuple     # (row_dot set, relax set) of the rows with halo
                    # columns, which an overlapped exchange recomputes; the
                    # relax set's one block is their colour-0 rows
    restrict: tuple     # (f2c, row_dot set of rows f2c, their stored
                        # entries) for the next level; None on the coarsest


def attach_sets(matrices, color_offsets, f2c=None):
    """Build one level's ``KernelSets`` and set each matrix's ``sets``.

    ``matrices`` are the level's precision twins, which share
    ``chunk_cols``: each index pack is built once for all of them, each
    value pack and the diagonal once per matrix.  The only packs, SELL
    chunks like the level's own, hold the rows with halo columns and the
    rows ``f2c`` lists, which the next level injects from.
    ``color_offsets`` (intp) splits the rows into colour blocks.  A zero
    diagonal raises SingularDiagonal.
    """
    A0 = matrices[0]
    n = A0.n_rows
    rows = np.flatnonzero(A0.chunk_cols.max(axis=1).reshape(-1)[:n] >= n)
    cols = chunked(take_rows(A0.chunk_cols, rows))
    below = int(np.searchsorted(rows, color_offsets[1]))
    if f2c is not None:
        f2c_cols = chunked(take_rows(A0.chunk_cols, f2c))
        f2c_nnz = int(A0.row_nnz[f2c].sum())
    diag_at = _slot0(np.arange(n), A0.width) + CHUNK * A0.diag_pos
    for A in matrices:
        diag = A.chunk_values.reshape(-1)[diag_at]
        if np.any(diag == 0):
            raise SingularDiagonal("zero diagonal entry in smoother input")
        everything = kernels.row_set(A.chunk_values, A.chunk_cols, n)
        halo = kernels.row_set(chunked(take_rows(A.chunk_values, rows)),
                               cols, len(rows), rows)
        A.sets = KernelSets(
            everything, kernels.relax_set(everything, diag, color_offsets),
            (halo, kernels.relax_set(halo, diag,
                                     np.array([0, below], dtype=np.intp))),
            None if f2c is None else (
                f2c, kernels.row_set(chunked(take_rows(A.chunk_values, f2c)),
                                     f2c_cols, len(f2c)),
                f2c_nnz))


def _slot0(rows, width):
    """Flat position of slot 0 of each of ``rows`` in chunks of ``width``
    slots; slot s lies s * CHUNK further on."""
    return rows // CHUNK * (CHUNK * width) + rows % CHUNK


def take_rows(chunks, rows):
    """Rows ``rows`` of the SELL ``chunks``, as a row-major array."""
    width = chunks.shape[1]
    return chunks.reshape(-1)[_slot0(rows, width)[:, None]
                              + CHUNK * np.arange(width)]


def chunked(a):
    """The SELL chunks of the m x width array ``a``; padding rows are 0."""
    m, width = a.shape
    out = np.zeros((-(-m // CHUNK) * CHUNK, width), dtype=a.dtype)
    out[:m] = a
    return np.ascontiguousarray(
        out.reshape(-1, CHUNK, width).transpose(0, 2, 1))


def generate_matrix(domain, perm=None):
    """Assemble the rank-local 27-point stencil rows for ``domain``.

    Row i is the point of natural local row ``perm[i]`` (x fastest; None
    keeps the natural order), and an owned column is numbered by its row.
    Columns owned by neighboring ranks get ``n_rows + slot``, their place in
    ``domain.shell``: owner rank ascending, then global id ascending.
    Entries are written straight into their SELL chunks.  The result equals
    ``coloring.permute_system`` of the natural-order matrix in every array,
    without building that matrix.
    """
    n = domain.n_rows
    ex, ey = domain.lnx + 2, domain.lny + 2
    ext, shell_gid, _, _ = domain.shell
    x, y, z = domain.coords() if perm is None else domain.coords()[:, perm]
    at = (x + 1) + ex * ((y + 1) + ey * (z + 1))   # in the extended box
    # Column of every extended-box point; -1 outside the global grid.
    col_of = np.full(ex * ey * (domain.lnz + 2), -1, dtype=np.int32)
    col_of[at] = np.arange(n)
    col_of[ext] = np.arange(n, n + len(ext))
    col_gid = np.concatenate((
        (x + domain.ox) + domain.gnx * ((y + domain.oy)
                                        + domain.gny * (z + domain.oz)),
        shell_gid))

    # Unfilled slots stay padding (0.0, own row); padding rows hold column 0.
    n_chunks = -(-n // CHUNK)
    vals = np.zeros((n_chunks, STENCIL_WIDTH, CHUNK))
    own = np.arange(n_chunks * CHUNK, dtype=np.int32)
    own[n:] = 0
    cols = np.repeat(own.reshape(n_chunks, 1, CHUNK), STENCIL_WIDTH, axis=1)
    row_nnz = np.zeros(n, dtype=np.int32)
    slot0 = _slot0(np.arange(n), STENCIL_WIDTH)

    # Offsets ascend in global index, so appending each valid neighbor at
    # its row's next free slot keeps rows sorted with padding at the tail.
    for k, (dx, dy, dz) in enumerate(_OFFSETS):
        col = col_of[at + (dx + ex * (dy + ey * dz))]
        rows = np.flatnonzero(col >= 0)
        slot = row_nnz[rows]
        if k == _SELF_POS:      # every row holds itself
            diag_pos = slot
        entry = slot0[rows] + CHUNK * slot
        vals.reshape(-1)[entry] = 26.0 if k == _SELF_POS else -1.0
        cols.reshape(-1)[entry] = col[rows]
        row_nnz[rows] += 1

    return EllMatrix(n_rows=n, width=STENCIL_WIDTH, chunk_values=vals,
                     chunk_cols=cols, col_gid=col_gid, row_nnz=row_nnz,
                     diag_pos=diag_pos, nnz_total=int(row_nnz.sum()))


@dataclass
class ProblemVectors:
    b: np.ndarray


def generate_rhs(A):
    """Right-hand side with exact solution of all ones: b = A @ 1.

    Because the exact solution is one everywhere (including halo columns),
    b is just the row sums: zero for interior rows, positive on the global
    boundary.  Computed in double precision; exact for these integer values.
    """
    return ProblemVectors(
        b=A.chunk_values.sum(axis=1).reshape(-1)[:A.n_rows])


def to_low_precision(A):
    """Single-precision copy of A sharing every other field but ``sets``.

    The entry values 26 and -1 are exact in binary32, so only the value
    chunks narrow; column chunks, global ids, counts and diagonal positions
    are shared by reference.  The copy has no kernel sets until
    ``attach_sets`` builds them.
    """
    return replace(A, chunk_values=A.chunk_values.astype(np.float32),
                   sets=None)


def write_matrix_market(path, A):
    """Dump a whole-grid, 1-rank, natural-order matrix as MatrixMarket
    coordinate triplets (1-based; there, local ids are global ids)."""
    stored = np.arange(A.width) < A.row_nnz[:, None]
    triplets = np.column_stack((
        np.repeat(np.arange(1, A.n_rows + 1), A.row_nnz),
        A.col_idx[stored] + 1,
        A.values[stored]))
    np.savetxt(path, triplets, fmt="%d %d %.17g", comments="",
               header="%%MatrixMarket matrix coordinate real general\n"
                      f"{A.n_rows} {A.n_rows} {A.nnz_total}")
