"""Independent reference implementations used to pin expected values.

Everything here is written in the most boring way possible -- dense
arrays and explicit Python loops -- so that the fast kernels in the
package can be checked against code whose arithmetic order is obvious
from the source.  The flop counters tally floating-point operations the
same way a count by hand would: one for every add/subtract/multiply/
divide actually performed (fused pairs count as two).
"""

import hashlib
import threading
from contextlib import contextmanager
from itertools import zip_longest

import numpy as np


# -- model problems ------------------------------------------------------------


def dense_stencil_3d(nx, ny, nz):
    """27-point stencil matrix as a dense array, natural x-fastest order."""
    n = nx * ny * nz
    A = np.zeros((n, n))

    def gid(i, j, k):
        return i + nx * (j + ny * k)

    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                row = gid(i, j, k)
                for dk in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        for di in (-1, 0, 1):
                            ii, jj, kk = i + di, j + dj, k + dk
                            if 0 <= ii < nx and 0 <= jj < ny \
                                    and 0 <= kk < nz:
                                col = gid(ii, jj, kk)
                                A[row, col] = 26.0 if col == row else -1.0
    return A


def ell_to_dense(A):
    """Densify an ELL matrix over its owned columns (halo entries forbidden)."""
    n = A.n_rows
    values, col_idx = A.values, A.col_idx
    D = np.zeros((n, n), dtype=values.dtype)
    for i in range(n):
        for s in range(int(A.row_nnz[i])):     # padding follows row_nnz
            c = int(col_idx[i, s])
            assert 0 <= c < n, f"row {i} references non-owned column {c}"
            D[i, c] = values[i, s]
    return D


def padding_mask(A):
    """n x width mask of A's padding slots, s >= row_nnz[i]."""
    return np.arange(A.width) >= A.row_nnz[:, None]


def oracle_cols(A):
    """A's column indices with every padding slot marked -1.

    The sequential kernels below skip negative columns, so they count no
    operation for padding.
    """
    cols = np.array(A.col_idx)
    cols[padding_mask(A)] = -1
    return cols


def from_chunks(a):
    """Every row of the SELL chunks ``a``, padding rows included: entry
    (i, s) lies at flat position (i // C) * C * width + s * C + i % C, with
    C = 256 rows per chunk."""
    n_chunks, width, C = a.shape
    assert C == 256 and a.flags.c_contiguous
    i = np.arange(n_chunks * C)[:, None]
    return a.reshape(-1)[(i // C) * C * width + np.arange(width) * C + i % C]


def with_sets(A, coloring=None):
    """``A`` with its kernel row sets attached, for a matrix outside a
    hierarchy (``build_hierarchy`` attaches its own).

    ``A`` gets sets of its own, shared with no precision twin.  Without a
    ``coloring`` all rows form one block: enough for SpMV, but no valid
    Gauss-Seidel order.
    """
    from mxpbench.problem import attach_sets

    offsets = (np.array([0, A.n_rows]) if coloring is None
               else coloring.color_offsets)
    attach_sets((A,), offsets)
    return A


def row_dot(vals, cols, x, out=None):
    """Per-row sum of ``vals[:, s] * x[cols[:, s]]`` by the C kernel, for
    n x width arrays of any layout; set row i writes ``out[i]`` (None: i).

    ``vals`` and ``cols`` are first copied to SELL chunks of x's dtype and
    of int32, the layout the kernel reads.
    """
    from mxpbench import kernels
    from mxpbench.problem import chunked

    n = len(vals)
    y = np.zeros(n if out is None else int(out.max(initial=-1)) + 1,
                 dtype=x.dtype)
    kernels.row_dot(kernels.row_set(chunked(vals.astype(x.dtype)),
                                    chunked(cols.astype(np.int32)), n, out),
                    x, y)
    return y


# -- sequential kernels with operation counters --------------------------------


def seq_spmv(values, col_idx, x):
    """Row-by-row SpMV in ascending slot order.  Returns (y, flops)."""
    n, w = values.shape
    y = np.zeros(n, dtype=x.dtype)
    flops = 0
    for i in range(n):
        acc = x.dtype.type(0.0)
        for s in range(w):
            c = int(col_idx[i, s])
            if c < 0:
                continue
            acc = acc + values[i, s] * x[c]
            flops += 2
        y[i] = acc
    return y, flops


def seq_gs_sweep(values, col_idx, diag_pos, r, z):
    """Forward Gauss-Seidel in row order, slots ascending.  Returns flops.

    Mirrors the package's arithmetic: per row, the off-diagonal products
    are accumulated in slot order and the diagonal divide closes the row.
    Updates ``z`` in place.
    """
    n, w = values.shape
    flops = 0
    for i in range(n):
        acc = z.dtype.type(0.0)
        for s in range(w):
            c = int(col_idx[i, s])
            if c < 0 or s == diag_pos[i]:
                continue
            acc = acc + values[i, s] * z[c]
            flops += 2
        z[i] = (r[i] - acc) / values[i, diag_pos[i]]
        flops += 2
    return flops


def seq_dot(x, y):
    acc = 0.0
    flops = 0
    for a, b in zip(x, y):
        acc += float(a) * float(b)
        flops += 2
    return acc, flops


def seq_restrict_residual(values, col_idx, b, x, f2c):
    """Coarse residual by injection: r_c[i] = (b - A x)[f2c[i]].

    Only the injected fine rows are evaluated, which is exactly what the
    fused kernel does.  Returns (r_c, flops).
    """
    nc = len(f2c)
    r_c = np.zeros(nc, dtype=x.dtype)
    flops = 0
    for ci in range(nc):
        i = int(f2c[ci])
        acc = x.dtype.type(0.0)
        for s in range(values.shape[1]):
            c = int(col_idx[i, s])
            if c < 0:
                continue
            acc = acc + values[i, s] * x[c]
            flops += 2
        r_c[ci] = b[i] - acc
        flops += 1
    return r_c, flops


def seq_prolong_add(x_f, x_c, f2c):
    """Injection transpose: x_f[f2c[i]] += x_c[i].  Returns flops."""
    flops = 0
    for ci in range(len(f2c)):
        x_f[int(f2c[ci])] += x_c[ci]
        flops += 1
    return flops


def seq_cgs2(Q, w):
    """Two-pass classical Gram-Schmidt against the rows of Q.

    Returns (w_orth, h, flops); each pass is one transposed matrix-vector
    product followed by one matrix-vector product and a subtraction.
    """
    kb, n = Q.shape
    w = w.astype(np.float64).copy()
    h = np.zeros(kb)
    flops = 0
    for _ in range(2):
        hp = np.zeros(kb)
        for j in range(kb):           # GEMV-transpose: 2*n*k
            acc = 0.0
            for i in range(n):
                acc += Q[j, i] * w[i]
                flops += 2
            hp[j] = acc
        for i in range(n):            # GEMV + subtract: 2*n*k + n
            acc = 0.0
            for j in range(kb):
                acc += Q[j, i] * hp[j]
                flops += 2
            w[i] -= acc
            flops += 1
        h += hp
    return w, h, flops


def seq_gemv_update(Q, y):
    """x-update GEMV: columns of Q^T weighted by y.  Returns (x, flops)."""
    kb, n = Q.shape
    x = np.zeros(n)
    flops = 0
    for i in range(n):
        acc = 0.0
        for j in range(kb):
            acc += Q[j, i] * y[j]
            flops += 2
        x[i] = acc
    return x, flops


def restrict_inject(v_f, f2c):
    """Coarse vector of the fine values at injection points."""
    return v_f[f2c].copy()


# -- misc oracles ---------------------------------------------------------------


def local_to_global(dom, i, j, k):
    """Global row index of local coords (i, j, k); x runs fastest."""
    if not (0 <= i < dom.lnx and 0 <= j < dom.lny and 0 <= k < dom.lnz):
        raise ValueError(f"local coords ({i},{j},{k}) outside "
                         f"({dom.lnx},{dom.lny},{dom.lnz})")
    return (dom.ox + i) + dom.gnx * ((dom.oy + j) + dom.gny * (dom.oz + k))


def local_index(dom, i, j, k):
    """Natural (pre-reordering) local row index of local coords (i, j, k)."""
    return i + dom.lnx * (j + dom.lny * k)


def global_coords(dom, g):
    gx = g % dom.gnx
    rem = g // dom.gnx
    return gx, rem % dom.gny, rem // dom.gny


def global_to_local(dom, g):
    """Natural local row indices of an array of global indices ``dom``
    owns; raises ValueError if any is not owned."""
    g = np.asarray(g)
    gx, gy, gz = global_coords(dom, g)
    i, j, k = gx - dom.ox, gy - dom.oy, gz - dom.oz
    owned = ((0 <= i) & (i < dom.lnx) & (0 <= j) & (j < dom.lny)
             & (0 <= k) & (k < dom.lnz))
    if not owned.all():
        raise ValueError(f"global index {g[~owned].flat[0]} "
                         f"not owned by rank {dom.rank}")
    return local_index(dom, i, j, k)


def owner_rank(dom, g):
    """Rank id owning global index ``g`` (elementwise for an array)."""
    gx, gy, gz = global_coords(dom, g)
    return (gx // dom.lnx) + dom.npx * ((gy // dom.lny)
                                        + dom.npy * (gz // dom.lnz))


def owns_global(dom, g):
    gx, gy, gz = global_coords(dom, g)
    return (dom.ox <= gx < dom.ox + dom.lnx
            and dom.oy <= gy < dom.oy + dom.lny
            and dom.oz <= gz < dom.oz + dom.lnz)


def owned_neighbors(A):
    """n x width locally coupled rows; halo, padding and diagonal slots hold n."""
    n = A.n_rows
    cols = np.ascontiguousarray(A.col_idx)   # row gathers read whole rows
    return np.where((cols < n) & (cols != np.arange(n)[:, None]), cols, n)


def colors_of(coloring):
    """Color id per row in the pre-reorder row order, from the color blocks."""
    nc = coloring.num_colors
    return np.repeat(np.arange(nc), np.diff(coloring.color_offsets))[
        coloring.iperm]


def check_coloring(A, coloring):
    """True iff no two locally coupled rows share a color."""
    c = np.append(colors_of(coloring), -1)   # the sentinel n matches no color
    return not np.any(c[owned_neighbors(A)] == c[:-1, None])


def strip_timing(report):
    """A benchmark report without the keys derived from measured time."""
    import copy

    from mxpbench.metrics import MOTIFS

    out = copy.deepcopy(report)
    for phase in ("mxp", "double"):
        for motif in MOTIFS:
            out[phase][motif].pop("seconds")
            out[phase][motif].pop("gflops")
            out[phase][motif].pop("gbytes_per_s")
    for key in ("raw_gflops", "penalized_gflops", "speedup", "motif_speedup"):
        out["summary"].pop(key)
    return out


def factor_triples(p):
    """All nondecreasing factor triples of p."""
    out = []
    for a in range(1, p + 1):
        if p % a:
            continue
        for b in range(a, p + 1):
            if (p // a) % b:
                continue
            c = p // (a * b)
            if c >= b:
                out.append((a, b, c))
    return out


def best_factor(p):
    """Most cubic nondecreasing triple: min aspect ratio, ties by triple."""
    return min(factor_triples(p), key=lambda t: (t[2] / t[0], t))


def local_pattern(A):
    """Dense 0/1 pattern of an ELL matrix's owned couplings (halo dropped)."""
    n = A.n_rows
    col_idx = A.col_idx
    D = np.zeros((n, n))
    for i in range(n):
        for s in range(int(A.row_nnz[i])):
            c = int(col_idx[i, s])
            if 0 <= c < n:
                D[i, c] = 1.0
    return D


def local_adjacency(A):
    """Per-row lists of locally coupled rows as Python ints (halo dropped)."""
    n = A.n_rows
    col_idx = A.col_idx
    return [[c for c in col_idx[i, :A.row_nnz[i]].tolist()
             if 0 <= c < n and c != i] for i in range(n)]


def jpl_color_sequential(adj, seed):
    """Row-by-row Jones-Plassmann-Luby coloring over ``local_adjacency`` lists.

    Each round draws ``rng.random(n)`` and selects every remaining row whose
    key (w[i], i) beats that of each remaining locally coupled row; each
    selected row then takes the smallest color its colored neighbors lack.
    """
    n = len(adj)
    colors = [-1] * n
    rng = np.random.default_rng(seed)
    remaining = set(range(n))
    while remaining:
        w = rng.random(n).tolist()
        selected = [i for i in remaining
                    if all((w[i], i) > (w[j], j)
                           for j in adj[i] if j in remaining)]
        for i in selected:
            used = {colors[j] for j in adj[i] if colors[j] >= 0}
            c = 0
            while c in used:
                c += 1
            colors[i] = c
        remaining.difference_update(selected)
    return np.array(colors, dtype=np.int32)


def structure_signature(A):
    """Hash of the structural arrays; equal for high/low precision twins."""
    import hashlib

    h = hashlib.sha256()
    for arr in (A.col_global, A.row_nnz, A.diag_pos):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"{A.n_rows}:{A.width}:{A.nnz_total}".encode())
    return h.hexdigest()


def identity_coloring(n):
    """Single-color trivial ordering (a fixture; invalid for coupled rows)."""
    from mxpbench.coloring import Coloring

    return Coloring(num_colors=1,
                    color_offsets=np.array([0, n], dtype=np.int64),
                    perm=np.arange(n), iperm=np.arange(n))


def greedy_color_dense(D):
    """First-fit greedy coloring of a dense symmetric pattern, row order."""
    n = D.shape[0]
    colors = -np.ones(n, dtype=int)
    for i in range(n):
        taken = {int(colors[j]) for j in range(n)
                 if j != i and D[i, j] != 0 and colors[j] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    return colors


def greedy_color_sequential(adj):
    """First-fit greedy coloring over ``local_adjacency`` lists, row order."""
    colors = [-1] * len(adj)
    for i, nbrs in enumerate(adj):
        taken = {colors[j] for j in nbrs}
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    return np.array(colors, dtype=np.int32)


def ell_from_dense(D, pattern=None):
    """Hand-build an EllMatrix from a dense matrix (tests only).

    Row i stores ``D[i, c]`` for each c where ``pattern[i, c]`` (None: where
    ``D`` is nonzero), so a stored entry may be zero.  The arrays are stored
    as ``generate_matrix`` stores them: SELL chunks, int32 columns, padding
    with value 0.0 and the row's own column.
    """
    from mxpbench.problem import EllMatrix, chunked

    n = D.shape[0]
    pattern = D != 0 if pattern is None else pattern
    width = int(pattern.sum(axis=1).max())
    values = np.zeros((n, width))
    col_idx = np.tile(np.arange(n, dtype=np.int32), (width, 1)).T
    row_nnz = np.zeros(n, dtype=np.int32)
    diag_pos = np.zeros(n, dtype=np.int32)
    for i in range(n):
        cols = np.flatnonzero(pattern[i])
        row_nnz[i] = len(cols)
        for s, c in enumerate(cols):
            values[i, s] = D[i, c]
            col_idx[i, s] = c
            if c == i:
                diag_pos[i] = s
    return EllMatrix(n_rows=n, width=width, chunk_values=chunked(values),
                     chunk_cols=chunked(col_idx),
                     col_gid=np.arange(n), row_nnz=row_nnz,
                     diag_pos=diag_pos, nnz_total=int(row_nnz.sum()))


# -- replicated GMRES state ----------------------------------------------------


@contextmanager
def replication_digests():
    """Digest GMRES's replicated state on every rank after every step.

    Wraps ``krylov.cgs2_orthogonalize``, which names a step's rank and its
    recycle pair, and ``krylov.givens_update``, which ends the step.  After
    each rotation that succeeds, the rank's list gains the sha256 of H, t,
    c and s and, with a recycle pair, of its B, QG, RG and ctr.  Yields
    rank -> digests, in step order over every solve run inside the block.
    """
    from mxpbench import krylov

    digests = {}
    step = threading.local()
    cgs2, givens = krylov.cgs2_orthogonalize, krylov.givens_update

    def cgs2_noting_the_step(Q, k, w, H, world=None, rank=0, *, tally,
                             recycle=None):
        step.rank, step.recycle = rank, recycle
        return cgs2(Q, k, w, H, world, rank, tally=tally, recycle=recycle)

    def givens_digesting(H, t, c, s, k):
        rec = givens(H, t, c, s, k)
        arrays = [H, t, c, s]
        rp = step.recycle
        if rp is not None:
            arrays += [rp.B, rp.QG, rp.RG, rp.ctr]
        h = hashlib.sha256()
        for a in arrays:
            h.update(a.tobytes())
        digests.setdefault(step.rank, []).append(h.hexdigest())
        return rec

    krylov.cgs2_orthogonalize = cgs2_noting_the_step
    krylov.givens_update = givens_digesting
    try:
        yield digests
    finally:
        krylov.cgs2_orthogonalize, krylov.givens_update = cgs2, givens


def first_divergence(digests):
    """The first step at which the ranks' digests differ, or None."""
    for i, step in enumerate(zip_longest(*digests.values())):
        if len(set(step)) != 1:
            return i
    return None


def assert_replicated(digests, nranks):
    """Every rank recorded the same digests, at every step."""
    assert sorted(digests) == list(range(nranks))
    assert digests[0]
    step = first_divergence(digests)
    assert step is None, f"replicated solver state diverged at step {step}"
