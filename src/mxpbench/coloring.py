"""Independent-set (multicolor) row orderings for parallel Gauss-Seidel.

Rows that share no local coupling may relax simultaneously, so each rank's
rows are split into color classes, decided from the grid box alone, and the
level is assembled color by color (``problem.generate_matrix``).  Couplings
into neighbor ranks are ignored: each subdomain is colored on its own,
without communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .problem import EllMatrix, chunked, take_rows


@dataclass
class Coloring:
    num_colors: int
    color_offsets: np.ndarray  # block start per color after reordering; len nc+1
    perm: np.ndarray           # new row -> old row
    iperm: np.ndarray          # old row -> new row


def _grid_neighbors(domain):
    """n x 27 owned neighbors of each natural-order row of ``domain``'s box,
    its 3x3x3 neighborhood; the row itself and points off the box hold n."""
    n, box = domain.n_rows, (domain.lnz, domain.lny, domain.lnx)
    padded = np.pad(np.arange(n, dtype=np.int32).reshape(box), 1,
                    constant_values=n)
    window = sliding_window_view(padded, (3, 3, 3)).reshape(n, 27)
    return np.where(np.arange(27) == 13, n, window)     # 13: the row itself


def _jones_plassmann(nb, rng):
    """Color per row by Jones-Plassmann rounds over the symmetric pattern ``nb``.

    Each round draws w = ``rng.random(n)`` and takes every uncolored row
    whose key (w[i], i) beats each uncolored neighbor's; each row of that
    independent set takes the lowest color free of its colored neighbors,
    found from a bitmask (colors <= degree + 1).
    """
    n = len(nb)
    bits = np.zeros(n + 1, dtype=np.int64)   # 1 << color, 0 while uncolored
    key = np.full(n + 1, -np.inf)            # w of uncolored rows, else -inf
    cand = np.arange(n)
    while cand.size:
        key[cand] = rng.random(n)[cand]
        nbc = nb[cand]
        kn, ki = key[nbc], key[cand, None]
        beats = (kn < ki) | ((kn == ki) & (nbc < cand[:, None]))
        sel = cand[beats.all(axis=1)]
        used = np.bitwise_or.reduce(bits[nb[sel]], axis=1)
        bits[sel] = ~used & (used + 1)       # lowest clear bit
        key[sel] = -np.inf
        cand = np.flatnonzero(key[:n] > -np.inf)
    return (np.frexp(bits[:n])[1] - 1).astype(np.int32)


def color(domain, strategy="greedy", seed=0):
    """Color the rows of ``domain``'s box; reads no matrix for ``greedy``.

    greedy: first-fit greedy in natural row order, which on a box is each
            point's parity class (x&1) | (y&1)<<1 | (z&1)<<2, the bits of
            length-1 axes dropped (a class-k point has an earlier neighbor
            of each class j < k, across the highest bit where j and k
            differ, and no neighbor of class k); ignores the seed.
    jpl:    Jones-Plassmann (Jones & Plassmann, SISC 1993) over the box's
            neighbors, weights redrawn each round from the seeded stream.
    Either way a row's color is the smallest its earlier-colored neighbors
    have not used, which bounds the count by the maximum degree plus one.
    """
    if strategy == "greedy":
        dims = np.array([domain.lnx, domain.lny, domain.lnz])
        parity = domain.coords()[dims > 1] & 1
        colors = (parity << np.arange(len(parity))[:, None]).sum(
            axis=0, dtype=np.int32)
    elif strategy == "jpl":
        colors = _jones_plassmann(_grid_neighbors(domain),
                                  np.random.default_rng(seed))
    else:
        raise ValueError(f"unknown coloring strategy: {strategy!r}")
    n = len(colors)
    num_colors = int(colors.max()) + 1
    counts = np.bincount(colors, minlength=num_colors)
    offsets = np.zeros(num_colors + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    perm = np.lexsort((np.arange(n), colors))  # stable (color, original index)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(n)
    return Coloring(num_colors=num_colors, color_offsets=offsets, perm=perm,
                    iperm=iperm)


def permute_system(A, coloring):
    """The symmetric reordering P A P^T.

    Rows are gathered by perm into new SELL chunks; owned column ids,
    padding's own-row ids among them, are relabeled through iperm, and the
    owned columns' global ids follow their rows.  The entry order inside
    each row is untouched: entries are sorted by global column id, and a
    symmetric relabeling does not change global ids.
    """
    n = A.n_rows
    perm = coloring.perm
    cols = take_rows(A.chunk_cols, perm)
    owned = cols < n
    cols[owned] = coloring.iperm[cols[owned]]
    return EllMatrix(n_rows=n, width=A.width,
                     chunk_values=chunked(take_rows(A.chunk_values, perm)),
                     chunk_cols=chunked(cols),
                     col_gid=np.concatenate((A.col_gid[perm],
                                             A.col_gid[n:])),
                     row_nnz=A.row_nnz[perm],
                     diag_pos=A.diag_pos[perm],
                     nnz_total=A.nnz_total)
