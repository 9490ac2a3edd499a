"""Independent-set (multicolor) row orderings for parallel Gauss-Seidel.

Rows that share no local coupling may relax simultaneously, so we partition
each rank's rows into color classes and reorder the system color by color.
Both strategies are one vectorized Jones-Plassmann routine: first-fit greedy
in ascending row order is Jones-Plassmann with the fixed priority -index.
Couplings into neighbor ranks are ignored here: each subdomain is colored
on its own, without communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Coloring:
    color: np.ndarray          # color id per row, in the pre-reorder row order
    num_colors: int
    color_offsets: np.ndarray  # block start per color after reordering; len nc+1
    perm: np.ndarray           # new row -> old row
    iperm: np.ndarray          # old row -> new row


def _neighbors(A):
    """n x width locally coupled rows; halo, padding and diagonal slots hold n."""
    n = A.n_rows
    cols = np.ascontiguousarray(A.col_idx)   # row gathers read whole rows
    return np.where((cols >= 0) & (cols < n) & (cols != np.arange(n)[:, None]),
                    cols, n)


def _jones_plassmann(nb, rng=None):
    """Color per row by Jones-Plassmann rounds over the symmetric pattern ``nb``.

    A round takes every uncolored row whose key (w[i], i) beats each uncolored
    neighbor's; each row of that independent set takes the lowest color free
    of its colored neighbors, found from a bitmask (colors <= degree + 1).
    w is -i without ``rng``, else ``rng.random(n)`` drawn every round.
    """
    n = len(nb)
    bits = np.zeros(n + 1, dtype=np.int64)   # 1 << color, 0 while uncolored
    key = np.full(n + 1, -np.inf)            # w of uncolored rows, else -inf
    cand = np.arange(n)
    if rng is None:
        key[:n] = -cand
    while cand.size:
        if rng is not None:
            key[cand] = rng.random(n)[cand]
        nbc = nb[cand]
        kn, ki = key[nbc], key[cand, None]
        beats = (kn < ki) | ((kn == ki) & (nbc < cand[:, None]))
        sel = cand[beats.all(axis=1)]
        used = np.bitwise_or.reduce(bits[nb[sel]], axis=1)
        bits[sel] = ~used & (used + 1)       # lowest clear bit
        key[sel] = -np.inf
        if rng is None:   # fixed w: only rows next to ``sel`` can turn ready
            ring = nb[sel].ravel()
            cand = np.unique(ring[key[ring] > -np.inf])
        else:
            cand = np.flatnonzero(key[:n] > -np.inf)
    return (np.frexp(bits[:n])[1] - 1).astype(np.int32)


def color(A, strategy="greedy", seed=0):
    """Color the local rows of ``A`` with one Jones-Plassmann routine.

    greedy: fixed priority -row index, identical to first-fit greedy in
            ascending row order; deterministic, ignores the seed.
    jpl:    weights redrawn each round from the seeded stream (Luby style).
    Each row takes the smallest color its colored neighbors have not used,
    which bounds the color count by the maximum degree plus one.
    """
    n = A.n_rows
    if strategy not in ("greedy", "jpl"):
        raise ValueError(f"unknown coloring strategy: {strategy!r}")
    colors = _jones_plassmann(_neighbors(A), np.random.default_rng(seed)
                              if strategy == "jpl" else None)
    num_colors = int(colors.max()) + 1 if n else 0
    counts = np.bincount(colors, minlength=num_colors)
    offsets = np.zeros(num_colors + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    perm = np.lexsort((np.arange(n), colors))  # stable (color, original index)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(n)
    return Coloring(color=colors, num_colors=num_colors, color_offsets=offsets,
                    perm=perm, iperm=iperm)


def permute_system(A, vectors, coloring):
    """Apply the symmetric reordering P A P^T and permute ``vectors`` by P.

    Rows are gathered by perm into new column-major arrays; owned column ids
    are relabeled through iperm.  The entry order inside each row is
    untouched: entries are sorted by global column id, and a symmetric
    relabeling does not change global ids.
    """
    from .problem import EllMatrix, take_rows

    n = A.n_rows
    perm = coloring.perm
    col_idx = take_rows(A.col_idx, perm)
    owned = (col_idx >= 0) & (col_idx < n)
    col_idx[owned] = coloring.iperm[col_idx[owned]]
    out = EllMatrix(n_rows=n, width=A.width,
                    values=take_rows(A.values, perm),
                    col_idx=col_idx,
                    col_global=take_rows(A.col_global, perm),
                    row_nnz=A.row_nnz[perm],
                    diag_pos=A.diag_pos[perm],
                    nnz_total=A.nnz_total,
                    n_cols_extended=A.n_cols_extended)
    return out, [v[perm] for v in vectors]
