"""Operation accounting, penalty rule, throughput, and the report document.

The flop model is frozen and self-consistent; operations of every precision
count equally.  Counting rules (n = vector length, k = basis columns,
nnz = stored nonzeros, n_c = coarse rows):

    spmv            2*nnz                     gs_sweep      2*nnz
    norm            2*n                       scale         n
    vsub / vadd     n
    cgs2            8*n*k + 2*n   (two projection passes, two corrections)
    gemv_update     2*n*k         (basis combination at a cycle end)
    restrict_fused  2*nnz + n_c   (nnz over the injected rows only)
    prolong_add     n_c

With a GMRES recycle pair, k counts its kept rows too: in ``cgs2`` (the
passes project against them) and in ``gemv_update`` (the U-term of the
correction).  A recycled restart projects the start vector out with two
``gemv_update`` calls over the kept rows plus a ``norm`` and a ``scale``.

The Givens recurrence, the small triangular solves and the recycle pair's
small QR and Q_G products are excluded: all are O(m^2) or less per restart
cycle and run redundantly on every rank.

Bytes move matrix values and vector elements at their native width and index
entries at 4 bytes, each touched once per kernel — no cache model.  That is
enough to explain why halving the value width does not halve the traffic:
the index arrays do not shrink.
"""

from __future__ import annotations

import time

import numpy as np

MOTIFS = ("GS", "SpMV", "Ortho", "Restriction", "Prolongation", "Vector ops")

# kernel -> (motif, flops(sizes), bytes(width, sizes))
_KERNELS = {
    "spmv": ("SpMV",
             lambda nnz, n: 2 * nnz,
             lambda w, nnz, n: nnz * (w + 4) + 2 * n * w),
    "gs_sweep": ("GS",
                 lambda nnz, n: 2 * nnz,
                 lambda w, nnz, n: nnz * (w + 4) + 3 * n * w),
    "norm": ("Vector ops",
             lambda n: 2 * n,
             lambda w, n: n * w),
    "scale": ("Vector ops",
              lambda n: n,
              lambda w, n: 2 * n * w),
    "vsub": ("Vector ops",
             lambda n: n,
             lambda w, n: 3 * n * w),
    "vadd": ("Vector ops",
             lambda n: n,
             lambda w, n: 3 * n * w),
    "cgs2": ("Ortho",
             lambda n, k: 8 * n * k + 2 * n,
             lambda w, n, k: 4 * n * k * w + 4 * n * w),
    "gemv_update": ("Ortho",
                    lambda n, k: 2 * n * k,
                    lambda w, n, k: (n * k + 2 * n) * w),
    "restrict_fused": ("Restriction",
                       lambda nnz, n_c: 2 * nnz + n_c,
                       lambda w, nnz, n_c: nnz * (2 * w + 4) + 2 * n_c * w),
    "prolong_add": ("Prolongation",
                    lambda n_c: n_c,
                    lambda w, n_c: 3 * n_c * w),
}


def count_flops(kernel, **sizes):
    """Frozen operation count for one kernel invocation."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel: {kernel!r}")
    return int(_KERNELS[kernel][1](**sizes))


def count_bytes(kernel, value_width, **sizes):
    """Modeled traffic for one kernel invocation at the given value width."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel: {kernel!r}")
    return int(_KERNELS[kernel][2](value_width, **sizes))


def kernel_motif(kernel):
    return _KERNELS[kernel][0]


def penalty_factor(n_d, n_ir):
    """min(1, n_d / n_ir): iteration-count penalty, clamped when mixed wins."""
    if n_d < 1 or n_ir < 1:
        raise ValueError(f"iteration counts must be >= 1, got ({n_d}, {n_ir})")
    return min(1.0, n_d / n_ir)


def gflops(flops, seconds):
    if seconds <= 0:
        raise ValueError(f"need positive seconds, got {seconds}")
    return flops / seconds / 1e9


# (kernel, dtype, motif, *sizes.items()) -> (bucket, flops, bytes) of every
# call shape ``Tally.add`` has seen; shared by all tallies and rank threads.
_SHAPE_COUNTS = {}


class _Timer:
    """``Tally.timed``'s context manager; charges its motif even on a raise."""

    __slots__ = ("seconds", "motif", "t0")

    def __init__(self, seconds, motif):
        self.seconds = seconds
        self.motif = motif

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds[self.motif] += time.perf_counter() - self.t0


class Tally:
    """Per-rank flop/byte/second accumulators, bucketed by motif."""

    def __init__(self):
        self.flops = {m: 0 for m in MOTIFS}
        self.bytes = {m: 0 for m in MOTIFS}
        self.seconds = {m: 0.0 for m in MOTIFS}

    def add(self, kernel, dtype, motif=None, **sizes):
        """Account one kernel call; ``motif`` overrides the default bucket.

        The counts of a call shape are computed on its first call only.
        """
        key = (kernel, dtype, motif, *sizes.items())
        counts = _SHAPE_COUNTS.get(key)
        if counts is None:
            flops = count_flops(kernel, **sizes)   # raises on an unknown kernel
            counts = _SHAPE_COUNTS[key] = (
                motif or kernel_motif(kernel), flops,
                count_bytes(kernel, np.dtype(dtype).itemsize, **sizes))
        bucket, flops, nbytes = counts
        self.flops[bucket] += flops
        self.bytes[bucket] += nbytes

    def timed(self, motif):
        """``with tally.timed(motif):`` charges the block's seconds to motif."""
        return _Timer(self.seconds, motif)

    def total_flops(self):
        return sum(self.flops.values())

    def total_bytes(self):
        return sum(self.bytes.values())
