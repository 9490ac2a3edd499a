"""The SELL row kernels in C, built on first import and called through ctypes.

Two entry points per precision do every row accumulation of a solve:
``row_dot`` (SpMV and the fused restriction) and ``relax`` (Gauss-Seidel
over blocks ``first..last-1`` of a set that lists its block bounds).  A set
of n rows is SELL-C-sigma storage (Kreutzer et al., SISC 2014) with
C = ``CHUNK`` = 256 and sigma = 1: chunk k holds rows kC..kC+C-1 slot-major,
so slot s of row i is entry (i // C)·C·width + s·C + i % C, and the last
chunk is padded.  The order of operations is fixed, so results are bitwise
those of the sequential oracles: every row adds ``v[s] * x[c[s]]`` for
ascending slots s into an accumulator that starts at +0.0, and a relaxed
block zeroes its rows of z before their products and then sets
``z = (r - acc) / d``.  Rows of one block share no coupling, so a block is
done a chunk's share of rows at a time, whatever its bounds.
``-ffp-contract=off`` keeps each product rounded before its add; a fused
multiply-add would change bits.

The source is compiled once with the system ``cc``, for the host CPU
(``-march=native``), into
``${XDG_CACHE_HOME:-~/.cache}/mxpbench/kernels-<sha256>.so``, the hash
covering the source, the flags and the CPU's model name, feature flags,
family and model number (``CPU``), so a cache shared between machines never
loads a library built for another CPU.  The library is written under a
temporary name and renamed into place, so concurrent first imports are safe.
Without a C compiler the import fails; there is no other kernel.

A row set (``row_set``, ``relax_set``) holds its C arguments as ints and
addresses, the vector lengths it needs, and every array whose address it
carries, so no address outlives its array; ``problem.attach_sets`` builds
a level's sets once, at set-up.  Only the vectors are passed per call, and
each is checked for its dtype, length, contiguity and writability before
its address is taken.  ctypes releases the GIL for the call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

CHUNK = 256     # rows per SELL chunk, and the kernels' accumulator length

SOURCE = f"#define CHUNK {CHUNK}\n" + r"""
#include <stdint.h>

#define ROW_KERNELS(T, SUF)                                                  \
/* acc[i] = sum of v[s*CHUNK + i] * x[c[s*CHUNK + i]] over slots s, from     \
   +0.0; v and c point at row i = 0 of the m <= CHUNK rows, in one chunk. */ \
static void accumulate_##SUF(intptr_t m, intptr_t width, const T *v,         \
                             const int32_t *c, const T *x, T *acc)           \
{                                                                            \
    for (intptr_t i = 0; i < m; i++)                                         \
        acc[i] = 0;                                                          \
    for (intptr_t s = 0; s < width; s++) {                                   \
        const T *vs = v + s * CHUNK;                                         \
        const int32_t *cs = c + s * CHUNK;                                   \
        for (intptr_t i = 0; i < m; i++)                                     \
            acc[i] = acc[i] + vs[i] * x[cs[i]];                              \
    }                                                                        \
}                                                                            \
                                                                             \
/* y[row] = the row's sum for the set rows 0..n-1; row = rows[i], or i when  \
   rows is NULL. */                                                          \
void row_dot_##SUF(intptr_t n, intptr_t width, const T *v, const int32_t *c, \
                   const intptr_t *rows, const T *x, T *y)                   \
{                                                                            \
    T acc[CHUNK];                                                            \
    for (intptr_t lo = 0; lo < n; lo += CHUNK) {                             \
        intptr_t m = n - lo < CHUNK ? n - lo : CHUNK;                        \
        accumulate_##SUF(m, width, v + lo * width, c + lo * width, x, acc);  \
        for (intptr_t i = 0; i < m; i++)                                     \
            y[rows ? rows[lo + i] : lo + i] = acc[i];                        \
    }                                                                        \
}                                                                            \
                                                                             \
/* Relax blocks first..last-1; block k is set rows blocks[k]..blocks[k+1]-1, \
   done a chunk's share at a time.  Rows of a block must not couple. */      \
void relax_##SUF(intptr_t width, const T *v, const int32_t *c,               \
                 const intptr_t *rows, const T *d,                           \
                 const intptr_t *blocks, intptr_t first, intptr_t last,      \
                 const T *r, T *z)                                           \
{                                                                            \
    T acc[CHUNK];                                                            \
    for (intptr_t k = first; k < last; k++) {                                \
        intptr_t hi = blocks[k + 1];                                         \
        for (intptr_t lo = blocks[k], end; lo < hi; lo = end) {              \
            intptr_t start = lo - lo % CHUNK;   /* lo's chunk */             \
            intptr_t at = start * width + lo % CHUNK;                        \
            end = start + CHUNK < hi ? start + CHUNK : hi;                   \
            for (intptr_t i = lo; i < end; i++)                              \
                z[rows ? rows[i] : i] = 0;                                   \
            accumulate_##SUF(end - lo, width, v + at, c + at, z, acc);       \
            for (intptr_t i = lo; i < end; i++) {                            \
                intptr_t row = rows ? rows[i] : i;                           \
                z[row] = (r[row] - acc[i - lo]) / d[row];                    \
            }                                                                \
        }                                                                    \
    }                                                                        \
}

ROW_KERNELS(double, f64)
ROW_KERNELS(float, f32)
"""

CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


# The CPU that ``-march=native`` builds for, as /proc/cpuinfo names it.
Cpu = NamedTuple("Cpu", [("model", str), ("flags", str), ("family", str),
                         ("model_number", str)])


def _host_cpu():
    """The first processor of /proc/cpuinfo, or the machine name alone."""
    try:
        with open("/proc/cpuinfo") as f:
            first = f.read().split("\n\n", 1)[0]
    except OSError:
        first = ""
    info = dict(map(str.strip, line.split(":", 1))
                for line in first.splitlines() if ":" in line)
    return Cpu(info.get("model name") or os.uname().machine,
               info.get("flags") or info.get("Features", ""),
               info.get("cpu family", ""), info.get("model", ""))


CPU = _host_cpu()


def _library_path():
    digest = hashlib.sha256(
        "\0".join((SOURCE,) + CFLAGS + CPU).encode()).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(cache) / "mxpbench" / f"kernels-{digest}.so"


def _build(path):
    """Compile SOURCE to ``path`` through a temporary name in its directory."""
    import subprocess   # here, not above: it costs every run 0.3 MB of RSS

    cc = shutil.which("cc")
    if cc is None:
        raise ImportError("mxpbench builds its row kernels with a C compiler, "
                          "and no C compiler (cc) is on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(SOURCE)
        out = Path(tmp) / path.name
        done = subprocess.run([cc, *CFLAGS, "-o", str(out), str(src)],
                              capture_output=True, text=True)
        if done.returncode:
            raise ImportError(f"cc could not build the row kernels:\n"
                              f"{done.stderr}")
        os.replace(out, path)


def _load():
    path = _library_path()
    if not path.exists():
        _build(path)
    return ctypes.CDLL(str(path))


_lib = _load()
_N, _P = ctypes.c_ssize_t, ctypes.c_void_p


def _entries(name, argtypes):
    out = {}
    for dtype, suffix in ((np.float64, "f64"), (np.float32, "f32")):
        fn = getattr(_lib, f"{name}_{suffix}")
        fn.argtypes, fn.restype = argtypes, None
        out[np.dtype(dtype)] = fn
    return out


_ROW_DOT = _entries("row_dot", [_N, _N, _P, _P, _P, _P, _P])
_RELAX = _entries("relax", [_N, _P, _P, _P, _P, _P, _N, _N, _P, _P])
_buffer = (ctypes.c_char * 0).from_buffer   # raises unless contiguous, writable


def _address(a, dtype):
    """Data address of ``a``, a C-contiguous ``dtype`` array; 0 for None."""
    if a is None:
        return 0
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"a kernel argument must be a C-contiguous "
                         f"{np.dtype(dtype)} array, not {a.dtype} with "
                         f"strides {a.strides}")
    return a.ctypes.data


class RowSet(NamedTuple):
    """A row set's C arguments, from ``row_set`` or ``relax_set``."""

    args: tuple         # ints: counts, and the addresses of ``arrays``
    dtype: np.dtype     # the vectors' dtype
    read: int           # entries the read vector needs
    written: int        # entries the written vector needs
    arrays: tuple       # every array whose address ``args`` carries
    n_blocks: int = 0   # relax blocks; 0 for a ``row_dot`` set


def row_set(vals, cols, n, out=None):
    """The ``row_dot`` set of the n rows held in ``vals`` and ``cols``.

    ``vals`` and ``cols`` (int32) are SELL chunk storage of one shape,
    (ceil(n / CHUNK), width, CHUNK): entry (i, s) at [i // CHUNK, s,
    i % CHUNK].  ``out`` lists the n intp rows of the output that the set
    writes (None: set row i writes entry i).  A negative entry in either
    raises ValueError.
    """
    if cols.shape != vals.shape or vals.shape[::2] != (-(-n // CHUNK), CHUNK):
        raise ValueError(f"values {vals.shape} and columns {cols.shape} are "
                         f"not the {CHUNK}-row chunks of {n} rows")
    if out is not None and len(out) != n:
        raise ValueError(f"{len(out)} output rows for {n} set rows")
    read = written = 0
    if n:
        read = int(cols.max()) + 1
        written = n if out is None else int(out.max()) + 1
        if cols.min() < 0 or (out is not None and out.min() < 0):
            raise ValueError("a row set's columns and rows must be >= 0")
    args = (n, vals.shape[1], _address(vals, vals.dtype),
            _address(cols, np.int32), _address(out, np.intp))
    return RowSet(args, vals.dtype, read, written, (vals, cols, out))


def relax_set(rows, diag, blocks):
    """The ``relax`` set of the ``row_set`` ``rows``, with its diagonal.

    ``blocks`` (intp) splits the set into blocks, set rows
    ``blocks[k]..blocks[k+1]-1``; a bound may fall inside a chunk.
    """
    n = rows.args[0]
    if len(diag) < rows.written:
        raise ValueError(f"diagonal of {len(diag)} rows for {rows.written}")
    if blocks[0] < 0 or blocks[-1] > n or np.any(np.diff(blocks) < 0):
        raise ValueError(f"blocks {blocks} do not split {n} rows")
    args = rows.args[1:] + (_address(diag, rows.dtype),   # relax takes no n
                            _address(blocks, np.intp))
    return RowSet(args, rows.dtype, max(rows.read, rows.written), rows.written,
                  rows.arrays + (diag, blocks), len(blocks) - 1)


def _vector(a, dtype, size):
    if a.dtype != dtype or a.size < size:
        raise ValueError(f"a kernel vector must be {dtype} with at least "
                         f"{size} entries, not {a.dtype} with {a.size}")
    return _buffer(a)


def row_dot(rows, x, y):
    """Write the row sums over ``x`` of the ``row_set`` ``rows`` into ``y``."""
    _ROW_DOT[rows.dtype](*rows.args, _vector(x, rows.dtype, rows.read),
                         _vector(y, rows.dtype, rows.written))


def relax(rows, r, z, first=0, last=1):
    """Relax blocks ``first..last-1`` of the ``relax_set`` ``rows`` in z."""
    if not 0 <= first <= last <= rows.n_blocks:
        raise ValueError(f"blocks {first}..{last} of {rows.n_blocks}")
    _RELAX[rows.dtype](*rows.args, first, last,
                       _vector(r, rows.dtype, rows.written),
                       _vector(z, rows.dtype, rows.read))
