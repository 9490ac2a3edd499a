"""Restarted GMRES with CGS2 orthogonalization, plus the refinement outer loop.

One code path serves both precision modes.  In double mode everything runs in
float64.  In mixed mode the inner machinery — preconditioner, operator, basis,
Hessenberg, Givens arrays — lives in float32, while the outer loop keeps the
iterate, the true residual r = b - A x, and the solution update x += correction
in float64.  Convergence is always judged by the high-precision true residual,
so a mixed solve that reports success satisfies exactly the same tolerance as
a double solve; the price appears only as extra inner iterations.  A mixed
inner cycle also ends once its recurrence norm reaches float32 roundoff
relative to the cycle's starting true residual, since beyond that the float32
basis cannot reduce the float64 residual further; the next restart refines.

Replicated state (H, t, and the rotation arrays) is updated redundantly on
every rank from reduction results that are identical everywhere, so it stays
bitwise identical across ranks — a debug mode checks that every step.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

# ``exchange`` stays bound here, unused: perfbench/test_perfbench.py checks
# that its tracer wraps ``krylov.exchange``.
from .comm import (ProtocolError, exchange,  # noqa: F401
                   exchange_overlapped, reduce_sum)
from .problem import row_dot

# A mixed inner cycle ends once its float32 recurrence norm falls below this
# multiple of eps32 times the cycle's starting true residual.  Past that point
# the float32 basis can no longer shrink the float64 true residual (it stalls
# near a few eps32 relative; Carson & Higham, SISC 2018), so a float64
# refinement restart gains more than further inner iterations.  Measured over
# 8^3, 16^3, 32^3, 2x16^3 and 8x8^3, a factor of 4 was best or tied best in
# every case (1, 10 and 100 each cost one or two extra iterations somewhere)
# and matches where the recurrence bottoms out, about 4 eps32.
F32_STALL = 4.0 * float(np.finfo(np.float32).eps)


class BreakdownError(Exception):
    """The Givens rotation hit a zero column (lucky breakdown)."""


@dataclass
class GmresWorkspace:
    """Restart-cycle state: basis, Hessenberg, rotations, projected RHS."""

    m: int
    Q: np.ndarray
    H: np.ndarray
    t: np.ndarray
    c: np.ndarray
    s: np.ndarray
    rho0: float = 0.0
    tol: float = 0.0
    k: int = 0                  # iterations of the last cycle

    @classmethod
    def allocate(cls, n, m, dtype):
        return cls(m=m,
                   Q=np.zeros((m + 1, n), dtype=dtype),
                   H=np.zeros((m + 1, m), dtype=dtype),
                   t=np.zeros(m + 1, dtype=dtype),
                   c=np.zeros(m + 1, dtype=dtype),
                   s=np.zeros(m + 1, dtype=dtype))


@dataclass
class SolveResult:
    iterations: int
    restarts: int
    relres: float
    converged: bool
    boundary_pairs: list = field(default_factory=list)
    tally: object = None
    workspace: GmresWorkspace = None


def _spmv_split(A):
    cache = A._caches.get("spmv_split")
    if cache is None:
        rows_nh, rows_h = A.halo_row_split()
        cols = A.spmv_cols()
        cache = (rows_nh, A.values[rows_nh], cols[rows_nh],
                 rows_h, A.values[rows_h], cols[rows_h])
        A._caches["spmv_split"] = cache
    return cache


def spmv(A, x, plan=None, world=None, rank=0, tally=None):
    """y = A @ x for a halo-tailed x; fixed per-row accumulation order.

    With neighbors, rows without halo columns are computed while the halo
    exchange is in flight and the rest once it lands.  Grouping rows never
    changes a row's own accumulation order, so y is bitwise that of
    ``exchange`` followed by a call without a world.
    """
    timer = tally.timed("SpMV") if tally is not None else nullcontext()
    with timer:
        if world is not None and plan is not None and plan.neighbors:
            rows_nh, v_nh, c_nh, rows_h, v_h, c_h = _spmv_split(A)
            y = np.zeros(A.n_rows, dtype=x.dtype)
            exchange_overlapped(
                x, plan, world, rank,
                lambda: y.__setitem__(rows_nh, row_dot(v_nh, c_nh, x)))
            y[rows_h] = row_dot(v_h, c_h, x)
        else:
            y = row_dot(A.values, A.spmv_cols(), x)
    if tally is not None:
        tally.add("spmv", A.dtype, nnz=A.nnz_total, n=A.n_rows)
    return y


def cgs2_orthogonalize(Q, k, w, H, world=None, rank=0, tally=None):
    """Two classical Gram-Schmidt passes of w against basis columns 0..k.

    Each pass projects (one reduced transposed product), subtracts, and
    accumulates the coefficients into H[:k+1, k].  Returns the summed
    coefficients; w is deflated in place.
    """
    kb = k + 1
    n = Q.shape[1]
    timer = tally.timed("Ortho") if tally is not None else nullcontext()
    with timer:
        h_total = np.zeros(kb, dtype=Q.dtype)
        for _ in range(2):
            h = reduce_sum(world, rank, Q[:kb] @ w)
            w -= Q[:kb].T @ h
            H[:kb, k] += h
            h_total += h
    if tally is not None:
        tally.add("cgs2", Q.dtype, n=n, k=kb)
    return h_total


def givens_update(H, t, c, s, k):
    """Rotate column k of H into upper-triangular form; extend the recurrence.

    Scalar arithmetic happens in float64 on promoted values and is stored
    back at the arrays' own precision; the returned recurrence norm reads the
    stored (rounded) entry, identically on every rank.
    """
    col = H[:k + 2, k].astype(np.float64)
    for j in range(k):
        cj = float(c[j])
        sj = float(s[j])
        tmp = cj * col[j] + sj * col[j + 1]
        col[j + 1] = -sj * col[j] + cj * col[j + 1]
        col[j] = tmp
    mu = float(np.hypot(col[k], col[k + 1]))
    if mu == 0.0:
        raise BreakdownError(f"zero pivot at column {k}")
    ck = col[k] / mu
    sk = col[k + 1] / mu
    col[k] = mu
    col[k + 1] = 0.0
    H[:k + 2, k] = col
    c[k] = ck
    s[k] = sk
    tk = float(t[k])
    t[k] = ck * tk
    t[k + 1] = -sk * tk
    return abs(float(t[k + 1]))


def _back_substitute(H, t, k):
    """Solve the k x k upper-triangular system on float64 promotions."""
    R = H[:k, :k].astype(np.float64)
    y = np.zeros(k)
    rhs = t[:k].astype(np.float64)
    for i in range(k - 1, -1, -1):
        y[i] = (rhs[i] - R[i, i + 1:k] @ y[i + 1:k]) / R[i, i]
    return y


def _assert_replicated(world, rank, ws):
    """Debug guard: replicated solver state must agree bitwise across ranks."""
    digest = hashlib.sha256()
    for arr in (ws.H, ws.t, ws.c, ws.s):
        digest.update(arr.tobytes())
    digests = world.gather(rank, digest.hexdigest())
    if rank == 0 and len(set(digests)) != 1:
        raise ProtocolError(f"replicated solver state diverged: {digests}")


def gmres_solve(A_hi, A_lo, precond, b, x0=None, mode="double", tol=1e-9,
                max_iters=300, m=30, plan=None, world=None, rank=0,
                tally=None, debug_replication=False, keep_basis=False):
    """Right-preconditioned restarted GMRES; restarts double as refinement steps.

    Every outer pass recomputes r = b - A x in float64, tests ||r||/||b||
    against ``tol``, and (when continuing) runs up to ``m`` inner iterations
    in the mode precision before folding the correction into x in float64.
    In mixed mode an inner cycle also ends once its recurrence norm falls
    below ``F32_STALL`` times the cycle's starting true residual (float32
    roundoff); every cycle still makes at least one iteration.
    ``precond`` maps a residual-shaped vector to a correction in the vector's
    own precision (None means identity).  Returns a SolveResult whose
    ``boundary_pairs`` hold (recurrence norm, true norm) at each restart.
    With ``keep_basis`` its ``workspace`` holds the last cycle's basis in
    ``Q[:k+1]``, k = ``workspace.k`` being that cycle's iteration count;
    rows past that may be stale rows from earlier cycles.
    """
    if mode not in ("double", "mixed"):
        raise ValueError(f"unknown mode: {mode!r}")
    mixed = mode == "mixed"
    dtype = np.float32 if mixed else np.float64
    A_in = A_lo if mixed else A_hi
    n = A_hi.n_rows

    ws = GmresWorkspace.allocate(n, m, dtype)
    ws.tol = tol
    x_t = np.zeros(A_hi.n_cols_extended)
    if x0 is not None:
        x_t[:n] = x0
    z_t = np.zeros(A_in.n_cols_extended, dtype=dtype)

    def timed(motif):
        return tally.timed(motif) if tally is not None else nullcontext()

    def count(kernel, dt, **kw):
        if tally is not None:
            tally.add(kernel, dt, **kw)

    def true_residual():
        y = spmv(A_hi, x_t, plan, world, rank, tally)
        with timed("Vector ops"):
            r = b - y
            rho = float(np.sqrt(reduce_sum(world, rank, r @ r)))
        count("vsub", np.float64, n=n)
        count("norm", np.float64, n=n)
        return r, rho

    with timed("Vector ops"):
        rho0 = float(np.sqrt(reduce_sum(world, rank, b @ b)))
    count("norm", np.float64, n=n)
    ws.rho0 = rho0
    if rho0 == 0.0:
        return SolveResult(0, 0, 0.0, True, [], tally,
                           ws if keep_basis else None)

    total = 0
    cycles = 0
    pairs = []
    last_rec = None
    converged = False
    relres = 1.0

    while True:
        r, rho = true_residual()
        relres = rho / rho0
        if cycles > 0 and last_rec is not None:
            pairs.append((last_rec, rho))
        if relres < tol:
            converged = True
            break
        if total >= max_iters:
            break

        with timed("Vector ops"):
            ws.Q[0] = r / rho
        count("scale", np.float64, n=n)
        ws.t[:] = 0
        ws.t[0] = rho
        ws.H[:] = 0
        ws.c[:] = 0
        ws.s[:] = 0
        rho_rec = rho
        floor = F32_STALL * rho if mixed else 0.0
        k = 0
        broke_down = False

        while (k < m and total < max_iters and rho_rec / rho0 >= tol
               and rho_rec >= floor):
            zv = precond(ws.Q[k]) if precond is not None else ws.Q[k]
            z_t[:n] = zv
            w = spmv(A_in, z_t, plan, world, rank, tally)
            cgs2_orthogonalize(ws.Q, k, w, ws.H, world, rank, tally)
            with timed("Ortho"):
                beta = np.sqrt(reduce_sum(world, rank, w @ w))
                ws.H[k + 1, k] = beta
                if beta != 0:
                    ws.Q[k + 1] = w / beta
                else:
                    ws.Q[k + 1] = 0
            count("norm", dtype, motif="Ortho", n=n)
            count("scale", dtype, motif="Ortho", n=n)
            try:
                rho_rec = givens_update(ws.H, ws.t, ws.c, ws.s, k)
            except BreakdownError:
                broke_down = True
                break
            if debug_replication and world is not None:
                _assert_replicated(world, rank, ws)
            k += 1
            total += 1
        ws.k = k

        if k > 0:
            yk = _back_substitute(ws.H, ws.t, k)
            with timed("Ortho"):
                ru = ws.Q[:k].T @ yk.astype(dtype)
            count("gemv_update", dtype, n=n, k=k)
            zu = precond(ru) if precond is not None else ru
            with timed("Vector ops"):
                x_t[:n] += zu
            count("vadd", np.float64, n=n)
        cycles += 1
        last_rec = rho_rec

        if broke_down:
            _, rho = true_residual()
            relres = rho / rho0
            converged = relres < tol
            break

    if x0 is not None:
        x0[:] = x_t[:n]
    return SolveResult(iterations=total, restarts=cycles, relres=relres,
                       converged=converged, boundary_pairs=pairs, tally=tally,
                       workspace=ws if keep_basis else None)

