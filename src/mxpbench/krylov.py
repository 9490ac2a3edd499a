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

The first such stalled cycle is not thrown away (GCRO, de Sturler 1999;
Parks et al. 2006).  Its basis V (k+1 float32 rows) and the QR of its
unrotated Hessenberg, H̄ = Q_G R_G, form a recycle pair: C = V Q_G is
orthonormal and A M U = C for U = V[:k] R_G^-1, both held implicitly.  Every
later cycle starts from (I - C C^T) r, runs Arnoldi on (I - C C^T) A M with
the kept rows projected out in the same reduction as the current basis, and
corrects with M(V y + U (C^T r - B y)), B = C^T A M V — still one V-cycle.
Double mode never stalls, so it never recycles.

Replicated state (H, t, the rotation arrays and the recycle pair's small
matrices) is updated redundantly on every rank from reduction results that are
identical everywhere, so it stays bitwise identical across ranks; the tests
check that after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

# ``exchange`` stays bound here, unused: perfbench/test_perfbench.py checks
# that its tracer wraps ``krylov.exchange``.
from .comm import exchange, exchange_overlapped, reduce_sum  # noqa: F401

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
class RecyclePair:
    """A stalled cycle's space: C = V Q_G orthonormal, A M V[:k] R_G^-1 = C.

    ``block`` holds V's k+1 rows directly followed by the workspace basis,
    so one product projects against both.  ``B`` collects C^T A M v_j for the
    current cycle's basis and ``ctr`` is C^T r for its starting residual.
    """

    block: np.ndarray
    QG: np.ndarray              # (k+1, k), float64
    RG: np.ndarray              # (k, k) upper triangular, float64
    B: np.ndarray               # (k, m), float64
    ctr: np.ndarray = None      # (k,), float64

    @property
    def nv(self):
        return self.QG.shape[0]

    @property
    def V(self):
        return self.block[:self.nv]

    def project(self, g):
        """Coefficients on V's rows of C C^T w, given g = V w; C^T w too."""
        c = self.QG.T @ g
        return self.QG @ c, c


@dataclass
class GmresWorkspace:
    """Restart-cycle state: basis, Hessenberg, rotations, projected RHS.

    The basis ``Q`` is a window of ``block``; rows past it are spare room
    for a recycle pair.
    """

    m: int
    block: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    Hu: np.ndarray              # H's columns before rotation, float64
    t: np.ndarray
    c: np.ndarray
    s: np.ndarray
    recycle: RecyclePair = None

    @classmethod
    def allocate(cls, n, m, dtype, spare=0):
        block = np.zeros((m + 1 + spare, n), dtype=dtype)
        return cls(m=m,
                   block=block,
                   Q=block[:m + 1],
                   H=np.zeros((m + 1, m), dtype=dtype),
                   Hu=np.zeros((m + 1, m)),
                   t=np.zeros(m + 1, dtype=dtype),
                   c=np.zeros(m + 1, dtype=dtype),
                   s=np.zeros(m + 1, dtype=dtype))

    def keep_recycle_pair(self, k):
        """Keep the last cycle's basis and H̄ = Q_G R_G as the recycle pair.

        The basis stays where it is, in ``block[:k+1]``, and ``Q`` moves to
        the m+1 rows after it; this needs k+1 spare rows.
        """
        QG, RG = np.linalg.qr(self.Hu[:k + 1, :k])
        self.Q = self.block[k + 1:k + self.m + 2]
        self.recycle = RecyclePair(block=self.block, QG=QG, RG=RG,
                                   B=np.zeros((k, self.m)))
        return self.recycle


@dataclass
class SolveResult:
    iterations: int
    restarts: int
    relres: float
    converged: bool
    boundary_pairs: list = field(default_factory=list)


def spmv(A, x, plan=None, world=None, rank=0, *, tally):
    """y = A @ x for a halo-tailed x; fixed per-row accumulation order.

    With neighbors, every row is computed while the halo exchange is in
    flight and the rows with halo columns again, uncharged to ``tally``, once
    it lands.  A row's accumulation order never changes, so y is bitwise
    that of ``exchange`` followed by a call without a world.
    """
    with tally.timed("SpMV"):
        y = np.empty(A.n_rows, dtype=x.dtype)
        if world is not None and plan is not None and plan.neighbors:
            exchange_overlapped(x, plan, world, rank,
                                lambda: kernels.row_dot(A.sets.all, x, y))
            kernels.row_dot(A.sets.halo[0], x, y)
        else:
            kernels.row_dot(A.sets.all, x, y)
    tally.add("spmv", A.dtype, nnz=A.nnz_total, n=A.n_rows)
    return y


def cgs2_orthogonalize(Q, k, w, H, world=None, rank=0, *, tally,
                       recycle=None):
    """Two classical Gram-Schmidt passes of w against basis columns 0..k.

    Each pass projects (one reduced transposed product), subtracts, and
    accumulates the coefficients into H[:k+1, k].  With a ``recycle`` pair
    the same product and reduction also cover its kept rows: the pass
    subtracts C C^T w and adds C^T w to ``recycle.B[:, k]``.  w is deflated
    in place.
    """
    kb = k + 1
    n = Q.shape[1]
    nv = 0 if recycle is None else recycle.nv
    rows = Q[:kb] if recycle is None else recycle.block[:nv + kb]
    with tally.timed("Ortho"):
        for _ in range(2):
            g = reduce_sum(world, rank, rows @ w)
            h = g[nv:]
            if nv:
                gv, c = recycle.project(g[:nv])
                recycle.B[:, k] += c
                g = np.concatenate([gv.astype(Q.dtype), h])
            w -= rows.T @ g
            H[:kb, k] += h
    tally.add("cgs2", Q.dtype, n=n, k=nv + kb)


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


def gmres_solve(A_hi, A_lo, precond, b, x0, mode="double", tol=1e-9,
                max_iters=300, m=30, plan=None, world=None, rank=0, *,
                tally):
    """Right-preconditioned restarted GMRES; restarts double as refinement steps.

    Every outer pass recomputes r = b - A x in float64, tests ||r||/||b||
    against ``tol``, and (when continuing) runs up to ``m`` inner iterations
    in the mode precision before folding the correction into x in float64.
    In mixed mode an inner cycle also ends once its recurrence norm falls
    below ``F32_STALL`` times the cycle's starting true residual (float32
    roundoff); every cycle still makes at least one iteration.  The first
    cycle that ends this way (before ``m``) becomes the workspace's
    ``recycle`` pair: every later cycle starts from (I - C C^T) r, keeps
    its basis orthogonal to C, and adds U (C^T r - B y) to the basis
    combination V y before the one preconditioner application.  Later
    stalls keep that first pair.  Double mode never stalls, so its
    arithmetic is plain restarted GMRES.
    ``precond`` maps a residual-shaped vector to a correction in the vector's
    own precision; every kernel charges ``tally``.  ``x0`` holds the
    initial guess and receives the solution; a zero ``b`` zeroes it and
    returns at once.  Returns a SolveResult whose ``boundary_pairs`` hold
    (recurrence norm, true norm) at each restart.
    """
    if mode not in ("double", "mixed"):
        raise ValueError(f"unknown mode: {mode!r}")
    mixed = mode == "mixed"
    dtype = np.float32 if mixed else np.float64
    A_in = A_lo if mixed else A_hi
    n = A_hi.n_rows

    # A stalled cycle ends before m, so m spare rows hold any pair; one more
    # makes the float32 block the size of a float64 basis, so the allocator
    # reuses one chunk for both modes (with m spare rows, 32^3 peak RSS rose
    # by 5 MB).
    ws = GmresWorkspace.allocate(n, m, dtype, spare=m + 1 if mixed else 0)
    x_t = np.zeros(A_hi.n_cols_extended)
    x_t[:n] = x0
    z_t = np.zeros(A_in.n_cols_extended, dtype=dtype)

    def true_residual():
        y = spmv(A_hi, x_t, plan, world, rank, tally=tally)
        with tally.timed("Vector ops"):
            r = b - y
            rho = float(np.sqrt(reduce_sum(world, rank, r @ r)))
        tally.add("vsub", np.float64, n=n)
        tally.add("norm", np.float64, n=n)
        return r, rho

    with tally.timed("Vector ops"):
        rho0 = float(np.sqrt(reduce_sum(world, rank, b @ b)))
    tally.add("norm", np.float64, n=n)
    if rho0 == 0.0:
        # A is nonsingular, so x = 0 is the solution.
        x0[:] = 0
        return SolveResult(0, 0, 0.0, True)

    total = 0
    cycles = 0
    pairs = []
    last_rec = None
    converged = False
    relres = 1.0
    stalled = 0                 # iterations of the first stalled cycle

    while True:
        r, rho = true_residual()
        relres = rho / rho0
        if last_rec is not None:
            pairs.append((last_rec, rho))
        if relres < tol:
            converged = True
            break
        if total >= max_iters:
            break

        rp = ws.recycle
        if stalled and rp is None:
            rp = ws.keep_recycle_pair(stalled)
        with tally.timed("Vector ops"):
            ws.Q[0] = r / rho
        tally.add("scale", np.float64, n=n)
        ws.t[:] = 0
        ws.t[0] = rho
        if rp is not None:
            # Start from (I - C C^T) r: one reduction for V q, one for the
            # norm of what is left (the difference ||q||^2 - ||C^T q||^2
            # could cancel to nothing when r lies almost in span C).
            with tally.timed("Ortho"):
                q = ws.Q[0]
                gv, c = rp.project(reduce_sum(world, rank, rp.V @ q))
                q -= rp.V.T @ gv.astype(dtype)
                beta = float(np.sqrt(reduce_sum(world, rank, q @ q)))
                q /= beta
            for _ in range(2):      # V q, then V^T (Q_G C^T q)
                tally.add("gemv_update", dtype, n=n, k=rp.nv)
            tally.add("norm", dtype, motif="Ortho", n=n)
            tally.add("scale", dtype, motif="Ortho", n=n)
            rp.ctr = rho * c
            rp.B[:] = 0
            ws.t[0] = rho * beta
        ws.H[:] = 0
        ws.c[:] = 0
        ws.s[:] = 0
        rho_rec = rho
        floor = F32_STALL * rho if mixed else 0.0
        k = 0
        broke_down = False

        while (k < m and total < max_iters and rho_rec / rho0 >= tol
               and rho_rec >= floor):
            z_t[:n] = precond(ws.Q[k])
            w = spmv(A_in, z_t, plan, world, rank, tally=tally)
            cgs2_orthogonalize(ws.Q, k, w, ws.H, world, rank, tally=tally,
                               recycle=rp)
            with tally.timed("Ortho"):
                beta = np.sqrt(reduce_sum(world, rank, w @ w))
                ws.H[k + 1, k] = beta
                if beta != 0:
                    ws.Q[k + 1] = w / beta
                else:
                    ws.Q[k + 1] = 0
            tally.add("norm", dtype, motif="Ortho", n=n)
            tally.add("scale", dtype, motif="Ortho", n=n)
            ws.Hu[:k + 2, k] = ws.H[:k + 2, k]
            try:
                rho_rec = givens_update(ws.H, ws.t, ws.c, ws.s, k)
            except BreakdownError:
                broke_down = True
                break
            k += 1
            total += 1

        if k > 0:
            yk = _back_substitute(ws.H, ws.t, k)
            with tally.timed("Ortho"):
                if rp is None:
                    ru = ws.Q[:k].T @ yk.astype(dtype)
                else:
                    # U (C^T r - B y) = V[:-1] R_G^-1 (C^T r - B y).
                    u = _back_substitute(rp.RG, rp.ctr - rp.B[:, :k] @ yk,
                                         rp.nv - 1)
                    coef = np.concatenate([u, [0.0], yk]).astype(dtype)
                    ru = rp.block[:rp.nv + k].T @ coef
            tally.add("gemv_update", dtype, n=n,
                      k=k if rp is None else rp.nv + k)
            zu = precond(ru)
            with tally.timed("Vector ops"):
                x_t[:n] += zu
            tally.add("vadd", np.float64, n=n)
        cycles += 1
        last_rec = rho_rec
        if not stalled and k < m and rho_rec < floor:
            stalled = k

        if broke_down:
            _, rho = true_residual()
            relres = rho / rho0
            converged = relres < tol
            break

    x0[:] = x_t[:n]
    return SolveResult(iterations=total, restarts=cycles, relres=relres,
                       converged=converged, boundary_pairs=pairs)

