"""Spans around mxpbench's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced public function or method with a
wrapper that records a span; ``Tracer.remove`` puts every original object
back.  A name bound by ``from .x import y`` is looked up in the caller's
module, so the wrapper replaces every ``mxpbench`` module attribute that *is*
the original function (``color`` is also ``multigrid.color_rows``,
``exchange`` is also ``smoother.exchange`` and ``krylov.exchange``).
Methods are replaced on their class.  No private ``_`` function is wrapped.

A span is the tuple ``(name, start, end, parent, solve, work)``: ``parent``
is the index of the enclosing span in the same thread's list (-1 for a root),
``solve`` the identifier set by the enclosing ``root`` span and ``work`` the
modelled bytes of the call (``metrics.count_bytes``), or 0.  An open span is
held as ``(name,)``.  Spans stay in memory, one list per thread, until the
benchmark writes them out.  They are tuples of atoms, which the garbage
collector stops tracking, so a long traced run does not slow its own
collections.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

from mxpbench import (coloring, comm, geometry, krylov, metrics, multigrid,
                      problem, smoother)

INTERIOR = "/interior"


def _prec(dtype):
    return "fp32" if np.dtype(dtype) == np.float32 else "fp64"


def _halo_bytes(v, plan):
    return sum(len(plan.send_rows[nb]) for nb in plan.neighbors) * v.itemsize


def _named(name):
    return lambda *args, **kwargs: (name, 0)


def _exchange_label(v, plan, world=None, rank=0):
    if world is None or not plan.neighbors:
        return None
    return "comm.exchange", _halo_bytes(v, plan)


class ThreadSpans:
    """One thread's spans and its open-span stack top."""

    def __init__(self, thread_name):
        self.thread = thread_name
        self.spans = []
        self.top = -1
        self.solve = None


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    ``n_finest`` is the per-rank row count of the finest grid level; a
    matrix's level is read from its row count (each level has 1/8 the rows).
    """

    def __init__(self, n_finest):
        self.n_finest = n_finest
        self.threads = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    # -- recording -------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = ThreadSpans(threading.current_thread().name)
            self._local.state = st
            with self._lock:
                self.threads.append(st)
            return st

    def _call(self, name, work, fn, args, kwargs):
        st = self._state()
        parent = st.top
        i = st.top = len(st.spans)
        st.spans.append((name,))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            st.spans[i] = (name, t0, time.perf_counter(), parent, st.solve,
                           work)
            st.top = parent

    @contextmanager
    def root(self, name, solve):
        """Open a root span; spans opened inside it carry ``solve``."""
        st = self._state()
        outer = st.solve
        st.solve = solve
        parent = st.top
        i = st.top = len(st.spans)
        st.spans.append((name,))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            st.spans[i] = (name, t0, time.perf_counter(), parent, solve, 0)
            st.top = parent
            st.solve = outer

    def level(self, A):
        return int(round(math.log(self.n_finest / A.n_rows, 8)))

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(*args, **kwargs)
            if span is None:
                return fn(*args, **kwargs)
            return tracer._call(span[0], span[1], fn, args, kwargs)

        return wrapper

    def _wrap_overlapped(self, fn, label):
        """exchange_overlapped: the interior work becomes a child span named
        after the caller's span, so its time stays with the calling layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(v, plan, world, rank, interior_work):
            span = label(v, plan, world, rank)
            if span is None:
                return fn(v, plan, world, rank, interior_work)
            st = tracer._state()
            caller = st.spans[st.top][0] if st.top >= 0 else span[0]

            def interior():
                return tracer._call(caller + INTERIOR, 0, interior_work,
                                    (), {})

            return tracer._call(span[0], span[1], fn,
                                (v, plan, world, rank, interior), {})

        return wrapper

    def _targets(self):
        level = self.level
        count_bytes = metrics.count_bytes

        def gs(A, *args, **kwargs):
            return (f"smoother.gs.{_prec(A.dtype)}.L{level(A)}",
                    count_bytes("gs_sweep", A.dtype.itemsize,
                                nnz=A.nnz_total, n=A.n_rows))

        def spmv(A, *args, **kwargs):
            return (f"krylov.spmv.{_prec(A.dtype)}",
                    count_bytes("spmv", A.dtype.itemsize,
                                nnz=A.nnz_total, n=A.n_rows))

        def gmres(A_hi, A_lo, precond, b, x0=None, mode="double", *args,
                  **kwargs):
            return f"krylov.gmres.{mode}", 0

        def tally_add(tally, kernel, dtype, motif=None, **sizes):
            return (f"metrics.tally.{_prec(dtype)}",
                    count_bytes(kernel, np.dtype(dtype).itemsize, **sizes))

        return [
            (geometry.GlobalProblem, "from_local", _named("geometry.decompose")),
            (geometry.GlobalProblem, "domain", _named("geometry.decompose")),
            (geometry.LocalDomain, "coarsen", _named("geometry.decompose")),
            (problem, "generate_matrix", _named("problem.generate_matrix")),
            (problem, "generate_rhs", _named("problem.generate_rhs")),
            (problem, "to_low_precision", _named("problem.to_low_precision")),
            (coloring, "color", _named("coloring.color")),
            (coloring, "permute_system", _named("coloring.permute_system")),
            (comm, "build_halo_plan", _named("comm.build_halo_plan")),
            (comm, "exchange", _exchange_label),
            (comm, "exchange_overlapped", _exchange_label),
            (comm.RankWorld, "recv", _named("comm.recv")),
            (comm.RankWorld, "all_reduce_sum", _named("comm.allreduce")),
            (smoother, "forward_gs_sweep", gs),
            (multigrid, "build_hierarchy", _named("multigrid.build_hierarchy")),
            (multigrid, "mg_vcycle",
             lambda h, lev, r, *a, **k: (f"multigrid.vcycle.{_prec(r.dtype)}", 0)),
            (multigrid, "fused_residual_restrict",
             lambda A_f, *a, **k: (f"multigrid.restrict.{_prec(A_f.dtype)}", 0)),
            (multigrid, "prolong_add",
             lambda x_f, *a, **k: (f"multigrid.prolong.{_prec(x_f.dtype)}", 0)),
            (multigrid.MgHierarchy, "apply",
             lambda hier, r, *a, **k: (f"multigrid.apply.{_prec(r.dtype)}", 0)),
            (krylov, "gmres_solve", gmres),
            (krylov, "spmv", spmv),
            (krylov, "cgs2_orthogonalize",
             lambda Q, *a, **k: (f"krylov.cgs2.{_prec(Q.dtype)}", 0)),
            (krylov, "givens_update", _named("krylov.givens")),
            (metrics.Tally, "add", tally_add),
        ]

    def install(self):
        """Replace every traced function and method with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mxpbench" or name.startswith("mxpbench.")]
        for owner, attr, label in self._targets():
            make = (self._wrap_overlapped if attr == "exchange_overlapped"
                    else self._wrap)
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(make(orig.__func__, label))
                else:
                    wrapped = make(orig, label)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = make(orig, label)
            for mod in modules:
                for name in [k for k, v in vars(mod).items() if v is orig]:
                    self._saved.append((mod, name, orig))
                    setattr(mod, name, wrapped)

    def remove(self):
        """Put back every object ``install`` replaced."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


def self_times(spans):
    """Each span's duration minus the durations of its children.

    A thread opens and closes its spans on one stack, so children lie inside
    their parent and do not overlap.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
