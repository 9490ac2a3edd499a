"""Benchmark orchestration and command-line entry point.

Runs three sequential phases on the generated stencil system:

1. validation -- a double-precision GMRES solve and a mixed-precision
   GMRES-IR solve to the same target, producing the iteration counts
   n_d and n_ir that set the throughput penalty;
2. mxp        -- repeated mixed-precision solves from a zero guess until
   the wall-time budget is spent (always at least one repetition);
3. double     -- the same number of plain double-precision solves.

The report carries per-motif seconds / flops / GFLOP/s for both timed
phases plus a summary whose mixed-precision total is penalized by
min(1, n_d / n_ir), the iteration count of every timed solve, and the
compiler flags and host CPU the row kernels were built for.

``BenchConfig`` holds only what a run can change; the command line takes
each of its defaults from ``BenchConfig()``.  Fixed for every run: one pre-,
post- and coarsest-level Gauss-Seidel sweep, and at most
``VALIDATION_MAX_ITERS`` iterations per validation solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .comm import ProtocolError, RankWorld, reduce_sum
from .geometry import CoarseningError, GlobalProblem
from .krylov import gmres_solve
from .metrics import MOTIFS, Tally, gflops, penalty_factor
from .multigrid import build_hierarchy
from .problem import generate_matrix, generate_rhs, write_matrix_market
from .smoother import SmootherWorkspace


class ConfigError(Exception):
    """The benchmark configuration is invalid."""


class ValidationError(Exception):
    """The validation phase failed (reference solver did not converge)."""


VALIDATION_MODES = ("standard", "fullscale")
COLORING_STRATEGIES = ("greedy", "jpl")
MAX_RANKS = 512   # RankWorld(n) makes n * (n - 1) mailboxes: 107 MB at 512
VALIDATION_MAX_ITERS = 10_000   # iteration cap of each validation solve


@dataclass
class BenchConfig:
    """The settings of a benchmark run (defaults are the desk-scale ones)."""

    local_nx: int = 16
    local_ny: int = 16
    local_nz: int = 16
    ranks: int = 1
    restart: int = 30           # GMRES restart length m
    tol: float = 1e-9           # relative residual target
    max_iters: int = 300        # per-solve cap in the timed phases
    time_seconds: float = 5.0   # wall-time budget of the mxp phase
    validation_mode: str = "standard"
    coloring: str = "greedy"
    seed: int = 0
    mg_levels: int = 4

    def validate(self):
        if self.mg_levels < 1:
            raise ConfigError("mg_levels must be at least 1")
        q = 2 ** (self.mg_levels - 1)
        for name, dim in (("local_nx", self.local_nx),
                          ("local_ny", self.local_ny),
                          ("local_nz", self.local_nz)):
            if dim < 1:
                raise ConfigError(f"{name} = {dim} must be positive")
            if dim % q:
                raise ConfigError(
                    f"{name} = {dim} is not divisible by {q} "
                    f"(needed for {self.mg_levels} grid levels)")
        if not 1 <= self.ranks <= MAX_RANKS:
            raise ConfigError(f"ranks = {self.ranks} must lie in "
                              f"[1, {MAX_RANKS}]")
        if self.restart < 1:
            raise ConfigError("restart length must be at least 1")
        if not 0 < self.tol < 1:
            raise ConfigError(f"tol = {self.tol} must lie in (0, 1)")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0 <= self.time_seconds < float("inf"):
            raise ConfigError("time_seconds must be finite and non-negative")
        if self.validation_mode not in VALIDATION_MODES:
            raise ConfigError(f"unknown validation mode "
                              f"{self.validation_mode!r}")
        if self.coloring not in COLORING_STRATEGIES:
            raise ConfigError(f"unknown coloring strategy {self.coloring!r}")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be non-negative")

    def sweeps(self):
        """The sweep counts of every run: one each."""
        return SmootherWorkspace()


# -- shared per-rank setup ----------------------------------------------------


def _build_state(cfg, nranks, world, rank):
    """Hierarchy and finest-level right-hand side for one rank."""
    gp = GlobalProblem.from_local(cfg.local_nx, cfg.local_ny, cfg.local_nz,
                                  nranks)
    dom = gp.domain(rank)
    hier = build_hierarchy(dom, cfg.mg_levels, world, rank,
                           strategy=cfg.coloring, seed=cfg.seed)
    return hier, generate_rhs(hier.levels[0].A_hi).b


def _solve(cfg, hier, b, mode, tol, max_iters, tally):
    lv = hier.levels[0]

    def precond(r):
        return hier.apply(r, tally)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, x0=np.zeros(lv.A_hi.n_rows),
                       mode=mode, tol=tol, max_iters=max_iters, m=cfg.restart,
                       plan=lv.plan, world=hier.world, rank=hier.rank,
                       tally=tally)


# -- phase 1: validation ------------------------------------------------------


def _validation_worker(world, rank, cfg, nranks):
    state = _build_state(cfg, nranks, world, rank)
    hier, b = state
    dres = _solve(cfg, hier, b, "double", cfg.tol, VALIDATION_MAX_ITERS,
                  Tally())
    if cfg.validation_mode == "standard":
        if not dres.converged:
            raise ValidationError(
                f"double GMRES did not reach {cfg.tol:g} within "
                f"{VALIDATION_MAX_ITERS} iterations "
                f"(relres {dres.relres:.3e})")
        target = cfg.tol
    else:
        # Full-scale rule: the double solve runs to min(cap, tol) and the
        # achieved residual becomes the mixed solve's target.
        target = dres.relres if not dres.converged else cfg.tol
    mres = _solve(cfg, hier, b, "mixed", target, VALIDATION_MAX_ITERS,
                  Tally())
    return dres, mres, state


def _validate(cfg, world=None):
    """Phase 1, and the per-rank states it built when it ran on as many
    ranks as the timed phases (None otherwise)."""
    cfg.validate()
    nranks = 1 if cfg.validation_mode == "standard" else cfg.ranks
    if nranks == 1:
        outs = [_validation_worker(None, 0, cfg, nranks)]
    else:
        world = world or RankWorld(nranks)
        outs = world.run(_validation_worker, cfg, nranks)
    dres, mres, _ = outs[0]
    val = {"mode": cfg.validation_mode,
           "n_d": dres.iterations,
           "n_ir": mres.iterations,
           "ratio": dres.iterations / mres.iterations,
           "residual": dres.relres,
           "restarts": mres.restarts,
           "boundary_pairs": [list(p) for p in mres.boundary_pairs]}
    states = [o[2] for o in outs] if nranks == cfg.ranks else None
    return val, states


def run_validation(cfg):
    """Phase 1: measure n_d and n_ir on the validation problem.

    ``standard`` solves the per-rank problem on one rank; ``fullscale``
    uses all ranks and the full problem.  ``restarts`` and
    ``boundary_pairs`` (recurrence and true residual norm at each restart)
    describe the mixed solve.
    """
    return _validate(cfg)[0]


# -- phases 2 and 3: timed solves ---------------------------------------------


def _bench_worker(world, rank, cfg, states=None):
    hier, b = (states[rank] if states is not None
               else _build_state(cfg, cfg.ranks, world, rank))
    tally_mxp = Tally()
    tally_dbl = Tally()
    iters_mxp = []
    iters_dbl = []

    t0 = time.perf_counter()
    reps = 0
    while True:
        res = _solve(cfg, hier, b, "mixed", cfg.tol, cfg.max_iters, tally_mxp)
        iters_mxp.append(res.iterations)
        reps += 1
        # Rank 0 owns the clock; its verdict is broadcast so every rank
        # runs the same number of repetitions.
        elapsed = time.perf_counter() - t0
        flag = 1.0 if rank == 0 and elapsed < cfg.time_seconds else 0.0
        if reduce_sum(world, rank, flag) == 0.0:
            break

    for _ in range(reps):
        res = _solve(cfg, hier, b, "double", cfg.tol, cfg.max_iters,
                     tally_dbl)
        iters_dbl.append(res.iterations)

    return {"reps": reps,
            "iters_mxp": iters_mxp,
            "iters_dbl": iters_dbl,
            "mxp": tally_mxp,
            "double": tally_dbl}


def _phase_block(parts, phase):
    """Aggregate one timed phase from each rank's ``Tally``: flops and
    modelled bytes summed over ranks, rank-0 seconds."""
    tallies = [p[phase] for p in parts]
    block = {}
    for motif in MOTIFS:
        f = sum(t.flops[motif] for t in tallies)
        nb = sum(t.bytes[motif] for t in tallies)
        s = tallies[0].seconds[motif]
        block[motif] = {"seconds": s,
                        "flops": f,
                        "gflops": gflops(f, s) if s > 0 else 0.0,
                        "bytes": nb,
                        "gbytes_per_s": nb / s / 1e9 if s > 0 else 0.0}
    return block


def _assemble_report(cfg, val, parts):
    mxp = _phase_block(parts, "mxp")
    dbl = _phase_block(parts, "double")

    penalty = penalty_factor(val["n_d"], val["n_ir"])
    tot_f = sum(mxp[m]["flops"] for m in MOTIFS)
    tot_s = sum(mxp[m]["seconds"] for m in MOTIFS)
    raw = gflops(tot_f, tot_s) if tot_s > 0 else 0.0
    penalized = raw * penalty

    dbl_f = sum(dbl[m]["flops"] for m in MOTIFS)
    dbl_s = sum(dbl[m]["seconds"] for m in MOTIFS)
    dbl_total = gflops(dbl_f, dbl_s) if dbl_s > 0 else 0.0

    motif_speedup = {}
    for m in MOTIFS:
        hi = dbl[m]["gflops"]
        motif_speedup[m] = mxp[m]["gflops"] * penalty / hi if hi > 0 else 0.0

    summary = {"raw_gflops": raw,
               "penalty": penalty,
               "penalized_gflops": penalized,
               "speedup": penalized / dbl_total if dbl_total > 0 else 0.0,
               "motif_speedup": motif_speedup,
               "reps": parts[0]["reps"],
               "iterations": {"mxp": parts[0]["iters_mxp"],
                              "double": parts[0]["iters_dbl"]}}

    return {"config": asdict(cfg),
            "machine": {"kernel_cflags": list(kernels.CFLAGS),
                        **{f"cpu_{k}": v
                           for k, v in kernels.CPU._asdict().items()}},
            "validation": val,
            "mxp": mxp,
            "double": dbl,
            "summary": summary}


def run_benchmark(cfg):
    """Run all three phases and return the report dictionary.

    When validation solves the timed phases' per-rank problem on the same
    world, the timed phases reuse its hierarchies instead of building them
    again.
    """
    cfg.validate()
    world = RankWorld(cfg.ranks) if cfg.ranks > 1 else None
    val, states = _validate(cfg, world)
    if world is None:
        parts = [_bench_worker(None, 0, cfg, states)]
    else:
        parts = world.run(_bench_worker, cfg, states)
    return _assemble_report(cfg, val, parts)


# -- matrix dump --------------------------------------------------------------


def dump_matrix(cfg, path):
    """Write the whole global operator (every rank's rows) to ``path``."""
    gp = GlobalProblem.from_local(cfg.local_nx, cfg.local_ny, cfg.local_nz,
                                  cfg.ranks)
    whole = GlobalProblem.from_local(gp.nx, gp.ny, gp.nz, 1)
    A = generate_matrix(whole.domain(0))
    write_matrix_market(path, A)


# -- CLI ----------------------------------------------------------------------


def _check_writable(path):
    """Raise ConfigError unless ``path`` could be written: it is not a
    directory, and its directory exists and is writable.  Creates nothing."""
    p = Path(path)
    if p.is_dir() or not os.access(p.parent, os.W_OK):
        raise ConfigError(f"cannot write {path}: not a file in an existing, "
                          f"writable directory")


@contextmanager
def _writing(path):
    """Turn an OSError from writing ``path`` into a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from None


def _build_parser():
    """Flags for every ``BenchConfig`` field but ``mg_levels``, each with the
    field's name as its ``dest`` and its value in ``BenchConfig()`` as its
    default, plus the two output paths."""
    d = BenchConfig()
    p = argparse.ArgumentParser(
        prog="mxpbench",
        description="Mixed-precision multigrid GMRES benchmark on a "
                    "27-point stencil problem.",
        epilog="Every run smooths with one pre-, one post- and one "
               "coarsest-level Gauss-Seidel sweep, and stops each validation "
               f"solve after at most {VALIDATION_MAX_ITERS:,} iterations. "
               "summary.speedup is penalized mixed GFLOP/s over double "
               "GFLOP/s, each computed from modelled flops over summed motif "
               "seconds; it is not a ratio of solve wall times.")
    for axis in "xyz":
        p.add_argument(f"--local-n{axis}", type=int,
                       default=getattr(d, f"local_n{axis}"),
                       help=f"local grid points in {axis} per rank "
                            f"(default %(default)s)")
    p.add_argument("--ranks", type=int, default=d.ranks,
                   help=f"number of simulated ranks, at most {MAX_RANKS} "
                        f"(default %(default)s)")
    p.add_argument("--restart", type=int, default=d.restart,
                   help="GMRES restart length (default %(default)s)")
    p.add_argument("--tol", type=float, default=d.tol,
                   help="relative residual target (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=d.max_iters,
                   help="iteration cap per timed solve (default %(default)s)")
    p.add_argument("--time-seconds", type=float, default=d.time_seconds,
                   help="wall-time budget of the mixed phase "
                        "(default %(default)s)")
    p.add_argument("--validation", dest="validation_mode",
                   choices=VALIDATION_MODES, default=d.validation_mode,
                   help="validation mode (default %(default)s)")
    p.add_argument("--coloring", choices=COLORING_STRATEGIES,
                   default=d.coloring,
                   help="coloring strategy (default %(default)s)")
    p.add_argument("--seed", type=int, default=d.seed,
                   help="seed for randomized coloring, at least 0 "
                        "(default %(default)s)")
    p.add_argument("--report-path", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="write the global matrix in Matrix Market form")
    return p


def main(argv=None):
    args = vars(_build_parser().parse_args(argv))
    report_path = args.pop("report_path")
    matrix_path = args.pop("dump_matrix")
    cfg = BenchConfig(**args)
    try:
        cfg.validate()
        if report_path:
            _check_writable(report_path)
        if matrix_path:
            with _writing(matrix_path):
                dump_matrix(cfg, matrix_path)
        report = run_benchmark(cfg)
        text = json.dumps(report, indent=2)
        if report_path:
            with _writing(report_path):
                Path(report_path).write_text(text + "\n")
    except (ConfigError, CoarseningError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 4

    if report_path:
        s = report["summary"]
        print(f"penalized {s['penalized_gflops']:.3f} GFLOP/s "
              f"(penalty {s['penalty']:.3f}, speedup {s['speedup']:.2f}x); "
              f"report written to {report_path}")
    else:
        print(text)
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
