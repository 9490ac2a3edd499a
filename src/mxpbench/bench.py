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
min(1, n_d / n_ir), and the iteration count of every timed solve.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .comm import ProtocolError, RankWorld, TopologyError, reduce_sum
from .geometry import CoarseningError, GlobalProblem
from .krylov import gmres_solve
from .metrics import MOTIFS, Tally, gflops, penalty_factor, sum_motif_dicts
from .multigrid import build_hierarchy
from .problem import generate_matrix, generate_rhs, write_matrix_market
from .smoother import SmootherWorkspace


class ConfigError(Exception):
    """The benchmark configuration is invalid."""


class ValidationError(Exception):
    """The validation phase failed (reference solver did not converge)."""


VALIDATION_MODES = ("standard", "fullscale")
COLORING_STRATEGIES = ("greedy", "jpl")


@dataclass
class BenchConfig:
    """All knobs of a benchmark run (defaults are the desk-scale settings)."""

    local_nx: int = 16
    local_ny: int = 16
    local_nz: int = 16
    ranks: int = 1
    restart: int = 30           # GMRES restart length m
    tol: float = 1e-9           # relative residual target
    max_iters: int = 300        # per-solve cap in the timed phases
    nd_cap: int = 10000         # iteration cap for the validation solves
    time_seconds: float = 5.0   # wall-time budget of the mxp phase
    validation_mode: str = "standard"
    coloring: str = "greedy"
    seed: int = 0
    mg_levels: int = 4
    nu1: int = 1                # pre-smoothing sweeps
    nu2: int = 1                # post-smoothing sweeps
    nu_c: int = 1               # coarsest-level sweeps

    def validate(self):
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
        if self.mg_levels < 1:
            raise ConfigError("mg_levels must be at least 1")
        if self.ranks < 1:
            raise ConfigError("ranks must be at least 1")
        if self.restart < 1:
            raise ConfigError("restart length must be at least 1")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iters < 1 or self.nd_cap < 1:
            raise ConfigError("iteration caps must be at least 1")
        if self.time_seconds < 0:
            raise ConfigError("time_seconds must be non-negative")
        if self.validation_mode not in VALIDATION_MODES:
            raise ConfigError(f"unknown validation mode "
                              f"{self.validation_mode!r}")
        if self.coloring not in COLORING_STRATEGIES:
            raise ConfigError(f"unknown coloring strategy {self.coloring!r}")
        if min(self.nu1, self.nu2, self.nu_c) < 1:
            raise ConfigError("smoothing sweep counts must be at least 1")

    def sweeps(self):
        return SmootherWorkspace(nu1=self.nu1, nu2=self.nu2, nu_c=self.nu_c)


# -- shared per-rank setup ----------------------------------------------------


def _build_state(cfg, nranks, world, rank):
    """Hierarchy, finest level and right-hand side for one rank."""
    gp = GlobalProblem.from_local(cfg.local_nx, cfg.local_ny, cfg.local_nz,
                                  nranks)
    dom = gp.domain(rank)
    hier = build_hierarchy(dom, cfg.mg_levels, world, rank,
                           strategy=cfg.coloring, seed=cfg.seed,
                           sweeps=cfg.sweeps())
    lv = hier.levels[0]
    vecs = generate_rhs(lv.A_hi)
    return hier, lv, vecs.b


def _solve(cfg, hier, lv, b, world, rank, mode, tol, max_iters, tally=None):
    n = lv.A_hi.n_rows
    x0 = np.zeros(n)

    def precond(r):
        return hier.apply(r, tally)

    return gmres_solve(lv.A_hi, lv.A_lo, precond, b, x0=x0, mode=mode,
                       tol=tol, max_iters=max_iters, m=cfg.restart,
                       plan=lv.plan, world=world, rank=rank, tally=tally)


# -- phase 1: validation ------------------------------------------------------


def _validation_worker(world, rank, cfg, nranks):
    state = _build_state(cfg, nranks, world, rank)
    hier, lv, b = state
    dres = _solve(cfg, hier, lv, b, world, rank, "double",
                  cfg.tol, cfg.nd_cap)
    if cfg.validation_mode == "standard":
        if not dres.converged:
            raise ValidationError(
                f"double GMRES did not reach {cfg.tol:g} within "
                f"{cfg.nd_cap} iterations (relres {dres.relres:.3e})")
        target = cfg.tol
    else:
        # Full-scale rule: the double solve runs to min(cap, tol) and the
        # achieved residual becomes the mixed solve's target.
        target = dres.relres if not dres.converged else cfg.tol
    mres = _solve(cfg, hier, lv, b, world, rank, "mixed", target, cfg.nd_cap)
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


def run_validation(cfg, world=None):
    """Phase 1: measure n_d and n_ir on the validation problem.

    ``standard`` solves the per-rank problem on one rank; ``fullscale``
    uses all ranks and the full problem, on ``world`` when one is given.
    ``restarts`` and ``boundary_pairs`` (recurrence and true residual norm
    at each restart) describe the mixed solve.
    """
    return _validate(cfg, world)[0]


# -- phases 2 and 3: timed solves ---------------------------------------------


def _bench_worker(world, rank, cfg, states=None):
    hier, lv, b = (states[rank] if states is not None
                   else _build_state(cfg, cfg.ranks, world, rank))
    tally_mxp = Tally()
    tally_dbl = Tally()
    iters_mxp = []
    iters_dbl = []

    t0 = time.perf_counter()
    reps = 0
    while True:
        res = _solve(cfg, hier, lv, b, world, rank, "mixed",
                     cfg.tol, cfg.max_iters, tally_mxp)
        iters_mxp.append(res.iterations)
        reps += 1
        # Rank 0 owns the clock; its verdict is broadcast so every rank
        # runs the same number of repetitions.
        elapsed = time.perf_counter() - t0
        flag = 1.0 if rank == 0 and elapsed < cfg.time_seconds else 0.0
        if reduce_sum(world, rank, flag) == 0.0:
            break

    for _ in range(reps):
        res = _solve(cfg, hier, lv, b, world, rank, "double",
                     cfg.tol, cfg.max_iters, tally_dbl)
        iters_dbl.append(res.iterations)

    return {"reps": reps,
            "iters_mxp": iters_mxp,
            "iters_dbl": iters_dbl,
            "mxp": {"flops": dict(tally_mxp.flops),
                    "bytes": dict(tally_mxp.bytes),
                    "seconds": dict(tally_mxp.seconds)},
            "double": {"flops": dict(tally_dbl.flops),
                       "bytes": dict(tally_dbl.bytes),
                       "seconds": dict(tally_dbl.seconds)}}


def _phase_block(parts, phase):
    """Aggregate one timed phase: flops and modelled bytes summed over
    ranks, rank-0 seconds."""
    flops = sum_motif_dicts([p[phase]["flops"] for p in parts])
    nbytes = sum_motif_dicts([p[phase]["bytes"] for p in parts])
    seconds = parts[0][phase]["seconds"]
    block = {}
    for motif in MOTIFS:
        f = flops[motif]
        nb = nbytes[motif]
        s = seconds[motif]
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
    write_matrix_market(path, A, np.arange(A.n_rows), gp.n_global)


# -- CLI ----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mxpbench",
        description="Mixed-precision multigrid GMRES benchmark on a "
                    "27-point stencil problem.",
        epilog="summary.speedup is penalized mixed GFLOP/s over double "
               "GFLOP/s, each computed from modelled flops over summed motif "
               "seconds; it is not a ratio of solve wall times.")
    p.add_argument("--local-nx", type=int, default=16,
                   help="local grid points in x per rank (default 16)")
    p.add_argument("--local-ny", type=int, default=16,
                   help="local grid points in y per rank (default 16)")
    p.add_argument("--local-nz", type=int, default=16,
                   help="local grid points in z per rank (default 16)")
    p.add_argument("--ranks", type=int, default=1,
                   help="number of simulated ranks (default 1)")
    p.add_argument("--restart", type=int, default=30,
                   help="GMRES restart length (default 30)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative residual target (default 1e-9)")
    p.add_argument("--max-iters", type=int, default=300,
                   help="iteration cap per timed solve (default 300)")
    p.add_argument("--time-seconds", type=float, default=5.0,
                   help="wall-time budget of the mixed phase (default 5)")
    p.add_argument("--validation", choices=VALIDATION_MODES,
                   default="standard", help="validation mode")
    p.add_argument("--coloring", choices=COLORING_STRATEGIES,
                   default="greedy", help="coloring strategy")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized coloring (default 0)")
    p.add_argument("--report-path", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="write the global matrix in Matrix Market form")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    cfg = BenchConfig(local_nx=args.local_nx, local_ny=args.local_ny,
                      local_nz=args.local_nz, ranks=args.ranks,
                      restart=args.restart, tol=args.tol,
                      max_iters=args.max_iters,
                      time_seconds=args.time_seconds,
                      validation_mode=args.validation,
                      coloring=args.coloring, seed=args.seed)
    try:
        cfg.validate()
        if args.dump_matrix:
            dump_matrix(cfg, args.dump_matrix)
        report = run_benchmark(cfg)
    except (ConfigError, CoarseningError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, TopologyError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 4

    text = json.dumps(report, indent=2)
    if args.report_path:
        with open(args.report_path, "w") as fh:
            fh.write(text + "\n")
        s = report["summary"]
        print(f"penalized {s['penalized_gflops']:.3f} GFLOP/s "
              f"(penalty {s['penalty']:.3f}, speedup {s['speedup']:.2f}x); "
              f"report written to {args.report_path}")
    else:
        print(text)
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
