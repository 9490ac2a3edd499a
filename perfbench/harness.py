"""Workloads, timed solves and metrics of the mxpbench benchmark.

The program is driven only through its public calls, the way
``bench._solve`` does it: ``geometry.GlobalProblem``,
``multigrid.build_hierarchy``, ``problem.generate_rhs``, and
``krylov.gmres_solve`` with ``MgHierarchy.apply`` as the preconditioner and a
``metrics.Tally``; multi-rank workloads run each step with
``comm.RankWorld.run``, with the process held on one CPU
(``pin_to_one_cpu``).  Solver settings are the ``BenchConfig`` defaults.

A run alternates fresh set-ups (build plus one warm-up solve per mode) with
timed blocks of solves on the latest state, for the requested seconds; a
set-up runs whenever set-ups have taken less than ``SETUP_SHARE`` of the run
so far, so set-ups and solves meet the same changes of host speed.  With
tracing off a block is one mixed and one double solve; with tracing on it is
those two traced and those two untraced.  The seed orders each block; the
next block runs in the reverse order, so drift on a shared machine falls on
both modes alike.  Every solve is checked (``solvecheck``), and its exact
counts must equal those of the first solve of its mode and those of earlier
runs of the same sources in the same checkout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from mxpbench import comm, geometry, krylov, multigrid, problem
from mxpbench.bench import BenchConfig
from mxpbench.metrics import Tally, gflops, penalty_factor

import solvecheck
import spantrace

# name -> (grid points per rank along each axis, ranks)
WORKLOADS = {"desk": (16, 1), "mid": (32, 1), "ranks2": (16, 2)}
MODES = ("mixed", "double")
PRECS = ("fp64", "fp32")
LEVELS = 4
SETUP_SHARE = 0.5   # share of a run's time spent on fresh set-ups
MIN_ROUNDS = 2      # timed blocks run even when the seconds are spent sooner
# Largest share of a traced solve's wall time that may lie outside every
# layer span on a rank (thread start and join, the benchmark's own calls).
MAX_UNATTRIBUTED = 0.05

HERE = Path(__file__).resolve().parent
SOURCES = [HERE.parent / "src" / "mxpbench", HERE]


def source_digest():
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for d in SOURCES:
        for f in sorted(d.glob("*.py")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


SETUP_SPANS = {
    "geometry.decompose_s": "geometry.decompose",
    "problem.generate_matrix_s": "problem.generate_matrix",
    "coloring.color_s": "coloring.color",
    "coloring.permute_system_s": "coloring.permute_system",
    "problem.to_low_precision_s": "problem.to_low_precision",
    "comm.build_halo_plan_s": "comm.build_halo_plan",
}


def high_percentile(samples):
    """Highest whole percentile from 50 up with at least ten samples above it.

    Uses the nearest-rank value; returns ``(q, value)``, or None when there
    are fewer than 20 samples.
    """
    n = len(samples)
    xs = sorted(samples)
    for q in range(99, 49, -1):
        k = math.ceil(q * n / 100)
        if n - k >= 10:
            return q, xs[k - 1]
    return None


def alternating(items, rng):
    """The items in a seeded order, then reversed, then forward again..."""
    order = list(items)
    rng.shuffle(order)
    while True:
        yield list(order)
        order.reverse()


def _on_ranks(world, fn, *args):
    """fn(world, rank, *args) on every rank; the per-rank results."""
    if world is None:
        return [fn(None, 0, *args)]
    return world.run(fn, *args)


def pin_to_one_cpu():
    """Keep this thread, and the threads it starts, on one allowed CPU.

    The rank threads run Python code and take turns at the interpreter lock.
    On two CPUs each hand-over of the lock crosses cores, and the cost of that
    changes with the host's load: unpinned ``ranks2`` solves took 1.2 s in
    one run and 1.9 s in the next, against 0.7-0.8 s pinned.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _rank_of(thread_name):
    """Rank of a ``RankWorld`` worker thread; 0 for the main thread."""
    if thread_name.startswith("rank-"):
        return int(thread_name.split("-")[1])
    return 0


class State:
    """One set-up: the rank world and each rank's (hierarchy, b)."""

    def __init__(self, world, parts):
        self.world = world
        self.parts = parts

    @property
    def hierarchies(self):
        return [h for h, _ in self.parts]


class Run:
    """One benchmark run of a workload; ``execute`` returns the result.

    ``listed`` is the ``(name, unit)`` of every metric the run must report,
    in order: the ``end_to_end`` list of ``BENCHMARK.json`` with tracing off,
    its ``per_layer`` list with tracing on.
    """

    def __init__(self, workload, seed, seconds, trace, listed, out_dir=None):
        edge, ranks = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = bool(trace)
        self.listed = listed
        self.out_dir = out_dir
        self.cfg = BenchConfig(local_nx=edge, local_ny=edge, local_nz=edge,
                               ranks=ranks, seed=seed)
        self.cfg.validate()
        if ranks > 1:
            pin_to_one_cpu()
        self.rng = random.Random(seed)
        self.ref = solvecheck.Reference(self.cfg)
        self.tracer = spantrace.Tracer(edge ** 3) if self.trace else None
        self.records = []
        self.first_signature = {}
        self.broken = False

    # -- program calls ---------------------------------------------------

    def _root(self, traced, name, solve):
        return self.tracer.root(name, solve) if traced else nullcontext()

    def _build_rank(self, world, rank, solve, traced):
        cfg = self.cfg
        with self._root(traced, "bench.build", solve):
            gp = geometry.GlobalProblem.from_local(
                cfg.local_nx, cfg.local_ny, cfg.local_nz, cfg.ranks)
            hier = multigrid.build_hierarchy(
                gp.domain(rank), cfg.mg_levels, world, rank,
                strategy=cfg.coloring, seed=cfg.seed, sweeps=cfg.sweeps())
            b = problem.generate_rhs(hier.levels[0].A_hi).b
        return hier, b

    def _solve_rank(self, world, rank, parts, mode, solve, traced):
        cfg = self.cfg
        hier, b = parts[rank]
        lv = hier.levels[0]
        tally = Tally()
        x = np.zeros(lv.A_hi.n_rows)

        def precond(r):
            return hier.apply(r, tally)

        with self._root(traced, f"bench.solve.{mode}", solve):
            res = krylov.gmres_solve(
                lv.A_hi, lv.A_lo, precond, b, x0=x, mode=mode, tol=cfg.tol,
                max_iters=cfg.max_iters, m=cfg.restart, plan=lv.plan,
                world=world, rank=rank, tally=tally)
        return res, x, tally

    def build(self, k, traced):
        """A fresh state; returns it and its wall seconds."""
        with self.tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter()
            world = comm.RankWorld(self.cfg.ranks) if self.cfg.ranks > 1 else None
            parts = _on_ranks(world, self._build_rank, f"build{k}", traced)
            seconds = time.perf_counter() - t0
        return State(world, parts), seconds

    def solve(self, state, mode, kind, traced):
        """One checked solve; returns its record."""
        sid = len(self.records)
        rec = {"id": sid, "mode": mode, "kind": kind, "traced": traced,
               "ok": False}
        self.records.append(rec)
        with self.tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                parts = _on_ranks(state.world, self._solve_rank, state.parts,
                                  mode, sid, traced)
            except Exception:  # noqa: BLE001 - a failed solve is counted
                rec["wall"] = time.perf_counter() - t0
                rec["reason"] = "raised:\n" + traceback.format_exc()
                self.broken = True
                return rec
            rec["wall"] = time.perf_counter() - t0
        results = [p[0] for p in parts]
        tallies = [p[2] for p in parts]
        pairs = results[0].boundary_pairs
        rec.update(iterations=results[0].iterations,
                   restarts=results[0].restarts,
                   flops=sum(t.total_flops() for t in tallies),
                   tally_bytes=[t.total_bytes() for t in tallies],
                   gap=pairs[0][1] / pairs[0][0] if pairs else float("nan"))
        if not all(r.converged for r in results):
            rec["reason"] = "solver reported converged=False"
            return rec
        pieces = [(solvecheck.global_rows(h.levels[0].A_hi), p[1])
                  for h, p in zip(state.hierarchies, parts)]
        ok, relres, xerr, reason = self.ref.check(pieces)
        rec.update(relres=relres, xerr=xerr)
        if not ok:
            rec["reason"] = reason
            return rec
        sig = rec["counts"] = solvecheck.signature(results, tallies,
                                                   state.hierarchies)
        if self.first_signature.setdefault(mode, sig) != sig:
            rec["reason"] = (f"exact counts differ from the first {mode} "
                             f"solve: {sig} != {self.first_signature[mode]}")
            return rec
        rec["ok"] = True
        return rec

    # -- the run ---------------------------------------------------------

    def execute(self):
        """Set up, time, check; print the report; return the result dict."""
        setup_s = []
        first_wall = {m: [] for m in MODES}
        colors = []
        warm_orders = alternating(MODES, self.rng)
        block = [(m, False) for m in MODES]
        if self.trace:
            block += [(m, True) for m in MODES]
        orders = alternating(block, self.rng)
        state = None
        start = time.perf_counter()
        rounds = 0
        while not self.broken and (rounds < MIN_ROUNDS
                                   or time.perf_counter() - start < self.seconds):
            if sum(setup_s) <= SETUP_SHARE * (time.perf_counter() - start):
                state = None    # release the old state before the next build
                gc.collect()
                state, total = self.build(len(setup_s), self.trace)
                colors.append(
                    state.hierarchies[0].levels[0].coloring.num_colors)
                for mode in next(warm_orders):
                    rec = self.solve(state, mode, "warmup", self.trace)
                    first_wall[mode].append(rec["wall"])
                    total += rec["wall"]
                setup_s.append(total)
                if self.broken:
                    break
            for mode, traced in next(orders):
                self.solve(state, mode, "timed", traced)
            rounds += 1

        report = Report(self.workload, self.seed)
        if self.trace:
            totals = self._span_totals()
            self._check_trace(report, totals)
        self._check_across_runs(report)
        if self.trace:
            samples = self._per_layer(report, totals, first_wall, colors)
        else:
            samples = self._end_to_end(report, setup_s)
        metrics = {}
        if samples is not None:
            names = {name for name, _ in self.listed}
            if names != samples.keys():
                raise RuntimeError(
                    "computed metrics differ from BENCHMARK.json: "
                    f"{sorted(names ^ samples.keys())}")
            metrics = {name: report.metric(name, unit, samples[name])
                       for name, unit in self.listed}
        if self.trace:
            self._write_spans()
        failures = [r for r in self.records if not r["ok"]]
        self._print_checks(report, failures)
        report.note(f"{len(setup_s)} set-ups and {rounds} timed blocks")
        failed = len(failures)
        attempted = len(self.records)
        report.emit()
        return {"correct": failed == 0 and bool(metrics),
                "attempted": attempted, "failed": failed, "metrics": metrics}

    def _ok(self, mode, kind="timed", traced=False):
        return [r for r in self.records if r["ok"] and r["mode"] == mode
                and r["kind"] == kind and r["traced"] == traced]

    def _penalty(self):
        n_d = self._ok("double")[0]["iterations"]
        n_ir = self._ok("mixed")[0]["iterations"]
        return n_d, n_ir, penalty_factor(n_d, n_ir)

    def _end_to_end(self, report, setup_s):
        mixed = self._ok("mixed")
        double = self._ok("double")
        if not mixed or not double:
            return None
        n_d, n_ir, pen = self._penalty()
        attempted = len(self.records)
        failed = sum(1 for r in self.records if not r["ok"])
        wall_m = [r["wall"] for r in mixed]
        wall_d = [r["wall"] for r in double]
        samples = {
            "setup_s": setup_s,
            "solve_mixed_s": wall_m,
            "solve_double_s": wall_d,
            "penalized_gflops": [gflops(r["flops"], r["wall"]) * pen
                                 for r in mixed],
            "penalty": [pen],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0],
            "pass_ratio": [(attempted - failed) / attempted],
        }
        report.note(f"n_d {n_d}, n_ir {n_ir}; fail_ratio {failed}/{attempted}"
                    f" = {failed / attempted:g}")
        report.note(f"speedup (solve_double_s / solve_mixed_s, not gated): "
                    f"{statistics.median(wall_d) / statistics.median(wall_m):.4f}")
        return samples

    # -- traced runs -----------------------------------------------------

    def _span_totals(self):
        """solve id -> thread name -> totals of that thread's spans.

        ``root`` is the duration of the thread's root spans and ``layers``
        the part of it spent in layer spans.  Totals per span name are
        [self seconds, calls, work, inclusive seconds]; an interior span adds
        its time and work to its caller's name but no call.
        """
        out = defaultdict(dict)
        for th in self.tracer.threads:
            selfs = spantrace.self_times(th.spans)
            for span, own in zip(th.spans, selfs):
                name, t0, t1, parent, sid, work = span
                d = out[sid].setdefault(th.thread, {"root": 0.0, "layers": 0.0,
                                                    "names": {}})
                if parent < 0:
                    d["root"] += t1 - t0
                    d["layers"] += (t1 - t0) - own
                interior = name.endswith(spantrace.INTERIOR)
                if interior:
                    name = name[:-len(spantrace.INTERIOR)]
                e = d["names"].setdefault(name, [0.0, 0, 0, 0.0])
                e[0] += own
                e[2] += work
                if not interior:
                    e[1] += 1
                    e[3] += t1 - t0
        return out

    @staticmethod
    def _sum(ranks, prefix, field):
        """Per-rank mean of ``field`` over names equal to or under prefix."""
        tot = 0.0
        for d in ranks.values():
            for name, e in d["names"].items():
                if name == prefix or name.startswith(prefix + "."):
                    tot += e[field]
        return tot / len(ranks)

    def _check_trace(self, report, totals):
        """Fail traced solves whose layer spans leave more than
        ``MAX_UNATTRIBUTED`` of a rank's wall time outside every layer, that
        miss ``Tally.add`` calls, or whose call counts differ by solve."""
        first_calls = {}
        shares = []
        for rec in self.records:
            if not rec["traced"] or "tally_bytes" not in rec:
                continue
            ranks = totals.get(rec["id"], {})
            reasons = []
            if len(ranks) != self.cfg.ranks:
                reasons.append(f"spans on {len(ranks)} threads, not "
                               f"{self.cfg.ranks}")
            outside = [rec["wall"] - d["layers"] for d in ranks.values()]
            rec["unattributed"] = statistics.fmean(outside or [rec["wall"]])
            share = max(outside or [rec["wall"]]) / rec["wall"]
            shares.append(share)
            if share > MAX_UNATTRIBUTED:
                reasons.append(f"{share:.1%} of the wall time is in no layer "
                               f"span (limit {MAX_UNATTRIBUTED:.0%})")
            for th, d in ranks.items():
                seen = sum(e[2] for n, e in d["names"].items()
                           if n.startswith("metrics.tally."))
                if seen != rec["tally_bytes"][_rank_of(th)]:
                    reasons.append("the trace missed Tally.add calls")
            calls = rec["calls"] = {
                th: [sum(e[1] for n, e in d["names"].items()
                         if n.startswith(p))
                     for p in ("smoother.gs.", "krylov.spmv.",
                               "comm.exchange", "comm.allreduce")]
                for th, d in sorted(ranks.items())}
            if first_calls.setdefault(rec["mode"], calls) != calls:
                reasons.append(f"call counts differ by solve: {calls}")
            self._fail(rec, reasons)
        report.note(f"traced: time in no layer span is at most "
                    f"{max(shares or [0.0]):.2%} (median "
                    f"{statistics.median(shares or [0.0]):.2%}) of a solve's "
                    f"wall time; calls per rank [gs, spmv, exchange, "
                    f"allreduce] {first_calls}")

    def _check_across_runs(self, report):
        """Fail solves whose exact counts differ from an earlier run's.

        The first run of a workload records the counts of each mode (and,
        when traced, the call counts) in the output directory, keyed by a
        digest of the sources; later runs of the same sources compare.
        """
        counts = {}
        for rec in self.records:
            if rec["ok"]:
                counts.setdefault(rec["mode"], rec["counts"])
                if "calls" in rec:
                    counts.setdefault(f"calls.{rec['mode']}", rec["calls"])
        report.note(f"exact counts {json.dumps(counts, sort_keys=True)}")
        if self.out_dir is None:
            return
        path = (self.out_dir
                / f"counts-{self.workload}-{source_digest()}.json")
        earlier = json.loads(path.read_text()) if path.exists() else {}
        differ = {k for k in counts if k in earlier and earlier[k] != counts[k]}
        for rec in self.records:
            keys = {rec["mode"], f"calls.{rec['mode']}"} & differ
            if rec["ok"] and keys:
                self._fail(rec, [f"exact counts {sorted(keys)} differ from "
                                 f"an earlier run's, recorded in {path.name}"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**counts, **earlier}, sort_keys=True))
        os.replace(tmp, path)

    @staticmethod
    def _fail(rec, reasons):
        if reasons:
            rec["ok"] = False
            rec["reason"] = "; ".join(reasons)

    def _per_layer(self, report, totals, first_wall, colors):
        tm = {m: self._ok(m, traced=True) for m in MODES}
        um = {m: self._ok(m, traced=False) for m in MODES}
        if not all(tm.values()) or not all(um.values()):
            return None
        nranks = self.cfg.ranks
        pairs = list(zip(tm["mixed"], tm["double"]))
        samples = defaultdict(list)

        for name, span in SETUP_SPANS.items():
            for k in range(len(colors)):
                ranks = totals[f"build{k}"]
                samples[name].append(self._sum(ranks, span, 3))
        samples["coloring.num_colors"] = colors
        for m in MODES:
            warm = statistics.median(r["wall"] for r in tm[m])
            samples[f"bench.warmup_excess_s.{m}"] = [w - warm
                                                     for w in first_wall[m]]
            for r in tm[m]:
                ranks = totals[r["id"]]
                samples[f"krylov.gmres_self_s.{m}"].append(
                    self._sum(ranks, f"krylov.gmres.{m}", 0))
                samples[f"krylov.iters.{m}"].append(r["iterations"])
                samples[f"krylov.restarts.{m}"].append(r["restarts"])
                samples[f"metrics.flops.{m}"].append(r["flops"])
        samples["krylov.residual_gap.mixed"] = [r["gap"] for r in tm["mixed"]]

        busy = defaultdict(list)
        for rm, rd in pairs:
            both = [totals[rm["id"]], totals[rd["id"]]]

            def t(prefix, field=0):
                return sum(self._sum(ranks, prefix, field) for ranks in both)

            for p in PRECS:
                for lev in range(LEVELS):
                    samples[f"smoother.gs_s.{p}.L{lev}"].append(
                        t(f"smoother.gs.{p}.L{lev}"))
                for key, span in (("smoother.gs_gbs", "smoother.gs"),
                                  ("krylov.spmv_gbs", "krylov.spmv")):
                    secs = t(f"{span}.{p}")
                    samples[f"{key}.{p}"].append(
                        t(f"{span}.{p}", 2) / secs / 1e9 if secs > 0 else 0.0)
                samples[f"multigrid.vcycle_s.{p}"].append(
                    t(f"multigrid.vcycle.{p}") + t(f"multigrid.apply.{p}"))
                for k in ("restrict", "prolong"):
                    samples[f"multigrid.{k}_s.{p}"].append(
                        t(f"multigrid.{k}.{p}"))
                for k in ("spmv", "cgs2"):
                    samples[f"krylov.{k}_s.{p}"].append(t(f"krylov.{k}.{p}"))
                samples[f"metrics.bytes.{p}"].append(
                    t(f"metrics.tally.{p}", 2) * nranks)
            samples["smoother.gs_calls"].append(t("smoother.gs", 1))
            samples["multigrid.vcycles"].append(t("multigrid.apply", 1))
            samples["krylov.givens_s"].append(t("krylov.givens"))
            samples["comm.exchange_calls"].append(t("comm.exchange", 1))
            samples["comm.exchange_bytes"].append(t("comm.exchange", 2))
            samples["comm.exchange_s"].append(t("comm.exchange"))
            samples["comm.recv_wait_s"].append(t("comm.recv"))
            samples["comm.allreduce_calls"].append(t("comm.allreduce", 1))
            samples["comm.allreduce_s"].append(t("comm.allreduce"))
            samples["metrics.tally_s"].append(t("metrics.tally"))
            samples["bench.unattributed_s"].append(
                rm["unattributed"] + rd["unattributed"])
            for ranks in both:
                for th, d in ranks.items():
                    waits = sum(d["names"].get(n, [0.0])[0]
                                for n in ("comm.recv", "comm.allreduce"))
                    busy[th].append(d["root"] - waits)
        per_rank = [statistics.median(
            [a + b for a, b in zip(v[0::2], v[1::2])]) for v in busy.values()]
        samples["comm.rank_busy_s.max"] = [max(per_rank)]
        samples["comm.rank_busy_s.min"] = [min(per_rank)]

        def med(recs):
            return statistics.median(r["wall"] for r in recs)

        samples["bench.trace_overhead_s"] = [
            sum(med(tm[m]) - med(um[m]) for m in MODES)]
        report.note(f"per-layer values are per solve pair (one mixed and one "
                    f"double solve) unless named .mixed/.double; "
                    f"{len(pairs)} traced pairs, {nranks} rank(s): times and "
                    f"calls are per rank, flops and bytes whole-problem")
        return samples

    def _write_spans(self):
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.workload}-seed{self.seed}.json"
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve",
                                  "work"],
                       "threads": [{"thread": th.thread, "spans": th.spans}
                                   for th in self.tracer.threads]}, fh)

    def _print_checks(self, report, failures):
        ok = [r for r in self.records if r["ok"]]
        if ok:
            report.note(f"checks: {len(ok)} solves pass; max recomputed relres "
                        f"{max(r['relres'] for r in ok):.3e}, max|x - 1| "
                        f"{max(r['xerr'] for r in ok):.3e}")
        for r in failures:
            report.note(f"FAILED solve {r['id']} ({r['mode']}, {r['kind']}"
                        f"{', traced' if r['traced'] else ''}): {r['reason']}")


class Report:
    """Human-readable lines; the result JSON is printed after them."""

    def __init__(self, workload, seed):
        self.lines = [f"perfbench workload={workload} seed={seed}"]

    def note(self, text):
        self.lines.append("# " + text)

    def metric(self, name, unit, samples):
        med = statistics.median(samples)
        hp = high_percentile(samples)
        tail = f"p{hp[0]}={hp[1]:.6g}" if hp else "p-=n/a"
        self.lines.append(f"{name:<32} {med:>14.6g} {unit:<8} {tail:<16} "
                          f"n={len(samples)}")
        return {"value": med, "unit": unit}

    def emit(self):
        print("\n".join(self.lines), flush=True)
