"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from mxpbench import comm, geometry, krylov, multigrid, problem  # noqa: E402
from mxpbench.bench import BenchConfig  # noqa: E402
from mxpbench.metrics import Tally  # noqa: E402

import harness  # noqa: E402
import solvecheck  # noqa: E402
import spantrace  # noqa: E402


def _tiny(ranks):
    return BenchConfig(local_nx=8, local_ny=8, local_nz=8, ranks=ranks)


def _solve(cfg, mode="mixed", tracer=None):
    """Build and solve on every rank; per-rank (global rows, x, result)."""

    def work(world, rank):
        gp = geometry.GlobalProblem.from_local(8, 8, 8, cfg.ranks)
        hier = multigrid.build_hierarchy(gp.domain(rank), cfg.mg_levels,
                                         world, rank, sweeps=cfg.sweeps())
        lv = hier.levels[0]
        b = problem.generate_rhs(lv.A_hi).b
        tally = Tally()
        x = np.zeros(lv.A_hi.n_rows)
        root = tracer.root("bench.solve", 0) if tracer else _Null()
        with root:
            res = krylov.gmres_solve(
                lv.A_hi, lv.A_lo, lambda r: hier.apply(r, tally), b, x0=x,
                mode=mode, tol=cfg.tol, m=cfg.restart, plan=lv.plan,
                world=world, rank=rank, tally=tally)
        return solvecheck.global_rows(lv.A_hi), x, res

    if cfg.ranks == 1:
        return [work(None, 0)]
    return comm.RankWorld(cfg.ranks).run(work)


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# -- correctness check ----------------------------------------------------


@pytest.mark.parametrize("ranks", [1, 2])
def test_check_accepts_solution_and_rejects_perturbed_x(ranks):
    cfg = _tiny(ranks)
    parts = _solve(cfg)
    ref = solvecheck.Reference(cfg)
    pieces = [(rows, x) for rows, x, _ in parts]
    ok, relres, xerr, _ = ref.check(pieces)
    assert ok and relres < cfg.tol and xerr < solvecheck.MAX_X_ERROR

    bumped = [(rows, x.copy()) for rows, x in pieces]
    bumped[-1][1][7] += 1e-5
    ok, relres, _, reason = ref.check(bumped)
    assert not ok and relres > cfg.tol and "residual" in reason

    scaled = [(rows, x * (1 + 1e-8)) for rows, x in pieces]
    assert not ref.check(scaled)[0]

    ref.tol = 1.0   # leave only the max|x - 1| bound in force
    off = [(rows, x + 1e-5) for rows, x in pieces]
    ok, _, xerr, reason = ref.check(off)
    assert not ok and xerr > solvecheck.MAX_X_ERROR and "x - 1" in reason


def test_check_rejects_rows_missing_from_the_gather():
    cfg = _tiny(2)
    pieces = [(rows, x) for rows, x, _ in _solve(cfg)]
    ok, _, _, reason = solvecheck.Reference(cfg).check(pieces[:1])
    assert not ok and "exactly once" in reason


# -- self time ------------------------------------------------------------


def _span(name, t0, t1, parent):
    return [name, t0, t1, parent, "s", 0]


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0),
             _span("c", 2.0, 3.0, 1),
             _span("d", 6.0, 7.0, 2),
             _span("e", 7.0, 8.5, 2)]
    own = spantrace.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.5, 1.0, 1.0, 1.5])
    assert sum(own) == pytest.approx(10.0)


# -- wrappers -------------------------------------------------------------


def _snapshot():
    mods = {n: m for n, m in sys.modules.items()
            if n == "mxpbench" or n.startswith("mxpbench.")}
    snap = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for k, v in vars(value).items():
                    snap[(name, attr, k)] = v
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_install_and_remove_leave_every_module_attribute_as_found():
    before = _snapshot()
    tracer = spantrace.Tracer(8 ** 3)
    with tracer.installed():
        during = _snapshot()
        assert multigrid.forward_gs_sweep is not before[
            ("mxpbench.multigrid", "forward_gs_sweep")]
        assert multigrid.color_rows is not before[
            ("mxpbench.multigrid", "color_rows")]
        for mod in ("smoother", "krylov", "multigrid", "comm"):
            assert during[(f"mxpbench.{mod}", "exchange")] is not before[
                (f"mxpbench.{mod}", "exchange")]
        assert (during[("mxpbench.metrics", "Tally", "add")]
                is not before[("mxpbench.metrics", "Tally", "add")])
    assert _same(before, _snapshot())
    tracer.install()
    tracer.remove()
    assert _same(before, _snapshot())


@pytest.mark.parametrize("ranks", [1, 2])
def test_traced_solve_is_bitwise_the_untraced_one(ranks):
    cfg = _tiny(ranks)
    plain = _solve(cfg)
    tracer = spantrace.Tracer(8 ** 3)
    with tracer.installed():
        traced = _solve(cfg, tracer=tracer)
    for (_, x0, r0), (_, x1, r1) in zip(plain, traced):
        assert np.array_equal(x0, x1)
        assert (r0.iterations, r0.restarts) == (r1.iterations, r1.restarts)
    names = set()
    for th in tracer.threads:
        own = spantrace.self_times(th.spans)
        roots = [i for i, s in enumerate(th.spans) if s[0] == "bench.solve"]
        assert len(roots) == 1
        root = th.spans[roots[0]]
        inside = [o for s, o in zip(th.spans, own) if s[4] == 0]
        assert sum(inside) == pytest.approx(root[2] - root[1], abs=1e-9)
        names.update(s[0] for s in th.spans)
    assert {"smoother.gs.fp32.L0", "smoother.gs.fp32.L3", "krylov.spmv.fp64",
            "krylov.spmv.fp32", "multigrid.vcycle.fp32",
            "krylov.gmres.mixed", "metrics.tally.fp32"} <= names
    if ranks > 1:
        assert {"comm.exchange", "comm.recv", "comm.allreduce",
                "smoother.gs.fp32.L0/interior"} <= names


# -- run checks -----------------------------------------------------------


def _record(sid, mode, **fields):
    return {"id": sid, "mode": mode, "kind": "timed", "ok": True, **fields}


def test_solves_with_time_in_no_layer_span_fail():
    run = harness.Run("desk", 1, 1.0, 1, [])
    run.records = [_record(0, "mixed", traced=True, tally_bytes=[0],
                           wall=1.0),
                   _record(1, "mixed", traced=True, tally_bytes=[0],
                           wall=1.0)]
    totals = {0: {"MainThread": {"root": 0.99, "layers": 0.98, "names": {}}},
              1: {"MainThread": {"root": 0.99, "layers": 0.90, "names": {}}}}
    run._check_trace(harness.Report("desk", 1), totals)
    assert run.records[0]["ok"]
    assert run.records[0]["unattributed"] == pytest.approx(0.02)
    assert not run.records[1]["ok"] and "no layer" in run.records[1]["reason"]


def test_counts_that_differ_from_an_earlier_run_fail(tmp_path):
    def run_with(iterations):
        run = harness.Run("desk", 1, 1.0, 0, [], tmp_path)
        run.records = [
            _record(0, "mixed", traced=False,
                    counts={"iterations": [iterations]}),
            _record(1, "double", traced=False, counts={"iterations": [16]})]
        run._check_across_runs(harness.Report("desk", 1))
        return [r["ok"] for r in run.records]

    assert run_with(20) == [True, True]
    assert run_with(20) == [True, True]
    assert run_with(21) == [False, True]


def test_high_percentile_keeps_ten_samples_above_it():
    assert harness.high_percentile(list(range(10))) is None
    q, v = harness.high_percentile(list(range(1, 29)))
    assert q == 64 and v == 18
    assert harness.high_percentile(list(range(1, 1001))) == (99, 990)
