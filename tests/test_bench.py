"""Tests for benchmark orchestration, the report contract, and the CLI."""

import hashlib
import json

import numpy as np
import pytest

import mxpbench.bench as bench
from mxpbench import kernels
from mxpbench.bench import (
    BenchConfig,
    ConfigError,
    ValidationError,
    main,
    run_benchmark,
    run_validation,
)
from mxpbench.comm import ProtocolError, RankWorld
from mxpbench.krylov import gmres_solve
from mxpbench.metrics import MOTIFS, Tally

from _oracles import (assert_replicated, dense_stencil_3d, replication_digests,
                      strip_timing)


def _tiny_cfg(**overrides):
    base = dict(local_nx=8, local_ny=8, local_nz=8, ranks=1,
                time_seconds=0.0)
    base.update(overrides)
    return BenchConfig(**base)


# -- configuration validation -------------------------------------------------


def test_default_config_is_valid():
    BenchConfig().validate()


def _override_id(overrides):
    """``nu1=0`` for {"nu1": 0}: a case is named by its override, not its
    place, so adding or removing a case renames no other."""
    return ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in overrides.items())


@pytest.mark.parametrize("overrides", [
    {"local_nx": 12},            # not divisible by 2**(mg_levels-1) = 8
    {"local_ny": 20},
    {"local_nz": 4},
    {"local_nx": 0},
    {"local_nx": -8},
    {"ranks": 0},
    {"ranks": bench.MAX_RANKS + 1},   # its mailboxes alone would take 0.4 GB
    {"restart": 0},
    {"tol": 0.0},
    {"tol": -1e-9},
    {"max_iters": 0},
    {"nd_cap": 0},
    {"time_seconds": -1.0},
    {"validation_mode": "turbo"},
    {"coloring": "rainbow"},
    {"seed": -1},                # np.random.default_rng refuses it
    {"nu1": 0},
    {"nu2": 0},
    {"nu_c": 0},
    {"mg_levels": 0},
    {"mg_levels": -2000},        # checked before 2**(mg_levels-1) is formed
    {"tol": 1.0},
    {"tol": 2.0},
    {"tol": float("inf")},
    {"tol": float("nan")},
    {"time_seconds": float("inf")},
    {"time_seconds": float("nan")},
], ids=_override_id)
def test_invalid_configs_rejected(overrides):
    cfg = BenchConfig(**overrides)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_shallow_hierarchy_relaxes_divisibility():
    BenchConfig(local_nx=12, local_ny=12, local_nz=12, mg_levels=3).validate()


# -- validation phase ----------------------------------------------------------


def test_standard_validation_iteration_counts():
    v = run_validation(_tiny_cfg(local_nx=4, local_ny=4, local_nz=4,
                                 mg_levels=3))
    assert v["mode"] == "standard"
    assert v["n_d"] == 6
    assert v["n_ir"] == 6
    assert v["ratio"] == pytest.approx(1.0, rel=1e-15)
    assert v["residual"] == pytest.approx(8.99325262264748e-12, rel=1e-12)


def test_fullscale_validation_iteration_counts():
    v = run_validation(_tiny_cfg(validation_mode="fullscale"))
    assert v["mode"] == "fullscale"
    assert v["n_d"] == 10
    assert v["n_ir"] == 10
    assert v["ratio"] == 1.0
    assert v["residual"] == pytest.approx(3.338933745599345e-11, rel=1e-12)


# (ranks, local edge, levels): the first 16 hex digits of sha256(x.tobytes())
# and the iteration count, for the mixed then the double solve of the
# default config from a zero guess.  Multi-rank x is each rank's x, in its
# stored (colored) order, concatenated in rank order.  The bits hold for a
# fixed BLAS thread count: numpy's matrix-vector products may sum in another
# order on another count, and with one OpenBLAS thread both 32^3 hashes differ.
_FROZEN_SOLUTIONS = {
    (2, 16, 4): (("47271462c5078ecc", 24), ("cf54deaa59faf6db", 23)),
    (8, 8, 3): (("f9ae525651f1bfcc", 18), ("cfe53bb6f7ed29d6", 18)),
    (1, 16, 4): (("8a751c0228226dd4", 16), ("b4a158d247c7f07c", 16)),
    (1, 32, 4): (("447d36cb36f320ed", 30), ("a32c6449d122719f", 29)),
}


def _frozen_worker(world, rank, cfg):
    hier, b = bench._build_state(cfg, cfg.ranks, world, rank)
    lv = hier.levels[0]
    out = []
    for mode in ("mixed", "double"):
        x = np.zeros(len(b))
        res = gmres_solve(lv.A_hi, lv.A_lo, lambda r: hier.apply(r, Tally()),
                          b, x0=x, mode=mode, tol=cfg.tol,
                          max_iters=cfg.max_iters, m=cfg.restart, plan=lv.plan,
                          world=world, rank=rank, tally=Tally())
        out.append((x, res.iterations))
    return out


@pytest.mark.parametrize("ranks,local,levels", list(_FROZEN_SOLUTIONS))
def test_solutions_are_bitwise_the_frozen_ones(ranks, local, levels):
    cfg = BenchConfig(local_nx=local, local_ny=local, local_nz=local,
                      ranks=ranks, mg_levels=levels)
    with replication_digests() as digests:
        parts = (RankWorld(ranks).run(_frozen_worker, cfg) if ranks > 1
                 else [_frozen_worker(None, 0, cfg)])
    assert_replicated(digests, ranks)   # at every step of both solves
    got = tuple(
        (hashlib.sha256(np.concatenate([p[k][0] for p in parts]).tobytes())
         .hexdigest()[:16], parts[0][k][1])
        for k in range(2))
    assert got == _FROZEN_SOLUTIONS[ranks, local, levels]


def test_validation_reports_raw_unclamped_ratio():
    v = run_validation(_tiny_cfg())
    assert v["ratio"] == v["n_d"] / v["n_ir"]


def test_validation_fails_when_reference_cannot_converge():
    with pytest.raises(ValidationError):
        run_validation(_tiny_cfg(nd_cap=2))


def test_validation_solves_charge_their_tally(monkeypatch):
    tallies = []
    real = bench._solve

    def capturing(*args):
        tallies.append(args[-1])
        return real(*args)

    monkeypatch.setattr(bench, "_solve", capturing)
    run_validation(_tiny_cfg())
    assert len(tallies) == 2            # the double and the mixed solve
    for tally in tallies:
        assert tally.flops["GS"] > 0


# -- full benchmark and report contract ----------------------------------------


MOTIF_BLOCK_KEYS = {"seconds", "flops", "gflops", "bytes", "gbytes_per_s"}
SUMMARY_KEYS = {"raw_gflops", "penalty", "penalized_gflops", "speedup",
                "motif_speedup", "reps", "iterations"}


def test_report_structure():
    report = run_benchmark(_tiny_cfg())
    assert set(report) == {"config", "machine", "validation", "mxp", "double",
                           "summary"}
    assert report["machine"] == {"kernel_cflags": list(kernels.CFLAGS),
                                 "cpu_model": kernels.CPU.model,
                                 "cpu_flags": kernels.CPU.flags,
                                 "cpu_family": kernels.CPU.family,
                                 "cpu_model_number": kernels.CPU.model_number}
    assert set(report["validation"]) == {"mode", "n_d", "n_ir", "ratio",
                                         "residual", "restarts",
                                         "boundary_pairs"}
    for phase in ("mxp", "double"):
        assert set(report[phase]) == set(MOTIFS)
        for motif in MOTIFS:
            assert set(report[phase][motif]) == MOTIF_BLOCK_KEYS
    assert set(report["summary"]) == SUMMARY_KEYS
    assert set(report["summary"]["motif_speedup"]) == set(MOTIFS)
    assert report["config"]["local_nx"] == 8


def test_zero_time_budget_runs_one_repetition():
    report = run_benchmark(_tiny_cfg())
    assert report["summary"]["reps"] == 1
    iters = report["summary"]["iterations"]
    assert len(iters["mxp"]) == len(iters["double"]) == 1
    assert iters["mxp"][0] > 0 and iters["double"][0] > 0


def test_summary_is_internally_consistent():
    report = run_benchmark(_tiny_cfg())
    s = report["summary"]
    v = report["validation"]
    assert s["penalty"] == pytest.approx(min(1.0, v["n_d"] / v["n_ir"]),
                                         rel=1e-15)
    assert s["penalized_gflops"] == pytest.approx(
        s["raw_gflops"] * s["penalty"], rel=1e-12)
    assert s["raw_gflops"] > 0.0
    assert s["speedup"] > 0.0


def test_counted_work_is_deterministic_across_runs():
    cfg = _tiny_cfg()
    first = strip_timing(run_benchmark(cfg))
    second = strip_timing(run_benchmark(cfg))
    assert first == second


def test_mxp_phase_counts_low_precision_bytes():
    report = run_benchmark(_tiny_cfg())
    # The mixed phase moves its inner-solver values at 4 bytes instead of 8,
    # so it moves fewer modelled bytes per counted flop than the double phase.
    def bytes_per_flop(phase):
        block = report[phase]
        return (sum(block[m]["bytes"] for m in MOTIFS)
                / sum(block[m]["flops"] for m in MOTIFS))

    assert 0 < bytes_per_flop("mxp") < bytes_per_flop("double")


def test_phase_block_sums_bytes_over_ranks():
    def part(nbytes, seconds):
        return {"mxp": {"flops": {m: 10 for m in MOTIFS},
                        "bytes": {m: nbytes for m in MOTIFS},
                        "seconds": {m: seconds for m in MOTIFS}}}

    block = bench._phase_block([part(3_000, 2e-6), part(5_000, 9.0)], "mxp")
    for motif in MOTIFS:
        # Bytes add up like flops; the rate uses rank 0's seconds.
        assert block[motif]["bytes"] == 8_000
        assert block[motif]["gbytes_per_s"] == pytest.approx(4.0, rel=1e-12)
    idle = bench._phase_block([part(0, 0.0)], "mxp")
    assert idle["GS"]["gbytes_per_s"] == 0.0


def test_validation_reports_mixed_restart_pairs():
    v = run_validation(_tiny_cfg())
    assert v["restarts"] >= 1
    assert len(v["boundary_pairs"]) == v["restarts"]
    for rec_norm, true_norm in v["boundary_pairs"]:
        assert rec_norm > 0.0 and true_norm > 0.0


@pytest.mark.parametrize("overrides, builds", [
    ({}, 1),                                     # 1-rank standard
    ({"validation_mode": "fullscale"}, 1),
    ({"ranks": 2, "validation_mode": "fullscale"}, 2),
    ({"ranks": 2}, 3),          # 1-rank validation, then 2 timed ranks
])
def test_hierarchy_built_once_when_phases_share_a_problem(monkeypatch,
                                                          overrides, builds):
    calls = []
    real = bench.build_hierarchy

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "build_hierarchy", counting)
    run_benchmark(_tiny_cfg(**overrides))
    assert len(calls) == builds


# -- command-line interface ----------------------------------------------------


def _cli(*extra):
    return ["--local-nx", "8", "--local-ny", "8", "--local-nz", "8",
            "--time-seconds", "0", *extra]


def test_cli_success_and_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(_cli("--report-path", str(path)))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["summary"]["reps"] == 1
    out = capsys.readouterr().out
    assert "penalized" in out
    assert str(path) in out


def test_cli_prints_report_without_path(capsys):
    assert main(_cli()) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"config", "machine", "validation", "mxp", "double",
                           "summary"}


def test_cli_rejects_bad_geometry(capsys):
    code = main(["--local-nx", "12", "--local-ny", "8", "--local-nz", "8"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_tol_outside_unit_interval(capsys):
    assert main(_cli("--tol", "2")) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_negative_seed(capsys):
    assert main(_cli("--coloring", "jpl", "--seed", "-1")) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dump-matrix", "--report-path"])
def test_cli_unwritable_output_is_a_configuration_error(tmp_path, capsys,
                                                        flag):
    path = tmp_path / "missing" / "out.txt"
    assert main(_cli(flag, str(path))) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"configuration error: cannot write {path}: ")
    assert "\n" not in err and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("where", ["missing/r.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_cli_checks_report_path_before_the_run(tmp_path, monkeypatch, capsys,
                                               where):
    def unreachable(cfg):
        raise AssertionError("the run started with an unwritable report path")

    monkeypatch.setattr(bench, "run_benchmark", unreachable)
    path = tmp_path / where
    assert main(_cli("--report-path", str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_validation_failure_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise ValidationError("reference solve stalled")

    monkeypatch.setattr(bench, "run_benchmark", boom)
    assert main(_cli()) == 3
    assert "validation failed" in capsys.readouterr().err


def test_cli_protocol_failure_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise ProtocolError("replicated state diverged")

    monkeypatch.setattr(bench, "run_benchmark", boom)
    assert main(_cli()) == 4
    assert "protocol error" in capsys.readouterr().err


def test_cli_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["--frequency", "9000"])
    assert exc.value.code == 2


def test_cli_help_says_speedup_is_not_a_wall_time_ratio(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "summary.speedup" in text
    assert "not a ratio of solve wall times" in text


def test_cli_dump_matrix(tmp_path):
    # With 2 ranks the file holds the whole 8x8x16 operator, not rank 0's rows.
    for ranks, n, nnz in (("1", "512", 10648), ("2", "1024", 22264)):
        path = tmp_path / f"stencil{ranks}.mtx"
        code = main(_cli("--ranks", ranks, "--dump-matrix", str(path)))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("%%MatrixMarket")
        assert lines[1].split() == [n, n, str(nnz)]
        assert len(lines) == 2 + nnz
    # The single-rank 8^3 file reads back as the dense stencil, exactly.
    rows, cols, vals = np.loadtxt(tmp_path / "stencil1.mtx", skiprows=2,
                                  unpack=True)
    D = np.zeros((512, 512))
    D[rows.astype(int) - 1, cols.astype(int) - 1] = vals
    assert np.array_equal(D, dense_stencil_3d(8, 8, 8))
