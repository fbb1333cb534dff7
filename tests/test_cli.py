import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tunnelsplit import cli, clocks, cranknicolson
from tunnelsplit.cli import main
from tunnelsplit.cranknicolson import SOLVES_PER_STEP
from tunnelsplit.errors import SolveSingular
from tunnelsplit.runconfig import parse_config
from tunnelsplit.tolerances import CN_WALL_MASS, ORACLE_L2

CANONICAL = json.loads((Path(__file__).resolve().parents[1] / "configs"
                        / "canonical.json").read_text())

# compact setup so CLI round trips stay fast: moderate barrier, wide packet
FAST = {
    "potential": {"a": -2.0, "segments": [[1.0, 1.0]]},
    "energy": {"E": 0.6},
    "packet": {"k0": 1.5, "sigma_k": 0.25, "x0": -12.5},
    "times": {"start": 0.0, "stop": 12.0, "num": 7},
    "snapshot_times": [0.0, 12.0],
    "n_k": 129,
    "k_span_sigmas": 5.75,
    "x_grid": {"x_min": -30.0, "x_max": 26.0, "dx": 0.05},
    "oracle": {
        "dx": 0.01,
        "dt": 0.04,
        "margin_left": 25.0,
        "margin_right": 42.0,
        "checkpoints": [0.0, 6.0, 12.0],
    },
    "sweep": {"v0": 1.0, "energy_ratio": 0.5, "kappa_l_min": 2.0, "kappa_l_max": 4.0, "num": 3},
    "evolve_x_stride": 8,
}


def write_config(tmp_path, **overrides):
    cfg = dict(FAST)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(subcommand, config, out):
    return main([subcommand, config, "--out", str(out)])


class TestExitCodes:
    def test_schema_error_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"potential": {"a": 0.0, "segments": [[1, 0.5], [1, 2.0]]}}))
        code = main(["stationary", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads((tmp_path / "out" / "error.json").read_text())
        assert record["exit_code"] == 2

    def test_missing_config_is_2(self, tmp_path):
        assert main(["stationary", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_missing_section_is_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"potential": FAST["potential"]}))
        assert main(["diagnostics", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_success_is_0(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("stationary", cfg, tmp_path / "out") == 0

    def test_numerical_failure_is_3(self, tmp_path):
        # a grid far too coarse for the interference pattern trips the
        # quadrature-error guard mid-run
        cfg = write_config(
            tmp_path,
            x_grid={"x_min": -30.0, "x_max": 26.0, "dx": 1.6},
            times={"start": 8.0, "stop": 12.0, "num": 3},
        )
        out = tmp_path / "out"
        assert run_cli("diagnostics", cfg, out) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "GridTooCoarse"

    def test_unknown_option_is_2(self, tmp_path):
        # the worker count is the `workers` key; there is no flag for it
        out = tmp_path / "out"
        assert main(["stationary", write_config(tmp_path), "--out", str(out),
                     "--workers", "2"]) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("SchemaError", 2)
        assert "--workers" in record["message"]
        assert not (out / "stationary.csv").exists()

    def test_argument_errors_are_2_with_an_error_record(self, tmp_path, monkeypatch):
        """An unknown subcommand, a missing config path and an --out without
        its value each exit 2 and leave error.json: in --out when it was
        parsed, else in the default directory `out`."""
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        for argv, out, word in ((["bogus", config, "--out", "o1"], "o1", "bogus"),
                                (["stationary", "--out", "o2"], "o2", "config"),
                                (["stationary", config, "--out"], "out", "--out")):
            assert main(argv) == 2
            record = json.loads((tmp_path / out / "error.json").read_text())
            assert (record["error"], record["exit_code"]) == ("SchemaError", 2)
            assert word in record["message"]
            assert not list((tmp_path / out).glob("*.csv"))

    @pytest.mark.parametrize("x_grid", [
        {"x_min": -150.0, "x_max": 134.0, "dx": 0},
        {"x_min": -150.0, "x_max": 134.0, "dx": "a"},
        {"x_min": -150.0, "x_max": 134.0, "dx": -0.1},
        {"x_min": 134.0, "x_max": -150.0, "dx": 0.1},
        # about 2.8e9 points: exp(ikx) alone would take 23 TB
        {"x_min": -150.0, "x_max": 134.0, "dx": 1e-7},
    ])
    def test_bad_x_grid_is_2_before_any_allocation(self, tmp_path, x_grid):
        canonical = json.loads((Path(__file__).resolve().parents[1] / "configs"
                                / "canonical.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(canonical, x_grid=x_grid)))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run_cli("diagnostics", str(path), out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"
        assert peak < 10_000_000

    @pytest.mark.parametrize("subcommand, override", [
        ("diagnostics", {"times": {"start": 0.0, "stop": 80.0, "num": 10**12}}),
        ("decompose", {"decompose_grid": {"pad": 5.0, "n": 10**12}}),
        ("stationary", {"energy": {"grid": {"min": 0.1, "max": 1.0, "n": 10**12}}}),
        ("hartman-sweep", {"sweep": {"v0": 1.0, "energy_ratio": 0.5, "kappa_l_min": 1.0,
                                     "kappa_l_max": 14.0, "num": 10**12}}),
    ])
    def test_oversized_count_is_2_before_any_allocation(self, tmp_path, subcommand, override):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CANONICAL, **override)))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run_cli(subcommand, str(path), out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"
        assert peak < 10_000_000

    @staticmethod
    def rejected_before_any_work(tmp_path, monkeypatch, subcommand, override):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was rejected")

        for module, name in ((cli, "synthesize"), (cli, "build_decomposition"),
                             (cli, "build_mode_table"), (clocks, "decompose_block")):
            monkeypatch.setattr(module, name, no_work)
        out = tmp_path / "out"
        assert run_cli(subcommand, write_config(tmp_path, **override), out) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "SchemaError"
        return record["message"]

    @pytest.mark.parametrize("subcommand, override", [
        ("oracle-check", {"oracle": dict(FAST["oracle"], checkpoints=[0.0, 6.005])}),
        ("oracle-check", {"oracle": dict(FAST["oracle"], checkpoints=["a"])}),
        ("oracle-check", {"oracle": dict(FAST["oracle"], checkpoints=[-1.0])}),
        ("clock", {"clock": {"omega_factors": [5e-2, 1e-3, 1e-4]}}),
        ("hartman-sweep", {"clock": {"omega_factors": [1e-2, 1e-3, 1e-4]}}),
        # 1e11 Crank-Nicolson steps: a parsed config must not hold a CPU for years
        ("oracle-check", {"oracle": dict(FAST["oracle"], checkpoints=[0.0, 1e9])}),
        # every checkpoint rounds to step 0: the oracle would compare nothing
        ("oracle-check", {"oracle": dict(FAST["oracle"], dt=1e300)}),
        # 1e6 steps on 7852 points is 7.9e9 point-steps, inside the budget as
        # points times steps, but each step makes two solves: 1.6e10
        ("oracle-check", {"oracle": dict(FAST["oracle"], checkpoints=[0.0, 40000.0])}),
    ])
    def test_bad_oracle_or_clock_setting_is_2_before_any_work(self, tmp_path, monkeypatch,
                                                              subcommand, override):
        message = self.rejected_before_any_work(tmp_path, monkeypatch, subcommand, override)
        if "clock" in override:
            # the Larmor frequencies are no longer a key: a config that sets
            # them, even to the old default, is rejected as unknown
            assert message == "clock: unknown key"

    def test_misaligned_oracle_dx_is_2_for_the_oracle_only(self, tmp_path, monkeypatch):
        # dx 0.011 puts b = a + 1 at 90.9 cells from a, off the half-cell
        # grid; 1/91 is the nearest dx that aligns it
        override = {"oracle": dict(FAST["oracle"], dx=0.011)}
        message = self.rejected_before_any_work(tmp_path, monkeypatch, "oracle-check", override)
        assert message.startswith("oracle.dx:") and "0.010989010989" in message, message
        # no other subcommand uses the oracle grid, so none rejects it
        monkeypatch.undo()
        assert run_cli("diagnostics", write_config(tmp_path, **override),
                       tmp_path / "diagnostics") == 0

    @pytest.mark.parametrize("subcommand, override", [
        ("hartman-sweep", {"sweep": dict(FAST["sweep"], v0=0)}),
        ("hartman-sweep", {"sweep": dict(FAST["sweep"], v0=-1)}),
        ("hartman-sweep", {"sweep": dict(FAST["sweep"], kappa_l_min=0)}),
        ("decompose", {"decompose_grid": {"pad": [1]}}),
        ("decompose", {"decompose_grid": {"pad": math.inf}}),
        ("evolve", {"snapshot_times": 5}),
        ("diagnostics", {"x_grid": dict(FAST["x_grid"], x_max=math.inf)}),
        ("diagnostics", {"times": []}),
        ("diagnostics", {"times": dict(FAST["times"], num=0)}),
        # fd_dt is no longer a key: its old default is rejected as unknown
        ("diagnostics", {"fd_dt": 0.01}),
        ("diagnostics", {"n_k": 64}),
        ("evolve", {"evolve_x_stride": 0}),
        ("hartman-sweep", {"sweep": dict(FAST["sweep"], num=0)}),
        ("hartman-sweep", {"sweep": dict(FAST["sweep"], num=1)}),
        ("evolve", {"snapshot_times": []}),
        # no points: the footer would report an identity residual over nothing
        ("decompose", {"decompose_grid": {"n": 0}}),
        # the dwell sums' node count and the Larmor extrapolation degree are
        # no longer keys: their old defaults are rejected as unknown
        ("clock", {"clock": {"n_quad": 2049}}),
        ("clock", {"clock": {"extrapolation_order": 2}}),
        # canonical's 513 modes on its 9729 default grid points at 10**5 times
        # are 5.0e11 mode-point-times of diagnostics, over the work budget
        ("diagnostics", dict(CANONICAL, x_grid=None, times=dict(CANONICAL["times"], num=10**5))),
    ])
    def test_bad_setting_is_2_before_any_work(self, tmp_path, monkeypatch, subcommand, override):
        self.rejected_before_any_work(tmp_path, monkeypatch, subcommand, override)

    def test_span_that_drops_more_than_the_spectrum_norm_is_2(self, tmp_path, monkeypatch):
        # erfc(5.73 / sqrt 2) = 1.004e-8 of |f|^2 lies outside the span
        override = {"k_span_sigmas": 5.73}
        message = self.rejected_before_any_work(tmp_path, monkeypatch, "diagnostics", override)
        assert message.startswith("k_span_sigmas:"), message
        assert parse_config(write_config(tmp_path, k_span_sigmas=5.75)).k_span_sigmas == 5.75

    @pytest.mark.parametrize("E", [0.3, 0.6])
    def test_decompose_grid_inside_the_barrier_is_0(self, tmp_path, E):
        # pad -0.5 puts every point at x_c of the width-1 barrier, where |ref|
        # is roundoff; the parity checks are not scaled by the grid
        cfg = write_config(tmp_path, energy={"E": E}, decompose_grid={"pad": -0.5})
        assert run_cli("decompose", cfg, tmp_path / "out") == 0

    def test_grid_without_continuity_points_is_3(self, tmp_path):
        # dx 28 leaves three points, all of them in the edge cells that the
        # continuity residual skips
        cfg = write_config(tmp_path, x_grid=dict(FAST["x_grid"], dx=28.0))
        out = tmp_path / "out"
        assert run_cli("diagnostics", cfg, out) == 3
        assert json.loads((out / "error.json").read_text())["error"] == "GridTooCoarse"

    @pytest.mark.parametrize("x_min, x_max", [(-120.0, -20.0), (-7.0, 120.0)])
    def test_grid_on_one_side_of_the_cut_is_3(self, tmp_path, x_min, x_max):
        # canonical x_c is -8: every point lies left of it, or right of it
        canonical = json.loads((Path(__file__).resolve().parents[1] / "configs"
                                / "canonical.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(canonical, x_grid={"x_min": x_min, "x_max": x_max,
                                                           "dx": 0.05})))
        out = tmp_path / "out"
        assert run_cli("diagnostics", str(path), out) == 3
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("GridTooCoarse", 3)

    def test_non_finite_larmor_reading_is_3(self, tmp_path, monkeypatch):
        # no valid input is known to give a non-finite Larmor time, so the
        # overlap is made NaN: the reading raises and no clock.csv is written
        monkeypatch.setattr(clocks, "_overlap", lambda f, g: np.full(f.problems.n, np.nan + 0j))
        out = tmp_path / "out"
        assert run_cli("clock", write_config(tmp_path), out) == 3
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("ClockNotFinite", 3)
        assert not (out / "clock.csv").exists()

    @pytest.mark.parametrize("potential, E, tau_tr, tol", [
        # one spin's A_R passes through zero at omega = 1e-2 E, so a
        # zero-field extrapolation from that frequency down fails here
        ({"a": -3.0, "segments": [[1.0, 0.8], [1.0, 0.2], [1.0, 0.8]]}, 1.2859375 ** 2 / 2,
         4.828586712866, 1e-9),
        # transparent, with no reflection channel: L / k, where omega^2
        # overflows
        (FAST["potential"], 1e300, 1.0 / math.sqrt(2e300), 1e-162),
    ], ids=["vanishing-spin-amplitude", "huge-energy"])
    def test_exact_larmor_time_is_0(self, tmp_path, potential, E, tau_tr, tol):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"potential": potential, "energy": {"E": E}}))
        out = tmp_path / "out"
        assert run_cli("clock", str(path), out) == 0
        lines = (out / "clock.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["tau_larmor_tr"] == pytest.approx(tau_tr, rel=0, abs=tol)
        assert math.isfinite(row["residual"])
        assert math.isnan(row["tau_larmor_ref"]) == (E == 1e300)

    def test_unexpected_exception_is_4(self, tmp_path, monkeypatch):
        def broken(cfg, out):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(cli.COMMANDS, "stationary", broken)
        out = tmp_path / "out"
        assert run_cli("stationary", write_config(tmp_path), out) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 4
        assert record["error"] == "RuntimeError"

    @pytest.mark.parametrize("subcommand, config, path", [
        ("stationary", {k: v for k, v in FAST.items() if k != "potential"}, "potential"),
        ("stationary", dict(FAST, energy={"grid": {"min": 1.0, "max": 0.5, "n": 3}}),
         "energy.grid"),
        ("stationary", {k: v for k, v in FAST.items() if k != "energy"}, "energy"),
        # both read one energy: a grid of them is rejected
        ("decompose", dict(FAST, energy={"grid": {"min": 0.2, "max": 0.8, "n": 3}}), "energy.E"),
        ("clock", dict(FAST, energy={"grid": {"min": 0.2, "max": 0.8, "n": 3}}), "energy.E"),
    ])
    def test_missing_or_unusable_energy_or_potential_is_2(self, tmp_path, subcommand, config,
                                                          path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli(subcommand, str(cfg), out) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("SchemaError", 2)
        assert record["message"].startswith(f"{path}: "), record["message"]

    def test_missing_lapack_module_is_4(self, tmp_path, monkeypatch):
        # the propagator's LAPACK module is part of the installation, not the config
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setattr(cranknicolson, "_tridiagonal_lapack",
                            functools.partial(cranknicolson._tridiagonal_lapack, str(empty)))
        out = tmp_path / "out"
        assert run_cli("oracle-check", write_config(tmp_path), out) == 4
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("ImportError", 4)
        assert str(empty) in record["message"]

    def test_internal_error_class_is_4_without_a_traceback(self, tmp_path, monkeypatch, capsys):
        # SolveSingular is a TunnelSplitError, which would exit 3, but it
        # is listed in INTERNAL_ERRORS as a fault of the code
        def singular(problems):
            raise SolveSingular("inconsistent solve")

        monkeypatch.setattr(cli, "solve_block", singular)
        out = tmp_path / "out"
        assert run_cli("stationary", write_config(tmp_path), out) == 4
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("SolveSingular", 4)
        err = capsys.readouterr().err
        assert "internal fault: SolveSingular" in err and "Traceback" not in err


class TestOutputs:
    def test_stationary_schema(self, tmp_path):
        cfg = write_config(
            tmp_path, energy={"grid": {"min": 0.1, "max": 5.0, "n": 7, "scale": "log"}}
        )
        out = tmp_path / "out"
        assert run_cli("stationary", cfg, out) == 0
        lines = (out / "stationary.csv").read_text().splitlines()
        assert lines[0] == "E,k,T,R,re_A_T,im_A_T,re_A_R,im_A_R,unitarity_residual"
        assert len(lines) == 8
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["n_k"] == 129
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["subcommand"] == "stationary"
        assert meta["max_unitarity_residual"] < 1e-10
        assert "UNITARITY" in meta["tolerances"]

    def test_decompose_has_invariant_footer(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("decompose", cfg, out) == 0
        text = (out / "decompose.csv").read_text()
        assert "# identity_residual" in text
        header = text.splitlines()[0].split(",")
        assert header == [
            "x",
            "re_full", "im_full",
            "re_tr_solution", "im_tr_solution",
            "re_ref_solution", "im_ref_solution",
            "re_tr", "im_tr", "re_ref", "im_ref",
        ]

    def test_evolve_and_diagnostics_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out_e = tmp_path / "evolve"
        assert run_cli("evolve", cfg, out_e) == 0
        header = (out_e / "evolve.csv").read_text().splitlines()[0]
        assert header == "t,x,re_full,im_full,re_tr,im_tr,re_ref,im_ref"

        out_d = tmp_path / "diag"
        assert run_cli("diagnostics", cfg, out_d) == 0
        header = (out_d / "diagnostics.csv").read_text().splitlines()[0].split(",")
        assert header == [
            "t", "T", "R", "Re_overlap", "Im_overlap",
            "xbar_full", "pbar_full", "varx_full",
            "xbar_tr", "xbar_ref", "continuity_residual",
            "pbar_tr", "pbar_ref", "varx_tr", "varx_ref",
            "ref_cut_flux", "identity_residual",
        ]

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_evolve_builds_its_table_on_the_written_points(self, tmp_path, monkeypatch, stride):
        """evolve's table holds only every stride-th grid point, and its
        fields there are the whole-grid table's. On this grid stride 8
        writes none of a, x_c and b."""
        build, built = cli.build_mode_table, []

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_mode_table", recording_build)
        path = write_config(tmp_path, evolve_x_stride=stride,
                            x_grid={"x_min": -29.95, "x_max": 26.0, "dx": 0.05})
        assert run_cli("evolve", path, tmp_path / "out") == 0
        cfg = parse_config(path)
        whole = build(cfg.potential, cfg.packet, cfg.x_grid, n_k=cfg.n_k,
                      span_sigmas=cfg.k_span_sigmas)
        (table,) = built
        assert table.x.size == math.ceil(whole.x.size / stride)
        spec = cfg.potential
        gaps = np.abs(np.subtract.outer(table.x, [spec.a, spec.x_c, spec.b])).min(axis=0)
        if stride == 1:
            assert np.all(gaps < 1e-9)
        if stride == 8:
            assert np.all(gaps > 1e-3)

        rows = np.loadtxt(tmp_path / "out" / "evolve.csv", delimiter=",", skiprows=1)
        rows = rows.reshape(len(cfg.snapshot_times), table.x.size, 8)
        np.testing.assert_array_equal(rows[:, :, 1], np.broadcast_to(
            whole.x[::stride], rows.shape[:2]))
        got = rows[:, :, 2::2] + 1j * rows[:, :, 3::2]
        want = whole.states(cfg.snapshot_times)[:, :, ::stride]
        np.testing.assert_allclose(got, want.transpose(1, 2, 0), rtol=0, atol=1e-13)

    def test_oracle_check_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("oracle-check", cfg, out) == 0
        lines = (out / "oracle_check.csv").read_text().splitlines()
        assert lines[0] == "t_max,l2,linf,pass,norm_drift"
        t_max, l2, linf, passed, drift = lines[1].split(",")
        assert float(t_max) == 12.0
        assert passed == "1"
        assert float(drift) < 1e-10
        # the CN run's step count and peak wall mass go to the metadata, not the CSV
        meta = json.loads((out / "run_metadata.json").read_text())
        oracle = FAST["oracle"]
        assert meta["cn_steps"] == round(max(oracle["checkpoints"]) / oracle["dt"])
        # the work that CN_WORK_BUDGET bounds, on the grid the run used
        grid = parse_config(cfg).oracle_grid
        assert meta["cn_point_solves"] == grid.n_x * meta["cn_steps"] * SOLVES_PER_STEP
        assert (meta["dx"], meta["dt"]) == (grid.dx, oracle["dt"])
        assert meta["dx"] == pytest.approx(oracle["dx"], rel=1e-12)
        assert sorted(map(float, meta["per_checkpoint"])) == oracle["checkpoints"]
        assert 0.0 <= meta["wall_mass"] < CN_WALL_MASS

    def test_oracle_check_pass_needs_the_norm_drift_bound(self, tmp_path, monkeypatch):
        # pass is criterion 5's two bounds: the l2 distance and the norm drift
        monkeypatch.setattr(cli, "CN_NORM_DRIFT", 0.0)
        out = tmp_path / "out"
        assert run_cli("oracle-check", write_config(tmp_path), out) == 0
        _, l2, _, passed, _ = (out / "oracle_check.csv").read_text().splitlines()[1].split(",")
        assert float(l2) < ORACLE_L2
        assert passed == "0"
        assert json.loads((out / "run_metadata.json").read_text())["pass"] is False

    def test_clock_and_sweep_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out_c = tmp_path / "clock"
        assert run_cli("clock", cfg, out_c) == 0
        header = (out_c / "clock.csv").read_text().splitlines()[0]
        assert header == "E,L,tau_dwell_tr,tau_dwell_ref,tau_larmor_tr,tau_larmor_ref,omega_min,residual"

        out_h = tmp_path / "sweep"
        assert run_cli("hartman-sweep", cfg, out_h) == 0
        text = (out_h / "hartman_sweep.csv").read_text()
        assert text.splitlines()[0] == header
        assert len(text.splitlines()) == 3 + 2  # header + rows + footer
        assert "# dwell_tr_strictly_increasing = 1" in text


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub, name in [
            ("stationary", "stationary.csv"),
            ("decompose", "decompose.csv"),
            ("diagnostics", "diagnostics.csv"),
        ]:
            a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
            assert run_cli(sub, cfg, a) == 0
            assert run_cli(sub, cfg, b) == 0
            assert (a / name).read_bytes() == (b / name).read_bytes(), sub

    @pytest.mark.parametrize("subcommand, name", [
        ("evolve", "evolve.csv"),
        ("hartman-sweep", "hartman_sweep.csv"),
    ])
    def test_worker_count_does_not_change_values(self, tmp_path, subcommand, name):
        outs = []
        for workers in (1, 2):
            run_dir = tmp_path / f"w{workers}"
            run_dir.mkdir()
            outs.append(run_dir / "out")
            assert run_cli(subcommand, write_config(run_dir, workers=workers), outs[-1]) == 0
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_echo_allows_exact_replay(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "first"
        assert run_cli("stationary", cfg, out1) == 0
        echoed = out1 / "config_echo.json"
        out2 = tmp_path / "replay"
        assert run_cli("stationary", str(echoed), out2) == 0
        assert (out1 / "stationary.csv").read_bytes() == (out2 / "stationary.csv").read_bytes()


def test_csv_floats_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("stationary", cfg, out) == 0
    lines = (out / "stationary.csv").read_text().splitlines()
    values = [float(v) for v in lines[1].split(",")]
    assert repr(values[2]) in lines[1]


def test_write_csv_holds_no_whole_csv(tmp_path):
    """Each line is written as it is formed: 200k rows are written at a
    traced peak under 1 MB, where a list of their lines takes about 14 MB."""
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli.write_csv(path, ["x"], itertools.repeat((0.1,), 200_000), ["rows = 200000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("x", "0.1", "# rows = 200000")
    assert len(lines) == 200_002
    assert peak < 1_000_000


def test_write_columns_holds_no_whole_column(tmp_path):
    """Rows are formed CSV_ROWS at a time, so 200k rows of three columns
    are written at a traced peak under 1 MB (0.37 MB), where the columns
    made Python objects whole peak at 16 MB."""
    path = tmp_path / "columns.csv"
    n = 200_000
    columns = {"i": np.arange(n), "x": np.linspace(0.0, 1.0, n), "odd": np.arange(n) % 2 == 1}
    tracemalloc.start()
    try:
        cli._write_columns(path, columns, [f"rows = {n}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert lines[:3] == ["i,x,odd", "0,0.0,0", f"1,{1 / (n - 1)!r},1"]
    assert lines[-2:] == [f"{n - 1},1.0,1", f"# rows = {n}"]
    assert len(lines) == n + 2
    assert peak < 1_000_000


def test_csv_cells_golden():
    """Python floats take repr directly; numpy scalars, bools and ints
    give the same cells as before."""
    cells = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 0.1,
             np.float64("nan"), np.float64("-inf"), np.float64(-0.0), np.float64(1e16),
             True, False, np.bool_(True), 7, np.int64(-3), np.int32(12)]
    assert [cli._fmt(v) for v in cells] == [
        "nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "0.1",
        "nan", "-inf", "-0.0", "1e+16",
        "1", "0", "1", "7", "-3", "12"]


_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from tunnelsplit.cli import main
from tunnelsplit.cranknicolson import SOLVES_PER_STEP

tracer = spans.Tracer()
spans.install(tracer)
runs = (("diagnostics", sys.argv[2]), ("oracle-check", sys.argv[2]), ("evolve", sys.argv[3]))
codes = [main([sub, config, "--out", sys.argv[4] + "/" + sub]) for sub, config in runs]
print(json.dumps({"codes": codes, "summary": tracer.summary()}))
"""


def test_benchmark_spans_install_on_package(tmp_path):
    """perfbench/spans.py rebinds the package's layer entry points and reads
    their arguments by position; a traced run must still work and count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    (tmp_path / "w2").mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root / "perfbench"),
         write_config(tmp_path), write_config(tmp_path / "w2", workers=2), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    summary = result["summary"]
    assert summary["packets.diagnostics_series"]["count"] == FAST["times"]["num"]
    # the table builds (diagnostics, evolve, oracle synthesis) decompose
    # their modes as one block each, never one mode at a time
    assert "splitting.build_decomposition" not in summary
    # the table is built in this process whatever the worker count
    assert "parallel.map" not in summary
    assert summary["packets.synthesize"]["calls"] == 1
    assert summary["packets.synthesize"]["count"] > 0
    assert summary["cranknicolson.propagate"]["count"] > 0
    assert summary["cli.write_csv"]["count"] > 0


def test_cli_import_leaves_scipy_sparse_unloaded():
    """Importing the CLI loads neither scipy.linalg nor scipy.sparse: no
    code needs either (the Crank-Nicolson propagator loads LAPACK's
    compiled module when called; see the next test). Likewise only an open
    worker pool loads the process-pool modules."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tunnelsplit.cli; "
         "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg', "
         "'concurrent.futures.process', 'multiprocessing') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_oracle_check_leaves_scipy_linalg_unloaded(tmp_path):
    """oracle-check loads LAPACK's compiled module alone: scipy.linalg's
    import, and the numpy.f2py and numpy.testing it pulls in (0.3 s), stay
    out of the run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tunnelsplit import cli; "
         "from tunnelsplit.runconfig import parse_config; "
         "code = cli.run('oracle-check', parse_config(sys.argv[1]), sys.argv[2]); "
         "print(code, sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api', "
         "'numpy.f2py', 'numpy.testing') if m in sys.modules))",
         write_config(tmp_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "oracle_check.csv").exists()
