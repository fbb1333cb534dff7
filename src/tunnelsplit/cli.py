"""Command-line front end: config in, deterministic CSV out.

Every subcommand reads one JSON config, materializes defaults, echoes the
config next to its outputs and writes CSV files whose numeric cells use
the shortest round-trip decimal representation, so a repeated run is
byte-identical.

Exit codes: 0 success, 2 config/schema error, 3 numerical-contract
violation, 4 internal fault.
"""

import argparse
import itertools
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from . import __version__, tolerances
from .cranknicolson import (SOLVES_PER_STEP, compare_fields, crank_nicolson_propagate,
                            misaligned_edges)
from .clocks import sweep_barrier_width, compute_clock
from .errors import INTERNAL_ERRORS, SchemaError, TunnelSplitError
from .packets import build_mode_table, default_x_grid, diagnostics_series, synthesize
from .parallel import WorkerMap
from .runconfig import RunConfig, parse_config
from .splitting import build_decomposition, sub_waves
from .stationary import ProblemBlock, sample_states, solve_block
from .tolerances import CN_NORM_DRIFT, ORACLE_L2

def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)  # already "nan", "inf" and "-0.0"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows, footer_comments=()):
    """Write the header, each row and each footer comment as a line as
    it comes, so that no CSV is held in memory whole."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
        fh.writelines(f"# {comment}\n" for comment in footer_comments)


# rows that _write_columns forms at a time: only their cells are ever
# Python objects, never a whole column's
CSV_ROWS = 4096


def _write_columns(path: Path, columns: dict, footer_comments=()):
    """write_csv of an ordered {name: column} map: the header is its names,
    and its rows are formed CSV_ROWS at a time."""
    arrays = [np.asarray(column) for column in columns.values()]
    rows = (row for lo in range(0, len(arrays[0]), CSV_ROWS)
            for row in zip(*(a[lo:lo + CSV_ROWS].tolist() for a in arrays)))
    write_csv(path, list(columns), rows, footer_comments)


def _tolerance_echo() -> dict:
    return {
        name: getattr(tolerances, name)
        for name in dir(tolerances)
        if name.isupper()
    }


def _write_run_files(out: Path, cfg: RunConfig, subcommand: str, started: float,
                     extra: dict | None = None):
    out.mkdir(parents=True, exist_ok=True)
    echo = json.dumps(cfg.echo(), indent=2, sort_keys=True)
    (out / "config_echo.json").write_text(echo + "\n", encoding="utf-8")
    meta = {
        "subcommand": subcommand,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "workers": cfg.workers,
        "wall_time_s": time.monotonic() - started,
        "tolerances": _tolerance_echo(),
    }
    if extra:
        meta.update(extra)
    (out / "run_metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _energies(cfg: RunConfig) -> np.ndarray:
    if cfg.energy_grid is not None:
        return cfg.energy_grid
    if cfg.mode is not None:
        return np.array([cfg.mode.E])
    raise SchemaError("energy", "this subcommand needs an energy section")


def _need_packet(cfg: RunConfig):
    if cfg.packet is None:
        raise SchemaError("packet", "this subcommand needs a packet section")


def _mode_table(cfg: RunConfig, stride: int = 1):
    """The mode table on every `stride`-th point of the run's x grid."""
    _need_packet(cfg)
    x = (default_x_grid(cfg.potential, cfg.packet, cfg.k_span_sigmas)
         if cfg.x_grid is None else cfg.x_grid)
    return build_mode_table(cfg.potential, cfg.packet, x[::stride],
                            n_k=cfg.n_k, span_sigmas=cfg.k_span_sigmas)


def cmd_stationary(cfg: RunConfig, out: Path) -> dict:
    problems = ProblemBlock.of(cfg.potential, _energies(cfg))
    A_T, A_R = solve_block(problems)
    T, R = np.abs(A_T) ** 2, np.abs(A_R) ** 2
    residual = T + R - 1.0
    _write_columns(out / "stationary.csv", {
        "E": problems.E, "k": problems.k, "T": T, "R": R,
        "re_A_T": A_T.real, "im_A_T": A_T.imag, "re_A_R": A_R.real, "im_A_R": A_R.imag,
        "unitarity_residual": residual,
    })
    return {"max_unitarity_residual": float(np.max(np.abs(residual))), "rows": problems.n}


def cmd_decompose(cfg: RunConfig, out: Path) -> dict:
    if cfg.mode is None:
        raise SchemaError("energy.E", "decompose needs one energy")
    spec = cfg.potential
    half = spec.width / 2.0 + cfg.decompose_grid["pad"]
    x = spec.x_c + np.linspace(-half, half, cfg.decompose_grid["n"])
    dec = build_decomposition(spec, cfg.mode, x)
    full, tr_solution, ref_solution = sample_states(
        (dec.full_state, dec.tr_state, dec.ref_state), x)
    tr, ref = sub_waves(x <= spec.x_c, full, tr_solution, ref_solution)
    columns = {"x": x}
    for name, wave in zip(("full", "tr_solution", "ref_solution", "tr", "ref"),
                          (full, tr_solution, ref_solution, tr, ref)):
        columns[f"re_{name}"], columns[f"im_{name}"] = wave.real, wave.imag
    T, R = np.abs(np.concatenate((dec.A_T, dec.A_R))) ** 2
    odd, even = dec.midpoint_residuals[0]
    report = {
        "identity_residual": float(dec.identity_residual[0]),
        "parity_residual": float(dec.parity_residual[0]),
        "midpoint_odd": float(odd),
        "midpoint_even": float(even),
        "T": float(T),
        "R": float(R),
        "root_sign": int(dec.split.root_sign[0]),
    }
    _write_columns(out / "decompose.csv", columns,
                   footer_comments=[f"{key} = {_fmt(val)}" for key, val in report.items()])
    return {"invariants": report}


def cmd_evolve(cfg: RunConfig, out: Path) -> dict:
    table = _mode_table(cfg, cfg.evolve_x_stride)
    full, tr, ref = table.states(cfg.snapshot_times)
    worst_identity = float(np.max(np.abs(tr + ref - full), initial=0.0))
    xs = table.x.tolist()
    # rows are generated while the CSV is written, one snapshot's Python
    # floats at a time, never held as one list
    rows = (row for t, f, r_tr, r_ref in zip(cfg.snapshot_times, full, tr, ref)
            for row in zip(itertools.repeat(t), xs, *(
                part.tolist() for part in (f.real, f.imag, r_tr.real, r_tr.imag,
                                           r_ref.real, r_ref.imag))))
    write_csv(
        out / "evolve.csv",
        ["t", "x", "re_full", "im_full", "re_tr", "im_tr", "re_ref", "im_ref"],
        rows,
    )
    return {"max_identity_residual": worst_identity, "snapshots": len(cfg.snapshot_times)}


def cmd_diagnostics(cfg: RunConfig, out: Path) -> dict:
    table = _mode_table(cfg)
    series = diagnostics_series(table, cfg.times)
    _write_columns(out / "diagnostics.csv", {
        "t": series.t, "T": series.T, "R": series.R,
        "Re_overlap": series.overlap.real, "Im_overlap": series.overlap.imag,
        "xbar_full": series.xbar_full, "pbar_full": series.pbar_full,
        "varx_full": series.varx_full, "xbar_tr": series.xbar_tr, "xbar_ref": series.xbar_ref,
        "continuity_residual": series.continuity,
        "pbar_tr": series.pbar_tr, "pbar_ref": series.pbar_ref,
        "varx_tr": series.varx_tr, "varx_ref": series.varx_ref,
        "ref_cut_flux": series.ref_cut_flux, "identity_residual": series.identity_residual,
    })
    return {
        "norm_drift": float(np.max(np.abs(series.T - series.T[0]))),
        "max_re_overlap": float(np.max(np.abs(series.overlap.real))),
        "max_identity_residual": float(np.max(series.identity_residual)),
        "moments_note": (
            "sub-wave momentum means use the analytic one-sided derivative "
            "at the midpoint cut; the cut cell contributes O(dx)"
        ),
    }


def cmd_oracle_check(cfg: RunConfig, out: Path) -> dict:
    _need_packet(cfg)
    spec, packet = cfg.potential, cfg.packet
    grid, checkpoints = cfg.oracle_grid, cfg.checkpoints
    # only the oracle needs the edges on its grid's half cells, so only it rejects
    if (problem := misaligned_edges(spec, grid.dx)) is not None:
        raise SchemaError("oracle.dx", problem)
    times = sorted({0.0, *checkpoints})
    spectral_at = dict(zip(times, synthesize(spec, packet, "full", times, grid.x(),
                                             n_k=cfg.n_k, span_sigmas=cfg.k_span_sigmas)))
    result = crank_nicolson_propagate(spec, spectral_at[0.0], grid, sample_times=checkpoints)
    l2_max = linf_max = 0.0
    per_checkpoint = {}
    for sample in result.samples:
        l2, linf = compare_fields(spectral_at[sample.t], sample)
        per_checkpoint[str(sample.t)] = {"l2": l2, "linf": linf}
        l2_max, linf_max = max(l2_max, l2), max(linf_max, linf)
    passed = l2_max < ORACLE_L2 and result.norm_drift < CN_NORM_DRIFT
    # the samples come in step order, one per step: the last is the latest compared
    _write_columns(out / "oracle_check.csv", {
        "t_max": [result.samples[-1].t], "l2": [l2_max], "linf": [linf_max],
        "pass": [passed], "norm_drift": [result.norm_drift],
    })
    return {
        "per_checkpoint": per_checkpoint,
        "norm_drift": result.norm_drift,
        "wall_mass": result.wall_mass,
        "cn_steps": grid.n_t,
        "cn_point_solves": grid.n_x * grid.n_t * SOLVES_PER_STEP,
        "dx": grid.dx,
        "dt": grid.dt,
        "pass": bool(passed),
    }


def _clock_columns(res) -> dict:
    """The CSV columns of a clock result."""
    return {"E": res.E, "L": res.barrier_length,
            "tau_dwell_tr": res.tau_dwell_tr, "tau_dwell_ref": res.tau_dwell_ref,
            "tau_larmor_tr": res.tau_larmor_tr, "tau_larmor_ref": res.tau_larmor_ref,
            "omega_min": res.omega_min, "residual": res.residual}


def cmd_clock(cfg: RunConfig, out: Path) -> dict:
    if cfg.mode is None:
        raise SchemaError("energy.E", "clock needs one energy")
    res = compute_clock(cfg.potential, cfg.mode)
    _write_columns(out / "clock.csv", _clock_columns(res))
    return {
        "tau_dwell_tr": float(res.tau_dwell_tr[0]),
        "tau_larmor_tr": float(res.tau_larmor_tr[0]),
        "raw_larmor_tr": float(res.larmor_tr.raw[0]),
    }


def cmd_hartman_sweep(cfg: RunConfig, out: Path) -> dict:
    sw = cfg.sweep
    kappa_ls = np.linspace(sw["kappa_l_min"], sw["kappa_l_max"], sw["num"])
    with WorkerMap(cfg.workers) as pmap:
        res = sweep_barrier_width(sw["v0"], sw["energy_ratio"], kappa_ls, map_fn=pmap)
    monotonic = bool(np.all(np.diff(res.tau_dwell_tr) > 0))
    _write_columns(out / "hartman_sweep.csv", _clock_columns(res),
                   footer_comments=[f"dwell_tr_strictly_increasing = {_fmt(monotonic)}"])
    return {"dwell_tr_strictly_increasing": monotonic}


COMMANDS = {
    "stationary": cmd_stationary,
    "decompose": cmd_decompose,
    "evolve": cmd_evolve,
    "diagnostics": cmd_diagnostics,
    "oracle-check": cmd_oracle_check,
    "clock": cmd_clock,
    "hartman-sweep": cmd_hartman_sweep,
}


def run(subcommand: str, cfg: RunConfig, out_dir: str | None = None) -> int:
    started = time.monotonic()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if subcommand not in COMMANDS:
        raise SchemaError("", f"unknown subcommand {subcommand!r}")
    extra = COMMANDS[subcommand](cfg, out)
    _write_run_files(out, cfg, subcommand, started, extra)
    return 0


def _error_record(out_dir: str, exc: Exception, code: int):
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
        (out / "error.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError:
        pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a config error, recorded in the default out
        raise SchemaError("", message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="tunnelsplit",
        description="1D barrier scattering split into transmitted/reflected sub-waves",
    )
    # both checked below, so that a missing one is recorded in --out
    parser.add_argument("subcommand", nargs="?", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("config", nargs="?", help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")

    out_dir = "out"
    try:
        args, unknown = parser.parse_known_args(argv)
        out_dir = args.out or out_dir
        # an unknown option is a config error, recorded in --out like any other
        if unknown:
            raise SchemaError("", f"unknown option {unknown[0]!r}")
        if args.config is None:
            raise SchemaError("", "need a subcommand and a config path")
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.raw["out_dir"] = args.out
        out_dir = args.out or cfg.out_dir
        return run(args.subcommand, cfg, out_dir)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _error_record(out_dir, exc, 2)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        _error_record(out_dir, exc, 4)
        return 4
    except TunnelSplitError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        _error_record(out_dir, exc, 3)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        _error_record(out_dir, exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
