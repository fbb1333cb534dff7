"""Run configuration: one JSON file per run, schema-validated before any
computation, defaults materialized so the echoed config replays exactly.

Unknown keys are rejected with their field path; domain-object
construction failures surface as SchemaError carrying the original
error's name.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .clocks import SWEEP_BLOCK, ClockConfig
from .cranknicolson import step_index
from .errors import SchemaError, TunnelSplitError
from .packets import DEFAULT_N_K, DEFAULT_SPAN_SIGMAS, X_CHUNK, PacketSpec, default_grid_step
from .potential import PotentialSpec, make_piecewise
from .stationary import EnergyMode, ProblemBlock

_DEFAULTS: dict[str, Any] = {
    "n_k": DEFAULT_N_K,
    "k_span_sigmas": DEFAULT_SPAN_SIGMAS,
    "x_grid": None,
    "times": {"start": 0.0, "stop": 80.0, "num": 81},
    "snapshot_times": [0.0, 20.0, 40.0, 60.0, 80.0],
    "fd_dt": 0.01,
    "decompose_grid": {"pad": 5.0, "n": 2001},
    "oracle": {
        "dx": 0.01,
        "dt": 0.01,
        "margin_left": 60.0,
        "margin_right": 100.0,
        "checkpoints": [0.0, 40.0, 80.0],
    },
    "clock": {
        "omega_factors": [1e-2, 1e-3, 1e-4],
        "extrapolation_order": 2,
        "n_quad": 2049,
    },
    "sweep": {
        "v0": 1.0,
        "energy_ratio": 0.5,
        "kappa_l_min": 2.0,
        "kappa_l_max": 10.0,
        "num": 9,
    },
    "evolve_x_stride": 4,
    "out_dir": "out",
    "workers": 1,
}

_TOP_KEYS = {"potential", "energy", "packet"} | set(_DEFAULTS)

# Largest estimated array bytes a config may ask for, checked before any
# array is allocated; the canonical config asks for about 0.16 GB.
MEMORY_BUDGET = 2e9

# Bytes that one unit of each count costs at most, as the code lays out
# what it allocates per unit
_BYTES_PER = {
    "times.num": 8 * 20,  # the time grid and the diagnostics columns of one time
    "decompose_grid.n": 512,  # one point's five sampled waves and its CSV line
    "energy.grid.n": 512,  # one energy's transfer matrices and its CSV line
    "sweep.num": 4096,  # one width's ClockResult, its readings and its CSV line
    "clock.n_quad": 32 * SWEEP_BLOCK,  # a sweep block's grid, densities and weights
}

_SECTION_KEYS = {
    "potential": {"a", "segments"},
    "packet": {"k0", "sigma_k", "x0"},
    "times": {"start", "stop", "num"},
    "x_grid": {"x_min", "x_max", "dx"},
    "decompose_grid": {"pad", "n"},
    "oracle": {"dx", "dt", "margin_left", "margin_right", "checkpoints"},
    "clock": {"omega_factors", "extrapolation_order", "n_quad"},
    "sweep": {"v0", "energy_ratio", "kappa_l_min", "kappa_l_max", "num"},
}


def _check_keys(mapping: dict, allowed: set[str], path: str):
    unknown = set(mapping) - allowed
    if unknown:
        worst = sorted(unknown)[0]
        raise SchemaError(f"{path}.{worst}" if path else worst, "unknown key")


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _x_grid_points(grid: dict) -> int:
    """Points of an x_grid section, x_min + dx * arange(n)."""
    return int(round((grid["x_max"] - grid["x_min"]) / grid["dx"])) + 1


def _estimated_bytes(spec: PotentialSpec, packet: PacketSpec, n_k: int, span: float,
                     x_grid: dict | None, oracle: dict) -> float:
    """Bytes of a packet run's large complex arrays, as packets lays them
    out: exp(ikx), a diagnostics batch about as large and the rows inside
    the barrier on the table grid; the synthesis blocks, the rows inside
    the barrier and the CN vectors and snapshots on the oracle grid."""
    if x_grid is None:
        dx, n_side = default_grid_step(spec, packet, span)
        n_x = 2 * n_side + 1
    else:
        dx, n_x = x_grid["dx"], _x_grid_points(x_grid)
    table = n_k * (2 * n_x + 6 * (spec.width / dx + 1))
    length = spec.b + oracle["margin_right"] - packet.x0 + oracle["margin_left"]
    n_times = len(oracle["checkpoints"]) + 1
    cn = ((4 * n_times + 8) * (length / oracle["dx"] + 2)
          + n_k * (X_CHUNK + 6 * (spec.width / oracle["dx"] + 1)))
    return 16.0 * max(table, cn)


def _count(value, path: str, least: int = 0) -> int:
    """An integer count of at least `least` whose arrays fit the budget."""
    if _integer(value, path) < least:
        raise SchemaError(path, f"must be >= {least}, got {value}")
    need = value * _BYTES_PER[path]
    if need > MEMORY_BUDGET:
        raise SchemaError(path, f"{value} would need about {need:.3g} bytes of arrays, "
                                f"more than the budget of {MEMORY_BUDGET:.3g}")
    return value


def bound_workers(value) -> int:
    """The `workers` key or --workers flag, >= 1 and capped at the CPU count."""
    if _integer(value, "workers") < 1:
        raise SchemaError("workers", "must be >= 1")
    return min(value, os.cpu_count() or 1)


@dataclass
class RunConfig:
    """Validated configuration with constructed domain objects."""

    raw: dict[str, Any]
    potential: PotentialSpec
    mode: EnergyMode | None
    energy_grid: np.ndarray | None
    packet: PacketSpec | None
    n_k: int
    k_span_sigmas: float
    x_grid: np.ndarray | None
    times: np.ndarray
    snapshot_times: list[float]
    fd_dt: float
    decompose_grid: dict
    oracle: dict
    clock_config: ClockConfig
    clock_raw: dict
    sweep: dict
    evolve_x_stride: int
    out_dir: str
    workers: int
    warnings: list[str] = field(default_factory=list)

    def echo(self) -> dict[str, Any]:
        """Materialized configuration sufficient to replay the run."""
        return self.raw


def _materialize(user: dict) -> dict:
    cfg = {}
    for key, default in _DEFAULTS.items():
        value = user.get(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            merged = dict(default)
            merged.update(value)
            value = merged
        cfg[key] = value
    for key in ("potential", "energy", "packet"):
        if key in user:
            cfg[key] = user[key]
    return cfg


def parse_config_text(text: str) -> RunConfig:
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from exc
    user = _expect_mapping(user, "")
    _check_keys(user, _TOP_KEYS, "")
    for section, allowed in _SECTION_KEYS.items():
        if isinstance(user.get(section), dict):
            _check_keys(user[section], allowed, section)
    if isinstance(user.get("energy"), dict):
        _check_keys(user["energy"], {"E", "grid"}, "energy")
        if isinstance(user["energy"].get("grid"), dict):
            _check_keys(user["energy"]["grid"], {"min", "max", "n", "scale"}, "energy.grid")

    cfg = _materialize(user)

    if "potential" not in cfg:
        raise SchemaError("potential", "required section is missing")
    pot = _expect_mapping(cfg["potential"], "potential")
    if "a" not in pot or "segments" not in pot:
        raise SchemaError("potential", "needs 'a' and 'segments'")
    segments = pot["segments"]
    if not isinstance(segments, list) or not segments:
        raise SchemaError("potential.segments", "expected a non-empty list of [width, height]")
    try:
        spec = make_piecewise(
            _number(pot["a"], "potential.a"),
            [
                (
                    _number(seg[0], f"potential.segments[{i}][0]"),
                    _number(seg[1], f"potential.segments[{i}][1]"),
                )
                for i, seg in enumerate(segments)
            ],
        )
    except TunnelSplitError as exc:
        raise SchemaError("potential", str(exc), cause_name=type(exc).__name__) from exc
    except (TypeError, IndexError) as exc:
        raise SchemaError("potential.segments", f"malformed segment list: {exc}") from exc

    mode = None
    energy_grid = None
    if "energy" in cfg:
        energy = _expect_mapping(cfg["energy"], "energy")
        if ("E" in energy) == ("grid" in energy):
            raise SchemaError("energy", "give exactly one of 'E' or 'grid'")
        if "E" in energy:
            try:
                mode = EnergyMode(_number(energy["E"], "energy.E"))
            except ValueError as exc:
                raise SchemaError("energy.E", str(exc), cause_name="ValueError") from exc
        else:
            grid = _expect_mapping(energy["grid"], "energy.grid")
            for key in ("min", "max", "n"):
                if key not in grid:
                    raise SchemaError(f"energy.grid.{key}", "required")
            lo = _number(grid["min"], "energy.grid.min")
            hi = _number(grid["max"], "energy.grid.max")
            n = _count(grid["n"], "energy.grid.n")
            scale = grid.get("scale", "log")
            if scale not in ("log", "linear"):
                raise SchemaError("energy.grid.scale", f"expected log|linear, got {scale!r}")
            if lo <= 0 or hi <= lo or n < 1:
                raise SchemaError("energy.grid", "need 0 < min < max and n >= 1")
            energy_grid = (
                np.geomspace(lo, hi, n) if scale == "log" else np.linspace(lo, hi, n)
            )
            grid["scale"] = scale
            cfg["energy"] = {"grid": grid}

    packet = None
    if "packet" in cfg:
        pkt = _expect_mapping(cfg["packet"], "packet")
        for key in ("k0", "sigma_k", "x0"):
            if key not in pkt:
                raise SchemaError(f"packet.{key}", "required")
        try:
            packet = PacketSpec(
                k0=_number(pkt["k0"], "packet.k0"),
                sigma_k=_number(pkt["sigma_k"], "packet.sigma_k"),
                x0=_number(pkt["x0"], "packet.x0"),
            )
            packet.check_separation(spec)
        except TunnelSplitError as exc:
            raise SchemaError("packet", str(exc), cause_name=type(exc).__name__) from exc
        except ValueError as exc:
            raise SchemaError("packet", str(exc), cause_name="ValueError") from exc

    n_k = _integer(cfg["n_k"], "n_k")
    if n_k < 65 or n_k % 2 == 0:
        raise SchemaError("n_k", f"must be odd and >= 65, got {n_k}")
    span = _number(cfg["k_span_sigmas"], "k_span_sigmas")
    if span < 5.0:
        raise SchemaError("k_span_sigmas", "must cover at least 5 sigma_k")
    if packet is not None and packet.k0 - span * packet.sigma_k <= 0:
        raise SchemaError(
            "k_span_sigmas",
            f"grid would reach k = {packet.k0 - span * packet.sigma_k:.4g} <= 0",
            cause_name="SpectrumDomainError",
        )

    times_cfg = cfg["times"]
    if isinstance(times_cfg, list):
        times = np.array([_number(t, f"times[{i}]") for i, t in enumerate(times_cfg)])
    else:
        times_cfg = _expect_mapping(times_cfg, "times")
        times = np.linspace(
            _number(times_cfg["start"], "times.start"),
            _number(times_cfg["stop"], "times.stop"),
            _count(times_cfg["num"], "times.num"),
        )

    snapshot = [
        _number(t, f"snapshot_times[{i}]") for i, t in enumerate(cfg["snapshot_times"])
    ]

    x_grid_spec = cfg["x_grid"]
    if x_grid_spec is not None:
        x_grid_spec = _expect_mapping(x_grid_spec, "x_grid")
        for key in ("x_min", "x_max", "dx"):
            if key not in x_grid_spec:
                raise SchemaError(f"x_grid.{key}", "required when x_grid is given")
            _number(x_grid_spec[key], f"x_grid.{key}")
        if x_grid_spec["dx"] <= 0 or x_grid_spec["x_max"] <= x_grid_spec["x_min"]:
            raise SchemaError("x_grid", "need dx > 0 and x_max > x_min")

    _count(cfg["decompose_grid"]["n"], "decompose_grid.n")
    clock_raw = cfg["clock"]
    _count(clock_raw["n_quad"], "clock.n_quad", least=2)
    factors = clock_raw["omega_factors"]
    if not isinstance(factors, list) or not factors:
        raise SchemaError("clock.omega_factors", "expected a non-empty list")
    try:
        base_E = mode.E if mode is not None else (packet.k0 ** 2 / 2 if packet else 1.0)
        clock_config = ClockConfig.for_energy(
            base_E,
            tuple(_number(f, "clock.omega_factors") for f in factors),
            _integer(clock_raw["extrapolation_order"], "clock.extrapolation_order"),
        )
        # the factors scale every energy alike, so one energy checks them all
        clock_config.validate_block(ProblemBlock.of(spec, base_E))
    except ValueError as exc:
        raise SchemaError("clock", str(exc), cause_name="ValueError") from exc

    oracle = cfg["oracle"]
    if _number(oracle["dx"], "oracle.dx") <= 0 or _number(oracle["dt"], "oracle.dt") <= 0:
        raise SchemaError("oracle", "dx and dt must be positive")
    for key in ("margin_left", "margin_right"):
        _number(oracle[key], f"oracle.{key}")
    if not isinstance(oracle["checkpoints"], list) or not oracle["checkpoints"]:
        raise SchemaError("oracle.checkpoints", "expected a non-empty list of times")
    for i, t in enumerate(oracle["checkpoints"]):
        path = f"oracle.checkpoints[{i}]"
        if not (math.isfinite(_number(t, path)) and t >= 0) or step_index(t, oracle["dt"]) is None:
            raise SchemaError(path, f"must be a multiple of oracle.dt = {oracle['dt']} "
                                    f"and >= 0, got {t}")

    x_grid = None
    if packet is not None:
        need = _estimated_bytes(spec, packet, n_k, span, x_grid_spec, oracle)
        if need > MEMORY_BUDGET:
            raise SchemaError("", f"the run would need about {need:.3g} bytes of arrays, "
                                  f"more than the budget of {MEMORY_BUDGET:.3g}")
        if x_grid_spec is not None:
            n_x = _x_grid_points(x_grid_spec)
            x_grid = x_grid_spec["x_min"] + x_grid_spec["dx"] * np.arange(n_x)

    sweep = cfg["sweep"]
    _count(sweep["num"], "sweep.num")
    if not (0.0 < _number(sweep["energy_ratio"], "sweep.energy_ratio") < 1.0):
        raise SchemaError("sweep.energy_ratio", "must lie in (0, 1)")

    workers = cfg["workers"] = bound_workers(cfg["workers"])

    return RunConfig(
        raw=cfg,
        potential=spec,
        mode=mode,
        energy_grid=energy_grid,
        packet=packet,
        n_k=n_k,
        k_span_sigmas=span,
        x_grid=x_grid,
        times=times,
        snapshot_times=snapshot,
        fd_dt=_number(cfg["fd_dt"], "fd_dt"),
        decompose_grid=cfg["decompose_grid"],
        oracle=oracle,
        clock_config=clock_config,
        clock_raw=clock_raw,
        sweep=sweep,
        evolve_x_stride=_integer(cfg["evolve_x_stride"], "evolve_x_stride"),
        out_dir=str(cfg["out_dir"]),
        workers=workers,
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read config: {exc}") from exc
    return parse_config_text(text)
