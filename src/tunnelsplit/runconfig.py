"""Run configuration: one JSON file per run, checked before any
computation, defaults materialized so the echoed config replays exactly.

`_SCHEMA` gives every key its default and the one check that validates
its JSON value and converts it to the typed value the commands read.
Checks that tie keys together follow in `parse_config_text`, where
domain-object construction failures become SchemaError carrying the
original error's name.
"""

import copy
import json
import os
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .clocks import check_factors
from .cranknicolson import SOLVES_PER_STEP, GridSpec, staggered_grid, step_index
from .errors import SchemaError, TunnelSplitError
from .packets import (BATCH_BYTES, DEFAULT_N_K, DEFAULT_SPAN_SIGMAS, X_CHUNK, PacketSpec,
                      default_grid_step)
from .potential import PotentialSpec, make_piecewise
from .stationary import EnergyMode

# Largest estimated array bytes a config may ask for, checked before any
# array is allocated; the canonical config asks for about 0.03 GB.
MEMORY_BUDGET = 2e9

# Largest Crank-Nicolson work, grid points times steps times tridiagonal
# solves per step, that an oracle config may ask for: about 1170 times
# canonical's 8.5e6, or 5 minutes at 30 ns per point and solve.
CN_WORK_BUDGET = 1e10


def _number(value, path: str) -> float:
    """A finite JSON number, as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {value!r}")
    return value


def _rule(convert, ok, rule: str):
    """Check: `convert`, and `ok` holds of the result."""
    def check(value, path):
        typed = convert(value, path)
        if not ok(typed):
            raise SchemaError(path, f"must be {rule}, got {value!r}")
        return typed
    return check


_POSITIVE = _rule(_number, lambda x: x > 0, "> 0")
_AT_LEAST_ONE = _rule(_integer, lambda n: n >= 1, ">= 1")


def _count(bytes_per: int, least: int = 0):
    """Check: an integer count of at least `least` whose arrays, at most
    `bytes_per` bytes per unit as the code lays them out, fit the budget."""
    def check(value, path):
        if _integer(value, path) < least:
            raise SchemaError(path, f"must be >= {least}, got {value}")
        need = value * bytes_per
        if need > MEMORY_BUDGET:
            raise SchemaError(path, f"{value} would need about {need:.3g} bytes of arrays, "
                                    f"more than the budget of {MEMORY_BUDGET:.3g}")
        return value
    return check


def _list_of(item, least: int = 0):
    """Check: a list of at least `least` items, each passing `item`."""
    def check(value, path):
        if not isinstance(value, list) or len(value) < least:
            raise SchemaError(path, f"expected a list of {least}+ items, got {value!r}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _workers(value, path: str) -> int:
    """The `workers` key, >= 1 and capped at the CPU count."""
    return min(_AT_LEAST_ONE(value, path), os.cpu_count() or 1)


def _times(value, path: str) -> np.ndarray:
    """A non-empty list of times, or a {start, stop, num} object."""
    if isinstance(value, list):
        return np.array(_list_of(_number, 1)(value, path))
    times = _walk(_TIMES, value, path)
    return np.linspace(times["start"], times["stop"], times["num"])


def _x_grid(value, path: str) -> dict | None:
    """null, or an {x_min, x_max, dx} object spanning at least two points."""
    if value is None:
        return None
    grid = _walk(_X_GRID, value, path)
    if not grid["x_max"] - grid["x_min"] >= grid["dx"]:
        raise SchemaError(path, "need x_max >= x_min + dx")
    return grid


_REQUIRED = object()  # no default: the key must be given
_OMITTED = object()  # no default: a missing key stays out of the echo

# key: (default, check); a dict in place of a check is a nested object
_TIMES = {
    "start": (0.0, _number),
    "stop": (80.0, _number),
    # the time grid and the diagnostics columns of one time
    "num": (81, _count(8 * 20, least=1)),
}
_X_GRID = {"x_min": (_REQUIRED, _number), "x_max": (_REQUIRED, _number),
           "dx": (_REQUIRED, _POSITIVE)}
_SCHEMA = {
    "potential": (_REQUIRED, {
        "a": (_REQUIRED, _number),
        "segments": (_REQUIRED, _list_of(_rule(_list_of(_number), lambda seg: len(seg) == 2,
                                               "[width, height]"), least=1)),
    }),
    "energy": (_OMITTED, {
        "E": (_OMITTED, _number),
        "grid": (_OMITTED, {
            "min": (_REQUIRED, _number),
            "max": (_REQUIRED, _number),
            # one energy's cascade and its CSV line
            "n": (_REQUIRED, _count(512, least=1)),
            "scale": ("log", _rule(_string, lambda s: s in ("log", "linear"), "log or linear")),
        }),
    }),
    "packet": (_OMITTED, {key: (_REQUIRED, _number) for key in ("k0", "sigma_k", "x0")}),
    "n_k": (DEFAULT_N_K, _rule(_integer, lambda n: n >= 65 and n % 2 == 1, "odd and >= 65")),
    "k_span_sigmas": (DEFAULT_SPAN_SIGMAS,
                      _rule(_number, lambda s: s >= 5.0, ">= 5, to cover 5 sigma_k")),
    "x_grid": (None, _x_grid),
    "times": ({}, _times),
    "snapshot_times": ([0.0, 20.0, 40.0, 60.0, 80.0], _list_of(_number, 1)),
    "decompose_grid": ({}, {
        "pad": (5.0, _number),
        # one point's five sampled waves and its CSV line
        "n": (2001, _count(512, least=2)),
    }),
    "oracle": ({}, {
        "dx": (0.02, _POSITIVE),
        "dt": (0.2, _POSITIVE),
        "margin_left": (60.0, _number),
        "margin_right": (100.0, _number),
        "checkpoints": ([0.0, 40.0, 80.0], _list_of(_number, 1)),
    }),
    "clock": ({}, {
        "omega_factors": ([1e-2, 1e-3, 1e-4], _list_of(_number, 1)),
    }),
    "sweep": ({}, {
        "v0": (1.0, _POSITIVE),
        "energy_ratio": (0.5, _rule(_number, lambda r: 0.0 < r < 1.0, "in (0, 1)")),
        "kappa_l_min": (2.0, _POSITIVE),
        "kappa_l_max": (10.0, _POSITIVE),
        # one width's ClockResult, its readings and its CSV line; two
        # widths at least, so that the monotonicity footer compares some
        "num": (9, _count(4096, least=2)),
    }),
    "evolve_x_stride": (4, _AT_LEAST_ONE),
    "out_dir": ("out", _string),
    "workers": (1, _workers),
}


def _walk(schema: dict, obj, path: str) -> dict:
    """Typed values of one config object, each key of `schema` checked
    once. A missing key's default is written into `obj`, which so becomes
    its echo."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}" if path else unknown[0], "unknown key")
    typed = {}
    for key, (default, check) in schema.items():
        where = f"{path}.{key}" if path else key
        if key not in obj:
            if default is _REQUIRED:
                raise SchemaError(where, "required")
            if default is _OMITTED:
                continue
            obj[key] = copy.deepcopy(default)
        value = obj[key]
        typed[key] = _walk(check, value, where) if isinstance(check, dict) else check(value, where)
    return typed


def _build(path: str, make, *args, **kwargs):
    """make(...), with its domain errors as SchemaError at `path`."""
    try:
        return make(*args, **kwargs)
    except (TunnelSplitError, ValueError) as exc:
        raise SchemaError(path, str(exc), cause_name=type(exc).__name__) from exc


def _estimated_bytes(spec: PotentialSpec, packet: PacketSpec, n_k: int, span: float,
                     x_grid: dict | None, oracle: dict, n_snapshots: int,
                     stride: int) -> float:
    """Bytes of a packet run's large arrays, as packets lays them out. On
    the table grid: one window's cos/sin table (X_CHUNK points and the
    continuity halo), the stacks of one diagnostics batch in it
    (BATCH_BYTES), the rows inside the barrier, the grid with its three
    quadrature rows and evolve's (3, n_snap, n_x / stride) states. On
    the oracle grid: one synthesis window's table, the rows inside the
    barrier and the CN vectors and snapshots (psi, the synthesis output,
    the solve's right-hand side, which also holds B psi, x and V, the
    three diagonals being factored and each factor's LU: dl, d, du, du2
    and ipiv). No array spans n_k by either grid, so one estimate serves
    every subcommand. Counted in complex numbers (16 bytes) as floats, so
    that no size overflows."""
    if x_grid is None:
        dx, n_side = default_grid_step(spec, packet, span)
        n_x = 2 * n_side + 1
    else:
        dx = x_grid["dx"]
        n_x = (x_grid["x_max"] - x_grid["x_min"]) / dx + 1
    table = (n_k * (min(X_CHUNK + 4, n_x) + 6 * (spec.width / dx + 1)) + BATCH_BYTES / 16
             + 2 * n_x + 3 * n_snapshots * (n_x / stride + 1))
    length = spec.b + oracle["margin_right"] - packet.x0 + oracle["margin_left"]
    n_times = len(oracle["checkpoints"]) + 1
    vectors = 4 * n_times + 6 + 5 * SOLVES_PER_STEP
    cn = (vectors * (length / oracle["dx"] + 2)
          + n_k * (X_CHUNK + 6 * (spec.width / oracle["dx"] + 1)))
    return 16.0 * max(table, cn)


@dataclass
class RunConfig:
    """The typed values of a checked configuration, and its echo."""

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
    decompose_grid: dict  # pad (float), n (int)
    oracle_grid: GridSpec | None  # None without a packet
    checkpoints: list[float]  # ascending
    omega_factors: tuple[float, ...]  # Larmor frequencies as fractions of E
    sweep: dict  # v0, energy_ratio, kappa_l_min, kappa_l_max (floats), num (int)
    evolve_x_stride: int
    out_dir: str
    workers: int

    def echo(self) -> dict[str, Any]:
        """Materialized configuration sufficient to replay the run."""
        return self.raw


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from exc
    cfg = _walk(_SCHEMA, raw, "")
    raw["workers"] = cfg["workers"]  # the echo records the capped count

    spec = _build("potential", make_piecewise, cfg["potential"]["a"],
                  cfg["potential"]["segments"])

    mode = energy_grid = None
    if "energy" in cfg:
        energy = cfg["energy"]
        if ("E" in energy) == ("grid" in energy):
            raise SchemaError("energy", "give exactly one of 'E' or 'grid'")
        if "E" in energy:
            mode = _build("energy.E", EnergyMode, energy["E"])
        else:
            grid = energy["grid"]
            if not 0 < grid["min"] < grid["max"]:
                raise SchemaError("energy.grid", "need 0 < min < max")
            space = np.geomspace if grid["scale"] == "log" else np.linspace
            energy_grid = space(grid["min"], grid["max"], grid["n"])

    packet = None
    if "packet" in cfg:
        packet = _build("packet", PacketSpec, **cfg["packet"])
        _build("packet", packet.check_separation, spec)

    n_k, span = cfg["n_k"], cfg["k_span_sigmas"]
    if packet is not None and packet.k0 - span * packet.sigma_k <= 0:
        raise SchemaError("k_span_sigmas", f"grid would reach k = "
                          f"{packet.k0 - span * packet.sigma_k:.4g} <= 0",
                          cause_name="SpectrumDomainError")
    if packet is not None:
        k_max = packet.k0 + span * packet.sigma_k
        if not np.isfinite(0.5 * k_max * k_max):
            raise SchemaError("packet.k0", f"grid would reach k = {k_max:.4g}, where the "
                              f"energy overflows", cause_name="SpectrumDomainError")

    omega_factors = _build("clock", check_factors, cfg["clock"]["omega_factors"])

    oracle = cfg["oracle"]
    for i, t in enumerate(oracle["checkpoints"]):
        if t < 0 or step_index(t, oracle["dt"]) is None:
            raise SchemaError(f"oracle.checkpoints[{i}]", f"must be a multiple of "
                              f"oracle.dt = {oracle['dt']} and >= 0, got {t}")
    checkpoints = sorted(oracle["checkpoints"])
    if step_index(checkpoints[-1], oracle["dt"]) < 1:
        raise SchemaError("oracle.checkpoints", f"no checkpoint falls at step 1 or later of "
                                                f"oracle.dt = {oracle['dt']}: the oracle "
                                                f"would compare nothing after launch")

    x_grid = oracle_grid = None
    if packet is not None:
        need = _estimated_bytes(spec, packet, n_k, span, cfg["x_grid"], oracle,
                                len(cfg["snapshot_times"]), cfg["evolve_x_stride"])
        if need > MEMORY_BUDGET:
            raise SchemaError("", f"the run would need about {need:.3g} bytes of arrays, "
                                  f"more than the budget of {MEMORY_BUDGET:.3g}")
        if (grid := cfg["x_grid"]) is not None:
            n_x = int(round((grid["x_max"] - grid["x_min"]) / grid["dx"])) + 1
            x_grid = grid["x_min"] + grid["dx"] * np.arange(n_x)
        oracle_grid = _build("oracle", staggered_grid, spec,
                             packet.x0 - oracle["margin_left"], spec.b + oracle["margin_right"],
                             oracle["dx"], oracle["dt"], checkpoints[-1])
        work = oracle_grid.n_x * oracle_grid.n_t * SOLVES_PER_STEP
        if work > CN_WORK_BUDGET:
            raise SchemaError("oracle", f"{oracle_grid.n_t} Crank-Nicolson steps of "
                                        f"{SOLVES_PER_STEP} solves on {oracle_grid.n_x} "
                                        f"points ({work:.3g} point-solves) exceed the "
                                        f"budget of {CN_WORK_BUDGET:.3g}")

    return RunConfig(
        raw=raw, potential=spec, mode=mode, energy_grid=energy_grid, packet=packet,
        n_k=n_k, k_span_sigmas=span, x_grid=x_grid, oracle_grid=oracle_grid,
        checkpoints=checkpoints, omega_factors=omega_factors,
        # keys whose typed value needs no other key pass through as they are
        **{key: cfg[key] for key in ("times", "snapshot_times", "decompose_grid",
                                     "sweep", "evolve_x_stride", "out_dir", "workers")},
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read config: {exc}") from exc
    return parse_config_text(text)
