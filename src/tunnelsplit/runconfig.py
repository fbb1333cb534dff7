"""Run configuration: one JSON file per run, checked before any
computation, defaults materialized so the echoed config replays exactly.

`_SCHEMA` gives every key its default and the one check that validates
its JSON value and converts it to the typed value the commands read.
Checks that tie keys together follow in `parse_config_text`, where
domain-object construction failures become SchemaError carrying the
original error's name.

Before any array exists, `_array_bytes` adds up each subcommand's array
bytes, one term each and two for oracle-check's synthesis and
propagation, and the largest is checked against MEMORY_BUDGET. The
module that makes the arrays states their bytes: `stationary.block_bytes`
for a block kernel's rows and segments, from `stationary.SOLVE_BYTES`,
`splitting.DECOMPOSE_BYTES` or `clocks.CLOCK_BYTES`;
`splitting.WAVE_BYTES` for decompose's grid; `clocks.sweep_bytes`;
`packets.table_bytes`, `states_bytes` and `diagnostics_bytes`; and
`cranknicolson.propagation_bytes`.
"""

import copy
import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .clocks import CLOCK_BYTES, sweep_bytes
from .cranknicolson import (SOLVES_PER_STEP, GridSpec, default_margins, default_spacing,
                            default_step, propagation_bytes, staggered_grid, step_index)
from .errors import SchemaError, TunnelSplitError
from .packets import (DEFAULT_N_K, DEFAULT_SPAN_SIGMAS, PacketSpec, default_grid_step,
                      diagnostics_bytes, span_covers, spectral_span, states_bytes,
                      table_bytes)
from .potential import PotentialSpec, make_piecewise
from .splitting import DECOMPOSE_BYTES, WAVE_BYTES
from .stationary import EnergyMode, block_bytes

# Largest estimated array bytes a config may ask for, checked before any
# array is allocated; the canonical config asks for about 0.03 GB.
MEMORY_BUDGET = 2e9

# Largest Crank-Nicolson work, grid points times steps times tridiagonal
# solves per step, that an oracle config may ask for: about 12900 times
# canonical's 7.7e5 (2933 points, 66 steps, 4 solves), or about 3 minutes
# at 16 ns per point and solve (10652 points; one Xeon core and BLAS thread).
CN_WORK_BUDGET = 1e10

# Largest packet work, modes times table-grid points times diagnostics
# times, that a config may ask for: about 500 times canonical's 4.0e8. At
# canonical's 0.40 ms of diagnostics series per time (810 to 4050 times, one
# Xeon core and BLAS thread), its edge, about 40,000 times, is 16 s of series.
PACKET_WORK_BUDGET = 2e11


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
_NON_NEGATIVE = _rule(_number, lambda x: x >= 0, ">= 0")
_AT_LEAST_ONE = _rule(_integer, lambda n: n >= 1, ">= 1")
_AT_LEAST_TWO = _rule(_integer, lambda n: n >= 2, ">= 2")


def _list_of(item, least: int = 0):
    """Check: a list of at least `least` items, each passing `item`."""
    def check(value, path):
        if not isinstance(value, list) or len(value) < least:
            raise SchemaError(path, f"expected a list of {least}+ items, got {value!r}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _times(value, path: str) -> list | dict:
    """A non-empty list of times, or a {start, stop, num} object; its array
    is made once the run's size is checked."""
    if isinstance(value, list):
        return _list_of(_number, 1)(value, path)
    return _walk(_TIMES, value, path)


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
_TIMES = {"start": (0.0, _number), "stop": (80.0, _number), "num": (81, _AT_LEAST_ONE)}
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
            "n": (_REQUIRED, _AT_LEAST_ONE),
            "scale": ("log", _rule(_string, lambda s: s in ("log", "linear"), "log or linear")),
        }),
    }),
    "packet": (_OMITTED, {key: (_REQUIRED, _number) for key in ("k0", "sigma_k", "x0")}),
    "n_k": (DEFAULT_N_K, _rule(_integer, lambda n: n >= 65 and n % 2 == 1, "odd and >= 65")),
    "k_span_sigmas": (DEFAULT_SPAN_SIGMAS, _rule(_number, span_covers, ">= 5.7307")),
    "x_grid": (None, _x_grid),
    "times": ({}, _times),
    "snapshot_times": ([0.0, 20.0, 40.0, 60.0, 80.0], _list_of(_number, 1)),
    "decompose_grid": ({}, {"pad": (5.0, _number), "n": (2001, _AT_LEAST_TWO)}),
    "oracle": ({}, {
        # by default the packet's: the spacing its spectrum and the barrier
        # ask for (default_spacing), the step its spectrum allows
        # (default_step) and the margins that hold it (default_margins)
        "dx": (_OMITTED, _POSITIVE),
        "dt": (_OMITTED, _POSITIVE),
        # a negative margin puts a wall inside the packet or the barrier
        "margin_left": (_OMITTED, _NON_NEGATIVE),
        "margin_right": (_OMITTED, _NON_NEGATIVE),
        "checkpoints": ([0.0, 40.0, 80.0], _list_of(_number, 1)),
    }),
    "sweep": ({}, {
        "v0": (1.0, _POSITIVE),
        "energy_ratio": (0.5, _rule(_number, lambda r: 0.0 < r < 1.0, "in (0, 1)")),
        "kappa_l_min": (2.0, _POSITIVE),
        "kappa_l_max": (10.0, _POSITIVE),
        # two widths at least, so that the monotonicity footer compares some
        "num": (9, _AT_LEAST_TWO),
    }),
    "evolve_x_stride": (4, _AT_LEAST_ONE),
    "out_dir": ("out", _string),
    "workers": (1, _AT_LEAST_ONE),
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


def _array_bytes(cfg: dict, spec: PotentialSpec, n_energies: int, one_energy: bool,
                 n_times, packet: PacketSpec | None, table_grid) -> dict[str, float]:
    """Bytes of the large arrays of each subcommand the config allows, and
    of each phase of oracle-check, with the config's energies and times.
    A block's work grows with its bytes: at the budget's edge a packet run's
    513 modes take about 6000 segments, 4.6 us a row and segment in
    decompose_block, 15 s. But one energy's kernels take 0.09 (stationary)
    to 0.6 ms (clock) a segment (measured at 1600), so at its edge, about
    1e6 segments, a run takes 2 to 10 minutes, past CN_WORK_BUDGET's 3."""
    segments = len(spec.segments)
    terms = {"hartman-sweep": sweep_bytes(cfg["sweep"]["num"])}
    if n_energies:
        terms["stationary"] = block_bytes(n_energies, segments)
    if one_energy:
        terms["decompose"] = (block_bytes(1, segments, DECOMPOSE_BYTES)
                              + WAVE_BYTES * cfg["decompose_grid"]["n"])
        terms["clock"] = block_bytes(1, segments, CLOCK_BYTES)
    if packet is not None:
        n_k, (dx, n_x), oracle = cfg["n_k"], table_grid, cfg["oracle"]
        stride = cfg["evolve_x_stride"]
        terms["diagnostics"] = (table_bytes(spec, n_k, n_x, dx)
                                + diagnostics_bytes(spec, n_k, n_x, dx, n_times))
        # evolve's table takes every stride-th point of the grid
        terms["evolve"] = (table_bytes(spec, n_k, n_x, dx * stride)
                           + states_bytes(len(cfg["snapshot_times"]), n_x / stride + 1, n_k))
        # the oracle grid, and its fields at t = 0 and every checkpoint, which
        # the propagation holds with its samples
        length = spec.b + oracle["margin_right"] - packet.x0 + oracle["margin_left"]
        n_oracle, n_fields = length / oracle["dx"] + 2, len(oracle["checkpoints"]) + 1
        terms["oracle-check synthesis"] = (table_bytes(spec, n_k, n_oracle, oracle["dx"], 1)
                                           + states_bytes(n_fields, n_oracle, n_k))
        terms["oracle-check propagation"] = propagation_bytes(n_oracle, 2 * n_fields)
    return {name: 8.0 * (n_energies + n_times) + term for name, term in terms.items()}


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
    times: np.ndarray | None  # None without a packet
    snapshot_times: list[float]
    decompose_grid: dict  # pad (float), n (int)
    oracle_grid: GridSpec | None  # None without a packet
    checkpoints: list[float]  # ascending
    sweep: dict  # v0, energy_ratio, kappa_l_min, kappa_l_max (floats), num (int)
    evolve_x_stride: int
    out_dir: str
    workers: int  # checked and recorded; it starts nothing: every run is one process
    estimated_bytes: dict[str, float]  # _array_bytes, checked before any array was made

    def echo(self) -> dict[str, Any]:
        """Materialized configuration sufficient to replay the run."""
        return self.raw


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from exc
    cfg = _walk(_SCHEMA, raw, "")

    spec = _build("potential", make_piecewise, cfg["potential"]["a"],
                  cfg["potential"]["segments"])

    mode, energy_grid, n_energies = None, None, 0
    if "energy" in cfg:
        energy = cfg["energy"]
        if ("E" in energy) == ("grid" in energy):
            raise SchemaError("energy", "give exactly one of 'E' or 'grid'")
        if "E" in energy:
            mode, n_energies = _build("energy.E", EnergyMode, energy["E"]), 1
        else:
            energy_grid = energy["grid"]
            if not 0 < energy_grid["min"] < energy_grid["max"]:
                raise SchemaError("energy.grid", "need 0 < min < max")
            n_energies = energy_grid["n"]

    n_k, span = cfg["n_k"], cfg["k_span_sigmas"]
    packet = None
    if "packet" in cfg:
        packet = _build("packet", PacketSpec, **cfg["packet"])
        _build("packet", packet.check_separation, spec)
        k_min, k_max = _build("k_span_sigmas", spectral_span, packet, span)

    oracle = cfg["oracle"]
    for i, t in enumerate(oracle["checkpoints"]):
        if t < 0:
            raise SchemaError(f"oracle.checkpoints[{i}]", f"must be >= 0, got {t}")
    checkpoints = sorted(oracle["checkpoints"])
    if packet is not None:
        # the packet's spacing, margins and step where the config leaves
        # them out, echoed so that the run replays
        left, right = default_margins(spec, packet.x0, packet.position_sigma(), packet.k0,
                                      checkpoints[-1])
        derived = {"dx": default_spacing(spec, k_min, k_max),
                   "margin_left": left, "margin_right": right}
        if checkpoints[-1] > 0:
            derived["dt"] = default_step(checkpoints, 0.5 * k_max * k_max)
        for key, value in derived.items():
            if key not in oracle:
                # a margin may be 0 (nothing of the packet passes b); dx and dt may not
                zero_ok = key.startswith("margin")
                if value is None or not (0.0 < value < math.inf or zero_ok and value == 0.0):
                    what = "step on which every checkpoint falls" if key == "dt" else key
                    raise SchemaError(f"oracle.{key}", f"no {what} that the packet gives is a "
                                                       f"positive float; set oracle.{key}")
                oracle[key] = raw["oracle"][key] = value
    # without a packet there is no oracle, and no default step
    dt = oracle.get("dt")
    for i, t in enumerate(oracle["checkpoints"]):
        if dt is not None and step_index(t, dt) is None:
            raise SchemaError(f"oracle.checkpoints[{i}]",
                              f"must be a multiple of oracle.dt = {dt}, got {t}")
    if checkpoints[-1] <= 0 or (dt is not None and step_index(checkpoints[-1], dt) < 1):
        of_dt = f" of oracle.dt = {dt}" if dt is not None else ""
        raise SchemaError("oracle.checkpoints", f"no checkpoint falls at step 1 or later{of_dt}: "
                                                f"the oracle would compare nothing after launch")

    times = cfg["times"]
    # only a packet run makes the times' array, where PACKET_WORK_BUDGET bounds it
    n_times = 0 if packet is None else len(times) if isinstance(times, list) else times["num"]
    table_grid = grid = None
    if packet is not None:
        # the table grid's spacing and size; an x_grid's size stays a float,
        # so that no size overflows
        if (grid := cfg["x_grid"]) is None:
            dx, n_side = default_grid_step(spec, packet, span)
            table_grid = dx, 2 * n_side + 1
        else:
            table_grid = grid["dx"], (grid["x_max"] - grid["x_min"]) / grid["dx"] + 1
    # before any array exists and the subcommand is known: the largest term
    terms = _array_bytes(cfg, spec, n_energies, mode is not None, n_times, packet, table_grid)
    largest = max(terms, key=terms.get)
    if terms[largest] > MEMORY_BUDGET:
        raise SchemaError("", f"the run would need about {terms[largest]:.3g} bytes of arrays "
                              f"({largest}), more than the budget of {MEMORY_BUDGET:.3g}")
    if energy_grid is not None:
        space = np.geomspace if energy_grid["scale"] == "log" else np.linspace
        energy_grid = space(energy_grid["min"], energy_grid["max"], n_energies)

    x_grid = oracle_grid = time_grid = None
    if packet is not None:
        work = n_k * table_grid[1] * n_times
        if work > PACKET_WORK_BUDGET:
            raise SchemaError("", f"{n_k} modes on {table_grid[1]:.4g} points at {n_times} "
                                  f"times ({work:.3g} mode-point-times) exceed the budget "
                                  f"of {PACKET_WORK_BUDGET:.3g}")
        if grid is not None:
            n_x = int(round((grid["x_max"] - grid["x_min"]) / grid["dx"])) + 1
            x_grid = grid["x_min"] + grid["dx"] * np.arange(n_x)
        oracle_grid = _build("oracle", staggered_grid, spec,
                             packet.x0 - oracle["margin_left"], spec.b + oracle["margin_right"],
                             oracle["dx"], dt, checkpoints[-1])
        work = oracle_grid.n_x * oracle_grid.n_t * SOLVES_PER_STEP
        if work > CN_WORK_BUDGET:
            raise SchemaError("oracle", f"{oracle_grid.n_t} Crank-Nicolson steps of "
                                        f"{SOLVES_PER_STEP} solves on {oracle_grid.n_x} "
                                        f"points ({work:.3g} point-solves) exceed the "
                                        f"budget of {CN_WORK_BUDGET:.3g}")
        time_grid = (np.array(times) if isinstance(times, list)
                     else np.linspace(times["start"], times["stop"], n_times))

    return RunConfig(
        raw=raw, potential=spec, mode=mode, energy_grid=energy_grid, packet=packet,
        n_k=n_k, k_span_sigmas=span, x_grid=x_grid, times=time_grid,
        oracle_grid=oracle_grid, checkpoints=checkpoints, estimated_bytes=terms,
        # keys whose typed value needs no other key pass through as they are
        **{key: cfg[key] for key in ("snapshot_times", "decompose_grid", "sweep",
                                     "evolve_x_stride", "out_dir", "workers")},
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("", f"cannot read config: {exc}") from exc
    return parse_config_text(text)
