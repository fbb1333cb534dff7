import copy
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelsplit.cli import main
from tunnelsplit.errors import SchemaError
from tunnelsplit.runconfig import parse_config, parse_config_text

MINIMAL = {"potential": {"a": -1.0, "segments": [[2.0, 1.0]]}}
ROOT = Path(__file__).resolve().parents[1]
CANONICAL = json.loads((ROOT / "configs" / "canonical.json").read_text())


def parse(extra=None, **overrides):
    cfg = dict(MINIMAL)
    cfg.update(extra or {})
    cfg.update(overrides)
    return parse_config_text(json.dumps(cfg))


def test_minimal_defaults_materialized():
    cfg = parse()
    assert cfg.n_k == 513
    assert cfg.raw["n_k"] == 513
    assert cfg.raw["clock"]["omega_factors"] == [1e-2, 1e-3, 1e-4]
    assert cfg.raw["oracle"]["checkpoints"] == [0.0, 40.0, 80.0]
    assert cfg.potential.x_c == 0.0
    assert cfg.times.size == 81


def test_unknown_top_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse(extra={"potentail": {}})
    assert "potentail" in str(err.value)


def test_unknown_nested_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse(extra={"clock": {"omega_factor": [1e-2]}})
    assert "clock.omega_factor" in str(err.value)


def test_asymmetric_potential_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse(potential={"a": 0.0, "segments": [[1.0, 0.5], [1.0, 2.0]]})
    assert err.value.cause_name == "AsymmetricPotential"


def test_nonpositive_width_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse(potential={"a": 0.0, "segments": [[-1.0, 0.5]]})
    assert err.value.cause_name == "NonPositiveWidth"


def test_backward_spectrum_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse(packet={"k0": 0.2, "sigma_k": 0.1, "x0": -40.0})
    assert err.value.cause_name == "SpectrumDomainError"


def test_packet_energy_overflow_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse(packet={"k0": 1e300, "sigma_k": 0.1, "x0": -40.0})
    assert err.value.cause_name == "SpectrumDomainError"


def test_packet_overlapping_barrier_rejected():
    with pytest.raises(SchemaError):
        parse(packet={"k0": 1.0, "sigma_k": 0.05, "x0": -10.0})


def test_energy_single_and_grid_are_exclusive():
    with pytest.raises(SchemaError):
        parse(energy={"E": 0.5, "grid": {"min": 0.1, "max": 1.0, "n": 5}})


def test_nonpositive_energy_rejected():
    with pytest.raises(SchemaError) as err:
        parse(energy={"E": -2.0})
    assert err.value.cause_name == "ValueError"


def test_energy_grid_spacings():
    cfg = parse(energy={"grid": {"min": 0.1, "max": 10.0, "n": 5, "scale": "log"}})
    assert cfg.energy_grid.size == 5
    assert cfg.energy_grid[0] == pytest.approx(0.1)
    lin = parse(energy={"grid": {"min": 0.1, "max": 10.0, "n": 5, "scale": "linear"}})
    assert lin.energy_grid[2] == pytest.approx(5.05)


def test_times_as_list():
    cfg = parse(times=[0.0, 40.0, 80.0])
    assert list(cfg.times) == [0.0, 40.0, 80.0]


def test_bad_n_k_rejected():
    for bad in (512, 31):
        with pytest.raises(SchemaError):
            parse(n_k=bad)


def test_span_interacts_with_packet():
    with pytest.raises(SchemaError) as err:
        parse(
            packet={"k0": 0.6, "sigma_k": 0.1, "x0": -60.0},
            k_span_sigmas=7.0,
        )
    assert err.value.cause_name == "SpectrumDomainError"


def test_run_size_over_budget_rejected():
    packet = {"k0": 1.0, "sigma_k": 0.05, "x0": -60.0}
    assert parse(packet=packet).x_grid is None
    # exp(ikx) on the default grid's 10241 points, 2 * 10**6 + 1 modes
    with pytest.raises(SchemaError, match="budget"):
        parse(packet=packet, n_k=2 * 10**6 + 1)
    # a 3-point table grid, but exp(ikx) blocks of 10**6 modes on the oracle grid
    with pytest.raises(SchemaError, match="budget"):
        parse(packet=packet, n_k=10**6 + 1, x_grid={"x_min": -70.0, "x_max": 10.0, "dx": 40.0})


@pytest.mark.parametrize("n", [0, 1])
def test_decompose_grid_under_two_points_rejected(n):
    # fewer than two points leaves the decompose footer nothing to measure
    with pytest.raises(SchemaError):
        parse(decompose_grid={"n": n})


def test_decompose_grid_of_two_points_accepted():
    assert parse(decompose_grid={"n": 2}).decompose_grid["n"] == 2


def test_oracle_checkpoints_must_be_a_list():
    for bad in ([], 40.0):
        with pytest.raises(SchemaError):
            parse(oracle={"checkpoints": bad})


def test_workers_validated():
    with pytest.raises(SchemaError):
        parse(workers=0)


def test_workers_capped_at_cpu_count():
    # validation only: no pool is started
    cfg = parse(workers=10**6)
    assert cfg.workers == os.cpu_count()
    assert cfg.echo()["workers"] == os.cpu_count()


def test_readme_config_block_is_the_canonical_echo():
    """README's config example lists every key with its canonical value, so
    a key added to or deleted from the schema must be documented there."""
    block = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    assert json.loads(block) == parse_config(str(ROOT / "configs" / "canonical.json")).echo()


def test_config_echo_replays(tmp_path):
    cfg = parse(energy={"E": 0.5})
    echoed = json.dumps(cfg.echo())
    again = parse_config_text(echoed)
    assert again.raw == cfg.raw


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        parse_config(str(tmp_path / "nope.json"))


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        parse_config(str(path))


def _leaves(obj, path=()):
    """Key paths of the values in nested objects that are not objects."""
    if not isinstance(obj, dict):
        return [path]
    return [leaf for key, value in obj.items() for leaf in _leaves(value, path + (key,))]


ECHO = parse_config_text(json.dumps(
    dict(CANONICAL, x_grid={"x_min": -150.0, "x_max": 134.0, "dx": 0.1}))).echo()
BAD_VALUES = [None, "a", [], {}, -1, 0, True, math.nan, math.inf, [1], 1e300]


@settings(max_examples=len(_leaves(ECHO)) * len(BAD_VALUES), deadline=None, derandomize=True)
@given(st.sampled_from(_leaves(ECHO)), st.sampled_from(BAD_VALUES))
def test_any_leaf_value_parses_or_is_schema_error(path, value):
    cfg = copy.deepcopy(ECHO)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parse_config_text(json.dumps(cfg))
    except SchemaError:
        pass


# a run of each subcommand below takes a few tens of milliseconds
TINY = parse_config_text(json.dumps({
    "potential": {"a": -2.0, "segments": [[1.0, 1.0]]},
    "energy": {"E": 0.6},
    "packet": {"k0": 1.5, "sigma_k": 0.25, "x0": -12.5},
    "times": {"start": 0.0, "stop": 12.0, "num": 3},
    "n_k": 65,
    "k_span_sigmas": 5.5,
    "x_grid": {"x_min": -30.0, "x_max": 26.0, "dx": 0.1},
    "decompose_grid": {"pad": 2.0, "n": 65},
})).echo()


@settings(max_examples=len(_leaves(TINY)) * len(BAD_VALUES), deadline=None, derandomize=True)
@given(st.sampled_from(_leaves(TINY)), st.sampled_from(BAD_VALUES))
def test_any_leaf_value_runs_or_fails_as_config_or_numerics(path, value):
    """A leaf mutation runs through the whole pipeline of each subcommand
    without an internal fault: exit 0, or 2 or 3 with an error.json."""
    cfg = copy.deepcopy(TINY)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        for subcommand in ("stationary", "decompose", "clock", "diagnostics"):
            out = Path(tmp) / subcommand
            code = main([subcommand, str(config), "--out", str(out)])
            assert code in (0, 2, 3), (subcommand, path, value, code)
            if code:
                assert json.loads((out / "error.json").read_text())["exit_code"] == code
