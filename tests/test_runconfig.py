import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelsplit import cli
from tunnelsplit.cli import main
from tunnelsplit.clocks import CLOCK_BYTES, clock_block
from tunnelsplit.cranknicolson import misaligned_edges
from tunnelsplit.errors import SchemaError
from tunnelsplit.potential import make_piecewise
from tunnelsplit.runconfig import parse_config, parse_config_text
from tunnelsplit.splitting import DECOMPOSE_BYTES, decompose_block
from tunnelsplit.stationary import SOLVE_BYTES, ProblemBlock, block_bytes, solve_block

from test_cli import FAST

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
    # the Larmor frequencies are a constant of clocks, not a key
    assert "clock" not in cfg.raw
    assert cfg.raw["oracle"]["checkpoints"] == [0.0, 40.0, 80.0]
    assert cfg.potential.x_c == 0.0
    # the times' default is echoed, but only a packet run makes their array
    assert cfg.raw["times"] == {"start": 0.0, "stop": 80.0, "num": 81} and cfg.times is None
    assert parse(packet=CANONICAL["packet"]).times.size == 81


def test_unknown_top_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse(extra={"potentail": {}})
    assert "potentail" in str(err.value)


def test_unknown_nested_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse(extra={"oracle": {"dxx": 0.02}})
    assert "oracle.dxx" in str(err.value)


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
    cfg = parse(packet=CANONICAL["packet"], times=[0.0, 40.0, 80.0])
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
    # the rows at the sampled points and the kernels' bins, for 2 * 10**6 + 1 modes
    with pytest.raises(SchemaError, match="budget"):
        parse(packet=packet, n_k=2 * 10**6 + 1)
    # a 3-point table grid, but the rows of 10**6 modes on the oracle grid
    with pytest.raises(SchemaError, match="budget"):
        parse(packet=packet, n_k=10**6 + 1, x_grid={"x_min": -70.0, "x_max": 10.0, "dx": 40.0})


def test_times_evaluated_at_once_count_against_the_budget():
    """Evolve holds its states at every snapshot at once, and they are
    counted: 550 snapshots on every point of a 211334-point grid ask for
    5.6 GB of them, though 550 diagnostics times on that grid fit, and so
    do 550 snapshots of 40001 modes on a 101-point grid, whose phases and
    chirp z-transforms are made one batch of times at a time."""
    x_grid = {"x_min": -70.0, "x_max": 10.0, "dx": 0.8}
    parse_config_text(json.dumps(dict(CANONICAL, n_k=40001, x_grid=x_grid,
                                      snapshot_times=[0.1 * i for i in range(550)])))
    fine = {"x_min": -160.0, "x_max": 157.0, "dx": 0.0015}
    parse_config_text(json.dumps(dict(CANONICAL, x_grid=fine, evolve_x_stride=1,
                                      times={"start": 0.0, "stop": 80.0, "num": 550})))
    with pytest.raises(SchemaError, match="budget"):
        parse_config_text(json.dumps(dict(CANONICAL, x_grid=fine, evolve_x_stride=1,
                                          snapshot_times=[0.1 * i for i in range(550)])))


def test_oracle_work_counts_four_solves_per_step():
    """An explicit oracle.dt pays the (4,4) step's four tridiagonal solves:
    canonical at oracle.dx = dt = 0.0025 is 85202 points times 32000
    steps, 1.09e10 point-solves, over the budget (5.5e9 at two solves per
    step); at dt 0.005 it is 5.5e9."""
    fine = {"dx": 0.0025, "margin_left": 60.0, "margin_right": 100.0,
            "checkpoints": [0.0, 40.0, 80.0]}
    grid = parse_config_text(json.dumps(dict(CANONICAL, oracle=dict(fine, dt=0.005)))).oracle_grid
    assert (grid.n_x, grid.n_t) == (85202, 16000)
    with pytest.raises(SchemaError, match=r"32000 Crank-Nicolson steps of 4 solves .*1\.09e\+10"):
        parse_config_text(json.dumps(dict(CANONICAL, oracle=dict(fine, dt=0.0025))))


@pytest.mark.parametrize("k0, checkpoints, dt", [
    (1.0, [0.0, 40.0, 80.0], 80.0 / 66),  # canonical: k up to 1.4, E dt 1.19
    (2.0, [0.0, 40.0, 80.0], 80.0 / 192),  # k up to 2.4: 192 steps keep E dt <= 1.2
    (0.95, [0.0, 40.0, 80.0], 80.0 / 62),  # a slower packet takes a longer step
    (1.0, [0.0, 0.3, 40.0], 0.1),  # every checkpoint falls on a step
    (1.0, [0.0, 1.0 / 3.0, 80.0], 1.0 / 3.0),
    (1.0, [0.0, 0.7, 80.0, 1000.1], 0.1),
])
def test_default_oracle_step_follows_the_packet_spectrum(k0, checkpoints, dt):
    """Without oracle.dt the step is the largest on which every checkpoint
    falls with E dt <= DEFAULT_PHASE_STEP (1.2), E = k_max^2 / 2 the top of
    the packet's spectrum; the echo holds it, so that the run replays."""
    cfg = parse_config_text(json.dumps(dict(CANONICAL, packet=dict(CANONICAL["packet"], k0=k0),
                                            oracle={"checkpoints": checkpoints})))
    assert cfg.oracle_grid.dt == cfg.raw["oracle"]["dt"] == dt


def test_default_oracle_step_needs_a_packet_and_a_common_step():
    # no packet, no oracle: the checkpoints are checked, and no step is echoed
    assert "dt" not in parse().raw["oracle"]
    with pytest.raises(SchemaError, match="no checkpoint falls at step 1 or later: "):
        parse(oracle={"checkpoints": [0.0]})
    with pytest.raises(SchemaError, match=r"oracle\.checkpoints\[1\]: must be >= 0"):
        parse(oracle={"checkpoints": [0.0, -1.0]})
    # no whole number of steps reaches both 1 and sqrt(2)
    with pytest.raises(SchemaError, match=r"oracle\.dt: no step .*; set oracle\.dt"):
        parse_config_text(json.dumps(dict(CANONICAL, oracle={"checkpoints": [1.0, math.sqrt(2)]})))


@pytest.mark.parametrize("segments, dx", [
    ([[2.0, 1.0]], 0.08),  # canonical: K = k_max = 1.4, 56 points a wavelength bound 0.0801
    ([[0.6, 1.0], [3.0, 0.0], [0.6, 1.0]], 0.075),  # edges 0.6 apart: 0.6 / 8
    ([[0.1, 1.0], [0.1, 0.0], [0.1, 1.0]], 0.05),  # every segment two cells wide
    ([[2.0, 50.0]], 2.0 / 178),  # the evanescent wave's kappa = 9.98 sets K
])
def test_default_oracle_grid_follows_the_packet_and_the_barrier(segments, dx):
    """Without oracle.dx and margins the oracle grid is the packet's: the
    largest dx that aligns every edge on the half-cell grid with 56 points
    a shortest local wavelength and every segment two cells wide, and the
    margins that hold 7.34 position widths of the packet (sigma_x 10) at
    launch on the left and at the last checkpoint on the right, the barrier's
    width ahead. The echo holds them, so that the run replays; given keys
    are kept."""
    potential = {"a": -9.0, "segments": segments}
    cfg = parse_config_text(json.dumps(dict(CANONICAL, potential=potential)))
    oracle, width = cfg.raw["oracle"], cfg.potential.width
    assert oracle["dx"] == pytest.approx(dx, rel=1e-12)
    assert oracle["dx"] == pytest.approx(cfg.oracle_grid.dx, rel=1e-12)
    assert misaligned_edges(cfg.potential, oracle["dx"]) is None
    assert min(w for w, _ in segments) / oracle["dx"] >= 2.0 - 1e-9
    spread = 10.0 * math.hypot(1.0, 80.0 / 200.0)
    assert oracle["margin_left"] == pytest.approx(7.34 * 10.0, rel=1e-3)
    assert oracle["margin_right"] == pytest.approx(-60.0 + 80.0 + 7.34 * spread + 9.0,
                                                   rel=1e-3)
    assert cfg.oracle_grid.x_min <= -60.0 - oracle["margin_left"]
    assert cfg.oracle_grid.x_max >= -9.0 + width + oracle["margin_right"]
    assert parse_config_text(json.dumps(cfg.echo())).oracle_grid == cfg.oracle_grid
    given = {"dx": 0.02, "margin_left": 60.0, "margin_right": 100.0}
    kept = parse_config_text(json.dumps(dict(CANONICAL, oracle=given))).raw["oracle"]
    assert {key: kept[key] for key in given} == given


@pytest.mark.parametrize("packet, oracle, sigma_x", [
    ({"x0": -200.0}, {}, 10.0),  # the front at t = 80 is at -40.95, left of a = -9
    ({"k0": 5.0, "sigma_k": 0.5}, {"checkpoints": [0.0, 2.0]}, 1.0),  # front at -39.6
])
def test_default_margins_hold_a_packet_that_stays_left_of_the_barrier(packet, oracle, sigma_x):
    """A packet whose 7.34-width front is still left of a at the last
    checkpoint parses: nothing of it passes b, so the right margin is 0,
    not negative, and the left one holds 7.34 position widths at launch."""
    cfg = parse_config_text(json.dumps(dict(CANONICAL, packet=dict(CANONICAL["packet"], **packet),
                                            oracle=oracle)))
    echoed = cfg.raw["oracle"]
    assert echoed["margin_left"] == pytest.approx(7.34 * sigma_x, rel=1e-3)
    assert echoed["margin_right"] == 0.0
    assert cfg.oracle_grid.x_max >= cfg.potential.b
    assert parse_config_text(json.dumps(cfg.echo())).oracle_grid == cfg.oracle_grid


def test_parsing_leaves_fractions_and_decimal_unloaded():
    """The default oracle.dx is derived while every packet config parses,
    with no fractions.Fraction, which loads decimal and about 0.4 MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tunnelsplit.runconfig import parse_config; "
         "parse_config(sys.argv[1]); "
         "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))",
         str(ROOT / "configs" / "canonical.json")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("segments, n_k", [(1, 513), (100, 513), (400, 65)])
def test_diagnostics_stay_within_the_estimate(monkeypatch, tmp_path, segments, n_k):
    """The traced peak of each packet subcommand, or phase of one, on the
    canonical barrier cut into equal segments is at most its own term of
    the parsed config's estimate: diagnostics, the table build with its
    decomposition and the series; evolve, the table on every stride-th
    point and the states at its snapshots; oracle-check's synthesis, its
    table of values and chirp z-transforms; and its Crank-Nicolson run,
    the synthesized fields held, with the four factors' bands. The
    decomposition's rows grow with the segments (a traced table build of
    5.6, 25.6 and 97.1 MB at 1, 100 and 400 segments and 513 modes), and
    so does each term. At 400 segments only diagnostics runs: each
    command's table makes the same decomposition, 1.7 s under tracemalloc
    at 65 modes. The propagation's term leaves room for zgttrf copying
    each factor's diagonals, so test_cranknicolson's
    test_zgttrf_factors_each_factor_in_place pins that. test_cli's small
    config evolves within its evolve term too."""
    potential = {"a": -9.0, "segments": [[2.0 / segments, 1.0]] * segments}
    cfg = parse_config_text(json.dumps(dict(CANONICAL, potential=potential, n_k=n_k)))

    def traced_peak(command, cfg):
        tracemalloc.start()
        try:
            command(cfg, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = {"diagnostics": traced_peak(cli.cmd_diagnostics, cfg)}
    if segments < 400:
        peaks["evolve"] = traced_peak(cli.cmd_evolve, cfg)
        propagate = cli.crank_nicolson_propagate

        def phases(*args, **kwargs):
            # the synthesis ends where the propagation starts
            peaks["oracle-check synthesis"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = propagate(*args, **kwargs)
            peaks["oracle-check propagation"] = tracemalloc.get_traced_memory()[1]
            return result

        monkeypatch.setattr(cli, "crank_nicolson_propagate", phases)
        traced_peak(cli.cmd_oracle_check, cfg)
    terms = {name: cfg.estimated_bytes[name] for name in peaks}
    for name, term in terms.items():
        assert peaks[name] <= term, (name, peaks, terms)
    if segments == 1:
        small = parse_config_text(json.dumps(FAST))
        assert traced_peak(cli.cmd_evolve, small) <= small.estimated_bytes["evolve"]


@pytest.mark.parametrize("width, energies, rows", [
    (2.0, (0.3, 0.7), 16),  # evanescent pieces
    (2.0, (1.2, 1.8), 16),  # oscillating pieces
    (0.2, (0.3, 0.7), 16),  # pieces in the pair form, the costliest in decompose_block
    (2.0, (0.3, 0.7), 1),  # one row: each segment's Python objects dominate
])
def test_block_kernels_stay_within_their_stated_bytes(width, energies, rows):
    """solve_block, decompose_block and clock_block on 80 segments peak
    within block_bytes of their own module's bytes per row and per row and
    segment, and SEGMENT_BYTES a segment. Below about 40 segments on one
    row, fixed costs of some 10 kB show too, which no budget needs."""
    spec = make_piecewise(-1.0, [[width / 80, 1.0]] * 80)
    for kernel, per in ((solve_block, SOLVE_BYTES), (decompose_block, DECOMPOSE_BYTES),
                        (clock_block, CLOCK_BYTES)):
        problems = ProblemBlock.of(spec, np.linspace(*energies, rows))
        tracemalloc.start()
        try:
            kernel(problems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes(rows, 80, per), (kernel.__name__, peak)


def test_fine_grid_fits_without_a_whole_grid_table():
    """No array spans n_k by the table grid, so canonical on 211334 points
    fits the budget; evolve's states on every 100th point are a small part
    of it. Counted with a whole-grid cos/sin table it asked for 3.5 GB."""
    grid = {"x_min": -160.0, "x_max": 157.0, "dx": 0.0015}
    cfg = parse_config_text(json.dumps(dict(CANONICAL, x_grid=grid, evolve_x_stride=100)))
    assert cfg.x_grid.size == 211334
    assert cfg.evolve_x_stride == 100


@pytest.mark.parametrize("n", [0, 1])
def test_decompose_grid_under_two_points_rejected(n):
    # fewer than two points cannot run from one pad's end to the other's
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


def test_large_workers_parsed_and_echoed_as_given():
    # parsed only: `workers` starts nothing, so no count is capped
    cfg = parse(workers=10**6)
    assert cfg.workers == 10**6
    assert cfg.echo()["workers"] == 10**6


def test_readme_config_block_is_the_canonical_echo():
    """README's config example lists every key with its canonical value, so
    a key added to or deleted from the schema must be documented there."""
    block = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    assert json.loads(block) == parse_config(str(ROOT / "configs" / "canonical.json")).echo()


def test_readme_library_block_runs(capsys):
    """README's library example runs as written, so an API change must
    update it."""
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


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
    "k_span_sigmas": 5.75,
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
