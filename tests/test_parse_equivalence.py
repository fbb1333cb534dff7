"""Every config that the repo ships, the benchmark makes or the tests
build parses to the same echo and the same typed values as the parser
gave when `parse_digests.json` was recorded: the digests pin them.

A change that means to move a parse rewrites the digests by running this
file (`PYTHONPATH=src python tests/test_parse_equivalence.py`) and says
which digests moved and why."""

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tunnelsplit.runconfig import parse_config_text

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("parse_digests.json")

# the typed values of a parse, digested with its echo
TYPED = ("potential", "mode", "energy_grid", "packet", "n_k", "k_span_sigmas", "x_grid",
         "times", "snapshot_times", "decompose_grid", "oracle_grid", "checkpoints", "sweep",
         "evolve_x_stride", "out_dir", "workers")


def digest(cfg) -> str:
    h = hashlib.sha256(json.dumps(cfg.echo(), sort_keys=True).encode())
    for name in TYPED:
        value = getattr(cfg, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


@functools.cache
def labelled_configs() -> dict:
    from test_cli import FAST
    from test_runconfig import CANONICAL, MINIMAL

    configs = {f"configs/{path.name}": json.loads(path.read_text())
               for path in sorted((ROOT / "configs").glob("*.json"))}
    workloads = _workloads()
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(10):
            for tiny in (False, True):
                configs[f"perfbench {name} seed {seed}{' tiny' if tiny else ''}"] = (
                    workloads.make_config(workload, seed, tiny))
    grid = {"min": 0.1, "max": 10.0, "n": 5}
    configs.update({
        "tests minimal": MINIMAL,
        "tests fast": FAST,
        "tests energy grid log": dict(MINIMAL, energy={"grid": grid}),
        "tests energy grid linear": dict(MINIMAL, energy={"grid": dict(grid, scale="linear")}),
        "tests times list": dict(MINIMAL, times=[0.0, 40.0, 80.0]),
        "tests canonical x_grid": dict(CANONICAL, x_grid={"x_min": -150.0, "x_max": 134.0,
                                                          "dx": 0.1}),
        "tests canonical oracle dt": dict(CANONICAL, oracle={"dt": 0.5}),
        "tests canonical 100 segments": dict(CANONICAL, potential={
            "a": -9.0, "segments": [[0.02, 1.0]] * 100}),
    })
    return configs


RECORDED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@pytest.mark.parametrize("label", sorted(RECORDED))
def test_config_parses_as_recorded(label):
    assert digest(parse_config_text(json.dumps(labelled_configs()[label]))) == RECORDED[label]


def test_every_labelled_config_is_recorded():
    assert set(labelled_configs()) == set(RECORDED)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    DIGESTS.write_text(json.dumps({label: digest(parse_config_text(json.dumps(config)))
                                   for label, config in labelled_configs().items()},
                                  indent=1, sort_keys=True) + "\n")
