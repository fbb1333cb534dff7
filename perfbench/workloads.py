"""Benchmark workloads: one tunnelsplit subcommand each, with configs made
from a seed.

Seed 0 is the canonical set (configs/canonical.json plus the canonical
barrier-width sweep). Any other seed perturbs only physical parameters:
the packet's k0, the barrier height and the sweep's energy ratio and
kappa*L range. The k grid, the x grid, the oracle grid, the time grids and
the sweep length stay fixed, so every seed asks for the same work.
"""

import random
from dataclasses import dataclass

# Canonical run, as in configs/canonical.json.
CANONICAL = {
    "potential": {"a": -9.0, "segments": [[2.0, 1.0]]},
    "energy": {"E": 0.5},
    "packet": {"k0": 1.0, "sigma_k": 0.05, "x0": -60.0},
    "times": {"start": 0.0, "stop": 80.0, "num": 81},
    "snapshot_times": [0.0, 20.0, 40.0, 60.0, 80.0],
    "n_k": 513,
}

# Canonical barrier family for the clock sweep: E = energy_ratio * v0 fixed,
# width swept so kappa*L runs from 1 to 14. Beyond about kappa*L = 17 the
# transmission weight drops below ZERO_FLUX and the sweep stops with ZeroFlux.
CANONICAL_SWEEP = {"v0": 1.0, "energy_ratio": 0.5, "kappa_l_min": 1.0,
                   "kappa_l_max": 14.0, "num": 6000}

# Self-test sizes: same code paths, a few seconds per run.
TINY = {
    "n_k": 65,
    "times": {"start": 0.0, "stop": 80.0, "num": 5},
    "snapshot_times": [0.0, 40.0],
    "oracle_checkpoints": [0.0, 2.0],
    "sweep_num": 24,
}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    workers: int
    # children per run at least; a short workload runs several so that the
    # run's median is not one sample taken during a burst of host CPU steal
    min_children: int = 1


# The reason for each workload is its `why` in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("diagnostics", "diagnostics", 1),
        Workload("oracle", "oracle-check", 1),
        Workload("clock-sweep", "hartman-sweep", 1),
        Workload("evolve-w2", "evolve", 2, min_children=3),
    )
}


def physical_parameters(seed: int) -> dict:
    """k0, barrier height and sweep parameters for one seed."""
    if seed == 0:
        return {
            "k0": CANONICAL["packet"]["k0"],
            "height": CANONICAL["potential"]["segments"][0][1],
            "energy_ratio": CANONICAL_SWEEP["energy_ratio"],
            "kappa_l_min": CANONICAL_SWEEP["kappa_l_min"],
            "kappa_l_max": CANONICAL_SWEEP["kappa_l_max"],
        }
    rng = random.Random(seed)
    return {
        "k0": round(rng.uniform(0.95, 1.05), 6),
        "height": round(rng.uniform(0.9, 1.1), 6),
        "energy_ratio": round(rng.uniform(0.45, 0.55), 6),
        "kappa_l_min": round(rng.uniform(0.9, 1.1), 6),
        "kappa_l_max": round(rng.uniform(13.5, 14.0), 6),
    }


def make_config(workload: Workload, seed: int, tiny: bool = False,
                workers: int | None = None) -> dict:
    """The JSON config the program receives for one workload and seed."""
    p = physical_parameters(seed)
    width = CANONICAL["potential"]["segments"][0][0]
    cfg = {
        "potential": {"a": CANONICAL["potential"]["a"], "segments": [[width, p["height"]]]},
        "energy": dict(CANONICAL["energy"]),
        "packet": dict(CANONICAL["packet"], k0=p["k0"]),
        "times": dict(CANONICAL["times"]),
        "snapshot_times": list(CANONICAL["snapshot_times"]),
        "n_k": CANONICAL["n_k"],
        "workers": workload.workers if workers is None else workers,
    }
    if workload.subcommand == "hartman-sweep":
        cfg["sweep"] = {
            "v0": p["height"],
            "energy_ratio": p["energy_ratio"],
            "kappa_l_min": p["kappa_l_min"],
            "kappa_l_max": p["kappa_l_max"],
            "num": CANONICAL_SWEEP["num"],
        }
    if tiny:
        cfg["n_k"] = TINY["n_k"]
        cfg["times"] = dict(TINY["times"])
        cfg["snapshot_times"] = list(TINY["snapshot_times"])
        if workload.subcommand == "oracle-check":
            cfg["oracle"] = {"checkpoints": list(TINY["oracle_checkpoints"])}
        if "sweep" in cfg:
            cfg["sweep"]["num"] = TINY["sweep_num"]
    return cfg
