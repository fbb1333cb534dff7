"""Coherent transmitted/reflected sub-wave decomposition of 1D barrier
scattering, with packet dynamics, conservation diagnostics and
dwell / Larmor clock times."""

__version__ = "0.1.0"

from .potential import PotentialSpec, evaluate, make_piecewise, make_rectangular
from .stationary import ComponentField, EnergyMode, ScatteringAmplitudes, solve_full
from .splitting import (
    SplitAmplitudes,
    StationaryDecomposition,
    build_decomposition,
    split_amplitude_candidates,
)

__all__ = [
    "PotentialSpec",
    "make_rectangular",
    "make_piecewise",
    "evaluate",
    "EnergyMode",
    "ScatteringAmplitudes",
    "ComponentField",
    "solve_full",
    "SplitAmplitudes",
    "split_amplitude_candidates",
    "StationaryDecomposition",
    "build_decomposition",
]
