"""Coherent transmitted/reflected sub-wave decomposition of 1D barrier
scattering, with packet dynamics, conservation diagnostics and
dwell / Larmor clock times."""

__version__ = "0.1.0"

from .potential import PotentialSpec, evaluate, make_piecewise, make_rectangular
from .stationary import ComponentField, EnergyMode, solve_full
from .splitting import (
    DecompositionBlock,
    SplitAmplitudes,
    build_decomposition,
    split_amplitude_candidates,
)

__all__ = [
    "PotentialSpec",
    "make_rectangular",
    "make_piecewise",
    "evaluate",
    "EnergyMode",
    "ComponentField",
    "solve_full",
    "SplitAmplitudes",
    "split_amplitude_candidates",
    "DecompositionBlock",
    "build_decomposition",
]
