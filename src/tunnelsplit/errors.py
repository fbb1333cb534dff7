"""Exception taxonomy shared by all modules.

Three tiers matter for the CLI exit code: configuration problems
(SchemaError, exit 2), numerical-contract violations (exit 3) and
internal faults that should never happen on valid input (exit 4).
"""

import numpy as np


class TunnelSplitError(Exception):
    """Base class for every error raised by this package."""


# --- configuration -------------------------------------------------------

class SchemaError(TunnelSplitError):
    """Config rejected before any computation. Carries the field path."""

    def __init__(self, path: str, message: str, cause_name: str | None = None):
        self.path = path
        self.cause_name = cause_name
        label = f"{path}: {message}" if path else message
        if cause_name:
            label = f"{label} [{cause_name}]"
        super().__init__(label)


# --- potential -----------------------------------------------------------

class NonPositiveWidth(TunnelSplitError):
    """A barrier segment was given zero or negative width."""


class AsymmetricPotential(TunnelSplitError):
    """Height sequence is not mirror-symmetric; the decomposition refuses it."""


# --- stationary solver ---------------------------------------------------

class OpacityOverflow(TunnelSplitError):
    """Accumulated evanescent decay exceeds the float64 budget (sum of
    kappa*width > 300); reported instead of silently mitigated."""


class SolveSingular(TunnelSplitError):
    """Internal fault: the stationary solve produced an inconsistent result."""


# --- splitting -----------------------------------------------------------

class NotNormalized(TunnelSplitError):
    """T + R deviates from 1 beyond tolerance."""


class OddSelectionFailed(TunnelSplitError):
    """Neither amplitude root produced a sub-wave vanishing at the midpoint."""


# --- packet dynamics -----------------------------------------------------

class SpectrumDomainError(TunnelSplitError):
    """The spectral grid would touch k <= 0."""


class GridTooCoarse(TunnelSplitError):
    """Estimated quadrature error of a norm exceeds the contract bound."""


# --- time-domain oracle --------------------------------------------------

class BoundaryContamination(TunnelSplitError):
    """Probability reached the hard walls of the propagation box."""


class GridMismatch(TunnelSplitError):
    """Two fields compared on different x grids."""


# --- clocks --------------------------------------------------------------

class ZeroFlux(TunnelSplitError):
    """Sub-process absent at this energy; its dwell time is undefined."""


class ClockNotFinite(TunnelSplitError):
    """A present channel's clock time is not finite; raised, never written."""


INTERNAL_ERRORS = (SolveSingular,)


def raise_first(bad, error, message):
    """Raise error(message(i)) for the first row i that the mask `bad` flags, if any."""
    if np.any(bad):
        raise error(message(int(np.argmax(bad))))
