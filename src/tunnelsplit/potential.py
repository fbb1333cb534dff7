"""Symmetric piecewise-constant barriers on a finite support.

Units are hbar = m = 1 throughout the package, so E = k^2/2 and a free
particle of wavenumber k moves at speed k. Outside [a, b] the potential
is identically zero. Interior segment boundaries follow a right-open
convention: evaluate() returns the height of the segment to the right,
so repeated runs are bit-reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricPotential, NonPositiveWidth, raise_first

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class PotentialSpec:
    """Validated barrier: ordered (width, height) segments starting at `a`.

    Immutable and hashable.
    """

    a: float
    segments: tuple[tuple[float, float], ...]
    b: float = field(init=False)
    x_c: float = field(init=False)
    symmetric: bool = field(init=False)

    def __post_init__(self):
        segments = np.array(self.segments, dtype=float).reshape(1, -1, 2)
        edges, symmetric = barrier_rows(np.array([self.a], dtype=float),
                                        segments[..., 0], segments[..., 1])
        object.__setattr__(self, "b", float(edges[0, -1]))
        object.__setattr__(self, "x_c", 0.5 * (self.a + self.b))
        object.__setattr__(self, "symmetric", bool(symmetric[0]))

    @property
    def width(self) -> float:
        return self.b - self.a

    def edges(self) -> np.ndarray:
        """Interface positions x_0 = a, ..., x_n = b (n = len(segments))."""
        return self.a + np.concatenate(([0.0], np.cumsum([w for w, _ in self.segments])))

    def heights(self) -> np.ndarray:
        return np.array([h for _, h in self.segments])

    def require_symmetric(self):
        if not self.symmetric:
            raise AsymmetricPotential(
                "height sequence is not mirror-symmetric about the midpoint"
            )


def barrier_rows(a: np.ndarray, widths: np.ndarray, heights: np.ndarray):
    """Edges (m, s + 1) and symmetry flags (m,) of the barriers starting at
    a (m,) with segment widths and heights (m, s): PotentialSpec's rules,
    checked on every row, the first failing row raising."""
    if not widths.shape[1]:
        raise NonPositiveWidth("potential needs at least one segment")
    raise_first(~((widths > 0) & (widths < math.inf)).all(axis=1), NonPositiveWidth,
                lambda i: f"segment widths must be finite and positive, got {widths[i].tolist()}")
    raise_first(~(np.isfinite(a) & np.isfinite(heights).all(axis=1)), ValueError,
                lambda i: f"a and the segment heights must be finite, "
                          f"got {a[i]}, {heights[i].tolist()}")
    # a sequential sum, so b = edges[:, -1] is a + sum(widths) left to right
    edges = a[:, None] + np.cumsum(np.concatenate((np.zeros((len(a), 1)), widths), 1), 1)
    symmetric = ((np.abs(widths - widths[:, ::-1]) <= SYMMETRY_TOL)
                 & (np.abs(heights - heights[:, ::-1]) <= SYMMETRY_TOL)).all(axis=1)
    return edges, symmetric


def make_rectangular(v0: float, length: float, a: float) -> PotentialSpec:
    """Single segment of height v0 on [a, a+length]."""
    return PotentialSpec(a=float(a), segments=((float(length), float(v0)),))


def make_piecewise(a: float, segments) -> PotentialSpec:
    """Validated multi-segment barrier; refuses asymmetric height sequences."""
    spec = PotentialSpec(a=float(a), segments=tuple((float(w), float(h)) for w, h in segments))
    spec.require_symmetric()
    return spec


def evaluate(spec: PotentialSpec, x) -> np.ndarray | float:
    """V(x); zero outside [a, b], right-open at interior boundaries."""
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    edges = spec.edges()
    inside = (x_arr >= spec.a) & (x_arr < spec.b)
    idx = np.clip(np.searchsorted(edges, x_arr[inside], side="right") - 1, 0, len(spec.segments) - 1)
    out[inside] = spec.heights()[idx]
    if np.isscalar(x):
        return float(out)
    return out
