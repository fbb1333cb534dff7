"""Stationary scattering states via exact per-segment transfer matrices.

The plane-wave transfer matrix M maps the coefficient pair (c+, c-) of
psi = c+ exp(ikx) + c- exp(-ikx) at x = a to the pair at x = b. Its
Wronskian is exactly 1, which allows the reduction A_T = 1/M22,
A_R = -M21/M22: both stay relatively accurate however opaque the
barrier, because no growing exponential is ever differenced.

Interior fields are represented per segment in a basis of bounded
functions (two decaying exponentials for evanescent segments), built by
cascades that run along the local growth direction. `state_from_left`
is the generic propagator for arbitrary boundary data; its absolute
error grows like exp(kappa * depth) when the true solution decays, so
the decomposition code uses `state_from_right` / `state_from_midpoint`
for the components where that matters.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import OpacityOverflow, SolveSingular
from .potential import PotentialSpec
from .tolerances import OPACITY_MAX, UNITARITY

# |q^2| w^2 below this: the (psi, psi') anchored form is used, which is
# smooth through q = 0 (the exact linear solution in the limit).
_PAIRFORM_Z2 = 1e-10


@dataclass(frozen=True)
class EnergyMode:
    """Propagating energy E > 0 with wavenumber k = sqrt(2E)."""

    E: float
    k: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.E) and self.E > 0):
            raise ValueError(f"energy must be finite and positive, got {self.E}")
        object.__setattr__(self, "k", math.sqrt(2.0 * self.E))

    @classmethod
    def from_k(cls, k: float) -> "EnergyMode":
        return cls(E=0.5 * k * k)


class SegmentWave(NamedTuple):
    q: complex
    degenerate: bool


def segment_wavevector(E: float, V: float) -> SegmentWave:
    """Local wavenumber: real above the segment, i*kappa below, 0 at E = V."""
    q2 = 2.0 * (E - V)
    if abs(q2) <= 1e-12 * max(1.0, 2.0 * abs(E), 2.0 * abs(V)):
        return SegmentWave(0j, True)
    if q2 > 0:
        return SegmentWave(complex(math.sqrt(q2)), False)
    return SegmentWave(1j * math.sqrt(-q2), False)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Transmission/reflection amplitudes of the unit-incidence solution."""

    A_T: complex
    A_R: complex
    T: float = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "T", abs(self.A_T) ** 2)
        object.__setattr__(self, "R", abs(self.A_R) ** 2)
        if not (math.isfinite(self.T) and math.isfinite(self.R)):
            raise SolveSingular("non-finite scattering amplitudes")
        if abs(self.T + self.R - 1.0) > UNITARITY:
            raise SolveSingular(
                f"flux not conserved: T + R - 1 = {self.T + self.R - 1.0:.3e}"
            )


@dataclass(frozen=True)
class BoundaryAmplitudes:
    """Plane-wave pair fixing a solution on one side of the barrier."""

    incoming: complex
    outgoing: complex
    side: str = "left"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


@dataclass
class ComponentField:
    """Complex samples of one wave component on an x grid."""

    x: np.ndarray
    values: np.ndarray
    label: str = ""
    t: float | None = None


# --- stable scalar helpers -------------------------------------------------

def _sinc_c(z: complex) -> complex:
    """sin(z)/z for complex z, series-stabilized near zero."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0)
    return cmath.sin(z) / z


def _pair_matrix(q2: float, w: float) -> np.ndarray:
    """Maps (psi, psi') across a segment of width w; determinant exactly 1."""
    z = cmath.sqrt(complex(q2)) * w
    c = cmath.cos(z)
    s = _sinc_c(z)
    return np.array([[c, w * s], [-q2 * w * s, c]], dtype=complex)


def total_opacity(spec: PotentialSpec, mode: EnergyMode) -> float:
    """Sum of kappa*width over evanescent segments; the overflow budget."""
    total = 0.0
    for w, h in spec.segments:
        q2 = 2.0 * (mode.E - h)
        if q2 < 0:
            total += math.sqrt(-q2) * w
    return total


def _check_opacity(spec: PotentialSpec, mode: EnergyMode):
    opacity = total_opacity(spec, mode)
    if opacity > OPACITY_MAX:
        raise OpacityOverflow(
            f"evanescent decay budget exceeded: sum kappa*w = {opacity:.1f} > {OPACITY_MAX}"
        )


# --- transfer matrix and amplitudes ----------------------------------------

def total_transfer(spec: PotentialSpec, mode: EnergyMode) -> np.ndarray:
    """Plane-wave-basis transfer matrix from x = a to x = b; det M = 1."""
    _check_opacity(spec, mode)
    k = mode.k
    P = np.eye(2, dtype=complex)
    for w, h in spec.segments:
        P = _pair_matrix(2.0 * (mode.E - h), w) @ P
    ea = cmath.exp(1j * k * spec.a)
    eb = cmath.exp(1j * k * spec.b)
    W_a = np.array([[ea, 1 / ea], [1j * k * ea, -1j * k / ea]], dtype=complex)
    W_b_inv = np.array(
        [[0.5 / eb, 1 / (2j * k * eb)], [0.5 * eb, -eb / (2j * k)]], dtype=complex
    )
    return W_b_inv @ P @ W_a


def solve_full(spec: PotentialSpec, mode: EnergyMode) -> ScatteringAmplitudes:
    """Unit wave incident from the left, nothing incoming from the right."""
    M = total_transfer(spec, mode)
    if abs(M[1, 1]) < 1e-150 or not np.isfinite(M).all():
        raise SolveSingular("transfer matrix singular or non-finite")
    # det M = 1 exactly, so A_T = det M / M22 reduces to 1/M22.
    A_T = 1.0 / M[1, 1]
    A_R = -M[1, 0] / M[1, 1]
    return ScatteringAmplitudes(A_T=A_T, A_R=A_R)


# --- piecewise field representation -----------------------------------------

@dataclass
class SegmentPiece:
    """One segment's solution in a basis of bounded functions.

    osc:  c1 exp(iq(x-xl)) + c2 exp(-iq(x-xl)),      q = sqrt(q2) > 0
    evan: c1 exp(-kp(x-xl)) + c2 exp(-kp(xr-x)),     kp = sqrt(-q2) > 0
    pair: c1 cos(q d) + c2 d sinc(q d), d = x - xl   (near-degenerate q)
    """

    xl: float
    xr: float
    q2: float
    kind: str
    c1: complex
    c2: complex

    def values(self, x: np.ndarray) -> np.ndarray:
        d = x - self.xl
        if self.kind == "osc":
            q = math.sqrt(self.q2)
            return self.c1 * np.exp(1j * q * d) + self.c2 * np.exp(-1j * q * d)
        if self.kind == "evan":
            kp = math.sqrt(-self.q2)
            return self.c1 * np.exp(-kp * d) + self.c2 * np.exp(-kp * (self.xr - x))
        z = np.sqrt(complex(self.q2)) * d
        return self.c1 * np.cos(z) + self.c2 * d * _sinc_arr(z)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        d = x - self.xl
        if self.kind == "osc":
            q = math.sqrt(self.q2)
            return 1j * q * (self.c1 * np.exp(1j * q * d) - self.c2 * np.exp(-1j * q * d))
        if self.kind == "evan":
            kp = math.sqrt(-self.q2)
            return kp * (-self.c1 * np.exp(-kp * d) + self.c2 * np.exp(-kp * (self.xr - x)))
        z = np.sqrt(complex(self.q2)) * d
        return -self.q2 * d * _sinc_arr(z) * self.c1 + np.cos(z) * self.c2


def _sinc_arr(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 - zs * zs / 6.0 * (1.0 - zs * zs / 20.0)
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out


def _segment_kind(q2: float, w: float) -> str:
    if abs(q2) * w * w < _PAIRFORM_Z2:
        return "pair"
    return "osc" if q2 > 0 else "evan"


def _forward_step(q2, w, xl, psi, dpsi):
    kind = _segment_kind(q2, w)
    if kind == "pair":
        piece = SegmentPiece(xl, xl + w, q2, kind, psi, dpsi)
        m = _pair_matrix(q2, w)
        return piece, m[0, 0] * psi + m[0, 1] * dpsi, m[1, 0] * psi + m[1, 1] * dpsi
    if kind == "osc":
        q = math.sqrt(q2)
        u = 0.5 * (psi + dpsi / (1j * q))
        v = 0.5 * (psi - dpsi / (1j * q))
        e = cmath.exp(1j * q * w)
        piece = SegmentPiece(xl, xl + w, q2, kind, u, v)
        return piece, u * e + v / e, 1j * q * (u * e - v / e)
    kp = math.sqrt(-q2)
    u = 0.5 * (psi - dpsi / kp)
    v = math.exp(kp * w) * 0.5 * (psi + dpsi / kp)
    eps = math.exp(-kp * w)
    piece = SegmentPiece(xl, xl + w, q2, kind, u, v)
    return piece, u * eps + v, kp * (v - u * eps)


def _backward_step(q2, w, xl, psi, dpsi):
    kind = _segment_kind(q2, w)
    if kind == "pair":
        m = _pair_matrix(q2, w)
        # inverse of the det-1 pair matrix
        psi_l = m[1, 1] * psi - m[0, 1] * dpsi
        dpsi_l = -m[1, 0] * psi + m[0, 0] * dpsi
        piece = SegmentPiece(xl, xl + w, q2, kind, psi_l, dpsi_l)
        return piece, psi_l, dpsi_l
    if kind == "osc":
        q = math.sqrt(q2)
        e = cmath.exp(1j * q * w)
        u = 0.5 * (psi + dpsi / (1j * q)) / e
        v = 0.5 * (psi - dpsi / (1j * q)) * e
        piece = SegmentPiece(xl, xl + w, q2, kind, u, v)
        return piece, u + v, 1j * q * (u - v)
    kp = math.sqrt(-q2)
    v = 0.5 * (psi + dpsi / kp)
    u = math.exp(kp * w) * 0.5 * (psi - dpsi / kp)
    eps = math.exp(-kp * w)
    piece = SegmentPiece(xl, xl + w, q2, kind, u, v)
    return piece, u + v * eps, kp * (-u + v * eps)


@dataclass
class PiecewiseState:
    """A stationary solution assembled from plane waves outside [a, b] and
    per-segment bounded-basis coefficients inside."""

    spec: PotentialSpec
    mode: EnergyMode
    left: tuple[complex, complex]
    right: tuple[complex, complex]
    pieces: list[SegmentPiece]

    def scaled(self, s: complex) -> "PiecewiseState":
        return PiecewiseState(
            spec=self.spec,
            mode=self.mode,
            left=(s * self.left[0], s * self.left[1]),
            right=(s * self.right[0], s * self.right[1]),
            pieces=[
                SegmentPiece(p.xl, p.xr, p.q2, p.kind, s * p.c1, s * p.c2)
                for p in self.pieces
            ],
        )

    def values(self, x) -> np.ndarray:
        return sample_states([self], x)[0]

    def derivative(self, x) -> np.ndarray:
        return sample_states([self], x, deriv=True)[0]


def sample_states(states, x, deriv: bool = False) -> np.ndarray:
    """Values (or x derivatives) of several states of one spec and mode,
    as an (n_states, *x.shape) array.

    One exp(ikx) per plane-wave region serves every state; exp(-ikx) is
    its conjugate, exact for real k and x. On an ascending grid the left
    region, the interior and each state's segments are contiguous slices;
    a point on an edge belongs to the segment on its right (x = a is
    interior, x = b is right). Any other grid goes through its sort
    permutation.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((len(states), flat.size), dtype=complex)
    if flat.size > 1 and np.any(flat[1:] < flat[:-1]):
        order = np.argsort(flat, kind="stable")
        out[:, order] = sample_states(states, flat[order], deriv)
        return out.reshape((len(states),) + x.shape)
    first = states[0]
    k = first.mode.k
    i_a, i_b = np.searchsorted(flat, (first.spec.a, first.spec.b))
    for lo, hi, side in ((0, i_a, "left"), (i_b, flat.size, "right")):
        if hi == lo:
            continue
        e = np.exp(1j * k * flat[lo:hi])
        ec = e.conj()
        for s, state in enumerate(states):
            cp, cm = getattr(state, side)
            out[s, lo:hi] = 1j * k * (cp * e - cm * ec) if deriv else cp * e + cm * ec
    xi = flat[i_a:i_b]
    for s, state in enumerate(states):
        edges = [0, *np.searchsorted(xi, [p.xl for p in state.pieces[1:]]), xi.size]
        for piece, lo, hi in zip(state.pieces, edges[:-1], edges[1:]):
            if hi > lo:
                part = xi[lo:hi]
                out[s, i_a + lo:i_a + hi] = piece.derivative(part) if deriv else piece.values(part)
    return out.reshape((len(states),) + x.shape)


def _segments_q2(spec: PotentialSpec, mode: EnergyMode):
    edges = spec.edges()
    return [
        (float(edges[i]), w, 2.0 * (mode.E - h))
        for i, (w, h) in enumerate(spec.segments)
    ]


def state_from_left(spec: PotentialSpec, mode: EnergyMode,
                    c_plus: complex, c_minus: complex) -> PiecewiseState:
    """Forward cascade from the left plane-wave pair."""
    _check_opacity(spec, mode)
    k = mode.k
    ea = cmath.exp(1j * k * spec.a)
    psi = c_plus * ea + c_minus / ea
    dpsi = 1j * k * (c_plus * ea - c_minus / ea)
    pieces = []
    for xl, w, q2 in _segments_q2(spec, mode):
        piece, psi, dpsi = _forward_step(q2, w, xl, psi, dpsi)
        pieces.append(piece)
    eb = cmath.exp(1j * k * spec.b)
    d_plus = 0.5 * (psi + dpsi / (1j * k)) / eb
    d_minus = 0.5 * (psi - dpsi / (1j * k)) * eb
    return PiecewiseState(spec, mode, (c_plus, c_minus), (d_plus, d_minus), pieces)


def state_from_right(spec: PotentialSpec, mode: EnergyMode,
                     d_plus: complex, d_minus: complex) -> PiecewiseState:
    """Backward cascade from the right plane-wave pair."""
    _check_opacity(spec, mode)
    k = mode.k
    eb = cmath.exp(1j * k * spec.b)
    psi = d_plus * eb + d_minus / eb
    dpsi = 1j * k * (d_plus * eb - d_minus / eb)
    pieces = []
    for xl, w, q2 in reversed(_segments_q2(spec, mode)):
        piece, psi, dpsi = _backward_step(q2, w, xl, psi, dpsi)
        pieces.append(piece)
    pieces.reverse()
    ea = cmath.exp(1j * k * spec.a)
    c_plus = 0.5 * (psi + dpsi / (1j * k)) / ea
    c_minus = 0.5 * (psi - dpsi / (1j * k)) * ea
    return PiecewiseState(spec, mode, (c_plus, c_minus), (d_plus, d_minus), pieces)


def _split_segments_at_center(spec: PotentialSpec):
    """Segment lists (xl, w, q2-less) left and right of x_c, splitting the
    middle segment when x_c falls inside one."""
    x_c = spec.x_c
    left, right = [], []
    edges = spec.edges()
    tol = 1e-12 * max(1.0, spec.width)
    for i, (w, h) in enumerate(spec.segments):
        xl, xr = float(edges[i]), float(edges[i + 1])
        if xr <= x_c + tol:
            left.append((xl, xr - xl, h))
        elif xl >= x_c - tol:
            right.append((xl, xr - xl, h))
        else:
            left.append((xl, x_c - xl, h))
            right.append((x_c, xr - x_c, h))
    return left, right


def state_from_midpoint(spec: PotentialSpec, mode: EnergyMode,
                        psi_c: complex, dpsi_c: complex) -> PiecewiseState:
    """Outward cascades from (psi, psi') prescribed at the barrier midpoint.

    Growth directions point away from x_c on both wings, so the result is
    relatively accurate at any admissible opacity.
    """
    _check_opacity(spec, mode)
    k = mode.k
    left_segs, right_segs = _split_segments_at_center(spec)

    pieces_left = []
    psi, dpsi = psi_c, dpsi_c
    for xl, w, h in reversed(left_segs):
        piece, psi, dpsi = _backward_step(2.0 * (mode.E - h), w, xl, psi, dpsi)
        pieces_left.append(piece)
    pieces_left.reverse()
    ea = cmath.exp(1j * k * spec.a)
    c_plus = 0.5 * (psi + dpsi / (1j * k)) / ea
    c_minus = 0.5 * (psi - dpsi / (1j * k)) * ea

    pieces_right = []
    psi, dpsi = psi_c, dpsi_c
    for xl, w, h in right_segs:
        piece, psi, dpsi = _forward_step(2.0 * (mode.E - h), w, xl, psi, dpsi)
        pieces_right.append(piece)
    eb = cmath.exp(1j * k * spec.b)
    d_plus = 0.5 * (psi + dpsi / (1j * k)) / eb
    d_minus = 0.5 * (psi - dpsi / (1j * k)) * eb

    return PiecewiseState(
        spec, mode, (c_plus, c_minus), (d_plus, d_minus), pieces_left + pieces_right
    )


def evaluate_state(spec: PotentialSpec, mode: EnergyMode,
                   left_boundary: BoundaryAmplitudes, x_grid) -> ComponentField:
    """Samples of the unique solution fixed by its left plane-wave pair.

    Absolute error grows like exp(kappa * depth) where the true solution
    decays under the barrier; use the decomposition builder for fields
    that must stay accurate in that regime.
    """
    if left_boundary.side != "left":
        raise ValueError("evaluate_state expects left-side boundary amplitudes")
    state = state_from_left(spec, mode, left_boundary.incoming, left_boundary.outgoing)
    x = np.asarray(x_grid, dtype=float)
    return ComponentField(x=x, values=state.values(x))
