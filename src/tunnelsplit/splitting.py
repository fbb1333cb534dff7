"""Decomposition of the full scattering state into transmission and
reflection sub-waves on a symmetric barrier.

The full solution with unit incidence splits uniquely as

    full = tr_solution + ref_solution

where both pieces solve the stationary equation, tr_solution carries no
left-outgoing wave, ref_solution carries the entire reflected wave, and
|incoming amplitude|^2 of each piece equals its channel weight (T or R).
Those constraints admit exactly two amplitude pairs; the physical choice
is the one whose ref_solution is antisymmetric about the barrier
midpoint x_c, hence vanishes there. Root selection is empirical: both
candidates are constructed and their midpoint values measured.

The sub-process waves themselves are the piecewise cuts

    ref_component = ref_solution for x <= x_c, 0 beyond;
    tr_component  = tr_solution  for x <= x_c, full beyond.

Their first derivatives jump at x_c (only the sum solves the stationary
equation there), but each obeys the continuity equation on its own.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, OddSelectionFailed, SolveSingular
from .potential import PotentialSpec
from .stationary import (
    EnergyMode,
    PiecewiseState,
    ScatteringAmplitudes,
    sample_states,
    solve_full,
    state_from_left,
    state_from_midpoint,
    state_from_right,
)
from .tolerances import (
    IDENTITY_STATIONARY,
    PARITY_MIDPOINT,
    PARITY_RELATIVE,
    SPLIT_NORM,
    UNITARITY,
)

# agreement between the amplitude solved from the parity construction and
# the algebraic candidate it is matched to
_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class SplitAmplitudes:
    """One root of the incoming-amplitude constraint system."""

    A_tr_in: complex
    A_ref_in: complex
    root_sign: int
    parity: str = "undetermined"  # odd | even | undetermined

    def with_parity(self, parity: str) -> "SplitAmplitudes":
        return SplitAmplitudes(self.A_tr_in, self.A_ref_in, self.root_sign, parity)


def split_amplitude_candidates(T: float, R: float) -> tuple[SplitAmplitudes, SplitAmplitudes]:
    """Both exact solutions of {A_tr + A_ref = 1, |A_tr|^2 = T, |A_ref|^2 = R}.

    Expanding |1 - A_tr|^2 = R with T + R = 1 forces Re A_tr = T, so the
    roots are A_tr = T +/- i sqrt(TR), A_ref = R -/+ i sqrt(TR).
    """
    if abs(T + R - 1.0) > UNITARITY:
        raise NotNormalized(f"T + R - 1 = {T + R - 1.0:.3e} beyond tolerance")
    s = math.sqrt(max(T * R, 0.0))
    plus = SplitAmplitudes(complex(T, s), complex(R, -s), +1)
    minus = SplitAmplitudes(complex(T, -s), complex(R, s), -1)
    return plus, minus


@dataclass
class StationaryDecomposition:
    """Full state, its two sub-solutions and the piecewise sub-waves on a grid.

    `full_state`, `tr_state`, `ref_state` are evaluable everywhere; the
    even-root construction is kept for diagnostics instead of discarded.
    """

    spec: PotentialSpec
    mode: EnergyMode
    amplitudes: ScatteringAmplitudes
    split: SplitAmplitudes
    x: np.ndarray
    x_c: float
    full: np.ndarray
    tr_solution: np.ndarray
    ref_solution: np.ndarray
    tr_component: np.ndarray
    ref_component: np.ndarray
    full_state: PiecewiseState
    tr_state: PiecewiseState
    ref_state: PiecewiseState
    even_split: SplitAmplitudes
    even_ref_state: PiecewiseState
    midpoint_residuals: tuple[float, float]  # (selected odd root, even root)
    identity_residual: float
    parity_residual: float


def _ref_candidate(spec, mode, amps, psi_c, dpsi_c):
    """Sub-solution carrying the reflected wave, built from midpoint data.

    Returns (state, solved incoming amplitude). Scaling is fixed by the
    known left-outgoing amplitude A_R; a vanishing A_R means the
    reflection channel is absent and the candidate is identically zero.
    """
    chi = state_from_midpoint(spec, mode, psi_c, dpsi_c)
    if abs(amps.A_R) == 0.0:
        return chi.scaled(0.0), 0.0 + 0.0j
    if abs(chi.left[1]) == 0.0:
        raise SolveSingular("midpoint construction has no left-outgoing wave")
    s = amps.A_R / chi.left[1]
    state = chi.scaled(s)
    return state, state.left[0]


def build_decomposition(spec: PotentialSpec, mode: EnergyMode, x_grid) -> StationaryDecomposition:
    """Construct and validate the decomposition at one energy.

    Both amplitude roots are realized (midpoint value pinned to zero for
    the odd candidate, midpoint derivative pinned to zero for the even
    one), matched to the algebraic candidates, and the root whose
    ref_solution vanishes at x_c is selected.
    """
    spec.require_symmetric()
    x = np.asarray(x_grid, dtype=float)
    x_c = spec.x_c
    amps = solve_full(spec, mode)
    cand_plus, cand_minus = split_amplitude_candidates(amps.T, amps.R)

    odd_state, odd_A = _ref_candidate(spec, mode, amps, 0.0, 1.0)
    even_state, even_A = _ref_candidate(spec, mode, amps, 1.0, 0.0)

    # pair each construction with the algebraic root it reproduces
    def best_match(solved_A):
        d_plus = abs(solved_A - cand_plus.A_ref_in)
        d_minus = abs(solved_A - cand_minus.A_ref_in)
        return (cand_plus, d_plus) if d_plus <= d_minus else (cand_minus, d_minus)

    odd_cand, odd_dist = best_match(odd_A)
    even_cand, even_dist = best_match(even_A)
    scale = 1.0 + abs(amps.A_R)
    if max(odd_dist, even_dist) > _MATCH_TOL * scale:
        raise OddSelectionFailed(
            "parity constructions do not reproduce the amplitude roots "
            f"(odd mismatch {odd_dist:.3e}, even mismatch {even_dist:.3e})"
        )

    odd_mid = abs(odd_state.values(np.array([x_c]))[0])
    even_mid = abs(even_state.values(np.array([x_c]))[0])
    if odd_mid >= PARITY_MIDPOINT:
        raise OddSelectionFailed(
            f"no root vanishes at the midpoint (|ref({x_c})| = {odd_mid:.3e})",
            residuals=(odd_mid, even_mid),
        )

    split = odd_cand.with_parity("odd")
    even_split = even_cand.with_parity("even")
    ref_state = odd_state

    tr_state = state_from_left(spec, mode, split.A_tr_in, 0.0)
    full_state = state_from_right(spec, mode, amps.A_T, 0.0)
    if abs(full_state.left[0] - 1.0) > 1e-8:
        raise SolveSingular(
            f"backward-built full state has incidence {full_state.left[0]!r}, expected 1"
        )

    full, tr_solution, ref_solution = sample_states((full_state, tr_state, ref_state), x)
    tr_component, ref_component = sub_waves(x <= x_c, full, tr_solution, ref_solution)
    ref_scale = float(np.max(np.abs(ref_solution), initial=0.0))
    _check_exterior(full_state, tr_state, ref_state, x_c, ref_scale)

    identity_residual = float(np.max(np.abs(tr_solution + ref_solution - full), initial=0.0))
    if identity_residual > IDENTITY_STATIONARY:
        raise SolveSingular(
            f"sub-solution sum deviates from the full state by {identity_residual:.3e}"
        )
    for label, got, want in (
        ("|A_tr_in|^2", abs(split.A_tr_in) ** 2, amps.T),
        ("|A_ref_in|^2", abs(split.A_ref_in) ** 2, amps.R),
    ):
        if abs(got - want) > SPLIT_NORM:
            raise SolveSingular(f"{label} deviates from its channel weight by {got - want:.3e}")

    span = max(x_c - x[0], x[-1] - x_c) if x.size else 0.0
    parity_residual = _parity_residual(ref_state, x_c, span)
    if ref_scale > 0 and parity_residual > PARITY_RELATIVE * ref_scale:
        raise OddSelectionFailed(
            f"selected root is not antisymmetric: residual {parity_residual:.3e} "
            f"vs scale {ref_scale:.3e}",
            residuals=(odd_mid, even_mid),
        )

    return StationaryDecomposition(
        spec=spec,
        mode=mode,
        amplitudes=amps,
        split=split,
        x=x,
        x_c=x_c,
        full=full,
        tr_solution=tr_solution,
        ref_solution=ref_solution,
        tr_component=tr_component,
        ref_component=ref_component,
        full_state=full_state,
        tr_state=tr_state,
        ref_state=ref_state,
        even_split=even_split,
        even_ref_state=even_state,
        midpoint_residuals=(odd_mid, even_mid),
        identity_residual=identity_residual,
        parity_residual=parity_residual,
    )


def _check_exterior(full_state: PiecewiseState, tr_state: PiecewiseState,
                    ref_state: PiecewiseState, x_c: float, ref_scale: float):
    """Checks on the plane-wave pairs, covering every x outside [a, b].

    With (c+, c-), (d+, d-) the left and right pairs of ref and E =
    exp(ikx_c), ref(x_c + d) + ref(x_c - d) = exp(ikd) (d+ E + c- / E)
    + exp(-ikd) (d- / E + c+ E); on each side the pair of full - tr - ref
    bounds |tr + ref - full|. Antisymmetry goes first, so that a fault in
    ref alone reads as a failed selection.
    """
    (c_plus, c_minus), (d_plus, d_minus) = ref_state.left, ref_state.right
    e_c = cmath.exp(1j * ref_state.mode.k * x_c)
    residual = abs(d_plus * e_c + c_minus / e_c) + abs(d_minus / e_c + c_plus * e_c)
    if ref_scale > 0 and residual > PARITY_RELATIVE * ref_scale:
        raise OddSelectionFailed(f"selected root is not antisymmetric outside the barrier: "
                                 f"residual {residual:.3e} vs scale {ref_scale:.3e}")
    for side in ("left", "right"):
        pairs = (getattr(state, side) for state in (full_state, tr_state, ref_state))
        residual = sum(abs(f - t - r) for f, t, r in zip(*pairs))
        if residual > IDENTITY_STATIONARY:
            raise SolveSingular(f"sub-solution pairs deviate from the full state {side} "
                                f"of the barrier by {residual:.3e}")


def _parity_residual(ref_state: PiecewiseState, x_c: float, span: float, n: int = 33) -> float:
    """max_d |ref(x_c - d) + ref(x_c + d)| over sampled offsets."""
    if span <= 0:
        span = 1.0
    d = np.linspace(0.0, span, n)[1:]
    left = ref_state.values(x_c - d)
    right = ref_state.values(x_c + d)
    return float(np.max(np.abs(left + right)))


def derivative_jump(dec: StationaryDecomposition) -> tuple[complex, complex]:
    """One-sided finite-difference estimates of the sub-wave derivative jumps
    at x_c; the two jumps cancel to discretization error because the summed
    wave is smooth there.
    """
    x = dec.x
    i_cut = int(np.searchsorted(x, dec.x_c, side="right"))
    if i_cut < 3 or i_cut > x.size - 3:
        raise ValueError("grid must bracket x_c with at least 3 points per side")

    def one_sided(values, idx):
        xs = x[idx] - dec.x_c
        coeffs = np.polyfit(xs, values[idx], 2)
        return complex(coeffs[1])

    left_idx = [i_cut - 3, i_cut - 2, i_cut - 1]
    right_idx = [i_cut, i_cut + 1, i_cut + 2]
    jump_tr = one_sided(dec.tr_component, right_idx) - one_sided(dec.tr_component, left_idx)
    jump_ref = one_sided(dec.ref_component, right_idx) - one_sided(dec.ref_component, left_idx)
    return jump_tr, jump_ref


def sub_waves(left, full, tr_state, ref_state):
    """The cut at x_c: (tr, ref) from the full state and the two smooth
    sub-solutions, sampled on the same grid.

    tr is tr_state where `left` (the mask x <= x_c) holds and full beyond;
    ref is ref_state where `left` holds and 0 beyond. The arrays may carry
    leading axes (one row per time); `left` matches their last axis. The
    cut is an elementwise select, so it commutes with any linear
    superposition of the states.
    """
    return np.where(left, tr_state, full), np.where(left, ref_state, 0.0)


def interference_density(tr: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Cross density 2 Re(conj(tr) ref) of the two sub-waves; it integrates
    to 2 Re<tr|ref>.

    For packets that integral is ~0 only at launch and once the
    sub-packets separate: while the packet straddles x_c it balances the
    transmission norm's transient (|Re<tr|ref>| reaches 3.1e-3 on the
    canonical run).
    """
    return 2.0 * np.real(np.conj(tr) * ref)
