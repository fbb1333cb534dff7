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

`decompose_block` decomposes a block of problems into one
`DecompositionBlock` of states, amplitudes and residuals, and
`build_decomposition` returns that block for one energy. Neither takes
a grid: the identity and the antisymmetry are bounded at every x from
the states' coefficients. Inside [a, b] the bounds run over ref's
pieces, onto which full's and tr's are re-anchored exactly, and compare
each piece of ref with its mirror image; outside they read the
plane-wave pairs. Only the midpoint residuals are samples, at x_c. On
a grid x, `sample_states((dec.full_state, dec.tr_state, dec.ref_state),
x)` gives the three smooth solutions and `sub_waves` cuts them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, OddSelectionFailed, SolveSingular, raise_first
from .potential import PotentialSpec
from .stationary import (
    EVAN,
    OSC,
    PAIR,
    EnergyMode,
    PiecewiseState,
    ProblemBlock,
    piece_bound,
    piece_values,
    sample_states,
    scattering_state,
    state_from_left,
    state_from_midpoint,
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

# decompose_block's bytes per row, and per row and segment (block_bytes):
# four cascades, their scaled copies and the bounds' temporaries (traced
# peaks: 880 + 581 S where the pieces take the pair form, 445 to 535 S else)
DECOMPOSE_BYTES = (1024, 640)
# bytes a point of one energy's waves on a grid: its three states sampled
# and its two sub-waves (traced: 104, with the grid)
WAVE_BYTES = 128


@dataclass(frozen=True)
class SplitAmplitudes:
    """One root of the incoming-amplitude constraint system (or one per
    row of a block, as arrays)."""

    A_tr_in: complex
    A_ref_in: complex
    root_sign: int
    parity: str = "undetermined"  # odd | even | undetermined


def split_amplitude_candidates(T, R) -> tuple[SplitAmplitudes, SplitAmplitudes]:
    """Both exact solutions of {A_tr + A_ref = 1, |A_tr|^2 = T, |A_ref|^2 = R},
    for scalar weights or arrays of them.

    Expanding |1 - A_tr|^2 = R with T + R = 1 forces Re A_tr = T, so the
    roots are A_tr = T +/- i sqrt(TR), A_ref = R -/+ i sqrt(TR).
    """
    T, R = np.asarray(T, dtype=float), np.asarray(R, dtype=float)
    excess = T + R - 1.0
    raise_first(np.abs(excess) > UNITARITY, NotNormalized,
                lambda i: f"T + R - 1 = {excess.flat[i]:.3e} beyond tolerance")
    s = np.sqrt(np.maximum(T * R, 0.0))
    plus = SplitAmplitudes(T + 1j * s, R - 1j * s, +1)
    minus = SplitAmplitudes(T - 1j * s, R + 1j * s, -1)
    return plus, minus


@dataclass
class DecompositionBlock:
    """The decomposition of every row of a block, each field with a
    leading row axis: the amplitudes A_T and A_R, the odd (selected) and
    even root of the split with the even root's ref_state kept for
    diagnostics, the states, evaluable everywhere, and the residuals.
    `midpoint_residuals` is (n, 2), (selected odd root, even root);
    `identity_residual` and `parity_residual` bound their residuals at
    every x. Nothing is sampled but x_c: sample the states where needed."""

    problems: ProblemBlock
    A_T: np.ndarray
    A_R: np.ndarray
    split: SplitAmplitudes
    even_split: SplitAmplitudes
    full_state: PiecewiseState
    tr_state: PiecewiseState
    ref_state: PiecewiseState
    even_ref_state: PiecewiseState
    midpoint_residuals: np.ndarray
    identity_residual: np.ndarray
    parity_residual: np.ndarray


def _ref_candidate(problems: ProblemBlock, A_R, psi_c, dpsi_c):
    """Sub-solutions carrying the reflected wave, built from midpoint data.

    Returns (states, solved incoming amplitudes). Scaling is fixed by the
    known left-outgoing amplitude A_R; a vanishing A_R means the
    reflection channel is absent and that row's candidate is identically
    zero.
    """
    chi = state_from_midpoint(problems, psi_c, dpsi_c)
    absent = np.abs(A_R) == 0.0
    outgoing = chi.left[1]
    raise_first(~absent & (np.abs(outgoing) == 0.0), SolveSingular,
                lambda i: f"midpoint construction has no left-outgoing wave "
                          f"at E = {problems.E[i]:.6g}")
    state = chi.scaled(np.where(absent, 0.0, A_R / np.where(absent, 1.0, outgoing)))
    return state, np.where(absent, 0.0, state.left[0])


def decompose_block(problems: ProblemBlock) -> DecompositionBlock:
    """Construct and validate the decomposition on every row of a block.

    Both amplitude roots are realized (midpoint value pinned to zero for
    the odd candidate, midpoint derivative pinned to zero for the even
    one), matched to the algebraic candidates, and the root whose
    ref_solution vanishes at x_c is selected. The identity and the
    antisymmetry are checked from the states' coefficients, as bounds
    that hold at every x, and the midpoint residuals from one sample at
    x_c. Each check runs on every row, and the first failing row raises.
    """
    problems.require_symmetric()
    E, x_c = problems.E, problems.x_c
    A_T, A_R, full_state = scattering_state(problems)
    T, R = np.abs(A_T) ** 2, np.abs(A_R) ** 2
    cand_plus, cand_minus = split_amplitude_candidates(T, R)

    odd_state, odd_A = _ref_candidate(problems, A_R, 0.0, 1.0)
    even_state, even_A = _ref_candidate(problems, A_R, 1.0, 0.0)

    # pair each construction with the algebraic root it reproduces
    def best_match(solved_A, parity):
        d_plus = np.abs(solved_A - cand_plus.A_ref_in)
        d_minus = np.abs(solved_A - cand_minus.A_ref_in)
        plus = d_plus <= d_minus
        split = SplitAmplitudes(np.where(plus, cand_plus.A_tr_in, cand_minus.A_tr_in),
                                np.where(plus, cand_plus.A_ref_in, cand_minus.A_ref_in),
                                np.where(plus, 1, -1), parity)
        return split, np.where(plus, d_plus, d_minus)

    split, odd_dist = best_match(odd_A, "odd")
    even_split, even_dist = best_match(even_A, "even")
    raise_first(np.maximum(odd_dist, even_dist) > _MATCH_TOL * (1.0 + np.abs(A_R)),
                OddSelectionFailed,
                lambda i: f"parity constructions do not reproduce the amplitude roots at "
                          f"E = {E[i]:.6g} (odd mismatch {odd_dist[i]:.3e}, "
                          f"even mismatch {even_dist[i]:.3e})")

    mids = np.abs(np.column_stack([sample_states(state, x_c[:, None])[:, 0]
                                   for state in (odd_state, even_state)]))
    raise_first(mids[:, 0] >= PARITY_MIDPOINT, OddSelectionFailed,
                lambda i: f"no root vanishes at the midpoint "
                          f"(|ref({x_c[i]})| = {mids[i, 0]:.3e})")

    ref_state = odd_state
    tr_state = state_from_left(problems, split.A_tr_in, 0.0)
    identity_residual = np.maximum(_check_exterior(full_state, tr_state, ref_state),
                                   _identity_bound(full_state, tr_state, ref_state))
    raise_first(identity_residual > IDENTITY_STATIONARY, SolveSingular,
                lambda i: f"sub-solution sum deviates from the full state by "
                          f"{identity_residual[i]:.3e} at E = {E[i]:.6g}")
    for label, got, want in (
        ("|A_tr_in|^2", np.abs(split.A_tr_in) ** 2, T),
        ("|A_ref_in|^2", np.abs(split.A_ref_in) ** 2, R),
    ):
        raise_first(np.abs(got - want) > SPLIT_NORM, SolveSingular,
                    lambda i: f"{label} deviates from its channel weight by "
                              f"{got[i] - want[i]:.3e} at E = {E[i]:.6g}")

    parity_residual, parity_scale = _parity_bound(ref_state)
    raise_first((parity_scale > 0) & (parity_residual > PARITY_RELATIVE * parity_scale),
                OddSelectionFailed,
                lambda i: f"selected root is not antisymmetric: residual "
                          f"{parity_residual[i]:.3e} vs scale {parity_scale[i]:.3e} "
                          f"at E = {E[i]:.6g}")

    return DecompositionBlock(
        problems=problems, A_T=A_T, A_R=A_R, split=split, even_split=even_split,
        full_state=full_state, tr_state=tr_state, ref_state=ref_state,
        even_ref_state=even_state, midpoint_residuals=mids,
        identity_residual=identity_residual, parity_residual=parity_residual,
    )


def build_decomposition(spec: PotentialSpec, mode: EnergyMode) -> DecompositionBlock:
    """The decomposition at one energy: a block of one row (see
    decompose_block)."""
    return decompose_block(ProblemBlock.of(spec, mode.E))


def _check_exterior(full_state: PiecewiseState, tr_state: PiecewiseState,
                    ref_state: PiecewiseState) -> np.ndarray:
    """Checks on the plane-wave pairs, covering every x outside [a, b];
    returns the larger pair sum of full - tr - ref per row.

    With (c+, c-), (d+, d-) the left and right pairs of ref and E =
    exp(ikx_c), ref(x_c + d) + ref(x_c - d) = exp(ikd) (d+ E + c- / E)
    + exp(-ikd) (d- / E + c+ E), relative to |c+| + |c-|, the largest
    |ref| left of a; on each side the pair of full - tr - ref bounds
    |tr + ref - full|. Antisymmetry goes first, so that a fault in ref
    alone reads as a failed selection.
    """
    problems = ref_state.problems
    (c_plus, c_minus), (d_plus, d_minus) = ref_state.left, ref_state.right
    e_c = np.exp(1j * problems.k * problems.x_c)
    residual = np.abs(d_plus * e_c + c_minus / e_c) + np.abs(d_minus / e_c + c_plus * e_c)
    scale = np.abs(c_plus) + np.abs(c_minus)
    raise_first((scale > 0) & (residual > PARITY_RELATIVE * scale), OddSelectionFailed,
                lambda i: f"selected root is not antisymmetric outside the barrier: "
                          f"residual {residual[i]:.3e} vs scale {scale[i]:.3e} "
                          f"at E = {problems.E[i]:.6g}")
    worst = np.zeros(problems.n)
    for side in ("left", "right"):
        f, t, r = (getattr(state, side) for state in (full_state, tr_state, ref_state))
        residual = np.abs(f[0] - t[0] - r[0]) + np.abs(f[1] - t[1] - r[1])
        raise_first(residual > IDENTITY_STATIONARY, SolveSingular,
                    lambda i: f"sub-solution pairs deviate from the full state {side} of "
                              f"the barrier by {residual[i]:.3e} at E = {problems.E[i]:.6g}")
        worst = np.maximum(worst, residual)
    return worst


def _on_ref_pieces(state: PiecewiseState, c1, c2, ref_state: PiecewiseState):
    """Coefficients (c1, c2) in the basis of `state`'s pieces, one per
    segment (full's and tr's), carried onto ref_state's pieces.

    Where the midpoint cascade splits a segment at x_c, h = x_c - xl and
    hr = xr - x_c, the segment's piece is re-anchored on its two halves
    exactly, never re-solved from edge values: OSC keeps (c1, c2) on the
    left and takes (c1 exp(iqh), c2 exp(-iqh)) on the right; EVAN takes
    (c1, c2 exp(-kp hr)) and (c1 exp(-kp h), c2). A half of kind PAIR
    takes the piece's value and slope at the half's left edge.
    """
    if c1.shape[1] == ref_state.c1.shape[1]:
        return c1, c2
    x_c = ref_state.problems.x_c
    m = int(np.flatnonzero(ref_state.xl[0] == x_c[0])[0]) - 1  # the split segment
    kind, q2, xl, xr, a1, a2 = (v[:, m] for v in (state.kind, state.q2, state.xl, state.xr,
                                                   c1, c2))
    h, hr = x_c - xl, xr - x_c
    halves = np.empty((2, 2, kind.size), dtype=complex)  # (left, right) half, (c1, c2)
    osc, evan = kind == OSC, kind == EVAN
    e = np.exp(1j * np.sqrt(q2[osc]) * h[osc])
    halves[:, :, osc] = (a1[osc], a2[osc]), (a1[osc] * e, a2[osc] * e.conj())
    kp = np.sqrt(-q2[evan])
    halves[:, :, evan] = ((a1[evan], a2[evan] * np.exp(-kp * hr[evan])),
                          (a1[evan] * np.exp(-kp * h[evan]), a2[evan]))
    for half, d in enumerate((np.zeros_like(h), h)):
        pair = ref_state.kind[:, m + half] == PAIR
        if pair.any():
            args = [v[pair] for v in (kind, d, xr - xl - d, q2, a1, a2)]
            halves[half][:, pair] = [piece_values(*args, deriv) for deriv in (False, True)]
    return tuple(np.concatenate((c[:, :m], halves[:, i].T, c[:, m + 1:]), axis=1)
                 for i, c in enumerate((c1, c2)))


def _identity_bound(full_state: PiecewiseState, tr_state: PiecewiseState,
                    ref_state: PiecewiseState) -> np.ndarray:
    """An upper bound per row on |tr + ref - full| over [a, b]: the
    coefficients of tr - full on ref_state's pieces plus ref's own, bounded
    piece by piece (piece_bound)."""
    d1, d2 = _on_ref_pieces(full_state, tr_state.c1 - full_state.c1,
                            tr_state.c2 - full_state.c2, ref_state)
    r = ref_state
    return piece_bound(r.kind, r.q2, r.xr - r.xl, d1 + r.c1, d2 + r.c2).max(axis=1)


def _parity_bound(ref_state: PiecewiseState):
    """(residual, scale) per row: an upper bound on |ref(x) + ref(2 x_c - x)|
    over [a, b], and the largest |ref| at the piece edges, a lower bound on
    max |ref|.

    The pieces mirror about x_c, piece j onto piece p - 1 - j, whose
    coefficients (a1, a2) and width w map into piece j's basis as OSC
    (a2 exp(-iqw), a1 exp(iqw)), EVAN (a2, a1) and PAIR (a1 C(w) + a2 S(w),
    a1 q2 S(w) - a2 C(w)), C and S the PAIR basis at w: the mirror's value
    and reversed slope at its right edge. Where the two kinds differ (only
    where |q2| w^2 is at _PAIRFORM_Z2) both are compared in that PAIR form,
    anchored at piece j's left edge.
    """
    r = ref_state
    w = r.xr - r.xl
    kind, q2, c1, c2 = r.kind, r.q2, r.c1, r.c2
    m_kind, m_q2, m_w, a1, a2 = (v[:, ::-1] for v in (kind, q2, w, c1, c2))
    osc, evan = ((kind == code) & (m_kind == code) for code in (OSC, EVAN))
    pair = ~(osc | evan)
    g1, g2 = np.empty_like(c1), np.empty_like(c2)
    e = np.exp(1j * np.sqrt(m_q2[osc]) * m_w[osc])
    g1[osc], g2[osc] = c1[osc] + a2[osc] * e.conj(), c2[osc] + a1[osc] * e
    g1[evan], g2[evan] = c1[evan] + a2[evan], c2[evan] + a1[evan]
    zero = np.zeros_like(w)
    if pair.any():
        (v0, s0), (v1, s1) = ([piece_values(*[v[pair] for v in args], deriv)
                               for deriv in (False, True)]
                              for args in ((kind, zero, w, q2, c1, c2),
                                           (m_kind, m_w, zero, m_q2, a1, a2)))
        g1[pair], g2[pair] = v0 + v1, s0 - s1
    residual = piece_bound(np.where(pair, PAIR, kind), q2, w, g1, g2).max(axis=1)
    scale = np.max([np.abs(piece_values(kind, d, w - d, q2, c1, c2)).max(axis=1)
                    for d in (zero, w)], axis=0)
    return residual, scale


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
