"""Stationary scattering states as cascades, computed for a block of
problems (barrier_i, E_i) at a time.

Inside [a, b] a state is one piece per segment, in a basis of bounded
functions (two decaying exponentials for evanescent segments; see
_piece_field); outside it is a plane-wave pair. One walker, `_cascade`,
builds every state: from (psi, psi') given at a cut (a, b or the
midpoint x_c) it runs backward to a and forward to b, and each step
solves the piece's two coefficients from its start edge and evaluates
the piece at its far edge. `state_from_left`, `state_from_right` and
`state_from_midpoint` cut at a, b and x_c.

The amplitudes come from the same walker. The unit transmitted wave
exp(ikx), cascaded backward from b, has left pair (1/A_T, A_R/A_T): both
amplitudes are quotients of that pair, relatively accurate however
opaque the barrier, because the backward cascade runs along the growth
direction and never differences a growing exponential. The full
scattering state is that cascade scaled by A_T. `state_from_left`'s
absolute error grows like exp(kappa * depth) where the true solution
decays, so the decomposition builds only tr_state with it; the
reflection sub-solution cascades outward from x_c.

Every function works on a `ProblemBlock`, one problem per row, with the
rows of a block sharing a segment count. Each row's arithmetic depends
on that row alone, so a row's results do not depend on the block it is
computed in. Amplitudes are (n,) arrays: `solve_full` solves a block of
one and returns its one-row (A_T, A_R), and `PiecewiseState.values`
reads a one-row state.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricPotential, OpacityOverflow, SolveSingular, raise_first
from .potential import PotentialSpec, barrier_rows
from .tolerances import OPACITY_MAX, UNITARITY

# u = |q^2| w^2 below this: the (psi, psi') anchored form is used, which is
# smooth through q = 0 (the exact linear solution in the limit). At 1e-5
# the exponential bases' cancellation (about 1e-16 / u relative) meets the
# truncation of the dwell sums' quartic in the pair form (O(u^2)).
_PAIRFORM_Z2 = 1e-5

# piece kinds as stored in a state's `kind` array
PAIR, OSC, EVAN = range(3)


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


@dataclass
class ComponentField:
    """Complex samples of one wave component on an x grid."""

    x: np.ndarray
    values: np.ndarray
    t: float | None = None


@dataclass(frozen=True, eq=False)
class ProblemBlock:
    """Problems (barrier_i, E_i), one per row, sharing a segment count.

    `a`, `b` and `E` are (n,); `edges` (interfaces from a to b) is
    (n, s + 1); `widths` and `heights` are (n, s). `symmetric` is each
    barrier's `PotentialSpec.symmetric`.
    """

    a: np.ndarray
    b: np.ndarray
    edges: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    symmetric: np.ndarray
    E: np.ndarray
    k: np.ndarray = field(init=False)
    x_c: np.ndarray = field(init=False)
    q2: np.ndarray = field(init=False)  # 2 (E - height) per segment

    def __post_init__(self):
        object.__setattr__(self, "k", np.sqrt(2.0 * self.E))
        object.__setattr__(self, "x_c", 0.5 * (self.a + self.b))
        object.__setattr__(self, "q2", 2.0 * (self.E[:, None] - self.heights))

    @classmethod
    def of(cls, spec, E) -> "ProblemBlock":
        """Rows from one barrier or a sequence of them and one energy or an
        array of them; a single barrier or energy serves every row."""
        specs = (spec,) if isinstance(spec, PotentialSpec) else tuple(spec)
        if len({len(s.segments) for s in specs}) != 1:
            raise ValueError("a block takes barriers of one segment count")
        segments = np.array([s.segments for s in specs])
        return cls.from_arrays([s.a for s in specs], segments[..., 0], segments[..., 1], E)

    @classmethod
    def from_arrays(cls, a, widths, heights, E) -> "ProblemBlock":
        """Rows from barriers `a` (m,) with segment `widths` and `heights` (m, s)
        and one energy or an array of them, as `of` makes from specs."""
        a, E = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, E))
        widths, heights = np.asarray(widths, dtype=float), np.asarray(heights, dtype=float)
        n = max(a.size, E.size)
        if (widths.ndim != 2 or heights.shape != widths.shape or a.shape != widths.shape[:1]
                or not {a.size, E.size} <= {1, n}):
            raise ValueError("a block takes a (m,), widths and heights (m, s), "
                             "and one energy or one per barrier")
        edges, symmetric = barrier_rows(a, widths, heights)
        raise_first(~(np.isfinite(E) & (E > 0)), ValueError,
                    lambda i: f"energy must be finite and positive, got {E[i]}")
        return cls(a=_rows(a, n), b=_rows(edges[:, -1], n), edges=_rows(edges, n),
                   widths=_rows(widths, n), heights=_rows(heights, n),
                   symmetric=_rows(symmetric, n), E=_rows(E, n))

    @property
    def n(self) -> int:
        return self.E.size

    def shifted(self, deltas) -> "ProblemBlock":
        """Every row once per shift in its row of `deltas` (n, m), each copy
        with all segment heights moved by its shift; the copies of a row
        are adjacent."""
        deltas = np.asarray(deltas, dtype=float)
        a, widths, heights, E = (np.repeat(v, deltas.shape[1], axis=0)
                                 for v in (self.a, self.widths, self.heights, self.E))
        return ProblemBlock.from_arrays(a, widths, heights + deltas.reshape(-1, 1), E)

    def require_symmetric(self):
        raise_first(~self.symmetric, AsymmetricPotential,
                    lambda i: "height sequence is not mirror-symmetric about the midpoint "
                              f"(E = {self.E[i]:.6g})")


def _rows(value, n: int, dtype=None) -> np.ndarray:
    """value with a leading axis of n rows: as given when it has one,
    else broadcast along it."""
    arr = np.asarray(value, dtype=dtype)
    return arr if arr.ndim and len(arr) == n else np.broadcast_to(arr, (n,) + arr.shape[1:])


# --- piecewise field representation -----------------------------------------

def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z for complex z, series-stabilized near zero."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 - zs * zs / 6.0 * (1.0 - zs * zs / 20.0)
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out


def _piece_field(kind: int, d, dr, q2, c1, c2, deriv: bool):
    """A piece's field (or x derivative) at offsets d = x - xl, dr = xr - x
    from its edges, in the bounded basis of its kind:

    OSC:  c1 exp(iq d) + c2 exp(-iq d),        q = sqrt(q2) > 0
    EVAN: c1 exp(-kp d) + c2 exp(-kp dr),      kp = sqrt(-q2) > 0
    PAIR: c1 cos(q d) + c2 d sinc(q d)         (near-degenerate q)
    """
    if kind == OSC:
        q = np.sqrt(q2)
        e_plus, e_minus = np.exp(1j * q * d), np.exp(-1j * q * d)
        return 1j * q * (c1 * e_plus - c2 * e_minus) if deriv else c1 * e_plus + c2 * e_minus
    if kind == EVAN:
        kp = np.sqrt(-q2)
        e_left, e_right = np.exp(-kp * d), np.exp(-kp * dr)
        if deriv:
            return kp * (-c1 * e_left + c2 * e_right)
        out = c1 * e_left
        out += c2 * e_right
        return out
    z = np.sqrt(q2 + 0j) * d
    if deriv:
        return -q2 * d * _sinc(z) * c1 + np.cos(z) * c2
    return c1 * np.cos(z) + c2 * d * _sinc(z)


def _segment_kind(q2: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.where(np.abs(q2) * w * w < _PAIRFORM_Z2, PAIR, np.where(q2 > 0, OSC, EVAN))


# (c1, c2) of each basis function in turn, broadcast along a piece's rows
_BASIS = np.eye(2)[:, :, None]


def _step(q2, w, xl, psi, dpsi, forward: bool):
    """One segment of a cascade on every row: from (psi, psi') at its left
    edge (forward) or right edge (backward), its piece columns
    (xl, xr, q2, kind, c1, c2) and (psi, psi') at its other edge.

    (c1, c2) solve the 2x2 system of the two basis functions of
    _piece_field and their derivatives at the start edge, by Cramer's
    rule; the far edge is then _piece_field itself."""
    kind = _segment_kind(q2, w)
    zero = np.zeros_like(w)
    start, far = (zero, w) if forward else (w, zero)  # offsets from the left edge
    out = np.empty((4,) + q2.shape, dtype=complex)  # c1, c2, psi, psi' at the far edge
    for code in (PAIR, OSC, EVAN):
        m = kind == code
        if not m.any():
            continue
        q2m, wm, d0, d1 = q2[m], w[m], start[m], far[m]
        (f1, f2), (g1, g2) = (_piece_field(code, d0, wm - d0, q2m, *_BASIS, deriv)
                              for deriv in (False, True))
        p, dp = psi[m], dpsi[m]
        det = f1 * g2 - f2 * g1
        c1, c2 = (p * g2 - f2 * dp) / det, (f1 * dp - g1 * p) / det
        out[:, m] = c1, c2, *(_piece_field(code, d1, wm - d1, q2m, c1, c2, deriv)
                              for deriv in (False, True))
    c1, c2, psi_far, dpsi_far = out
    return (xl, xl + w, q2, kind, c1, c2), psi_far, dpsi_far


@dataclass
class PiecewiseState:
    """Stationary solutions of a block of problems, one per row: plane
    waves outside [a, b] and per-segment bounded-basis pieces inside.

    `left` = (c+, c-) and `right` = (d+, d-) are the plane-wave pairs, each
    entry (n,); the piece arrays are (n, p), with `kind` holding PAIR, OSC
    or EVAN. `values` and `derivative` read a one-row state; sample_states
    reads a block.
    """

    problems: ProblemBlock
    left: tuple[np.ndarray, np.ndarray]
    right: tuple[np.ndarray, np.ndarray]
    xl: np.ndarray
    xr: np.ndarray
    q2: np.ndarray
    kind: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def scaled(self, s) -> "PiecewiseState":
        """Every row times its factor in s (a scalar or one per row)."""
        s = np.asarray(s)
        col = s[..., None]
        return PiecewiseState(self.problems, (s * self.left[0], s * self.left[1]),
                              (s * self.right[0], s * self.right[1]), self.xl, self.xr,
                              self.q2, self.kind, col * self.c1, col * self.c2)

    def values(self, x) -> np.ndarray:
        return self._sample_one(x, False)

    def derivative(self, x) -> np.ndarray:
        return self._sample_one(x, True)

    def _sample_one(self, x, deriv: bool) -> np.ndarray:
        if self.problems.n != 1:
            raise ValueError("this reads a one-row state; use sample_states for a block")
        return sample_states(self, np.ravel(x), deriv)[0].reshape(np.shape(x))


def _assemble(problems: ProblemBlock, left, right, pieces) -> PiecewiseState:
    n = problems.n
    left = tuple(_rows(c, n, complex) for c in left)
    right = tuple(_rows(c, n, complex) for c in right)
    columns = [np.stack(col, axis=1) for col in zip(*pieces)]
    return PiecewiseState(problems, left, right, *columns)


# points evaluated at once by sample_states; bounds its temporaries, and
# keeps each complex temporary within the cache and below the size that
# the allocator maps fresh pages for
SAMPLE_POINTS = 4096


def column_slices(n: int, m: int):
    """Slices of m columns, each holding at most SAMPLE_POINTS points of
    an n-row block (at least one column)."""
    cols = max(1, SAMPLE_POINTS // max(n, 1))
    return [slice(lo, min(lo + cols, m)) for lo in range(0, m, cols)]


def sample_states(states, x, deriv: bool = False) -> np.ndarray:
    """Values (or x derivatives) of a block of states as an (n, m) array,
    on a grid shared by every row (x of shape (m,)) or one grid per row
    (x of shape (n, m)), in any order. A sequence of one-row states gives
    one row each on a shared grid.

    A point's run is -1 left of a (the left plane-wave pair), j in piece j
    and n_pieces at or beyond b (the right pair): the number of edges,
    each piece's left edge and then b, at or below it, less one, so a
    point on an interface belongs to the piece on its right. Runs are
    found and evaluated SAMPLE_POINTS points at a time, and no temporary
    spans more: each run for the rows of one kind, over the columns from
    its first point in any row to its last, written whole where every
    row's points there are in the run and masked where they are not.
    """
    if not isinstance(states, PiecewiseState):
        return np.concatenate([sample_states(s, x, deriv) for s in states])
    out = np.empty((states.problems.n, np.shape(x)[-1]), dtype=complex)
    X = np.broadcast_to(np.asarray(x, dtype=float), out.shape)
    edges = np.column_stack((states.xl, states.problems.b)).T[:, :, None]
    runs = [_runs(states, j, deriv) for j in range(-1, len(edges))]
    # a run is evaluated at points of the row's other runs too, which may
    # lie far outside it and overflow there
    with np.errstate(over="ignore", invalid="ignore"):
        for cs in column_slices(*out.shape):
            run = sum(X[:, cs] >= edge for edge in edges) - 1
            first, last = run.min(axis=0), run.max(axis=0)  # each column's runs
            for j in range(first.min(), last.max() + 1):
                cols = np.flatnonzero((first <= j) & (last >= j))
                if not cols.size:
                    continue
                lo, hi = cols[0], cols[-1] + 1
                span = slice(cs.start + lo, cs.start + hi)
                whole = first[lo:hi].min() == j == last[lo:hi].max()
                for rows, field in runs[j + 1]:
                    values = field(X[rows, span])
                    if not whole:
                        values = np.where(run[rows, lo:hi] == j, values, out[rows, span])
                    out[rows, span] = values
    return out


def _runs(states: PiecewiseState, j: int, deriv: bool):
    """(rows, field) pairs for run j of a block of states (-1: left of a,
    n_pieces: from b on, else piece j): the rows sharing one formula, and
    that formula as a function of those rows' x (rows, columns)."""
    if j in (-1, states.xl.shape[1]):
        cp, cm = (c[:, None] for c in (states.left if j < 0 else states.right))
        k = states.problems.k[:, None]

        def plane(x):
            e = np.exp(1j * k * x)
            ec = e.conj()
            return 1j * k * (cp * e - cm * ec) if deriv else cp * e + cm * ec

        return [(slice(None), plane)]
    runs = []
    kinds = states.kind[:, j]
    for kind, count in enumerate(np.bincount(kinds, minlength=3)):
        if count == 0:
            continue
        rows = slice(None) if count == kinds.size else np.flatnonzero(kinds == kind)
        xl, xr, q2, c1, c2 = (v[rows, j, None] for v in (states.xl, states.xr, states.q2,
                                                          states.c1, states.c2))
        runs.append((rows, lambda x, kind=kind, xl=xl, xr=xr, q2=q2, c1=c1, c2=c2:
                     _piece_field(kind, x - xl, xr - x, q2, c1, c2, deriv)))
    return runs


def _plane_pair(psi, dpsi, k, e):
    """(c+, c-) of the plane waves with value psi and slope dpsi where
    exp(ikx) = e."""
    return 0.5 * (psi + dpsi / (1j * k)) / e, 0.5 * (psi - dpsi / (1j * k)) * e


def _plane_values(c_plus, c_minus, k, e):
    """(psi, psi') of c+ exp(ikx) + c- exp(-ikx) where exp(ikx) = e."""
    return c_plus * e + c_minus / e, 1j * k * (c_plus * e - c_minus / e)


def _check_opacity(problems: ProblemBlock):
    """Sum of kappa*width over evanescent segments: the overflow budget."""
    q2 = problems.q2
    opacity = np.where(q2 < 0, np.sqrt(np.abs(q2)) * problems.widths, 0.0).sum(axis=1)
    raise_first(opacity > OPACITY_MAX, OpacityOverflow,
                lambda i: f"evanescent decay budget exceeded at E = {problems.E[i]:.6g}: "
                          f"sum kappa*w = {opacity[i]:.1f} > {OPACITY_MAX}")


def _split_segments(P: ProblemBlock, x_cut: np.ndarray):
    """Segment columns (xl, w, q2) left and right of x_cut (one point per
    row), splitting the segment x_cut falls inside. Every row must place
    x_cut alike, as a, b and the x_c of symmetric barriers of one segment
    count do."""
    xl, xr = P.edges[:, :-1], P.edges[:, 1:]
    cut = x_cut[:, None]
    tol = 1e-12 * np.maximum(1.0, P.b - P.a)[:, None]
    side = np.where(xr <= cut + tol, 0, np.where(xl >= cut - tol, 1, 2))
    if (side != side[0]).any():
        raise ValueError("the rows of a block place the cut in different segments")
    left, right = [], []
    for j, where in enumerate(side[0]):
        lo, hi, q2 = xl[:, j], xr[:, j], P.q2[:, j]
        if where == 0:
            left.append((lo, hi - lo, q2))
        elif where == 1:
            right.append((lo, hi - lo, q2))
        else:
            left.append((lo, x_cut - lo, q2))
            right.append((x_cut, hi - x_cut, q2))
    return left, right


def _cascade(P: ProblemBlock, x_cut: np.ndarray, psi, dpsi) -> PiecewiseState:
    """The solution with (psi, psi') given at x_cut (a, b or x_c; a value
    per row or one for every row), cascaded segment by segment backward to
    a and forward to b. The plane-wave pairs are read off at a and b."""
    _check_opacity(P)
    k = P.k
    start = tuple(_rows(v, P.n, complex) for v in (psi, dpsi))
    sides = []
    for segments, forward in zip(_split_segments(P, x_cut), (False, True)):
        psi, dpsi = start
        pieces = []
        for xl, w, q2 in segments if forward else reversed(segments):
            piece, psi, dpsi = _step(q2, w, xl, psi, dpsi, forward)
            pieces.append(piece)
        sides.append((pieces if forward else pieces[::-1], psi, dpsi))
    (left_pieces, *at_a), (right_pieces, *at_b) = sides
    return _assemble(P, _plane_pair(*at_a, k, np.exp(1j * k * P.a)),
                     _plane_pair(*at_b, k, np.exp(1j * k * P.b)), left_pieces + right_pieces)


def state_from_left(P: ProblemBlock, c_plus, c_minus) -> PiecewiseState:
    """The solution with left plane-wave pair (c+, c-), one pair per row
    of P or one for every row, cascaded forward from a."""
    return _cascade(P, P.a, *_plane_values(c_plus, c_minus, P.k, np.exp(1j * P.k * P.a)))


def state_from_right(P: ProblemBlock, d_plus, d_minus) -> PiecewiseState:
    """The solution with right plane-wave pair (d+, d-), cascaded backward
    from b; arguments as for state_from_left."""
    return _cascade(P, P.b, *_plane_values(d_plus, d_minus, P.k, np.exp(1j * P.k * P.b)))


def state_from_midpoint(P: ProblemBlock, psi_c, dpsi_c) -> PiecewiseState:
    """The solution with (psi, psi') prescribed at the barrier midpoint,
    cascaded outward; arguments as for state_from_left. Growth directions
    point away from x_c on both wings, so the result is relatively
    accurate at any admissible opacity."""
    return _cascade(P, P.x_c, psi_c, dpsi_c)


# --- scattering amplitudes ---------------------------------------------------

def scattering_state(problems: ProblemBlock):
    """(A_T, A_R, full), each amplitude (n,), of the unit wave incident
    from the left on every row, and full, that scattering state.

    The unit transmitted wave exp(ikx), cascaded backward from b, has left
    pair (1/A_T, A_R/A_T); full is it scaled by A_T. The first row whose
    incident amplitude is zero or non-finite, or whose flux is not
    conserved, raises SolveSingular."""
    unit = state_from_right(problems, 1.0, 0.0)
    incident, reflected = unit.left
    E = problems.E
    raise_first(~(np.isfinite(incident) & np.isfinite(reflected)) | (incident == 0),
                SolveSingular, lambda i: f"incident amplitude zero or non-finite at E = {E[i]:.6g}")
    A_T = 1.0 / incident
    A_R = reflected / incident
    T, R = np.abs(A_T) ** 2, np.abs(A_R) ** 2
    raise_first(~(np.isfinite(T) & np.isfinite(R)), SolveSingular,
                lambda i: f"non-finite scattering amplitudes at E = {E[i]:.6g}")
    raise_first(np.abs(T + R - 1.0) > UNITARITY, SolveSingular,
                lambda i: f"flux not conserved at E = {E[i]:.6g}")
    return A_T, A_R, unit.scaled(A_T)


def solve_block(problems: ProblemBlock) -> tuple[np.ndarray, np.ndarray]:
    """(A_T, A_R) of scattering_state."""
    A_T, A_R, _ = scattering_state(problems)
    return A_T, A_R


def solve_full(spec: PotentialSpec, mode: EnergyMode) -> tuple[np.ndarray, np.ndarray]:
    """(A_T, A_R) of one problem: solve_block on a block of one row."""
    return solve_block(ProblemBlock.of(spec, mode.E))
