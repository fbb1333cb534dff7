"""Stationary scattering states via exact per-segment transfer matrices,
computed for a block of problems (barrier_i, E_i) at a time.

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

Every function works on a `ProblemBlock`, one problem per row, with the
rows of a block sharing a segment count. Each row's arithmetic depends
on that row alone, so a row's results do not depend on the block it is
computed in. `solve_full` solves a block of one, and
`PiecewiseState.values` reads a one-row state.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricPotential, OpacityOverflow, SolveSingular
from .potential import PotentialSpec
from .tolerances import OPACITY_MAX, UNITARITY

# |q^2| w^2 below this: the (psi, psi') anchored form is used, which is
# smooth through q = 0 (the exact linear solution in the limit).
_PAIRFORM_Z2 = 1e-10

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


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Transmission/reflection amplitudes of the unit-incidence solution."""

    A_T: complex
    A_R: complex
    T: float = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        # moduli of an array, as solve_block takes them: Python's abs() and
        # numpy's scalar modulus can differ from it in the last place
        T, R = (np.abs(np.array([self.A_T, self.A_R])) ** 2).tolist()
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "R", R)
        if not (math.isfinite(self.T) and math.isfinite(self.R)):
            raise SolveSingular("non-finite scattering amplitudes")
        if abs(self.T + self.R - 1.0) > UNITARITY:
            raise SolveSingular(
                f"flux not conserved: T + R - 1 = {self.T + self.R - 1.0:.3e}"
            )


@dataclass
class ComponentField:
    """Complex samples of one wave component on an x grid."""

    x: np.ndarray
    values: np.ndarray
    label: str = ""
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
        E = np.atleast_1d(np.asarray(E, dtype=float))
        n = max(len(specs), E.size)
        if len({len(s.segments) for s in specs}) != 1 or not {len(specs), E.size} <= {1, n}:
            raise ValueError("a block takes barriers of one segment count, "
                             "with one energy or one per barrier")
        good = np.isfinite(E) & (E > 0)
        if not good.all():
            raise ValueError(f"energy must be finite and positive, got {E[~good][0]}")

        return cls(a=_rows([s.a for s in specs], n), b=_rows([s.b for s in specs], n),
                   edges=_rows([s.edges() for s in specs], n),
                   widths=_rows([[w for w, _ in s.segments] for s in specs], n),
                   heights=_rows([[h for _, h in s.segments] for s in specs], n),
                   symmetric=_rows([s.symmetric for s in specs], n), E=_rows(E, n))

    @property
    def n(self) -> int:
        return self.E.size

    def shifted(self, deltas) -> "ProblemBlock":
        """Every row once per shift in `deltas`, each copy with all segment
        heights moved by its shift; the copies of a row are adjacent."""
        deltas = np.asarray(deltas, dtype=float)

        def rep(v):
            return np.repeat(v, deltas.size, axis=0)

        return ProblemBlock(a=rep(self.a), b=rep(self.b), edges=rep(self.edges),
                            widths=rep(self.widths),
                            heights=rep(self.heights) + np.tile(deltas, self.n)[:, None],
                            symmetric=rep(self.symmetric), E=rep(self.E))

    def require_symmetric(self):
        if not self.symmetric.all():
            raise AsymmetricPotential(
                "height sequence is not mirror-symmetric about the midpoint "
                f"(E = {self.E[np.argmin(self.symmetric)]:.6g})"
            )


def _rows(value, n: int, dtype=None) -> np.ndarray:
    """value with a leading axis of n rows: as given when it has one,
    else broadcast along it."""
    arr = np.asarray(value, dtype=dtype)
    return arr if arr.ndim and len(arr) == n else np.broadcast_to(arr, (n,) + arr.shape[1:])


def _raise_first(bad: np.ndarray, E: np.ndarray, error, message: str):
    """Raise error(message) naming the energy of the first row in `bad`."""
    if bad.any():
        raise error(f"{message} at E = {E[np.argmax(bad)]:.6g}")


# --- transfer matrix and amplitudes ----------------------------------------

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


def _mat(m00, m01, m10, m11) -> np.ndarray:
    """(n, 2, 2) stack from its four (n,) entries."""
    return np.moveaxis(np.array([[m00, m01], [m10, m11]]), (0, 1), (1, 2))


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise products of (n, 2, 2) stacks."""
    return A[:, :, :1] * B[:, :1, :] + A[:, :, 1:] * B[:, 1:, :]


def _pair_matrix(q2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Maps (psi, psi') across segments of widths w, as (n, 2, 2); each
    determinant is exactly 1."""
    z = np.sqrt(q2.astype(complex)) * w
    c = np.cos(z)
    s = _sinc(z)
    return _mat(c, w * s, -q2 * w * s, c)


def _check_opacity(problems: ProblemBlock):
    """Sum of kappa*width over evanescent segments: the overflow budget."""
    q2 = problems.q2
    opacity = np.where(q2 < 0, np.sqrt(np.abs(q2)) * problems.widths, 0.0).sum(axis=1)
    bad = opacity > OPACITY_MAX
    if bad.any():
        i = np.argmax(bad)
        raise OpacityOverflow(
            f"evanescent decay budget exceeded at E = {problems.E[i]:.6g}: "
            f"sum kappa*w = {opacity[i]:.1f} > {OPACITY_MAX}"
        )


def _transfer(problems: ProblemBlock) -> np.ndarray:
    """Plane-wave-basis transfer matrices from x = a to x = b, (n, 2, 2)."""
    _check_opacity(problems)
    P = np.broadcast_to(np.eye(2, dtype=complex), (problems.n, 2, 2))
    for q2, w in zip(problems.q2.T, problems.widths.T):
        P = _matmul(_pair_matrix(q2, w), P)
    k = problems.k
    ea = np.exp(1j * k * problems.a)
    eb = np.exp(1j * k * problems.b)
    W_a = _mat(ea, 1 / ea, 1j * k * ea, -1j * k / ea)
    W_b_inv = _mat(0.5 / eb, 1 / (2j * k * eb), 0.5 * eb, -eb / (2j * k))
    return _matmul(_matmul(W_b_inv, P), W_a)


def solve_block(problems: ProblemBlock) -> tuple[np.ndarray, np.ndarray]:
    """(A_T, A_R), each (n,), of the unit wave incident from the left on
    every row. The first row whose transfer matrix is singular or
    non-finite, or whose flux is not conserved, raises SolveSingular."""
    M = _transfer(problems)
    E = problems.E
    _raise_first(~np.isfinite(M).all(axis=(1, 2)) | (np.abs(M[:, 1, 1]) < 1e-150), E,
                 SolveSingular, "transfer matrix singular or non-finite")
    # det M = 1 exactly, so A_T = det M / M22 reduces to 1/M22.
    A_T = 1.0 / M[:, 1, 1]
    A_R = -M[:, 1, 0] / M[:, 1, 1]
    T, R = np.abs(A_T) ** 2, np.abs(A_R) ** 2
    _raise_first(~(np.isfinite(T) & np.isfinite(R)), E, SolveSingular,
                 "non-finite scattering amplitudes")
    _raise_first(np.abs(T + R - 1.0) > UNITARITY, E, SolveSingular, "flux not conserved")
    return A_T, A_R


def solve_full(spec: PotentialSpec, mode: EnergyMode) -> ScatteringAmplitudes:
    """Unit wave incident from the left, nothing incoming from the right."""
    A_T, A_R = solve_block(ProblemBlock.of(spec, mode.E))
    return ScatteringAmplitudes(A_T=complex(A_T[0]), A_R=complex(A_R[0]))


# --- piecewise field representation -----------------------------------------

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


def _step(q2, w, xl, psi, dpsi, forward: bool):
    """One segment of a cascade on every row: from (psi, psi') at its left
    edge (forward) or right edge (backward), its piece columns
    (xl, xr, q2, kind, c1, c2) and (psi, psi') at its other edge."""
    kind = _segment_kind(q2, w)
    out = np.empty((4,) + q2.shape, dtype=complex)  # c1, c2, psi, psi' at the far edge
    for code in (PAIR, OSC, EVAN):
        m = kind == code
        if not m.any():
            continue
        p, dp, wm = psi[m], dpsi[m], w[m]
        if code == PAIR:
            mat = _pair_matrix(q2[m], wm)
            if forward:
                out[:, m] = (p, dp, mat[:, 0, 0] * p + mat[:, 0, 1] * dp,
                             mat[:, 1, 0] * p + mat[:, 1, 1] * dp)
            else:  # inverse of the det-1 pair matrix
                p_l = mat[:, 1, 1] * p - mat[:, 0, 1] * dp
                dp_l = -mat[:, 1, 0] * p + mat[:, 0, 0] * dp
                out[:, m] = p_l, dp_l, p_l, dp_l
        elif code == OSC:
            q = np.sqrt(q2[m])
            e = np.exp(1j * q * wm)
            if forward:
                u = 0.5 * (p + dp / (1j * q))
                v = 0.5 * (p - dp / (1j * q))
                out[:, m] = u, v, u * e + v / e, 1j * q * (u * e - v / e)
            else:
                u = 0.5 * (p + dp / (1j * q)) / e
                v = 0.5 * (p - dp / (1j * q)) * e
                out[:, m] = u, v, u + v, 1j * q * (u - v)
        else:
            kp = np.sqrt(-q2[m])
            grow, eps = np.exp(kp * wm), np.exp(-kp * wm)
            if forward:
                u = 0.5 * (p - dp / kp)
                v = grow * 0.5 * (p + dp / kp)
                out[:, m] = u, v, u * eps + v, kp * (v - u * eps)
            else:
                v = 0.5 * (p + dp / kp)
                u = grow * 0.5 * (p - dp / kp)
                out[:, m] = u, v, u + v * eps, kp * (-u + v * eps)
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
        x = np.asarray(x, dtype=float)
        return sample_states(self, x.ravel(), deriv)[0].reshape(x.shape)


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


def column_slices(n: int, m: int, start: int = 0):
    """Slices of columns start..m, each holding at most SAMPLE_POINTS
    points of an n-row block (at least one column)."""
    cols = max(1, SAMPLE_POINTS // max(n, 1))
    return [slice(lo, min(lo + cols, m)) for lo in range(start, m, cols)]


def sample_states(states, x, deriv: bool = False) -> np.ndarray:
    """Values (or x derivatives) of a block of states as an (n, m) array,
    on a grid shared by every row (x of shape (m,)) or one grid per row
    (x of shape (n, m)). A sequence of one-row states gives one row each
    on a shared grid.

    A point left of a takes the left plane-wave pair, a point at or beyond
    b the right one; inside, a point on an interface belongs to the piece
    on its right.
    """
    if not isinstance(states, PiecewiseState):
        return np.concatenate([sample_states(s, x, deriv) for s in states])
    return _sample(states, x, deriv, None)


def sample_density(states: PiecewiseState, x) -> np.ndarray:
    """|values|^2 of a block of states, as sample_states would give them,
    without ever holding the complex values on the whole grid."""
    return _sample(states, x, False, lambda values: np.abs(values) ** 2)


def _sample(states: PiecewiseState, x, deriv: bool, finish) -> np.ndarray:
    """sample_states, with finish (if given) applied to the values.

    On ascending rows, each row's points left of a, in each piece and from
    b on are runs of columns. Each run is evaluated for the rows of one
    kind over the columns any row's run spans, with the piece's parameters
    broadcast along the row, a slice of columns at a time, and kept where
    it belongs to the row's run. Other grids are evaluated on each row's
    ascending permutation.
    """
    P = states.problems
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    out = np.empty((P.n, m), dtype=complex if finish is None else float)
    if np.any(x[..., 1:] < x[..., :-1]):
        X = np.broadcast_to(x, out.shape)
        order = np.argsort(X, axis=1, kind="stable")
        np.put_along_axis(out, order, _sample(states, np.take_along_axis(X, order, axis=1),
                                              deriv, finish), axis=1)
        return out
    ends = np.column_stack((states.xl, P.b))  # a piece's left edge ends the run before it
    if x.ndim == 1:  # one grid for every row: a single row that broadcasts
        below = np.searchsorted(x, ends)
        X = x[None, :]
    else:
        below = np.stack([np.count_nonzero(x < e[:, None], axis=1) for e in ends.T], axis=1)
        X = x
    bounds = np.column_stack((np.zeros(P.n, dtype=below.dtype), below, np.full(P.n, m)))
    lowest, highest = bounds.min(axis=0), bounds.max(axis=0)
    alike = lowest == highest  # the bounds every row shares
    # a run is evaluated at points of the row's other runs too, which may
    # lie far outside it and overflow there
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(-1, states.xl.shape[1] + 1):
            lo, hi = bounds[:, j + 1], bounds[:, j + 2]
            start, stop = lowest[j + 1], highest[j + 2]
            if start >= stop:
                continue
            uniform = alike[j + 1] and alike[j + 2]
            for rows, field in _runs(states, j, deriv):
                for cs in column_slices(P.n if isinstance(rows, slice) else rows.size, stop,
                                        start):
                    values = field(X[:, cs] if len(X) == 1 else X[rows, cs])
                    if finish is not None:
                        values = finish(values)
                    if uniform:
                        out[rows, cs] = values
                        continue
                    col = np.arange(cs.start, cs.stop)
                    here = (col >= lo[rows, None]) & (col < hi[rows, None])
                    if isinstance(rows, slice):
                        np.copyto(out[rows, cs], values, where=here)
                    else:
                        out[rows, cs] = np.where(here, values, out[rows, cs])
    return out


def _runs(states: PiecewiseState, j: int, deriv: bool):
    """(rows, field) pairs for run j of a block of states (-1: left of a,
    n_pieces: from b on, else piece j): the rows sharing one formula, and
    that formula as a function of those rows' x (rows, columns)."""
    n_pieces = states.xl.shape[1]
    if j in (-1, n_pieces):
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


def state_from_left(P: ProblemBlock, c_plus, c_minus) -> PiecewiseState:
    """Forward cascade from the left plane-wave pair, one pair per row of
    P or one for every row."""
    _check_opacity(P)
    k = P.k
    ea = np.exp(1j * k * P.a)
    psi, dpsi = _plane_values(c_plus, c_minus, k, ea)
    pieces = []
    for xl, w, q2 in zip(P.edges.T, P.widths.T, P.q2.T):
        piece, psi, dpsi = _step(q2, w, xl, psi, dpsi, forward=True)
        pieces.append(piece)
    right = _plane_pair(psi, dpsi, k, np.exp(1j * k * P.b))
    return _assemble(P, (c_plus, c_minus), right, pieces)


def state_from_right(P: ProblemBlock, d_plus, d_minus) -> PiecewiseState:
    """Backward cascade from the right plane-wave pair; arguments as for
    state_from_left."""
    _check_opacity(P)
    k = P.k
    eb = np.exp(1j * k * P.b)
    psi, dpsi = _plane_values(d_plus, d_minus, k, eb)
    pieces = []
    for xl, w, q2 in reversed(list(zip(P.edges.T, P.widths.T, P.q2.T))):
        piece, psi, dpsi = _step(q2, w, xl, psi, dpsi, forward=False)
        pieces.append(piece)
    pieces.reverse()
    left = _plane_pair(psi, dpsi, k, np.exp(1j * k * P.a))
    return _assemble(P, left, (d_plus, d_minus), pieces)


def _split_segments_at_center(P: ProblemBlock):
    """Segment columns (xl, w, q2) left and right of x_c, splitting the
    middle segment when x_c falls inside one. Every row must place x_c
    alike, as the barriers of one segment count do when symmetric."""
    xl, xr = P.edges[:, :-1], P.edges[:, 1:]
    x_c = P.x_c[:, None]
    tol = 1e-12 * np.maximum(1.0, P.b - P.a)[:, None]
    side = np.where(xr <= x_c + tol, 0, np.where(xl >= x_c - tol, 1, 2))
    if (side != side[0]).any():
        raise ValueError("the rows of a block place x_c in different segments")
    left, right = [], []
    for j, where in enumerate(side[0]):
        lo, hi, q2 = xl[:, j], xr[:, j], P.q2[:, j]
        if where == 0:
            left.append((lo, hi - lo, q2))
        elif where == 1:
            right.append((lo, hi - lo, q2))
        else:
            left.append((lo, P.x_c - lo, q2))
            right.append((P.x_c, hi - P.x_c, q2))
    return left, right


def state_from_midpoint(P: ProblemBlock, psi_c, dpsi_c) -> PiecewiseState:
    """Outward cascades from (psi, psi') prescribed at the barrier midpoint;
    arguments as for state_from_left.

    Growth directions point away from x_c on both wings, so the result is
    relatively accurate at any admissible opacity.
    """
    _check_opacity(P)
    k = P.k
    left_segs, right_segs = _split_segments_at_center(P)
    start = tuple(_rows(v, P.n, complex) for v in (psi_c, dpsi_c))

    pieces_left = []
    psi, dpsi = start
    for xl, w, q2 in reversed(left_segs):
        piece, psi, dpsi = _step(q2, w, xl, psi, dpsi, forward=False)
        pieces_left.append(piece)
    pieces_left.reverse()
    left = _plane_pair(psi, dpsi, k, np.exp(1j * k * P.a))

    pieces_right = []
    psi, dpsi = start
    for xl, w, q2 in right_segs:
        piece, psi, dpsi = _step(q2, w, xl, psi, dpsi, forward=True)
        pieces_right.append(piece)
    right = _plane_pair(psi, dpsi, k, np.exp(1j * k * P.b))

    return _assemble(P, left, right, pieces_left + pieces_right)
