"""Time-dependent wave packets synthesized from stationary modes.

A packet is a Simpson-weighted superposition of stationary solutions,

    psi(x, t) = (2 pi)^(-1/2) sum_j w_j f(k_j) phi(x; k_j) exp(-i k_j^2 t / 2),

so time is a parameter, not an evolution variable: any t can be sampled
directly. Components:

    full   unit-incidence scattering state
    tr     piecewise sub-process wave: tr_state left of x_c, full beyond
    ref    piecewise sub-process wave: ref_state left of x_c, 0 beyond

with tr_state and ref_state the smooth sub-solutions of `splitting`.
The piecewise pair carries the channel probabilities. The reflection
norm is conserved exactly (every reflection mode vanishes at x_c, so no
flux crosses the cut); the transmission norm matches its spectral weight
before and after the scattering but exchanges a small amount of
probability through the derivative cut while the packet straddles the
barrier, by the same flux identity that makes the tr/ref overlap purely
imaginary at launch and again once the sub-packets separate. The sum
rule T + R + 2 Re<tr|ref> = total holds at every instant.

Modes are kept as coefficients. With e = exp(ikx), the cut leaves

    left of a:   full = c+ e + c- conj(e),   tr = A_tr_in e,   ref = full - tr
    right of b:  full = A_T e,               tr = full,        ref = 0

and derivatives scale the pairs by +/- ik; inside [a, b) a table keeps
value and derivative rows at its grid points. A mode's time derivative
is -i k^2/2 times the mode, so nothing is differenced in time.
`ModeTable.states` is the one evaluator, for a batch of times. It walks
the grid in windows of X_CHUNK points, and each window builds its own
cos(kx) and sin(kx), so no table spans n_k by n_x; every evaluation of a
window (values, x derivatives, density rates) shares that window's
table. It works in real arithmetic: with C = cos(kx) and S = sin(kx),
a e + b conj(e) = (a + b) C + i (a - b) S, so the left pair and tr are
one real product against C stacked on S.
C and S come from `_plane_waves`, by angle addition over blocks of
ceil(sqrt(n_k)) modes, to within a few eps max|k x|.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridTooCoarse, SpectrumDomainError
from .potential import PotentialSpec
from .splitting import decompose_block, sub_waves
from .stationary import ComponentField, ProblemBlock, sample_states
from .tolerances import QUADRATURE_ERROR, SPECTRUM_NORM, ZERO_NORM

COMPONENTS = ("full", "tr", "ref")

# spectral span in units of sigma_k; wide enough that the truncated tail
# (~1e-15) never shows up against the 1e-8 normalization contract
DEFAULT_SPAN_SIGMAS = 8.0
DEFAULT_N_K = 513
X_CHUNK = 2048  # grid points per evaluation window, each with its own cos/sin table
# bytes of the three evaluations of one diagnostics batch in one window
BATCH_BYTES = 8e6


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian spectrum centered at k0 with width sigma_k, launched at x0."""

    k0: float
    sigma_k: float
    x0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.k0, self.sigma_k, self.x0)):
            raise SpectrumDomainError(f"packet parameters must be finite, got {self}")
        if self.sigma_k <= 0:
            raise SpectrumDomainError(f"sigma_k must be positive, got {self.sigma_k}")
        if self.k0 - 5.0 * self.sigma_k <= 0:
            raise SpectrumDomainError(
                f"k0 - 5 sigma_k = {self.k0 - 5.0 * self.sigma_k:.4g} <= 0: "
                "spectrum would reach backward-propagating modes"
            )

    def spectrum(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        norm = (2.0 * np.pi * self.sigma_k ** 2) ** (-0.25)
        return norm * np.exp(
            -((k - self.k0) ** 2) / (4.0 * self.sigma_k ** 2) - 1j * k * self.x0
        )

    def position_sigma(self) -> float:
        return 1.0 / (2.0 * self.sigma_k)

    def check_separation(self, spec: PotentialSpec):
        reach = self.x0 + 5.0 * self.position_sigma()
        if reach >= spec.a:
            raise ValueError(
                f"packet must start clear of the barrier: x0 + 5 sigma_x = {reach:.4g}"
                f" >= a = {spec.a:.4g}"
            )


def simpson_weights(n: int, h) -> np.ndarray:
    """Composite-Simpson weights for n (odd) points spaced h apart; an
    array of spacings gives one row of weights per spacing."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (np.expand_dims(h, -1) / 3.0)


def span_covers(span_sigmas: float) -> bool:
    """Whether a span of s sigma_k drops at most SPECTRUM_NORM of |f|^2,
    its truncated tail being erfc(s / sqrt 2): from s = 5.7307 on."""
    return math.erfc(span_sigmas / math.sqrt(2.0)) <= SPECTRUM_NORM


def spectral_span(packet: PacketSpec,
                  span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> tuple[float, float]:
    """The first and last k of the spectral grid, checked without building
    it: the span covers the spectrum (span_covers), k_min > 0, and the
    energy k_max^2 / 2 is finite."""
    if not span_covers(span_sigmas):
        raise ValueError(f"spectral span of {span_sigmas:g} sigma_k drops more than "
                         f"SPECTRUM_NORM = {SPECTRUM_NORM:g} of |f|^2; need >= 5.7307")
    k_min = packet.k0 - span_sigmas * packet.sigma_k
    k_max = packet.k0 + span_sigmas * packet.sigma_k
    if k_min <= 0:
        raise SpectrumDomainError(f"spectral grid reaches k = {k_min:.4g} <= 0; "
                                  "narrow the span or move k0 up")
    if not math.isfinite(0.5 * k_max * k_max):
        raise SpectrumDomainError(f"spectral grid reaches k = {k_max:.4g}, "
                                  "where the energy overflows")
    return k_min, k_max


def spectral_grid(packet: PacketSpec, n_k: int = DEFAULT_N_K,
                  span_sigmas: float = DEFAULT_SPAN_SIGMAS):
    """Uniform k grid with composite-Simpson weights."""
    if n_k < 65 or n_k % 2 == 0:
        raise ValueError(f"n_k must be odd and at least 65, got {n_k}")
    k = np.linspace(*spectral_span(packet, span_sigmas), n_k)
    return k, simpson_weights(n_k, k[1] - k[0])


def default_grid_step(spec: PotentialSpec, packet: PacketSpec,
                      span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> tuple[float, int]:
    """Spacing of default_x_grid and its number of points on each side of x_c."""
    k_max = packet.k0 + span_sigmas * packet.sigma_k
    dx = min(2.0 * np.pi / (8.0 * k_max), spec.width / 64.0)
    x_min = packet.x0 - 10.0 * packet.position_sigma()
    return dx, int(math.ceil((spec.x_c - x_min) / dx))


def default_x_grid(spec: PotentialSpec, packet: PacketSpec,
                   span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> np.ndarray:
    """Uniform grid resolving the fastest mode and the barrier, symmetric
    about x_c, wide enough to hold the packet through a canonical run."""
    dx, n_side = default_grid_step(spec, packet, span_sigmas)
    return spec.x_c + dx * np.arange(-n_side, n_side + 1)


def _plane_waves(k: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos(kx) and sin(kx) as a real (2, n_k, n_x) stack, written into
    `out` if given, by angle addition on the uniform k grid. Each block of
    ceil(sqrt(n_k)) modes (23 at 513) writes its rows, one at a time, as
    cos(a + b) and sin(a + b) from cos/sin of its first k times x and a
    shared table of cos/sin(m dk x). The table
    lives in the last block's rows, written last, so nothing block-sized is
    allocated, and about 2 sqrt(n_k) transcendental rows replace 2 n_k.
    Entries are within a few eps max|k x| of cos/sin of the rounded k x
    (5.2e-14 on the canonical table). A nonuniform k raises ValueError."""
    n_k = k.size
    dk = (k[-1] - k[0]) / max(n_k - 1, 1)
    if np.max(np.abs(k - k[0] - dk * np.arange(n_k))) > 4.0 * np.spacing(np.abs(k).max()):
        raise ValueError("angle addition needs a uniform k grid")
    block = math.ceil(math.sqrt(n_k))
    last = n_k - block
    waves = np.empty((2, n_k, x.size)) if out is None else out
    cos_b, sin_b = waves[:, last:]
    np.multiply.outer(dk * np.arange(block), x, out=cos_b)
    np.sin(cos_b, out=sin_b)
    np.cos(cos_b, out=cos_b)
    for j0 in (*range(0, last, block), last):
        cos_a, sin_a = np.cos(k[j0] * x), np.sin(k[j0] * x)
        for m, j in enumerate(range(j0, n_k if j0 == last else min(j0 + block, last))):
            # in the last block, row j holds offset m until it is written
            cos_j = cos_a * cos_b[m] - sin_a * sin_b[m]
            waves[1, j] = sin_a * cos_b[m] + cos_a * sin_b[m]
            waves[0, j] = cos_j
    return waves


def _rows(alpha: np.ndarray, beta: np.ndarray | float, out: np.ndarray):
    """Write the rows [Re(alpha + beta), Im(beta - alpha)] and [Im(alpha +
    beta), Re(alpha - beta)] of alpha e + beta conj(e), from coefficient
    rows (n_t, n_k), into out (2, n_t, 2 n_k); beta = 0 writes alpha e."""
    n_k = alpha.shape[-1]
    np.add(alpha.real, beta.real, out=out[0, :, :n_k])
    np.subtract(beta.imag, alpha.imag, out=out[0, :, n_k:])
    np.add(alpha.imag, beta.imag, out=out[1, :, :n_k])
    np.subtract(alpha.real, beta.real, out=out[1, :, n_k:])


def _exterior(out: np.ndarray, rows: np.ndarray, waves: np.ndarray):
    """out[j] = c[j] cos(kx) + i s[j] sin(kx), summed over the modes, for
    each component j of out (m, n_t, n_x), from `rows`, the real rows
    [Re c, -Im s] and [Im c, Re s] of its coefficients as a (2, m, n_t,
    2 n_k) stack, and `waves`, the (cos, sin) stack at out's points. Both
    parts come from one real product against cos stacked on sin."""
    table = waves.reshape(rows.shape[-1], waves.shape[-1])
    out.real[...], out.imag[...] = (rows.reshape(-1, table.shape[0]) @ table).reshape(
        (2,) + out.shape)


def _index(component: str) -> int:
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; pick one of {COMPONENTS}")
    return COMPONENTS.index(component)


@dataclass
class ModeTable:
    """Per-mode coefficients of full, tr_state and ref_state on one barrier
    and x grid.

    `full_left` is full's plane-wave pair left of a, where tr_state has
    only its incoming wave `tr_in`; beyond b full is `A_T` exp(ikx).
    `inner` holds the values and x derivatives of full, tr_state and
    ref_state at the grid points inside [a, b), as (2, 3, n_k, n_inside).
    A table holds no plane waves: `states` evaluates it window by window
    (`windows`). Only a window, the table on at most X_CHUNK points plus
    a halo, carries `waves`, exp(ikx) at its points outside the barrier
    as its real and imaginary parts, a (2, n_k, n_outside) stack of
    cos(kx) and sin(kx).
    """

    spec: PotentialSpec
    packet: PacketSpec
    x: np.ndarray
    k: np.ndarray
    weights: np.ndarray
    f_k: np.ndarray
    full_left: np.ndarray
    tr_in: np.ndarray
    A_T: np.ndarray
    inner: np.ndarray
    waves: np.ndarray | None = None
    x_c: float = field(init=False)
    _inside: slice = field(init=False)

    def __post_init__(self):
        self.x_c = self.spec.x_c
        if np.any(self.x[1:] < self.x[:-1]):
            raise ValueError("the x grid must be ascending")
        i_a, i_b = np.searchsorted(self.x, (self.spec.a, self.spec.b))
        self._inside = slice(int(i_a), int(i_b))

    def states(self, times, deriv: bool = False, out: np.ndarray | None = None) -> np.ndarray:
        """(full, tr, ref), cut at x_c, or their x derivatives, at every
        time, as a (3, n_t, n_x) stack, written into `out` if given."""
        t = np.asarray(times, dtype=float)
        if out is None:
            out = np.empty((3, t.size, self.x.size), dtype=complex)
        if self.waves is None:
            for own, _, part in windows(self):
                part.states(t, deriv, out[..., own])
            return out
        # the (n_t, n_k) coefficients are made in place: every window makes them anew
        coeff = -0.5j * self.k ** 2 * t[:, None]
        np.exp(coeff, out=coeff)
        np.multiply(self.weights * self.f_k, coeff, out=coeff)
        coeff /= math.sqrt(2.0 * math.pi)
        i_a, i_b = self._inside.start, self._inside.stop
        full, tr_state, ref_state = coeff @ self.inner[int(deriv)]
        out[0, :, i_a:i_b] = full
        out[1:, :, i_a:i_b] = sub_waves(self.x[i_a:i_b] <= self.x_c, full, tr_state, ref_state)

        up, down = (1j * self.k, -1j * self.k) if deriv else (1.0, 1.0)
        rows = np.empty((2, 2 if i_a else 1, t.size, 2 * self.k.size))
        if i_a:
            # left of a, full = alpha e + beta conj(e) and tr = tr_in e
            alpha = coeff * (up * self.full_left[0])
            _rows(alpha, coeff * (down * self.full_left[1]), rows[:, 0])
            _rows(np.multiply(coeff, up * self.tr_in, out=alpha), 0.0, rows[:, 1])
            _exterior(out[:2, :, :i_a], rows, self.waves[:, :, :i_a])
            np.subtract(out[0, :, :i_a], out[1, :, :i_a], out=out[2, :, :i_a])
        if i_b < self.x.size:
            coeff *= up * self.A_T  # right of b, full = A_T e
            _rows(coeff, 0.0, rows[:, 0])
            _exterior(out[:1, :, i_b:], rows[:, :1], self.waves[:, :, i_a:])
            out[1, :, i_b:], out[2, :, i_b:] = out[0, :, i_b:], 0.0
        return out

    def state_slice(self, component: str, t: float, deriv: bool = False) -> np.ndarray:
        return self.states([t], deriv)[_index(component)][0]

    def _window(self, lo: int, hi: int) -> "ModeTable":
        """The table's coefficients on x[lo:hi]."""
        i_a = self._inside.start
        return replace(self, x=self.x[lo:hi],
                       inner=self.inner[..., max(lo - i_a, 0):max(hi - i_a, 0)])


def windows(table: ModeTable, halo: int = 0):
    """(own, ext, part) for each window `own`, a slice of X_CHUNK grid
    points (fewer in the last): `ext` widens it by `halo` points on each
    side where the grid has them, and `part` is the table on x[ext], with
    its cos/sin table. Each window's cos/sin table is written into the
    same buffer, and a part's `waves` are released when the walk moves on."""
    n = table.x.size
    buffer = np.empty((2, table.k.size, min(X_CHUNK + 2 * halo, n)))
    for lo in range(0, n, X_CHUNK):
        own = slice(lo, min(lo + X_CHUNK, n))
        ext = slice(max(lo - halo, 0), min(own.stop + halo, n))
        part = table._window(ext.start, ext.stop)
        outside = np.delete(part.x, part._inside)
        part.waves = _plane_waves(table.k, outside, buffer[:, :, :outside.size])
        yield own, ext, part
        part.waves = None


def _mode_table(spec: PotentialSpec, packet: PacketSpec, x: np.ndarray,
                k: np.ndarray, weights: np.ndarray) -> ModeTable:
    """The coefficients of every mode, without cos(kx) and sin(kx). The
    modes are decomposed as one block, checked on the grid points inside
    [a, b), which are also the points of the `inner` rows; outside the
    barrier the decomposition checks its plane-wave pairs exactly."""
    packet.check_separation(spec)
    x_in = x[(x >= spec.a) & (x < spec.b)]
    dec = decompose_block(ProblemBlock.of(spec, 0.5 * k * k), x_in)
    states = (dec.full_state, dec.tr_state, dec.ref_state)
    inner = np.empty((2, 3, k.size, x_in.size), dtype=complex)
    for deriv in (0, 1):
        for i, state in enumerate(states):
            inner[deriv, i] = sample_states(state, x_in, bool(deriv))
    return ModeTable(spec=spec, packet=packet, x=x, k=k, weights=weights,
                     f_k=packet.spectrum(k), full_left=np.array(dec.full_state.left),
                     tr_in=dec.tr_state.left[0], A_T=dec.full_state.right[0], inner=inner)


def build_mode_table(spec: PotentialSpec, packet: PacketSpec,
                     x_grid: np.ndarray | None = None,
                     n_k: int = DEFAULT_N_K,
                     span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> ModeTable:
    x = default_x_grid(spec, packet, span_sigmas) if x_grid is None else np.asarray(x_grid, float)
    return _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas))


def fields_at(table: ModeTable, t: float) -> np.ndarray:
    """The values and x derivatives of (full, tr, ref) at one time, as a
    (2, 3, n_x) stack."""
    return np.stack([table.states([t], deriv)[:, 0] for deriv in (False, True)])


def synthesize(spec: PotentialSpec, packet: PacketSpec, component: str, times,
               x_grid: np.ndarray, n_k: int = DEFAULT_N_K,
               span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> list[ComponentField]:
    """One-shot synthesis of one component at each of `times`, window by
    window, holding only that component on the whole grid. Prefer
    build_mode_table when many times are needed on the same grid."""
    i = _index(component)
    x = np.asarray(x_grid, dtype=float)
    table = _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas))
    values = np.empty((len(times), x.size), dtype=complex)
    for own, _, part in windows(table):
        values[:, own] = part.states(times)[i]
    return [ComponentField(x=x, values=v, t=float(t)) for v, t in zip(values, times)]


# --- diagnostics ------------------------------------------------------------
#
# Every x integral is a dot product with trapezoid weights, computed once per
# grid. diagnostics_series walks the grid's windows and reduces each window's
# values and derivatives for a batch of times at once: every reduction is a
# sum or a maximum over x, so the windows' parts add up to the whole grid's.

def _quadrature(x: np.ndarray) -> np.ndarray:
    """Trapezoid weights on x as three rows: the rule, the rule on every
    other point (zero between; the Richardson error estimate compares the
    two) and the rule times x (the position mean)."""
    def trapezoid(x):
        w = np.zeros_like(x)
        half = 0.5 * np.diff(x)
        w[:-1] += half
        w[1:] += half
        return w

    q = np.zeros((3, x.size))
    q[0] = trapezoid(x)
    q[1, ::2] = trapezoid(x[::2])
    q[2] = x * q[0]
    return q


def _density(psi: np.ndarray) -> np.ndarray:
    rho = psi.real ** 2
    rho += psi.imag ** 2
    return rho


def current_density(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Im(conj(psi) dpsi)."""
    j = psi.real * dpsi.imag
    j -= psi.imag * dpsi.real
    return j


def _gradient_uniform(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central differences along the last axis at spacing dx;
    the two points at each end read 0. No continuity window keeps them
    (see _continuity_window)."""
    out = np.zeros_like(values)
    out[..., 2:-2] = (
        values[..., :-4] - 8.0 * values[..., 1:-3] + 8.0 * values[..., 3:-1] - values[..., 4:]
    ) / (12.0 * dx)
    return out


def _continuity_window(x: np.ndarray, cut: float | None) -> np.ndarray:
    """The points where continuity is checked: all but three at each end
    and, for a piecewise component, outside a strip of half-width 2 dx
    about the cut, so no kept point's stencil reaches past a grid end or
    holds points on both sides of the cut. Each side of a cut needs two
    points."""
    keep = np.ones(x.shape, dtype=bool)
    keep[:3] = keep[-3:] = False
    if cut is not None:
        keep &= np.abs(x - cut) > 2.0 * (x[1] - x[0]) + 1e-12
        i_cut = int(np.searchsorted(x, cut, side="right"))
        if min(i_cut, x.size - i_cut) < 2:
            raise GridTooCoarse(f"the grid holds fewer than two points on one side "
                                f"of the cut x_c = {cut:g}")
    if not keep.any():
        raise GridTooCoarse("continuity window excludes every grid point")
    return keep


def _evaluate(table: ModeTable, times, rated, values=None, derivs=None):
    """The (3, n_t, n_x) values and x derivatives at `times`, written into
    `values` and `derivs` if given, and the density rates d rho/d t =
    2 Re(conj(psi) d psi/d t) of the components `rated`. 2 d psi/d t is
    the packet of spectrum -i k^2 f(k); it is evaluated where the
    derivatives go and reduced to the rates before they are made."""
    values = table.states(times, out=values)
    rates = replace(table, f_k=-1j * table.k ** 2 * table.f_k).states(times, out=derivs)[rated]
    rates.real *= values[rated].real
    rates.imag *= values[rated].imag
    return values, rates.real + rates.imag, table.states(times, deriv=True, out=derivs)


def _continuity(x: np.ndarray, keep: np.ndarray, ext: slice, own: slice, drho: np.ndarray,
                j: np.ndarray) -> np.ndarray:
    """max |d rho/d t + d j/d x| along the last axis, over the points of
    x[own] that the continuity window `keep` holds, from the density rate
    and the current (from the exact derivative) on x[ext], which holds two
    more points on each side of own where the grid does. No kept point's
    stencil crosses the cut, so j is never differenced across it; see
    continuity_residual."""
    mine = slice(own.start - ext.start, own.stop - ext.start)
    residual = np.abs(drho + _gradient_uniform(j, x[1] - x[0]))[..., mine]
    return np.max(residual[..., keep[own]], axis=-1, initial=0.0)


def continuity_residual(table: ModeTable, component: str, t: float) -> float:
    """max |d rho/d t + d j/d x| on the grid.

    The density rate and the current use the exact time and x derivatives
    of the modes, so only d j/d x is differenced, and it meets only the
    mild j'''-kinks at the potential steps. For the piecewise components a
    strip of half-width 2 dx around the cut is always excluded, so no
    stencil holds points on both sides of the cut.
    """
    i = _index(component)
    keep = _continuity_window(table.x, table.x_c if component in ("tr", "ref") else None)
    worst = 0.0
    for own, ext, part in windows(table, halo=2):
        values, rate, derivs = _evaluate(part, [t], i)
        j = current_density(values[i, 0], derivs[i, 0])
        worst = max(worst, float(_continuity(table.x, keep, ext, own, rate[0], j)))
    return worst


@dataclass
class DiagnosticsSeries:
    """Per-time conservation, overlap, moment and continuity diagnostics."""

    t: np.ndarray
    T: np.ndarray
    R: np.ndarray
    total: np.ndarray
    overlap: np.ndarray
    xbar_full: np.ndarray
    pbar_full: np.ndarray
    varx_full: np.ndarray
    xbar_tr: np.ndarray
    pbar_tr: np.ndarray
    varx_tr: np.ndarray
    xbar_ref: np.ndarray
    pbar_ref: np.ndarray
    varx_ref: np.ndarray
    continuity: np.ndarray
    ref_cut_flux: np.ndarray
    identity_residual: np.ndarray


def _times_per_batch(n_x: int) -> int:
    """Times per diagnostics batch in a window of n_x points: the three
    (3, n_t, n_x) evaluations of a batch together take about BATCH_BYTES,
    and at most two of them are held at once."""
    return max(1, int(BATCH_BYTES // (3 * 3 * 16 * n_x)))


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (weight, mean, M2) triple of two parts of a density from each
    part's, by the pairwise update of Chan, Golub and LeVeque (Am. Stat.
    37, 242, 1983); M2 is the weighted sum of squared distances from the
    mean, so the variance never cancels against the squared mean. A part
    of weight 0 leaves the other's triple as it is."""
    w = a[0] + b[0]
    share = np.divide(b[0], w, out=np.zeros_like(w), where=w > 0)
    delta = b[1] - a[1]
    return np.stack((w, a[1] + delta * share, a[2] + b[2] + delta * delta * a[0] * share))


def diagnostics_series(table: ModeTable, times) -> DiagnosticsSeries:
    """Diagnostics at every time, from batched values and x derivatives
    and the density rates of tr and ref for their continuity residual.
    The quadrature weights, the continuity window and the cut indices are
    set up once for the grid. The windows are walked once, each with a
    halo of two points for the continuity differences. Every batch of
    times adds its window's integrals to the totals and its maxima to the
    running maxima, and each component's position spread is merged from
    the windows' (weight, mean, M2) triples."""
    times = np.asarray(times, dtype=float)
    x, x_c, n_t = table.x, table.x_c, times.size
    q = _quadrature(x)
    keep = _continuity_window(x, x_c)
    i_left = int(np.searchsorted(x, x_c, side="left")) - 1
    sums = np.zeros((3, n_t, 3))  # component, time, quadrature row
    spread = np.zeros((3, 3, n_t))  # (weight, mean, M2), component, time
    p_sum = np.zeros((3, n_t))
    overlap = np.zeros(n_t, dtype=complex)
    continuity, identity, ref_cut_flux = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)

    # as few batches as the cap of the widest window allows, of equal size;
    # every batch of every window is evaluated into the same two stacks
    width = min(X_CHUNK + 4, x.size)
    n_batches = max(1, -(-n_t // _times_per_batch(width)))
    batch = max(1, -(-n_t // n_batches))
    stacks = np.empty((2, 3, batch, width), dtype=complex)
    for own, ext, part in windows(table, halo=2):
        mine = slice(own.start - ext.start, own.stop - ext.start)
        w, x_own = q[:, own], x[own]
        for lo in range(0, n_t, batch):
            at = slice(lo, min(lo + batch, n_t))
            values, rates, derivs = _evaluate(part, times[at], slice(1, None),
                                              *stacks[..., :at.stop - lo, :part.x.size])
            j = current_density(values, derivs)
            np.maximum(continuity[at], _continuity(x, keep, ext, own, rates, j[1:]).max(axis=0),
                       out=continuity[at])
            if own.start <= i_left < own.stop:
                ref_cut_flux[at] = j[2, :, i_left - ext.start]
            v = values[..., mine]
            full, tr, ref = v
            np.maximum(identity[at], np.max(np.abs(tr + ref - full), axis=-1), out=identity[at])
            # each integral is its own dot product (vecdot), whose rounding
            # does not depend on the batch
            rho = _density(v)
            part_sums = np.vecdot(rho[..., None, :], w)
            weight = part_sums[..., 0]
            mean = np.divide(part_sums[..., 2], weight, out=np.zeros_like(weight),
                             where=weight > 0)
            m2 = np.vecdot(rho * (x_own - mean[..., None]) ** 2, w[0])
            sums[:, at] += part_sums
            spread[..., at] = _merge(spread[..., at], np.stack((weight, mean, m2)))
            p_sum[:, at] += np.vecdot(j[..., mine], w[0])
            overlap[at] += np.vecdot(w[0], np.conj(tr) * ref)

    err = np.max(np.abs(sums[..., 0] - sums[..., 1]), axis=0) / 3.0
    if np.any(err > QUADRATURE_ERROR):
        raise GridTooCoarse(f"estimated norm quadrature error {np.nanmax(err):.3e} "
                            f"exceeds {QUADRATURE_ERROR}")
    # moments of each component normalized to its own weight, NaN below
    # ZERO_NORM
    norm = np.where(sums[..., 0] < ZERO_NORM, np.nan, sums[..., 0])
    cols = {"T": sums[1, :, 0], "R": sums[2, :, 0], "total": sums[0, :, 0],
            "overlap": overlap, "continuity": continuity, "ref_cut_flux": ref_cut_flux,
            "identity_residual": identity}
    for c, name in enumerate(COMPONENTS):
        cols.update({f"xbar_{name}": sums[c, :, 2] / norm[c], f"pbar_{name}": p_sum[c] / norm[c],
                     f"varx_{name}": spread[2, c] / norm[c]})
    return DiagnosticsSeries(t=times, **cols)
