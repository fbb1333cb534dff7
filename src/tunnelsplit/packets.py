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
`ModeTable.states` is the one evaluator, for a batch of times and one
table of cos(kx) and sin(kx) shared by every time. It works in real
arithmetic: with C = cos(kx) and S = sin(kx), a e + b conj(e) =
(a + b) C + i (a - b) S, so the left pair and tr are one real product
against C stacked on S.
`synthesize` evaluates its grid X_CHUNK points at a time.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import GridTooCoarse, SpectrumDomainError
from .potential import PotentialSpec
from .splitting import decompose_block, sub_waves
from .stationary import ComponentField, ProblemBlock, sample_states
from .tolerances import QUADRATURE_ERROR, ZERO_NORM

COMPONENTS = ("full", "tr", "ref")

# spectral span in units of sigma_k; wide enough that the truncated tail
# (~1e-15) never shows up against the 1e-8 normalization contract
DEFAULT_SPAN_SIGMAS = 8.0
DEFAULT_N_K = 513
X_CHUNK = 2048  # grid points per cos/sin block in one-shot synthesis


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian spectrum centered at k0 with width sigma_k, launched at x0."""

    k0: float
    sigma_k: float
    x0: float

    def __post_init__(self):
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


def spectral_grid(packet: PacketSpec, n_k: int = DEFAULT_N_K,
                  span_sigmas: float = DEFAULT_SPAN_SIGMAS):
    """Uniform k grid with composite-Simpson weights."""
    if n_k < 65 or n_k % 2 == 0:
        raise ValueError(f"n_k must be odd and at least 65, got {n_k}")
    if span_sigmas < 5.0:
        raise ValueError("spectral span must cover at least 5 sigma_k")
    k_min = packet.k0 - span_sigmas * packet.sigma_k
    k_max = packet.k0 + span_sigmas * packet.sigma_k
    if k_min <= 0:
        raise SpectrumDomainError(
            f"spectral grid reaches k = {k_min:.4g} <= 0; "
            "narrow the span or move k0 up"
        )
    k = np.linspace(k_min, k_max, n_k)
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


def _plane_waves(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """cos(kx) and sin(kx) as a real (2, n_k, n_x) stack, filled in place:
    kx goes into the cos slot, sin is taken from it, then cos in place."""
    waves = np.empty((2, k.size, x.size))
    np.multiply.outer(k, x, out=waves[0])
    np.sin(waves[0], out=waves[1])
    np.cos(waves[0], out=waves[0])
    return waves


def _exterior(out: np.ndarray, c: np.ndarray, s: np.ndarray, waves: np.ndarray):
    """out = c cos(kx) + i s sin(kx), summed over the modes, for complex
    coefficient rows c and s (..., n_k) and `waves`, the (cos, sin) stack
    at out's points. Both parts come from one real product, of the rows
    [Re c, -Im s] and [Im c, Re s] against cos stacked on sin."""
    rows = np.stack((np.concatenate((c.real, -s.imag), axis=-1),
                     np.concatenate((c.imag, s.real), axis=-1)))
    table = waves.reshape(2 * c.shape[-1], waves.shape[-1])
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
    ref_state at the grid points inside [a, b), as (2, 3, n_k, n_inside),
    and `waves` holds exp(ikx) at the points outside as its real and
    imaginary parts, a (2, n_k, n_outside) stack of cos(kx) and sin(kx).
    One-shot synthesis leaves `waves` unset on its whole-grid table and
    evaluates windows of it.
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

    def states(self, times, deriv: bool = False) -> np.ndarray:
        """(full, tr, ref), cut at x_c, or their x derivatives, at every
        time, as a (3, n_t, n_x) stack."""
        t = np.asarray(times, dtype=float)
        coeff = (self.weights * self.f_k * np.exp(-0.5j * self.k ** 2 * t[:, None])
                 / math.sqrt(2.0 * math.pi))
        out = np.empty((3, t.size, self.x.size), dtype=complex)
        i_a, i_b = self._inside.start, self._inside.stop
        full, tr_state, ref_state = coeff @ self.inner[int(deriv)]
        out[0, :, i_a:i_b] = full
        out[1:, :, i_a:i_b] = sub_waves(self.x[i_a:i_b] <= self.x_c, full, tr_state, ref_state)

        # left of a, alpha e + beta conj(e) = (alpha + beta) cos + i (alpha - beta) sin
        up, down = (1j * self.k, -1j * self.k) if deriv else (1.0, 1.0)
        alpha = coeff * (up * self.full_left[0])
        beta = coeff * (down * self.full_left[1])
        tr_in = coeff * (up * self.tr_in)
        _exterior(out[:2, :, :i_a], np.stack((alpha + beta, tr_in)),
                  np.stack((alpha - beta, tr_in)), self.waves[:, :, :i_a])
        np.subtract(out[0, :, :i_a], out[1, :, :i_a], out=out[2, :, :i_a])
        A_T = coeff * (up * self.A_T)
        _exterior(out[0, :, i_b:], A_T, A_T, self.waves[:, :, i_a:])
        out[1, :, i_b:], out[2, :, i_b:] = out[0, :, i_b:], 0.0
        return out

    def state_slice(self, component: str, t: float, deriv: bool = False) -> np.ndarray:
        return self.states([t], deriv)[_index(component)][0]

    def on_barrier(self, spec: PotentialSpec) -> "ModeTable":
        """The same packet, grid and modes on another barrier over the same
        [a, b], sharing this table's cos/sin table."""
        table = _mode_table(spec, self.packet, self.x, self.k, self.weights)
        table.waves = self.waves
        return table

    def _window(self, lo: int, hi: int) -> "ModeTable":
        """The table on x[lo:hi], with cos(kx) and sin(kx) evaluated there."""
        i_a = self._inside.start
        part = replace(self, x=self.x[lo:hi],
                       inner=self.inner[..., max(lo - i_a, 0):max(hi - i_a, 0)])
        part.waves = _plane_waves(self.k, np.delete(part.x, part._inside))
        return part


def _mode_table(spec: PotentialSpec, packet: PacketSpec, x: np.ndarray,
                k: np.ndarray, weights: np.ndarray) -> ModeTable:
    """The coefficients of every mode, without cos(kx) and sin(kx). The
    modes are decomposed as one block, on the grid points within half the
    longest wavelength of the barrier, whose interior samples are their
    rows."""
    packet.check_separation(spec)
    reach = math.pi / k[0]
    x_dec = x[(x >= spec.a - reach) & (x <= spec.b + reach)]
    inside = (x_dec >= spec.a) & (x_dec < spec.b)
    dec = decompose_block(ProblemBlock.of(spec, 0.5 * k * k), x_dec)
    states = (dec.full_state, dec.tr_state, dec.ref_state)
    inner = np.empty((2, 3, k.size, np.count_nonzero(inside)), dtype=complex)
    for deriv in (0, 1):
        for i, state in enumerate(states):
            inner[deriv, i] = sample_states(state, x_dec[inside], bool(deriv))
    return ModeTable(spec=spec, packet=packet, x=x, k=k, weights=weights,
                     f_k=packet.spectrum(k), full_left=np.array(dec.full_state.left),
                     tr_in=dec.tr_state.left[0], A_T=dec.full_state.right[0], inner=inner)


def build_mode_table(spec: PotentialSpec, packet: PacketSpec,
                     x_grid: np.ndarray | None = None,
                     n_k: int = DEFAULT_N_K,
                     span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> ModeTable:
    x = default_x_grid(spec, packet, span_sigmas) if x_grid is None else np.asarray(x_grid, float)
    table = _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas))
    return table._window(0, x.size)


def fields_at(table: ModeTable, t: float) -> np.ndarray:
    """The values and x derivatives of (full, tr, ref) at one time, as a
    (2, 3, n_x) stack."""
    return np.stack([table.states([t], deriv)[:, 0] for deriv in (False, True)])


def synthesize(spec: PotentialSpec, packet: PacketSpec, component: str, times,
               x_grid: np.ndarray, n_k: int = DEFAULT_N_K,
               span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> list[ComponentField]:
    """One-shot synthesis at each of `times`: the mode coefficients are
    built once and the grid is evaluated X_CHUNK points at a time, so
    the cos/sin table never spans it. Prefer build_mode_table when many
    times are needed on the same grid."""
    i = _index(component)
    x = np.asarray(x_grid, dtype=float)
    table = _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas))
    values = np.empty((len(times), x.size), dtype=complex)
    for lo in range(0, x.size, X_CHUNK):
        values[:, lo:lo + X_CHUNK] = table._window(lo, lo + X_CHUNK).states(times)[i]
    return [ComponentField(x=x, values=v, t=float(t)) for v, t in zip(values, times)]


# --- diagnostics ------------------------------------------------------------
#
# Every x integral is a dot product with trapezoid weights, computed once per
# grid. diagnostics_series reduces one time's (component, n_x) arrays at a
# time: a time's arrays stay in cache, where a whole batch's would stream
# from memory.

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


def _gradient_uniform(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fourth-order central differences on a uniform grid; the two points
    at each end read 0. No continuity window keeps them (see
    _continuity_window)."""
    out = np.zeros_like(values)
    out[2:-2] = (
        values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]
    ) / (12.0 * (x[1] - x[0]))
    return out


def _continuity_window(x: np.ndarray, cut: float | None):
    """(keep, pieces): the points where continuity is checked, all but three
    at each end and, for a piecewise component, outside a strip of
    half-width 2 dx about the cut; and the slices of the grid that are
    differenced apart, split just left of the first point right of the
    cut. Each side of a cut needs two points to difference. No point it
    keeps lies within two points of either end of a piece: three go at
    each grid end, and the strip holds the two on each side of the cut."""
    keep = np.ones(x.shape, dtype=bool)
    keep[:3] = keep[-3:] = False
    pieces = [slice(None)]
    if cut is not None:
        keep &= np.abs(x - cut) > 2.0 * (x[1] - x[0]) + 1e-12
        i_cut = int(np.searchsorted(x, cut, side="right"))
        if min(i_cut, x.size - i_cut) < 2:
            raise GridTooCoarse(f"the grid holds fewer than two points on one side "
                                f"of the cut x_c = {cut:g}")
        pieces = [slice(None, i_cut), slice(i_cut, None)]
    if not keep.any():
        raise GridTooCoarse("continuity window excludes every grid point")
    return keep, pieces


def _evaluate(table: ModeTable, times, rated):
    """The (3, n_t, n_x) values and x derivatives at `times`, and the density
    rates d rho/d t = 2 Re(conj(psi) d psi/d t) of the components `rated`.
    2 d psi/d t is the packet of spectrum -i k^2 f(k); it is reduced to the
    rates before the derivatives are made, so two complex stacks are held."""
    values = table.states(times)
    rates = replace(table, f_k=-1j * table.k ** 2 * table.f_k).states(times)[rated]
    rates.real *= values[rated].real
    rates.imag *= values[rated].imag
    rates = rates.real + rates.imag  # releases the complex stack
    return values, rates, table.states(times, deriv=True)


def _continuity(x: np.ndarray, window, drho: np.ndarray, psi: np.ndarray,
                dpsi: np.ndarray) -> float:
    """max |d rho/d t + d j/d x| over the window's points, from the density
    rate and the exact derivative at t, never differencing j across the
    cut; see continuity_residual."""
    keep, pieces = window
    j = current_density(psi, dpsi)
    dj = np.concatenate([_gradient_uniform(j[p], x[p]) for p in pieces])
    return float(np.max(np.abs(drho + dj)[keep]))


def continuity_residual(table: ModeTable, component: str, t: float) -> float:
    """max |d rho/d t + d j/d x| on the grid.

    The density rate and the current use the exact time and x derivatives
    of the modes, so only d j/d x is differenced, and it meets only the
    mild j'''-kinks at the potential steps. For the piecewise components a
    strip of half-width 2 dx around the cut is always excluded.
    """
    i = _index(component)
    values, rate, derivs = _evaluate(table, [t], i)
    window = _continuity_window(table.x, table.x_c if component in ("tr", "ref") else None)
    return _continuity(table.x, window, rate[0], values[i, 0], derivs[i, 0])


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


def _times_per_batch(n_k: int) -> int:
    """Times per diagnostics batch. The three (3, n_t, n_x) evaluations of
    a batch together are about the size of the cos/sin table; at most two
    of them are held at once."""
    return max(1, n_k // 12)


def diagnostics_series(table: ModeTable, times) -> DiagnosticsSeries:
    """Diagnostics at every time, from batched values and x derivatives
    and the density rates of tr and ref for their continuity residual.
    The quadrature weights, the continuity window and the cut indices are
    set up once; the reductions then run one time at a time."""
    times = np.asarray(times, dtype=float)
    x, x_c = table.x, table.x_c
    q = _quadrature(x)
    window = _continuity_window(x, x_c)
    i_left = int(np.searchsorted(x, x_c, side="left")) - 1
    cols = {f.name: np.empty(times.size, dtype=complex if f.name == "overlap" else float)
            for f in fields(DiagnosticsSeries) if f.name != "t"}

    def fill(lo, ts):
        # every evaluation is released on return, before the next batch is made
        values, rates, derivs = _evaluate(table, ts, slice(1, None))
        for i in range(ts.size):
            v, d = values[:, i], derivs[:, i]
            full, tr, ref = v
            rho = _density(v)
            sums = rho @ q.T
            err = np.max(np.abs(sums[:, 0] - sums[:, 1])) / 3.0
            if err > QUADRATURE_ERROR:
                raise GridTooCoarse(f"estimated norm quadrature error {err:.3e} "
                                    f"exceeds {QUADRATURE_ERROR}")
            # moments of each component normalized to its own weight, NaN
            # below ZERO_NORM; var_x is taken about xbar, so it never
            # cancels against xbar^2
            norm = np.where(sums[:, 0] < ZERO_NORM, np.nan, sums[:, 0])
            xbar = sums[:, 2] / norm
            pbar = current_density(v, d) @ q[0] / norm
            var_x = (rho * (x - xbar[:, None]) ** 2) @ q[0] / norm
            row = {
                "T": sums[1, 0], "R": sums[2, 0], "total": sums[0, 0],
                "overlap": (np.conj(tr) * ref) @ q[0],
                "continuity": max(_continuity(x, window, rates[c - 1, i], v[c], d[c])
                                  for c in (1, 2)),
                "ref_cut_flux": current_density(ref[i_left], d[2, i_left]),
                "identity_residual": np.max(np.abs(tr + ref - full)),
            }
            for c, name in enumerate(COMPONENTS):
                row.update({f"xbar_{name}": xbar[c], f"pbar_{name}": pbar[c],
                            f"varx_{name}": var_x[c]})
            for name, value in row.items():
                cols[name][lo + i] = value

    batch = _times_per_batch(table.k.size)
    for lo in range(0, times.size, batch):
        fill(lo, times[lo:lo + batch])
    return DiagnosticsSeries(t=times, **cols)
