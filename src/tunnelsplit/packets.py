"""Time-dependent wave packets synthesized from stationary modes.

A packet is a Simpson-weighted superposition of stationary solutions,

    psi(x, t) = (2 pi)^(-1/2) sum_j w_j f(k_j) phi(x; k_j) exp(-i k_j^2 t / 2),

so time is a parameter, not an evolution variable: any t can be sampled
directly. Components:

    full       unit-incidence scattering state
    tr_state   transmission sub-solution (smooth, defined on the whole line)
    ref_state  reflection sub-solution (smooth, antisymmetric about x_c)
    tr         piecewise sub-process wave: tr_state left of x_c, full beyond
    ref        piecewise sub-process wave: ref_state left of x_c, 0 beyond

The piecewise pair carries the channel probabilities. The reflection
norm is conserved exactly (every reflection mode vanishes at x_c, so no
flux crosses the cut); the transmission norm matches its spectral weight
before and after the scattering but exchanges a small amount of
probability through the derivative cut while the packet straddles the
barrier, by the same flux identity that makes the tr/ref overlap purely
imaginary at launch and again once the sub-packets separate. The sum
rule T + R + 2 Re<tr|ref> = total holds at every instant.

Every field comes from one evaluator: `_superpose` multiplies the
coefficients of a batch of times into the mode rows of full, tr_state and
ref_state, one matrix product each, and `splitting.sub_waves` cuts the
result. `build_mode_table` fills one stack of value and derivative rows
in one serial pass; `synthesize` sums value rows SYNTH_CHUNK modes at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, SpectrumDomainError, ZeroNorm
from .potential import PotentialSpec
from .splitting import build_decomposition, sub_waves
from .stationary import ComponentField, EnergyMode, sample_states
from .tolerances import QUADRATURE_ERROR, ZERO_NORM

COMPONENTS = ("full", "tr", "ref", "tr_state", "ref_state")

# spectral span in units of sigma_k; wide enough that the truncated tail
# (~1e-15) never shows up against the 1e-8 normalization contract
DEFAULT_SPAN_SIGMAS = 8.0
DEFAULT_N_K = 513
SYNTH_CHUNK = 64  # modes per block of value rows in one-shot synthesis


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


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite-Simpson weights for n (odd) points spaced h apart."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


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


def spectrum_norm(packet: PacketSpec, n_k: int = 4097,
                  span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> float:
    k, w = spectral_grid(packet, n_k, span_sigmas)
    return float(np.sum(w * np.abs(packet.spectrum(k)) ** 2))


def default_x_grid(spec: PotentialSpec, packet: PacketSpec,
                   span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> np.ndarray:
    """Uniform grid resolving the fastest mode and the barrier, symmetric
    about x_c, wide enough to hold the packet through a canonical run."""
    k_max = packet.k0 + span_sigmas * packet.sigma_k
    dx = min(2.0 * np.pi / (8.0 * k_max), spec.width / 64.0)
    x_min = packet.x0 - 10.0 * packet.position_sigma()
    n_side = int(math.ceil((spec.x_c - x_min) / dx))
    return spec.x_c + dx * np.arange(-n_side, n_side + 1)


def _mode_rows(spec: PotentialSpec, x_grid: np.ndarray, ks, deriv: bool):
    """T, R and the mode rows of the wavenumbers `ks`, stacked as
    (3, n_k, n_x): full, tr_state, ref_state samples, followed by their
    exact derivatives, (6, n_k, n_x), when `deriv` is set."""
    T = np.empty(len(ks))
    R = np.empty(len(ks))
    rows = np.empty((6 if deriv else 3, len(ks), x_grid.size), dtype=complex)
    for j, k in enumerate(ks):
        dec = build_decomposition(spec, EnergyMode.from_k(float(k)), x_grid)
        T[j], R[j] = dec.amplitudes.T, dec.amplitudes.R
        rows[:3, j] = dec.full, dec.tr_solution, dec.ref_solution
        if deriv:
            states = (dec.full_state, dec.tr_state, dec.ref_state)
            rows[3:, j] = sample_states(states, x_grid, deriv=True)
    return T, R, rows


def _superpose(k, weights, f_k, times, mats) -> np.ndarray:
    """Multiply the (n_t, n_k) coefficients w_j f(k_j) exp(-i k_j^2 t/2)
    / sqrt(2 pi) of a batch of times into each (n_k, n_x) matrix of the
    stack `mats`, giving (3, n_t, n_x): full, tr_state, ref_state."""
    phase = np.exp(-0.5j * k ** 2 * np.asarray(times, dtype=float)[:, None])
    coeff = weights * f_k * phase / math.sqrt(2.0 * math.pi)
    return coeff @ mats


def _component(name: str, left: np.ndarray, full, tr_state, ref_state) -> np.ndarray:
    """One of COMPONENTS from the three smooth states."""
    if name not in COMPONENTS:
        raise ValueError(f"unknown component {name!r}; pick one of {COMPONENTS}")
    tr, ref = sub_waves(left, full, tr_state, ref_state)
    return dict(zip(COMPONENTS, (full, tr, ref, tr_state, ref_state)))[name]


@dataclass
class ModeTable:
    """Cached per-mode stationary fields on a fixed x grid.

    `rows` stacks the (n_k, n_x) mode-row matrices of full, tr_state and
    ref_state, so the fields at a batch of times are one matrix product
    per matrix (`states`). `drows` holds the analytic mode derivatives, so
    currents and momentum moments never difference across the potential
    steps.
    """

    spec: PotentialSpec
    packet: PacketSpec
    x: np.ndarray
    k: np.ndarray
    weights: np.ndarray
    f_k: np.ndarray
    T_k: np.ndarray
    R_k: np.ndarray
    rows: np.ndarray
    drows: np.ndarray
    x_c: float = field(init=False)
    _left_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.x_c = self.spec.x_c
        self._left_mask = self.x <= self.x_c

    def states(self, times, deriv: bool = False) -> np.ndarray:
        """(full, tr_state, ref_state), or their x derivatives, at every
        time, as a (3, n_t, n_x) stack."""
        return _superpose(self.k, self.weights, self.f_k, times,
                          self.drows if deriv else self.rows)

    def state_slice(self, component: str, t: float, deriv: bool = False) -> np.ndarray:
        return _component(component, self._left_mask, *self.states([t], deriv))[0]

    def spectral_transmission(self) -> float:
        """Channel weight integral sum_k w_k T(k) |f(k)|^2."""
        return float(np.sum(self.weights * self.T_k * np.abs(self.f_k) ** 2))

    def spectral_reflection(self) -> float:
        return float(np.sum(self.weights * self.R_k * np.abs(self.f_k) ** 2))


def build_mode_table(spec: PotentialSpec, packet: PacketSpec,
                     x_grid: np.ndarray | None = None,
                     n_k: int = DEFAULT_N_K,
                     span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> ModeTable:
    packet.check_separation(spec)
    x = default_x_grid(spec, packet, span_sigmas) if x_grid is None else np.asarray(x_grid, float)
    k, w = spectral_grid(packet, n_k, span_sigmas)
    T, R, mats = _mode_rows(spec, x, k, deriv=True)
    return ModeTable(
        spec=spec,
        packet=packet,
        x=x,
        k=k,
        weights=w,
        f_k=packet.spectrum(k),
        T_k=T,
        R_k=R,
        rows=mats[:3],
        drows=mats[3:],
    )


@dataclass
class EvolvedField:
    """All three sub-process components (and their exact spatial
    derivatives) on the grid at one time."""

    x: np.ndarray
    t: float
    full: np.ndarray
    tr: np.ndarray
    ref: np.ndarray
    dfull: np.ndarray
    dtr: np.ndarray
    dref: np.ndarray
    x_c: float
    identity_residual: float = field(init=False)

    def __post_init__(self):
        self.identity_residual = float(np.max(np.abs(self.tr + self.ref - self.full)))

    def component(self, name: str) -> np.ndarray:
        if name not in ("full", "tr", "ref"):
            raise ValueError(f"unknown component {name!r}")
        return getattr(self, name)

    def derivative(self, name: str) -> np.ndarray:
        if name not in ("full", "tr", "ref"):
            raise ValueError(f"unknown component {name!r}")
        return getattr(self, "d" + name)


def _fields(table: ModeTable, times) -> list[EvolvedField]:
    """EvolvedField at each time, from one batched product per mode matrix."""
    left = table._left_mask
    full, tr_state, ref_state = table.states(times)
    dfull, dtr_state, dref_state = table.states(times, deriv=True)
    tr, ref = sub_waves(left, full, tr_state, ref_state)
    dtr, dref = sub_waves(left, dfull, dtr_state, dref_state)
    return [
        EvolvedField(x=table.x, t=float(t), full=full[i], tr=tr[i], ref=ref[i],
                     dfull=dfull[i], dtr=dtr[i], dref=dref[i], x_c=table.x_c)
        for i, t in enumerate(times)
    ]


def fields_at(table: ModeTable, t: float) -> EvolvedField:
    return _fields(table, [t])[0]


def synthesize(spec: PotentialSpec, packet: PacketSpec, component: str, times,
               x_grid: np.ndarray, n_k: int = DEFAULT_N_K,
               span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> list[ComponentField]:
    """One-shot synthesis at each of `times` without caching a mode table.

    One pass over the modes (`_smooth_sums`) builds value rows SYNTH_CHUNK
    modes at a time and sums the three smooth states; the cut is applied
    once to the sums.
    Memory stays O(n_t n_x); prefer build_mode_table when many times are
    needed on the same grid.
    """
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; pick one of {COMPONENTS}")
    x = np.asarray(x_grid, dtype=float)
    sums = _smooth_sums(spec, packet, times, x, n_k, span_sigmas)
    values = _component(component, x <= spec.x_c, *sums)
    return [ComponentField(x=x, values=v, label=component, t=float(t))
            for v, t in zip(values, times)]


def _smooth_sums(spec: PotentialSpec, packet: PacketSpec, times, x: np.ndarray,
                 n_k: int = DEFAULT_N_K,
                 span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> np.ndarray:
    """The body of `synthesize`: full, tr_state and ref_state at every
    time, as a (3, n_t, n_x) stack, before any cut."""
    packet.check_separation(spec)
    times = np.asarray(times, dtype=float)
    k, w = spectral_grid(packet, n_k, span_sigmas)
    f = packet.spectrum(k)
    sums = np.zeros((3, times.size, x.size), dtype=complex)
    for lo in range(0, k.size, SYNTH_CHUNK):
        part = slice(lo, lo + SYNTH_CHUNK)
        _, _, rows = _mode_rows(spec, x, k[part], deriv=False)
        sums += _superpose(k[part], w[part], f[part], times, rows)
    return sums


# --- diagnostics ------------------------------------------------------------

def _trapz(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(y, x))


def norms(fld: EvolvedField) -> tuple[float, float, float]:
    """(T_t, R_t, total) with a Richardson estimate of the quadrature error."""
    dens = [np.abs(fld.tr) ** 2, np.abs(fld.ref) ** 2, np.abs(fld.full) ** 2]
    fine = [_trapz(d, fld.x) for d in dens]
    coarse = [_trapz(d[::2], fld.x[::2]) for d in dens]
    err = max(abs(f - c) / 3.0 for f, c in zip(fine, coarse))
    if err > QUADRATURE_ERROR:
        raise GridTooCoarse(
            f"estimated norm quadrature error {err:.3e} exceeds {QUADRATURE_ERROR}"
        )
    return fine[0], fine[1], fine[2]


def overlap(fld: EvolvedField) -> complex:
    """<tr | ref>; purely imaginary at launch, decaying as the sub-packets
    separate, with a transient real part while the packet crosses the cut."""
    return complex(np.trapezoid(np.conj(fld.tr) * fld.ref, fld.x))


def _gradient_uniform(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fourth-order differences on a uniform grid, one-sided at the ends.

    Matching the edge order keeps derivative-cut artifacts inside the
    2-spacing exclusion strip that continuity windows already apply.
    """
    n = values.size
    if n < 6:
        return np.gradient(values, x, edge_order=2 if n >= 3 else 1)
    h = x[1] - x[0]
    out = np.empty_like(values)
    out[2:-2] = (
        values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]
    ) / (12.0 * h)
    out[0] = (
        -25.0 * values[0] + 48.0 * values[1] - 36.0 * values[2]
        + 16.0 * values[3] - 3.0 * values[4]
    ) / (12.0 * h)
    out[1] = (
        -3.0 * values[0] - 10.0 * values[1] + 18.0 * values[2]
        - 6.0 * values[3] + values[4]
    ) / (12.0 * h)
    out[-2] = -(
        -3.0 * values[-1] - 10.0 * values[-2] + 18.0 * values[-3]
        - 6.0 * values[-4] + values[-5]
    ) / (12.0 * h)
    out[-1] = -(
        -25.0 * values[-1] + 48.0 * values[-2] - 36.0 * values[-3]
        + 16.0 * values[-4] - 3.0 * values[-5]
    ) / (12.0 * h)
    return out


def _gradient_with_cut(values: np.ndarray, x: np.ndarray, x_c: float | None) -> np.ndarray:
    """Derivative estimate that never differences across the cut at x_c."""
    if x_c is None:
        return _gradient_uniform(values, x)
    i_cut = int(np.searchsorted(x, x_c, side="right"))
    out = np.empty_like(values)
    out[:i_cut] = _gradient_uniform(values[:i_cut], x[:i_cut])
    out[i_cut:] = _gradient_uniform(values[i_cut:], x[i_cut:])
    return out


@dataclass
class Moments:
    xbar: float
    pbar: float
    var_x: float


def moments(fld: EvolvedField, component: str) -> Moments:
    """Position mean, momentum mean and position variance of one component,
    normalized to the component's own weight."""
    return moments_of_samples(
        fld.x,
        fld.component(component),
        dpsi=fld.derivative(component),
        cut=fld.x_c if component in ("tr", "ref") else None,
    )


def moments_of_samples(x: np.ndarray, psi: np.ndarray, dpsi: np.ndarray | None = None,
                       cut: float | None = None) -> Moments:
    """Moments from samples; the derivative is taken analytically when
    supplied, otherwise by differences that stay one-sided at the cut."""
    dens = np.abs(psi) ** 2
    norm = _trapz(dens, x)
    if norm < ZERO_NORM:
        raise ZeroNorm(f"component norm {norm:.3e} too small for moments")
    xbar = _trapz(x * dens, x) / norm
    var_x = _trapz(x * x * dens, x) / norm - xbar ** 2
    if dpsi is None:
        dpsi = _gradient_with_cut(psi, x, cut)
    pbar = _trapz(np.imag(np.conj(psi) * dpsi), x) / norm
    return Moments(xbar=xbar, pbar=pbar, var_x=var_x)


def current_density(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    return np.imag(np.conj(psi) * dpsi)


def _continuity(x: np.ndarray, cut: float | None, psi_minus: np.ndarray, psi: np.ndarray,
                psi_plus: np.ndarray, dpsi: np.ndarray, dt: float,
                x_window: tuple[float, float] | None = None) -> float:
    """max |d rho/d t + d j/d x| from samples at t - dt, t, t + dt and the
    exact derivative at t; see continuity_residual."""
    dx = x[1] - x[0]
    drho = (np.abs(psi_plus) ** 2 - np.abs(psi_minus) ** 2) / (2.0 * dt)
    dj = _gradient_with_cut(current_density(psi, dpsi), x, cut)

    resid = np.abs(drho + dj)
    keep = np.ones(x.shape, dtype=bool)
    keep[:3] = keep[-3:] = False
    if cut is not None:
        keep &= np.abs(x - cut) > 2.0 * dx + 1e-12
    if x_window is not None:
        keep &= (x >= x_window[0]) & (x <= x_window[1])
    if not keep.any():
        raise ValueError("continuity window excludes every grid point")
    return float(np.max(resid[keep]))


def continuity_residual(table: ModeTable, component: str, t: float, dt: float,
                        x_window: tuple[float, float] | None = None) -> float:
    """max |d rho/d t + d j/d x| over the window.

    The density rate uses a centered difference in t; the current uses the
    analytic mode derivatives, so d j/d x differencing meets only the mild
    j'''-kinks at the potential steps. For the piecewise components a
    strip of half-width 2 dx around the cut is always excluded.
    """
    left = table._left_mask
    psi = _component(component, left, *table.states([t - dt, t, t + dt]))
    dpsi = _component(component, left, *table.states([t], deriv=True))[0]
    cut = table.x_c if component in ("tr", "ref") else None
    return _continuity(table.x, cut, psi[0], psi[1], psi[2], dpsi, dt, x_window)


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


def diagnostics_series(table: ModeTable, times, fd_dt: float = 1e-2) -> DiagnosticsSeries:
    """Diagnostics at every time, from batched fields plus the values at
    t -/+ fd_dt for the continuity residual. A batch holds at most n_k / 4
    times, so its arrays stay smaller than the table."""
    times = np.asarray(times, dtype=float)
    n = times.size
    cols = {
        name: np.full(n, np.nan)
        for name in (
            "T", "R", "total",
            "xbar_full", "pbar_full", "varx_full",
            "xbar_tr", "pbar_tr", "varx_tr",
            "xbar_ref", "pbar_ref", "varx_ref",
            "continuity", "ref_cut_flux", "identity_residual",
        )
    }
    ov = np.zeros(n, dtype=complex)
    x, x_c, left = table.x, table.x_c, table._left_mask
    i_left = int(np.searchsorted(x, x_c, side="left")) - 1
    batch = max(1, table.k.size // 4)

    for lo in range(0, n, batch):
        ts = times[lo:lo + batch]
        tr_minus, ref_minus = sub_waves(left, *table.states(ts - fd_dt))
        tr_plus, ref_plus = sub_waves(left, *table.states(ts + fd_dt))
        for j, fld in enumerate(_fields(table, ts)):
            i = lo + j
            cols["T"][i], cols["R"][i], cols["total"][i] = norms(fld)
            ov[i] = overlap(fld)
            cols["identity_residual"][i] = fld.identity_residual
            for comp in ("full", "tr", "ref"):
                try:
                    m = moments(fld, comp)
                except ZeroNorm:
                    continue
                cols[f"xbar_{comp}"][i] = m.xbar
                cols[f"pbar_{comp}"][i] = m.pbar
                cols[f"varx_{comp}"][i] = m.var_x
            cols["continuity"][i] = max(
                _continuity(x, x_c, tr_minus[j], fld.tr, tr_plus[j], fld.dtr, fd_dt),
                _continuity(x, x_c, ref_minus[j], fld.ref, ref_plus[j], fld.dref, fd_dt),
            )
            j_ref = current_density(fld.ref, fld.dref)
            cols["ref_cut_flux"][i] = j_ref[i_left]

    return DiagnosticsSeries(t=times, overlap=ov, **cols)
