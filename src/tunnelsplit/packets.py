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

and derivatives scale the pairs by +/- ik. A table keeps the value and
derivative rows of every mode at its sampled points, the barrier's and
BAND + 2 more on each side. Everywhere else a component is a plane-wave
sum, sum_m a_m exp(i k_m x) over the uniform k grid at the points of the
uniform x grid, and one chirp z-transform (`_chirp_z`) makes it at every
point of a side at once. A mode's time derivative is -i k^2/2 times the
mode, so nothing is differenced in time. `ModeTable.states_at` is the one
field evaluator, for a batch of times given by their phases
exp(-i k^2 t / 2) (`_phases`).

`diagnostics_series` needs no fields outside the sampled points. There
every integral is a quadratic form in the coefficient rows, against
Toeplitz and Hankel kernels in k that do not depend on t: each kernel is
made once per part of the grid by chirp z-transforms, and each form is a
sum over the bins of a circulant of 2 n_k - 1 (see the diagnostics
comment). The series evaluates fields only on the sampled points, for the
integrals inside the barrier, continuity, the cut flux and the identity.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridTooCoarse, SpectrumDomainError
from .potential import PotentialSpec
from .splitting import DECOMPOSE_BYTES, decompose_block, sub_waves
from .stationary import ComponentField, ProblemBlock, block_bytes, sample_states
from .tolerances import QUADRATURE_ERROR, SPECTRUM_NORM, ZERO_NORM

COMPONENTS = ("full", "tr", "ref")

# spectral span in units of sigma_k; wide enough that the truncated tail
# (~1e-15) never shows up against the 1e-8 normalization contract
DEFAULT_SPAN_SIGMAS = 8.0
DEFAULT_N_K = 513
BAND = 6  # grid points on each side of the barrier where continuity is read
# bytes of one diagnostics batch: its phases and the spectra of its forms
SPECTRA_BYTES = 4e6


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


def _uniform_step(v: np.ndarray, name: str) -> float:
    """The spacing of the grid v; ValueError naming the `name` grid if v
    departs from v[0] + j step by more than 4 ulp of its largest entry."""
    step = (v[-1] - v[0]) / max(v.size - 1, 1)
    if np.max(np.abs(v - v[0] - step * np.arange(v.size))) > 4.0 * np.spacing(np.abs(v).max()):
        raise ValueError(f"the {name} grid must be uniform")
    return step


def _phases(k: np.ndarray, times) -> np.ndarray:
    """exp(-i k^2 t / 2), the phase of every mode k at every time, as
    (n_t, n_k) rows."""
    phase = -0.5j * k ** 2 * np.asarray(times, dtype=float)[:, None]
    return np.exp(phase, out=phase)


def _batch_size(n_t: int, n_k: int) -> int:
    """Times per batch, for n_t times in batches of equal size: a
    diagnostics batch's phases and spectra, at most eighteen complex arrays
    of (n_t, 2 n_k - 1) at once, take at most about SPECTRA_BYTES.
    `ModeTable.states` batches its times the same way."""
    most = max(1, int(SPECTRA_BYTES // (18 * 16 * (2 * n_k - 1))))
    return max(1, -(-n_t // max(1, -(-n_t // most))))


def states_bytes(n_t, n, n_k: int) -> float:
    """Bytes of `ModeTable.states` at n_t times on n points: the (3, n_t, n)
    stack, and for one batch of times (_batch_size) their phases and
    coefficients and the chirp z-transforms' two FFT buffers for each of
    the two rows a time on a side, each at most 2 (n_k + n) bins."""
    return 16.0 * (3 * n_t * n + min(_batch_size(n_t, n_k), n_t) * (5 * n_k + 8 * (n_k + n)))


def _chirp_z(w: np.ndarray, x0: float, dx: float, theta0: float, dtheta: float,
             n: int) -> np.ndarray:
    """sum_j w[..., j] exp(i theta_l x_j) at theta_l = theta0 + l dtheta for
    l < n, with x_j = x0 + j dx, per row of w: one chirp z-transform
    (Rabiner, Schafer & Rader, IEEE Trans. Audio Electroacoust. 17, 86,
    1969). With j and l counted from their middles, theta_l x_j = theta_c
    x_c + theta_c j dx + l dtheta x_c + l j phi, phi = dtheta dx, and l j =
    (l^2 + j^2 - (l - j)^2) / 2 makes the sum over j a convolution with the
    chirp exp(-i phi d^2 / 2), done by FFT."""
    n_x = w.shape[-1]
    cj, cl = (n_x - 1) // 2, (n - 1) // 2
    j, l = np.arange(n_x) - cj, np.arange(n) - cl
    d = np.arange(-cl - (n_x - 1 - cj), n - cl + cj)  # every l - j
    theta_c, x_c, phi = theta0 + cl * dtheta, x0 + cj * dx, dtheta * dx
    size = 1 << (n_x + n - 2).bit_length()
    conv = np.fft.fft(w * np.exp(1j * (theta_c * dx * j + 0.5 * phi * j * j)), size)
    conv *= np.fft.fft(np.exp(-0.5j * phi * d * d), size)
    conv = np.fft.ifft(conv)[..., n_x - 1:n_x - 1 + n]
    return np.exp(1j * (theta_c * x_c + dtheta * x_c * l + 0.5 * phi * l * l)) * conv


def _index(component: str) -> int:
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; pick one of {COMPONENTS}")
    return COMPONENTS.index(component)


def _n_sampled(spec: PotentialSpec, dx: float) -> float:
    return spec.width / dx + 1 + 2 * (BAND + 2)  # at most, of a grid dx apart (_sampled)


def _sampled(x: np.ndarray, spec: PotentialSpec) -> tuple[slice, slice]:
    """The grid points inside [a, b), and the sampled points: those and
    BAND + 2 more on each side, where the grid has them."""
    i_a, i_b = (int(i) for i in np.searchsorted(x, (spec.a, spec.b)))
    return slice(i_a, i_b), slice(max(i_a - BAND - 2, 0), min(i_b + BAND + 2, x.size))


@dataclass
class ModeTable:
    """Per-mode coefficients of full, tr_state and ref_state on one barrier
    and uniform x grid.

    `full_left` is full's plane-wave pair left of a, where tr_state has
    only its incoming wave `tr_in`; beyond b full is `A_T` exp(ikx).
    `inner` holds the values and x derivatives of full, tr_state and
    ref_state at the sampled points (_sampled), as (2, 3, n_k, n_sampled);
    a table made for values alone (`synthesize`) holds (1, 3, n_k,
    n_sampled).
    A table holds no plane waves: on each side of the sampled points
    `states_at` makes its fields by chirp z-transforms of the coefficient
    rows, so no array spans n_k by the grid. A nonuniform x or k grid
    raises ValueError.
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
    x_c: float = field(init=False)
    dx: float = field(init=False)
    dk: float = field(init=False)
    _inside: slice = field(init=False)
    _sampled: slice = field(init=False)

    def __post_init__(self):
        self.x_c = self.spec.x_c
        if np.any(self.x[1:] < self.x[:-1]):
            raise ValueError("the x grid must be ascending")
        self.dx, self.dk = _uniform_step(self.x, "x"), _uniform_step(self.k, "k")
        self._inside, self._sampled = _sampled(self.x, self.spec)

    def states(self, times, deriv: bool = False, out: np.ndarray | None = None) -> np.ndarray:
        """(full, tr, ref), cut at x_c, or their x derivatives, at every
        time, as a (3, n_t, n_x) stack, written into `out` if given. The
        times go in batches (_batch_size), so the chirp z-transforms' room
        does not grow with their number."""
        times = np.asarray(times, dtype=float)
        if out is None:
            out = np.empty((3, times.size, self.x.size), dtype=complex)
        batch = _batch_size(times.size, self.k.size)
        for lo in range(0, times.size, batch):
            self.states_at(_phases(self.k, times[lo:lo + batch]), deriv, out[:, lo:lo + batch])
        return out

    def _coefficients(self, phase: np.ndarray) -> np.ndarray:
        return phase * (self.weights * self.f_k / math.sqrt(2.0 * math.pi))

    def sampled_at(self, phase: np.ndarray, deriv: bool = False) -> np.ndarray:
        """`states` at the sampled points and the times of `phase`
        (_phases), as (3, n_t, n_sampled), from the `inner` rows."""
        full, tr_state, ref_state = self._coefficients(phase) @ self.inner[int(deriv)]
        cut = self.x[self._sampled] <= self.x_c
        return np.stack((full, *sub_waves(cut, full, tr_state, ref_state)))

    def states_at(self, phase: np.ndarray, deriv: bool = False,
                  out: np.ndarray | None = None) -> np.ndarray:
        """`states` at the times of `phase` (_phases): the `inner` rows on
        the sampled points, and on each side of them one chirp z-transform
        per run of plane waves, over the k grid to the points of that side."""
        k, x, n_x = self.k, self.x, self.x.size
        if out is None:
            out = np.empty((3, phase.shape[0], n_x), dtype=complex)
        lo, hi = self._sampled.start, self._sampled.stop
        out[..., lo:hi] = self.sampled_at(phase, deriv)
        coeff = self._coefficients(phase)
        up, down = (1j * k, -1j * k) if deriv else (1.0, 1.0)
        if lo:
            # left of a, full = alpha e + beta conj(e) and tr = tr_in e; the
            # sum of beta conj(e) is the sum of beta e at the points -x
            rows = coeff * (up * np.stack((self.full_left[0], self.tr_in)))[:, None]
            out[:2, :, :lo] = _chirp_z(rows, k[0], self.dk, x[0], self.dx, lo)
            out[0, :, :lo] += _chirp_z(coeff * (down * self.full_left[1]), k[0], self.dk,
                                       -x[0], -self.dx, lo)
            np.subtract(out[0, :, :lo], out[1, :, :lo], out=out[2, :, :lo])
        if hi < n_x:  # right of b, full = A_T e
            out[0, :, hi:] = _chirp_z(coeff * (up * self.A_T), k[0], self.dk, x[hi], self.dx,
                                      n_x - hi)
            out[1, :, hi:], out[2, :, hi:] = out[0, :, hi:], 0.0
        return out

    def state_slice(self, component: str, t: float, deriv: bool = False) -> np.ndarray:
        return self.states([t], deriv)[_index(component)][0]


def _mode_table(spec: PotentialSpec, packet: PacketSpec, x: np.ndarray,
                k: np.ndarray, weights: np.ndarray, n_rows: int = 2) -> ModeTable:
    """The coefficients of every mode, and its rows at the sampled points:
    the values and, unless `n_rows` is 1, the x derivatives. The modes are
    decomposed as one block, which checks itself at every x from its
    coefficients, so the grid does not change what is checked."""
    packet.check_separation(spec)
    sampled = _sampled(x, spec)[1]
    dec = decompose_block(ProblemBlock.of(spec, 0.5 * k * k))
    states = (dec.full_state, dec.tr_state, dec.ref_state)
    inner = np.empty((n_rows, 3, k.size, sampled.stop - sampled.start), dtype=complex)
    for deriv in range(n_rows):
        for i, state in enumerate(states):
            inner[deriv, i] = sample_states(state, x[sampled], bool(deriv))
    return ModeTable(spec=spec, packet=packet, x=x, k=k, weights=weights,
                     f_k=packet.spectrum(k), full_left=np.array(dec.full_state.left),
                     tr_in=dec.tr_state.left[0], A_T=dec.full_state.right[0], inner=inner)


def table_bytes(spec: PotentialSpec, n_k: int, n_x, dx: float, n_rows: int = 2) -> float:
    """Bytes of _mode_table on n_x points dx apart: the modes' decomposition,
    32 bytes a point, and n_rows rows of three states a mode at the sampled
    points."""
    return (block_bytes(n_k, len(spec.segments), DECOMPOSE_BYTES) + 32.0 * n_x
            + 48.0 * n_rows * n_k * _n_sampled(spec, dx))


def build_mode_table(spec: PotentialSpec, packet: PacketSpec,
                     x_grid: np.ndarray | None = None,
                     n_k: int = DEFAULT_N_K,
                     span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> ModeTable:
    x = default_x_grid(spec, packet, span_sigmas) if x_grid is None else np.asarray(x_grid, float)
    return _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas))


def fields_at(table: ModeTable, t: float) -> np.ndarray:
    """The values and x derivatives of (full, tr, ref) at one time, as a
    (2, 3, n_x) stack."""
    phase = _phases(table.k, [t])
    return np.stack([table.states_at(phase, deriv)[:, 0] for deriv in (False, True)])


def synthesize(spec: PotentialSpec, packet: PacketSpec, component: str, times,
               x_grid: np.ndarray, n_k: int = DEFAULT_N_K,
               span_sigmas: float = DEFAULT_SPAN_SIGMAS) -> list[ComponentField]:
    """One-shot synthesis of one component at each of `times`, keeping
    only that component. Prefer build_mode_table when many times are
    needed on the same grid."""
    i = _index(component)
    x = np.asarray(x_grid, dtype=float)
    # the values alone: no derivative row is read
    table = _mode_table(spec, packet, x, *spectral_grid(packet, n_k, span_sigmas), n_rows=1)
    values = table.states(times)[i].copy()
    return [ComponentField(x=x, values=v, t=float(t)) for v, t in zip(values, times)]


# --- diagnostics ------------------------------------------------------------
#
# Every x integral is a sum over the grid with trapezoid weights w, taken
# part by part: left of a, inside [a, b) and from b on. Outside the barrier
# each component is psi = sum_m a_m e_m + b_m conj(e_m), e_m = exp(i k_m x),
# with coefficient rows a(t) and b(t) (see the module docstring), so
#
#     sum_j w_j conj(psi1) psi2 = sum_mn conj(a1_m) a2_n g(k_n - k_m)
#         + conj(b1_m) b2_n g(k_m - k_n) + conj(a1_m) b2_n g(-(k_m + k_n))
#         + conj(b1_m) a2_n g(k_m + k_n),   g(theta) = sum_j w_j exp(i theta x_j)
#
# over the part's points: a quadratic form in the coefficients. On the
# uniform k grid its kernels are Toeplitz (n - m) and Hankel (m + n), the
# same at every time; in a circulant of 2 n_k - 1 bins each form is a sum
# over bins of the coefficient rows' spectra times the kernel's (_form).
# Each kernel is made by chirp z-transforms over the part (_kernels). Inside
# [a, b) the fields come from the table's `inner` rows; they, the continuity
# residual, the cut flux and the identity are evaluated on the table's
# sampled points, the only place the series makes fields.

def _quadrature(x: np.ndarray) -> np.ndarray:
    """Trapezoid weights on x as two rows: the rule and the rule on every
    other point (zero between; the Richardson error estimate compares the
    two)."""
    def trapezoid(x):
        w = np.zeros_like(x)
        half = 0.5 * np.diff(x)
        w[:-1] += half
        w[1:] += half
        return w

    q = np.zeros((2, x.size))
    q[0] = trapezoid(x)
    q[1, ::2] = trapezoid(x[::2])
    return q


def _weights(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """The weight rows of a part of the grid, the points x with their
    quadrature rows q (_quadrature): the rule, the rule on every other
    point, and the rule times (x - s) and (x - s)^2, s being the part's
    midpoint; and s."""
    s = 0.5 * (x[0] + x[-1]) if x.size else 0.0
    return np.stack((q[0], q[1], (x - s) * q[0], (x - s) ** 2 * q[0])), s


def _kernels(w: np.ndarray, x0: float, dx: float, k: np.ndarray, dk: float, hankel: bool):
    """The kernels of the weight rows w on the points x0 + j dx, as bins of
    a circulant of 2 n_k - 1 (see _form): the Toeplitz kernel g(k_n - k_m)
    and, if `hankel`, the Hankel kernel g(-(k_m + k_n)), for the uniform k
    grid of spacing dk; the Hankel bins come conjugated, as np.vecdot takes
    them (_form). Each is a sum of chirp
    z-transforms over blocks of at least 2 n_k - 1 points, each block and
    the 2 n_k - 1 outputs filling one power-of-two FFT, so no array grows
    with the number of points."""
    n_k = k.size
    size = 2 * n_k - 1
    block = (1 << (2 * size - 2).bit_length()) - size + 1
    toeplitz = np.zeros((w.shape[0], size), dtype=complex)
    hankel = np.zeros_like(toeplitz) if hankel else None
    for lo in range(0, w.shape[-1], block):
        rows = w[:, lo:lo + block]
        # lags -(n_k - 1) .. n_k - 1, and m + n = 0 .. 2 n_k - 2
        toeplitz += _chirp_z(rows, x0 + lo * dx, dx, -(n_k - 1) * dk, dk, size)
        if hankel is not None:
            hankel += _chirp_z(rows, x0 + lo * dx, dx, -2.0 * k[0], -dk, size)
    # the lag of bin i is i mod size; g(-theta) = conj g(theta) makes it real
    toeplitz = np.fft.ifft(np.roll(toeplitz, n_k, axis=-1)).real
    return toeplitz, None if hankel is None else np.conj(np.fft.ifft(hankel))


def _form(one, two, kernels) -> np.ndarray:
    """sum_j w_j conj(psi1(x_j)) psi2(x_j) over a part of the grid, for each
    weight row w of its `kernels` (_kernels) and each time, as (n_t, rows).
    psi = a e + b conj(e) is given by the spectra (A, B) of its coefficient
    rows, fft(a) and fft(b) over the kernels' 2 n_k - 1 bins, with B None
    for b = 0. With X' the bins of X at -f, the four terms of the form
    (see the diagnostics comment) are
        Toeplitz   conj(A1) A2,  conj(B1') B2'
        Hankel     conj(A1') B2, conj(conj(A2') B1),
    a correlation and a convolution each. Every product is reduced against
    all rows at once, each row by its own dot product (np.vecdot), whose
    rounding does not depend on the number of times."""
    (a1, b1), (a2, b2) = one, two
    toeplitz, hankel = kernels
    flip = -np.arange(a1.shape[-1]) % a1.shape[-1]
    out = np.vecdot(toeplitz, (np.conj(a1) * a2)[:, None])
    if b2 is not None:
        out += np.vecdot(hankel, (np.conj(a1[:, flip]) * b2)[:, None])
    if b1 is not None:
        out += np.vecdot(toeplitz[:, flip], (np.conj(b1) * b2)[:, None])
        out += np.conj(np.vecdot(hankel, (np.conj(a2[:, flip]) * b1)[:, None]))
    return out


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


def _evaluate(at, table: ModeTable, phase: np.ndarray, rated):
    """The (3, n_t, n_x) values and x derivatives at the times of `phase`
    (_phases), and the density rates d rho/d t = 2 Re(conj(psi) d psi/d t)
    of the components `rated`, on the points of `at`: ModeTable.states_at
    for the grid, ModeTable.sampled_at for the sampled points. 2 d psi/d t
    is the packet of spectrum -i k^2 f(k), reduced to the rates before the
    derivatives are made."""
    values = at(table, phase)
    rates = at(replace(table, f_k=-1j * table.k ** 2 * table.f_k), phase)[rated]
    rates.real *= values[rated].real
    rates.imag *= values[rated].imag
    return values, rates.real + rates.imag, at(table, phase, True)


def _continuity(x: np.ndarray, keep: np.ndarray, ext: slice, own: slice, drho: np.ndarray,
                j: np.ndarray) -> np.ndarray:
    """max |d rho/d t + d j/d x| along the last axis, over the points of
    x[own] that the continuity window `keep` holds, from the density rate
    and the current (from the exact derivative) on x[ext], which holds two
    more points on each side of own where the grid does (or all of it). No
    kept point's stencil crosses the cut, so j is never differenced across
    it; see continuity_residual."""
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
    values, rate, derivs = _evaluate(ModeTable.states_at, table, _phases(table.k, [t]), i)
    j = current_density(values[i, 0], derivs[i, 0])
    whole = slice(0, table.x.size)
    return float(_continuity(table.x, keep, whole, whole, rate[0], j))


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
    quadrature_error: np.ndarray  # the Richardson estimate of the norms' x quadrature


def diagnostics_bytes(spec: PotentialSpec, n_k: int, n_x, dx: float, n_t) -> float:
    """Bytes of diagnostics_series at n_t times on a table of n_x points dx
    apart, the table aside: quadrature and weight rows, the kernels, 64
    floats a time of sums and columns, and one batch's spectra (eighteen
    arrays of 2 n_k - 1 bins a time) and fields at the sampled points."""
    bins = 2 * n_k - 1
    return 16.0 * (4 * n_x + 40 * bins + 32 * n_t
                   + _batch_size(n_t, n_k) * (18 * bins + 9 * _n_sampled(spec, dx)))


def diagnostics_series(table: ModeTable, times) -> DiagnosticsSeries:
    """Diagnostics at every time. Outside [a, b) every integral is a
    quadratic form in the mode coefficients (_form) against kernels made
    once for the part of the grid left of a and the part from b on; inside,
    the integrals reduce the fields of the table's `inner` rows. Those
    rows hold the fields on the table's sampled points, the barrier and
    BAND points on each side with the stencil's halo of two, where
    continuity, the cut flux at the last point left of x_c and the
    identity tr + ref = full are read: outside the band the components
    are plane-wave sums that obey continuity mode by mode, so their
    residual there is only the stencil's truncation error. Each
    component's position spread is merged from the three parts' moments
    about their midpoints. Times go in batches of equal size
    (_batch_size), each with its phases made once."""
    times = np.asarray(times, dtype=float)
    x, k, n_t = table.x, table.k, times.size
    keep = _continuity_window(x, table.x_c)
    i_a, i_b = table._inside.start, table._inside.stop
    i_left = int(np.searchsorted(x, table.x_c, side="left")) - 1
    q = _quadrature(x)
    part_rows, shift = zip(*(_weights(x[p], q[:, p])
                             for p in (slice(0, i_a), table._inside, slice(i_b, None))))
    dx, dk = table.dx, table.dk
    left = _kernels(part_rows[0], x[0], dx, k, dk, hankel=True) if i_a else None
    right = _kernels(part_rows[2], x[i_b], dx, k, dk, hankel=False) if i_b < x.size else None
    # each component's coefficient rows outside, and those of its x
    # derivative over ik (so the b rows are negated): left of a full's pair,
    # tr's incoming wave; from b on A_T
    left_modes = np.stack((table.full_left[0], table.full_left[1], table.tr_in,
                           k * table.full_left[0], -k * table.full_left[1], k * table.tr_in))
    right_modes = np.stack((table.A_T, k * table.A_T))
    bins = 2 * k.size - 1

    band = slice(max(i_a - BAND, 0), min(i_b + BAND, x.size))
    ext = table._sampled
    mine = slice(band.start - ext.start, band.stop - ext.start)
    inside = slice(i_a - ext.start, i_b - ext.start)

    sums = np.zeros((3, 3, n_t, 4))  # part, component, time, weight row
    p_sum = np.zeros((3, n_t))
    overlap = np.zeros(n_t, dtype=complex)
    continuity, identity, ref_cut_flux = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)

    def diagnose(at: slice):
        """Every column at the times `at`; what it makes goes when it returns."""
        phase = _phases(k, times[at])
        values, rates, derivs = _evaluate(ModeTable.sampled_at, table, phase, slice(1, None))
        j = current_density(values, derivs)
        continuity[at] = _continuity(x, keep, ext, band, rates, j[1:]).max(axis=0)
        ref_cut_flux[at] = j[2, :, i_left - ext.start]
        full, tr, ref = values[..., mine]
        identity[at] = np.max(np.abs(tr + ref - full), axis=-1)
        w = part_rows[1]
        sums[1, :, at] = np.vecdot(_density(values[..., inside])[..., None, :], w)
        p_sum[:, at] = np.vecdot(j[..., inside], w[0])
        overlap[at] = np.vecdot(values[1, :, inside], values[2, :, inside] * w[0])

        coeff = table._coefficients(phase)
        if right is not None:  # tr = full there, and ref = 0
            D, dD = np.fft.fft(coeff * right_modes[:, None], bins)
            sums[2, :2, at] = _form((D, None), (D, None), right).real
            p_sum[:2, at] += _form((D, None), (dD, None), right)[:, 0].real
        if left is not None:
            A, B, G, dA, dB, dG = np.fft.fft(coeff * left_modes[:, None], bins)
            spectra = (((A, B), (dA, dB)), ((G, None), (dG, None)), ((A - G, B), (dA - dG, dB)))
            for c, (psi, dpsi) in enumerate(spectra):
                sums[0, c, at] = _form(psi, psi, left).real
                # the current Im(conj(psi) psi') is Re of the form with psi' / i
                p_sum[c, at] += _form(psi, dpsi, left)[:, 0].real
            overlap[at] += _form(spectra[1][0], spectra[2][0], left)[:, 0]

    batch = _batch_size(n_t, k.size)
    for lo in range(0, n_t, batch):
        diagnose(slice(lo, lo + batch))

    weight, every_other, shifted, squares = np.moveaxis(sums, -1, 0)
    total = weight.sum(axis=0)
    err = np.max(np.abs(total - every_other.sum(axis=0)), axis=0) / 3.0
    if np.any(err > QUADRATURE_ERROR):
        raise GridTooCoarse(f"estimated norm quadrature error {np.nanmax(err):.3e} "
                            f"exceeds {QUADRATURE_ERROR}")
    # moments of each component normalized to its own weight, NaN below
    # ZERO_NORM; each part's offset from the mean turns its moments about
    # its midpoint into moments about the mean
    norm = np.where(total < ZERO_NORM, np.nan, total)
    s = np.array(shift)[:, None, None]
    xbar = (s * weight + shifted).sum(axis=0) / norm
    m2 = (squares + 2.0 * (s - xbar) * shifted + (s - xbar) ** 2 * weight).sum(axis=0)
    cols = {"T": total[1], "R": total[2], "total": total[0], "overlap": overlap,
            "continuity": continuity, "ref_cut_flux": ref_cut_flux,
            "identity_residual": identity, "quadrature_error": err}
    for c, name in enumerate(COMPONENTS):
        cols.update({f"xbar_{name}": xbar[c], f"pbar_{name}": p_sum[c] / norm[c],
                     f"varx_{name}": m2[c] / norm[c]})
    return DiagnosticsSeries(t=times, **cols)
