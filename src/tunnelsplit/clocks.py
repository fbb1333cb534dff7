"""Characteristic times of the transmission and reflection sub-processes.

Dwell times are flux-normalized density integrals of the sub-process
waves: tau = integral |psi_sub|^2 dx / (k |A_sub_in|^2), over [a, b] for
transmission and [a, x_c] for reflection (the reflection wave vanishes
identically beyond the midpoint). This is the standard definition; it
reduces to length/speed for free flight. The integral is the
composite-Simpson sum on DWELL_NODES (2049) nodes, evaluated in closed
form as 4 S_all - 2 S_even - S_first - (c_last - 1) S_last, each S a
plain density sum over a progression of nodes inside each piece. Every
piece of a state is two exponentials (a quartic near q = 0), so each S is
a geometric or power sum. The work per row and piece is O(1) and no array
grows with the node count.

Larmor times probe the same interval non-invasively: an infinitesimal
Zeeman splitting V -> V -/+ omega/2 confined to [a, b] turns the relative
phase of the spin-up/down outgoing amplitudes into a precession angle
phi(omega), and the clock reads phi/omega in the limit omega -> 0. That
limit is minus the derivative of the amplitude's phase with respect to a
uniform shift of V over [a, b] (Buttiker, Phys. Rev. B 27, 6178, 1983),
which first-order perturbation theory gives in closed form. With psi_L
the state incident from the left (a decomposition's full_state) and
psi_R the state incident from the right with the same transmission
amplitude,

    tau_larmor_tr  = Re(integral_a^b psi_L psi_R dx / (k A_T)),
    tau_larmor_ref = Re(integral_a^b psi_L^2 dx / (k A_R)),

and minus the imaginary parts are the out-of-plane readings (the
modulus response). The transmission reading uses the full transmitted
amplitude, since tr and full coincide beyond x_c; reflection uses the
full reflected amplitude. psi_R is cascaded forward from its left pair
(0, A_T); on a symmetric barrier it equals exp(-2ik x_c) psi_L(2 x_c - x).
Both integrals are sums over pieces of a product of two bounded-basis
fields, each in closed form (`_overlap`).

One Zeeman pair per row, at omega_min = LARMOR_FACTOR * E, gives the raw
reading phi(omega_min) / omega_min; a row's `residual` is its distance
from the exact time, the larger over tr and ref. It measures the
finite-field error of a real clock at omega_min and is an output, not a
correction. `clock_block` times a block of problems at once and returns
one `ClockResult` of (n,) columns, with one `LarmorReading` of (n,)
arrays per sub-process; a row without a reflection channel reads NaN
there. `compute_clock` and `larmor_times` return blocks of one row, and
`sweep_barrier_width` maps its widths, in order, in blocks of
SWEEP_BLOCK (512) through `map_fn`, each one ProblemBlock made from its
width array, and joins their results into one. `dwell_time` takes a one-row
`DecompositionBlock`, whose weights are |A_T|^2 and |A_R|^2.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .errors import ClockNotFinite, ZeroFlux, raise_first
from .potential import PotentialSpec
from .splitting import DecompositionBlock, decompose_block
from .stationary import (EVAN, OSC, PAIR, EnergyMode, PiecewiseState, ProblemBlock,
                         _piece_field, block_bytes, scattering_state, solve_block,
                         state_from_left)
from .tolerances import ZERO_FLUX

SUBPROCESSES = ("tr", "ref")

# Widths per block in sweep_barrier_width, each block one call of the
# function its map_fn maps; a block's arrays grow with it (sweep_bytes).
# Keep SWEEP_BLOCK below 16384: from 16384 rows up, numpy rounds
# up * conj(down) on the strided views of the (n, 2) spin amplitudes
# differently, and the raw readings and residuals move by up to 2.2e-12
# relative (measured on a sweep of 16384 widths; at 16383 nothing moves,
# and the times do not move at either size).
SWEEP_BLOCK = 512

# clock_block's bytes per row, and per row and segment (block_bytes): a
# decomposition, the Zeeman pair's cascades and the dwell sums'
# progressions (traced peaks: 1340 + 700 S on 1 to 1600 segments)
CLOCK_BYTES = (1536, 768)

# Nodes of a dwell time's composite-Simpson sum: the reflection sum on
# [a, x_c] has DWELL_NODES, and each half of the transmission sum, on
# [a, x_c] and [x_c, b], has (DWELL_NODES + 1) // 2, with x_c shared. Both
# counts are odd, so each sum is a Simpson rule.
DWELL_NODES = 2049

# The Zeeman pair's frequency as a fraction of each row's energy,
# omega_min: small against E (at most OMEGA_FRACTION), so that the raw
# reading lies within O(omega_min^2) of the exact time.
LARMOR_FACTOR = 1e-4

# |q2| w^2 below which _overlap integrates a piece by power series, and the
# series' factors 1 / (2m + 1 + j)! for j = 0, 1, 2 and m < 6: the first
# term left out is below 1e-16 relative there
_SERIES_U = 1e-2
_SERIES = np.array([[1.0 / math.factorial(2 * m + 1 + j) for m in range(6)] for j in range(3)])


@dataclass
class LarmorReading:
    """Larmor times of one sub-process on every row of a block, each (n,):
    `time`, the zero-field precession time, and `out_of_plane`, the
    zero-field modulus response, both from the closed-form overlap; `raw`,
    the Zeeman pair's precession angle at `omega` (omega_min) over omega,
    and `residual`, |raw - time|. A row not present has no channel and
    reads NaN throughout; a row whose spin amplitude vanishes at omega
    (|A|^2 below ZERO_FLUX) has no phase to read, so its raw reading and
    residual are NaN while it keeps its time. A present row whose time is
    not finite raises ClockNotFinite, as the first such row."""

    omega: np.ndarray
    time: np.ndarray
    out_of_plane: np.ndarray
    raw: np.ndarray
    present: np.ndarray
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        raise_first(self.present & ~np.isfinite(self.time), ClockNotFinite,
                    lambda i: f"Larmor time is not finite at omega = {self.omega[i]:.6g}")
        for name in ("time", "out_of_plane", "raw"):
            setattr(self, name, np.where(self.present, getattr(self, name), math.nan))
        self.residual = np.abs(self.raw - self.time)


@dataclass
class ClockResult:
    """Dwell and Larmor times for both sub-processes, one row per problem
    of a block: every column is (n,). An absent reflection channel reads
    NaN in its row, and its residual is the transmission reading's; a
    residual is NaN where a present channel's spin amplitude vanishes at
    omega_min."""

    E: np.ndarray
    barrier_length: np.ndarray
    tau_dwell_tr: np.ndarray
    tau_dwell_ref: np.ndarray
    larmor_tr: LarmorReading
    larmor_ref: LarmorReading
    tau_larmor_tr: np.ndarray = field(init=False)
    tau_larmor_ref: np.ndarray = field(init=False)
    omega_min: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        tr, ref = self.larmor_tr, self.larmor_ref
        self.tau_larmor_tr = tr.time
        self.tau_larmor_ref = ref.time
        self.omega_min = tr.omega
        self.residual = np.where(ref.present, np.maximum(tr.residual, ref.residual), tr.residual)


def _concatenate(blocks: list):
    """One result of the rows of `blocks` (ClockResult or LarmorReading
    blocks of one type), in order."""
    values = {f.name: [getattr(b, f.name) for b in blocks] for f in fields(blocks[0]) if f.init}
    return type(blocks[0])(**{name: _concatenate(parts) if isinstance(parts[0], LarmorReading)
                              else np.concatenate(parts) for name, parts in values.items()})


def _require_weight(weight: np.ndarray, subprocess: str):
    """ZeroFlux for the first row whose channel weight is below ZERO_FLUX."""
    name = "transmission" if subprocess == "tr" else "reflection"
    raise_first(weight < ZERO_FLUX, ZeroFlux,
                lambda i: f"{name} weight {weight[i]:.3e} below {ZERO_FLUX}")


def _node(j, lo, hi, step, n: int):
    """Node j of np.linspace(lo, hi, n), as linspace computes it."""
    return np.where(j >= n - 1, hi, j * step + lo)


def _nodes_below(e, lo, hi, step, n: int) -> np.ndarray:
    """How many nodes of np.linspace(lo, hi, n) lie below e, per entry of
    e: a ceil guess, corrected one step each way."""
    j = np.clip(np.ceil((e - lo) / step), 0, n)
    j = np.where((j < n) & (_node(j, lo, hi, step, n) < e), j + 1, j)
    j = np.where((j > 0) & (_node(j - 1, lo, hi, step, n) >= e), j - 1, j)
    return j.astype(np.int64)


def _geometric(z, m):
    """sum_{i < m} exp(z i) for z != 0."""
    return np.expm1(m * z) / np.expm1(z)


def _progression_sums(state, x0, x1, step, count) -> np.ndarray:
    """Plain sums of |state|^2 over progressions of nodes, in closed form:
    each entry of the (rows, pieces, progressions) arrays is `count` nodes
    `step` apart, from x0 to x1, inside its row's piece. With m = count,
    d0 = x0 - xl, dr = xr - x1 and G(z) = sum_{i < m} exp(z i), a sum is

    OSC:  m (|c1|^2 + |c2|^2) + 2 Re(c1 conj(c2) exp(2iq d0) G(2iq step));
    EVAN: (|c1|^2 exp(-2kp d0) + |c2|^2 exp(-2kp dr)) G(-2kp step)
          + 2 m Re(c1 conj(c2)) exp(-kp w): two geometric sums anchored at
          opposite ends, so that no term grows;
    PAIR: a quartic in d (|q2| w^2 < 1e-5), by Faulhaber's power sums.
    """
    total = np.zeros(count.shape)
    for kind in (PAIR, OSC, EVAN):
        sel = (state.kind[..., None] == kind) & (count > 0)
        if not sel.any():
            continue
        rows, pieces, _ = np.nonzero(sel)
        c1, c2, q2, xl, xr = (v[rows, pieces] for v in
                              (state.c1, state.c2, state.q2, state.xl, state.xr))
        m, s, d0 = count[sel], step[sel], x0[sel] - xl
        aa, bb, ab = np.abs(c1) ** 2, np.abs(c2) ** 2, c1 * np.conj(c2)
        if kind == OSC:
            z = 2j * np.sqrt(q2)
            total[sel] = (aa + bb) * m + 2.0 * np.real(ab * np.exp(z * d0) * _geometric(z * s, m))
        elif kind == EVAN:
            kp = np.sqrt(-q2)
            total[sel] = ((aa * np.exp(-2.0 * kp * d0) + bb * np.exp(-2.0 * kp * (xr - x1[sel])))
                          * _geometric(-2.0 * kp * s, m)
                          + 2.0 * ab.real * np.exp(-kp * (xr - xl)) * m)
        else:
            quartic = [aa, 2.0 * ab.real, bb - q2 * aa, -4.0 / 3.0 * q2 * ab.real,
                       -q2 * bb / 3.0]
            x, y = m.astype(float), m - 1.0  # sum_{i < m} i^k for k = 0..4 (Faulhaber)
            powers = [x, y * x / 2, y * x * (2 * y + 1) / 6, (y * x / 2) ** 2,
                      y * x * (2 * y + 1) * (3 * y * y + 3 * y - 1) / 30]
            # sum_i (d0 + i s)^p by the binomial theorem, every term >= 0
            total[sel] = sum(coef * sum(math.comb(p, k) * d0 ** (p - k) * s ** k * powers[k]
                                        for k in range(p + 1))
                             for p, coef in enumerate(quartic))
    return total


def _density_sum(state, lo, hi, n: int) -> np.ndarray:
    """The composite-Simpson sum of |state|^2 over the nodes
    np.linspace(lo, hi, n) places on each row, in closed form.

    Node j weighs (h/3) c_j, h the first spacing, c_j = 4 at odd and 2 at
    even j inside and 1 at both ends, so the sum is
    h/3 (4 S_all - 2 S_even - S_first - (c_last - 1) S_last), where
    c_last - 1 is 1 for odd n and 3 for even n. Each S is a plain sum over
    a progression of nodes inside each piece: all its nodes, its even
    nodes, node 0 and node n - 1 (one node in the piece that holds it,
    none elsewhere). A piece holds the nodes from its left edge
    (inclusive) to the next piece's; the last piece holds the rest, the
    node at b too, where the right plane-wave pair equals it to roundoff.
    """
    lo, hi = lo[:, None, None], hi[:, None, None]
    step = (hi - lo) / (n - 1)
    h = (_node(1, lo, hi, step, n) - lo)[:, 0, 0]  # as linspace places node 1
    start = _nodes_below(state.xl[..., None], lo, hi, step, n)
    count = np.diff(start, axis=1, append=n)
    odd = start % 2
    # first node, count and stride of the (all, even, first, last) nodes
    first = np.concatenate([start, start + odd, 0 * start, 0 * start + n - 1], axis=2)
    count = np.concatenate([count, (count - odd + 1) // 2, (start == 0) & (count > 0),
                            (start + count == n) & (count > 0)], axis=2)
    stride = np.array([1, 2, 1, 1])
    sums = _progression_sums(state, _node(first, lo, hi, step, n),
                             _node(first + stride * (count - 1), lo, hi, step, n),
                             np.broadcast_to(stride * step, count.shape), count)
    weight = np.array([4.0, -2.0, -1.0, -1.0 if n % 2 else -3.0])
    return h / 3.0 * np.sum(np.sum(sums * weight, axis=2), axis=1)


def _dwell_block(dec: DecompositionBlock, weight: np.ndarray, subprocess: str) -> np.ndarray:
    """Dwell time of one sub-process on every row of a decomposition
    block, NaN where its weight is below ZERO_FLUX: the composite-Simpson
    sum of its density on DWELL_NODES nodes, in closed form. The
    transmission wave switches from tr_state to the full solution at x_c,
    so its sum is taken on each half, with the kink on a node shared by
    both; the reflection wave is ref_state on [a, x_c]."""
    problems = dec.full_state.problems
    if subprocess == "tr":
        half = (DWELL_NODES + 1) // 2
        number = (_density_sum(dec.tr_state, problems.a, problems.x_c, half)
                  + _density_sum(dec.full_state, problems.x_c, problems.b, half))
    else:
        number = _density_sum(dec.ref_state, problems.a, problems.x_c, DWELL_NODES)
    present = weight >= ZERO_FLUX
    return np.where(present, number / (problems.k * np.where(present, weight, 1.0)), math.nan)


def dwell_time(dec: DecompositionBlock, subprocess: str) -> float:
    """Flux-normalized time spent in the barrier region by one sub-process,
    on a one-row decomposition."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    weight = np.abs(dec.A_T if subprocess == "tr" else dec.A_R) ** 2
    _require_weight(weight, subprocess)
    return float(_dwell_block(dec, weight, subprocess)[0])


def _phi(z):
    """(exp(z) - 1) / z, for z != 0."""
    return np.expm1(z) / z


def _overlap(f: PiecewiseState, g: PiecewiseState) -> np.ndarray:
    """integral_a^b f g dx, with no conjugate, per row of two blocks of
    states of the same problems, each one piece per segment, in closed
    form. With (c1, c2) and (e1, e2) the coefficients of f and g on a piece
    of width w and u = q2 w^2, a piece with |u| >= _SERIES_U contributes

    OSC:  w (c1 e1 phi(2iqw) + c2 e2 phi(-2iqw) + c1 e2 + c2 e1);
    EVAN: w ((c1 e1 + c2 e2) phi(-2kp w) + (c1 e2 + c2 e1) exp(-kp w)):
          each exponential anchored at its larger end, so no term grows;

    phi(z) being (exp(z) - 1) / z. Nearer q = 0 those terms cancel, to
    about 1e-16 / |u| relative, so any kind is written from the left
    edge's value p and slope s as p C + s S, C = cos(qx) and S = sin(qx) / q,
    and integral C^2, C S and S^2 are power series in t = -4u:
    w (1 + sum t^m / (2m+1)!) / 2, w^2 sum t^m / (2m+2)! and
    2 w^3 sum t^m / (2m+3)!.
    """
    w = f.xr - f.xl
    u = f.q2 * w * w
    near = np.abs(u) < _SERIES_U
    total = np.zeros(u.shape, dtype=complex)
    edges = np.zeros((4,) + u.shape, dtype=complex)  # p and s of f, then of g
    for kind in (PAIR, OSC, EVAN):
        of_kind = f.kind == kind
        far = of_kind & ~near  # never PAIR
        if far.any():
            c1, c2, e1, e2, q2, wf = (v[far] for v in (f.c1, f.c2, g.c1, g.c2, f.q2, w))
            if kind == OSC:
                z = 2j * np.sqrt(q2) * wf
                total[far] = wf * (c1 * e1 * _phi(z) + c2 * e2 * _phi(-z) + c1 * e2 + c2 * e1)
            else:
                kp = np.sqrt(-q2)
                total[far] = wf * ((c1 * e1 + c2 * e2) * _phi(-2.0 * kp * wf)
                                   + (c1 * e2 + c2 * e1) * np.exp(-kp * wf))
        sel = of_kind & near
        if sel.any():
            for i, (a1, a2) in enumerate(((f.c1, f.c2), (g.c1, g.c2))):
                for deriv in (False, True):
                    edges[2 * i + deriv, sel] = _piece_field(kind, 0.0, w[sel], f.q2[sel],
                                                             a1[sel], a2[sel], deriv)
    if near.any():
        pf, sf, pg, sg = edges[:, near]
        w = w[near]
        cc, cs, ss = (np.polyval(row[::-1], -4.0 * u[near]) for row in _SERIES)
        total[near] = (pf * pg * w * (1.0 + cc) / 2.0 + (pf * sg + sf * pg) * w * w * cs
                       + 2.0 * sf * sg * w ** 3 * ss)
    return np.sum(total, axis=1)


def _larmor_readings(full: PiecewiseState, A_T: np.ndarray,
                     A_R: np.ndarray) -> tuple[LarmorReading, LarmorReading]:
    """The (tr, ref) Larmor readings on every row of a block, from its
    left-incident scattering state and amplitudes: the exact times from
    the overlaps, the raw ones from one Zeeman pair per row, shifted by
    -omega_min/2 (spin up) and +omega_min/2 (spin down). A reflection row
    below ZERO_FLUX is not present."""
    problems = full.problems
    omega = LARMOR_FACTOR * problems.E
    right = state_from_left(problems, 0.0, A_T)  # psi_R, incident from the right
    spins = solve_block(problems.shifted(omega[:, None] * np.array([-0.5, 0.5])))
    readings = []
    for A, overlap, (up, down), present in (
            (A_T, _overlap(full, right), spins[0].reshape(-1, 2).T, np.full(problems.n, True)),
            (A_R, _overlap(full, full), spins[1].reshape(-1, 2).T,
             np.abs(A_R) ** 2 >= ZERO_FLUX)):
        exact = overlap / (problems.k * np.where(present, A, 1.0))
        vanish = np.minimum(np.abs(up), np.abs(down)) ** 2 < ZERO_FLUX
        readings.append(LarmorReading(
            omega=omega, time=exact.real, out_of_plane=-exact.imag, present=present,
            raw=np.where(vanish, math.nan, np.angle(up * np.conj(down)) / omega)))
    return tuple(readings)


def larmor_times(spec: PotentialSpec, mode: EnergyMode, subprocess: str) -> LarmorReading:
    """Zero-field precession times for one sub-process at one energy, with
    the raw reading at omega_min: a block of one row."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    A_T, A_R, full = scattering_state(ProblemBlock.of(spec, mode.E))
    # an absent channel has no clock
    if (np.abs(A_T if subprocess == "tr" else A_R) ** 2)[0] < ZERO_FLUX:
        raise ZeroFlux(f"{subprocess} channel absent at E = {mode.E:.4g}")
    return _larmor_readings(full, A_T, A_R)[SUBPROCESSES.index(subprocess)]


def clock_block(problems: ProblemBlock) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes on every row of a
    block, each row's raw Larmor reading taken at omega_min = LARMOR_FACTOR
    * its energy. Rows without a reflection channel read NaN reflection
    times; any other failure raises for the first failing row."""
    dec = decompose_block(problems)
    T, R = np.abs(dec.A_T) ** 2, np.abs(dec.A_R) ** 2
    _require_weight(T, "tr")
    larmor_tr, larmor_ref = _larmor_readings(dec.full_state, dec.A_T, dec.A_R)
    return ClockResult(E=problems.E, barrier_length=problems.b - problems.a,
                       tau_dwell_tr=_dwell_block(dec, T, "tr"),
                       tau_dwell_ref=_dwell_block(dec, R, "ref"),
                       larmor_tr=larmor_tr, larmor_ref=larmor_ref)


def compute_clock(spec: PotentialSpec, mode: EnergyMode) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes at one energy: a
    block of one row."""
    return clock_block(ProblemBlock.of(spec, mode.E))


def _sweep_block(v0: float, energy_ratio: float, kappa_lengths) -> ClockResult:
    E = energy_ratio * v0
    widths = np.array(kappa_lengths)[:, None] / math.sqrt(2.0 * (v0 - E))  # L = kappa_L / kappa
    return clock_block(ProblemBlock.from_arrays(-0.5 * widths[:, 0], widths,
                                                np.full_like(widths, v0), E))


def sweep_bytes(num) -> float:
    """Bytes of a sweep of `num` widths: one block's clock_block at a time,
    and 384 bytes a width of columns, in its block and joined (traced: 300)."""
    return block_bytes(min(num, SWEEP_BLOCK), 1, CLOCK_BYTES) + 384.0 * num


def sweep_barrier_width(v0: float, energy_ratio: float, kappa_lengths,
                        map_fn=map) -> ClockResult:
    """Clock times along a family of barriers of growing opacity, one row
    per width.

    Barriers are centered at the origin with E = energy_ratio * v0 fixed,
    so kappa is constant and the width L = kappa_L / kappa sweeps the
    requested opacity range. `map_fn` maps over blocks of SWEEP_BLOCK
    widths. Emitted for monotonicity inspection; the ordering itself is
    an empirical output, not a contract.
    """
    if not (math.isfinite(v0) and v0 > 0.0):
        raise ValueError(f"barrier height v0 must be finite and positive, got {v0!r}")
    if not (0.0 < energy_ratio < 1.0):
        raise ValueError("energy ratio must lie in (0, 1) for a tunneling sweep")
    kls = [float(kl) for kl in kappa_lengths]
    if not kls:
        raise ValueError("need at least one width")
    worker = partial(_sweep_block, v0, energy_ratio)
    blocks = [kls[lo:lo + SWEEP_BLOCK] for lo in range(0, len(kls), SWEEP_BLOCK)]
    return _concatenate(list(map_fn(worker, blocks)))
