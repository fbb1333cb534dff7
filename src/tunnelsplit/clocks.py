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
Zeeman splitting +/- omega/2 confined to the barrier turns the relative
phase of the spin-up/down outgoing amplitudes into a precession angle
phi(omega); phi/omega extrapolated to omega -> 0 is the clock reading.
The transmission readout uses the right-side amplitude of the
transmission sub-wave (the full transmitted amplitude, since both waves
coincide beyond x_c); reflection uses the left outgoing amplitude of the
reflection sub-wave (the full reflected amplitude).

Each row's Larmor frequencies are omega = LARMOR_FACTORS * E_row, one
fixed ladder: the reading is its zero-field limit, so the ladder is a
numerical setting, not a physical input. `clock_block` times a block of
problems at once and returns one `ClockResult` of (n,) columns, with one
`LarmorReading` of (n, n_omega) arrays per sub-process; a row without a
reflection channel reads NaN there.
`compute_clock`, `larmor_times` and `larmor_packet_readout` return blocks
of one row, and `sweep_barrier_width` hands its widths to `map_fn` in
blocks of SWEEP_BLOCK and joins their results into one. `dwell_time`
takes a one-row `DecompositionBlock`, whose weights are |A_T|^2 and
|A_R|^2. The packet readout takes its sub-packet weights and overlap
from `packets.diagnostics_series`.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .errors import ExtrapolationDiverged, PrematureReadout, ZeroFlux
from .packets import (COMPONENTS, DEFAULT_N_K, PacketSpec, build_mode_table,
                      default_x_grid, diagnostics_series, windows)
from .potential import PotentialSpec, make_rectangular
from .splitting import DecompositionBlock, decompose_block
from .stationary import EVAN, OSC, PAIR, EnergyMode, ProblemBlock, solve_block
from .tolerances import OVERLAP_FINAL_FRACTION, ZERO_FLUX

SUBPROCESSES = ("tr", "ref")

# Widths per block in sweep_barrier_width, and per task of its map_fn. A
# block's arrays grow with it: its decomposition on 65 probe points
# across [a, b], its Zeeman solves and its results, about 0.6 MB at 64.
SWEEP_BLOCK = 64

# Nodes of a dwell time's composite-Simpson sum: the reflection sum on
# [a, x_c] has DWELL_NODES, and each half of the transmission sum, on
# [a, x_c] and [x_c, b], has (DWELL_NODES + 1) // 2, with x_c shared. Both
# counts are odd, so each sum is a Simpson rule.
DWELL_NODES = 2049

# Larmor frequencies as fractions of each row's energy: strictly descending,
# the first at most OMEGA_FRACTION, so each omega is infinitesimal against E.
LARMOR_FACTORS = (1e-2, 1e-3, 1e-4)


def _omegas(E: np.ndarray) -> np.ndarray:
    """The (n, n_omega) Larmor frequencies factor * E of each row."""
    return np.array(LARMOR_FACTORS)[None, :] * E[:, None]


@dataclass
class LarmorReading:
    """Raw precession times per frequency and their zero-field limit, for
    each row of a block: `omegas`, `raw_times`, `residuals` (|raw -
    extrapolated|) and `out_of_plane` (the modulus response ln|A_up/A_down|
    / omega) are (n, n_omega), descending omega along a row; `extrapolated`
    and `present` are (n,). A row not present has no channel; its readings
    are NaN and are not checked."""

    omegas: np.ndarray
    raw_times: np.ndarray
    extrapolated: np.ndarray
    residuals: np.ndarray
    out_of_plane: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        raw, limit, res = self.raw_times, self.extrapolated, self.residuals
        # a NaN would pass the later checks, which compare against it
        with np.errstate(invalid="ignore", over="ignore"):
            spread = np.abs(raw[:, -1] - raw[:, -2])
            tol = 1e-9 * np.maximum(1.0, np.abs(limit))
            failures = (
                (~(np.isfinite(limit) & np.isfinite(raw).all(axis=1)),
                 "Larmor reading is not finite"),
                (np.abs(limit - raw[:, -1]) > spread + tol,
                 "zero-field limit is not anchored by the smallest-frequency readings"),
                (res[:, -1] > res[:, 0] + tol,
                 "extrapolation residuals grow as the field shrinks"),
            )
        failed = self.present & np.logical_or.reduce([bad for bad, _ in failures])
        if failed.any():
            row = np.argmax(failed)
            raise ExtrapolationDiverged(next(msg for bad, msg in failures if bad[row]))
        for name in ("raw_times", "extrapolated", "residuals", "out_of_plane"):
            value = getattr(self, name)
            mask = self.present if value.ndim == 1 else self.present[:, None]
            setattr(self, name, np.where(mask, value, math.nan))


@dataclass
class ClockResult:
    """Dwell and Larmor times for both sub-processes, one row per problem
    of a block: every column is (n,). An absent reflection channel reads
    NaN in its row."""

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
        self.tau_larmor_tr = self.larmor_tr.extrapolated
        self.tau_larmor_ref = self.larmor_ref.extrapolated
        self.omega_min = self.larmor_tr.omegas[:, -1]
        # fmax skips the NaN of an absent reflection row
        self.residual = np.fmax(self.larmor_tr.residuals[:, -1], self.larmor_ref.residuals[:, -1])


def _concatenate(blocks: list):
    """One result of the rows of `blocks` (ClockResult or LarmorReading
    blocks of one type), in order."""
    values = {f.name: [getattr(b, f.name) for b in blocks] for f in fields(blocks[0]) if f.init}
    return type(blocks[0])(**{name: _concatenate(parts) if isinstance(parts[0], LarmorReading)
                              else np.concatenate(parts) for name, parts in values.items()})


def _require_weight(weight: np.ndarray, subprocess: str):
    """ZeroFlux for the first row whose channel weight is below ZERO_FLUX."""
    absent = weight < ZERO_FLUX
    if absent.any():
        name = "transmission" if subprocess == "tr" else "reflection"
        raise ZeroFlux(f"{name} weight {weight[np.argmax(absent)]:.3e} below {ZERO_FLUX}")


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
    PAIR: a quartic in d (|q2| w^2 < 1e-10), by Faulhaber's power sums.
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


def zeeman_shifted(spec: PotentialSpec, delta: float) -> PotentialSpec:
    """Barrier with every segment height shifted by delta inside [a, b]."""
    return PotentialSpec(a=spec.a, segments=tuple((w, h + delta) for w, h in spec.segments))


def _zeeman_solves(problems: ProblemBlock, omegas: np.ndarray):
    """(A_T, A_R) of the spin-up and spin-down problems, shifted by
    -omega/2 and +omega/2, at each of a row's omegas (n, n_omega): each
    (n, n_omega, 2), from one block of 2 n_omega rows per problem. Both
    sub-process readings are taken from them."""
    shifts = (omegas[:, :, None] * np.array([-0.5, 0.5])).reshape(problems.n, -1)
    return tuple(A.reshape(omegas.shape + (2,)) for A in solve_block(problems.shifted(shifts)))


def _extrapolate_to_zero(omegas: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Neville extrapolation in u = omega^2 to u = 0, per row of omegas and
    values (n, n_omega).

    The readings are even in omega (opposite spins swap), so the error
    series runs in omega^2; the polynomial runs through every reading.
    """
    n_pts = values.shape[-1]
    u = omegas ** 2
    tab = values.astype(float)
    for level in range(1, n_pts):
        for i in range(n_pts - level):
            tab[:, i] = ((u[:, i] * tab[:, i + 1] - u[:, i + level] * tab[:, i])
                         / (u[:, i] - u[:, i + level]))
    return tab[:, 0]


def _larmor_readings(up: np.ndarray, down: np.ndarray, omegas: np.ndarray, subprocess: str,
                     present: np.ndarray | None = None) -> LarmorReading:
    """Precession times of one sub-process from its (spin up, spin down)
    outgoing amplitudes at `omegas`, (n, n_omega) each, extrapolated to
    zero field. A row whose amplitude vanishes at some omega raises
    ZeroFlux, as the first failing row; given `present`, the rows whose
    channel exists, such a row and every row not present read NaN."""
    vanish = np.minimum(np.abs(up), np.abs(down)) ** 2 < ZERO_FLUX
    row_vanish = vanish.any(axis=1)
    # a huge omega overflows omega^2 in the extrapolation; LarmorReading
    # raises the non-finite limit as ExtrapolationDiverged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.angle(up * np.conj(down)) / omegas
        out_of_plane = np.log(np.abs(up) / np.abs(down)) / omegas
        limit = _extrapolate_to_zero(omegas, raw)
        residuals = np.abs(raw - limit[:, None])
    required = present is None
    # required: the rows before the first vanishing one are read first
    present = ~np.logical_or.accumulate(row_vanish) if required else present & ~row_vanish
    reading = LarmorReading(omegas=omegas, raw_times=raw, extrapolated=limit,
                            residuals=residuals, out_of_plane=out_of_plane, present=present)
    if required and row_vanish.any():
        row = np.argmax(row_vanish)
        raise ZeroFlux(f"{subprocess} amplitude vanishes at "
                       f"omega = {omegas[row, np.argmax(vanish[row])]:.3g}")
    return reading


def larmor_times(spec: PotentialSpec, mode: EnergyMode, subprocess: str) -> LarmorReading:
    """Weak-field precession times for one sub-process at one energy,
    extrapolated to zero field: a block of one row."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    problems = ProblemBlock.of(spec, mode.E)
    omegas = _omegas(problems.E)
    A_T, A_R = solve_block(problems)
    # an absent channel has no clock: the shifted problems would still
    # return tiny amplitudes whose phase carries no time information
    if (np.abs(A_T if subprocess == "tr" else A_R) ** 2)[0] < ZERO_FLUX:
        raise ZeroFlux(f"{subprocess} channel absent at E = {mode.E:.4g}")
    A_T, A_R = _zeeman_solves(problems, omegas)
    out = A_T if subprocess == "tr" else A_R
    return _larmor_readings(out[..., 0], out[..., 1], omegas, subprocess)


def probe_noninvasiveness(spec: PotentialSpec, mode: EnergyMode) -> float:
    """Fitted order of |mean(T_up, T_down) - T| against omega.

    The symmetric spin shift cancels the linear response, so the exponent
    should come out >= 2 up to fit noise.
    """
    problems = ProblemBlock.of(spec, mode.E)
    omegas = _omegas(problems.E)
    T0 = (np.abs(solve_block(problems)[0]) ** 2)[0]
    A_T, _ = _zeeman_solves(problems, omegas)
    T_up, T_down = (np.abs(A_T[0]) ** 2).T
    depart = np.abs(0.5 * (T_up + T_down) - T0)
    good = depart > 1e-14
    if good.sum() < 2:
        return math.inf  # departure at the noise floor everywhere
    slope, _ = np.polyfit(np.log(omegas[0, good]), np.log(depart[good]), 1)
    return float(slope)


def clock_block(problems: ProblemBlock) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes on every row of a
    block, each row read at omega = LARMOR_FACTORS * its energy. Rows
    without a reflection channel read NaN reflection times; any other
    failure raises for the first failing row."""
    omegas = _omegas(problems.E)
    dec = decompose_block(problems, np.linspace(problems.a, problems.b, 65, axis=-1))
    T, R = np.abs(dec.A_T) ** 2, np.abs(dec.A_R) ** 2
    _require_weight(T, "tr")
    tau_tr = _dwell_block(dec, T, "tr")
    tau_ref = _dwell_block(dec, R, "ref")
    # one set of Zeeman solves serves both readings; the base solution is
    # the decomposition's, and the tr channel is already required
    A_T, A_R = _zeeman_solves(problems, omegas)
    return ClockResult(E=problems.E, barrier_length=problems.b - problems.a,
                       tau_dwell_tr=tau_tr, tau_dwell_ref=tau_ref,
                       larmor_tr=_larmor_readings(A_T[..., 0], A_T[..., 1], omegas, "tr"),
                       larmor_ref=_larmor_readings(A_R[..., 0], A_R[..., 1], omegas, "ref",
                                                   present=R >= ZERO_FLUX))


def compute_clock(spec: PotentialSpec, mode: EnergyMode) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes at one energy: a
    block of one row."""
    return clock_block(ProblemBlock.of(spec, mode.E))


def _sweep_block(v0: float, energy_ratio: float, kappa_lengths) -> ClockResult:
    E = energy_ratio * v0
    kappa = math.sqrt(2.0 * (v0 - E))
    widths = [kl / kappa for kl in kappa_lengths]
    specs = [make_rectangular(v0, L, -0.5 * L) for L in widths]
    return clock_block(ProblemBlock.of(specs, E))


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


def larmor_packet_readout(spec: PotentialSpec, packet: PacketSpec, subprocess: str, t: float,
                          x_grid=None, n_k: int = DEFAULT_N_K) -> LarmorReading:
    """Packet-level Larmor reading taken after the sub-packets separate,
    at omega = LARMOR_FACTORS * k0^2 / 2: a block of one row.

    The spin-up/down packets are synthesized with the shifted barriers,
    one coefficient table per barrier, window by window; each window's
    cos/sin table is built once and shared by all of them. Their
    amplitudes at the sub-packet peak, the first point of largest
    |up|^2 + |down|^2, give the reading as in the stationary case. Readout
    before the overlap threshold is met raises PrematureReadout; the
    sub-packet weights and overlap are the base table's
    `diagnostics_series` at t, so a grid too coarse for its quadrature
    raises GridTooCoarse.
    """
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    omegas = _omegas(np.array([EnergyMode.from_k(packet.k0).E]))
    x = default_x_grid(spec, packet) if x_grid is None else np.asarray(x_grid, float)

    base = build_mode_table(spec, packet, x, n_k)
    series = diagnostics_series(base, [t])
    ov = abs(series.overlap[0])
    threshold = OVERLAP_FINAL_FRACTION * math.sqrt(series.T[0] * series.R[0])
    if ov > threshold:
        raise PrematureReadout(
            f"sub-packets still overlap at t = {t}: |<tr|ref>| = {ov:.3e} "
            f"> {threshold:.3e}"
        )

    c = COMPONENTS.index(subprocess)
    spins = [build_mode_table(zeeman_shifted(spec, s * omega), packet, x, n_k)
             for omega in omegas[0] for s in (-0.5, +0.5)]
    up, down = np.empty((2,) + omegas.shape, dtype=complex)
    peak = np.full(omegas.shape, -1.0)  # the largest density so far
    for _, _, parts in windows(*spins):
        for j in range(omegas.shape[1]):
            spin_up, spin_down = (part.states([t])[c, 0] for part in parts[2 * j:2 * j + 2])
            density = np.abs(spin_up) ** 2 + np.abs(spin_down) ** 2
            i = int(np.argmax(density))
            if density[i] > peak[0, j]:
                peak[0, j] = density[i]
                up[0, j], down[0, j] = spin_up[i], spin_down[i]
    return _larmor_readings(up, down, omegas, subprocess)
