"""Characteristic times of the transmission and reflection sub-processes.

Dwell times are flux-normalized density integrals of the sub-process
waves: tau = integral |psi_sub|^2 dx / (k |A_sub_in|^2), over [a, b] for
transmission and [a, x_c] for reflection (the reflection wave vanishes
identically beyond the midpoint). This is the standard definition; it
reduces to length/speed for free flight.

Larmor times probe the same interval non-invasively: an infinitesimal
Zeeman splitting +/- omega/2 confined to the barrier turns the relative
phase of the spin-up/down outgoing amplitudes into a precession angle
phi(omega); phi/omega extrapolated to omega -> 0 is the clock reading.
The transmission readout uses the right-side amplitude of the
transmission sub-wave (the full transmitted amplitude, since both waves
coincide beyond x_c); reflection uses the left outgoing amplitude of the
reflection sub-wave (the full reflected amplitude).

`clock_block` times a block of problems at once; `compute_clock` is a
block of one, and `sweep_barrier_width` hands its widths to `map_fn` in
blocks of SWEEP_BLOCK. The one-problem readers take the one-row results
of the block kernel: `dwell_time` a one-row `DecompositionBlock`, whose
weights are |A_T|^2 and |A_R|^2, and `larmor_times` the (A_T, A_R) arrays
of `solve_block`. The packet readout takes its sub-packet weights and
overlap from `packets.diagnostics_series`.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ExtrapolationDiverged, PrematureReadout, ZeroFlux
from .packets import (COMPONENTS, PacketSpec, build_mode_table, default_x_grid,
                      diagnostics_series, simpson_weights)
from .potential import PotentialSpec
from .splitting import DecompositionBlock, decompose_block
from .stationary import EnergyMode, ProblemBlock, sample_density, solve_block
from .tolerances import OMEGA_FRACTION, OVERLAP_FINAL_FRACTION, ZERO_FLUX

SUBPROCESSES = ("tr", "ref")

# Widths per block in sweep_barrier_width. A block holds its dwell
# densities, SWEEP_BLOCK x n_quad samples per sub-wave, at once; 64 keeps
# the sweep's peak memory at that of one width at a time.
SWEEP_BLOCK = 64


@dataclass(frozen=True)
class ClockConfig:
    """Descending Larmor frequencies and the extrapolation order."""

    omegas: tuple[float, ...] = ()
    extrapolation_order: int = 2

    def __post_init__(self):
        if not self.omegas:
            raise ValueError("need at least one Larmor frequency")
        if any(w <= 0 for w in self.omegas):
            raise ValueError("Larmor frequencies must be positive")
        if any(b >= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("Larmor frequencies must descend")
        if self.extrapolation_order < 0:
            raise ValueError("extrapolation order must be >= 0")

    @classmethod
    def for_energy(cls, E: float, factors=(1e-2, 1e-3, 1e-4), order: int = 2) -> "ClockConfig":
        return cls(omegas=tuple(f * E for f in factors), extrapolation_order=order)

    def validate_block(self, problems: ProblemBlock):
        """Every omega infinitesimal against the energy of every row."""
        # inclusive: the canonical sequence tops out at exactly 1e-2 E
        too_big = max(self.omegas) > OMEGA_FRACTION * problems.E * (1.0 + 1e-12)
        if too_big.any():
            raise ValueError(f"omega = {max(self.omegas):.3g} is not infinitesimal against "
                             f"E = {problems.E[np.argmax(too_big)]:.3g}")


@dataclass
class LarmorReading:
    """Raw precession times per frequency and their zero-field limit."""

    subprocess: str
    omegas: np.ndarray
    raw_times: np.ndarray
    extrapolated: float
    residuals: np.ndarray  # |raw - extrapolated| per omega, descending omega
    out_of_plane: np.ndarray  # modulus response ln|A_up/A_down| / omega

    def __post_init__(self):
        # a NaN would pass both checks below, which compare against it;
        # math.isfinite over a list costs a fifth of np.isfinite on 3 values
        if not (math.isfinite(self.extrapolated)
                and all(map(math.isfinite, self.raw_times.tolist()))):
            raise ExtrapolationDiverged("Larmor reading is not finite")
        spread = abs(self.raw_times[-1] - self.raw_times[-2]) if self.raw_times.size > 1 else 0.0
        tol = 1e-9 * max(1.0, abs(self.extrapolated))
        if abs(self.extrapolated - self.raw_times[-1]) > spread + tol:
            raise ExtrapolationDiverged(
                "zero-field limit is not anchored by the smallest-frequency readings"
            )
        if self.residuals.size > 1 and self.residuals[-1] > self.residuals[0] + tol:
            raise ExtrapolationDiverged(
                "extrapolation residuals grow as the field shrinks"
            )


@dataclass
class ClockResult:
    """Dwell and Larmor times for both sub-processes at one energy."""

    E: float
    barrier_length: float
    tau_dwell_tr: float
    tau_dwell_ref: float  # nan when the reflection channel is absent
    larmor_tr: LarmorReading
    larmor_ref: LarmorReading | None
    omega_min: float = field(init=False)
    residual: float = field(init=False)

    def __post_init__(self):
        self.omega_min = float(self.larmor_tr.omegas[-1])
        res = float(self.larmor_tr.residuals[-1])
        if self.larmor_ref is not None:
            res = max(res, float(self.larmor_ref.residuals[-1]))
        self.residual = res

    @property
    def tau_larmor_tr(self) -> float:
        return self.larmor_tr.extrapolated

    @property
    def tau_larmor_ref(self) -> float:
        return self.larmor_ref.extrapolated if self.larmor_ref is not None else math.nan


def _require_weight(weight: np.ndarray, subprocess: str):
    """ZeroFlux for the first row whose channel weight is below ZERO_FLUX."""
    absent = weight < ZERO_FLUX
    if absent.any():
        name = "transmission" if subprocess == "tr" else "reflection"
        raise ZeroFlux(f"{name} weight {weight[np.argmax(absent)]:.3e} below {ZERO_FLUX}")


def _density_integral(state, lo, hi, n: int) -> np.ndarray:
    """Simpson integral of |state|^2 over n points from lo to hi, per row:
    elementwise products summed along each row, so a row's sum does not
    depend on the rows beside it."""
    x = np.linspace(lo, hi, n, axis=-1)
    dens = sample_density(state, x)
    dens *= simpson_weights(n, x[:, 1] - x[:, 0])
    return np.sum(dens, axis=-1)


def _dwell_block(dec: DecompositionBlock, weight: np.ndarray, subprocess: str,
                 n_quad: int) -> np.ndarray:
    """Dwell time of one sub-process on every row of a decomposition
    block, NaN where its weight is below ZERO_FLUX."""
    problems = dec.full_state.problems
    if n_quad % 2 == 0:
        n_quad += 1
    if subprocess == "tr":
        # the sub-process wave switches from tr_state to the full solution
        # at x_c; integrate each half so the kink sits on a panel edge
        half = (n_quad - 1) // 2 + 1
        number = (_density_integral(dec.tr_state, problems.a, problems.x_c, half)
                  + _density_integral(dec.full_state, problems.x_c, problems.b, half))
    else:
        number = _density_integral(dec.ref_state, problems.a, problems.x_c, n_quad)
    present = weight >= ZERO_FLUX
    return np.where(present, number / (problems.k * np.where(present, weight, 1.0)), math.nan)


def dwell_time(dec: DecompositionBlock, subprocess: str, n_quad: int = 2049) -> float:
    """Flux-normalized time spent in the barrier region by one sub-process,
    on a one-row decomposition."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    weight = np.abs(dec.A_T if subprocess == "tr" else dec.A_R) ** 2
    _require_weight(weight, subprocess)
    return float(_dwell_block(dec, weight, subprocess, n_quad)[0])


def zeeman_shifted(spec: PotentialSpec, delta: float) -> PotentialSpec:
    """Barrier with every segment height shifted by delta inside [a, b]."""
    return PotentialSpec(a=spec.a, segments=tuple((w, h + delta) for w, h in spec.segments))


def _zeeman_solves(problems: ProblemBlock, config: ClockConfig):
    """(A_T, A_R) of the spin-up and spin-down problems, shifted by
    -omega/2 and +omega/2, at each omega: each (n, n_omega, 2), from one
    block of 2 n_omega rows per problem. Both sub-process readings are
    taken from them."""
    omegas = np.array(config.omegas, dtype=float)
    A_T, A_R = solve_block(problems.shifted((np.array([-0.5, 0.5]) * omegas[:, None]).ravel()))
    shape = (problems.n, omegas.size, 2)
    return A_T.reshape(shape), A_R.reshape(shape)


def _extrapolate_to_zero(omegas: np.ndarray, values: np.ndarray, order: int) -> np.ndarray:
    """Neville extrapolation in u = omega^2 to u = 0, per row of values
    (n, n_omega).

    The readings are even in omega (opposite spins swap), so the error
    series runs in omega^2; `order` is the polynomial degree used.
    """
    n_pts = min(order + 1, values.shape[-1])
    u = (omegas ** 2)[-n_pts:]
    tab = values[:, -n_pts:].astype(float)
    for level in range(1, n_pts):
        for i in range(n_pts - level):
            tab[:, i] = (u[i] * tab[:, i + 1] - u[i + level] * tab[:, i]) / (u[i] - u[i + level])
    return tab[:, 0]


def _larmor_readings(up: np.ndarray, down: np.ndarray, config: ClockConfig, subprocess: str,
                     present: np.ndarray | None = None) -> list[LarmorReading | None]:
    """Precession times of one sub-process from its (spin up, spin down)
    outgoing amplitudes, (n, n_omega) each, extrapolated to zero field.
    A row whose amplitude vanishes at some omega raises ZeroFlux. Given
    `present`, the rows whose channel exists, such a row and every row
    not present read None instead."""
    omegas = np.array(config.omegas, dtype=float)
    vanish = np.minimum(np.abs(up), np.abs(down)) ** 2 < ZERO_FLUX
    # a huge omega overflows omega^2 in the extrapolation; LarmorReading
    # raises the non-finite limit as ExtrapolationDiverged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.angle(up * np.conj(down)) / omegas
        out_of_plane = np.log(np.abs(up) / np.abs(down)) / omegas
        limit = _extrapolate_to_zero(omegas, raw, config.extrapolation_order)
    residuals = np.abs(raw - limit[:, None])
    readings = []
    for i, row_vanish in enumerate(vanish):
        if present is not None and (row_vanish.any() or not present[i]):
            readings.append(None)
            continue
        if row_vanish.any():
            raise ZeroFlux(f"{subprocess} amplitude vanishes at "
                           f"omega = {omegas[np.argmax(row_vanish)]:.3g}")
        readings.append(LarmorReading(subprocess=subprocess, omegas=omegas, raw_times=raw[i],
                                      extrapolated=float(limit[i]), residuals=residuals[i],
                                      out_of_plane=out_of_plane[i]))
    return readings


def larmor_times(spec: PotentialSpec, mode: EnergyMode, config: ClockConfig,
                 subprocess: str) -> LarmorReading:
    """Weak-field precession times for one sub-process, extrapolated to
    zero field."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    problems = ProblemBlock.of(spec, mode.E)
    config.validate_block(problems)
    A_T, A_R = solve_block(problems)
    # an absent channel has no clock: the shifted problems would still
    # return tiny amplitudes whose phase carries no time information
    if (np.abs(A_T if subprocess == "tr" else A_R) ** 2)[0] < ZERO_FLUX:
        raise ZeroFlux(f"{subprocess} channel absent at E = {mode.E:.4g}")
    A_T, A_R = _zeeman_solves(problems, config)
    out = A_T if subprocess == "tr" else A_R
    return _larmor_readings(out[..., 0], out[..., 1], config, subprocess)[0]


def probe_noninvasiveness(spec: PotentialSpec, mode: EnergyMode,
                          config: ClockConfig) -> float:
    """Fitted order of |mean(T_up, T_down) - T| against omega.

    The symmetric spin shift cancels the linear response, so the exponent
    should come out >= 2 up to fit noise.
    """
    problems = ProblemBlock.of(spec, mode.E)
    T0 = (np.abs(solve_block(problems)[0]) ** 2)[0]
    A_T, _ = _zeeman_solves(problems, config)
    T_up, T_down = (np.abs(A_T[0]) ** 2).T
    omegas = np.array(config.omegas, dtype=float)
    depart = np.abs(0.5 * (T_up + T_down) - T0)
    good = depart > 1e-14
    if good.sum() < 2:
        return math.inf  # departure at the noise floor everywhere
    slope, _ = np.polyfit(np.log(omegas[good]), np.log(depart[good]), 1)
    return float(slope)


def clock_block(problems: ProblemBlock, config: ClockConfig,
                n_quad: int = 2049) -> list[ClockResult]:
    """Dwell plus Larmor times for both sub-processes on every row of a
    block, all rows read with one config. Rows without a reflection
    channel get a NaN reflection dwell time and no reflection reading;
    any other failure raises for the first failing row."""
    pad = 1.0
    x_probe = np.linspace(problems.a - pad, problems.b + pad, 65, axis=-1)
    dec = decompose_block(problems, x_probe)
    T, R = np.abs(dec.A_T) ** 2, np.abs(dec.A_R) ** 2
    _require_weight(T, "tr")
    tau_tr = _dwell_block(dec, T, "tr", n_quad)
    tau_ref = _dwell_block(dec, R, "ref", n_quad)
    # one set of Zeeman solves serves both readings; the base solution is
    # the decomposition's, and the tr channel is already required
    config.validate_block(problems)
    A_T, A_R = _zeeman_solves(problems, config)
    readings_tr = _larmor_readings(A_T[..., 0], A_T[..., 1], config, "tr")
    readings_ref = _larmor_readings(A_R[..., 0], A_R[..., 1], config, "ref",
                                    present=R >= ZERO_FLUX)
    lengths = problems.b - problems.a
    return [
        ClockResult(E=float(problems.E[i]), barrier_length=float(lengths[i]),
                    tau_dwell_tr=float(tau_tr[i]), tau_dwell_ref=float(tau_ref[i]),
                    larmor_tr=readings_tr[i], larmor_ref=readings_ref[i])
        for i in range(problems.n)
    ]


def compute_clock(spec: PotentialSpec, mode: EnergyMode, config: ClockConfig,
                  n_quad: int = 2049) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes at one energy: a
    block of one."""
    return clock_block(ProblemBlock.of(spec, mode.E), config, n_quad)[0]


def _sweep_block(v0: float, energy_ratio: float, config_factors, extrapolation_order: int,
                 n_quad: int, kappa_lengths) -> list[ClockResult]:
    E = energy_ratio * v0
    kappa = math.sqrt(2.0 * (v0 - E))
    specs = [make_centered_rectangular(v0, kl / kappa) for kl in kappa_lengths]
    config = ClockConfig.for_energy(E, tuple(config_factors), extrapolation_order)
    return clock_block(ProblemBlock.of(specs, E), config, n_quad)


def sweep_barrier_width(v0: float, energy_ratio: float, kappa_lengths,
                        config_factors=(1e-2, 1e-3, 1e-4),
                        extrapolation_order: int = 2,
                        n_quad: int = 2049, map_fn=map) -> list[ClockResult]:
    """Clock times along a family of barriers of growing opacity.

    Barriers are centered at the origin with E = energy_ratio * v0 fixed,
    so kappa is constant and the width L = kappa_L / kappa sweeps the
    requested opacity range. `map_fn` maps over blocks of SWEEP_BLOCK
    widths. Emitted for monotonicity inspection; the ordering itself is
    an empirical output, not a contract.
    """
    if not (0.0 < energy_ratio < 1.0):
        raise ValueError("energy ratio must lie in (0, 1) for a tunneling sweep")
    worker = partial(_sweep_block, v0, energy_ratio, tuple(config_factors),
                     extrapolation_order, n_quad)
    kls = [float(kl) for kl in kappa_lengths]
    blocks = [kls[lo:lo + SWEEP_BLOCK] for lo in range(0, len(kls), SWEEP_BLOCK)]
    return [res for block in map_fn(worker, blocks) for res in block]


def make_centered_rectangular(v0: float, length: float) -> PotentialSpec:
    return PotentialSpec(a=-0.5 * length, segments=((float(length), float(v0)),))


def larmor_packet_readout(spec: PotentialSpec, packet: PacketSpec,
                          config: ClockConfig, subprocess: str, t: float,
                          x_grid=None, n_k: int = 513) -> LarmorReading:
    """Packet-level Larmor reading taken after the sub-packets separate.

    The spin-up/down packets are synthesized with the shifted barriers,
    which share the base table's cos/sin table; their amplitudes at the
    sub-packet peak give the reading as in the stationary case. Readout
    before the overlap threshold is met raises PrematureReadout; the
    sub-packet weights and overlap are the base table's
    `diagnostics_series` at t, so a grid too coarse for its quadrature
    raises GridTooCoarse.
    """
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    config.validate_block(ProblemBlock.of(spec, EnergyMode.from_k(packet.k0).E))
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

    def shifted_packet(delta):
        table = base.on_barrier(zeeman_shifted(spec, delta))
        return table.states([t])[COMPONENTS.index(subprocess), 0]

    up, down = np.empty((2, 1, len(config.omegas)), dtype=complex)
    for j, omega in enumerate(config.omegas):
        spin_up, spin_down = (shifted_packet(s * omega) for s in (-0.5, +0.5))
        peak = int(np.argmax(np.abs(spin_up) ** 2 + np.abs(spin_down) ** 2))
        up[0, j], down[0, j] = spin_up[peak], spin_down[peak]
    return _larmor_readings(up, down, config, subprocess)[0]
