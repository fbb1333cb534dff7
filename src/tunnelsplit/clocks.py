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
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ExtrapolationDiverged, PrematureReadout, ZeroFlux
from .packets import (COMPONENTS, PacketSpec, _mode_table, build_mode_table, default_x_grid,
                      simpson_weights)
from .potential import PotentialSpec
from .splitting import StationaryDecomposition, build_decomposition
from .stationary import EnergyMode, ScatteringAmplitudes, solve_full
from .tolerances import OMEGA_FRACTION, OVERLAP_FINAL_FRACTION, ZERO_FLUX

SUBPROCESSES = ("tr", "ref")


@dataclass(frozen=True)
class ClockConfig:
    """Descending Larmor frequencies and the extrapolation order."""

    omegas: tuple[float, ...] = ()
    extrapolation_order: int = 2
    region: tuple[float, float] | None = None

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

    def validate_against(self, mode: EnergyMode, spec: PotentialSpec):
        # inclusive: the canonical sequence tops out at exactly 1e-2 E
        if max(self.omegas) > OMEGA_FRACTION * mode.E * (1.0 + 1e-12):
            raise ValueError(
                f"omega = {max(self.omegas):.3g} is not infinitesimal against E = {mode.E:.3g}"
            )
        if self.region is not None:
            a, b = self.region
            if abs(a - spec.a) > 1e-12 or abs(b - spec.b) > 1e-12:
                raise ValueError("clock region must coincide with the barrier support")


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


def dwell_time(dec: StationaryDecomposition, subprocess: str, n_quad: int = 2049) -> float:
    """Flux-normalized time spent in the barrier region by one sub-process."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec, mode = dec.spec, dec.mode
    k = mode.k
    if n_quad % 2 == 0:
        n_quad += 1
    if subprocess == "tr":
        weight = dec.amplitudes.T
        if weight < ZERO_FLUX:
            raise ZeroFlux(f"transmission weight {weight:.3e} below {ZERO_FLUX}")
        # the sub-process wave switches from tr_state to the full solution
        # at x_c; integrate each half so the kink sits on a panel edge
        half = (n_quad - 1) // 2 + 1
        xl = np.linspace(spec.a, spec.x_c, half)
        xr = np.linspace(spec.x_c, spec.b, half)
        dens_l = np.abs(dec.tr_state.values(xl)) ** 2
        dens_r = np.abs(dec.full_state.values(xr)) ** 2
        number = float(
            np.sum(simpson_weights(half, xl[1] - xl[0]) * dens_l)
            + np.sum(simpson_weights(half, xr[1] - xr[0]) * dens_r)
        )
    else:
        weight = dec.amplitudes.R
        if weight < ZERO_FLUX:
            raise ZeroFlux(f"reflection weight {weight:.3e} below {ZERO_FLUX}")
        xl = np.linspace(spec.a, spec.x_c, n_quad)
        dens = np.abs(dec.ref_state.values(xl)) ** 2
        number = float(np.sum(simpson_weights(n_quad, xl[1] - xl[0]) * dens))
    return number / (k * weight)


def zeeman_shifted(spec: PotentialSpec, delta: float) -> PotentialSpec:
    """Barrier with every segment height shifted by delta inside [a, b]."""
    return PotentialSpec(a=spec.a, segments=tuple((w, h + delta) for w, h in spec.segments))


def _outgoing(amps: ScatteringAmplitudes, subprocess: str) -> complex:
    # beyond x_c the transmission sub-wave equals the full solution, so its
    # right-side amplitude is A_T; the reflection sub-wave owns the entire
    # left-outgoing wave A_R
    return amps.A_T if subprocess == "tr" else amps.A_R


def _require_channel(amps: ScatteringAmplitudes, mode: EnergyMode, subprocess: str):
    # an absent channel has no clock: the shifted problems would still
    # return tiny amplitudes whose phase carries no time information
    if abs(_outgoing(amps, subprocess)) ** 2 < ZERO_FLUX:
        raise ZeroFlux(f"{subprocess} channel absent at E = {mode.E:.4g}")


def _zeeman_solves(spec: PotentialSpec, mode: EnergyMode, config: ClockConfig):
    """(spin up, spin down) solutions, shifted by -omega/2 and +omega/2,
    for each omega; both sub-process readings are taken from them."""
    return [
        tuple(solve_full(zeeman_shifted(spec, s * omega), mode) for s in (-0.5, +0.5))
        for omega in config.omegas
    ]


def _extrapolate_to_zero(omegas: np.ndarray, values: np.ndarray, order: int) -> float:
    """Neville extrapolation in u = omega^2 to u = 0.

    The readings are even in omega (opposite spins swap), so the error
    series runs in omega^2; `order` is the polynomial degree used.
    """
    n_pts = min(order + 1, values.size)
    u = (omegas ** 2)[-n_pts:]
    tab = list(values[-n_pts:].astype(float))
    for level in range(1, n_pts):
        nxt = []
        for i in range(len(tab) - level):
            num = u[i] * tab[i + 1] - u[i + level] * tab[i]
            nxt.append(num / (u[i] - u[i + level]))
        for i, v in enumerate(nxt):
            tab[i] = v
    return float(tab[0])


def _outgoing_pairs(shifted, subprocess: str) -> list[tuple[complex, complex]]:
    return [(_outgoing(up, subprocess), _outgoing(down, subprocess)) for up, down in shifted]


def _larmor_reading(pairs, config: ClockConfig, subprocess: str) -> LarmorReading:
    """Precession times of one sub-process from its (spin up, spin down)
    outgoing amplitudes at each omega, extrapolated to zero field."""
    omegas = np.array(config.omegas, dtype=float)
    raw = np.empty(omegas.size)
    out_of_plane = np.empty(omegas.size)
    for i, (omega, (up, down)) in enumerate(zip(omegas, pairs)):
        if min(abs(up), abs(down)) ** 2 < ZERO_FLUX:
            raise ZeroFlux(f"{subprocess} amplitude vanishes at omega = {omega:.3g}")
        raw[i] = cmath.phase(up * down.conjugate()) / omega
        out_of_plane[i] = math.log(abs(up) / abs(down)) / omega
    limit = _extrapolate_to_zero(omegas, raw, config.extrapolation_order)
    residuals = np.abs(raw - limit)
    return LarmorReading(
        subprocess=subprocess,
        omegas=omegas,
        raw_times=raw,
        extrapolated=limit,
        residuals=residuals,
        out_of_plane=out_of_plane,
    )


def larmor_times(spec: PotentialSpec, mode: EnergyMode, config: ClockConfig,
                 subprocess: str) -> LarmorReading:
    """Weak-field precession times for one sub-process, extrapolated to
    zero field."""
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    config.validate_against(mode, spec)
    _require_channel(solve_full(spec, mode), mode, subprocess)
    shifted = _zeeman_solves(spec, mode, config)
    return _larmor_reading(_outgoing_pairs(shifted, subprocess), config, subprocess)


def probe_noninvasiveness(spec: PotentialSpec, mode: EnergyMode,
                          config: ClockConfig) -> float:
    """Fitted order of |mean(T_up, T_down) - T| against omega.

    The symmetric spin shift cancels the linear response, so the exponent
    should come out >= 2 up to fit noise.
    """
    T0 = solve_full(spec, mode).T
    omegas = np.array(config.omegas, dtype=float)
    depart = np.empty(omegas.size)
    for i, omega in enumerate(omegas):
        T_up = solve_full(zeeman_shifted(spec, -0.5 * omega), mode).T
        T_down = solve_full(zeeman_shifted(spec, +0.5 * omega), mode).T
        depart[i] = abs(0.5 * (T_up + T_down) - T0)
    good = depart > 1e-14
    if good.sum() < 2:
        return math.inf  # departure at the noise floor everywhere
    slope, _ = np.polyfit(np.log(omegas[good]), np.log(depart[good]), 1)
    return float(slope)


def compute_clock(spec: PotentialSpec, mode: EnergyMode, config: ClockConfig,
                  n_quad: int = 2049) -> ClockResult:
    """Dwell plus Larmor times for both sub-processes at one energy."""
    pad = 1.0
    x_probe = np.linspace(spec.a - pad, spec.b + pad, 65)
    dec = build_decomposition(spec, mode, x_probe)
    tau_tr = dwell_time(dec, "tr", n_quad)
    try:
        tau_ref = dwell_time(dec, "ref", n_quad)
    except ZeroFlux:
        tau_ref = math.nan
    # one set of Zeeman solves serves both readings; the base solution is
    # the decomposition's, and dwell_time has already required the tr channel
    config.validate_against(mode, spec)
    shifted = _zeeman_solves(spec, mode, config)
    reading_tr = _larmor_reading(_outgoing_pairs(shifted, "tr"), config, "tr")
    try:
        _require_channel(dec.amplitudes, mode, "ref")
        reading_ref = _larmor_reading(_outgoing_pairs(shifted, "ref"), config, "ref")
    except ZeroFlux:
        reading_ref = None
    return ClockResult(
        E=mode.E,
        barrier_length=spec.width,
        tau_dwell_tr=tau_tr,
        tau_dwell_ref=tau_ref,
        larmor_tr=reading_tr,
        larmor_ref=reading_ref,
    )


def _sweep_point(v0: float, energy_ratio: float, config_factors,
                 extrapolation_order: int, n_quad: int, kl: float) -> ClockResult:
    E = energy_ratio * v0
    kappa = math.sqrt(2.0 * (v0 - E))
    spec = make_centered_rectangular(v0, kl / kappa)
    config = ClockConfig.for_energy(E, tuple(config_factors), extrapolation_order)
    return compute_clock(spec, EnergyMode(E), config, n_quad)


def sweep_barrier_width(v0: float, energy_ratio: float, kappa_lengths,
                        config_factors=(1e-2, 1e-3, 1e-4),
                        extrapolation_order: int = 2,
                        n_quad: int = 2049, map_fn=map) -> list[ClockResult]:
    """Clock times along a family of barriers of growing opacity.

    Barriers are centered at the origin with E = energy_ratio * v0 fixed,
    so kappa is constant and the width L = kappa_L / kappa sweeps the
    requested opacity range. Emitted for monotonicity inspection; the
    ordering itself is an empirical output, not a contract.
    """
    if not (0.0 < energy_ratio < 1.0):
        raise ValueError("energy ratio must lie in (0, 1) for a tunneling sweep")
    worker = partial(_sweep_point, v0, energy_ratio, tuple(config_factors),
                     extrapolation_order, n_quad)
    return list(map_fn(worker, [float(kl) for kl in kappa_lengths]))


def make_centered_rectangular(v0: float, length: float) -> PotentialSpec:
    return PotentialSpec(a=-0.5 * length, segments=((float(length), float(v0)),))


def larmor_packet_readout(spec: PotentialSpec, packet: PacketSpec,
                          config: ClockConfig, subprocess: str, t: float,
                          x_grid=None, n_k: int = 513) -> LarmorReading:
    """Packet-level Larmor reading taken after the sub-packets separate.

    The spin-up/down packets are synthesized with the shifted barriers,
    which share the base table's exp(ikx); their amplitudes at the
    sub-packet peak give the reading as in the stationary case. Readout
    before the overlap threshold is met raises PrematureReadout.
    """
    if subprocess not in SUBPROCESSES:
        raise ValueError(f"subprocess must be one of {SUBPROCESSES}")
    spec.require_symmetric()
    config.validate_against(EnergyMode.from_k(packet.k0), spec)
    x = default_x_grid(spec, packet) if x_grid is None else np.asarray(x_grid, float)

    base = build_mode_table(spec, packet, x, n_k)
    _, tr0, ref0 = base.states([t])[:, 0]
    t_w = float(np.trapezoid(np.abs(tr0) ** 2, x))
    r_w = float(np.trapezoid(np.abs(ref0) ** 2, x))
    ov = abs(np.trapezoid(np.conj(tr0) * ref0, x))
    threshold = OVERLAP_FINAL_FRACTION * math.sqrt(t_w * r_w)
    if ov > threshold:
        raise PrematureReadout(
            f"sub-packets still overlap at t = {t}: |<tr|ref>| = {ov:.3e} "
            f"> {threshold:.3e}"
        )

    def shifted_packet(delta):
        table = _mode_table(zeeman_shifted(spec, delta), packet, x, base.k, base.weights)
        table.e = base.e
        return table.states([t])[COMPONENTS.index(subprocess), 0]

    pairs = []
    for omega in config.omegas:
        up, down = (shifted_packet(s * omega) for s in (-0.5, +0.5))
        peak = int(np.argmax(np.abs(up) ** 2 + np.abs(down) ** 2))
        pairs.append((up[peak], down[peak]))
    return _larmor_reading(pairs, config, subprocess)
