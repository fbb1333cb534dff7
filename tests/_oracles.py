"""Independent reference computations used as test oracles.

Everything here is coded from closed forms or generic numerics, never by
calling the code under test, except as follows. `sampled` reads a
one-row decomposition on a grid. `derivative_jump` estimates the
sub-wave derivative jumps at x_c by finite differences of its sampled
cut waves, which the analytic derivatives are checked against. `cut_flux_integral` reads a mode
table at the single grid point x_c, so it shares no x quadrature with the
packet norms it is checked against. `per_mode_fields` is the per-mode
row algorithm that packets replaced: every mode decomposed and sampled on
the whole grid, then summed. `simpson_density_sum` is the sampled
quadrature that the dwell times evaluate in closed form, and
`simpson_product_sum` the one for the Larmor overlaps. The Zeeman ladder
(`zeeman_shifted`, `larmor_ladder`, `probe_noninvasiveness`) solves the
spin-shifted barriers with the package's `solve_block`: a finite-field
reading of the closed-form Larmor times, a raw precession time per
frequency Neville-extrapolated to zero field.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from tunnelsplit.packets import simpson_weights, spectral_grid
from tunnelsplit.potential import PotentialSpec
from tunnelsplit.splitting import build_decomposition, sub_waves
from tunnelsplit.stationary import EnergyMode, ProblemBlock, sample_states, solve_block

# Larmor frequencies of the ladder as fractions of the energy, descending
LARMOR_LADDER = (1e-2, 1e-3, 1e-4)


def rectangular_transmission(E: float, V0: float, L: float) -> float:
    """Closed-form transmission probability of a rectangular barrier."""
    if V0 == 0.0:
        return 1.0
    if abs(E - V0) <= 1e-13 * max(E, abs(V0), 1.0):
        return 1.0 / (1.0 + V0 * L * L / 2.0)
    if E < V0:
        kappa = math.sqrt(2.0 * (V0 - E))
        return 1.0 / (1.0 + V0 ** 2 * math.sinh(kappa * L) ** 2 / (4.0 * E * (V0 - E)))
    q = math.sqrt(2.0 * (E - V0))
    return 1.0 / (1.0 + V0 ** 2 * math.sin(q * L) ** 2 / (4.0 * E * (E - V0)))


def free_gaussian(x, t, k0, sigma_k, x0):
    """Closed-form free evolution of the Gaussian packet with spectrum
    (2 pi sigma_k^2)^(-1/4) exp(-(k-k0)^2/(4 sigma_k^2)) exp(-i k x0).

    Gaussian integral of exp(-a k^2 + b k) with a = 1/(4 sigma_k^2) + i t/2.
    """
    x = np.asarray(x, dtype=float)
    a = 1.0 / (4.0 * sigma_k ** 2) + 0.5j * t
    b = k0 / (2.0 * sigma_k ** 2) + 1j * (x - x0)
    pref = (2.0 * np.pi * sigma_k ** 2) ** (-0.25) / np.sqrt(2.0 * np.pi)
    return pref * np.sqrt(np.pi / a) * np.exp(b * b / (4.0 * a) - k0 ** 2 / (4.0 * sigma_k ** 2))


def integrate_stationary(spec_a, spec_b, segment_table, E, psi0, dpsi0, x_eval):
    """Direct Runge-Kutta integration of psi'' = 2 (V - E) psi.

    segment_table: list of (x_left, x_right, height); potential is zero
    outside [spec_a, spec_b]. Integrates segment by segment so the
    discontinuities never sit inside an adaptive step.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    x_start = float(x_eval[0])
    x_end = float(x_eval[-1])
    breaks = [x_start]
    for xl, xr, _ in segment_table:
        for edge in (xl, xr):
            if x_start < edge < x_end:
                breaks.append(edge)
    breaks.append(x_end)
    breaks = sorted(set(breaks))

    def height_at(x):
        if x < spec_a or x >= spec_b:
            return 0.0
        for xl, xr, h in segment_table:
            if xl <= x < xr:
                return h
        return segment_table[-1][2]

    out = np.empty(x_eval.shape, dtype=complex)
    state = np.array([psi0, dpsi0], dtype=complex)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        V = height_at(0.5 * (lo + hi))

        def rhs(_x, y, V=V):
            return [y[1], 2.0 * (V - E) * y[0]]

        mask = (x_eval >= lo) & (x_eval <= hi)
        sol = solve_ivp(
            rhs,
            (lo, hi),
            state,
            t_eval=np.unique(np.concatenate((x_eval[mask], [hi]))),
            rtol=1e-11,
            atol=1e-12,
            max_step=(hi - lo) / 8.0,
        )
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        vals = dict(zip(sol.t, sol.y[0]))
        for xv in x_eval[mask]:
            out[np.where(x_eval == xv)] = vals[xv]
        state = sol.y[:, -1]
    return out


def sampled(dec, x):
    """(full, tr_solution, ref_solution, tr, ref) of a one-row decomposition
    on the grid x: the three smooth solutions, then the sub-waves cut at
    x_c."""
    full, tr_solution, ref_solution = sample_states(
        (dec.full_state, dec.tr_state, dec.ref_state), x)
    return (full, tr_solution, ref_solution,
            *sub_waves(x <= dec.problems.x_c[0], full, tr_solution, ref_solution))


def derivative_jump(dec, x):
    """One-sided finite-difference estimates of the derivative jumps of the
    sub-waves tr and ref at x_c, from quadratic fits to the three points on
    each side of the grid x; the two jumps cancel to discretization error
    because the summed wave is smooth there."""
    x_c = dec.problems.x_c[0]
    i_cut = int(np.searchsorted(x, x_c, side="right"))
    if i_cut < 3 or i_cut > x.size - 3:
        raise ValueError("grid must bracket x_c with at least 3 points per side")

    def one_sided(values, idx):
        return complex(np.polyfit(x[idx] - x_c, values[idx], 2)[1])

    left_idx = [i_cut - 3, i_cut - 2, i_cut - 1]
    right_idx = [i_cut, i_cut + 1, i_cut + 2]
    return tuple(one_sided(values, right_idx) - one_sided(values, left_idx)
                 for values in sampled(dec, x)[3:])


def cut_flux_integral(table, times):
    """Cumulative trapezoid integral, from times[0], of the flux that the
    transmission sub-wave gains through the cut at x_c,

        Phi(t) = Im(conj(full(x_c, t)) d_x ref_state(x_c, t)).

    tr is tr_state left of x_c and full beyond, and ref_state vanishes at
    x_c, so Phi is the current jump j_full - j_tr_state there and
    d/dt ||tr||^2 = Phi: the integral equals T(t) - T(times[0]). The grid
    must hold x_c itself; the default x grid is symmetric about it. The
    cut ref is ref_state at x_c, which lies on its left side.
    """
    hits = np.flatnonzero(table.x == table.x_c)
    assert hits.size == 1, "the table's x grid has no point at the cut x_c"
    i = int(hits[0])
    times = np.asarray(times, dtype=float)
    full = table.states(times)[0][:, i]
    dref = table.states(times, deriv=True)[2][:, i]
    phi = np.imag(np.conj(full) * dref)
    steps = 0.5 * (phi[1:] + phi[:-1]) * np.diff(times)
    return np.concatenate(([0.0], np.cumsum(steps)))


def per_mode_fields(spec, packet, x, times, n_k, span_sigmas):
    """(full, tr, ref) and their x derivatives at every time, as a
    (2, 3, n_t, n_x) stack, from value and derivative rows of every mode
    sampled on the whole grid, summed and then cut at x_c."""
    k, w = spectral_grid(packet, n_k, span_sigmas)
    rows = np.empty((2, 3, k.size, x.size), dtype=complex)
    for j, kj in enumerate(k):
        dec = build_decomposition(spec, EnergyMode.from_k(float(kj)), x)
        for deriv in (0, 1):
            rows[deriv, :, j] = sample_states((dec.full_state, dec.tr_state, dec.ref_state),
                                              x, deriv=bool(deriv))
    phase = np.exp(-0.5j * k ** 2 * np.asarray(times, dtype=float)[:, None])
    full, tr_state, ref_state = np.moveaxis(
        (w * packet.spectrum(k) * phase / math.sqrt(2.0 * math.pi)) @ rows, 1, 0)
    left = x <= spec.x_c
    return np.stack((full, np.where(left, tr_state, full), np.where(left, ref_state, 0.0)), axis=1)


def simpson_density_sum(state, lo, hi, n):
    """Composite-Simpson sum of |state|^2 over np.linspace(lo, hi, n), per
    row of a block of states: every node sampled, weighted and summed
    along its row."""
    x = np.linspace(lo, hi, n, axis=-1)
    density = np.abs(sample_states(state, x)) ** 2
    return np.sum(density * simpson_weights(n, x[:, 1] - x[:, 0]), axis=-1)


def simpson_product_sum(f, g, lo, hi, n):
    """Composite-Simpson sum of f g (no conjugate) over np.linspace(lo, hi,
    n), per row of two blocks of states of the same problems."""
    x = np.linspace(lo, hi, n, axis=-1)
    product = sample_states(f, x) * sample_states(g, x)
    return np.sum(product * simpson_weights(n, x[:, 1] - x[:, 0]), axis=-1)


def zeeman_shifted(spec: PotentialSpec, delta: float) -> PotentialSpec:
    """Barrier with every segment height shifted by delta inside [a, b]."""
    return PotentialSpec(a=spec.a, segments=tuple((w, h + delta) for w, h in spec.segments))


def _zeeman_amplitudes(spec, mode, factors):
    """The omegas factor * E and (A_T, A_R) of the spin-up and spin-down
    barriers, shifted by -omega/2 and +omega/2, each (n_omega, 2)."""
    omegas = np.array(factors) * mode.E
    specs = [zeeman_shifted(spec, s * omega) for omega in omegas for s in (-0.5, 0.5)]
    A_T, A_R = solve_block(ProblemBlock.of(specs, mode.E))
    return omegas, A_T.reshape(-1, 2), A_R.reshape(-1, 2)


def larmor_ladder(spec, mode, subprocess, factors=LARMOR_LADDER):
    """(raw, limit, residuals, modulus): the raw precession times
    angle(up conj(down)) / omega of one sub-process at each omega = factor
    * E, their zero-field limit by Neville extrapolation in u = omega^2
    through every reading (the readings are even in omega), |raw - limit|,
    and the modulus responses ln(|up| / |down|) / omega."""
    omegas, A_T, A_R = _zeeman_amplitudes(spec, mode, factors)
    up, down = (A_T if subprocess == "tr" else A_R).T
    raw = np.angle(up * np.conj(down)) / omegas
    u, tab = omegas ** 2, raw.copy()
    for level in range(1, tab.size):
        for i in range(tab.size - level):
            tab[i] = (u[i] * tab[i + 1] - u[i + level] * tab[i]) / (u[i] - u[i + level])
    return raw, tab[0], np.abs(raw - tab[0]), np.log(np.abs(up) / np.abs(down)) / omegas


def probe_noninvasiveness(spec, mode, factors=LARMOR_LADDER) -> float:
    """Fitted order of |mean(T_up, T_down) - T| against omega.

    The symmetric spin shift cancels the linear response, so the exponent
    should come out >= 2 up to fit noise.
    """
    omegas, A_T, _ = _zeeman_amplitudes(spec, mode, factors)
    T0 = (np.abs(solve_block(ProblemBlock.of(spec, mode.E))[0]) ** 2)[0]
    T_up, T_down = (np.abs(A_T) ** 2).T
    depart = np.abs(0.5 * (T_up + T_down) - T0)
    good = depart > 1e-14
    if good.sum() < 2:
        return math.inf  # departure at the noise floor everywhere
    slope, _ = np.polyfit(np.log(omegas[good]), np.log(depart[good]), 1)
    return float(slope)
