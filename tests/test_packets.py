import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelsplit import packets
from tunnelsplit.errors import GridTooCoarse, SpectrumDomainError
from tunnelsplit.packets import (
    PacketSpec,
    build_mode_table,
    continuity_residual,
    default_x_grid,
    diagnostics_series,
    fields_at,
    span_covers,
    spectral_grid,
    synthesize,
)
from tunnelsplit.potential import make_piecewise, make_rectangular
from tunnelsplit.runconfig import parse_config
from tunnelsplit import stationary
from tunnelsplit.splitting import build_decomposition
from tunnelsplit.stationary import EnergyMode, solve_full
from tunnelsplit.tolerances import CUT_FLUX_FINAL, NORM_DRIFT, PACKET_IDENTITY, SPECTRUM_NORM

from _oracles import (continuity_profile, cut_flux_integral, dense_exterior_states,
                      free_gaussian, per_mode_fields, pointwise_series, sampled_checks)


class TestPacketSpec:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(SpectrumDomainError):
            PacketSpec(k0=1.0, sigma_k=0.0, x0=-10.0)

    def test_rejects_backward_contamination(self):
        with pytest.raises(SpectrumDomainError):
            PacketSpec(k0=0.4, sigma_k=0.1, x0=-10.0)

    @pytest.mark.parametrize("params", [dict(k0=math.nan), dict(k0=math.inf),
                                        dict(sigma_k=math.nan), dict(x0=math.nan),
                                        dict(x0=-math.inf)],
                             ids=["k0-nan", "k0-inf", "sigma-nan", "x0-nan", "x0-minus-inf"])
    def test_rejects_non_finite(self, params):
        with pytest.raises(SpectrumDomainError):
            PacketSpec(**{"k0": 1.0, "sigma_k": 0.05, "x0": -60.0, **params})

    def test_spectrum_normalized(self, canonical_packet):
        k, w = spectral_grid(canonical_packet, n_k=4097)
        norm = np.sum(w * np.abs(canonical_packet.spectrum(k)) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_position_width(self, canonical_packet):
        assert canonical_packet.position_sigma() == 10.0

    def test_separation_guard(self, canonical_packet):
        with pytest.raises(ValueError):
            canonical_packet.check_separation(make_rectangular(1.0, 2.0, -10.0))
        canonical_packet.check_separation(make_rectangular(1.0, 2.0, -9.0))


class TestSpectralGrid:
    def test_rejects_even_or_small(self, canonical_packet):
        with pytest.raises(ValueError):
            spectral_grid(canonical_packet, n_k=512)
        with pytest.raises(ValueError):
            spectral_grid(canonical_packet, n_k=63)

    def test_rejects_nonpositive_reach(self):
        packet = PacketSpec(k0=0.6, sigma_k=0.1, x0=-30.0)
        with pytest.raises(SpectrumDomainError):
            spectral_grid(packet, n_k=129, span_sigmas=7.0)

    def test_rejects_an_energy_that_overflows(self):
        # k_max = 1e300 + 0.8 is finite, but its energy k_max^2 / 2 is not
        packet = PacketSpec(k0=1e300, sigma_k=0.1, x0=-40.0)
        with pytest.raises(SpectrumDomainError, match="overflows"):
            spectral_grid(packet)

    @pytest.mark.parametrize("n_k", [65, 513])
    @pytest.mark.parametrize("span", [5.75, 8.0])
    def test_meets_the_spectrum_norm(self, canonical_packet, span, n_k):
        # the span's truncated tail erfc(span / sqrt 2) is 8.9e-9 at 5.75
        k, w = spectral_grid(canonical_packet, n_k, span)
        total = np.sum(w * np.abs(canonical_packet.spectrum(k)) ** 2)
        assert abs(total - 1.0) <= SPECTRUM_NORM

    def test_rejects_a_span_whose_tail_exceeds_the_norm(self, canonical_packet):
        # erfc(5.73 / sqrt 2) = 1.004e-8 of |f|^2 lies outside the span
        assert span_covers(5.7308) and not span_covers(5.7307)
        with pytest.raises(ValueError, match="SPECTRUM_NORM"):
            spectral_grid(canonical_packet, 65, 5.73)

    def test_weights_integrate_gaussian(self, canonical_packet):
        k, w = spectral_grid(canonical_packet)
        total = np.sum(w * np.abs(canonical_packet.spectrum(k)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestFreePacket:
    def test_initial_gaussian(self, free_table, canonical_packet):
        s = diagnostics_series(free_table, [0.0])
        assert s.total[0] == pytest.approx(1.0, abs=1e-8)
        assert s.T[0] == pytest.approx(1.0, abs=1e-8)
        assert s.R[0] < 1e-12
        assert s.xbar_full[0] == pytest.approx(canonical_packet.x0, abs=1e-6)
        assert s.pbar_full[0] == pytest.approx(canonical_packet.k0, abs=1e-6)
        assert s.varx_full[0] == pytest.approx(1.0 / (4.0 * canonical_packet.sigma_k ** 2),
                                               abs=1e-6)

    def test_ref_component_vanishes(self, free_table):
        """A vanishing component has no moments: they read NaN."""
        assert np.max(np.abs(fields_at(free_table, 30.0)[0, 2])) < 1e-12
        s = diagnostics_series(free_table, [30.0])
        assert np.isnan([s.xbar_ref[0], s.pbar_ref[0], s.varx_ref[0]]).all()
        assert np.isfinite([s.xbar_tr[0], s.pbar_tr[0], s.varx_tr[0]]).all()

    def test_matches_closed_form_evolution(self, free_table, canonical_packet):
        for t in (0.0, 25.0):
            want = free_gaussian(free_table.x, t, canonical_packet.k0,
                                 canonical_packet.sigma_k, canonical_packet.x0)
            assert np.max(np.abs(fields_at(free_table, t)[0, 0] - want)) < 1e-8

    def test_free_continuity_residual_small(self, free_table):
        assert continuity_residual(free_table, "tr", 20.0) < 1e-6
        assert continuity_residual(free_table, "full", 20.0) < 1e-6


class TestSynthesizeOneShot:
    def test_matches_table_slice(self, canonical_table, canonical_spec, canonical_packet):
        x = canonical_table.x[::16]
        times = [0.0, 40.0, 70.0]
        for component in ("full", "tr", "ref"):
            fields = synthesize(canonical_spec, canonical_packet, component, times, x)
            assert [f.t for f in fields] == times
            for one, t in zip(fields, times):
                ref = canonical_table.state_slice(component, t)[::16]
                np.testing.assert_allclose(one.values, ref, rtol=0, atol=1e-12)

    def test_rejects_unknown_component(self, canonical_spec, canonical_packet):
        with pytest.raises(ValueError):
            synthesize(canonical_spec, canonical_packet, "fish", [0.0], np.array([0.0]))


class TestCanonicalRun:
    def test_identity_everywhere(self, canonical_table):
        for t in (0.0, 30.0, 60.0, 80.0):
            full, tr, ref = fields_at(canonical_table, t)[0]
            assert np.max(np.abs(tr + ref - full)) < 1e-8

    def test_grid_clear_of_the_barrier(self, canonical_table, canonical_spec, canonical_packet):
        """A grid that stops more than half a wavelength short of the barrier
        leaves every decomposition without samples; its fields are the
        canonical table's at the same points, up to the rounding of chirp
        z-transforms over grids of different extent (1.9e-15 apart)."""
        far = canonical_table.x < -60.0
        table = build_mode_table(canonical_spec, canonical_packet, canonical_table.x[far])
        for t in (0.0, 60.0):
            # values and derivatives of full, tr and ref
            np.testing.assert_allclose(fields_at(table, t), fields_at(canonical_table, t)[..., far],
                                       rtol=0, atol=1e-14)

    def test_piecewise_cut(self, canonical_table):
        full, tr, ref = fields_at(canonical_table, 55.0)[0]
        right = canonical_table.x > canonical_table.x_c
        assert np.all(ref[right] == 0.0)
        np.testing.assert_array_equal(tr[right], full[right])

    def test_initial_norms_match_spectral_weights(self, canonical_table, canonical_series):
        s = canonical_series  # s.t[0] is 0
        density = canonical_table.weights * np.abs(canonical_table.f_k) ** 2
        T_k, R_k = np.abs([np.concatenate(solve_full(canonical_table.spec,
                                                     EnergyMode.from_k(float(k))))
                           for k in canonical_table.k]).T ** 2
        assert s.total[0] == pytest.approx(1.0, abs=1e-8)
        assert s.T[0] == pytest.approx(np.sum(density * T_k), abs=1e-4)
        assert s.R[0] == pytest.approx(np.sum(density * R_k), abs=1e-4)

    def test_reflection_norm_constant(self, canonical_series):
        """The reflection sub-wave vanishes at the cut for every mode, so
        its norm is conserved exactly (quadrature noise only)."""
        drift = np.max(np.abs(canonical_series.R - canonical_series.R[0]))
        assert drift < 1e-8

    def test_overlap_initially_imaginary_and_decaying(self, canonical_series):
        s = canonical_series  # from t = 0 to 80
        ov0, ov_end = s.overlap[0], s.overlap[-1]
        assert abs(ov0.real) < 1e-6
        assert abs(ov_end) < 0.05 * np.sqrt(s.T[-1] * s.R[-1])
        assert abs(ov_end) < abs(ov0)

    def test_transmission_norm_transient_is_bounded(self, canonical_series):
        """The tr norm genuinely wobbles while the packet straddles the cut
        (probability flows through the derivative kink at finite
        bandwidth) and settles back as the sub-packets separate."""
        T = canonical_series.T
        assert abs(T[0] - T[1]) < 1e-5
        transient = np.max(np.abs(T - T[0]))
        assert 1e-5 < transient < 2e-2
        # settling: the final excursion is well below the peak
        assert abs(T[-1] - T[0]) < 0.5 * transient

    def test_late_momentum_matches_transmission_filter(self, canonical_table, canonical_series):
        pbar_tr = canonical_series.pbar_tr[-1]  # at t = 80
        w = (canonical_table.weights * np.abs(canonical_table.f_k) ** 2
             * np.abs(canonical_table.A_T) ** 2)
        want = float(np.sum(w * canonical_table.k) / np.sum(w))
        assert pbar_tr == pytest.approx(want, rel=5e-3)

    def test_ref_cut_flux_decays(self, canonical_series):
        assert abs(canonical_series.ref_cut_flux[-1]) < CUT_FLUX_FINAL

    def test_interference_integrates_to_overlap(self, canonical_table):
        t = 55.0
        _, tr, ref = fields_at(canonical_table, t)[0]
        cross = 2.0 * np.real(np.conj(tr) * ref)
        lhs = float(np.trapezoid(cross, canonical_table.x))
        overlap = diagnostics_series(canonical_table, [t]).overlap[0]
        assert lhs == pytest.approx(2.0 * overlap.real, abs=1e-10)

    def test_variance_growth_dominated_by_separation(self, canonical_series):
        last = canonical_series.t >= 2.0 * canonical_series.t[-1] / 3.0
        t2 = canonical_series.t[last] ** 2
        A = np.vstack([np.ones_like(t2), t2]).T
        slope_full = np.linalg.lstsq(A, canonical_series.varx_full[last], rcond=None)[0][1]
        slope_tr = np.linalg.lstsq(A, canonical_series.varx_tr[last], rcond=None)[0][1]
        slope_ref = np.linalg.lstsq(A, canonical_series.varx_ref[last], rcond=None)[0][1]
        assert slope_full > slope_tr
        assert slope_full > slope_ref


def _cut_flux_run(spec, sigma_k, n_k):
    """Integrated cut flux of a k0 = 1 packet on a 3-point grid around x_c.

    The packet starts 5.2 position widths before the cut (the canonical
    launch) and the run ends at t_sep, when its far edge, 6 widths behind
    the centre, has crossed the cut. Times are spaced sigma_x / 100.
    """
    sigma_x = 1.0 / (2.0 * sigma_k)
    packet = PacketSpec(k0=1.0, sigma_k=sigma_k, x0=spec.x_c - 5.2 * sigma_x)
    x = spec.x_c + spec.width / 64.0 * np.arange(-1, 2)
    table = build_mode_table(spec, packet, x, n_k=n_k)
    t_sep = 11.2 * sigma_x / packet.k0
    return cut_flux_integral(table, np.linspace(0.0, t_sep, 1121))


def test_cut_flux_transient_is_converged_physics(canonical_spec):
    """The transmission norm's transient is the flux through the derivative
    cut. Its peak is unchanged under k refinement, scales linearly with the
    bandwidth sigma_k, and the flux integrates back to zero once the
    sub-packets separate."""
    base = _cut_flux_run(canonical_spec, 0.05, 513)
    finer_k = _cut_flux_run(canonical_spec, 0.05, 1025)
    narrower = _cut_flux_run(canonical_spec, 0.025, 513)
    peak, peak_finer_k, peak_narrower = (np.max(np.abs(c)) for c in (base, finer_k, narrower))
    assert peak > 10.0 * NORM_DRIFT
    assert peak_finer_k == pytest.approx(peak, rel=1e-4)
    assert peak_narrower / 0.025 == pytest.approx(peak / 0.05, rel=0.05)
    for c in (base, finer_k, narrower):
        assert abs(c[-1]) < 1e-8


class TestGridDiagnostics:
    def test_grid_too_coarse_detected(self, canonical_spec, canonical_packet):
        # the density oscillates at 2k once incident and reflected parts
        # interfere; a ~1.6-unit spacing cannot integrate that
        x = np.linspace(-150.0, 134.0, 180)
        table = build_mode_table(canonical_spec, canonical_packet, x, n_k=65)
        with pytest.raises(GridTooCoarse, match="quadrature error"):
            diagnostics_series(table, [55.0])

    def test_default_grid_contains_cut_and_packet(self, canonical_spec, canonical_packet):
        x = default_x_grid(canonical_spec, canonical_packet)
        assert x[0] <= canonical_packet.x0 - 5.0 / canonical_packet.sigma_k
        assert np.min(np.abs(x - canonical_spec.x_c)) < 1e-9
        dx = np.diff(x)
        assert np.allclose(dx, dx[0], rtol=0, atol=1e-12)
        assert dx[0] <= canonical_spec.width / 64.0


@pytest.mark.parametrize("dx", [0.05, 0.1, 0.37])
def test_continuity_window_keeps_no_stencil_across_the_cut(dx):
    """The difference of d j/d x at a kept point i reads the points
    i-2..i+2: none of them lies off the grid, and they all lie on one side
    of the cut (x <= cut or x > cut), whatever the cut's place between
    nodes and however few points lie past it."""
    for cut_offset in (0.0, 1e-9, 0.25, 0.5, 0.999):
        for right in range(2, 8):
            x = dx * np.arange(-40, right + 1)
            for cut in (None, dx * cut_offset):
                try:
                    keep = packets._continuity_window(x, cut)
                except GridTooCoarse:
                    continue
                kept = np.flatnonzero(keep)
                assert kept.min() >= 2 and kept.max() <= x.size - 3, (cut, right)
                if cut is not None:
                    left = x[kept[:, None] + np.arange(-2, 3)] <= cut
                    assert np.all(left.all(axis=1) | ~left.any(axis=1)), (cut, right)


def test_diagnostics_series_shapes(canonical_series):
    n = canonical_series.t.size
    assert canonical_series.overlap.shape == (n,)
    assert canonical_series.T.shape == (n,)
    assert np.all(np.isfinite(canonical_series.varx_full))
    assert np.all(canonical_series.identity_residual < 1e-8)


def test_diagnostics_series_matches_per_time_recomputation():
    """The series equals trapezoid integrals of each time's fields_at
    arrays, column by column, and its continuity column the whole grid's
    residual restricted to the band of packets.BAND points on each side of
    the barrier; forms that mixed up times, components or parts would not."""
    spec = make_rectangular(1.0, 1.0, -2.0)
    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    x = np.arange(-30.0, 26.0 + 1e-9, 0.05)
    table = build_mode_table(spec, packet, x, n_k=65, span_sigmas=5.75)
    times = np.array([0.0, 3.0, 6.0, 9.0, 12.0])
    series = diagnostics_series(table, times)
    i_left = int(np.searchsorted(x, table.x_c, side="left")) - 1
    i_a, i_b = np.searchsorted(x, (spec.a, spec.b))
    band = np.zeros(x.size, dtype=bool)
    band[i_a - packets.BAND:i_b + packets.BAND] = True
    band &= packets._continuity_window(x, table.x_c)
    residual = continuity_profile(table, times)[1:, :, band]
    for i, t in enumerate(times):
        (full, tr, ref), (_, _, dref) = waves = fields_at(table, t)
        weight = np.trapezoid(np.abs(waves[0]) ** 2, x)
        want = {"total": weight[0], "T": weight[1], "R": weight[2],
                "overlap": np.trapezoid(np.conj(tr) * ref, x)}
        for c, comp in enumerate(("full", "tr", "ref")):
            psi, dpsi = waves[:, c]
            rho = np.abs(psi) ** 2
            xbar = np.trapezoid(rho * x, x) / weight[c]
            want.update({f"xbar_{comp}": xbar,
                         f"pbar_{comp}": np.trapezoid(np.imag(np.conj(psi) * dpsi), x) / weight[c],
                         f"varx_{comp}": np.trapezoid(rho * (x - xbar) ** 2, x) / weight[c]})
        want["continuity"] = np.max(residual[:, i])
        want["ref_cut_flux"] = np.imag(np.conj(ref) * dref)[i_left]
        want["identity_residual"] = np.max(np.abs(tr + ref - full))
        for name, value in want.items():
            got = getattr(series, name)[i]
            assert abs(got - value) <= 1e-12, (name, t, got, value)


def _assert_integrals_match_pointwise(series, table, times):
    """Every integral column of the series against np.trapezoid sums of the
    fields on every grid point, to 1e-12 scaled by max(1, |value|)."""
    for name, want in pointwise_series(table, times).items():
        got = getattr(series, name)
        gap = np.abs(got - want)
        ok = (gap <= 1e-12 * np.maximum(1.0, np.abs(want))) | (np.isnan(got) & np.isnan(want))
        assert ok.all(), (name, np.nanmax(gap))


def test_forms_match_the_pointwise_integrals_on_canonical(canonical_table, canonical_series):
    """The quadratic forms outside the barrier and the inner rows inside it
    give the trapezoid integrals of the fields on all 9729 points at all
    81 canonical times; the moments' largest gap is about 1e-13 scaled."""
    _assert_integrals_match_pointwise(canonical_series, canonical_table, canonical_series.t)


def test_band_holds_the_canonical_continuity_maximum(canonical_table, canonical_series):
    """On canonical the band of packets.BAND points about the barrier holds
    the largest continuity residual of tr and ref on the whole grid at all
    81 times, so reading it there loses nothing."""
    kept = packets._continuity_window(canonical_table.x, canonical_table.x_c)
    times = canonical_series.t
    for lo in range(0, times.size, 9):
        residual = continuity_profile(canonical_table, times[lo:lo + 9])[1:, :, kept]
        np.testing.assert_allclose(canonical_series.continuity[lo:lo + 9],
                                   np.max(residual, axis=(0, 2)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
def test_chirp_z_kernels_match_the_direct_sums(canonical_table, kind):
    """Each kernel's chirp z-transforms give sum_j w_j exp(i theta x_j) at
    its 2 n_k - 1 angles (every fourth checked), summed directly in
    extended precision, to 1e-14 of its largest entry, for the four weight
    rows: the Toeplitz kernel on the canonical grid left of a (it reads
    9e-16 there), the Hankel kernel on the small table's (4e-15). The
    Hankel kernel's largest entry is small: on the canonical grid it is
    1.6, against 151 for the Toeplitz kernel, and its error reads 2.4e-14
    of it (2.5e-16 of the Toeplitz kernel's)."""
    table = canonical_table if kind == "toeplitz" else _small_table()
    x, k = table.x[:table._inside.start], table.k
    n_k, dk, dx = k.size, (k[-1] - k[0]) / (k.size - 1), x[1] - x[0]
    w, _ = packets._weights(x, packets._quadrature(table.x)[:, :x.size])
    toeplitz, hankel = packets._kernels(w, x[0], dx, k, dk, hankel=True)
    if kind == "toeplitz":
        got = np.roll(np.fft.fft(toeplitz), -n_k, axis=-1)
        theta = -(n_k - 1) * dk + dk * np.arange(2 * n_k - 1)
    else:
        got = np.fft.fft(np.conj(hankel))
        theta = -2.0 * k[0] - dk * np.arange(2 * n_k - 1)
    got, theta = got[:, ::4], theta[::4]  # every fourth angle, lag 0 among them
    angle = np.multiply.outer(x.astype(np.longdouble), theta.astype(np.longdouble))
    weights = w.astype(np.longdouble)
    want = weights @ np.cos(angle) + 1j * (weights @ np.sin(angle))
    largest = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * largest), np.max(np.abs(got - want) / largest)


@pytest.mark.parametrize("grid", ["x", "k"])
def test_mode_table_rejects_a_nonuniform_grid(canonical_spec, canonical_packet, grid):
    """The chirp z-transforms and the diagnostics' forms assume uniform x
    and k grids, so a table rejects either grid when it is made."""
    x = np.linspace(-120.0, 100.0, 4401)
    if grid == "x":
        x[100] += 1e-6
        with pytest.raises(ValueError, match="x grid must be uniform"):
            build_mode_table(canonical_spec, canonical_packet, x, n_k=65)
    else:
        table = build_mode_table(canonical_spec, canonical_packet, x, n_k=65)
        k = table.k.copy()
        k[40] += 1e-9
        with pytest.raises(ValueError, match="k grid must be uniform"):
            replace(table, k=k)


def _small_table():
    spec = make_rectangular(1.0, 1.0, -2.0)
    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    x = np.arange(-30.0, 26.0 + 1e-9, 0.05)
    return build_mode_table(spec, packet, x, n_k=65, span_sigmas=5.75)


def test_density_rates_are_the_time_derivative_of_the_density():
    """The exact rates 2 Re(conj(psi) d psi/d t) that the continuity check
    uses equal a centred time difference of |psi|^2 for every component,
    up to that difference's O(h^2) error (max rate about 0.1)."""
    table = _small_table()
    times = np.array([0.0, 6.0, 12.0])
    _, rates, _ = packets._evaluate(packets.ModeTable.states_at, table,
                                    packets._phases(table.k, times), slice(None))
    errors = []
    for h in (1e-2, 1e-3):
        errors.append(max(
            np.max(np.abs(rates[:, i] - (np.abs(fields_at(table, t + h)[0]) ** 2
                                         - np.abs(fields_at(table, t - h)[0]) ** 2) / (2 * h)))
            for i, t in enumerate(times)))
    assert errors[1] < 1e-7, errors
    assert errors[0] / errors[1] > 90.0, errors


def test_diagnostics_series_holds_one_batch(canonical_table):
    """The series never holds the forms of all times at once: its times go
    in batches whose phases and spectra take about SPECTRA_BYTES, so its
    traced peak on the canonical table at 81 times stays below four
    complex (n_t, 2 n_k - 1) arrays of all the times (it reads 3.5)."""
    times = np.linspace(0.0, 80.0, 81)
    one = times.size * (2 * canonical_table.k.size - 1) * 16
    tracemalloc.start()
    try:
        diagnostics_series(canonical_table, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * one, (peak, one)


def test_diagnostics_series_makes_each_batch_phase_once(monkeypatch):
    """Each batch's (n_t, n_k) phases are made once and shared by the
    band's values, rates and derivatives and by the forms: batches of at
    most 3 of 7 times make three phase tables, not nine."""
    table = _small_table()
    per_time = 18 * 16 * (2 * table.k.size - 1)  # see _batch_size
    monkeypatch.setattr(packets, "SPECTRA_BYTES", 3 * per_time)
    made = []
    phases = packets._phases

    def counted(k, times):
        made.append(len(times))
        return phases(k, times)

    monkeypatch.setattr(packets, "_phases", counted)
    diagnostics_series(table, np.linspace(0.0, 12.0, 7))
    assert made == [3, 3, 1]


def test_synthesis_holds_one_narrow_window(canonical_spec, canonical_packet):
    """One-shot synthesis on the canonical oracle grid holds the modes'
    rows at the sampled points (5.8 MB), its three components at every
    time and the chirp z-transforms' FFT buffers, never a table of n_k by
    the grid: its traced peak reads 9.3 MB, against 10.4 MB for cos/sin
    tables on 512-point windows and 23.0 MB on 2048-point windows."""
    config = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
    cfg = parse_config(str(config))
    tracemalloc.start()
    try:
        synthesize(canonical_spec, canonical_packet, "full", [0.0, 40.0, 80.0],
                   cfg.oracle_grid.x(), n_k=cfg.n_k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_diagnostics_series_holds_no_whole_grid_table(canonical_table):
    """On the canonical table the series never holds cos(kx) or sin(kx)
    on every point outside the barrier: its traced peak stays below one
    such (n_k, n_outside) array of floats, half the exp(ikx) a whole-grid
    table held."""
    x, spec = canonical_table.x, canonical_table.spec
    n_outside = x.size - np.count_nonzero((x >= spec.a) & (x < spec.b))
    tracemalloc.start()
    try:
        diagnostics_series(canonical_table, [0.0, 40.0, 80.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < canonical_table.k.size * n_outside * 8, (peak, n_outside)


def test_states_do_not_depend_on_the_batch(monkeypatch):
    """`states` takes its times in batches (_batch_size); one time per
    batch gives the same fields and derivatives up to roundoff (3.3e-16
    apart against one batch of all 13 times)."""
    table = _small_table()
    times = np.linspace(0.0, 12.0, 13)
    want = [table.states(times, deriv) for deriv in (False, True)]
    monkeypatch.setattr(packets, "SPECTRA_BYTES", 1)  # one time per batch
    for deriv in (False, True):
        np.testing.assert_allclose(table.states(times, deriv), want[deriv], rtol=0, atol=1e-14)


def test_diagnostics_series_does_not_depend_on_the_batch(monkeypatch):
    table = _small_table()
    times = np.linspace(0.0, 12.0, 13)
    want = diagnostics_series(table, times)
    monkeypatch.setattr(packets, "SPECTRA_BYTES", 1)  # one time per batch
    got = diagnostics_series(table, times)
    for name in vars(want):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("deriv", [False, True], ids=["values", "derivatives"])
@pytest.mark.parametrize("grid", ["oracle", "evolve"])
def test_states_match_the_dense_sum(canonical_spec, canonical_packet, grid, deriv):
    """At every point outside the barrier of the canonical oracle grid and
    of evolve's stride-4 grid (the sampled rows' exterior points and the
    chirp z-transforms' points on both sides, which meet at two seams),
    the fields and their x derivatives at t = 0, 40 and 80 are the direct
    sum of the plane waves (7.7e-15 apart at most, peak |psi| 0.28)."""
    config = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
    cfg = parse_config(str(config))
    x = (cfg.oracle_grid.x() if grid == "oracle"
         else default_x_grid(canonical_spec, canonical_packet)[::4])
    table = build_mode_table(canonical_spec, canonical_packet, x, n_k=cfg.n_k)
    times = [0.0, 40.0, 80.0]
    outside = np.flatnonzero((x < canonical_spec.a) | (x >= canonical_spec.b))
    lo, hi = table._sampled.start, table._sampled.stop
    seams = np.r_[lo - 2:lo + 2, hi - 2:hi + 2]
    assert np.isin(seams, outside).all() and 0 < lo < hi < x.size
    want = dense_exterior_states(table, times, deriv, outside)
    np.testing.assert_allclose(table.states(times, deriv)[..., outside], want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("edge", ["first", "left-seam", "inside-barrier", "cut-minus-2", "i-left",
                                  "i-cut", "cut-plus-2", "right-seam", "last"])
def test_states_match_per_mode_rows_near(edge):
    """Fields and x derivatives at four points about each seam between the
    sampled rows and the chirp z-transforms, at each end of the grid, inside
    the barrier and about the cut, within two points of it, at the last
    point left of it or right after it, are the per-mode rows' up to
    roundoff."""
    table = _small_table()
    x, spec = table.x, table.spec
    i_a, i_b = np.searchsorted(x, (spec.a, spec.b))
    i_cut = int(np.searchsorted(x, spec.x_c, side="right"))
    i_left = int(np.searchsorted(x, spec.x_c, side="left")) - 1
    assert (i_a, i_b, i_cut, i_left, x.size) == (560, 580, 570, 569, 1121)
    at = {"first": 2, "left-seam": table._sampled.start, "inside-barrier": (i_a + i_b) // 2,
          "cut-minus-2": i_cut - 2, "i-left": i_left, "i-cut": i_cut, "cut-plus-2": i_cut + 2,
          "right-seam": table._sampled.stop, "last": x.size - 2}[edge]
    points = slice(at - 2, at + 2)
    times = np.linspace(0.0, 12.0, 7)
    want = per_mode_fields(spec, table.packet, x[points], times, table.k.size, 5.75)
    for deriv in (False, True):
        np.testing.assert_allclose(table.states(times, deriv)[..., points], want[int(deriv)],
                                   rtol=0, atol=1e-13)


class TestAgainstPerModeRows:
    """Coefficient fields against the per-mode row algorithm, on a
    3-segment barrier whose middle segment takes the pair form at the
    central mode and a grid holding a, b and x_c."""

    PACKET = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    N_K, SPAN = 65, 5.75
    TIMES = [0.0, 6.0, 12.0]
    X = np.arange(-30.0, 26.0 + 1e-9, 0.0625)

    @classmethod
    def spec(cls):
        k_mid = float(spectral_grid(cls.PACKET, cls.N_K, cls.SPAN)[0][cls.N_K // 2])
        return make_piecewise(-2.0, [(0.5, 1.0), (1.0, 0.5 * k_mid * k_mid), (0.5, 1.0)])

    def test_setup_covers_pair_form_and_edges(self):
        spec = self.spec()
        k_mid = spectral_grid(self.PACKET, self.N_K, self.SPAN)[0][self.N_K // 2]
        dec = build_decomposition(spec, EnergyMode.from_k(float(k_mid)))
        assert stationary.PAIR in dec.full_state.kind[0]
        assert np.all(np.isin([spec.a, spec.x_c, spec.b], self.X))

    def test_fields_at_matches(self):
        spec = self.spec()
        table = build_mode_table(spec, self.PACKET, self.X, n_k=self.N_K, span_sigmas=self.SPAN)
        want = per_mode_fields(spec, self.PACKET, self.X, self.TIMES, self.N_K, self.SPAN)
        for i, t in enumerate(self.TIMES):
            # values and derivatives of full, tr and ref
            np.testing.assert_allclose(fields_at(table, t), want[:, :, i], rtol=0, atol=1e-13)

    def test_synthesize_matches(self):
        spec = self.spec()
        want = per_mode_fields(spec, self.PACKET, self.X, self.TIMES, self.N_K, self.SPAN)
        for c, name in enumerate(("full", "tr", "ref")):
            got = synthesize(spec, self.PACKET, name, self.TIMES, self.X,
                             n_k=self.N_K, span_sigmas=self.SPAN)
            for i, fld in enumerate(got):
                np.testing.assert_allclose(fld.values, want[0, c, i], rtol=0, atol=1e-13)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(min_value=0.2, max_value=1.5),
                          st.floats(min_value=0.0, max_value=2.0)),
                min_size=1, max_size=3))
def test_pipeline_identity_and_sum_rule_on_random_symmetric_barriers(canonical_packet, half):
    """tr + ref = full and T + R + 2 Re<tr|ref> = total at every time,
    through the mode table, its fields and the diagnostics series, on
    mirrored barriers of 1-3 segments a side under the canonical packet;
    tr and ref each obey continuity there too (the worst residual seen
    over 40 such barriers on this grid was 6.8e-6), on the band around the
    barrier that the series reads and on the whole grid; and the series'
    integrals are the pointwise ones."""
    spec = make_piecewise(-9.0, half + half[::-1])
    times = np.linspace(0.0, 80.0, 9)
    table = build_mode_table(spec, canonical_packet, np.arange(-160.0, 150.0, 0.1), n_k=65)
    full, tr, ref = table.states(times)
    assert np.max(np.abs(tr + ref - full)) < PACKET_IDENTITY
    s = diagnostics_series(table, times)
    assert np.max(np.abs(s.T + s.R + 2.0 * s.overlap.real - s.total)) < PACKET_IDENTITY
    assert np.max(s.continuity) < 1e-4
    kept = packets._continuity_window(table.x, table.x_c)
    assert np.max(continuity_profile(table, times)[1:, :, kept]) < 1e-4
    _assert_integrals_match_pointwise(s, table, times)


def test_table_without_a_point_inside_the_barrier(monkeypatch):
    """A grid with no point in [a, b): `inner` holds only the BAND + 2
    sampled points on each side. The table's grid does not change what is
    checked: the decomposition bounds its residuals at every x of [a, b]
    from the coefficients, so they are at least the residuals sampled on
    2001 points there. The series keeps the sum rule and the identity."""
    decs = []
    decompose = packets.decompose_block
    monkeypatch.setattr(packets, "decompose_block",
                        lambda problems: decs.append(decompose(problems)) or decs[-1])
    spec = make_rectangular(1.0, 0.01, -2.0)
    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    x = np.arange(-30.0, 26.0 + 1e-9, 0.0503)  # -2.0332 and -1.9829 flank [-2, -1.99)
    table = build_mode_table(spec, packet, x, n_k=65, span_sigmas=5.75)
    assert table._inside.start == table._inside.stop
    (dec,) = decs
    identity, parity, _ = sampled_checks(dec, 2001)
    assert np.all(dec.identity_residual >= identity - 4e-15)
    assert np.all(dec.parity_residual >= parity - 4e-15)
    assert table.inner.shape == (2, 3, 65, 2 * (packets.BAND + 2))
    s = diagnostics_series(table, np.linspace(0.0, 12.0, 5))
    assert np.max(np.abs(s.T + s.R + 2.0 * s.overlap.real - s.total)) < PACKET_IDENTITY
    assert np.max(s.identity_residual) < PACKET_IDENTITY
