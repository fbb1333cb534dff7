import math
import tracemalloc
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
from tunnelsplit.tolerances import NORM_DRIFT, PACKET_IDENTITY, SPECTRUM_NORM

from _oracles import cut_flux_integral, free_gaussian, per_mode_fields


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
        canonical table's at the same points."""
        far = canonical_table.x < -60.0
        table = build_mode_table(canonical_spec, canonical_packet, canonical_table.x[far])
        for t in (0.0, 60.0):
            # values and derivatives of full, tr and ref
            np.testing.assert_allclose(fields_at(table, t), fields_at(canonical_table, t)[..., far],
                                       rtol=0, atol=1e-15)

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
        assert abs(canonical_series.ref_cut_flux[-1]) < 1e-3

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
    """The batched series equals trapezoid integrals of each time's fields_at
    arrays, and continuity_residual per time, column by column; a batch that
    mixed up times or components would not."""
    spec = make_rectangular(1.0, 1.0, -2.0)
    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    x = np.arange(-30.0, 26.0 + 1e-9, 0.05)
    table = build_mode_table(spec, packet, x, n_k=65, span_sigmas=5.75)
    times = np.array([0.0, 3.0, 6.0, 9.0, 12.0])
    series = diagnostics_series(table, times)
    i_left = int(np.searchsorted(x, table.x_c, side="left")) - 1
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
        want["continuity"] = max(continuity_residual(table, c, t) for c in ("tr", "ref"))
        want["ref_cut_flux"] = np.imag(np.conj(ref) * dref)[i_left]
        want["identity_residual"] = np.max(np.abs(tr + ref - full))
        for name, value in want.items():
            got = getattr(series, name)[i]
            assert abs(got - value) <= 1e-12, (name, t, got, value)


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
    _, rates, _ = packets._evaluate(table, times, slice(None))
    errors = []
    for h in (1e-2, 1e-3):
        errors.append(max(
            np.max(np.abs(rates[:, i] - (np.abs(fields_at(table, t + h)[0]) ** 2
                                         - np.abs(fields_at(table, t - h)[0]) ** 2) / (2 * h)))
            for i, t in enumerate(times)))
    assert errors[1] < 1e-7, errors
    assert errors[0] / errors[1] > 90.0, errors


def test_diagnostics_series_holds_one_batch(monkeypatch):
    """Every batch of every window is evaluated into the same stacks, and
    a batch's temporaries are released before the next batch is made, so
    the traced peak over three windows of three batches each stays below
    four (3, n_t, n_x) evaluations of one batch in one window plus one
    real product against the window's cos/sin table."""
    monkeypatch.setattr(packets, "X_CHUNK", 461)
    table = _small_table()
    width = packets.X_CHUNK + 4  # the window and its continuity halo
    batch = packets._times_per_batch(width)
    times = np.linspace(0.0, 12.0, 3 * batch)
    stack = 3 * batch * width * 16
    product = 2 * 2 * batch * width * 8
    tracemalloc.start()
    try:
        diagnostics_series(table, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (4 * stack + product), (peak, stack, product)


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


def test_diagnostics_series_does_not_depend_on_the_batch(monkeypatch):
    table = _small_table()
    times = np.linspace(0.0, 12.0, 13)
    want = diagnostics_series(table, times)
    monkeypatch.setattr(packets, "_times_per_batch", lambda n_k: 1)
    got = diagnostics_series(table, times)
    for name in vars(want):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("edge", ["inside-barrier", "cut-minus-2", "i-left", "i-cut",
                                  "cut-plus-2", "odd-7", "odd-461"])
def test_the_window_does_not_matter(monkeypatch, edge):
    """Windows whose edges fall inside the barrier, within two points of
    the cut, at the last point left of it (where ref_cut_flux is read) or
    right after it, and windows of 7 points (some wholly inside the
    barrier, narrower than the continuity stencil) give the single
    window's series, fields and continuity residuals up to roundoff."""
    table = _small_table()
    x, spec = table.x, table.spec
    i_a, i_b = np.searchsorted(x, (spec.a, spec.b))
    i_cut = int(np.searchsorted(x, spec.x_c, side="right"))
    i_left = int(np.searchsorted(x, spec.x_c, side="left")) - 1
    assert (i_a, i_b, i_cut, i_left, x.size) == (560, 580, 570, 569, 1121)
    chunk = {"inside-barrier": (i_a + i_b) // 2, "cut-minus-2": i_cut - 2, "i-left": i_left,
             "i-cut": i_cut, "cut-plus-2": i_cut + 2, "odd-7": 7, "odd-461": 461}[edge]
    assert packets.X_CHUNK >= x.size
    times = np.linspace(0.0, 12.0, 7)
    want = diagnostics_series(table, times)
    want_states, want_fields = table.states(times), fields_at(table, 6.0)
    want_continuity = [continuity_residual(table, c, 6.0) for c in ("full", "tr", "ref")]

    monkeypatch.setattr(packets, "X_CHUNK", chunk)
    got = diagnostics_series(table, times)
    for name in vars(want):
        g, w = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(g - w) <= 1e-14 * np.maximum(1.0, np.abs(w))), (name, g - w)
    np.testing.assert_allclose(table.states(times), want_states, rtol=0, atol=1e-13)
    np.testing.assert_allclose(fields_at(table, 6.0), want_fields, rtol=0, atol=1e-13)
    for c, value in zip(("full", "tr", "ref"), want_continuity):
        assert abs(continuity_residual(table, c, 6.0) - value) <= 1e-14 * max(1.0, value)


def test_window_build_holds_one_table(monkeypatch):
    """A window writes its cos(kx) and sin(kx) in place, by angle
    addition, so building it holds little beyond that table itself; a
    temporary of its size would double the traced peak."""
    monkeypatch.setattr(packets, "X_CHUNK", 461)
    table = _small_table()
    tracemalloc.start()
    try:
        _, _, part = next(packets.windows(table))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * part.waves.nbytes, (peak, part.waves.nbytes)


@pytest.mark.parametrize("n_k", [65, 513, 1025])
def test_plane_waves_match_cos_sin_of_kx(canonical_spec, canonical_packet, n_k):
    """Angle addition against cos and sin of the rounded products k x, on
    the canonical table grid and the first window of the oracle-check
    grid; 65 modes leave a block of two rows before the last block."""
    k, _ = spectral_grid(canonical_packet, n_k)
    config = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"
    oracle_x = parse_config(str(config)).oracle_grid.x()
    for x in (default_x_grid(canonical_spec, canonical_packet), oracle_x[:packets.X_CHUNK]):
        waves = packets._plane_waves(k, x)
        kx = np.multiply.outer(k, x)
        for j in range(n_k):  # a row at a time, so no second table is held
            np.testing.assert_allclose(waves[:, j], (np.cos(kx[j]), np.sin(kx[j])),
                                       rtol=0, atol=1e-13, err_msg=f"mode {j}")


def test_plane_waves_reject_a_nonuniform_k(canonical_packet):
    k, _ = spectral_grid(canonical_packet, 65)
    k[40] += 1e-9
    with pytest.raises(ValueError, match="uniform"):
        packets._plane_waves(k, np.linspace(-10.0, 10.0, 11))


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
        dec = build_decomposition(spec, EnergyMode.from_k(float(k_mid)), self.X)
        assert stationary.PAIR in dec.full_state.kind[0]
        assert np.all(np.isin([spec.a, spec.x_c, spec.b], self.X))

    def test_fields_at_matches(self):
        spec = self.spec()
        table = build_mode_table(spec, self.PACKET, self.X, n_k=self.N_K, span_sigmas=self.SPAN)
        want = per_mode_fields(spec, self.PACKET, self.X, self.TIMES, self.N_K, self.SPAN)
        for i, t in enumerate(self.TIMES):
            # values and derivatives of full, tr and ref
            np.testing.assert_allclose(fields_at(table, t), want[:, :, i], rtol=0, atol=1e-13)

    def test_synthesize_matches(self, monkeypatch):
        # a block boundary inside the barrier, which spans grid points 448-480
        monkeypatch.setattr(packets, "X_CHUNK", 460)
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
    over 40 such barriers on this grid was 6.8e-6)."""
    spec = make_piecewise(-9.0, half + half[::-1])
    times = np.linspace(0.0, 80.0, 9)
    table = build_mode_table(spec, canonical_packet, np.arange(-160.0, 150.0, 0.1), n_k=65)
    full, tr, ref = table.states(times)
    assert np.max(np.abs(tr + ref - full)) < PACKET_IDENTITY
    s = diagnostics_series(table, times)
    assert np.max(np.abs(s.T + s.R + 2.0 * s.overlap.real - s.total)) < PACKET_IDENTITY
    assert np.max(s.continuity) < 1e-4


def test_table_without_a_point_inside_the_barrier():
    """A grid with no point in [a, b) gives an empty `inner` and an empty
    decomposition grid: the parity probe falls back to a span of 1 and the
    identity check reduces nothing, while the plane-wave pairs are still
    checked. The series keeps the sum rule and the identity."""
    spec = make_rectangular(1.0, 0.01, -2.0)
    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    x = np.arange(-30.0, 26.0 + 1e-9, 0.0503)  # -2.0332 and -1.9829 flank [-2, -1.99)
    table = build_mode_table(spec, packet, x, n_k=65, span_sigmas=5.75)
    assert table.inner.shape == (2, 3, 65, 0)
    s = diagnostics_series(table, np.linspace(0.0, 12.0, 5))
    assert np.max(np.abs(s.T + s.R + 2.0 * s.overlap.real - s.total)) < PACKET_IDENTITY
    assert np.max(s.identity_residual) < PACKET_IDENTITY
