import math

import numpy as np
import pytest

from tunnelsplit import clocks
from tunnelsplit.clocks import (
    ClockConfig,
    LarmorReading,
    clock_block,
    compute_clock,
    dwell_time,
    larmor_packet_readout,
    larmor_times,
    make_centered_rectangular,
    probe_noninvasiveness,
    sweep_barrier_width,
    zeeman_shifted,
)
from tunnelsplit.errors import ExtrapolationDiverged, GridTooCoarse, PrematureReadout, ZeroFlux
from tunnelsplit.packets import PacketSpec, build_mode_table, diagnostics_series
from tunnelsplit.potential import make_rectangular
from tunnelsplit.splitting import build_decomposition
from tunnelsplit.stationary import EnergyMode, ProblemBlock

CANONICAL = make_rectangular(1.0, 2.0, -9.0)
MODE = EnergyMode(0.5)


def canonical_decomposition():
    return build_decomposition(CANONICAL, MODE, np.linspace(-10.0, -6.0, 65))


class TestClockConfig:
    def test_requires_descending_positive(self):
        with pytest.raises(ValueError):
            ClockConfig(omegas=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            ClockConfig(omegas=(1e-2, -1e-3))
        with pytest.raises(ValueError):
            ClockConfig(omegas=())

    def test_for_energy(self):
        cfg = ClockConfig.for_energy(0.5)
        assert cfg.omegas == (5e-3, 5e-4, 5e-5)

    def test_field_must_be_infinitesimal(self):
        cfg = ClockConfig(omegas=(0.1,))
        with pytest.raises(ValueError):
            cfg.validate_block(ProblemBlock.of(CANONICAL, MODE.E))


class TestZeemanShift:
    def test_preserves_geometry_and_symmetry(self):
        shifted = zeeman_shifted(CANONICAL, -0.25)
        assert shifted.a == CANONICAL.a and shifted.b == CANONICAL.b
        assert shifted.symmetric
        assert shifted.heights()[0] == 0.75


class TestDwellTime:
    def test_free_flight(self):
        for L, k in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0)]:
            spec = make_rectangular(0.0, L, 0.0)
            dec = build_decomposition(spec, EnergyMode.from_k(k),
                                      np.linspace(-1.0, L + 1.0, 33))
            assert dwell_time(dec, "tr") == pytest.approx(L / k, rel=1e-12)

    def test_free_reflection_channel_absent(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        dec = build_decomposition(spec, MODE, np.linspace(-1.0, 3.0, 33))
        with pytest.raises(ZeroFlux):
            dwell_time(dec, "ref")

    def test_refined_quadrature_agrees(self):
        dec = canonical_decomposition()
        coarse = dwell_time(dec, "tr", n_quad=2049)
        fine = dwell_time(dec, "tr", n_quad=20_481)
        assert coarse == pytest.approx(fine, rel=1e-6)
        coarse_ref = dwell_time(dec, "ref", n_quad=2049)
        fine_ref = dwell_time(dec, "ref", n_quad=20_481)
        assert coarse_ref == pytest.approx(fine_ref, rel=1e-6)

    def test_positive_for_both_channels(self):
        dec = canonical_decomposition()
        assert dwell_time(dec, "tr") > 0
        assert dwell_time(dec, "ref") > 0

    def test_unknown_subprocess(self):
        with pytest.raises(ValueError):
            dwell_time(canonical_decomposition(), "sideways")


class TestLarmorTimes:
    def test_free_flight_identity(self):
        """Precession and dwell agree with length/speed for free flight."""
        for L, k in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0), (0.7, 1.7), (5.0, 0.8)]:
            spec = make_rectangular(0.0, L, 0.0)
            mode = EnergyMode.from_k(k)
            cfg = ClockConfig.for_energy(mode.E)
            reading = larmor_times(spec, mode, cfg, "tr")
            assert reading.extrapolated == pytest.approx(L / k, rel=1e-6)
            dec = build_decomposition(spec, mode, np.linspace(-1.0, L + 1.0, 33))
            assert dwell_time(dec, "tr") == pytest.approx(L / k, rel=1e-6)

    def test_residuals_decrease_with_field(self):
        cfg = ClockConfig.for_energy(MODE.E)
        for sub in ("tr", "ref"):
            reading = larmor_times(CANONICAL, MODE, cfg, sub)
            r = reading.residuals
            assert r[0] > r[1] > r[2]

    def test_sub_process_readings_match_on_symmetric_barrier(self):
        cfg = ClockConfig.for_energy(MODE.E)
        tr = larmor_times(CANONICAL, MODE, cfg, "tr").extrapolated
        ref = larmor_times(CANONICAL, MODE, cfg, "ref").extrapolated
        assert tr == pytest.approx(ref, rel=1e-8)

    def test_relation_to_dwell_reported(self, capsys):
        """The precession reading need not reproduce the dwell time; the
        gap is reported, never asserted."""
        cfg = ClockConfig.for_energy(MODE.E)
        tau_l = larmor_times(CANONICAL, MODE, cfg, "tr").extrapolated
        tau_d = dwell_time(canonical_decomposition(), "tr")
        gap = abs(tau_l - tau_d) / tau_d
        print(f"\ncanonical larmor-vs-dwell relative gap: {gap:.3f} "
              f"(larmor {tau_l:.4f}, dwell {tau_d:.4f})")
        assert tau_l > 0 and tau_d > 0

    def test_diverging_extrapolation_rejected(self):
        with pytest.raises(ExtrapolationDiverged):
            LarmorReading(
                subprocess="tr",
                omegas=np.array([1e-2, 1e-3, 1e-4]),
                raw_times=np.array([1.0, 1.5, 3.0]),
                extrapolated=1.0,
                residuals=np.array([0.0, 0.5, 2.0]),
                out_of_plane=np.zeros(3),
            )

    def test_overflowing_frequencies_read_as_diverged(self):
        """At E = 1e300 the squares of the Larmor frequencies overflow in the
        zero-field extrapolation: the reading raises ExtrapolationDiverged,
        and no RuntimeWarning escapes (the suite makes those errors)."""
        mode = EnergyMode(1e300)
        with pytest.raises(ExtrapolationDiverged):
            larmor_times(CANONICAL, mode, ClockConfig.for_energy(mode.E), "tr")


class TestNonInvasiveness:
    def test_quadratic_departure(self):
        cfg = ClockConfig.for_energy(MODE.E)
        exponent = probe_noninvasiveness(CANONICAL, MODE, cfg)
        assert exponent >= 1.9

    def test_free_particle_departure_also_quadratic(self):
        # the +/- omega/2 wells reflect at O(omega^2); still non-invasive
        spec = make_rectangular(0.0, 2.0, 0.0)
        cfg = ClockConfig.for_energy(MODE.E)
        assert probe_noninvasiveness(spec, MODE, cfg) >= 1.9


class TestComputeClock:
    def test_canonical_summary(self):
        cfg = ClockConfig.for_energy(MODE.E)
        res = compute_clock(CANONICAL, MODE, cfg)
        assert res.tau_dwell_tr > 0 and res.tau_dwell_ref > 0
        assert res.tau_larmor_tr > 0
        assert res.omega_min == pytest.approx(5e-5)
        assert res.residual < 1e-8

    def test_free_reflection_marked_absent(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        mode = EnergyMode(0.5)
        res = compute_clock(spec, mode, ClockConfig.for_energy(mode.E))
        assert math.isnan(res.tau_dwell_ref)
        assert res.larmor_ref is None
        assert math.isnan(res.tau_larmor_ref)


class TestSweep:
    def test_dwell_grows_with_width(self):
        results = sweep_barrier_width(1.0, 0.5, [2.0, 4.0, 6.0])
        taus = [r.tau_dwell_tr for r in results]
        assert taus[0] < taus[1] < taus[2]
        lengths = [r.barrier_length for r in results]
        assert lengths == pytest.approx([2.0, 4.0, 6.0])

    def test_rejects_non_tunneling_ratio(self):
        with pytest.raises(ValueError):
            sweep_barrier_width(1.0, 1.5, [2.0])

    def test_centered_helper(self):
        spec = make_centered_rectangular(2.0, 3.0)
        assert spec.x_c == 0.0 and spec.a == -1.5


def _clock_fields(res):
    """Every number a ClockResult carries, for bitwise comparison."""
    readings = [r for r in (res.larmor_tr, res.larmor_ref) if r is not None]
    return [res.E, res.barrier_length, res.tau_dwell_tr, res.tau_dwell_ref, res.omega_min,
            res.residual, len(readings)] + [
        np.concatenate(([r.extrapolated], r.raw_times, r.residuals, r.out_of_plane))
        for r in readings]


def _same_clocks(a, b) -> bool:
    return all(np.array_equal(u, v, equal_nan=True)
               for u, v in zip(_clock_fields(a), _clock_fields(b)))


class TestOnePath:
    KAPPA_LS = np.linspace(1.0, 14.0, 20)

    def test_compute_clock_is_its_sweep_row(self):
        rows = sweep_barrier_width(1.0, 0.5, self.KAPPA_LS)
        for i in (0, 7, 19):
            spec = make_centered_rectangular(1.0, self.KAPPA_LS[i])  # kappa = 1
            one = compute_clock(spec, EnergyMode(0.5), ClockConfig.for_energy(0.5))
            assert _same_clocks(one, rows[i])

    def test_sweep_rows_do_not_depend_on_the_block_size(self, monkeypatch):
        runs = []
        for size in (1, 7, 64):
            monkeypatch.setattr(clocks, "SWEEP_BLOCK", size)
            runs.append(sweep_barrier_width(1.0, 0.5, self.KAPPA_LS))
        for rows in runs[1:]:
            assert all(_same_clocks(a, b) for a, b in zip(runs[0], rows))

    def test_absent_reflection_marks_its_row_only(self):
        specs = [make_centered_rectangular(1.0, 2.0), make_centered_rectangular(0.0, 2.0),
                 make_centered_rectangular(1.0, 3.0)]
        rows = clock_block(ProblemBlock.of(specs, 0.5), ClockConfig.for_energy(0.5))
        assert [math.isnan(r.tau_dwell_ref) for r in rows] == [False, True, False]
        assert [r.larmor_ref is None for r in rows] == [False, True, False]
        for spec, row in zip(specs, rows):
            assert _same_clocks(compute_clock(spec, EnergyMode(0.5), ClockConfig.for_energy(0.5)),
                                row)


class TestPacketReadout:
    def test_premature_readout(self):
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-60.0)
        cfg = ClockConfig.for_energy(0.5)
        with pytest.raises(PrematureReadout):
            larmor_packet_readout(CANONICAL, packet, cfg, "tr", t=0.0, n_k=129)

    def test_coarse_grid_fails_as_norms_do(self):
        # the readout's sub-packet weights are the diagnostics series' norms,
        # with its quadrature error estimate
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-60.0)
        x = CANONICAL.x_c + 1.6 * np.arange(-87, 88)
        with pytest.raises(GridTooCoarse, match="quadrature error"):
            diagnostics_series(build_mode_table(CANONICAL, packet, x, n_k=129), [80.0])
        with pytest.raises(GridTooCoarse, match="quadrature error"):
            larmor_packet_readout(CANONICAL, packet, ClockConfig.for_energy(0.5), "tr",
                                  t=80.0, x_grid=x, n_k=129)

    def test_free_flight_reading(self):
        spec = make_rectangular(0.0, 2.0, -1.0)
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-52.0)
        cfg = ClockConfig.for_energy(0.5)
        reading = larmor_packet_readout(spec, packet, cfg, "tr", t=80.0, n_k=257)
        assert reading.extrapolated == pytest.approx(2.0, rel=1e-2)

    def test_canonical_matches_spectral_average(self, canonical_table):
        """Packet reading vs the transmission-weighted average of the
        stationary readings, within the 5 percent contract."""
        packet = canonical_table.packet
        cfg = ClockConfig.for_energy(0.5)
        reading = larmor_packet_readout(CANONICAL, packet, cfg, "tr", t=80.0, n_k=257)
        taus = np.empty(canonical_table.k.size)
        for i, k in enumerate(canonical_table.k):
            mode_k = EnergyMode.from_k(float(k))
            taus[i] = larmor_times(CANONICAL, mode_k,
                                   ClockConfig.for_energy(mode_k.E), "tr").extrapolated
        w = (canonical_table.weights * np.abs(canonical_table.f_k) ** 2
             * np.abs(canonical_table.A_T) ** 2)
        want = float(np.sum(w * taus) / np.sum(w))
        assert reading.extrapolated == pytest.approx(want, rel=0.05)
