import math
import tracemalloc

import numpy as np
import pytest

from tunnelsplit import clocks
from tunnelsplit.clocks import (
    LarmorReading,
    clock_block,
    compute_clock,
    dwell_time,
    larmor_packet_readout,
    larmor_times,
    probe_noninvasiveness,
    sweep_barrier_width,
    zeeman_shifted,
)
from tunnelsplit.errors import ExtrapolationDiverged, GridTooCoarse, PrematureReadout, ZeroFlux
from tunnelsplit.packets import PacketSpec, build_mode_table, diagnostics_series
from tunnelsplit.potential import PotentialSpec, make_rectangular
from tunnelsplit.splitting import build_decomposition, decompose_block
from tunnelsplit.stationary import EVAN, OSC, PAIR, EnergyMode, ProblemBlock, sample_states
from tunnelsplit.tolerances import OMEGA_FRACTION, ZERO_FLUX

from _oracles import simpson_density_sum

CANONICAL = make_rectangular(1.0, 2.0, -9.0)
MODE = EnergyMode(0.5)


def canonical_decomposition():
    return build_decomposition(CANONICAL, MODE, np.linspace(-10.0, -6.0, 65))


def _centered(v0, length):
    """A rectangular barrier centred at the origin, as the width sweep
    builds them."""
    return make_rectangular(v0, length, -0.5 * length)


class TestCheckFactors:
    """Checks of the fixed Larmor factor ladder LARMOR_FACTORS."""

    def test_requires_descending_positive(self):
        factors = np.array(clocks.LARMOR_FACTORS)
        assert factors.size > 0
        assert np.all(np.isfinite(factors))
        assert np.all(factors > 0) and np.all(np.diff(factors) < 0)

    def test_field_must_be_infinitesimal(self):
        # inclusive: the ladder tops out at exactly OMEGA_FRACTION
        assert clocks.LARMOR_FACTORS[0] <= OMEGA_FRACTION
        omegas = clock_block(ProblemBlock.of(CANONICAL, [0.5])).larmor_tr.omegas
        assert np.all(omegas <= OMEGA_FRACTION * 0.5)


class TestLarmorFactors:
    def test_omegas_are_fractions_of_each_row_energy(self):
        res = clock_block(ProblemBlock.of(CANONICAL, [0.5, 0.25]))
        np.testing.assert_array_equal(res.larmor_tr.omegas,
                                      [[5e-3, 5e-4, 5e-5], [2.5e-3, 2.5e-4, 2.5e-5]])


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
        """The dwell times against the sampled Simpson sums on 20481 nodes
        (canonical: 3.6e-12 relative for tr, 1.5e-11 for ref)."""
        dec = canonical_decomposition()
        for subprocess in ("tr", "ref"):
            fine, _ = _sampled_dwell(dec, subprocess, 20_481)
            assert dwell_time(dec, subprocess) == pytest.approx(fine[0], rel=1e-10)

    def test_positive_for_both_channels(self):
        dec = canonical_decomposition()
        assert dwell_time(dec, "tr") > 0
        assert dwell_time(dec, "ref") > 0

    def test_unknown_subprocess(self):
        with pytest.raises(ValueError):
            dwell_time(canonical_decomposition(), "sideways")


def _symmetric(a, heights, width=1.0):
    return PotentialSpec(a=a, segments=tuple((width, h) for h in heights))


def _sampled_dwell(dec, subprocess, n=clocks.DWELL_NODES):
    """Dwell times of a decomposition block from sampled Simpson sums on n
    nodes (odd), as _dwell_block places its nodes, with its channel
    weights."""
    P = dec.problems
    if subprocess == "tr":
        half = (n - 1) // 2 + 1
        number = (simpson_density_sum(dec.tr_state, P.a, P.x_c, half)
                  + simpson_density_sum(dec.full_state, P.x_c, P.b, half))
        weight = np.abs(dec.A_T) ** 2
    else:
        number = simpson_density_sum(dec.ref_state, P.a, P.x_c, n)
        weight = np.abs(dec.A_R) ** 2
    return number / (P.k * weight), weight


# (block, node count of the direct sums, piece kinds the block's states must hold)
_DWELL_CASES = {
    # E at the middle height: a PAIR middle between EVAN or OSC wings
    "middle-height": (ProblemBlock.of([_symmetric(-1.5, (1.0, 0.5, 1.0)),
                                       _symmetric(-1.5, (0.3, 0.5, 0.3))], 0.5),
                      2049, {PAIR, OSC, EVAN}),
    # one barrier, a different kind per row in each piece column; the PAIR
    # rows off the middle height have |q2| w^2 = 8e-11, just inside PAIR
    "kinds-per-row": (ProblemBlock.of(_symmetric(-1.5, (1.0, 0.5, 1.0)),
                                      [0.5, 0.3, 0.7, 1.2, 0.5 + 4e-11, 0.5 - 4e-11]),
                      2049, {PAIR, OSC, EVAN}),
    # interfaces at -1, x_c = 0 and 1 are nodes of every grid, as are a and b
    "interfaces-on-nodes": (ProblemBlock.of(_symmetric(-2.0, (1.0, 0.6, 0.6, 1.0)),
                                            [0.6, 0.3, 0.8]), 2049, {PAIR, OSC, EVAN}),
    # node counts that give no Simpson rule: the closed form still sums
    # over linspace's nodes with simpson_weights' factors
    "even-n-quad": (ProblemBlock.of(_symmetric(-1.5, (1.0, 0.5, 1.0)), [0.5, 0.3, 0.7]),
                    2048, {PAIR, OSC, EVAN}),
    "n-quad-3": (ProblemBlock.of(_symmetric(-1.5, (1.0, 0.5, 1.0)), [0.5, 0.3, 0.7]),
                 3, {PAIR, OSC, EVAN}),
    # the ends of the benchmark sweep, kappa L = 1 and 14 at kappa = 1
    "sweep-ends": (ProblemBlock.of([_centered(1.0, 1.0), _centered(1.0, 14.0)], 0.5),
                   2049, {EVAN}),
}


class TestDwellSum:
    @pytest.mark.parametrize("case", list(_DWELL_CASES))
    def test_closed_form_is_the_sampled_simpson_sum(self, case):
        """Each sub-wave's sum on the case's node count, and the dwell
        times on their own nodes."""
        problems, n, kinds = _DWELL_CASES[case]
        dec = decompose_block(problems, np.linspace(problems.a - 1.0, problems.b + 1.0, 65,
                                                    axis=-1))
        assert kinds <= set(np.concatenate([s.kind.ravel() for s in
                                            (dec.full_state, dec.tr_state, dec.ref_state)]))
        P = dec.problems
        for state, lo, hi in ((dec.tr_state, P.a, P.x_c), (dec.full_state, P.x_c, P.b),
                              (dec.ref_state, P.a, P.x_c)):
            np.testing.assert_allclose(clocks._density_sum(state, lo, hi, n),
                                       simpson_density_sum(state, lo, hi, n), rtol=1e-12, atol=0)
        for subprocess in ("tr", "ref"):
            want, weight = _sampled_dwell(dec, subprocess)
            got = clocks._dwell_block(dec, weight, subprocess)
            present = weight >= ZERO_FLUX
            assert present.any()
            np.testing.assert_allclose(got[present], want[present], rtol=1e-12, atol=0)
            assert np.isnan(got[~present]).all()

    @pytest.mark.parametrize("case", list(_DWELL_CASES))
    def test_progression_kernel_is_the_sampled_sum(self, case):
        """The kernel's plain sums against |state|^2 sampled on every node
        and summed over the same nodes of each piece: all of them, every
        other one from either parity, the first and the last alone, and
        none."""
        problems, n, _ = _DWELL_CASES[case]
        dec = decompose_block(problems, np.linspace(problems.a - 1.0, problems.b + 1.0, 65,
                                                    axis=-1))
        P = dec.problems
        for state, lo, hi in ((dec.tr_state, P.a, P.x_c), (dec.full_state, P.x_c, P.b),
                              (dec.ref_state, P.a, P.x_c)):
            x = np.linspace(lo, hi, n, axis=-1)
            density = np.abs(sample_states(state, x)) ** 2
            start = np.count_nonzero(x[:, None, :] < state.xl[..., None], axis=-1)
            count = np.diff(start, axis=1, append=n)
            one = np.minimum(count, 1)
            # first node, count and stride of each progression in each piece
            first = np.stack([start, start, start + 1, start, start + count - 1, start], axis=-1)
            number = np.stack([count, (count + 1) // 2, count // 2, one, one, 0 * count], axis=-1)
            stride = np.broadcast_to([1, 2, 2, 1, 1, 1], first.shape)
            rows = np.arange(P.n)[:, None, None]
            last = first + stride * (number - 1)
            x0, x1 = (x[rows, np.clip(j, 0, n - 1)] for j in (first, last))
            step = ((hi - lo) / (n - 1))[:, None, None]
            got = clocks._progression_sums(state, x0, x1, stride * step, number)
            want = np.zeros(first.shape)
            for idx in np.ndindex(first.shape):
                nodes = first[idx] + stride[idx] * np.arange(number[idx])
                want[idx] = density[idx[0], nodes].sum()
            assert (number > 1).any() and (number == 1).any()
            # a node where a piece's terms cancel is exact only against the
            # row's scale: rtol of as many nodes at the row's mean density
            scale = np.maximum(want, number * density.mean(axis=1)[:, None, None])
            bad = np.abs(got - want) > 1e-12 * scale
            assert not bad.any(), (np.argwhere(bad), got[bad], want[bad])

    def test_interfaces_fall_on_nodes(self):
        """interfaces-on-nodes puts -1 and 1 on nodes of the half grids, and
        -1 on a node of the reflection grid; a, b and x_c are always nodes."""
        assert -1.0 in np.linspace(-2.0, 0.0, 1025) and 1.0 in np.linspace(0.0, 2.0, 1025)
        assert -1.0 in np.linspace(-2.0, 0.0, 2049)

    def test_cost_does_not_grow_with_n_quad(self):
        dec = canonical_decomposition()
        P = dec.problems
        tracemalloc.start()
        try:
            clocks._density_sum(dec.tr_state, P.a, P.x_c, 900_001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestLarmorTimes:
    def test_free_flight_identity(self):
        """Precession and dwell agree with length/speed for free flight."""
        for L, k in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0), (0.7, 1.7), (5.0, 0.8)]:
            spec = make_rectangular(0.0, L, 0.0)
            mode = EnergyMode.from_k(k)
            reading = larmor_times(spec, mode, "tr")
            assert reading.extrapolated[0] == pytest.approx(L / k, rel=1e-6)
            dec = build_decomposition(spec, mode, np.linspace(-1.0, L + 1.0, 33))
            assert dwell_time(dec, "tr") == pytest.approx(L / k, rel=1e-6)

    def test_residuals_decrease_with_field(self):
        for sub in ("tr", "ref"):
            reading = larmor_times(CANONICAL, MODE, sub)
            r = reading.residuals[0]
            assert r[0] > r[1] > r[2]

    def test_sub_process_readings_match_on_symmetric_barrier(self):
        tr = larmor_times(CANONICAL, MODE, "tr").extrapolated[0]
        ref = larmor_times(CANONICAL, MODE, "ref").extrapolated[0]
        assert tr == pytest.approx(ref, rel=1e-8)

    def test_relation_to_dwell_reported(self, capsys):
        """The precession reading need not reproduce the dwell time; the
        gap is reported, never asserted."""
        tau_l = larmor_times(CANONICAL, MODE, "tr").extrapolated[0]
        tau_d = dwell_time(canonical_decomposition(), "tr")
        gap = abs(tau_l - tau_d) / tau_d
        print(f"\ncanonical larmor-vs-dwell relative gap: {gap:.3f} "
              f"(larmor {tau_l:.4f}, dwell {tau_d:.4f})")
        assert tau_l > 0 and tau_d > 0

    def test_diverging_extrapolation_rejected(self):
        with pytest.raises(ExtrapolationDiverged):
            LarmorReading(
                omegas=np.array([[1e-2, 1e-3, 1e-4]]),
                raw_times=np.array([[1.0, 1.5, 3.0]]),
                extrapolated=np.array([1.0]),
                residuals=np.array([[0.0, 0.5, 2.0]]),
                out_of_plane=np.zeros((1, 3)),
                present=np.array([True]),
            )

    @staticmethod
    def _block(present):
        """Three rows; row 1 is anchored, but its residuals grow as the
        field shrinks."""
        raw = np.array([[2.0, 2.0, 2.0], [1.0, 0.0, 2.0], [4.0, 4.0, 4.0]])
        limit = np.array([2.0, 1.0, 4.0])
        return LarmorReading(omegas=np.tile([1e-2, 1e-3, 1e-4], (3, 1)), raw_times=raw,
                             extrapolated=limit, residuals=np.abs(raw - limit[:, None]),
                             out_of_plane=np.zeros((3, 3)), present=np.asarray(present))

    def test_a_diverging_row_raises_unless_absent(self):
        with pytest.raises(ExtrapolationDiverged, match="residuals grow"):
            self._block([True, True, True])
        reading = self._block([True, False, True])
        assert reading.extrapolated[[0, 2]].tolist() == [2.0, 4.0]
        for column in (reading.raw_times, reading.extrapolated, reading.residuals,
                       reading.out_of_plane):
            assert np.isnan(column[1]).all() and not np.isnan(column[[0, 2]]).any()

    def test_first_failing_row_gives_its_first_failing_check(self):
        """Row 1 is not finite (and fails no other check); row 2 is not
        anchored and its residuals grow: row 1 raises."""
        raw = np.array([[2.0, 2.0, 2.0], [1.0, np.nan, 1.0], [1.0, 2.0, 9.0]])
        limit = np.array([2.0, 1.0, 1.0])
        kwargs = dict(omegas=np.tile([1e-2, 1e-3, 1e-4], (3, 1)), raw_times=raw,
                      extrapolated=limit, residuals=np.abs(raw - limit[:, None]),
                      out_of_plane=np.zeros((3, 3)))
        with pytest.raises(ExtrapolationDiverged, match="not finite"):
            LarmorReading(present=np.array([True, True, True]), **kwargs)
        with pytest.raises(ExtrapolationDiverged, match="not anchored"):
            LarmorReading(present=np.array([True, False, True]), **kwargs)

    def test_overflowing_frequencies_read_as_diverged(self):
        """At E = 1e300 the squares of the Larmor frequencies overflow in the
        zero-field extrapolation: the reading raises ExtrapolationDiverged,
        and no RuntimeWarning escapes (the suite makes those errors)."""
        mode = EnergyMode(1e300)
        with pytest.raises(ExtrapolationDiverged):
            larmor_times(CANONICAL, mode, "tr")


class TestNonInvasiveness:
    def test_quadratic_departure(self):
        exponent = probe_noninvasiveness(CANONICAL, MODE)
        assert exponent >= 1.9

    def test_free_particle_departure_also_quadratic(self):
        # the +/- omega/2 wells reflect at O(omega^2); still non-invasive
        spec = make_rectangular(0.0, 2.0, 0.0)
        assert probe_noninvasiveness(spec, MODE) >= 1.9


class TestComputeClock:
    def test_canonical_summary(self):
        res = compute_clock(CANONICAL, MODE)
        assert res.E.shape == (1,)
        assert res.tau_dwell_tr[0] > 0 and res.tau_dwell_ref[0] > 0
        assert res.tau_larmor_tr[0] > 0
        assert res.omega_min[0] == pytest.approx(5e-5)
        assert res.residual[0] < 1e-8

    def test_free_reflection_marked_absent(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        mode = EnergyMode(0.5)
        res = compute_clock(spec, mode)
        assert math.isnan(res.tau_dwell_ref[0])
        assert not res.larmor_ref.present[0]
        assert np.isnan(res.larmor_ref.raw_times).all()
        assert math.isnan(res.tau_larmor_ref[0])
        assert res.residual[0] == res.larmor_tr.residuals[0, -1]


class TestSweep:
    def test_dwell_grows_with_width(self):
        results = sweep_barrier_width(1.0, 0.5, [2.0, 4.0, 6.0])
        taus = results.tau_dwell_tr
        assert taus[0] < taus[1] < taus[2]
        assert results.barrier_length == pytest.approx([2.0, 4.0, 6.0])

    def test_rejects_non_tunneling_ratio(self):
        with pytest.raises(ValueError):
            sweep_barrier_width(1.0, 1.5, [2.0])

    @pytest.mark.parametrize("v0", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_rejects_a_height_not_finite_and_positive(self, v0):
        with pytest.raises(ValueError, match="v0"):
            sweep_barrier_width(v0, 0.5, [1.0, 2.0])

    def test_sweep_barriers_are_centered(self, monkeypatch):
        blocks = []

        def record(problems):
            blocks.append(problems)
            return clock_block(problems)

        monkeypatch.setattr(clocks, "clock_block", record)
        sweep_barrier_width(2.0, 0.5, [2.0, 3.0])  # kappa = sqrt(2)
        (problems,) = blocks
        np.testing.assert_allclose(problems.b - problems.a, np.array([2.0, 3.0]) / math.sqrt(2))
        np.testing.assert_allclose(problems.x_c, 0.0, rtol=0, atol=1e-15)


def _clock_fields(res, i):
    """Every number row i of a ClockResult carries, for bitwise comparison."""
    return [res.E[i], res.barrier_length[i], res.tau_dwell_tr[i], res.tau_dwell_ref[i],
            res.omega_min[i], res.residual[i]] + [
        np.concatenate(([r.extrapolated[i], r.present[i]], r.omegas[i], r.raw_times[i],
                        r.residuals[i], r.out_of_plane[i]))
        for r in (res.larmor_tr, res.larmor_ref)]


def _same_clocks(a, i, b, j) -> bool:
    """Row i of a and row j of b hold the same numbers, bit for bit."""
    return all(np.array_equal(u, v, equal_nan=True)
               for u, v in zip(_clock_fields(a, i), _clock_fields(b, j)))


class TestOnePath:
    KAPPA_LS = np.linspace(1.0, 14.0, 20)

    def test_compute_clock_is_its_sweep_row(self):
        rows = sweep_barrier_width(1.0, 0.5, self.KAPPA_LS)
        for i in (0, 7, 19):
            spec = _centered(1.0, self.KAPPA_LS[i])  # kappa = 1
            one = compute_clock(spec, EnergyMode(0.5))
            assert _same_clocks(one, 0, rows, i)

    def test_sweep_rows_do_not_depend_on_the_block_size(self, monkeypatch):
        runs = []
        for size in (1, 7, 64):
            monkeypatch.setattr(clocks, "SWEEP_BLOCK", size)
            runs.append(sweep_barrier_width(1.0, 0.5, self.KAPPA_LS))
        for rows in runs[1:]:
            assert rows.E.shape == (self.KAPPA_LS.size,)
            assert all(_same_clocks(runs[0], i, rows, i) for i in range(self.KAPPA_LS.size))

    def test_absent_reflection_marks_its_row_only(self):
        specs = [_centered(1.0, 2.0), _centered(0.0, 2.0), _centered(1.0, 3.0)]
        rows = clock_block(ProblemBlock.of(specs, 0.5))
        assert np.isnan(rows.tau_dwell_ref).tolist() == [False, True, False]
        assert np.isnan(rows.tau_larmor_ref).tolist() == [False, True, False]
        assert rows.larmor_ref.present.tolist() == [True, False, True]
        for i, spec in enumerate(specs):
            assert _same_clocks(compute_clock(spec, EnergyMode(0.5)), 0, rows, i)


class TestPacketReadout:
    def test_premature_readout(self):
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-60.0)
        with pytest.raises(PrematureReadout):
            larmor_packet_readout(CANONICAL, packet, "tr", t=0.0, n_k=129)

    def test_coarse_grid_fails_as_norms_do(self):
        # the readout's sub-packet weights are the diagnostics series' norms,
        # with its quadrature error estimate
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-60.0)
        x = CANONICAL.x_c + 1.6 * np.arange(-87, 88)
        with pytest.raises(GridTooCoarse, match="quadrature error"):
            diagnostics_series(build_mode_table(CANONICAL, packet, x, n_k=129), [80.0])
        with pytest.raises(GridTooCoarse, match="quadrature error"):
            larmor_packet_readout(CANONICAL, packet, "tr", t=80.0, x_grid=x, n_k=129)

    def test_free_flight_reading(self):
        spec = make_rectangular(0.0, 2.0, -1.0)
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-52.0)
        reading = larmor_packet_readout(spec, packet, "tr", t=80.0, n_k=257)
        assert reading.extrapolated[0] == pytest.approx(2.0, rel=1e-2)

    def test_canonical_matches_spectral_average(self, canonical_table):
        """Packet reading vs the transmission-weighted average of the
        stationary readings, within the 5 percent contract."""
        packet = canonical_table.packet
        reading = larmor_packet_readout(CANONICAL, packet, "tr", t=80.0, n_k=257)
        taus = np.empty(canonical_table.k.size)
        for i, k in enumerate(canonical_table.k):
            mode_k = EnergyMode.from_k(float(k))
            taus[i] = larmor_times(CANONICAL, mode_k, "tr").extrapolated[0]
        w = (canonical_table.weights * np.abs(canonical_table.f_k) ** 2
             * np.abs(canonical_table.A_T) ** 2)
        want = float(np.sum(w * taus) / np.sum(w))
        assert reading.extrapolated[0] == pytest.approx(want, rel=0.05)
