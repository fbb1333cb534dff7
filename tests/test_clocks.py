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
    larmor_times,
    sweep_barrier_width,
)
from tunnelsplit.errors import ClockNotFinite, NonPositiveWidth, ZeroFlux
from tunnelsplit.potential import PotentialSpec, make_rectangular
from tunnelsplit.splitting import build_decomposition, decompose_block
from tunnelsplit.stationary import (EVAN, OSC, PAIR, EnergyMode, ProblemBlock, sample_states,
                                   scattering_state, solve_block, state_from_left)
from tunnelsplit.tolerances import OMEGA_FRACTION, ZERO_FLUX

from _oracles import (LARMOR_LADDER, larmor_ladder, probe_noninvasiveness, simpson_density_sum,
                      simpson_product_sum, zeeman_shifted)

CANONICAL = make_rectangular(1.0, 2.0, -9.0)
MODE = EnergyMode(0.5)


def canonical_decomposition():
    return build_decomposition(CANONICAL, MODE, np.linspace(-10.0, -6.0, 65))


def _centered(v0, length):
    """A rectangular barrier centred at the origin, as the width sweep
    builds them."""
    return make_rectangular(v0, length, -0.5 * length)


class TestCheckFactors:
    """Checks of the Zeeman pair's fixed fraction LARMOR_FACTOR, and of the
    ladder of the finite-field oracle."""

    def test_requires_descending_positive(self):
        assert math.isfinite(clocks.LARMOR_FACTOR) and clocks.LARMOR_FACTOR > 0
        # the oracle's ladder descends to the one frequency the clock reads
        ladder = np.array(LARMOR_LADDER)
        assert np.all(ladder > 0) and np.all(np.diff(ladder) < 0)
        assert ladder[-1] == clocks.LARMOR_FACTOR

    def test_field_must_be_infinitesimal(self):
        assert LARMOR_LADDER[0] <= OMEGA_FRACTION
        assert clocks.LARMOR_FACTOR <= OMEGA_FRACTION
        omega = clock_block(ProblemBlock.of(CANONICAL, [0.5])).larmor_tr.omega
        assert np.all(omega <= OMEGA_FRACTION * 0.5)


class TestLarmorFactors:
    def test_omegas_are_fractions_of_each_row_energy(self):
        res = clock_block(ProblemBlock.of(CANONICAL, [0.5, 0.25]))
        np.testing.assert_array_equal(res.larmor_tr.omega, [5e-5, 2.5e-5])
        np.testing.assert_array_equal(res.omega_min, [5e-5, 2.5e-5])


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
    # rows off the middle height have |q2| w^2 = 8e-11, inside the pair form
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

    def test_closed_form_holds_either_side_of_the_pair_switch(self):
        """E = V (1 +/- m), m log-spaced over 1e-12...1e-2, at each height V
        of the canonical barrier and of one with heights (0.5, 1, 0.5):
        every sub-wave's closed-form sum is within 2e-10 of the sampled one.
        With the pair form's switch at |q2| w^2 = 1e-10 instead of 1e-5 the
        exponential forms cancel just above it, and the gap reaches 6.9e-6."""
        m = np.geomspace(1e-12, 1e-2, 101)
        half = (clocks.DWELL_NODES + 1) // 2
        for spec in (CANONICAL, _symmetric(-1.5, (0.5, 1.0, 0.5))):
            for V in sorted({h for _, h in spec.segments}):
                P = ProblemBlock.of(spec, V * np.concatenate((1.0 + m, 1.0 - m)))
                dec = decompose_block(P, np.linspace(P.a, P.b, 65, axis=-1))
                for state, lo, hi, n in ((dec.tr_state, P.a, P.x_c, half),
                                         (dec.full_state, P.x_c, P.b, half),
                                         (dec.ref_state, P.a, P.x_c, clocks.DWELL_NODES)):
                    np.testing.assert_allclose(clocks._density_sum(state, lo, hi, n),
                                               simpson_density_sum(state, lo, hi, n),
                                               rtol=2e-10, atol=0, err_msg=f"V = {V}")

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
            assert reading.time[0] == pytest.approx(L / k, rel=1e-12)
            assert reading.out_of_plane[0] == pytest.approx(0.0, abs=1e-12)
            dec = build_decomposition(spec, mode, np.linspace(-1.0, L + 1.0, 33))
            assert dwell_time(dec, "tr") == pytest.approx(L / k, rel=1e-6)

    def test_residuals_decrease_with_field(self):
        """The finite-field ladder of the oracle, on canonical, a three-segment
        barrier and canonical above its top: its residuals fall as the field
        shrinks, its zero-field limit is the closed-form time, and its
        smallest rung is the raw reading at omega_min."""
        for spec, E in ((CANONICAL, 0.5), (_symmetric(-1.5, (1.0, 0.5, 1.0)), 0.7),
                        (CANONICAL, 1.7)):
            mode = EnergyMode(E)
            for sub in ("tr", "ref"):
                raw, limit, r, _ = larmor_ladder(spec, mode, sub)
                assert r[0] > r[1] > r[2]
                reading = larmor_times(spec, mode, sub)
                assert limit == pytest.approx(reading.time[0], rel=1e-9)
                assert raw[-1] == reading.raw[0]
                assert reading.residual[0] == abs(raw[-1] - reading.time[0])

    def test_out_of_plane_is_the_modulus_response(self):
        """At omega_min the ladder's ln|A_up / A_down| / omega is the
        out-of-plane reading, to O(omega^2)."""
        for sub in ("tr", "ref"):
            modulus = larmor_ladder(CANONICAL, MODE, sub)[3]
            reading = larmor_times(CANONICAL, MODE, sub)
            assert abs(reading.out_of_plane[0]) > 0.1
            assert modulus[-1] == pytest.approx(reading.out_of_plane[0], rel=1e-6)

    def test_sub_process_readings_match_on_symmetric_barrier(self):
        tr = larmor_times(CANONICAL, MODE, "tr").time[0]
        ref = larmor_times(CANONICAL, MODE, "ref").time[0]
        assert tr == pytest.approx(ref, rel=1e-10)

    def test_relation_to_dwell_reported(self, capsys):
        """The precession reading need not reproduce the dwell time; the
        gap is reported, never asserted."""
        tau_l = larmor_times(CANONICAL, MODE, "tr").time[0]
        tau_d = dwell_time(canonical_decomposition(), "tr")
        gap = abs(tau_l - tau_d) / tau_d
        print(f"\ncanonical larmor-vs-dwell relative gap: {gap:.3f} "
              f"(larmor {tau_l:.4f}, dwell {tau_d:.4f})")
        assert tau_l > 0 and tau_d > 0

    def test_non_finite_time_rejected(self):
        for time in (math.inf, math.nan):
            with pytest.raises(ClockNotFinite, match="omega = 5e-05"):
                LarmorReading(omega=np.array([5e-5]), time=np.array([time]),
                              out_of_plane=np.zeros(1), raw=np.ones(1), present=np.array([True]))

    @staticmethod
    def _block(present):
        """Three rows; row 1's time is not finite."""
        return LarmorReading(omega=np.full(3, 5e-5), time=np.array([2.0, math.inf, 4.0]),
                             out_of_plane=np.zeros(3), raw=np.array([2.5, 1.0, 3.0]),
                             present=np.asarray(present))

    def test_a_diverging_row_raises_unless_absent(self):
        with pytest.raises(ClockNotFinite):
            self._block([True, True, True])
        reading = self._block([True, False, True])
        assert reading.time[[0, 2]].tolist() == [2.0, 4.0]
        assert reading.residual[[0, 2]].tolist() == [0.5, 1.0]
        for column in (reading.time, reading.raw, reading.residual, reading.out_of_plane):
            assert np.isnan(column[1]) and not np.isnan(column[[0, 2]]).any()

    # canonical (V0 1, L 2) is reflectionless where the inside wave number
    # times L is pi, at E = V0 + pi^2 / 8
    REFLECTIONLESS = 1.0 + math.pi ** 2 / 8.0

    def test_absent_channel_has_no_reading(self):
        with pytest.raises(ZeroFlux, match="ref channel absent"):
            larmor_times(CANONICAL, EnergyMode(self.REFLECTIONLESS), "ref")

    @pytest.mark.parametrize("detuning", [1.0 + 0.5 * clocks.LARMOR_FACTOR,
                                          1.0 - 0.5 * clocks.LARMOR_FACTOR])
    def test_reflectionless_spin_has_no_reading(self, detuning):
        """At E = (1 + pi^2/8) / (1 -/+ omega_min / 2E) the reflection
        channel is present, but at omega_min one spin's barrier, of height
        1 -/+ omega_min/2, is reflectionless: the row keeps its exact time,
        and its raw reading and residual are NaN."""
        mode = EnergyMode(self.REFLECTIONLESS / detuning)
        _, A_R = solve_block(ProblemBlock.of(CANONICAL, mode.E))
        assert abs(A_R[0]) ** 2 > ZERO_FLUX
        omega = clocks.LARMOR_FACTOR * mode.E
        spins = [zeeman_shifted(CANONICAL, s * omega) for s in (-0.5, 0.5)]
        _, A_R_spins = solve_block(ProblemBlock.of(spins, mode.E))
        assert np.min(np.abs(A_R_spins)) ** 2 < ZERO_FLUX
        reading = larmor_times(CANONICAL, mode, "ref")
        assert reading.present[0] and np.isfinite(reading.time[0])
        assert np.isnan(reading.raw[0]) and np.isnan(reading.residual[0])
        res = compute_clock(CANONICAL, mode)
        assert res.tau_larmor_ref[0] == reading.time[0]
        assert np.isfinite(res.larmor_tr.residual[0]) and np.isnan(res.residual[0])

    def test_huge_energy_reads_free_flight(self):
        """At E = 1e300 the barrier is transparent: the transmission time is
        L / k, the reflection channel is absent, and no RuntimeWarning
        escapes (the suite makes those errors)."""
        mode = EnergyMode(1e300)
        reading = larmor_times(CANONICAL, mode, "tr")
        assert reading.time[0] == pytest.approx(2.0 / mode.k, rel=1e-12)
        assert np.isfinite(reading.residual[0])
        with pytest.raises(ZeroFlux, match="ref channel absent"):
            larmor_times(CANONICAL, mode, "ref")
        res = compute_clock(CANONICAL, mode)
        assert res.tau_larmor_tr[0] == reading.time[0] and np.isnan(res.tau_larmor_ref[0])


# (block, piece kinds its full states must hold)
_OVERLAP_CASES = {
    "evan": (ProblemBlock.of(CANONICAL, 0.5), {EVAN}),
    "osc": (ProblemBlock.of(CANONICAL, [1.7, 3.0]), {OSC}),
    # at E = V exactly and |q2| w^2 = 8e-11, 1.04e-10 and 8e-9 off it
    "pair": (ProblemBlock.of(CANONICAL, [1.0, 1.0 + 1e-11, 1.0 - 1e-11, 1.0 + 1.3e-11,
                                         1.0 - 1.3e-11, 1.0 + 1e-9]), {PAIR}),
    # |q2| w^2 just above the pair form's 1e-5, and either side of the
    # series' 1e-2, where the exponential forms would cancel
    "near-q-zero": (ProblemBlock.of(CANONICAL, [1.0 + 1.3e-6, 1.0 - 1.3e-6, 1.0 + 1e-5,
                                                1.0 + 1.2e-3, 1.0 + 1.3e-3, 1.0 - 1.2e-3,
                                                1.0 - 1.3e-3]), {OSC, EVAN}),
    "middle-height": (_DWELL_CASES["middle-height"][0], {PAIR, OSC, EVAN}),
    "kinds-per-row": (_DWELL_CASES["kinds-per-row"][0], {PAIR, OSC, EVAN}),
    # a resonant well between two walls, and the sweep's thickest barrier
    "double-barrier": (ProblemBlock.of(_symmetric(-2.5, (1.0, 0.0, 1.0, 0.0, 1.0), 1.0),
                                       [0.3, 0.6]), {OSC, EVAN}),
    "sweep-end": (ProblemBlock.of(_centered(1.0, 14.0), 0.5), {EVAN}),
}


class TestOverlap:
    @pytest.mark.parametrize("case", list(_OVERLAP_CASES))
    def test_closed_form_is_the_sampled_simpson_sum(self, case):
        """Both Larmor overlaps against Simpson sums of the sampled product
        on 20001 nodes of every piece, summed over the pieces."""
        problems, kinds = _OVERLAP_CASES[case]
        A_T, _, full = scattering_state(problems)
        right = state_from_left(problems, 0.0, A_T)
        assert set(full.kind.ravel()) == kinds
        for f, g in ((full, right), (full, full)):
            want = sum(simpson_product_sum(f, g, f.xl[:, j], f.xr[:, j], 20_001)
                       for j in range(f.kind.shape[1]))
            # |integral f g| <= the Cauchy-Schwarz bound
            scale = np.sqrt(simpson_density_sum(f, problems.a, problems.b, 2001)
                            * simpson_density_sum(g, problems.a, problems.b, 2001))
            got = clocks._overlap(f, g)
            assert np.all(np.abs(got - want) <= 1e-11 * scale), (got, want)

    @pytest.mark.parametrize("case", ["evan", "osc", "pair", "middle-height", "double-barrier"])
    def test_right_state_is_the_mirrored_left_state(self, case):
        """psi_R(x) = exp(-2ik x_c) psi_L(2 x_c - x) on a symmetric barrier."""
        problems, _ = _OVERLAP_CASES[case]
        A_T, _, full = scattering_state(problems)
        right = state_from_left(problems, 0.0, A_T)
        x = np.linspace(problems.a - 1.0, problems.b + 1.0, 97, axis=-1)
        mirrored = sample_states(full, 2.0 * problems.x_c[:, None] - x)
        want = np.exp(-2j * problems.k * problems.x_c)[:, None] * mirrored
        np.testing.assert_allclose(sample_states(right, x), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


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
        assert np.isnan(res.larmor_ref.raw).all()
        assert math.isnan(res.tau_larmor_ref[0])
        assert res.residual[0] == res.larmor_tr.residual[0]


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

    @pytest.mark.parametrize("kappa_l", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_rejects_a_width_not_finite_and_positive(self, kappa_l):
        with pytest.raises(NonPositiveWidth, match="segment widths"):
            sweep_barrier_width(1.0, 0.5, [1.0, kappa_l])

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
        np.array([r.time[i], r.present[i], r.omega[i], r.raw[i], r.residual[i],
                  r.out_of_plane[i]])
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
        for size in (1, 7, 64, clocks.SWEEP_BLOCK):
            monkeypatch.setattr(clocks, "SWEEP_BLOCK", size)
            runs.append(sweep_barrier_width(1.0, 0.5, self.KAPPA_LS))
        for rows in runs[1:]:
            assert rows.E.shape == (self.KAPPA_LS.size,)
            assert all(_same_clocks(runs[0], i, rows, i) for i in range(self.KAPPA_LS.size))

    def test_uneven_blocks_equal_one_block(self, monkeypatch):
        kappa_ls = np.linspace(1.0, 14.0, 1100)
        sizes = []

        def recording_map(fn, blocks):
            sizes.extend(len(b) for b in blocks)
            return map(fn, blocks)

        rows = sweep_barrier_width(1.0, 0.5, kappa_ls, map_fn=recording_map)
        *full, last = sizes
        assert full and set(full) == {clocks.SWEEP_BLOCK} and 0 < last < clocks.SWEEP_BLOCK
        monkeypatch.setattr(clocks, "SWEEP_BLOCK", kappa_ls.size)
        whole = sweep_barrier_width(1.0, 0.5, kappa_ls)
        assert all(_same_clocks(whole, i, rows, i) for i in range(kappa_ls.size))

    def test_absent_reflection_marks_its_row_only(self):
        specs = [_centered(1.0, 2.0), _centered(0.0, 2.0), _centered(1.0, 3.0)]
        rows = clock_block(ProblemBlock.of(specs, 0.5))
        assert np.isnan(rows.tau_dwell_ref).tolist() == [False, True, False]
        assert np.isnan(rows.tau_larmor_ref).tolist() == [False, True, False]
        assert rows.larmor_ref.present.tolist() == [True, False, True]
        for i, spec in enumerate(specs):
            assert _same_clocks(compute_clock(spec, EnergyMode(0.5)), 0, rows, i)
