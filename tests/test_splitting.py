import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tunnelsplit import splitting
from tunnelsplit.errors import (AsymmetricPotential, NotNormalized, OddSelectionFailed,
                                SolveSingular)
from tunnelsplit.potential import PotentialSpec, make_piecewise, make_rectangular
from tunnelsplit.stationary import EnergyMode, solve_full
from tunnelsplit.splitting import build_decomposition, split_amplitude_candidates

from _oracles import derivative_jump, sampled

CANONICAL = make_rectangular(1.0, 2.0, -1.0)


def grid_for(spec, pad=5.0, n=2001):
    half = spec.width / 2.0 + pad
    return spec.x_c + np.linspace(-half, half, n)


class TestSplitCandidates:
    def test_full_transmission(self):
        plus, minus = split_amplitude_candidates(1.0, 0.0)
        assert plus.A_tr_in == 1.0 and plus.A_ref_in == 0.0
        assert minus.A_tr_in == 1.0 and minus.A_ref_in == 0.0

    def test_half_and_half(self):
        plus, minus = split_amplitude_candidates(0.5, 0.5)
        assert plus.A_tr_in == pytest.approx(0.5 + 0.5j)
        assert plus.A_ref_in == pytest.approx(0.5 - 0.5j)
        assert minus.A_tr_in == pytest.approx(0.5 - 0.5j)

    def test_rational_point(self):
        plus, _ = split_amplitude_candidates(0.36, 0.64)
        assert plus.A_tr_in == pytest.approx(0.36 + 0.48j)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            split_amplitude_candidates(0.6, 0.6)

    def test_sum_is_exactly_one_imag(self):
        plus, minus = split_amplitude_candidates(0.3, 0.7)
        for cand in (plus, minus):
            assert (cand.A_tr_in + cand.A_ref_in).imag == 0.0
            assert abs(cand.A_tr_in + cand.A_ref_in - 1.0) < 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_moduli_carry_channel_weights(self, T):
        R = 1.0 - T
        plus, minus = split_amplitude_candidates(T, R)
        for cand in (plus, minus):
            assert abs(cand.A_tr_in) ** 2 == pytest.approx(T, abs=1e-12)
            assert abs(cand.A_ref_in) ** 2 == pytest.approx(R, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_uniqueness_on_constraint_circle(self, T, theta):
        """A point with |A_tr| = sqrt(T) solves the constraint system only
        if it coincides with one of the two candidates."""
        R = 1.0 - T
        candidate = math.sqrt(T) * complex(math.cos(theta), math.sin(theta))
        satisfies = abs(abs(1.0 - candidate) ** 2 - R) < 1e-12
        plus, minus = split_amplitude_candidates(T, R)
        is_root = min(abs(candidate - plus.A_tr_in), abs(candidate - minus.A_tr_in)) < 1e-6
        if satisfies:
            assert is_root
        if not is_root:
            assert not satisfies


class TestBuildDecomposition:
    def test_free_particle_has_no_reflection_subwave(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        x = grid_for(spec)
        dec = build_decomposition(spec, EnergyMode(1.0), x)
        _, tr_solution, ref_solution, _, ref = sampled(dec, x)
        assert np.max(np.abs(ref_solution)) < 1e-12
        assert np.max(np.abs(ref)) < 1e-12
        np.testing.assert_allclose(
            tr_solution, np.exp(1j * EnergyMode(1.0).k * x), rtol=0, atol=1e-12
        )

    def test_exactly_one_root_is_odd(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), x)
        odd_mid, even_mid = dec.midpoint_residuals[0]
        assert odd_mid < 1e-8
        assert even_mid > 1e-8
        assert even_mid > 0.01 * np.max(np.abs(dec.even_ref_state.values(x)))

    def test_identity_pointwise(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), x)
        assert dec.identity_residual[0] < 1e-10
        full, _, _, tr, ref = sampled(dec, x)
        resid = np.max(np.abs(tr + ref - full))
        assert resid < 1e-10

    def test_split_amplitudes_carry_weights(self):
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), grid_for(CANONICAL))
        T, R = np.abs(dec.A_T[0]) ** 2, np.abs(dec.A_R[0]) ** 2
        assert abs(dec.split.A_tr_in[0]) ** 2 == pytest.approx(T, abs=1e-10)
        assert abs(dec.split.A_ref_in[0]) ** 2 == pytest.approx(R, abs=1e-10)
        assert dec.split.parity == "odd"
        assert dec.even_split.parity == "even"
        assert dec.split.root_sign[0] != dec.even_split.root_sign[0]

    def test_piecewise_cut_definitions(self):
        x = grid_for(CANONICAL)
        full, tr_solution, ref_solution, tr, ref = sampled(
            build_decomposition(CANONICAL, EnergyMode(0.5), x), x)
        right = x > CANONICAL.x_c
        assert np.all(ref[right] == 0.0)
        np.testing.assert_array_equal(tr[right], full[right])
        left = x <= CANONICAL.x_c
        np.testing.assert_array_equal(tr[left], tr_solution[left])
        np.testing.assert_array_equal(ref[left], ref_solution[left])

    def test_parity_covariance(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), x)
        mirrored = dec.ref_state.values(2.0 * CANONICAL.x_c - x)
        ref_solution = sampled(dec, x)[2]
        scale = np.max(np.abs(ref_solution))
        assert np.max(np.abs(mirrored + ref_solution)) < 1e-7 * scale

    def test_right_side_carries_transmitted_wave(self):
        x = np.linspace(CANONICAL.b, CANONICAL.b + 6.0, 301)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), x)
        expected = dec.A_T[0] * np.exp(1j * EnergyMode(0.5).k * x)
        np.testing.assert_allclose(sampled(dec, x)[3], expected, rtol=0, atol=1e-12)

    def test_refuses_asymmetric(self):
        spec = PotentialSpec(a=0.0, segments=((1.0, 0.5), (1.0, 2.0)))
        with pytest.raises(AsymmetricPotential):
            build_decomposition(spec, EnergyMode(0.5), np.linspace(-3, 5, 101))

    def test_multisegment_barrier(self):
        spec = make_piecewise(-1.5, [(1, 0.5), (1, 2.0), (1, 0.5)])
        x = grid_for(spec)
        dec = build_decomposition(spec, EnergyMode(0.8), x)
        assert dec.identity_residual[0] < 1e-10
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.parity_residual[0] < 1e-7 * np.max(np.abs(sampled(dec, x)[2]))

    def test_even_segment_count_midpoint_on_edge(self):
        spec = make_piecewise(0.0, [(1.0, 2.0), (1.0, 2.0)])
        dec = build_decomposition(spec, EnergyMode(0.5), grid_for(spec))
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.identity_residual[0] < 1e-10

    def test_deep_tunneling_remains_accurate(self):
        spec = make_rectangular(8.0, 8.0, -4.0)
        dec = build_decomposition(spec, EnergyMode(0.02), grid_for(spec, pad=3.0))
        assert dec.identity_residual[0] < 1e-10
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.midpoint_residuals[0, 1] > 1e-8

    def test_full_state_matches_direct_solve(self):
        x = grid_for(CANONICAL)
        mode = EnergyMode(0.5)
        full = sampled(build_decomposition(CANONICAL, mode, x), x)[0]
        A_R = solve_full(CANONICAL, mode)[1][0]
        left = x < CANONICAL.a
        expected = np.exp(1j * mode.k * x[left]) + A_R * np.exp(-1j * mode.k * x[left])
        np.testing.assert_allclose(full[left], expected, rtol=0, atol=1e-12)

    def test_grid_of_cases(self):
        for V0 in (0.25, 1.0, 4.0):
            for L in (0.5, 2.0, 5.0):
                spec = make_rectangular(V0, L, 0.0)
                for E in np.geomspace(0.05, 20.0, 9):
                    dec = build_decomposition(spec, EnergyMode(float(E)), grid_for(spec, n=401))
                    odd_mid, even_mid = dec.midpoint_residuals[0]
                    assert odd_mid < 1e-8
                    assert even_mid > 1e-8
                    assert dec.identity_residual[0] < 1e-10


class TestExteriorCoefficientChecks:
    """A fault in one right-side plane-wave pair, on a grid within 1e-3 of
    x_c: no grid point lies outside the barrier, so only the coefficient
    checks can see it. The identity of the pairs is absolute and sees a
    1e-9 fault in tr. Antisymmetry is relative to ref's exterior amplitude
    (about 1 here, not the grid's max |ref| of about 1e-3), so the fault in
    ref is 1e-6, ten times PARITY_RELATIVE."""

    MODE = EnergyMode(0.5)
    X = CANONICAL.x_c + np.linspace(-1e-3, 1e-3, 5)

    @staticmethod
    def _fault(monkeypatch, cascade_name, size):
        cascade = getattr(splitting, cascade_name)

        def faulty(*args):
            state = cascade(*args)
            state.right = (state.right[0] + size, state.right[1])
            return state

        monkeypatch.setattr(splitting, cascade_name, faulty)

    def test_unperturbed_passes(self):
        assert build_decomposition(CANONICAL, self.MODE, self.X).identity_residual[0] < 1e-10

    def test_tr_pair_fault_fails_identity(self, monkeypatch):
        self._fault(monkeypatch, "state_from_left", 1e-9)
        with pytest.raises(SolveSingular, match="pairs deviate"):
            build_decomposition(CANONICAL, self.MODE, self.X)

    def test_ref_pair_fault_fails_antisymmetry(self, monkeypatch):
        self._fault(monkeypatch, "state_from_midpoint", 1e-6)
        with pytest.raises(OddSelectionFailed, match="outside the barrier"):
            build_decomposition(CANONICAL, self.MODE, self.X)


class TestDerivativeJump:
    def test_free_case_no_jump(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        coarse, fine = grid_for(spec, n=2001), grid_for(spec, n=8001)
        jumps = [derivative_jump(build_decomposition(spec, EnergyMode(1.0), x), x)
                 for x in (coarse, fine)]
        for (jump_tr, jump_ref), bound in zip(jumps, (1e-3, 1e-4)):
            # ref vanishes to roundoff; tr is smooth so its estimated jump
            # is pure stencil error, O(h^2)
            assert abs(jump_ref) < 1e-14
            assert abs(jump_tr) < bound
        (jt_coarse, _), (jt_fine, _) = jumps
        assert abs(jt_fine) < abs(jt_coarse) / 8.0

    def test_jumps_cancel_at_second_order(self):
        mode = EnergyMode(0.5)
        sums, jumps = [], []
        for n in (501, 1001, 2001):
            x = grid_for(CANONICAL, n=n)
            dec = build_decomposition(CANONICAL, mode, x)
            jt, jr = derivative_jump(dec, x)
            sums.append(abs(jt + jr))
            jumps.append(jt)
        # the individual jump converges to the sub-solution derivative step
        expected = dec.ref_state.derivative(np.array([CANONICAL.x_c]))[0]
        assert jumps[-1] == pytest.approx(expected, rel=1e-3)
        # Richardson: halving h divides the cancellation defect by ~4
        order = math.log(sums[0] / sums[2]) / math.log(4.0)
        assert order > 1.6

    def test_ref_jump_is_minus_left_derivative(self):
        x = grid_for(CANONICAL, n=4001)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5), x)
        _, jump_ref = derivative_jump(dec, x)
        left_deriv = dec.ref_state.derivative(np.array([CANONICAL.x_c]))[0]
        assert jump_ref == pytest.approx(-left_deriv, rel=1e-4)


def test_interference_density_integrates_to_overlap():
    x = grid_for(CANONICAL, pad=8.0, n=4001)
    *_, tr, ref = sampled(build_decomposition(CANONICAL, EnergyMode(0.5), x), x)
    cross = 2.0 * np.real(np.conj(tr) * ref)
    lhs = np.trapezoid(cross, x)
    inner = np.trapezoid(np.conj(tr) * ref, x)
    assert lhs == pytest.approx(2.0 * inner.real, abs=1e-10)


def test_parity_span_does_not_depend_on_grid_order(monkeypatch):
    """The antisymmetry probe reaches as far from x_c as the grid does: 2 on
    x_c +/- 2 inside a width-10 barrier, on the grid and on its reverse."""
    spans = []
    probe = splitting._midpoint_and_parity

    def spy(ref_state, span, *args):
        spans.append(span.copy())
        return probe(ref_state, span, *args)

    monkeypatch.setattr(splitting, "_midpoint_and_parity", spy)
    spec = make_rectangular(1.0, 10.0, -5.0)
    x = spec.x_c + np.linspace(-2.0, 2.0, 41)
    for grid in (x, x[::-1]):
        build_decomposition(spec, EnergyMode(0.5), grid)
    assert [s.tolist() for s in spans] == [[2.0], [2.0]]
