import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tunnelsplit import splitting
from tunnelsplit.errors import (AsymmetricPotential, NotNormalized, OddSelectionFailed,
                                SolveSingular)
from tunnelsplit.potential import PotentialSpec, make_piecewise, make_rectangular
from tunnelsplit.stationary import EVAN, OSC, PAIR, EnergyMode, ProblemBlock, solve_full
from tunnelsplit.splitting import (build_decomposition, decompose_block,
                                   split_amplitude_candidates)

from _oracles import derivative_jump, sampled, sampled_checks

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
        dec = build_decomposition(spec, EnergyMode(1.0))
        _, tr_solution, ref_solution, _, ref = sampled(dec, x)
        assert np.max(np.abs(ref_solution)) < 1e-12
        assert np.max(np.abs(ref)) < 1e-12
        np.testing.assert_allclose(
            tr_solution, np.exp(1j * EnergyMode(1.0).k * x), rtol=0, atol=1e-12
        )

    def test_exactly_one_root_is_odd(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        odd_mid, even_mid = dec.midpoint_residuals[0]
        assert odd_mid < 1e-8
        assert even_mid > 1e-8
        assert even_mid > 0.01 * np.max(np.abs(dec.even_ref_state.values(x)))

    def test_identity_pointwise(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        assert dec.identity_residual[0] < 1e-10
        full, _, _, tr, ref = sampled(dec, x)
        resid = np.max(np.abs(tr + ref - full))
        assert resid < 1e-10

    def test_split_amplitudes_carry_weights(self):
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        T, R = np.abs(dec.A_T[0]) ** 2, np.abs(dec.A_R[0]) ** 2
        assert abs(dec.split.A_tr_in[0]) ** 2 == pytest.approx(T, abs=1e-10)
        assert abs(dec.split.A_ref_in[0]) ** 2 == pytest.approx(R, abs=1e-10)
        assert dec.split.parity == "odd"
        assert dec.even_split.parity == "even"
        assert dec.split.root_sign[0] != dec.even_split.root_sign[0]

    def test_piecewise_cut_definitions(self):
        x = grid_for(CANONICAL)
        full, tr_solution, ref_solution, tr, ref = sampled(
            build_decomposition(CANONICAL, EnergyMode(0.5)), x)
        right = x > CANONICAL.x_c
        assert np.all(ref[right] == 0.0)
        np.testing.assert_array_equal(tr[right], full[right])
        left = x <= CANONICAL.x_c
        np.testing.assert_array_equal(tr[left], tr_solution[left])
        np.testing.assert_array_equal(ref[left], ref_solution[left])

    def test_parity_covariance(self):
        x = grid_for(CANONICAL)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        mirrored = dec.ref_state.values(2.0 * CANONICAL.x_c - x)
        ref_solution = sampled(dec, x)[2]
        scale = np.max(np.abs(ref_solution))
        assert np.max(np.abs(mirrored + ref_solution)) < 1e-7 * scale

    def test_right_side_carries_transmitted_wave(self):
        x = np.linspace(CANONICAL.b, CANONICAL.b + 6.0, 301)
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        expected = dec.A_T[0] * np.exp(1j * EnergyMode(0.5).k * x)
        np.testing.assert_allclose(sampled(dec, x)[3], expected, rtol=0, atol=1e-12)

    def test_refuses_asymmetric(self):
        spec = PotentialSpec(a=0.0, segments=((1.0, 0.5), (1.0, 2.0)))
        with pytest.raises(AsymmetricPotential):
            build_decomposition(spec, EnergyMode(0.5))

    def test_multisegment_barrier(self):
        spec = make_piecewise(-1.5, [(1, 0.5), (1, 2.0), (1, 0.5)])
        x = grid_for(spec)
        dec = build_decomposition(spec, EnergyMode(0.8))
        assert dec.identity_residual[0] < 1e-10
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.parity_residual[0] < 1e-7 * np.max(np.abs(sampled(dec, x)[2]))

    def test_even_segment_count_midpoint_on_edge(self):
        spec = make_piecewise(0.0, [(1.0, 2.0), (1.0, 2.0)])
        dec = build_decomposition(spec, EnergyMode(0.5))
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.identity_residual[0] < 1e-10

    def test_deep_tunneling_remains_accurate(self):
        spec = make_rectangular(8.0, 8.0, -4.0)
        dec = build_decomposition(spec, EnergyMode(0.02))
        assert dec.identity_residual[0] < 1e-10
        assert dec.midpoint_residuals[0, 0] < 1e-8
        assert dec.midpoint_residuals[0, 1] > 1e-8

    def test_full_state_matches_direct_solve(self):
        x = grid_for(CANONICAL)
        mode = EnergyMode(0.5)
        full = sampled(build_decomposition(CANONICAL, mode), x)[0]
        A_R = solve_full(CANONICAL, mode)[1][0]
        left = x < CANONICAL.a
        expected = np.exp(1j * mode.k * x[left]) + A_R * np.exp(-1j * mode.k * x[left])
        np.testing.assert_allclose(full[left], expected, rtol=0, atol=1e-12)

    def test_grid_of_cases(self):
        for V0 in (0.25, 1.0, 4.0):
            for L in (0.5, 2.0, 5.0):
                spec = make_rectangular(V0, L, 0.0)
                for E in np.geomspace(0.05, 20.0, 9):
                    dec = build_decomposition(spec, EnergyMode(float(E)))
                    odd_mid, even_mid = dec.midpoint_residuals[0]
                    assert odd_mid < 1e-8
                    assert even_mid > 1e-8
                    assert dec.identity_residual[0] < 1e-10


class TestExteriorCoefficientChecks:
    """A fault in one right-side plane-wave pair: the pieces inside the
    barrier are untouched, so only the checks of the pairs can see it. The
    identity of the pairs is absolute and sees a 1e-9 fault in tr.
    Antisymmetry is relative to ref's exterior amplitude (about 1 here), so
    the fault in ref is 1e-6, ten times PARITY_RELATIVE."""

    MODE = EnergyMode(0.5)

    @staticmethod
    def _fault(monkeypatch, cascade_name, size):
        cascade = getattr(splitting, cascade_name)

        def faulty(*args):
            state = cascade(*args)
            state.right = (state.right[0] + size, state.right[1])
            return state

        monkeypatch.setattr(splitting, cascade_name, faulty)

    def test_unperturbed_passes(self):
        assert build_decomposition(CANONICAL, self.MODE).identity_residual[0] < 1e-10

    def test_tr_pair_fault_fails_identity(self, monkeypatch):
        self._fault(monkeypatch, "state_from_left", 1e-9)
        with pytest.raises(SolveSingular, match="pairs deviate"):
            build_decomposition(CANONICAL, self.MODE)

    def test_ref_pair_fault_fails_antisymmetry(self, monkeypatch):
        self._fault(monkeypatch, "state_from_midpoint", 1e-6)
        with pytest.raises(OddSelectionFailed, match="outside the barrier"):
            build_decomposition(CANONICAL, self.MODE)


class TestDerivativeJump:
    def test_free_case_no_jump(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        coarse, fine = grid_for(spec, n=2001), grid_for(spec, n=8001)
        jumps = [derivative_jump(build_decomposition(spec, EnergyMode(1.0)), x)
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
            dec = build_decomposition(CANONICAL, mode)
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
        dec = build_decomposition(CANONICAL, EnergyMode(0.5))
        _, jump_ref = derivative_jump(dec, x)
        left_deriv = dec.ref_state.derivative(np.array([CANONICAL.x_c]))[0]
        assert jump_ref == pytest.approx(-left_deriv, rel=1e-4)


def test_interference_density_integrates_to_overlap():
    x = grid_for(CANONICAL, pad=8.0, n=4001)
    *_, tr, ref = sampled(build_decomposition(CANONICAL, EnergyMode(0.5)), x)
    cross = 2.0 * np.real(np.conj(tr) * ref)
    lhs = np.trapezoid(cross, x)
    inner = np.trapezoid(np.conj(tr) * ref, x)
    assert lhs == pytest.approx(2.0 * inner.real, abs=1e-10)


def _mirrored_barrier(rng, n_segments):
    """A barrier of n_segments random segments, mirror-symmetric."""
    half = [(float(rng.uniform(0.05, 1.5)), float(rng.uniform(-1.0, 3.0)))
            for _ in range((n_segments + 1) // 2)]
    return make_piecewise(float(rng.uniform(-3.0, 1.0)), half + half[::-1][n_segments % 2:])


class TestCoefficientBounds:
    """`identity_residual` and `parity_residual` bound |tr + ref - full| and
    |ref(x_c + d) + ref(x_c - d)| at every x from the coefficients: each is
    at least the residual sampled on 2001 points, less 4e-15 of sampling
    roundoff, and below 1e-12."""

    @staticmethod
    def _check(dec, slack=4e-15):
        identity, parity, _ = sampled_checks(dec, 2001)
        assert np.all(dec.identity_residual >= identity - slack)
        assert np.all(dec.parity_residual >= parity - slack)
        assert np.max(dec.identity_residual) < 1e-12
        assert np.max(dec.parity_residual) < 1e-12

    def test_criterion_3_rectangles(self):
        """Every fourth height and length of criterion 3, at its 50
        energies: x_c falls inside the one segment, which ref splits."""
        for V0 in np.geomspace(0.25, 8.0, 20)[::4]:
            for L in np.geomspace(0.5, 8.0, 20)[::4]:
                spec = make_rectangular(float(V0), float(L), 0.0)
                dec = decompose_block(ProblemBlock.of(spec, np.geomspace(0.02, 50.0, 50)))
                assert dec.ref_state.c1.shape[1] == 2
                self._check(dec)

    def test_random_mirrored_barriers(self):
        """One to six segments: x_c inside the middle segment where the
        count is odd, on the middle interface where it is even."""
        rng = np.random.default_rng(35)
        splits = set()
        for trial in range(36):
            n_segments = trial % 6 + 1
            dec = decompose_block(ProblemBlock.of(_mirrored_barrier(rng, n_segments),
                                                  rng.uniform(0.05, 4.0, 16)))
            splits.add(dec.ref_state.c1.shape[1] - n_segments)
            self._check(dec)
        assert splits == {0, 1}

    @pytest.mark.parametrize("sign, kind", [(1.0, OSC), (-1.0, EVAN)])
    def test_segment_of_pair_form_halves(self, sign, kind):
        """|q2| w^2 = 2 |E - V| between 1.2e-5 and 3.8e-5 on a unit-width
        segment: OSC or EVAN as a whole, PAIR on the halves ref splits it
        into, where tr and full are carried by their value and slope. Their
        coefficients near q = 0 are large (about 170), and so is the
        sampling's roundoff: one ulp of |c1| + |c2| per state."""
        spec = make_rectangular(1.0, 1.0, -0.5)
        dec = decompose_block(ProblemBlock.of(spec, 1.0 + sign * np.array([6e-6, 1e-5, 1.9e-5])))
        assert np.all(dec.full_state.kind == kind) and np.all(dec.tr_state.kind == kind)
        assert np.all(dec.ref_state.kind == PAIR)
        slack = np.finfo(float).eps * sum(np.max(np.abs(s.c1) + np.abs(s.c2), axis=1)
                                          for s in (dec.full_state, dec.tr_state, dec.ref_state))
        self._check(dec, slack)

    @pytest.mark.parametrize("sign, kind", [(1.0, OSC), (-1.0, EVAN)])
    def test_halves_near_q_zero(self, sign, kind):
        """|q2| w^2 from 1.5e-5 to 5e-5 on the halves: OSC or EVAN, whose
        coefficients cancel to about 1e-16 / u relative; the bound written
        in the value and slope does not lose that."""
        spec = make_rectangular(1.0, 1.0, -0.5)
        dec = decompose_block(ProblemBlock.of(spec, 1.0 + sign * np.array([3e-5, 6e-5, 1e-4])))
        assert np.all(dec.ref_state.kind == kind)
        slack = np.finfo(float).eps * sum(np.max(np.abs(s.c1) + np.abs(s.c2), axis=1)
                                          for s in (dec.full_state, dec.tr_state, dec.ref_state))
        self._check(dec, slack)

    def test_mirror_pieces_of_different_kinds(self):
        """Halves whose widths differ by roundoff, at an energy where
        |q2| w^2 = 1e-5 falls between them: one half is OSC, its mirror
        PAIR, and the two are compared in the PAIR form."""
        spec = make_rectangular(1e-6, 1.1, 0.08)
        dec = decompose_block(ProblemBlock.of(spec, 1.752892561983471e-05))
        assert dec.ref_state.kind[0].tolist() == [OSC, PAIR]
        self._check(dec)


class TestInteriorMutations:
    """A fault in one row's coefficients inside the barrier, where no
    plane-wave pair shows it, on three segments: ref splits the middle
    one at x_c. Each check names the faulty row's energy."""

    SPEC = make_piecewise(-1.5, [(1.0, 0.5), (1.0, 2.0), (1.0, 0.5)])
    E = np.array([0.3, 0.8, 1.7])

    @staticmethod
    def _fault(monkeypatch, name, piece, size):
        """Add `size` to c1 of one piece of row 1 of the states `name` makes."""
        make = getattr(splitting, name)

        def faulty(*args):
            made = make(*args)
            state = made[0] if isinstance(made, tuple) else made
            state.c1 = state.c1.copy()
            state.c1[1, piece] += size
            return made

        monkeypatch.setattr(splitting, name, faulty)

    def test_unperturbed_passes(self):
        dec = decompose_block(ProblemBlock.of(self.SPEC, self.E))
        assert dec.ref_state.c1.shape[1] == 4
        assert np.max(dec.identity_residual) < 1e-12

    def test_tr_fault_on_the_split_segment_fails_identity(self, monkeypatch):
        """1e-9 on tr's middle piece, carried unchanged onto its left half."""
        self._fault(monkeypatch, "state_from_left", 1, 1e-9)
        with pytest.raises(SolveSingular, match=r"sub-solution sum deviates from the full "
                                                r"state by 1\.\d+e-09 at E = 0\.8$"):
            decompose_block(ProblemBlock.of(self.SPEC, self.E))

    def test_mirrored_ref_fault_fails_antisymmetry(self, monkeypatch):
        """1e-6 on ref's first piece, mirrored by its last, and -1e-6 on
        tr's, so that the sum still holds and only the parity sees it."""
        self._fault(monkeypatch, "_ref_candidate", 0, 1e-6)
        self._fault(monkeypatch, "state_from_left", 0, -1e-6)
        with pytest.raises(OddSelectionFailed, match=r"selected root is not antisymmetric: "
                                                     r"residual .* at E = 0\.8$"):
            decompose_block(ProblemBlock.of(self.SPEC, self.E))
