import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelsplit import stationary
from tunnelsplit.errors import NonPositiveWidth, OpacityOverflow, SolveSingular
from tunnelsplit.potential import PotentialSpec, make_piecewise, make_rectangular
from tunnelsplit.splitting import build_decomposition, decompose_block
from tunnelsplit.stationary import (
    EnergyMode,
    ProblemBlock,
    sample_states,
    solve_block,
    solve_full,
    state_from_left,
    state_from_right,
)

from _oracles import integrate_stationary, rectangular_transmission

CANONICAL = make_rectangular(1.0, 2.0, -1.0)


def weights(spec, E):
    """(T, R) = |A_T|^2, |A_R|^2 of solve_full at one energy."""
    return np.abs(np.concatenate(solve_full(spec, EnergyMode(E)))) ** 2


class TestEnergyMode:
    def test_wavenumber(self):
        assert EnergyMode(2.0).k == 2.0

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                EnergyMode(bad)

    def test_from_k_roundtrip(self):
        mode = EnergyMode.from_k(1.0)
        assert mode.E == 0.5


class TestSolveFull:
    def test_free_particle(self):
        A_T, A_R = solve_full(make_rectangular(0.0, 2.0, 0.0), EnergyMode(1.3))
        assert A_T.shape == A_R.shape == (1,)
        assert abs(A_T[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(A_R[0]) < 1e-12
        assert abs(A_T[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_canonical_closed_form(self):
        want = rectangular_transmission(0.5, 1.0, 2.0)
        assert weights(CANONICAL, 0.5)[0] == pytest.approx(want, rel=1e-13)
        # kappa = 1 here, so T = 1/(1 + sinh(2)^2)
        assert want == pytest.approx(1.0 / (1.0 + math.sinh(2.0) ** 2), rel=1e-14)

    def test_degenerate_energy_equals_height(self):
        T, _ = weights(CANONICAL, 1.0)
        assert T == pytest.approx(1.0 / (1.0 + 1.0 * 4.0 / 2.0), rel=1e-13)

    def test_closed_form_near_energy_equals_height(self):
        """E = 1 +/- m, m log-spaced over 1e-12...1e-2, either side of the
        pair form's switch at |q2| w^2 = 1e-5: T is within 1e-12 of the
        closed form (8e-12 with the switch at 1e-10)."""
        m = np.geomspace(1e-12, 1e-2, 101)
        E = np.concatenate((1.0 + m, 1.0 - m))
        T = np.abs(solve_block(ProblemBlock.of(CANONICAL, E))[0]) ** 2
        want = [rectangular_transmission(e, 1.0, 2.0) for e in E]
        np.testing.assert_allclose(T, want, rtol=1e-12, atol=0)

    def test_closed_form_across_regimes(self):
        for V0, L, E in [
            (0.25, 0.5, 0.1),
            (2.0, 3.0, 0.4),
            (2.0, 3.0, 6.0),
            (8.0, 8.0, 0.02),
            (5.0, 1.5, 5.0),
            # kappa L = 50, 150 and 290, down to T ~ 1e-252 near the opacity budget
            (1.0, 50.0, 0.5),
            (1.0, 150.0, 0.5),
            (1.0, 290.0, 0.5),
        ]:
            T, _ = weights(make_rectangular(V0, L, 0.0), E)
            assert T == pytest.approx(
                rectangular_transmission(E, V0, L), rel=1e-12
            ), (V0, L, E)

    def test_unitarity_log_grid(self):
        specs = [
            CANONICAL,
            make_piecewise(0.0, [(0.5, 0.9), (1.0, 3.1), (0.5, 0.9)]),
            PotentialSpec(a=0.0, segments=((1.0, 2.0), (0.5, -1.0), (0.25, 0.7))),
            PotentialSpec(a=-1.0, segments=((0.7, 1.3), (1.1, -0.4))),
        ]
        for spec in specs:
            for E in np.geomspace(0.01, 100.0, 40):
                T, R = weights(spec, float(E))
                assert abs(T + R - 1.0) < 1e-10


class TestBlock:
    # (V0, L, E): oscillating, pair-form (E = V0) and evanescent rows, the
    # last down to T ~ 1e-29
    ROWS = [(2.0, 3.0, 6.0), (5.0, 1.5, 5.5), (1.0, 2.0, 1.0), (4.0, 1.0, 4.0),
            (2.0, 3.0, 0.4), (1.0, 2.0, 0.5), (8.0, 8.0, 0.02)]

    def block(self):
        return ProblemBlock.of([make_rectangular(V0, L, 0.0) for V0, L, _ in self.ROWS],
                               [E for _, _, E in self.ROWS])

    def test_mixed_kinds_match_closed_form(self):
        problems = self.block()
        kinds = state_from_left(problems, 1.0, 0.0).kind[:, 0]
        assert set(kinds) == {stationary.PAIR, stationary.OSC, stationary.EVAN}
        T = np.abs(solve_block(problems)[0]) ** 2
        want = np.array([rectangular_transmission(E, V0, L) for V0, L, E in self.ROWS])
        assert np.min(want) < 1e-28
        np.testing.assert_allclose(T, want, rtol=1e-12, atol=0)

    def test_rows_equal_blocks_of_one(self):
        A_T, A_R = solve_block(self.block())
        for i, (V0, L, E) in enumerate(self.ROWS):
            one_T, one_R = solve_full(make_rectangular(V0, L, 0.0), EnergyMode(E))
            assert (one_T[0], one_R[0]) == (A_T[i], A_R[i])

    def test_opacity_overflow_names_its_row(self):
        specs = [make_rectangular(1.0, 2.0, 0.0), make_rectangular(900.0, 10.0, 0.0),
                 make_rectangular(1.0, 2.0, 0.0)]
        with pytest.raises(OpacityOverflow, match="at E = 0.1:"):
            solve_block(ProblemBlock.of(specs, [0.5, 0.1, 0.7]))


class TestFromArrays:
    """ProblemBlock.from_arrays applies PotentialSpec's rules row by row."""

    FIELDS = ("a", "b", "edges", "widths", "heights", "symmetric", "E", "k", "x_c", "q2")

    # nine 0.1 widths from a = -1: the sequential sum ends them at
    # -0.10000000000000009, numpy's pairwise np.sum at -0.09999999999999998
    NINE = PotentialSpec(a=-1.0, segments=tuple(
        (0.1, 0.2 * h) for h in (1, 2, 3, 4, 5, 4, 3, 2, 1)))
    BARRIERS = {
        "one-segment": [make_rectangular(1.0, 2.0, -1.0), make_rectangular(3.0, 0.7, 0.25)],
        "three-segment": [make_piecewise(-1.5, [(1.0, 0.5), (1.0, 0.25), (1.0, 0.5)]),
                          make_piecewise(0.3, [(0.4, 2.0), (1.7, -0.5), (0.4, 2.0)])],
        "nine-segment": [NINE, PotentialSpec(a=-2.5, segments=tuple(
            (w, 1.0) for w in (0.3, 0.7, 0.45, 0.15, 0.2, 0.15, 0.45, 0.7, 0.3)))],
        "asymmetric": [PotentialSpec(a=-1.0, segments=((0.7, 1.3), (1.1, -0.4))),
                       make_piecewise(0.0, [(0.5, 0.9), (0.5, 0.9)])],
    }

    @staticmethod
    def arrays(specs):
        segments = np.array([s.segments for s in specs])
        return [s.a for s in specs], segments[..., 0], segments[..., 1]

    @pytest.mark.parametrize("name", sorted(BARRIERS))
    def test_agrees_with_of_and_the_specs_bitwise(self, name):
        specs = self.BARRIERS[name]
        E = [0.5, 1.7]
        block = ProblemBlock.of(specs, E)
        arrays = ProblemBlock.from_arrays(*self.arrays(specs), E)
        for f in self.FIELDS:
            assert np.array_equal(getattr(block, f), getattr(arrays, f)), f
        # b is a + sum(widths) summed left to right, in the block and the spec
        b = [s.a + sum(w for w, _ in s.segments) for s in specs]
        assert np.array_equal(block.b, b) and [s.b for s in specs] == b
        assert np.array_equal(block.x_c, [s.x_c for s in specs])
        assert np.array_equal(block.edges, [s.edges() for s in specs])
        assert block.symmetric.tolist() == [s.symmetric for s in specs]
        assert block.symmetric.all() == (name != "asymmetric")

    def test_nine_widths_end_at_the_sequential_sum(self):
        widths = [w for w, _ in self.NINE.segments]
        assert -1.0 + sum(widths) != -1.0 + np.sum(widths)
        block = ProblemBlock.from_arrays(*self.arrays([self.NINE]), 0.5)
        assert block.b[0] == block.edges[0, -1] == self.NINE.b == -1.0 + sum(widths)

    def test_one_barrier_or_energy_serves_every_row(self):
        spec = self.BARRIERS["three-segment"][0]
        many_E = ProblemBlock.from_arrays(*self.arrays([spec]), [0.5, 0.7, 0.9])
        many_specs = ProblemBlock.from_arrays(*self.arrays([spec] * 3), 0.5)
        assert many_E.n == many_specs.n == 3
        assert np.array_equal(many_E.edges, many_specs.edges)
        with pytest.raises(ValueError, match="one energy or one per barrier"):
            ProblemBlock.from_arrays(*self.arrays([spec] * 3), [0.5, 0.7])

    @pytest.mark.parametrize("field, value, error", [
        ("width", 0.0, NonPositiveWidth), ("width", -1.0, NonPositiveWidth),
        ("width", math.inf, NonPositiveWidth), ("width", math.nan, NonPositiveWidth),
        ("a", math.inf, ValueError), ("a", math.nan, ValueError),
        ("height", -math.inf, ValueError), ("height", math.nan, ValueError)])
    def test_a_bad_row_raises_what_its_spec_raises(self, field, value, error):
        """Rows 1 and 2 are bad, differently: the message names row 1's values."""
        a, widths, heights = [-1.0, 0.0, 2.0], np.ones((3, 3)), np.full((3, 3), 0.5)
        if field == "a":
            a[1], heights[2, 0] = value, math.nan
        else:
            (widths if field == "width" else heights)[1, 2] = value
            (widths if field == "width" else heights)[2, 0] = value
        want = (f"got {widths[1].tolist()}" if field == "width"
                else f"got {a[1]}, {heights[1].tolist()}")
        for build in (lambda: PotentialSpec(a=a[1], segments=tuple(zip(widths[1], heights[1]))),
                      lambda: ProblemBlock.from_arrays(a, widths, heights, 0.5)):
            with pytest.raises(Exception) as got:
                build()
            assert type(got.value) is error
            assert str(got.value).endswith(want), (str(got.value), want)

    @pytest.mark.parametrize("E", [0.0, -1.0, math.inf, math.nan])
    def test_a_bad_energy_raises_what_energy_mode_raises(self, E):
        """Rows 1 and 2 are bad: the message names row 1's energy."""
        want = f"energy must be finite and positive, got {E}"
        with pytest.raises(ValueError) as got:
            EnergyMode(E)
        assert str(got.value) == want
        with pytest.raises(ValueError) as got:
            ProblemBlock.from_arrays([0.0, 1.0, 2.0], np.ones((3, 1)), np.ones((3, 1)),
                                     [0.5, E, -2.0])
        assert str(got.value) == want


def from_left(spec, mode, c_plus, c_minus, x):
    """Samples on x of the solution with left plane-wave pair (c+, c-)."""
    return state_from_left(ProblemBlock.of(spec, mode.E), c_plus, c_minus).values(x)


class TestEvaluateState:
    def test_free_plane_wave_exact(self):
        spec = make_rectangular(0.0, 2.0, 0.0)
        mode = EnergyMode(2.0)
        x = np.linspace(-3.0, 4.0, 257)
        values = from_left(spec, mode, 1.0, 0.0, x)
        np.testing.assert_allclose(values, np.exp(1j * mode.k * x), rtol=0, atol=1e-13)

    def test_solve_consistency_right_side(self):
        mode = EnergyMode(0.5)
        A_T, A_R = solve_full(CANONICAL, mode)
        x = np.linspace(1.0, 6.0, 101)
        values = from_left(CANONICAL, mode, 1.0, A_R, x)
        np.testing.assert_allclose(
            values, A_T * np.exp(1j * mode.k * x), rtol=0, atol=1e-10
        )

    def test_linearity(self):
        rng = np.random.default_rng(7)
        mode = EnergyMode(0.8)
        x = np.linspace(-4.0, 5.0, 301)
        for _ in range(5):
            a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = from_left(CANONICAL, mode, alpha * a1 + beta * a2, alpha * a2 + beta * a1, x)
            rhs = (
                alpha * from_left(CANONICAL, mode, a1, a2, x)
                + beta * from_left(CANONICAL, mode, a2, a1, x)
            )
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_against_ode_integration(self):
        """|psi| from the cascade matches direct RK integration, >= 10 specs."""
        rng = np.random.default_rng(11)
        for trial in range(10):
            n_seg = int(rng.integers(1, 4))
            widths = rng.uniform(0.4, 1.5, n_seg)
            heights = rng.uniform(-1.5, 2.5, n_seg)
            a = float(rng.uniform(-1.0, 0.5))
            spec = PotentialSpec(
                a=a, segments=tuple((float(w), float(h)) for w, h in zip(widths, heights))
            )
            E = float(rng.uniform(0.2, 4.0))
            mode = EnergyMode(E)
            A_R = solve_full(spec, mode)[1][0]
            x = np.linspace(spec.a - 5.0, spec.b + 5.0, 601)
            got = from_left(spec, mode, 1.0, A_R, x)

            k = mode.k
            psi0 = np.exp(1j * k * x[0]) + A_R * np.exp(-1j * k * x[0])
            dpsi0 = 1j * k * (np.exp(1j * k * x[0]) - A_R * np.exp(-1j * k * x[0]))
            edges = spec.edges()
            table = [
                (float(edges[i]), float(edges[i + 1]), h)
                for i, (_, h) in enumerate(spec.segments)
            ]
            want = integrate_stationary(spec.a, spec.b, table, E, psi0, dpsi0, x)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-6 * scale, trial


class TestStateCascades:
    def test_backward_matches_forward(self):
        problems = ProblemBlock.of(CANONICAL, 0.7)
        fwd = state_from_left(problems, 1.0, 0.25 - 0.1j)
        back = state_from_right(problems, fwd.right[0], fwd.right[1])
        x = np.linspace(-4.0, 4.0, 401)
        np.testing.assert_allclose(back.values(x), fwd.values(x), rtol=0, atol=1e-12)
        assert back.left[0] == pytest.approx(1.0, abs=1e-12)

    def test_derivative_consistent_with_fd(self):
        state = state_from_left(ProblemBlock.of(CANONICAL, 0.9), 1.0, 0.3j)
        x = np.linspace(-0.9, 0.9, 11)
        h = 1e-6
        fd = (state.values(x + h) - state.values(x - h)) / (2 * h)
        np.testing.assert_allclose(state.derivative(x), fd, rtol=1e-8, atol=1e-8)


def _masked_reference(state, x, deriv, row=0):
    """Per-state evaluation of one row of a state by boolean masks: plane
    waves left of a and from b on, each interior piece on [its left edge,
    the next one's)."""
    P = state.problems
    k, a, b = P.k[row], P.a[row], P.b[row]
    out = np.full(x.shape, np.nan, dtype=complex)
    for mask, (cp, cm) in ((x < a, state.left), (x >= b, state.right)):
        e = np.exp(1j * k * x[mask])
        out[mask] = (1j * k * (cp[row] * e - cm[row] * e.conj()) if deriv
                     else cp[row] * e + cm[row] * e.conj())
    xl, xr, q2, kind, c1, c2 = (v[row] for v in (state.xl, state.xr, state.q2, state.kind,
                                                  state.c1, state.c2))
    ends = list(xl[1:]) + [b]
    for j, end in enumerate(ends):
        m = (x >= xl[j]) & (x < end)
        out[m] = stationary._piece_field(kind[j], x[m] - xl[j], xr[j] - x[m], q2[j], c1[j],
                                         c2[j], deriv)
    return out


class TestSampleStates:
    # E equals the middle height, so that segment takes the pair form
    SPEC = make_piecewise(-1.5, [(1.0, 2.0), (1.0, 0.5), (1.0, 2.0)])
    EDGES = [-1.5, -0.5, 0.0, 0.5, 1.5]  # a, interior edge, x_c, interior edge, b

    def _states_and_grid(self):
        x = np.sort(np.concatenate([np.linspace(-3.05, 3.05, 62), self.EDGES]))
        dec = build_decomposition(self.SPEC, EnergyMode(0.5))
        states = (dec.full_state, dec.tr_state, dec.ref_state, dec.even_ref_state)
        return states, x

    def test_setup_covers_pair_form_and_split_middle(self):
        states, x = self._states_and_grid()
        assert stationary.PAIR in states[0].kind[0]
        # the midpoint cascades split the middle segment at x_c
        assert states[2].xl[0].tolist() == [-1.5, -0.5, 0.0, 0.5]
        assert np.all(np.isin(self.EDGES, x))

    # E = 0.5 puts the middle segment of the first barrier in the pair form,
    # of the second in the oscillating and of the third in the evanescent one
    BLOCK = [make_piecewise(-1.5, [(1.0, 2.0), (1.0, 0.5), (1.0, 2.0)]),
             make_piecewise(-2.2, [(0.4, 2.0), (2.0, 0.3), (0.4, 2.0)]),
             make_piecewise(-1.3, [(1.1, 0.2), (0.4, 3.0), (1.1, 0.2)])]

    def _block_states_and_grids(self):
        """A block of differently proportioned barriers, each row on its own
        shuffle of a shared grid and its barrier's edges and x_c."""
        rng = np.random.default_rng(7)
        base = np.linspace(-3.05, 3.05, 62)
        x = np.stack([rng.permutation(np.concatenate([base, spec.edges(), [spec.x_c]]))
                      for spec in self.BLOCK])
        dec = decompose_block(ProblemBlock.of(self.BLOCK, 0.5))
        return (dec.full_state, dec.tr_state, dec.ref_state, dec.even_ref_state), x

    @pytest.mark.parametrize("deriv", [False, True])
    def test_rows_equal_one_state_calls_bitwise(self, deriv):
        states, x = self._states_and_grid()
        rows = sample_states(states, x, deriv=deriv)
        assert rows.shape == (len(states), x.size)
        for row, state in zip(rows, states):
            single = state.derivative(x) if deriv else state.values(x)
            assert np.array_equal(row, single)
            assert np.array_equal(row, _masked_reference(state, x, deriv))
        # runs and kinds that differ per row, and no row sorted
        states, x = self._block_states_and_grids()
        assert not np.any(np.all(np.diff(x, axis=1) >= 0, axis=1))
        assert len({tuple(kinds) for kinds in states[0].kind}) == len(self.BLOCK)
        for state in states:
            rows = sample_states(state, x, deriv=deriv)
            for i, row in enumerate(rows):
                assert np.array_equal(row, _masked_reference(state, x[i], deriv, i))

    @pytest.mark.parametrize("deriv", [False, True])
    def test_reversed_grid_reverses_output(self, deriv):
        states, x = self._states_and_grid()
        rows = sample_states(states, x, deriv=deriv)
        assert np.array_equal(sample_states(states, x[::-1], deriv=deriv), rows[:, ::-1])


@settings(deadline=None, max_examples=60)
@given(
    v0=st.floats(min_value=0.0, max_value=8.0),
    length=st.floats(min_value=0.1, max_value=6.0),
    energy=st.floats(min_value=0.02, max_value=50.0),
)
def test_unitarity_property(v0, length, energy):
    T, R = weights(make_rectangular(v0, length, 0.0), energy)
    assert abs(T + R - 1.0) < 1e-10


def test_amplitude_invariant_enforced(monkeypatch):
    """A unit cascade whose left pair reads (1, 1) gives A_T = A_R = 1, so
    T + R = 2: the solve refuses it instead of returning it."""
    cascade = stationary.state_from_right

    def broken(*args):
        state = cascade(*args)
        state.left = (np.ones(1, dtype=complex), np.ones(1, dtype=complex))
        return state

    monkeypatch.setattr(stationary, "state_from_right", broken)
    with pytest.raises(SolveSingular, match="flux not conserved"):
        solve_full(CANONICAL, EnergyMode(0.5))
