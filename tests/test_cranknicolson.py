import importlib.machinery
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tunnelsplit import cranknicolson
from tunnelsplit.cranknicolson import (
    GridSpec,
    compare_fields,
    crank_nicolson_propagate,
    edge_potential,
    misaligned_edges,
    staggered_grid,
    step_index,
)
from tunnelsplit.errors import BoundaryContamination, GridMismatch
from tunnelsplit.packets import PacketSpec, synthesize
from tunnelsplit.potential import evaluate, make_piecewise, make_rectangular
from tunnelsplit.stationary import ComponentField

from _oracles import free_gaussian

FREE = make_rectangular(0.0, 1.0, 0.0)


def gaussian_field(x, t, k0=1.0, sigma_k=0.1, x0=-10.0):
    return ComponentField(x=x, values=free_gaussian(x, t, k0, sigma_k, x0))


def _q(z):
    """The (4,4) Pade denominator of exp(-iz), Q(z) = 1 + iz/2 - 3z^2/28
    - iz^3/84 + z^4/1680."""
    return np.polyval([1.0 / 1680.0, -1j / 84.0, -3.0 / 28.0, 0.5j, 1.0], z)


def _pade_error(spec, grid, sample_times):
    """The largest distance, at the sample times, between the propagation
    of a packet and the (4,4) Pade approximant of exp(-i H dt),
    Q(-z) / Q(z) with z = H dt, applied in the eigenbasis of the dense
    Numerov operator H (real symmetric, with the propagator's corrected
    potential, edge_potential). A dense solve with Q(z) itself
    would lose up to 1.1e-12 at dt 0.2 on these grids, Q(z) being
    ill-conditioned there; the eigenbasis loses none of that."""
    x = grid.x()
    initial = gaussian_field(x, 0.0, k0=1.2, sigma_k=0.4, x0=-4.0)
    result = crank_nicolson_propagate(spec, initial, grid, sample_times=sample_times)

    n = x.size - 2
    D2 = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
          + np.diag(np.ones(n - 1), -1)) / grid.dx ** 2
    B = np.eye(n) + grid.dx ** 2 / 12.0 * D2
    energies, modes = np.linalg.eigh(-0.5 * np.linalg.solve(B, D2)
                                     + np.diag(edge_potential(spec, x)[1:-1]))
    step = _q(-grid.dt * energies) / _q(grid.dt * energies)
    coefficients = modes.T @ initial.values[1:-1]
    error = 0.0
    for sample in result.samples:
        assert sample.values[0] == sample.values[-1] == 0.0
        want = modes @ (coefficients * step ** step_index(sample.t, grid.dt))
        error = max(error, np.max(np.abs(sample.values[1:-1] - want)))
    return error


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, n_x=2, dt=0.1, n_t=10)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, n_x=10, dt=-0.1, n_t=10)
        with pytest.raises(ValueError):
            GridSpec(x_min=1.0, x_max=0.0, n_x=10, dt=0.1, n_t=10)

    def test_spacing(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=201, dt=0.01, n_t=5)
        assert grid.dx == pytest.approx(0.01)
        assert grid.n_t * grid.dt == pytest.approx(0.05)


class TestPropagation:
    def test_zero_initial_stays_zero(self):
        grid = GridSpec(x_min=-10.0, x_max=10.0, n_x=401, dt=0.01, n_t=50)
        initial = ComponentField(x=grid.x(), values=np.zeros(401, dtype=complex))
        result = crank_nicolson_propagate(FREE, initial, grid, sample_times=[0.5])
        assert np.all(result.samples[0].values == 0.0)
        assert result.norm_drift == 0.0

    def test_norm_conserved_over_many_steps(self):
        grid = GridSpec(x_min=-60.0, x_max=60.0, n_x=1201, dt=0.002, n_t=10_000)
        initial = gaussian_field(grid.x(), 0.0, k0=1.0, sigma_k=0.2)
        result = crank_nicolson_propagate(FREE, initial, grid)
        assert result.norm_drift < 1e-10

    def test_free_packet_matches_closed_form(self):
        # box wide enough that the clipped tails sit below the target
        grid = GridSpec(x_min=-27.0, x_max=25.0, n_x=2601, dt=0.04, n_t=250)
        x = grid.x()
        initial = gaussian_field(x, 0.0, sigma_k=0.25)
        result = crank_nicolson_propagate(FREE, initial, grid, sample_times=[10.0])
        want = free_gaussian(x, 10.0, 1.0, 0.25, -10.0)
        assert np.max(np.abs(result.samples[0].values - want)) < 1e-6

    def test_wall_contamination_detected(self):
        grid = GridSpec(x_min=-15.0, x_max=15.0, n_x=601, dt=0.01, n_t=3000)
        initial = gaussian_field(grid.x(), 0.0, k0=1.0, sigma_k=0.2)
        with pytest.raises(BoundaryContamination):
            crank_nicolson_propagate(FREE, initial, grid)

    def test_initial_grid_mismatch(self):
        grid = GridSpec(x_min=-10.0, x_max=10.0, n_x=401, dt=0.01, n_t=10)
        initial = gaussian_field(np.linspace(-10.0, 10.0, 400), 0.0)
        with pytest.raises(GridMismatch):
            crank_nicolson_propagate(FREE, initial, grid)

    def test_order_8_steps_match_dense_pade_numerov(self):
        # four Cayley factors per step against the (4,4) Pade approximant
        # of exp(-i H dt), H the dense Numerov operator (8.9e-15)
        spec = make_rectangular(1.5, 2.0, -1.0)
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_x=241, dt=0.05, n_t=4)
        assert _pade_error(spec, grid, [0.1, 0.2]) < 1e-12

    def test_roots_are_the_pade_denominators_in_exact_pairs(self):
        # each factor's root lies in the upper half plane, so that 1 - z/w
        # is invertible for real z, and the roots pair as (w, -conj(w)),
        # whose r = w/conj(w) multiply to exactly 1
        roots = cranknicolson._ROOTS
        assert len(roots) == cranknicolson.SOLVES_PER_STEP == 4
        for w in roots:
            assert abs(_q(w)) < 1e-13 and w.imag > 0, w
        assert roots[0::2] == tuple(-w.conjugate() for w in roots[1::2])
        assert len(set(roots)) == 4

    @pytest.mark.parametrize("height, pivoted_solves", [
        (1.5, 0),  # a barrier: zgttrf interchanges no row
        (-100.0, 2),  # a deep well: zgttrf pivots in the two factors with Re w < 0
    ])
    def test_zgttrs_solves_only_where_zgttrf_pivots(self, monkeypatch, height, pivoted_solves):
        # a factor whose LU has no row interchange is solved by two ztbsv
        # sweeps, the others by zgttrs; both match the Pade approximant
        # (2.5e-14 for the barrier, 3.5e-14 for the well)
        zgttrf, zgttrs, ztbsv = cranknicolson._tridiagonal_lapack()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return zgttrs(*args, **kwargs)
        monkeypatch.setattr(cranknicolson, "_tridiagonal_lapack",
                            lambda: (zgttrf, counted, ztbsv))
        spec = make_rectangular(height, 2.0, -1.0)
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_x=241, dt=0.2, n_t=4)
        assert _pade_error(spec, grid, [0.4, 0.8]) < 1e-12
        assert len(calls) == pivoted_solves * grid.n_t

    def test_zgttrf_factors_each_factor_in_place(self, monkeypatch):
        # zgttrf overwrites the diagonals it is given with its dl, d and du,
        # so that no factor holds a second copy of them (0.5 MB of the
        # canonical propagation's peak)
        zgttrf, zgttrs, ztbsv = cranknicolson._tridiagonal_lapack()
        shared = []

        def checked(*diagonals, **kwargs):
            factored = zgttrf(*diagonals, **kwargs)
            shared.append([np.shares_memory(given, out)
                           for given, out in zip(diagonals, factored[:3])])
            return factored
        monkeypatch.setattr(cranknicolson, "_tridiagonal_lapack",
                            lambda: (checked, zgttrs, ztbsv))
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_x=241, dt=0.2, n_t=1)
        initial = gaussian_field(grid.x(), 0.0, k0=1.2, sigma_k=0.4, x0=-4.0)
        crank_nicolson_propagate(FREE, initial, grid, sample_times=[0.2])
        assert shared == [[True] * 3] * cranknicolson.SOLVES_PER_STEP

    def test_smallest_grid(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=-1.0, x_max=1.0, n_x=4, dt=0.1, n_t=1)
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, dt=0.1, n_t=3)
        initial = ComponentField(x=grid.x(), values=np.zeros(5, dtype=complex))
        result = crank_nicolson_propagate(FREE, initial, grid, sample_times=[0.3])
        assert np.all(result.samples[0].values == 0.0)

    def test_sample_time_must_hit_a_step(self):
        grid = GridSpec(x_min=-10.0, x_max=10.0, n_x=401, dt=0.01, n_t=100)
        initial = gaussian_field(grid.x(), 0.0, sigma_k=0.3)
        with pytest.raises(ValueError):
            crank_nicolson_propagate(FREE, initial, grid, sample_times=[0.505 / 2])


class TestConvergence:
    """Fourth order in dx and eighth order in dt against the closed-form
    free packet, on which V is smooth."""

    K0, SK, X0, T = 2.0, 0.25, -10.0, 5.0

    def _error(self, dx, dt):
        n = int(round(80.0 / dx))
        grid = GridSpec(x_min=-40.0, x_max=-40.0 + n * dx, n_x=n + 1,
                        dt=dt, n_t=int(round(self.T / dt)))
        x = grid.x()
        initial = ComponentField(x=x, values=free_gaussian(x, 0.0, self.K0, self.SK, self.X0))
        result = crank_nicolson_propagate(FREE, initial, grid, sample_times=[self.T])
        want = free_gaussian(x, self.T, self.K0, self.SK, self.X0)
        l2, _ = compare_fields(
            result.samples[0], ComponentField(x=x, values=want)
        )
        return l2

    def test_fourth_order_in_dx(self):
        errors = [self._error(dx, 0.005) for dx in (0.08, 0.04, 0.02)]
        order = np.log(errors[0] / errors[2]) / np.log(4.0)
        assert order > 3.9, errors

    def test_eighth_order_in_dt(self):
        # 5.87e-5, 2.64e-7 and 1.08e-9, order 7.86; the space error is
        # about 2e-11 at dx 0.0025, but 6e-9 at dx 0.01, which would hide
        # the smallest step's time error
        errors = [self._error(0.0025, dt) for dt in (0.625, 0.3125, 0.15625)]
        order = np.log(errors[0] / errors[2]) / np.log(4.0)
        assert order > 7.8, errors


# the resonant double barrier: height 1, widths 0.6 on either side of a
# 3.0-wide well, four edges at a, a + 0.6, a + 3.6 and b = a + 4.2
DOUBLE = [[0.6, 1.0], [3.0, 0.0], [0.6, 1.0]]


class TestEdgeCorrection:
    """The corrected potential beside each barrier edge (edge_potential)
    makes the edges third order in dx, against the second order of the
    plain samples, on every edge of a barrier."""

    def test_each_edge_moves_its_two_neighbours_by_a_24th_of_its_jump(self):
        # on the double barrier's default grid every edge lies half a cell
        # from two points, and only those eight move, each toward the far side
        spec = make_piecewise(-9.0, DOUBLE)
        x = staggered_grid(spec, -20.0, 5.0, 0.075, 1.0, 1.0).x()
        moved = edge_potential(spec, x) - evaluate(spec, x)
        left = np.searchsorted(x, spec.edges()) - 1
        assert np.flatnonzero(moved).tolist() == sorted([*left, *(left + 1)])
        jumps = np.array([1.0, -1.0, 1.0, -1.0])
        np.testing.assert_allclose(moved[left], jumps / 24.0, rtol=1e-12)
        np.testing.assert_allclose(moved[left + 1], -jumps / 24.0, rtol=1e-12)

    def test_a_point_beside_two_edges_takes_both_moves(self):
        # a segment one cell wide: its one point is beside both its edges
        spec = make_piecewise(0.0, [[1.0, 1.0], [0.1, 3.0], [1.0, 1.0]])
        x = staggered_grid(spec, -1.0, 3.0, 0.1, 1.0, 1.0).x()
        middle = int(np.argmin(np.abs(x - 1.05)))
        moved = edge_potential(spec, x) - evaluate(spec, x)
        assert moved[middle] == pytest.approx(-2.0 / 24.0 - 2.0 / 24.0)

    @pytest.mark.parametrize("segments", [[[2.0, 1.0]], DOUBLE], ids=["canonical", "double"])
    def test_third_order_at_the_edges(self, segments):
        # the canonical packet at t = 40 with margins 120 / 160 and dt 0.5,
        # where neither the walls nor the step shows: l2 1.04e-4, 1.28e-5,
        # 1.75e-6 and 2.58e-7 at dx 0.2 to 0.025 on canonical (halving
        # ratios 8.1, 7.3, 6.8), 1.57e-4, 1.96e-5, 2.60e-6 and 3.61e-7 on
        # the double barrier (8.0, 7.6, 7.2). The plain samples' ratios read
        # 4.0 on both, and so do the double barrier's with any one of its
        # four edges left uncorrected
        spec = make_piecewise(-9.0, segments)
        packet = PacketSpec(k0=1.0, sigma_k=0.05, x0=-60.0)
        errors = []
        for dx in (0.2, 0.1, 0.05, 0.025):
            grid = staggered_grid(spec, packet.x0 - 120.0, spec.b + 160.0, dx, 0.5, 40.0)
            start, end = synthesize(spec, packet, "full", [0.0, 40.0], grid.x())
            result = crank_nicolson_propagate(spec, start, grid, sample_times=[40.0])
            assert result.norm_drift < 1e-12
            errors.append(compare_fields(end, result.samples[0])[0])
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert min(ratios) > 6.0, (errors, ratios)
        assert np.log2(errors[0] / errors[-1]) / 3 > 2.7, errors


class TestCompareFields:
    def test_self_distance_zero(self):
        x = np.linspace(-5.0, 5.0, 301)
        f = gaussian_field(x, 0.0, sigma_k=0.3)
        l2, linf = compare_fields(f, f)
        assert l2 < 1e-15 and linf < 1e-15

    def test_phase_gauge_invariance(self):
        x = np.linspace(-5.0, 5.0, 301)
        f = gaussian_field(x, 0.0, sigma_k=0.3)
        g = ComponentField(x=x, values=np.exp(1.3j) * f.values)
        l2, linf = compare_fields(f, g)
        assert l2 < 1e-14 and linf < 1e-14

    def test_grid_mismatch(self):
        f = gaussian_field(np.linspace(-5, 5, 100), 0.0, sigma_k=0.3)
        g = gaussian_field(np.linspace(-5, 5, 101), 0.0, sigma_k=0.3)
        with pytest.raises(GridMismatch):
            compare_fields(f, g)


class TestStaggeredGrid:
    def test_edges_fall_between_points(self):
        spec = make_rectangular(1.0, 2.0, -9.0)
        grid = staggered_grid(spec, -120.0, 95.0, 0.01, 0.01, 80.0)
        x = grid.x()
        assert x[0] <= -120.0
        assert x[-1] >= 95.0
        for edge in (spec.a, spec.b):
            offsets = (edge - x[0]) / grid.dx
            assert abs(offsets - round(offsets) - 0.0) != 0.0  # not on a point
            frac = offsets - np.floor(offsets)
            assert frac == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("dx", [0.02, 1 / 48, 0.005, 2.0])
    def test_dx_dividing_the_width_aligns(self, dx):
        assert misaligned_edges(make_rectangular(1.0, 2.0, -9.0), dx) is None

    @pytest.mark.parametrize("dx, nearest", [
        (0.021, "0.0210526315789"),  # 2/95: b lies 95.24 cells from a
        (0.019, "0.0190476190476"),  # 2/105
        (0.0202, "0.020202020202"),  # 2/99
        (0.3, "0.285714285714"),  # 2/7
    ])
    def test_misaligned_dx_names_the_nearest_aligning_dx(self, dx, nearest):
        problem = misaligned_edges(make_rectangular(1.0, 2.0, -9.0), dx)
        assert "x = -7 " in problem and problem.endswith(f"aligns every edge is {nearest}")
        grid = staggered_grid(make_rectangular(1.0, 2.0, -9.0), -20.0, 20.0, float(nearest),
                              0.1, 1.0)
        assert misaligned_edges(make_rectangular(1.0, 2.0, -9.0), grid.dx) is None

    def test_every_edge_counts(self):
        # distances 0.1, 0.3 and 0.4 from a: 0.1/m aligns them all
        spec = make_piecewise(0.3, [[0.1, 1.0], [0.2, 0.5], [0.1, 1.0]])
        assert misaligned_edges(spec, 0.02) is None
        assert misaligned_edges(spec, 0.07).endswith("aligns every edge is 0.05")
        # 0.2 aligns b but not the inner edge at 0.1 from a
        assert "x = 0.4 " in misaligned_edges(spec, 0.2)

    @pytest.mark.parametrize("segments, dx", [
        ([[1.0, 1.0], [2.0 ** 0.5, 0.5], [1.0, 1.0]], 0.02),  # incommensurate edges
        ([[2.0, 1.0]], 5.0),  # the width is 0.4 cells
    ])
    def test_no_aligning_dx_nearby_says_so(self, segments, dx):
        problem = misaligned_edges(make_piecewise(0.0, segments), dx)
        assert problem.endswith(f"no dx between {dx / 2:g} and {2 * dx:g} aligns every edge")


class TestLapackLoader:
    """The propagator loads LAPACK and BLAS routines from the files of
    scipy's compiled `_flapack` and `_fblas` rather than importing
    scipy.linalg."""

    def test_loads_the_objects_scipy_linalg_exports(self):
        # scipy.linalg imported first (this process) and afterwards (a fresh one)
        from scipy.linalg import blas, lapack
        zgttrf, zgttrs, ztbsv = cranknicolson._tridiagonal_lapack()
        assert zgttrf is lapack.zgttrf and zgttrs is lapack.zgttrs and ztbsv is blas.ztbsv
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tunnelsplit.cranknicolson import _tridiagonal_lapack; "
             "loaded = _tridiagonal_lapack(); assert 'scipy.linalg' not in sys.modules; "
             "from scipy.linalg import blas, lapack; "
             "print(all(a is b for a, b in zip(loaded, "
             "(lapack.zgttrf, lapack.zgttrs, blas.ztbsv), strict=True)))"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "True"

    def test_propagation_is_bitwise_that_of_scipy_linalg(self, monkeypatch):
        spec = make_rectangular(1.0, 2.0, -9.0)  # the canonical barrier
        grid = staggered_grid(spec, -30.0, 20.0, dx=0.02, dt=0.2, t_max=4.0)
        initial = gaussian_field(grid.x(), 0.0, k0=1.0, sigma_k=0.2, x0=-15.0)
        times = [2.0, 4.0]
        loaded = crank_nicolson_propagate(spec, initial, grid, sample_times=times)
        from scipy.linalg import blas, lapack
        monkeypatch.setattr(cranknicolson, "_tridiagonal_lapack",
                            lambda: (lapack.zgttrf, lapack.zgttrs, blas.ztbsv))
        imported = crank_nicolson_propagate(spec, initial, grid, sample_times=times)
        for a, b in zip(loaded.samples, imported.samples, strict=True):
            assert a.t == b.t
            np.testing.assert_array_equal(a.values, b.values)
        assert (loaded.norm_drift, loaded.wall_mass) == (imported.norm_drift,
                                                         imported.wall_mass)

    def test_missing_module_names_the_directory(self, tmp_path):
        with pytest.raises(ImportError, match=f"_flapack in {re.escape(str(tmp_path))}$"):
            cranknicolson._tridiagonal_lapack(str(tmp_path))
        # _flapack without _fblas: neither is loaded
        (tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])).touch()
        with pytest.raises(ImportError, match=f"_fblas in {re.escape(str(tmp_path))}$"):
            cranknicolson._tridiagonal_lapack(str(tmp_path))
