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
    misaligned_edges,
    staggered_grid,
)
from tunnelsplit.errors import BoundaryContamination, GridMismatch
from tunnelsplit.potential import evaluate, make_piecewise, make_rectangular
from tunnelsplit.stationary import ComponentField

from _oracles import free_gaussian

FREE = make_rectangular(0.0, 1.0, 0.0)


def gaussian_field(x, t, k0=1.0, sigma_k=0.1, x0=-10.0):
    return ComponentField(x=x, values=free_gaussian(x, t, k0, sigma_k, x0))


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

    def test_order_4_steps_match_dense_pade_numerov(self):
        # two Cayley factors per step against a dense solve of the (2,2)
        # Pade approximant of exp(-i H dt), H the Numerov operator
        spec = make_rectangular(1.5, 2.0, -1.0)
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_x=241, dt=0.05, n_t=4)
        x = grid.x()
        initial = gaussian_field(x, 0.0, k0=1.2, sigma_k=0.4, x0=-4.0)
        result = crank_nicolson_propagate(spec, initial, grid, sample_times=[0.1, 0.2])

        n = x.size - 2
        D2 = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
              + np.diag(np.ones(n - 1), -1)) / grid.dx ** 2
        B = np.eye(n) + grid.dx ** 2 / 12.0 * D2
        z = grid.dt * (-0.5 * np.linalg.solve(B, D2) + np.diag(evaluate(spec, x)[1:-1]))
        lhs = np.eye(n) + 0.5j * z - z @ z / 12.0
        rhs = np.eye(n) - 0.5j * z - z @ z / 12.0
        inner = initial.values[1:-1].astype(complex)
        for sample in result.samples:
            for _ in range(2):
                inner = np.linalg.solve(lhs, rhs @ inner)
            assert sample.values[0] == sample.values[-1] == 0.0
            assert np.max(np.abs(sample.values[1:-1] - inner)) < 1e-12

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
    """Fourth order in dx and in dt against the closed-form free packet."""

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

    def test_fourth_order_in_dt(self):
        errors = [self._error(0.01, dt) for dt in (0.2, 0.1, 0.05)]
        order = np.log(errors[0] / errors[2]) / np.log(4.0)
        assert order > 3.9, errors


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
    """The propagator loads LAPACK from scipy's compiled `_flapack` file
    rather than importing scipy.linalg."""

    def test_loads_the_objects_scipy_linalg_exports(self):
        # scipy.linalg imported first (this process) and afterwards (a fresh one)
        from scipy.linalg import lapack
        zgttrf, zgttrs = cranknicolson._tridiagonal_lapack()
        assert zgttrf is lapack.zgttrf and zgttrs is lapack.zgttrs
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tunnelsplit.cranknicolson import _tridiagonal_lapack; "
             "pair = _tridiagonal_lapack(); assert 'scipy.linalg' not in sys.modules; "
             "from scipy.linalg import lapack; "
             "print(pair[0] is lapack.zgttrf and pair[1] is lapack.zgttrs)"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "True"

    def test_propagation_is_bitwise_that_of_scipy_linalg(self, monkeypatch):
        spec = make_rectangular(1.0, 2.0, -9.0)  # the canonical barrier
        grid = staggered_grid(spec, -30.0, 20.0, dx=0.02, dt=0.2, t_max=4.0)
        initial = gaussian_field(grid.x(), 0.0, k0=1.0, sigma_k=0.2, x0=-15.0)
        times = [2.0, 4.0]
        loaded = crank_nicolson_propagate(spec, initial, grid, sample_times=times)
        from scipy.linalg import lapack
        monkeypatch.setattr(cranknicolson, "_tridiagonal_lapack",
                            lambda: (lapack.zgttrf, lapack.zgttrs))
        imported = crank_nicolson_propagate(spec, initial, grid, sample_times=times)
        for a, b in zip(loaded.samples, imported.samples, strict=True):
            assert a.t == b.t
            np.testing.assert_array_equal(a.values, b.values)
        assert (loaded.norm_drift, loaded.wall_mass) == (imported.norm_drift,
                                                         imported.wall_mass)

    def test_missing_module_names_the_directory(self, tmp_path):
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            cranknicolson._tridiagonal_lapack(str(tmp_path))
