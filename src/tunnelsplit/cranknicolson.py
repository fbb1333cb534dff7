"""Independent time-domain propagator used to validate the spectral
synthesis; never part of the main pipeline.

Unitary stepping of i d_t psi = H psi, H = -1/2 d_xx + V, on a hard-walled
box, fourth order in dt and in dx (van Dijk & Toyama, Phys. Rev. E 75,
036707, 2007). A step applies the (2,2) Pade approximant of exp(-i H dt),
(1 - iz/2 - z^2/12) / (1 + iz/2 - z^2/12) with z = H dt, in factored form:
each root w = 3i +/- sqrt(3) of its denominator gives one Cayley factor

    (1 - z/conj(w)) / (1 - z/w) = r + (1 - r) (1 - z/w)^-1,   r = w/conj(w),

which has modulus 1 for Hermitian H. Crank-Nicolson is the (1,1)
approximant, w = 2i; this step keeps its Cayley form and its name.

In space, H is Numerov's compact operator H = -1/2 B^-1 D2 + V, with D2 the
three-point second difference and B = I + (dx^2/12) D2. H is real symmetric
because B and D2 commute, so the discrete norm is conserved. A factor
solves (B - (dt/w) BH) y = B psi, where BH = -1/2 D2 + B V is tridiagonal.
Its matrix, scaled by s / (1 - r) with s = 12 (so that s B psi is the
integer stencil (1, 10, 1)) and y then (1 - r) (1 - z/w)^-1 psi, is
factored once (LAPACK zgttrf); each factor of each step is one three-point
sum for s B psi, one tridiagonal solve (zgttrs) and an axpy. The box must
be oversized: a BoundaryContamination error reports probability reaching
the walls instead of silently absorbing it.

Both routines are the objects `scipy.linalg.lapack` re-exports, loaded from
the file of scipy's compiled `_flapack` in about 5 ms: importing
`scipy.linalg` takes 0.29-0.31 s, as it loads numpy.f2py, numpy.testing
and more.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContamination, GridMismatch, SolveSingular
from .potential import PotentialSpec, evaluate
from .stationary import ComponentField
from .tolerances import CN_NORM_DRIFT, CN_WALL_MASS

_WALL_POINTS = 5

# B's stencil (off, main, off), whose row sums to B's scale s = 12
_B_OFF, _B_MAIN = 1.0, 10.0
# the roots w of the Pade denominator, one Cayley factor each
_ROOTS = (math.sqrt(3.0) + 3j, -math.sqrt(3.0) + 3j)
# tridiagonal solves per step
SOLVES_PER_STEP = len(_ROOTS)


@dataclass(frozen=True)
class GridSpec:
    """Space-time discretization of one propagation run."""

    x_min: float
    x_max: float
    n_x: int
    dt: float
    n_t: int

    def __post_init__(self):
        if self.n_x < 5:
            # LAPACK's tridiagonal wrappers need at least 3 interior unknowns
            raise ValueError("need at least 5 grid points")
        if self.dt <= 0 or self.n_t < 0:
            raise ValueError("time stepping must move forward")
        if self.x_max <= self.x_min:
            raise ValueError("empty spatial domain")

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)


def step_index(t: float, dt: float) -> int | None:
    """The step at which time t falls in steps of dt, or None when t is no
    multiple of dt (more than 1e-9 of a step off the nearest one)."""
    step = t / dt
    step_i = int(round(step))
    return step_i if abs(step - step_i) <= 1e-9 else None


@dataclass
class PropagationResult:
    samples: list[ComponentField]
    norm_drift: float
    wall_mass: float


def _tridiagonal_lapack(linalg_dir: str | None = None):
    """zgttrf and zgttrs, loaded from the file of scipy's compiled `_flapack`
    in `linalg_dir` (default: scipy's, found without importing scipy)."""
    import importlib.machinery
    import importlib.util
    linalg_dir = linalg_dir or os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
            spec = importlib.util.spec_from_loader(loader.name, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module.zgttrf, module.zgttrs
    raise ImportError(f"no compiled LAPACK module _flapack in {linalg_dir}")


def crank_nicolson_propagate(spec: PotentialSpec, initial: ComponentField,
                             grid: GridSpec, sample_times=()) -> PropagationResult:
    """Propagate `initial` (sampled on grid.x()) and return snapshots.

    Norm (discrete l2) is conserved to roundoff; the drift over the run is
    reported. Walls are hard zeros; more than CN_WALL_MASS probability
    within 5 points of a wall aborts the run.
    """
    zgttrf, zgttrs = _tridiagonal_lapack()
    x = grid.x()
    if initial.x.shape != x.shape or not np.allclose(initial.x, x, rtol=0, atol=1e-12):
        raise GridMismatch("initial field is not sampled on the propagation grid")
    dx = grid.dx
    sample_steps = {}
    for t in sample_times:
        step_i = step_index(t, grid.dt)
        if step_i is None or not (0 <= step_i <= grid.n_t):
            raise ValueError(f"sample time {t} is not a multiple of dt within the run")
        sample_steps.setdefault(step_i, float(t))

    V = evaluate(spec, x)
    psi = initial.values.astype(complex).copy()
    psi[0] = psi[-1] = 0.0

    # per factor, s (B + a BH) / (1 - r) on the interior, with s = B's scale,
    # a = -dt/w and BH = -1/2 D2 + B V under Dirichlet walls
    scale = _B_MAIN + 2.0 * _B_OFF
    factors = []
    for w in _ROOTS:
        a, r = -grid.dt / w, w / w.conjugate()
        main = (_B_MAIN + a * (scale / dx ** 2 + _B_MAIN * V[1:-1])) / (1.0 - r)
        lower, upper = ((_B_OFF + a * (-0.5 * scale / dx ** 2 + _B_OFF * v)) / (1.0 - r)
                        for v in (V[1:-2], V[2:-1]))
        *lu, info = zgttrf(lower, main, upper)
        if info != 0:
            raise SolveSingular(f"Crank-Nicolson matrix is singular (zgttrf info {info})")
        factors.append((r, lu))

    def norm_of(arr):
        return math.sqrt(dx * np.vdot(arr, arr).real)

    head, tail = psi[:_WALL_POINTS], psi[-_WALL_POINTS:]

    def wall_mass():
        return dx * float(np.vdot(head, head).real + np.vdot(tail, tail).real)

    norm0 = norm_of(psi)
    max_drift = 0.0
    max_wall = wall_mass()
    samples = []

    def record(step_i):
        if step_i in sample_steps:
            samples.append(ComponentField(x=x, values=psi.copy(), t=sample_steps[step_i]))

    record(0)
    inner = psi[1:-1]  # a view: the update writes straight into psi
    rhs = np.empty_like(inner)
    for step in range(1, grid.n_t + 1):
        for r, lu in factors:
            # psi' = r psi + y, y solved from s B psi; the solve overwrites
            # rhs and returns it
            np.multiply(inner, _B_MAIN, out=rhs)
            rhs += psi[:-2]
            rhs += psi[2:]
            solved, _ = zgttrs(*lu, rhs, overwrite_b=True)
            inner *= r
            inner += solved
        wall = wall_mass()
        if wall > max_wall:
            max_wall = wall
        if wall > CN_WALL_MASS:
            raise BoundaryContamination(
                f"{wall:.3e} probability within {_WALL_POINTS} points of a wall "
                f"at step {step} (t = {step * grid.dt:.3f})"
            )
        drift = abs(norm_of(psi) - norm0)
        if drift > max_drift:
            max_drift = drift
        record(step)

    if norm0 > 0 and max_drift > 100 * CN_NORM_DRIFT:
        # stepping is unconditionally unitary; a real drift means a bug
        raise SolveSingular(f"norm drifted by {max_drift:.3e}; propagation inconsistent")
    return PropagationResult(samples=samples, norm_drift=max_drift, wall_mass=max_wall)


def staggered_grid(spec: PotentialSpec, x_min_target: float, x_max_target: float,
                   dx: float, dt: float, t_max: float) -> GridSpec:
    """Propagation grid whose cells are aligned so the barrier's left edge
    (and every edge at an integer number of dx from it) falls exactly
    between two grid points.

    Pointwise sampling then sees each step centered on a cell boundary,
    which restores second-order accuracy at the potential jumps; an edge
    off the half-cell grid loses it (see `misaligned_edges`).
    """
    n_left = int(math.ceil((spec.a - x_min_target) / dx - 0.5))
    x_min = spec.a - dx * (n_left + 0.5)
    n_cells = int(math.ceil((x_max_target - x_min) / dx))
    return GridSpec(
        x_min=x_min,
        x_max=x_min + dx * n_cells,
        n_x=n_cells + 1,
        dt=dt,
        n_t=int(round(t_max / dt)),
    )


def _cells_off(spec: PotentialSpec, dx: float) -> np.ndarray:
    """Each edge's distance, in cells of dx, from the half-cell grid that
    staggered_grid lays through `a`."""
    cells = (spec.edges() - spec.a) / dx
    return np.abs(cells - np.round(cells))


def misaligned_edges(spec: PotentialSpec, dx: float) -> str | None:
    """None when every edge lies within 1e-9 of a cell of the half-cell
    grid; else which edge is off, and the nearest dx between dx/2 and
    2 dx that aligns every edge. Such a dx divides each edge's distance
    d_i from `a`: it is g/m for a whole m, where g = d_min / lcm(q_i) and
    d_i/d_min = p_i/q_i in lowest terms."""
    off = _cells_off(spec, dx)
    if off.max() <= 1e-9:
        return None
    from fractions import Fraction  # imported here: it loads decimal, 0.4 MB of RSS
    edge = spec.edges()[int(np.argmax(off))]
    problem = (f"the edge at x = {edge:.10g} lies {(edge - spec.a) / dx:.6g} cells of "
               f"dx = {dx:.10g} from a = {spec.a:.10g}, off the half-cell grid")
    distances = spec.edges()[1:] - spec.a
    d_min = float(distances.min())
    lcm = 1
    for d in distances:
        ratio = Fraction(float(d) / d_min).limit_denominator(math.ceil(2.0 * d_min / dx))
        lcm = math.lcm(lcm, ratio.denominator)
    g = d_min / lcm
    nearest = min((g / m for m in (max(1, math.floor(g / dx)), math.ceil(g / dx))),
                  key=lambda c: abs(c - dx))
    if 0.5 * dx <= nearest <= 2.0 * dx and _cells_off(spec, nearest).max() <= 1e-9:
        return f"{problem}; the nearest dx that aligns every edge is {nearest:.12g}"
    return f"{problem}; no dx between {0.5 * dx:.6g} and {2.0 * dx:.6g} aligns every edge"


def compare_fields(a: ComponentField, b: ComponentField) -> tuple[float, float]:
    """Global-phase-insensitive (l2, linf) distance between two fields."""
    if a.x.shape != b.x.shape or not np.array_equal(a.x, b.x):
        raise GridMismatch("fields live on different grids")
    inner = np.trapezoid(np.conj(b.values) * a.values, a.x)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    diff = a.values - phase * b.values
    l2 = math.sqrt(float(np.trapezoid(np.abs(diff) ** 2, a.x)))
    linf = float(np.max(np.abs(diff)))
    return l2, linf
