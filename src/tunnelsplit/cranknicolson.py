"""Independent time-domain propagator used to validate the spectral
synthesis; never part of the main pipeline.

Unitary stepping of i d_t psi = H psi, H = -1/2 d_xx + V, on a hard-walled
box (van Dijk & Toyama, Phys. Rev. E 75, 036707, 2007): eighth order in dt;
in dx fourth order where V is smooth and second at its piecewise-constant
edges. A step applies the (4,4) Pade approximant of exp(-i H dt),
Q(-z) / Q(z) with z = H dt and

    Q(z) = 1 + iz/2 - 3z^2/28 - iz^3/84 + z^4/1680,

in factored form: each of Q's four roots w gives one Cayley factor

    (1 - z/conj(w)) / (1 - z/w) = r + (1 - r) (1 - z/w)^-1,   r = w/conj(w),

which has modulus 1 for Hermitian H. Crank-Nicolson is the (1,1)
approximant, w = 2i; this step keeps its Cayley form and its name.

In space, H is Numerov's compact operator H = -1/2 B^-1 D2 + V, with D2 the
three-point second difference and B = I + (dx^2/12) D2. H is real symmetric
because B and D2 commute, so the discrete norm is conserved. A factor
solves (B - (dt/w) BH) y = B psi, where BH = -1/2 D2 + B V is tridiagonal.
The roots come in exact pairs w, -conj(w), whose r multiply to 1, so a step
is also the product of each factor divided by its r: psi + A^-1 S psi, with
A = (i / (2 Im w)) (w S - dt K), S = 12 B the integer stencil (1, 10, 1)
and K = 12 BH. (An odd order has a purely imaginary root, r = -1, which
pairs with no other.) A's real part is exactly -S/2, so rounding A's
entries does not break its match with S psi, and the norm drifts at
roundoff on fine grids too. A is factored once per factor (LAPACK zgttrf,
in place); each factor of each step is one three-point sum for S psi, one
tridiagonal solve and an add. Where zgttrf interchanged no row (on every
barrier tried; a deep well can pivot) the solve is two banded sweeps (BLAS
ztbsv) around one multiply, with no division (`_solver`); else zgttrs. The
box must be oversized: a BoundaryContamination error reports probability
reaching the walls instead of silently absorbing it.

The routines are the objects `scipy.linalg.lapack` and `scipy.linalg.blas`
re-export, loaded from the files of scipy's compiled `_flapack` and
`_fblas` in about 4 ms: importing `scipy.linalg` takes 0.29-0.31 s, as it
loads numpy.f2py, numpy.testing and more.
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
# the roots w of the Pade denominator Q, one Cayley factor each, in pairs
# (w, -conj(w))
_ROOTS = (5.314836083713506 + 4.207578794359258j, -5.314836083713506 + 4.207578794359258j,
          1.734468257869016 + 5.792421205640742j, -1.734468257869016 + 5.792421205640742j)
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


# Largest E dt of the default step, E the top of the packet's spectrum:
# the (4,4) step's phase error there is 1.8e-5 rad per step (6.3e-3 at
# E dt = 4). Canonical's top, k = 1.4, takes dt 2.0 to t = 80.
DEFAULT_PHASE_STEP = 2.0


def _denominator(r: float) -> int | None:
    """The least q for which r q, r in [0, 1], lies within 1e-11 of a whole
    number: the denominator of the first convergent of r's continued
    fraction that near, or None within 40 terms."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    x = r
    for _ in range(40):
        a = math.floor(x)
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        if abs(r * q - p) <= 1e-11:
            return q
        if x == a:
            break
        x = 1.0 / (x - a)
    return None


def default_step(times, e_max: float) -> float | None:
    """The largest dt with e_max dt <= DEFAULT_PHASE_STEP on which each of
    `times` (>= 0, the last > 0) falls: t_last / m for the least whole m
    that is at least t_last e_max / DEFAULT_PHASE_STEP and a multiple of
    the denominator of each t / t_last. None when no such dt is found."""
    t_last = max(times)
    period = 1
    for t in times:
        q = _denominator(t / t_last)
        if q is None:
            return None
        period = math.lcm(period, q)
    need = t_last * e_max / DEFAULT_PHASE_STEP
    if not math.isfinite(need):
        return None
    dt = t_last / (period * max(1, math.ceil(need / period)))
    return dt if dt > 0 and all(step_index(t, dt) is not None for t in times) else None


@dataclass
class PropagationResult:
    samples: list[ComponentField]
    norm_drift: float
    wall_mass: float


def _scipy_path(*parts: str) -> str:
    """A path in scipy's package directory, found without importing scipy."""
    import importlib.util
    return os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], *parts)


def _module_from_file(name: str, path: str):
    """The module `name` run from its file at `path`, source or compiled,
    without importing its package or entering sys.modules."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scipy_version() -> str:
    """scipy.__version__, read from scipy's version.py without importing scipy."""
    return _module_from_file("scipy.version", _scipy_path("version.py")).version


def _tridiagonal_lapack(linalg_dir: str | None = None):
    """zgttrf and zgttrs, loaded from the file of scipy's compiled `_flapack`,
    and ztbsv from that of its `_fblas`, both in `linalg_dir` (default:
    scipy's, found without importing scipy). Both files are found before
    either is loaded."""
    linalg_dir = linalg_dir or _scipy_path("linalg")
    paths = {name: _compiled_path(name, linalg_dir) for name in ("_flapack", "_fblas")}
    lapack, blas = (_module_from_file("scipy.linalg." + name, path)
                    for name, path in paths.items())
    return lapack.zgttrf, lapack.zgttrs, blas.ztbsv


def _compiled_path(name: str, linalg_dir: str) -> str:
    """The file of scipy.linalg's compiled module `name` in `linalg_dir`."""
    import importlib.machinery
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, name + suffix)
        if os.path.isfile(path):
            return path
    raise ImportError(f"no compiled module {name} in {linalg_dir}")


def _solver(factored, zgttrs, ztbsv):
    """A function that returns the solution of a tridiagonal system for a
    right-hand side b, which it may overwrite, given zgttrf's output
    `factored` = (dl, d, du, du2, ipiv, info). When zgttrf interchanged no
    row, L and U are bidiagonal and U = D U1 with U1 unit: one
    Fortran-ordered band holds L's multipliers dl in row 1 and U1's
    superdiagonal du/d in row 0 (each sweep reads only the row off its unit
    diagonal), so a solve is two ztbsv sweeps around one multiply by 1/d
    and divides by no pivot. Else zgttrs solves."""
    dl, d, du, du2, ipiv, info = factored
    if info != 0:
        raise SolveSingular(f"Crank-Nicolson matrix is singular (zgttrf info {info})")
    if not np.array_equal(ipiv, np.arange(1, d.size + 1)):
        return lambda b: zgttrs(dl, d, du, du2, ipiv, b, overwrite_b=True)[0]
    band = np.zeros((2, d.size), dtype=complex, order="F")
    np.divide(du, d[:-1], out=band[0, 1:])
    band[1, :-1] = dl
    inv_d = 1.0 / d

    def solve(b):
        b = ztbsv(1, band, b, lower=1, diag=1, overwrite_x=1)
        b *= inv_d
        return ztbsv(1, band, b, diag=1, overwrite_x=1)
    return solve


def _factor_solvers(V, dx, dt):
    """One solve per Cayley factor, each returning A^-1 b on the interior
    of a grid of spacing dx with potential V. The diagonals that build
    each A die with this call, so the step loop holds only the factors."""
    zgttrf, zgttrs, ztbsv = _tridiagonal_lapack()
    # per factor, A = (r / (1 - r)) (S - (dt/w) K) = c S - i (dt / (2 Im w)) K
    # with c = i w / (2 Im w), S = s B and K = s BH under Dirichlet walls
    # with s = 12; its real part c.real S is exactly -S/2
    scale = _B_MAIN + 2.0 * _B_OFF
    k_main = scale / dx ** 2 + _B_MAIN * V[1:-1]
    k_lower, k_upper = (-0.5 * scale / dx ** 2 + _B_OFF * v for v in (V[1:-2], V[2:-1]))
    solvers = []
    for w in _ROOTS:
        c, tau = 1j * w / (2.0 * w.imag), dt / (2.0 * w.imag)
        lower, main, upper = (c.real * s + 1j * (c.imag * s - tau * k)
                              for s, k in ((_B_OFF, k_lower), (_B_MAIN, k_main),
                                           (_B_OFF, k_upper)))
        # factored in place: no factor holds a copy of its three diagonals
        factored = zgttrf(lower, main, upper, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        solvers.append(_solver(factored, zgttrs, ztbsv))
    return solvers


def propagation_bytes(n_x, fields: int) -> float:
    """Bytes of crank_nicolson_propagate on n_x points, `fields` complex
    fields of the grid held: eleven complex vectors' worth (psi, the
    right-hand side, x, V and K's three diagonals, real, the three that
    zgttrf factors, du2, ipiv and two temporaries), and a factor's band and
    1/d, three a factor (_solver)."""
    return 16.0 * (fields + 11 + 3 * SOLVES_PER_STEP) * n_x


def crank_nicolson_propagate(spec: PotentialSpec, initial: ComponentField,
                             grid: GridSpec, sample_times=()) -> PropagationResult:
    """Propagate `initial` (sampled on grid.x()) and return snapshots.

    Norm (discrete l2) is conserved to roundoff; the drift over the run is
    reported. Walls are hard zeros; more than CN_WALL_MASS probability
    within 5 points of a wall aborts the run.
    """
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

    psi = initial.values.astype(complex)
    psi[0] = psi[-1] = 0.0
    solvers = _factor_solvers(evaluate(spec, x), dx, grid.dt)

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
        for solve in solvers:
            # psi' = psi + A^-1 S psi; the solve may overwrite rhs
            np.multiply(inner, _B_MAIN, out=rhs)
            rhs += psi[:-2]
            rhs += psi[2:]
            inner += solve(rhs)
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
