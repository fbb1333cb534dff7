"""Independent time-domain propagator used to validate the spectral
synthesis; never part of the main pipeline.

Unitary stepping of i d_t psi = H psi, H = -1/2 d_xx + V, on a hard-walled
box (van Dijk & Toyama, Phys. Rev. E 75, 036707, 2007): eighth order in dt;
in dx fourth order where V is smooth and third at its piecewise-constant
edges, whose two neighbouring points carry a symmetric correction of V
(`edge_potential`; second order without it). A step applies the (4,4)
Pade approximant of exp(-i H dt), Q(-z) / Q(z) with z = H dt and

    Q(z) = 1 + iz/2 - 3z^2/28 - iz^3/84 + z^4/1680,

in factored form: each of Q's four roots w gives one Cayley factor

    (1 - z/conj(w)) / (1 - z/w) = r + (1 - r) (1 - z/w)^-1,   r = w/conj(w),

which has modulus 1 for Hermitian H. Crank-Nicolson is the (1,1)
approximant, w = 2i; this step keeps its Cayley form and its name.

In space, H is Numerov's compact operator H = -1/2 B^-1 D2 + V, with D2 the
three-point second difference and B = I + (dx^2/12) D2. H is real symmetric
because B and D2 commute and V is diagonal, so the discrete norm is
conserved. A factor solves (B - (dt/w) BH) y = B psi, where BH = -1/2 D2
+ B V is tridiagonal. The roots come in exact pairs w, -conj(w), whose r
multiply to 1, so a step is also the product of each factor divided by
its r: psi + A^-1 S psi, with A = (i / (2 Im w)) (w S - dt K), S = 12 B
the integer stencil (1, 10, 1) and K = 12 BH. (An odd order has a purely
imaginary root, r = -1, which pairs with no other.) A's real part is
exactly -S/2, so rounding A's entries does not break its match with S psi,
and the norm drifts at roundoff on fine grids too. A is factored once per
factor (LAPACK zgttrf, in place); each factor of each step is one
three-point sum for S psi, one tridiagonal solve and an add. Where zgttrf
interchanged no row (on every barrier tried; a deep well can pivot) the
solve is two banded sweeps (BLAS ztbsv) around one multiply, with no
division (`_solver`); else zgttrs. The box must be oversized: a
BoundaryContamination error reports probability reaching the walls
instead of silently absorbing it.

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
from .tolerances import CN_NORM_DRIFT, CN_WALL_MASS, ORACLE_L2

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
# the (4,4) step's phase error per step grows as (E dt)^9, so the move of
# l2 when dt halves grows as (E dt)^8. On canonical's default grid (dx
# 0.08, corrected edges) halving dt moves the t = 40 / 80 l2 by 1.9 % /
# 25 % at E dt 1.96 (dt 2.0), 0.04 % / 1.4 % at 1.40 (dt 80/56), 0.02 % /
# 0.37 % at 1.19 (dt 80/66, this default) and 0.03 % / 0.09 % at 0.98
# (dt 1.0), against the 1 % that says the oracle measures its space error.
DEFAULT_PHASE_STEP = 1.2


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


def _period(ratios, most: float = math.inf) -> int | None:
    """The least common multiple of the denominators (_denominator) of
    `ratios`, each in [0, 1], or None when one has none or it exceeds
    `most`."""
    period = 1
    for r in ratios:
        q = _denominator(r)
        if q is None or (period := math.lcm(period, q)) > most:
            return None
    return period


def default_step(times, e_max: float) -> float | None:
    """The largest dt with e_max dt <= DEFAULT_PHASE_STEP on which each of
    `times` (>= 0, the last > 0) falls: t_last / m for the least whole m
    that is at least t_last e_max / DEFAULT_PHASE_STEP and a multiple of
    the denominator of each t / t_last. None when no such dt is found."""
    t_last = max(times)
    period = _period(t / t_last for t in times)
    need = t_last * e_max / DEFAULT_PHASE_STEP
    if period is None or not math.isfinite(need):
        return None
    dt = t_last / (period * max(1, math.ceil(need / period)))
    return dt if dt > 0 and all(step_index(t, dt) is not None for t in times) else None


# Points per shortest local wavelength of the default oracle.dx. With the
# edges corrected to third order, canonical at 56 (dx 0.08, K = k_max =
# 1.4) reads l2 6.7e-6 / 5.6e-6 at t = 40 / 80 at its default step and
# margins, against ORACLE_L2 = 1e-3 and 3.7e-5 / 3.1e-5 at the second-order
# edges' dx 0.02. Numerov's phase error at the shortest wavelength is then
# 3.3e-7 K^2 t rad (k^6 dx^4 t / 480).
DEFAULT_POINTS_PER_WAVELENGTH = 56


def default_spacing(spec: PotentialSpec, k_min: float, k_max: float) -> float:
    """The default oracle.dx: the largest dx that puts every edge on the
    half-cell grid (misaligned_edges), leaves every segment at least two
    cells wide, and gives the shortest local wavelength 2 pi / K at least
    DEFAULT_POINTS_PER_WAVELENGTH points. K^2 is the largest |k^2 - 2 V|
    for k in [k_min, k_max] and V a segment's height or 0 outside: the
    fastest wave or the steepest evanescent decay. When no aligning dx lies
    between half that bound and the bound, the bound itself, which
    oracle-check then rejects with the nearest aligning dx, if any."""
    heights = np.append(spec.heights(), 0.0)
    wavenumber = math.sqrt(max(np.abs(k * k - 2.0 * heights).max() for k in (k_min, k_max)))
    bound = min(2.0 * math.pi / (DEFAULT_POINTS_PER_WAVELENGTH * wavenumber),
                0.5 * min(w for w, _ in spec.segments))
    if not bound > 0.0 or (unit := _alignment_unit(spec, 0.5 * bound)) is None:
        return bound
    dx = unit / math.ceil(unit / bound - 1e-9)  # within rounding of the bound is on it
    return dx if _cells_off(spec, dx).max() <= 1e-9 else bound


# Position widths of the packet that the default margins keep inside the
# box: beyond z widths a Gaussian |psi|^2 holds at most exp(-z^2/2) / 2, so
# z = 7.34 leaves at most 1e-12 of probability, an l2 of 1e-6 or
# ORACLE_L2 / 1000, beyond a wall.
_TAIL_SIGMAS = math.sqrt(2.0 * math.log(0.5 / (1e-3 * ORACLE_L2) ** 2))


def default_margins(spec: PotentialSpec, x0: float, sigma_x: float, k0: float,
                    t_last: float) -> tuple[float, float]:
    """The default oracle.margin_left and margin_right: _TAIL_SIGMAS
    position widths of the packet launched at x0 with width sigma_x on the
    left at t = 0, and on the right those of the free packet at t_last,
    moved on by the barrier's width (a transmitted packet leads the free
    one by at most about that). The left margin also holds that front
    mirrored in a, the reflected packet's reach. Where that front is still
    left of a at t_last (a packet launched far off, or a short last
    checkpoint), nothing of the packet passes b and the right margin is 0."""
    spread = sigma_x * math.hypot(1.0, t_last / (2.0 * sigma_x * sigma_x))
    front = x0 + k0 * t_last + _TAIL_SIGMAS * spread
    left = max(_TAIL_SIGMAS * sigma_x, x0 + front - 2.0 * spec.a)
    return left, max(0.0, front - spec.a)


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


def edge_potential(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """V on the grid x, each edge's two neighbouring points moved by 1/24
    of its jump [V] = V_R - V_L toward the far side: V[j] += [V]/24 and
    V[j+1] -= [V]/24, x[j] < edge <= x[j+1]. A point beside two edges (a
    segment one cell wide) takes both moves.

    With the edge half a cell from each point (staggered_grid), psi and
    psi' continuous and g = 2 (V - E), so that [psi''] = [g] psi and
    [psi'''] = [g] psi', Taylor expansion across the edge leaves Numerov's
    rows j and j+1 (D2 psi - B g psi, times dx^2) with the defects
    +/- dx^2 [g] psi / 24 - dx^3 [g] psi' / 48, psi and psi' at the edge:
    a dipole -dx^3 [g] psi / 24 about the edge and a monopole
    -dx^3 [g] psi' / 24, both O(dx^3), which make a second-order error.
    Moving V by +d at x[j] and -d at x[j+1] changes those rows by dx^2
    times B's (1, 10, 1)/12 applied to -2 d psi, spread over rows j-1 to
    j+2: a dipole 2 d dx^3 psi and, as psi[j+1] - psi[j] = dx psi', a
    monopole 2 d dx^3 psi'. At d = [V]/24 = [g]/48 both cancel, and the
    error at the edges is third order. V stays diagonal, so H stays real
    symmetric and every Cayley factor unitary: an immersed-interface
    correction (Li & Ito, The Immersed Interface Method, SIAM, 2006) that
    keeps the operator symmetric."""
    V = evaluate(spec, x)
    jumps = np.diff(np.concatenate(([0.0], spec.heights(), [0.0]))) / 24.0
    left = np.searchsorted(x, spec.edges()) - 1
    inside = (left >= 0) & (left + 1 < x.size)
    np.add.at(V, left[inside], jumps[inside])
    np.add.at(V, left[inside] + 1, -jumps[inside])
    return V


def propagation_bytes(n_x, fields: int) -> float:
    """Bytes of crank_nicolson_propagate on n_x points, `fields` complex
    fields of the grid held: eleven complex vectors' worth (psi, the
    right-hand side, x, V and K's three diagonals, real, the three that
    zgttrf factors, du2, ipiv and two temporaries), a factor's band and
    1/d, three a factor (_solver), and the first load of LAPACK and BLAS in
    a process (_tridiagonal_lapack; 0.35 MB traced)."""
    return 16.0 * (fields + 11 + 3 * SOLVES_PER_STEP) * n_x + 4e5


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
    solvers = _factor_solvers(edge_potential(spec, x), dx, grid.dt)

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
    where the corrected potential (edge_potential) makes the error at the
    jumps third order in dx; an edge off the half-cell grid is first order
    (see `misaligned_edges`).
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


def _alignment_unit(spec: PotentialSpec, least: float) -> float | None:
    """The largest g of which each edge's distance from `a` is a whole
    multiple, as far as _denominator finds: d_max / lcm(q_i), where
    d_i / d_max = p_i / q_i; None when some ratio has no such fraction or
    g would be less than `least` (> 0). Only a g/m for a whole m aligns
    every edge on the half-cell grid."""
    distances = spec.edges()[1:] - spec.a
    d_max = float(distances.max())
    if not d_max > 0.0:  # the edges are one float
        return None
    period = _period((float(d) / d_max for d in distances), d_max / least)
    return None if period is None else d_max / period


def misaligned_edges(spec: PotentialSpec, dx: float) -> str | None:
    """None when every edge lies within 1e-9 of a cell of the half-cell
    grid; else which edge is off, and the nearest dx between dx/2 and
    2 dx that aligns every edge (one g/m, _alignment_unit)."""
    off = _cells_off(spec, dx)
    if off.max() <= 1e-9:
        return None
    edge = spec.edges()[int(np.argmax(off))]
    problem = (f"the edge at x = {edge:.10g} lies {(edge - spec.a) / dx:.6g} cells of "
               f"dx = {dx:.10g} from a = {spec.a:.10g}, off the half-cell grid")
    g = _alignment_unit(spec, 0.5 * dx)
    if g is not None:
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
