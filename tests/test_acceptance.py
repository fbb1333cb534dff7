"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured margins.

Criterion 4 checks probability conservation for each sub-process at the
bounds of tolerances.py. The sum rule T + R + 2 Re<tr|ref> = 1 and the
reflection norm hold at every sample. The transmission norm is checked
through the cut balance: while the packet straddles x_c, tr gains the
flux Phi(t) = Im(conj(full(x_c,t)) d_x ref_state(x_c,t)) through the
derivative cut, and T(t) - T(0) must equal the time integral of Phi at
every sample. T's constancy and a real overlap of zero are what the
construction promises only at launch and once the sub-packets separate,
so they are checked there. The transient of T itself (~6e-3 at the
canonical bandwidth) is converged physics, not discretization: it is
linear in sigma_k and unchanged under k refinement (see
tests/test_packets.py). It is printed, not bounded.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tunnelsplit.cli import main
from tunnelsplit.clocks import (
    compute_clock,
    dwell_time,
    larmor_times,
    sweep_barrier_width,
)
from tunnelsplit.cranknicolson import compare_fields, crank_nicolson_propagate
from tunnelsplit.packets import (
    build_mode_table,
    continuity_residual,
    diagnostics_series,
    synthesize,
)
from tunnelsplit.potential import make_rectangular
from tunnelsplit.runconfig import parse_config
from tunnelsplit.splitting import build_decomposition, decompose_block
from tunnelsplit.stationary import (EnergyMode, ProblemBlock, sample_states, solve_block,
                                    solve_full)
from tunnelsplit.tolerances import (
    NORM_DRIFT,
    OVERLAP_FINAL_FRACTION,
    OVERLAP_REAL,
    PACKET_IDENTITY,
)

from _oracles import (cut_flux_integral, larmor_ladder, probe_noninvasiveness,
                      rectangular_transmission)

V0_GRID = np.geomspace(0.25, 8.0, 20)
L_GRID = np.geomspace(0.5, 8.0, 20)
E_GRID = np.geomspace(0.02, 50.0, 50)

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "canonical.json")


def report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def _problem_grid():
    """Each (V0, L) barrier with its energy grid, as one block, and the
    index of the row that is also solved on its own."""
    for i, V0 in enumerate(V0_GRID):
        for j, L in enumerate(L_GRID):
            yield (make_rectangular(float(V0), float(L), 0.0), float(V0), float(L),
                   (i * L_GRID.size + j) % E_GRID.size)


def test_criterion_1_stationary_unitarity():
    worst = 0.0
    for spec, _, _, row in _problem_grid():
        A_T, A_R = solve_block(ProblemBlock.of(spec, E_GRID))
        worst = max(worst, float(np.max(np.abs(np.abs(A_T) ** 2 + np.abs(A_R) ** 2 - 1.0))))
        one_T, one_R = solve_full(spec, EnergyMode(float(E_GRID[row])))
        assert (one_T[0], one_R[0]) == (A_T[row], A_R[row])
    ok = worst < 1e-10
    report(1, "stationary unitarity", ok, f"max |T+R-1| = {worst:.3e} (bound 1e-10)")
    assert ok


def test_criterion_2_closed_form_oracle():
    worst = 0.0
    for spec, V0, L, row in _problem_grid():
        energies = np.append(E_GRID, V0)  # degenerate row included
        T = np.abs(solve_block(ProblemBlock.of(spec, energies))[0]) ** 2
        T_ref = np.array([rectangular_transmission(float(E), V0, L) for E in energies])
        worst = max(worst, float(np.max(np.abs(T - T_ref) / T_ref)))
        one_T = np.abs(solve_full(spec, EnergyMode(float(energies[row])))[0]) ** 2
        assert one_T[0] == T[row]
    ok = worst < 1e-12
    report(2, "closed-form transmission", ok, f"max rel dev = {worst:.3e} (bound 1e-12)")
    assert ok


def test_criterion_3_decomposition_invariants():
    worst_odd = 0.0
    best_even = math.inf
    worst_identity = 0.0
    worst_weight = 0.0
    worst_parity = 0.0
    for spec, _, L, row in _problem_grid():
        x = spec.x_c + np.linspace(-(L / 2 + 2.0), L / 2 + 2.0, 129)
        dec = decompose_block(ProblemBlock.of(spec, E_GRID), x)
        odd, even = dec.midpoint_residuals.T
        worst_odd = max(worst_odd, float(np.max(odd)))
        best_even = min(best_even, float(np.min(even)))
        worst_identity = max(worst_identity, float(np.max(dec.identity_residual)))
        worst_weight = max(
            worst_weight,
            float(np.max(np.abs(np.abs(dec.split.A_tr_in) ** 2 - np.abs(dec.A_T) ** 2))),
            float(np.max(np.abs(np.abs(dec.split.A_ref_in) ** 2 - np.abs(dec.A_R) ** 2))),
        )
        ref_max = np.max(np.abs(sample_states(dec.ref_state, x)), axis=-1)
        scaled = ref_max > 0
        if scaled.any():
            worst_parity = max(worst_parity, float(np.max(dec.parity_residual[scaled]
                                                          / ref_max[scaled])))
        # a block of one equals its row in the larger block
        one = build_decomposition(spec, EnergyMode(float(E_GRID[row])), x)
        assert one.midpoint_residuals.tolist() == [dec.midpoint_residuals[row].tolist()]
        assert (one.split.A_tr_in[0], one.split.A_ref_in[0], one.split.root_sign[0]) == (
            dec.split.A_tr_in[row], dec.split.A_ref_in[row], dec.split.root_sign[row])
        assert (one.identity_residual[0], one.parity_residual[0]) == (
            dec.identity_residual[row], dec.parity_residual[row])
        assert np.max(np.abs(sample_states(one.ref_state, x))) == ref_max[row]
    exactly_one = worst_odd < 1e-8 and best_even > 1e-8
    ok = (
        exactly_one
        and worst_identity < 1e-10
        and worst_weight < 1e-10
        and worst_parity < 1e-7
    )
    report(
        3, "decomposition invariants", ok,
        f"odd midpoint <= {worst_odd:.2e}, even midpoint >= {best_even:.2e}, "
        f"identity <= {worst_identity:.2e}, weights <= {worst_weight:.2e}, "
        f"parity <= {worst_parity:.2e}",
    )
    assert ok


def test_criterion_4_packet_suite(canonical_table, canonical_packet, canonical_series):
    s = canonical_series
    identity = float(np.max(s.identity_residual))
    sum_rule = float(np.max(np.abs(s.T + s.R + 2.0 * s.overlap.real - 1.0)))
    r_drift = float(np.max(np.abs(s.R - s.R[0])))
    balance = float(np.max(np.abs(s.T - s.T[0] - cut_flux_integral(canonical_table, s.t))))
    transient = float(np.max(np.abs(s.T - s.T[0])))

    # launch, and a time when the sub-packets have separated: the packet's
    # far edge (6 position widths behind its centre) has crossed the cut
    p = canonical_packet
    t_sep = (canonical_table.x_c - p.x0 + 6.0 * p.position_sigma()) / p.k0
    sep = diagnostics_series(canonical_table, [t_sep])
    T_sep, R_sep, ov_sep = sep.T[0], sep.R[0], sep.overlap[0]
    unit_sum = max(abs(s.T[0] + s.R[0] - 1.0), abs(T_sep + R_sep - 1.0))
    re_overlap = max(abs(s.overlap[0].real), abs(ov_sep.real))
    settled = abs(T_sep - s.T[0])

    end_overlap = float(abs(s.overlap[-1]))
    end_bound = OVERLAP_FINAL_FRACTION * math.sqrt(s.T[-1] * s.R[-1])
    at_ends = f"at t = 0 and t_sep = {t_sep:g}"
    checks = [
        (f"max |tr+ref-full| < {PACKET_IDENTITY:g}", identity < PACKET_IDENTITY, identity),
        (f"|T+R+2Re<tr|ref>-1| < {NORM_DRIFT:g} at all samples",
         sum_rule < NORM_DRIFT, sum_rule),
        (f"|R(t)-R(0)| < {NORM_DRIFT:g} at all samples", r_drift < NORM_DRIFT, r_drift),
        (f"|T(t)-T(0)-int Phi dt| < {NORM_DRIFT:g} at all samples",
         balance < NORM_DRIFT, balance),
        (f"|T+R-1| < {NORM_DRIFT:g} {at_ends}", unit_sum < NORM_DRIFT, unit_sum),
        (f"|Re<tr|ref>| < {OVERLAP_REAL:g} {at_ends}", re_overlap < OVERLAP_REAL, re_overlap),
        (f"|T(t_sep)-T(0)| < {NORM_DRIFT:g}", settled < NORM_DRIFT, settled),
        (f"|<tr|ref>|({s.t[-1]:g}) < {end_bound:.3e}", end_overlap < end_bound, end_overlap),
    ]
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {'ok' if good else 'VIOLATED'} ({got:.3e})"
                       for name, good, got in checks)
    detail += f"; peak transient max |T(t)-T(0)| = {transient:.3e} (reported only)"
    report(4, "packet conservation suite", ok, detail)
    assert ok, "a packet conservation bound is violated; measured values above"


@pytest.fixture(scope="module")
def canonical_oracle():
    """The config and the synthesis at its checkpoints that oracle-check
    runs on canonical.json."""
    cfg = parse_config(CONFIG)
    spectral = synthesize(cfg.potential, cfg.packet, "full", cfg.checkpoints,
                          cfg.oracle_grid.x(), n_k=cfg.n_k, span_sigmas=cfg.k_span_sigmas)
    return cfg, spectral


def _oracle_distances(cfg, spectral, grid):
    """The l2 distance at each checkpoint between the synthesis and the
    propagation on `grid`, and the propagation's result."""
    initial = spectral[0]  # the first checkpoint is t = 0
    result = crank_nicolson_propagate(cfg.potential, initial, grid,
                                      sample_times=cfg.checkpoints)
    distances = {}
    for sample, spectral_field in zip(result.samples, spectral):
        assert sample.t == spectral_field.t
        distances[sample.t], _ = compare_fields(spectral_field, sample)
    return distances, result


def test_criterion_5_cross_method_oracle(canonical_oracle):
    cfg, spectral = canonical_oracle
    distances, result = _oracle_distances(cfg, spectral, cfg.oracle_grid)
    ok = max(distances.values()) < 1e-3 and result.norm_drift < 1e-10
    report(
        5, "spectral vs time-domain", ok,
        f"l2 = {distances} (bound 1e-3), norm drift = {result.norm_drift:.3e} (bound 1e-10)",
    )
    assert ok
    # the fourth-order defaults (dx 0.02, dt 0.2) stay within the l2 distances
    # that second-order stepping at dx = dt = 0.01 reached
    assert distances[40.0] <= 5.65e-5 and distances[80.0] <= 9.71e-5, distances


def test_criterion_5_default_step_shows_no_time_error(canonical_oracle):
    # halving the default dt moves no checkpoint's l2 by 1 %: what the
    # oracle measures at the default step is the space error (0.06 % and
    # 0.45 % at dt 0.2; dt 0.4 moves them by 21 % and 90 %)
    cfg, spectral = canonical_oracle
    grid = cfg.oracle_grid
    half = dataclasses.replace(grid, dt=grid.dt / 2, n_t=2 * grid.n_t)
    default, _ = _oracle_distances(cfg, spectral, grid)
    finer, _ = _oracle_distances(cfg, spectral, half)
    moves = {t: abs(default[t] - finer[t]) / finer[t] for t in cfg.checkpoints if t > 0}
    print(f"\nl2 at dt = {grid.dt}: {default}; at dt/2: {finer}; relative moves {moves}")
    assert max(moves.values()) < 0.01, moves


def test_criterion_6_variance_divergence(canonical_series):
    s = canonical_series
    last = s.t >= 2.0 * s.t[-1] / 3.0
    t2 = s.t[last] ** 2
    design = np.vstack([np.ones_like(t2), t2]).T

    def fit(values):
        coef, *_ = np.linalg.lstsq(design, values[last], rcond=None)
        pred = design @ coef
        ss_res = float(np.sum((values[last] - pred) ** 2))
        ss_tot = float(np.sum((values[last] - values[last].mean()) ** 2))
        return coef[1], 1.0 - ss_res / ss_tot

    c_full, r2 = fit(s.varx_full)
    c_tr, _ = fit(s.varx_tr)
    c_ref, _ = fit(s.varx_ref)
    ok = r2 > 0.99 and c_full > c_tr and c_full > c_ref
    report(
        6, "variance divergence", ok,
        f"R^2 = {r2:.4f} (bound 0.99); coefficient {c_full:.4f} vs "
        f"sub-waves {c_tr:.4f} / {c_ref:.4f}",
    )
    assert ok


def test_criterion_7_continuity_convergence():
    """The continuity residual of each sub-wave drops ~4x per 2x refinement
    of dx: the density rate is exact, so only d j/d x is differenced.

    The dx levels keep the barrier edges on-grid so the error constant at
    the j'''-kinks is comparable across levels.
    """
    spec = make_rectangular(1.0, 1.0, -2.0)
    from tunnelsplit.packets import PacketSpec

    packet = PacketSpec(k0=1.5, sigma_k=0.25, x0=-12.5)
    residuals = {"tr": [], "ref": []}
    for level in range(3):
        dx = 0.05 / 2 ** level
        n_side = int(round(18.0 / dx))
        x = spec.x_c + dx * np.arange(-n_side, n_side + 1)
        table = build_mode_table(spec, packet, x, n_k=513, span_sigmas=5.75)
        for comp in ("tr", "ref"):
            residuals[comp].append(continuity_residual(table, comp, 7.0))
    orders = {
        comp: math.log(vals[0] / vals[2]) / math.log(4.0)
        for comp, vals in residuals.items()
    }
    ok = all(order >= 1.8 for order in orders.values())
    report(
        7, "continuity convergence under dx refinement", ok,
        f"fitted orders tr = {orders['tr']:.2f}, ref = {orders['ref']:.2f} (bound 1.8); "
        + "; ".join(f"{comp} residuals " + ", ".join(f"{r:.3g}" for r in vals)
                    for comp, vals in residuals.items()),
    )
    assert ok


def test_criterion_8_clock_suite(canonical_spec):
    lines = []
    # free-particle identity
    worst_free = 0.0
    for L, k in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0), (0.7, 1.7), (5.0, 0.8)]:
        spec = make_rectangular(0.0, L, 0.0)
        mode = EnergyMode.from_k(k)
        reading = larmor_times(spec, mode, "tr")
        dec = build_decomposition(spec, mode, np.linspace(-1.0, L + 1.0, 33))
        dwell = dwell_time(dec, "tr")
        worst_free = max(
            worst_free,
            abs(reading.time[0] - L / k) / (L / k),
            abs(dwell - L / k) / (L / k),
        )
    free_ok = worst_free < 1e-6
    lines.append(f"free identity dev = {worst_free:.2e} (bound 1e-6)")

    mode = EnergyMode(0.5)
    exponent = probe_noninvasiveness(canonical_spec, mode)
    exponent_ok = exponent >= 1.9
    lines.append(f"non-invasiveness exponent = {exponent:.3f} (bound 1.9)")

    # the finite-field ladder: its residuals fall with the field, and its
    # zero-field limit is the closed-form time
    res = compute_clock(canonical_spec, mode)
    _, limit, r, _ = larmor_ladder(canonical_spec, mode, "tr")
    monotone_ok = bool(r[0] > r[1] > r[2])
    limit_gap = abs(limit - res.tau_larmor_tr[0]) / abs(res.tau_larmor_tr[0])
    limit_ok = limit_gap <= 1e-9
    lines.append(
        "ladder extrapolation residuals = ["
        + ", ".join(f"{v:.3e}" for v in r)
        + f"] (monotone decrease); limit vs closed form {limit_gap:.1e} (bound 1e-9)"
    )

    sweep = sweep_barrier_width(1.0, 0.5, np.linspace(2.0, 10.0, 9))
    taus = sweep.tau_dwell_tr
    increasing = bool(np.all(np.diff(taus) > 0))
    # reported, not asserted: the expected outcome is monotone growth
    lines.append(
        f"width sweep emitted ({len(taus)} points), dwell_tr strictly increasing: "
        f"{increasing} (expected True; reported only)"
    )

    ok = free_ok and exponent_ok and monotone_ok and limit_ok
    report(8, "clock suite", ok, "; ".join(lines))
    assert ok


@pytest.mark.parametrize(
    "subcommand,artifact",
    [
        ("stationary", "stationary.csv"),
        ("decompose", "decompose.csv"),
        ("evolve", "evolve.csv"),
        ("diagnostics", "diagnostics.csv"),
        ("oracle-check", "oracle_check.csv"),
        ("clock", "clock.csv"),
        ("hartman-sweep", "hartman_sweep.csv"),
    ],
)
def test_criterion_9_determinism(tmp_path, subcommand, artifact):
    first = tmp_path / "first"
    second = tmp_path / "second"
    config = tmp_path / "config.json"
    canonical = json.loads(Path(CONFIG).read_text())
    config.write_text(json.dumps(dict(canonical, workers=1)))
    assert main([subcommand, str(config), "--out", str(first)]) == 0
    assert main([subcommand, str(config), "--out", str(second)]) == 0
    same = (first / artifact).read_bytes() == (second / artifact).read_bytes()
    report("9", f"determinism [{subcommand}]", same, "byte-identical CSV" if same else "CSV differs")
    assert same
