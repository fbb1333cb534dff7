"""Output checks: invariants on every seed, plus a comparison with the
reference outputs recorded from the seed commit where one exists.

Every bound below is a bound of tunnelsplit/tolerances.py as it stood at the
seed commit, never a tighter one, because later performance work (batched
kernels, chirp-z synthesis, a LAPACK CN solver) moves roundoff. The values
are copied rather than imported so that a change to tolerances.py cannot
loosen these checks. Acceptance criterion 4's NORM_DRIFT and OVERLAP_REAL
bounds fail on purpose and are never asserted here.
"""

import json
import math
from collections import Counter
from pathlib import Path

PACKET_IDENTITY = 1e-8    # max |tr + ref - full| for synthesized packets
QUADRATURE_ERROR = 1e-4   # x-quadrature error bound for norms
ORACLE_L2 = 1e-3          # phase-aligned spectral-vs-CN distance
CN_NORM_DRIFT = 1e-10     # Crank-Nicolson unitarity per run
UNITARITY = 1e-10         # stationary transfer-matrix roundoff

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Seed 0 (and the self-test's tiny seed 0) keeps every data row in its
# reference file. Other seeds keep every `stride`-th row and the last; their
# other rows are covered by the invariants only.
REFERENCE_STRIDE = {"diagnostics": 4, "oracle": 1, "clock-sweep": 100, "evolve-w2": 97}


def _absolute(bound):
    return lambda ref, row: bound


def _scaled(bound):
    return lambda ref, row: bound * max(1.0, abs(ref))


def _clock_time(ref, row):
    # the reading's own extrapolation residual is its stated uncertainty
    return UNITARITY * max(1.0, abs(ref)) + abs(row["residual"])


_INPUT = _scaled(UNITARITY)
_FIELD = _absolute(PACKET_IDENTITY)
_MOMENT = _scaled(PACKET_IDENTITY)

# Allowed |value - reference| per column; columns checked as invariants
# instead are marked None.
COLUMN_BOUNDS = {
    "diagnostics.csv": {
        "t": _INPUT, "T": _FIELD, "R": _FIELD, "Re_overlap": _FIELD, "Im_overlap": _FIELD,
        "xbar_full": _MOMENT, "pbar_full": _MOMENT, "varx_full": _MOMENT,
        "xbar_tr": _MOMENT, "xbar_ref": _MOMENT,
        "continuity_residual": _absolute(QUADRATURE_ERROR),
        "pbar_tr": _MOMENT, "pbar_ref": _MOMENT, "varx_tr": _MOMENT, "varx_ref": _MOMENT,
        "ref_cut_flux": _FIELD, "identity_residual": None,
    },
    "evolve.csv": {
        "t": _INPUT, "x": _INPUT,
        "re_full": _FIELD, "im_full": _FIELD, "re_tr": _FIELD, "im_tr": _FIELD,
        "re_ref": _FIELD, "im_ref": _FIELD,
    },
    "oracle_check.csv": {
        "t_max": _INPUT, "l2": _absolute(ORACLE_L2), "linf": _absolute(ORACLE_L2),
        "pass": _absolute(0.0), "norm_drift": _absolute(CN_NORM_DRIFT),
    },
    "hartman_sweep.csv": {
        "E": _INPUT, "L": _INPUT,
        "tau_dwell_tr": _scaled(UNITARITY), "tau_dwell_ref": _scaled(UNITARITY),
        "tau_larmor_tr": _clock_time, "tau_larmor_ref": _clock_time,
        "omega_min": _INPUT, "residual": _clock_time,
    },
}


class Table:
    """A tunnelsplit CSV: header, numeric rows and '# key = value' footers."""

    def __init__(self, path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        self.header = lines[0].split(",")
        self.rows = [[float(v) for v in line.split(",")]
                     for line in lines[1:] if not line.startswith("#")]
        self.footer = {}
        for line in lines[1:]:
            if line.startswith("#") and "=" in line:
                key, value = line[1:].split("=", 1)
                self.footer[key.strip()] = value.strip()

    def column(self, name: str) -> list[float]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


OUTPUT_FILE = {"diagnostics": "diagnostics.csv", "oracle": "oracle_check.csv",
               "clock-sweep": "hartman_sweep.csv", "evolve-w2": "evolve.csv"}


def invariants(workload: str, out_dir: Path, cfg: dict) -> list[str]:
    """Checks that hold for every seed; returns the problems found."""
    name = OUTPUT_FILE[workload]
    path = out_dir / name
    if not path.is_file():
        return [f"{name} missing"]
    problems = []
    if (out_dir / "error.json").exists():
        problems.append("error.json written")
    table = Table(path)

    if workload == "diagnostics":
        want_rows = int(cfg["times"]["num"])
        worst = max(table.column("identity_residual"))
        if not worst < PACKET_IDENTITY:
            problems.append(f"max identity_residual {worst:.3e} >= PACKET_IDENTITY")
        if not all(map(math.isfinite, table.column("T") + table.column("R"))):
            problems.append("non-finite T or R")
    elif workload == "oracle":
        want_rows = 1
        if table.column("pass") != [1.0]:
            problems.append("oracle_check.csv pass != 1")
    elif workload == "clock-sweep":
        want_rows = int(cfg["sweep"]["num"])
        if table.footer.get("dwell_tr_strictly_increasing") != "1":
            problems.append("dwell_tr_strictly_increasing != 1")
        if not all(map(math.isfinite, table.column("tau_dwell_tr"))):
            problems.append("non-finite tau_dwell_tr")
    else:
        per_time = Counter(table.column("t"))
        want_rows = len(table.rows)
        if (sorted(per_time) != sorted(float(t) for t in cfg["snapshot_times"])
                or len(set(per_time.values())) != 1):
            problems.append("evolve.csv rows do not cover every snapshot time equally")
        meta = json.loads((out_dir / "run_metadata.json").read_text(encoding="utf-8"))
        worst = float(meta.get("max_identity_residual", math.inf))
        if not worst < PACKET_IDENTITY:
            problems.append(f"max_identity_residual {worst:.3e} >= PACKET_IDENTITY")
        cols = [table.column(c) for c in
                ("re_full", "im_full", "re_tr", "im_tr", "re_ref", "im_ref")]
        gap = max(abs(complex(tr_r + ref_r - f_r, tr_i + ref_i - f_i))
                  for f_r, f_i, tr_r, tr_i, ref_r, ref_i in zip(*cols))
        if not gap < PACKET_IDENTITY:
            problems.append(f"evolve.csv |tr + ref - full| = {gap:.3e} >= PACKET_IDENTITY")
    if len(table.rows) != want_rows:
        problems.append(f"{name}: {len(table.rows)} rows, expected {want_rows}")
    return problems


def reference_path(workload: str, seed: int, tiny: bool = False) -> Path:
    return REFERENCE_DIR / workload / f"{'tiny-' if tiny else ''}seed-{seed}.json"


def make_reference(workload: str, seed: int, out_dir: Path) -> dict:
    """One run's CSV as a reference record: every row for seed 0, else a subsample."""
    name = OUTPUT_FILE[workload]
    table = Table(out_dir / name)
    stride = 1 if seed == 0 else REFERENCE_STRIDE[workload]
    keep = sorted(set(range(0, len(table.rows), stride)) | {len(table.rows) - 1})
    return {
        "workload": workload,
        "seed": seed,
        "file": name,
        "header": table.header,
        "n_rows": len(table.rows),
        "footer": table.footer,
        "rows": {str(i): table.rows[i] for i in keep},
    }


def compare(reference: dict, out_dir: Path) -> list[str]:
    """Problems found comparing a run's output with a reference record."""
    name = reference["file"]
    table = Table(out_dir / name)
    problems = []
    if table.header != reference["header"]:
        return [f"{name}: header differs from the reference"]
    if len(table.rows) != reference["n_rows"]:
        return [f"{name}: {len(table.rows)} rows, reference has {reference['n_rows']}"]
    for key, want in reference["footer"].items():
        if table.footer.get(key) != want:
            problems.append(f"{name}: footer {key} = {table.footer.get(key)}, reference {want}")
    bounds = COLUMN_BOUNDS[name]
    for idx, ref_row in reference["rows"].items():
        row = table.rows[int(idx)]
        ref_named = dict(zip(table.header, ref_row))
        for col, got, want in zip(table.header, row, ref_row):
            bound = bounds[col]
            if bound is None or (math.isnan(got) and math.isnan(want)):
                continue
            allowed = bound(want, ref_named)
            if not abs(got - want) <= allowed:
                problems.append(f"{name} row {idx} {col}: {got!r} vs reference {want!r} "
                                f"(allowed {allowed:.3e})")
    return problems


def load_reference(workload: str, seed: int, tiny: bool = False) -> dict | None:
    path = reference_path(workload, seed, tiny)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
