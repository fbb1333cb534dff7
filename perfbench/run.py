"""tunnelsplit benchmark: one workload, one seed, a closed loop of CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run of the program is a fresh child
process (perfbench/child.py) that imports the package from src/, parses
the generated config with runconfig.parse_config and runs the subcommand
with cli.run. Children run one at a time, the next one only after the
previous exits (a closed loop with one client), until S seconds have
passed and at least the workload's min_children have run. Every child's
outputs are checked (check.py) before the next starts.

Before the loop, one untimed probe child imports the package (filling the
page and bytecode caches) and reports the environment, and SETUP_PROBES
more probes time set-up alone. evolve-w2 also runs once untimed with
workers = 1, and every timed run must reproduce that output byte for byte.

--trace 0 reports the end-to-end metrics, each a median over the loop's
children (and for set-up, the probes too):
  wall_s       seconds from launching a child to its exit
  cpu_s        CPU seconds of a child, user plus system, including its pool
               workers (the child's rusage from wait4, as RUSAGE_CHILDREN
               counts it)
  setup_s      CPU seconds of a child's main thread until a parsed RunConfig
               exists
  peak_rss_mb  peak RSS of a child, including its pool workers
setup_wall_s and failed_frac are printed too. Every child runs with one
BLAS thread (CHILD_THREADS, set only in the child's environment).
--trace 1 runs the same loop, then one traced child (spans.py), and
reports the per-layer metrics, with run.wall_s and run.setup_wall_s from
the loop and trace.overhead_s = traced wall time minus run.wall_s.

Metric names and units come from BENCHMARK.json. The last stdout line is
{"correct", "attempted", "failed", "metrics"}. Run files go to
.bench_runs/<workload>/ and are replaced by the next run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 5
# A run must end within 180 s, so every child still running this long
# after the run began is killed. A child that would not finish in time is
# not started: the loop stops early (not a failure), and a traced child
# predicted to overrun, or a killed one without which there is nothing to
# report, ends the run with TIMED_OUT_EXIT and no result, so a slower
# program shows as a timeout, never as a failed output check.
RUN_LIMIT_S = 170.0
TRACE_ALLOWANCE = 1.2  # a traced child takes up to this many untimed ones
TIMED_OUT_EXIT = 3
# Pinned in every child's environment (only there): one BLAS thread per
# process, so a child and its pool workers never hold more runnable
# threads than the 2 CPUs the benchmark is sized for, and idle BLAS threads
# do not spin on CPU time.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MEASURED_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "setup_wall_s": "s",
                  "peak_rss_mb": "MB", "failed_frac": "ratio"}


@dataclass
class Child:
    dir: Path
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool = False
    result: dict = field(default_factory=dict)

    @property
    def out(self) -> Path:
        return self.dir / "out"

    def csv_bytes(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.out.glob("*.csv"))}

    def failure(self) -> list[str]:
        if self.timed_out:
            return [f"timed out: killed at the run's {RUN_LIMIT_S:.0f} s limit"]
        if self.code == 0 and "setup_s" in self.result:
            return []
        err = (self.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return [f"exit code {self.code}: {err.strip()[-400:]}"]


def launch(run_dir: Path, config: Path, subcommand: str, deadline: float,
           extra=()) -> Child:
    """Run one child to completion; returns its timings and result file."""
    run_dir.mkdir(parents=True)
    result = run_dir / "child.json"
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(config), subcommand,
             str(run_dir / "out"), str(result), repr(t0), *extra],
            stdout=out, stderr=err, cwd=ROOT, env={**os.environ, **CHILD_THREADS},
        )
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(max(0.0, deadline - t0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(result.read_text(encoding="utf-8")) if result.is_file() else {}
    return Child(run_dir, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, killed.is_set(), data)


class TimedOut(Exception):
    """The run cannot finish within RUN_LIMIT_S."""


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


def metric_specs() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    end_to_end, per_layer = metric_specs()
    deadline = time.monotonic() + RUN_LIMIT_S
    run_root = RUNS / workload.name
    shutil.rmtree(run_root, ignore_errors=True)
    run_root.mkdir(parents=True)
    cfg = workloads.make_config(workload, seed, tiny=tiny)
    config = write_config(run_root / "config.json", cfg)
    reference = check.load_reference(workload.name, seed, tiny)
    problems: list[str] = []

    def child(name, config_path=config, extra=()):
        return launch(run_root / name, config_path, workload.subcommand, deadline, extra)

    def verify(c: Child, same_as: Child | None = None) -> list[str]:
        """Problems with one child's run; same_as: a run whose CSVs it must equal."""
        found = c.failure()
        if not found:
            found = check.invariants(workload.name, c.out, cfg)
            if reference is not None:
                found += check.compare(reference, c.out)
            if same_as is not None and c.csv_bytes() != same_as.csv_bytes():
                found.append(f"CSV bytes differ from {same_as.dir.name}")
        return [f"{c.dir.name}: {p}" for p in found]

    probes = [child(f"probe-{i}", extra=["--setup-only"]) for i in range(SETUP_PROBES + 1)]
    for p in probes:
        problems += [f"{p.dir.name}: {f}" for f in p.failure()]
    environment = probes[0].result.get("environment", {})
    setups = [p.result for p in probes[1:] if "setup_s" in p.result]

    serial = None
    if workload.workers > 1:
        w1_cfg = workloads.make_config(workload, seed, tiny=tiny, workers=1)
        serial = child("workers-1", write_config(run_root / "config-w1.json", w1_cfg))
        problems += verify(serial)

    children: list[Child] = []
    timeouts: list[str] = []
    failed = 0
    started = time.monotonic()
    while True:
        c = child(f"child-{len(children)}")
        if c.timed_out:
            if not children:
                raise TimedOut(f"{c.dir.name}: {c.failure()[0]}")
            timeouts.append(f"{c.dir.name}: {c.failure()[0]}; not counted")
            break
        children.append(c)
        found = verify(c, serial)
        problems += found
        failed += bool(found)
        if "setup_s" in c.result:
            setups.append(c.result)
        if time.monotonic() - started >= seconds and len(children) >= workload.min_children:
            break
        longest = max(c.wall_s for c in children)
        after = TRACE_ALLOWANCE * longest if trace else 0.0
        if deadline - time.monotonic() < 1.25 * longest + after:
            timeouts.append(f"loop stopped after {len(children)} children: "
                            f"another would pass the {RUN_LIMIT_S:.0f} s limit")
            break
    attempted = len(children)
    measured = {
        "wall_s": statistics.median(c.wall_s for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "setup_s": statistics.median(s["setup_s"] for s in setups) if setups else 0.0,
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "failed_frac": failed / attempted,
    }

    if trace:
        need, left = TRACE_ALLOWANCE * measured["wall_s"], deadline - time.monotonic()
        if need > left:
            raise TimedOut(f"traced child needs about {need:.0f} s, {left:.0f} s are left")
        traced = child("traced", extra=["--trace", str(run_root / "spans.csv")])
        if traced.timed_out:
            raise TimedOut(f"traced: {traced.failure()[0]}")
        attempted += 1
        found = verify(traced, children[0])
        problems += found
        failed += bool(found)
        summary = traced.result.get("summary", {})
        values = spans.layer_metrics(summary, traced.result.get("gauges", {}),
                                     overhead_s=traced.wall_s - measured["wall_s"],
                                     wall_s=traced.wall_s)
        values["run.wall_s"] = measured["wall_s"]
        values["run.setup_wall_s"] = measured["setup_wall_s"]
        units = per_layer
    else:
        values = measured
        units = end_to_end
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not computed: {sorted(missing)}")

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "config": cfg,
        "reference": os.path.relpath(check.reference_path(workload.name, seed, tiny), ROOT)
        if reference is not None else None,
        "environment": environment,
        "samples": {
            "wall_s": [c.wall_s for c in children],
            "cpu_s": [c.cpu_s for c in children],
            "peak_rss_mb": [c.peak_rss_mb for c in children],
            "setup_s": [s["setup_s"] for s in setups],
            "setup_wall_s": [s["setup_wall_s"] for s in setups],
        },
        "measured": measured,
        "problems": problems,
        "timeouts": timeouts,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (run_root / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (n_k = 65, short grids)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tunnelsplit" / "cli.py").is_file():
        print(f"no tunnelsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except TimedOut as exc:
        print(f"TIMEOUT {exc}", file=sys.stderr)
        return TIMED_OUT_EXIT

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if record["reference"]:
        print(f"reference {record['reference']}")
    else:
        print("reference none for this seed: invariant checks only")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for note in record["timeouts"]:
        print(f"TIMEOUT {note}")
    for name, value in record["measured"].items():
        print(f"{name} {value:.6g} {MEASURED_UNITS[name]}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
