"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 0-9 --trace 0 [--workload NAME ...] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints per workload and metric the median, the quartiles and the spread
(interquartile range as a share of the median, from
statistics.quantiles(values, n=4)). With --out the summary, every run's
values and the environment are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from make_reference import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for name in args.workload or list(workloads.WORKLOADS):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            env = next((json.loads(line[len("environment "):]) for line in lines
                        if line.startswith("environment ")), None)
            runs.append({"seed": seed, "code": proc.returncode, "result": result,
                         "environment": env})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{name} seed {seed} {status}", flush=True)
        good = [r["result"] for r in runs if r["result"]]
        metrics = sorted({k for g in good for k in g["metrics"]})
        report[name] = {
            "runs": runs,
            "failed_runs": sum(1 for r in runs if not (r["result"] and r["result"]["correct"])),
            "metrics": {m: summarize([g["metrics"][m]["value"] for g in good]) for m in metrics},
        }
        for m, s in report[name]["metrics"].items():
            print(f"{name} {m} median {s['median']:.6g} spread {s['spread']:.4f} (n={s['n']})")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["failed_runs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
