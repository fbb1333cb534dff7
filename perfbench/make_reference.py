"""Record reference outputs for the benchmark's output check.

    python3 perfbench/make_reference.py --seeds 0-15 [--workload NAME ...] [--tiny]

Runs each workload once per seed (evolve-w2 with workers = 1) through the
same child as the benchmark, checks the invariants, and writes the output
CSV (every row for seed 0, a subsample for other seeds; see check.py) to
perfbench/reference/<workload>/[tiny-]seed-<n>.json. The
references in the repository were recorded from the seed commit; rerun
this only to add seeds, never to absorb a change in the program's output.
"""

import argparse
import json
import shutil
import sys
import time

import check
import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    scratch = run.RUNS / "make-reference"
    status = 0
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            cfg = workloads.make_config(workload, seed, tiny=args.tiny, workers=1)
            config = run.write_config(scratch / "config.json", cfg)
            child = run.launch(scratch / "child", config, workload.subcommand,
                               time.monotonic() + 600.0)
            problems = child.failure() or check.invariants(name, child.out, cfg)
            if problems:
                print(f"{name} seed {seed}: NOT recorded: {problems}", file=sys.stderr)
                status = 1
                continue
            path = check.reference_path(name, seed, args.tiny)
            path.parent.mkdir(parents=True, exist_ok=True)
            record = check.make_reference(name, seed, child.out)
            path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {path.name} ({child.wall_s:.1f} s)", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
