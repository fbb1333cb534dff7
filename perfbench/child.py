"""One benchmark child: import tunnelsplit, parse a config, run a subcommand.

    python3 perfbench/child.py CONFIG SUBCOMMAND OUT_DIR RESULT_JSON LAUNCH
        [--trace SPANS_CSV | --setup-only]

Set-up is interpreter start, package import and parse_config, until a
parsed RunConfig exists. RESULT_JSON gets its CPU time (setup_s, the main
thread's CPU clock, which starts at exec; any other threads are left out)
and its wall time (setup_wall_s, from LAUNCH, the parent's time.monotonic()
just before it started this process; CLOCK_MONOTONIC is shared by all
processes). The run
goes through the package's public entry points, runconfig.parse_config and
cli.run. With --setup-only RESULT_JSON also gets the environment the child
sees; with --trace the layer spans are recorded (see spans.py) and
summarized there too.
"""

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas_threads():
    """Thread count OpenBLAS reports in this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("subcommand")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("launch", type=float)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", default=None, metavar="SPANS_CSV")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tunnelsplit import cli, runconfig

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import spans as layer_trace

        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)
    cfg = runconfig.parse_config(args.config)
    result = {"setup_s": time.thread_time(), "setup_wall_s": time.monotonic() - args.launch}

    if args.setup_only:
        result["environment"] = environment()
    else:
        code = cli.run(args.subcommand, cfg, args.out_dir)
        if code != 0:
            return code
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["gauges"] = dict(tracer.gauges)
        tracer.write_spans(args.trace)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
