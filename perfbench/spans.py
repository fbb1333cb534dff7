"""Spans around tunnelsplit's layer boundaries, recorded from outside.

`install` rebinds the public functions of each layer on every module that
imported them (and a few methods on their classes) with wrappers that
record a span: name, parent span, start, end and an item count. Nothing in
the package changes; the wrappers call the originals with the same
arguments and return their results untouched, so the CSVs stay
byte-identical. Spans are kept in memory and written out at the end.

Spans recorded inside pool workers stay in those processes and are lost;
the pool's own counters (`parallel.*`) are taken in the parent.
"""

import functools
import pickle
import time
from collections import defaultdict

import numpy as np


class _ByteCounter:
    """File-like sink that counts what pickle writes, keeping nothing."""

    def __init__(self):
        self.n = 0

    def write(self, data):
        self.n += memoryview(data).nbytes


def pickled_bytes(obj) -> int:
    sink = _ByteCounter()
    pickle.dump(obj, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return sink.n


class Tracer:
    """In-memory span recorder.

    Each span is [name, parent index (-1 for a root), start, end, count].
    `keys` holds the distinct work keys seen per span name, `gauges` values
    that are set rather than summed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.gauges: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, key=None, after=None):
        """Wrap `fn` so every call records a span named `name`.

        count(args, kwargs, result) -> items of work in the call;
        key(args, kwargs) -> hashable identity of the work, for unique ratios;
        after(args, kwargs, result) runs after the span closes, in a span of
        its own named trace.accounting.
        """
        spans, stack, keys = self.spans, self._stack, self.keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = t0
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if key is not None:
                keys[name].add(key(args, kwargs))
            if after is not None:
                # a child span, so the bookkeeping is not charged to the parent's self time
                a0 = clock()
                after(args, kwargs, result)
                spans.append(["trace.accounting", stack[-1] if stack else -1, a0, clock(), 0])
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, t0, t1, n) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["count"] += n
        for name, agg in out.items():
            agg["unique"] = len(self.keys.get(name, ()))
        return out

    def write_spans(self, path):
        """One CSV line per span: id, parent, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,count\n")
            for i, (name, parent, t0, t1, n) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r},{n}\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rebind(modules, attr, wrapper_for):
    """Replace `attr` on every module that holds the same object."""
    original = getattr(modules[0], attr)
    wrapped = wrapper_for(original)
    for mod in modules:
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _table_bytes(table) -> int:
    return sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))


def install(tracer: Tracer):
    """Wrap the layer entry points of an imported tunnelsplit package."""
    from tunnelsplit import (cli, clocks, cranknicolson, packets, parallel,
                             runconfig, splitting, stationary)

    wrap = tracer.wrap

    def mode_key(args, kwargs):
        return (args[0], args[1].E)

    # stationary
    _rebind([stationary, splitting, clocks, cli], "solve_full",
            lambda f: wrap("stationary.solve_full", f, key=mode_key))
    for attr in ("state_from_left", "state_from_right", "state_from_midpoint"):
        _rebind([stationary, splitting], attr,
                lambda f: wrap("stationary.cascade", f))
    state_cls = stationary.PiecewiseState
    for attr in ("values", "derivative"):
        setattr(state_cls, attr, wrap(
            "stationary.eval", getattr(state_cls, attr),
            count=lambda a, k, r: int(np.size(r)),
        ))

    # splitting
    _rebind([splitting, packets, clocks, cli], "build_decomposition",
            lambda f: wrap("splitting.build_decomposition", f, key=mode_key))

    # packets
    def record_table(args, kwargs, table):
        tracer.gauges["packets.mode_table_bytes"] = _table_bytes(table)

    _rebind([packets, cli], "build_mode_table",
            lambda f: wrap("packets.build_mode_table", f, after=record_table))
    _rebind([packets, cli], "fields_at", lambda f: wrap("packets.fields_at", f))
    packets.ModeTable.state_slice = wrap("packets.state_slice", packets.ModeTable.state_slice)
    _rebind([packets, cli], "diagnostics_series",
            lambda f: wrap("packets.diagnostics_series", f,
                           count=lambda a, k, r: int(np.size(_arg(a, k, 1, "times")))))
    _rebind([packets], "continuity_residual",
            lambda f: wrap("packets.continuity_residual", f))
    _rebind([packets, clocks, cli], "synthesize",
            lambda f: wrap("packets.synthesize", f,
                           count=lambda a, k, r: int(np.size(_arg(a, k, 4, "x_grid")))))

    # cranknicolson
    def record_grid(args, kwargs, result):
        grid = _arg(args, kwargs, 2, "grid")
        tracer.gauges["cranknicolson.grid_points"] = grid.n_x

    _rebind([cranknicolson, cli], "crank_nicolson_propagate",
            lambda f: wrap("cranknicolson.propagate", f,
                           count=lambda a, k, r: int(_arg(a, k, 2, "grid").n_t),
                           after=record_grid))

    # clocks
    _rebind([clocks, cli], "sweep_barrier_width",
            lambda f: wrap("clocks.sweep_barrier_width", f))
    _rebind([clocks, cli], "compute_clock", lambda f: wrap("clocks.compute_clock", f))
    _rebind([clocks], "larmor_times", lambda f: wrap("clocks.larmor_times", f))
    _rebind([clocks], "dwell_time", lambda f: wrap("clocks.dwell_time", f))

    # parallel: counted in the parent; only a real pool pickles results back
    parallel.WorkerMap.__call__ = wrap(
        "parallel.map", parallel.WorkerMap.__call__,
        count=lambda a, k, r: len(r),
        after=lambda a, k, r: _count_result_bytes(tracer, a[0], r),
    )

    # runconfig / cli
    _rebind([runconfig], "parse_config", lambda f: wrap("runconfig.parse_config", f))
    _rebind([cli], "write_csv",
            lambda f: wrap("cli.write_csv", f,
                           count=lambda a, k, r: _arg(a, k, 0, "path").stat().st_size))
    _rebind([cli], "run", lambda f: wrap("cli.run", f))


def _count_result_bytes(tracer, worker_map, results):
    if worker_map._pool is not None:
        tracer.gauges["parallel.result_bytes"] += pickled_bytes(results)


def layer_metrics(summary: dict, gauges: dict, overhead_s: float, wall_s: float) -> dict:
    """Per-layer metric values from a span summary (see BENCHMARK.json)."""

    def agg(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "unique": 0})

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    solve = agg("stationary.solve_full")
    cascade = agg("stationary.cascade")
    ev = agg("stationary.eval")
    dec = agg("splitting.build_decomposition")
    table = agg("packets.build_mode_table")
    fields = agg("packets.fields_at")
    slices = agg("packets.state_slice")
    diag = agg("packets.diagnostics_series")
    cont = agg("packets.continuity_residual")
    synth = agg("packets.synthesize")
    cn = agg("cranknicolson.propagate")
    clock = agg("clocks.compute_clock")
    larmor = agg("clocks.larmor_times")
    dwell = agg("clocks.dwell_time")
    pmap = agg("parallel.map")
    parse = agg("runconfig.parse_config")
    csv = agg("cli.write_csv")
    return {
        "stationary.solve_full.calls": solve["calls"],
        "stationary.solve_full.us_per_call": per(solve["s"], solve["calls"], 1e6),
        "stationary.solve_full.unique_ratio": per(solve["unique"], solve["calls"]),
        "stationary.cascade.calls": cascade["calls"],
        "stationary.cascade.self_s": cascade["self_s"],
        "stationary.eval.points": ev["count"],
        "stationary.eval.self_s": ev["self_s"],
        "stationary.eval.ns_per_point": per(ev["s"], ev["count"], 1e9),
        "splitting.build_decomposition.calls": dec["calls"],
        "splitting.build_decomposition.self_s": dec["self_s"],
        "splitting.build_decomposition.unique_ratio": per(dec["unique"], dec["calls"]),
        "packets.build_mode_table.s": table["s"],
        "packets.build_mode_table.self_s": table["self_s"],
        "packets.mode_table_bytes": gauges.get("packets.mode_table_bytes", 0),
        "packets.fields_at.calls": fields["calls"],
        "packets.fields_at.s": fields["s"],
        "packets.state_slice.calls": slices["calls"],
        "packets.state_slice.s": slices["s"],
        "packets.diagnostics_series.s": diag["s"],
        "packets.diagnostics_series.ms_per_time": per(diag["s"], diag["count"], 1e3),
        "packets.continuity_residual.s": cont["s"],
        "packets.synthesize.calls": synth["calls"],
        "packets.synthesize.s": synth["s"],
        "packets.synthesize.points": synth["count"],
        "cranknicolson.propagate.s": cn["s"],
        "cranknicolson.steps": cn["count"],
        "cranknicolson.us_per_step": per(cn["s"], cn["count"], 1e6),
        "cranknicolson.grid_points": gauges.get("cranknicolson.grid_points", 0),
        "clocks.compute_clock.calls": clock["calls"],
        "clocks.compute_clock.s": clock["s"],
        "clocks.ms_per_point": per(clock["s"], clock["calls"], 1e3),
        "clocks.larmor_times.self_s": larmor["self_s"],
        "clocks.dwell_time.self_s": dwell["self_s"],
        "parallel.map.s": pmap["s"],
        "parallel.map.items": pmap["count"],
        "parallel.result_bytes": gauges.get("parallel.result_bytes", 0),
        "runconfig.parse_config.s": parse["s"],
        "cli.write_csv.s": csv["s"],
        "cli.write_csv.bytes": csv["count"],
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
    }
