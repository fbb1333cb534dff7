"""The ordered map that `hartman-sweep` hands to
`clocks.sweep_barrier_width`. Every block runs in this process; the class
stays as the seam where `perfbench/spans.py` counts the sweep's blocks."""


class WorkerMap:
    """Ordered map over items, in this process."""

    # read by perfbench/spans.py, which counts what an open pool pickles
    _pool = None

    def __call__(self, fn, items):
        return [fn(item) for item in items]
