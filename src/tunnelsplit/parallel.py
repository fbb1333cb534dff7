"""Worker-pool capability handed to the barrier-width sweep.

`clocks.sweep_barrier_width` stays policy-free: it accepts a map-like
callable and keeps its results in submission order, so outputs are
identical for any worker count.
"""


class WorkerMap:
    """Ordered map over items, serial for workers <= 1."""

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self._pool = None

    def __enter__(self):
        if self.workers > 1:
            # imported here: the pool modules take about 17 ms to import,
            # and every subcommand but a multi-worker sweep does without them
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        return False

    def __call__(self, fn, items):
        items = list(items)
        if self._pool is None:
            return [fn(item) for item in items]
        return list(self._pool.map(fn, items))
