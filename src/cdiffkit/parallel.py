"""Ordered parallel map over worker processes (fork start method).

The shared state of a map (field tables, function values) reaches the
workers through the pool initializer, which fork hands down without
pickling; only the items and the results cross process boundaries.
Results come back in item order, so callers see the same list for every
worker count.
"""

from __future__ import annotations

import os

_worker = None   # (fn, state), set in each pool worker by _init_worker


def worker_count(threads: int, n_items: int) -> int:
    """Processes to start: min(threads, n_items, cpu count), at least 1.
    threads < 1 is rejected.  The cpu count is asked for only when more
    than one process could start."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, n_items)
    return min(workers, os.cpu_count() or 1) if workers > 1 else 1


def _init_worker(fn, state):
    global _worker
    _worker = (fn, state)


def _call(item):
    fn, state = _worker
    return fn(state, item)


def parallel_map(fn, state, items, threads: int) -> list:
    """[fn(state, item) for item in items], spread over up to `threads`
    worker processes; serial when one worker suffices or fork is missing."""
    items = list(items)
    workers = worker_count(threads, len(items))
    if workers > 1:
        import multiprocessing as mp   # only when workers are started
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            workers = 1
    if workers == 1:
        return [fn(state, item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ctx.Pool(processes=workers, initializer=_init_worker,
                  initargs=(fn, state)) as pool:
        return pool.map(_call, items, chunksize=chunk)
