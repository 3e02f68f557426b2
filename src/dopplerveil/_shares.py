"""Independent work split into shares over the CPUs the process may use.

`_in_shares(work, items)` calls `work(share)` once per share, where share w
of n is `items[w::n]`: interleaved, so a short last item does not leave one
share longer than the others.  The calling thread runs share 0 itself and a
thread pool, created on first use with one worker fewer than the CPUs, runs
the others.  With one CPU, or one item, the work runs inline and no thread
starts.  NumPy's FFTs and array loops release the GIL, so shares of such
work run at once.

A share owns what it writes: callers split frames or planes, never the
terms of one sum, so the results do not depend on how many shares there
are.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_local = threading.local()


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _local.worker = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _cpus() - 1),
                                       thread_name_prefix="dopplerveil-share",
                                       initializer=_mark_worker)
        return _pool


def _in_shares(work, items) -> None:
    """Call work(items[w::n]) for each of n shares, n = min(CPUs, items).

    Returns when every share has finished and raises the first error a
    share raised.  A pool worker that calls this runs its work inline, so
    work that splits again cannot wait on the pool it occupies.
    """
    items = list(items)
    n = min(len(items), _cpus())
    if n <= 1 or getattr(_local, "worker", False):
        work(items)
        return
    pool = _executor()
    futures = [pool.submit(work, items[w::n]) for w in range(1, n)]
    try:
        work(items[0::n])
    finally:
        wait(futures)
    for f in futures:
        f.result()
