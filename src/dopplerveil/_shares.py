"""Independent work split into shares over the CPUs the process may use.

`_in_shares(work, items)` calls `work(share)` once per share, where share w
of n is `items[w::n]`: interleaved, so a short last item does not leave one
share longer than the others.  The calling thread runs share 0 itself and a
thread pool, created on first use with one worker fewer than the CPUs, runs
the others.  `most` caps the share count.  With one CPU, one item or
`most=1`, the work runs inline and no thread starts.  NumPy's FFTs and
array loops release the GIL, so shares of such work run at once.

Shares never nest.  A pool worker runs any work that splits again inline,
as one share, and so does the caller while another of its shares still
runs: the process keeps one pool, sized to its CPUs, and a share never
waits on a pool whose workers wait on it.  Once its other shares have
finished, the caller's share has the CPUs to itself, so its splits use the
pool again.  A sweep's points are shares: a point's own work runs inline
while another point runs, and a point that runs alone (a sweep on one
thread, or the caller's last point after the others are done) splits its
work as a run does.

A share owns what it writes: callers split frames or chunks of probes,
never the terms of one sum, so the results do not depend on how many
shares there are.
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


def _inline() -> bool:
    """Whether a split on this thread runs inline: on a pool worker, or in
    the caller's own share while another of its shares still runs."""
    return getattr(_local, "worker", False) or not all(
        f.done() for f in getattr(_local, "others", ()))


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _cpus() - 1),
                                       thread_name_prefix="dopplerveil-share",
                                       initializer=_mark_worker)
        return _pool


def _in_shares(work, items, most: int | None = None) -> None:
    """Call work(items[w::n]) for each of n = min(CPUs, items, most) shares.

    Returns when every share has finished and raises the first error a
    share raised.  Where `_inline()` holds it runs its work inline, so
    shares never nest.
    """
    items = list(items)
    n = min(len(items), _cpus(), len(items) if most is None else most)
    if n <= 1 or _inline():
        work(items)
        return
    pool = _executor()
    futures = [pool.submit(work, items[w::n]) for w in range(1, n)]
    outer, _local.others = getattr(_local, "others", ()), futures
    try:
        work(items[0::n])
    finally:
        _local.others = outer
        wait(futures)
    for f in futures:
        f.result()
