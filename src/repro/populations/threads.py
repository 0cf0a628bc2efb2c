"""In-call threads for streamed population passes.

A streamed pass spends its time in numpy kernels and in the seed-block
samplers, and both release the GIL, so a second thread inside one call
overlaps real work.  This module holds the three pieces a streaming
consumer needs for that, and nothing consumer-specific:

* :data:`THREADS` — how many threads one call may use, derived from the
  CPUs this process may run on and capped by :data:`MAX_THREADS`;
* :func:`call_pool` — a pool of ``threads - 1`` workers that lives
  exactly as long as the call (no thread outlives it), or ``None`` when
  the call runs serially;
* :func:`submit` and :func:`prefetch` — run work on that pool inside a
  copy of the caller's :mod:`contextvars` context, so metrics recorded
  by pool threads reach the caller's
  :func:`~repro.telemetry.runtime.capture` registry.

Callers fold results back in a fixed order, so output never depends on
the thread count; :mod:`repro.schemes.population_audit` is the user.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Most threads one call uses.  Every extra thread gets its own glibc
#: malloc arena, and each in-flight slice adds its working set, so more
#: threads buy speed with resident memory (see docs/scaling.md).
MAX_THREADS = 2


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform exposes affinity
        return os.cpu_count() or 1


#: Threads one streamed call uses: the main thread plus ``THREADS - 1``
#: pool workers.  Derived once per process; ``taskset -c 0`` gives 1.
THREADS = max(1, min(MAX_THREADS, usable_cpus()))


@contextmanager
def call_pool(threads: int) -> Iterator[Optional[ThreadPoolExecutor]]:
    """A ``threads - 1`` worker pool for one call (``None`` when serial).

    Shut down on exit, waiting for running work and cancelling queued
    work, so no pool thread outlives the ``with`` block.
    """
    if threads <= 1:
        yield None
        return
    pool = ThreadPoolExecutor(max_workers=threads - 1)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def submit(
    pool: ThreadPoolExecutor, fn: Callable[..., T], *args: object
) -> "Future[T]":
    """``pool.submit(fn, *args)`` inside a copy of the caller's context."""
    return pool.submit(contextvars.copy_context().run, fn, *args)


_DONE = object()


def prefetch(iterable: Iterable[T], pool: Optional[ThreadPoolExecutor]) -> Iterator[T]:
    """Yield ``iterable``'s items, fetching the next one on ``pool``.

    While the caller works on item *k*, a pool thread produces item
    *k + 1*; items come back in order, and only one fetch is in flight,
    so the iterator is never advanced by two threads at once.  With no
    pool, or a sequence (its items already exist), this is plain
    iteration.
    """
    if pool is None or isinstance(iterable, Sequence):
        yield from iterable
        return
    iterator = iter(iterable)
    pending = submit(pool, next, iterator, _DONE)
    while True:
        item = pending.result()
        if item is _DONE:
            return
        pending = submit(pool, next, iterator, _DONE)
        yield item
