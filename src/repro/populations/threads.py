"""In-call threads for streamed population passes.

A streamed pass spends its time in numpy kernels and in the seed-block
samplers, and both release the GIL, so a second thread inside one call
overlaps real work.  This module holds the four pieces a streaming
consumer needs for that, and nothing consumer-specific:

* :data:`THREADS` — how many threads one call may use, derived from the
  CPUs this process may run on and capped by :data:`MAX_THREADS`;
* :func:`call_pool` — a :class:`CallPool` that lives exactly as long as
  the call: ``threads - 1`` pool workers (none when the call runs
  serially; no thread outlives the call) and one :class:`Lane` per
  slice index;
* :func:`submit` and :func:`prefetch` — run work on that pool inside a
  copy of the caller's :mod:`contextvars` context, so metrics recorded
  by pool threads reach the caller's
  :func:`~repro.telemetry.runtime.capture` registry;
* :func:`sliced` — the one slice loop: cut every chunk into block-aligned
  :func:`slices`, fold slice 0 on the calling thread and the others on
  the pool, and hand the partial results back in population order;
* :class:`Lane` — the scratch arrays one slice index reuses from chunk
  to chunk and from pass to pass, so slice-sized temporaries are
  faulted in once per call, not once per fold.

Lanes are call-scoped: every pass of one call folds slice ``i`` with
the call's lane ``i``, and the lanes are emptied when the call ends.  A
lane key names a *role* in the slice fold ("the slice's roles", "a
float64 scratch row"), not a pass, so the passes of one call share the
same pages instead of each holding its own.

Callers fold results back in a fixed order, so output never depends on
the thread count; the population audit's gain pass
(:mod:`repro.schemes.population_audit`) and the streamed dynamics'
measure and update passes
(:mod:`repro.scenarios.population_dynamics`) are the users.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.populations.arrays import SEED_BLOCK, PopulationArrays

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

#: Fewest seed blocks a slice spans.  On smaller slices the kernels'
#: per-call Python work and the GIL hand-offs between threads cost more
#: than the second thread wins (a 4-block chunk folds faster whole than
#: as two 2-block slices on a 2-vCPU host).
MIN_SLICE_BLOCKS = 3


class CallPool:
    """One call's in-call threads: pool workers and one lane per slice index.

    ``executor`` runs ``threads - 1`` workers (``None`` when the call is
    serial); ``lanes[i]`` is the :class:`Lane` every pass of the call
    folds slice ``i`` with.
    """

    def __init__(self, threads: int) -> None:
        threads = max(1, threads)
        self.executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else None
        )
        self.lanes: List[Lane] = [Lane() for _ in range(threads)]


@contextmanager
def call_pool(threads: int) -> Iterator[CallPool]:
    """A :class:`CallPool` of ``threads`` threads for one call.

    Shut down on exit, waiting for running work and cancelling queued
    work, so no pool thread outlives the ``with`` block; the lanes are
    dropped then too, so no lane outlives it either.
    """
    call = CallPool(threads)
    try:
        yield call
    finally:
        if call.executor is not None:
            call.executor.shutdown(wait=True, cancel_futures=True)
        call.lanes.clear()


def submit(call: CallPool, fn: Callable[..., T], *args: object) -> "Future[T]":
    """Run ``fn(*args)`` on the call's pool inside a copy of the caller's context."""
    return call.executor.submit(contextvars.copy_context().run, fn, *args)


_DONE = object()


def prefetch(iterable: Iterable[T], pool: Optional[CallPool]) -> Iterator[T]:
    """Yield ``iterable``'s items, fetching the next one on ``pool``.

    While the caller works on item *k*, a pool thread produces item
    *k + 1*; items come back in order, and only one fetch is in flight,
    so the iterator is never advanced by two threads at once.  With no
    pool worker, or a sequence (its items already exist), this is plain
    iteration.
    """
    if pool is None or pool.executor is None or isinstance(iterable, Sequence):
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


def slices(chunk: PopulationArrays, n: int) -> List[PopulationArrays]:
    """Split a chunk into at most ``n`` block-aligned slices of near-equal size.

    Every slice spans at least :data:`MIN_SLICE_BLOCKS` seed blocks, so a
    small chunk (or ``n == 1``) comes back whole.
    """
    blocks = -(-chunk.n_agents // SEED_BLOCK)
    n = max(1, min(n, blocks // MIN_SLICE_BLOCKS))
    edges = sorted(
        {min(chunk.n_agents, blocks * i // n * SEED_BLOCK) for i in range(n + 1)}
    )
    if len(edges) <= 2:
        return [chunk]
    return [chunk.rows(start, stop) for start, stop in zip(edges, edges[1:])]


class Lane:
    """Scratch arrays that one fold at a time reuses from chunk to chunk.

    malloc hands freed slice-sized temporaries back to the OS and the next
    fold faults them in again; buffers taken from a lane keep their pages.
    :meth:`empty` returns the first ``n`` elements of the buffer named
    ``key`` as the last fold left them (regrown only when too small).

    A lane is call-scoped: :func:`call_pool` makes one per slice index,
    every pass of the call reuses it, and it is dropped when the call
    ends.  Keys name a role in the fold, not a pass, and each key keeps
    one dtype (a dtype change reallocates), so once the largest slice has
    been folded no pass allocates again.  Nothing a fold returns may
    alias a lane.
    """

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}

    def empty(self, key: object, n: int, dtype: type = np.float64) -> np.ndarray:
        """An uninitialized ``(n,)`` view of the buffer named ``key``."""
        return self._take(key, n, dtype, np.empty)

    def zeros(self, key: object, n: int) -> np.ndarray:
        """A zeroed float64 ``(n,)`` view of the buffer named ``key``."""
        return self._take(key, n, np.float64, np.zeros)

    def _take(self, key, n, dtype, new) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < n or buffer.dtype != dtype:
            # A fresh np.zeros is calloc'd: untouched pages stay unfaulted.
            buffer = self._buffers[key] = new(n, dtype)
        elif new is np.zeros:
            buffer[:n] = 0.0
        return buffer[:n]


def sliced(
    chunks: Iterable[PopulationArrays],
    pool: CallPool,
    fold: Callable[[PopulationArrays, Lane], T],
) -> Iterator[Tuple[PopulationArrays, Iterator[T]]]:
    """Yield ``(chunk, partials)`` for every chunk, in population order.

    ``pool`` is the call's :func:`call_pool`.  Chunks are prefetched on
    it and each is cut into one block-aligned :func:`slices` per lane;
    slices 1.. are submitted to the pool workers when the chunk is
    yielded.  ``partials`` yields the slices' results in population
    order: reading the first runs ``fold`` on slice 0 on the calling
    thread, the others are waited for, so the caller can work on the
    chunk before reading.  Read every partial
    before advancing: a worker's exception surfaces there, and the next
    chunk's slices reuse the lanes.  (Slice 0 runs on read, not before
    the yield, so no fold of one chunk runs while the caller still holds
    the previous chunk.)

    ``fold(slice, lane)`` must touch only its slice's rows of any shared
    array, since slices of one chunk run concurrently.  Slice ``i`` is
    folded with the call's lane ``i``, in this pass and every other.
    """
    lanes = pool.lanes
    for chunk in prefetch(chunks, pool):
        first, *rest = slices(chunk, len(lanes))
        pending = [submit(pool, fold, *job) for job in zip(rest, lanes[1:])]
        yield chunk, _in_order(fold, first, lanes[0], pending)


def _in_order(
    fold: Callable[[PopulationArrays, Lane], T],
    first: PopulationArrays,
    lane: Lane,
    pending: Sequence["Future[T]"],
) -> Iterator[T]:
    """``fold(first, lane)``, then each pending future's result, in order."""
    yield fold(first, lane)
    for future in pending:
        yield future.result()
