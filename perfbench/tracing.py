"""Outside-in span tracing for the benchmark's traced pass.

The recorder keeps **one span stack per thread**, so spans opened at the
same time on the asyncio loop thread and on a job-engine worker thread
nest and attribute self time independently.  Totals stay in memory
until the benchmark asks for them; nothing is written while spans run.

Spans are opened by wrappers that :func:`install` puts around the public
functions of each layer (see ``layers.py``), from the benchmark's own
files: the program under test is not edited.

Self time is a span's duration minus the time its child spans (on the
same thread) cover.  Coroutines are recorded as *leaf* spans: they
never enter the thread's stack, because other tasks on the same loop
run between their ``await`` points.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Lane names: which execution context recorded a span.
MAIN, THREAD, WORKER = "main", "thread", "worker"


class SpanRecorder:
    """Per-thread span stacks plus free counters, held until the end.

    ``clock`` is injectable so tests can drive time deterministically.
    Each thread owns its stack and its totals table; the shared lock is
    taken only to register a new thread's table and to bump counters.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span, counter and per-thread stack."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: List[Tuple[str, Dict[str, List[float]]]] = []
        self.counts: Dict[str, float] = {}
        self._distinct: Dict[str, set] = {}
        self._absorbed: Dict[str, int] = {}

    # -- spans ----------------------------------------------------------

    def _state(self) -> Tuple[List[list], Dict[str, List[float]]]:
        state = getattr(self._local, "state", None)
        if state is None:
            if os.getpid() != self.root_pid:
                lane = WORKER
            elif threading.current_thread() is threading.main_thread():
                lane = MAIN
            else:
                lane = THREAD
            table: Dict[str, List[float]] = {}
            with self._lock:
                self._tables.append((lane, table))
            state = self._local.state = ([], table)
        return state

    def enter(self, name: str) -> list:
        """Open a span on the calling thread's stack; returns its frame."""
        stack, _ = self._state()
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame`` (the top of this thread's stack)."""
        stack, table = self._state()
        elapsed = self.clock() - frame[1]
        stack.pop()
        if stack:
            stack[-1][2] += elapsed
        self._add(table, frame[0], elapsed - frame[2], elapsed)

    def leaf(self, name: str, elapsed: float) -> None:
        """Record a span that never enters the stack (a coroutine)."""
        _, table = self._state()
        self._add(table, name, elapsed, elapsed)

    @staticmethod
    def _add(table: Dict[str, List[float]], name: str, self_s: float, total_s: float) -> None:
        row = table.get(name)
        if row is None:
            row = table[name] = [0.0, 0.0, 0]
        row[0] += self_s
        row[1] += total_s
        row[2] += 1

    # -- counters -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a free counter (thread-safe)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def see(self, name: str, key: Any) -> None:
        """Remember ``key`` in the distinct-set ``name`` (thread-safe)."""
        with self._lock:
            self._distinct.setdefault(name, set()).add(key)

    def distinct(self, name: str) -> int:
        """Size of the distinct-set ``name`` (plus absorbed sizes)."""
        with self._lock:
            return len(self._distinct.get(name, ())) + self._absorbed.get(name, 0)

    # -- results --------------------------------------------------------

    def spans(self, lanes: Optional[Tuple[str, ...]] = None) -> Dict[str, Dict[str, float]]:
        """``{span: {"self_s", "total_s", "calls"}}`` summed over ``lanes``."""
        with self._lock:
            tables = list(self._tables)
        merged: Dict[str, Dict[str, float]] = {}
        for lane, table in tables:
            if lanes is not None and lane not in lanes:
                continue
            for name, (self_s, total_s, calls) in list(table.items()):
                row = merged.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
                row["self_s"] += self_s
                row["total_s"] += total_s
                row["calls"] += calls
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data (spans keyed by lane)."""
        with self._lock:
            tables = list(self._tables)
            counts = dict(self.counts)
            distinct = {name: len(keys) for name, keys in self._distinct.items()}
            for name, size in self._absorbed.items():
                distinct[name] = distinct.get(name, 0) + size
        lanes: Dict[str, Dict[str, List[float]]] = {}
        for lane, table in tables:
            target = lanes.setdefault(lane, {})
            for name, row in list(table.items()):
                acc = target.setdefault(name, [0.0, 0.0, 0])
                for i in range(3):
                    acc[i] += row[i]
        return {"lanes": lanes, "counts": counts, "distinct": distinct}

    def absorb(self, snapshot: Dict[str, Any], lane: Optional[str] = None) -> None:
        """Merge a :meth:`snapshot` taken elsewhere (a worker, a server).

        ``lane`` overrides the snapshot's own lane names.  Distinct-set
        sizes cannot be merged exactly, so they add up.
        """
        with self._lock:
            for own_lane, table in snapshot["lanes"].items():
                copy = {name: list(row) for name, row in table.items()}
                self._tables.append((lane or own_lane, copy))
            for name, amount in snapshot["counts"].items():
                self.counts[name] = self.counts.get(name, 0.0) + amount
            for name, size in snapshot["distinct"].items():
                self._absorbed[name] = self._absorbed.get(name, 0) + size

    # -- forked workers -------------------------------------------------

    def in_worker(self) -> bool:
        """Whether the caller runs in a process forked after installation."""
        return os.getpid() != self.root_pid

    def adopt_fork(self) -> None:
        """First call in a forked worker: forget the parent's copied state."""
        if self.pid != os.getpid():
            self.reset()

    def spool(self, directory: Path) -> None:
        """Write this worker's spans to ``directory`` and start afresh."""
        directory.mkdir(parents=True, exist_ok=True)
        snapshot = self.snapshot()
        self.reset()
        target = directory / f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot), encoding="utf-8")
        os.replace(tmp, target)

    def collect(self, directory: Path) -> None:
        """Absorb (and delete) every worker snapshot spooled into ``directory``."""
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("spans-*.json")):
            self.absorb(json.loads(path.read_text(encoding="utf-8")), lane=WORKER)
            path.unlink()


def traced(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
    on_error: Optional[Callable[[BaseException], None]] = None,
) -> Callable:
    """``fn`` wrapped in a span ``name`` on ``recorder``.

    ``on_result(args, kwargs, result)`` and ``on_error(exc)`` run after
    the span has closed, so their cost lands in the caller's self time.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = recorder.clock()
            try:
                result = await fn(*args, **kwargs)
            except BaseException as exc:
                recorder.leaf(name, recorder.clock() - start)
                if on_error is not None:
                    on_error(exc)
                raise
            recorder.leaf(name, recorder.clock() - start)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.exit(frame)
            if on_error is not None:
                on_error(exc)
            raise
        recorder.exit(frame)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores exactly."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` with ``value``, remembering the original."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
