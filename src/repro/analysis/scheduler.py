"""The reusable shard scheduler: one submit/collect engine, many clients.

This module is the execution core extracted from
:class:`~repro.analysis.orchestrator.Orchestrator`: everything about
*running attempts* — worker processes, pipes, retries with deterministic
backoff, per-attempt timeouts, worker-death recovery, the sweep deadline
and fault-injection hooks — lives here, behind one generator API:

    ``ShardScheduler.execute(task, pending, instrument, failures)``

yields ``(index, result, elapsed, snapshot, attempts)`` tuples as shards
complete (any order; callers re-order).  The
:class:`~repro.analysis.orchestrator.Orchestrator` wraps the scheduler
with the shard cache, telemetry merging and canonical-order merge the
CLI experiments rely on; the audit service's job engine
(:mod:`repro.service.engine`) executes its jobs through the very same
orchestrator, so the CLI and the HTTP front end are two clients of one
engine — same retry classification, same determinism guarantee (a
retried shard reuses its deterministic seed, so recovery never changes
bytes), same telemetry families.

Execution backends:

* **inline** (``workers <= 1`` or a single pending shard): shards run in
  the calling process.  ``shard_timeout_s`` cannot preempt an in-process
  shard, so it is not enforced here, and ``kill``/``hang`` fault kinds
  degrade to ``raise``; the sweep ``deadline_s`` is checked between
  attempts.
* **pool**: each worker process owns a private duplex pipe and executes
  one ``(shard, attempt)`` at a time, so the parent always knows who is
  running what and since when.  The loop multiplexes on pipes plus
  process sentinels, giving it completion collection, hung-shard
  SIGKILL + respawn, worker-death recovery with requeue, deterministic
  retry backoff and the sweep deadline in one place.
"""

from __future__ import annotations

import logging
import multiprocessing
import signal
import threading
import time
from collections import deque
from multiprocessing import connection as _mp_connection
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import faults
from repro.analysis.retry import (
    DEFAULT_EXECUTION_POLICY,
    ExecutionPolicy,
    FailedShard,
    is_retryable,
)
from repro.analysis.sweep import Shard
from repro.errors import (
    OrchestrationError,
    ShardTimeoutError,
    SweepDeadlineError,
    WorkerCrashError,
)
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import capture, get_registry

#: A shard task: ``(params, seed) -> JSON-serializable result``.
ShardTask = Callable[[Mapping[str, Any], int], Any]

#: One completed shard attempt: ``(index, result, elapsed, snapshot, attempts)``.
ShardCompletion = Tuple[int, Any, float, Optional[Dict[str, Any]], int]

#: Operational warnings (retries, worker deaths) share the orchestrator's
#: logger so embedding applications configure one name, not two.
_ops_logger = logging.getLogger("repro.orchestrator")


def _wrap_shard_error(shard: Shard, attempt: int, exc: Exception) -> OrchestrationError:
    """Wrap a shard exception with its parameters, preserving the subclass.

    In a 200-shard campaign, "N(100,10) instance 17 failed" beats a bare
    traceback; keeping :class:`OrchestrationError` subclasses intact
    (timeouts, injected faults) keeps retry classification and telemetry
    reasons meaningful.
    """
    message = (
        f"shard {shard.index} {dict(shard.params)} failed "
        f"(attempt {attempt}): {exc}"
    )
    if isinstance(exc, OrchestrationError):
        wrapped = type(exc)(message)
    else:
        wrapped = OrchestrationError(message)
    wrapped.__cause__ = exc
    return wrapped


def _run_shard(
    task: ShardTask,
    shard: Shard,
    instrument: bool = False,
    attempt: int = 1,
    inline: bool = False,
) -> Tuple[int, Any, float, Optional[Dict[str, Any]]]:
    """Execute one shard attempt; returns ``(index, result, elapsed, snapshot)``.

    Module-level so it pickles for the worker pool.  An active
    :class:`~repro.faults.FaultPlan` is consulted first (``inline`` marks
    serial execution, where ``kill``/``hang`` degrade to ``raise``).
    Exceptions are wrapped with the shard's parameters via
    :func:`_wrap_shard_error`.

    With ``instrument=True`` the task runs inside a private
    :func:`~repro.telemetry.runtime.capture` registry and the fourth
    element is its snapshot; otherwise it is ``None`` and no registry is
    allocated.  The inline (``workers<=1``) path and the pool path both go
    through here, so serial and parallel runs instrument identically.
    ``capture`` is context-local, so an inline shard running on one of
    the audit service's job-engine threads never swaps the registry out
    from under the event loop's ``/metrics`` or a sibling worker.
    """
    snapshot: Optional[Dict[str, Any]] = None
    start = time.perf_counter()
    try:
        faults.fire_shard_fault(shard.index, attempt, inline=inline)
        if instrument:
            with capture() as registry:
                result = task(shard.params, shard.seed)
            elapsed = time.perf_counter() - start
            snapshot = registry.snapshot()
        else:
            result = task(shard.params, shard.seed)
            elapsed = time.perf_counter() - start
    except Exception as exc:
        raise _wrap_shard_error(shard, attempt, exc) from exc
    return shard.index, result, elapsed, snapshot


def _worker_main(task: ShardTask, conn: Any, parent_end: Any, instrument: bool) -> None:
    """Pool-worker loop: receive ``(shard, attempt)``, send back the outcome.

    SIGINT is ignored so Ctrl-C is handled once, by the parent, which
    then shuts workers down cleanly.  A ``None`` message (or a closed
    pipe) ends the loop.  Errors travel back as exception *instances* —
    the custom taxonomy pickles cleanly — so the parent can classify
    retryability without re-parsing strings.

    ``parent_end`` is the parent's side of this worker's pipe, closed
    here first thing: under the ``fork`` start method the child inherits
    a copy of it, and an unclosed copy would keep ``recv`` from ever
    seeing EOF after the parent dies — orphaned workers would block
    forever instead of exiting.  (Copies of *older* siblings' pipes are
    also inherited; those unwind youngest-first once each worker's own
    copy is closed, so a SIGKILLed parent never strands the pool.)
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        parent_end.close()
    except OSError:
        pass
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            shard, attempt = message
            try:
                index, result, elapsed, snapshot = _run_shard(
                    task, shard, instrument, attempt=attempt
                )
                conn.send(("done", index, attempt, result, elapsed, snapshot))
            except Exception as exc:
                conn.send(("error", shard.index, attempt, exc))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _default_start_method() -> Optional[str]:
    """The start method a pool uses when the caller names none.

    ``None`` (the platform default) on the main thread.  Off it — a
    service job-engine thread running a sweep while the event loop and
    sibling workers hold locks — ``fork`` would copy a lock another
    thread holds (a metrics registry's, logging's) into the child
    locked, and the child would hang on first use; ``forkserver``
    children start from a clean single-threaded server instead.
    """
    if threading.current_thread() is threading.main_thread():
        return None
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return None


class _PoolWorker:
    """Parent-side handle of one tracked worker process.

    Unlike ``Pool``'s anonymous workers, each handle knows exactly which
    ``(shard, attempt)`` its process is executing and since when — the
    information timeout enforcement and death recovery both need.
    """

    __slots__ = ("process", "conn", "current", "started_at")

    def __init__(self, context: Any, task: ShardTask, instrument: bool) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(task, child_conn, parent_conn, instrument),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.current: Optional[Tuple[Shard, int]] = None
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        """Whether a shard attempt is currently assigned to this worker."""
        return self.current is not None

    def submit(self, shard: Shard, attempt: int) -> None:
        """Hand ``(shard, attempt)`` to the worker process."""
        self.current = (shard, attempt)
        self.started_at = time.monotonic()
        self.conn.send((shard, attempt))

    def kill(self) -> None:
        """SIGKILL the worker and reap it (timeout/shutdown path)."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        """Ask an idle worker to exit; falls back to kill on any trouble."""
        try:
            self.conn.send(None)
            self.process.join(timeout=1.0)
        except (OSError, ValueError):
            pass
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class ShardScheduler:
    """The submit/collect loop, reusable outside the orchestrator.

    Parameters
    ----------
    workers:
        Concrete worker count (callers normalize ``"auto"`` first, e.g.
        via :func:`~repro.analysis.orchestrator.resolve_workers`).
        ``<= 1`` executes inline in the calling process.
    policy:
        The :class:`~repro.analysis.retry.ExecutionPolicy` governing
        retries, timeouts, the sweep deadline and partial-result mode.
        ``None`` keeps the fail-fast default.
    mp_context:
        ``multiprocessing`` start-method name (default: the platform
        default, ``fork`` on Linux, except ``forkserver`` when the pool
        is started off the main thread — see
        :func:`_default_start_method`).

    The scheduler owns the recovery telemetry families (retries,
    backoff, timeouts, worker deaths, failed shards, injected faults);
    whoever wraps it — orchestrator or service — layers its own metrics
    on top.  ``n_retries`` accumulates across :meth:`execute` calls on
    the same instance.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: Optional[ExecutionPolicy] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else DEFAULT_EXECUTION_POLICY
        self._mp_context = mp_context
        self.n_retries = 0
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Resolve the recovery metric families from the active registry."""
        registry = get_registry()
        self._metric_retries = registry.counter(
            "repro_orchestrator_retries_total",
            "Shard attempts retried after a retryable failure, by reason",
            labels=("reason",),
        )
        self._metric_timeouts = registry.counter(
            "repro_orchestrator_shard_timeouts_total",
            "Shard attempts killed for exceeding shard_timeout_s",
        )
        self._metric_worker_deaths = registry.counter(
            "repro_orchestrator_worker_deaths_total",
            "Pool workers that died mid-shard and were respawned",
        )
        self._metric_failed_shards = registry.counter(
            "repro_orchestrator_failed_shards_total",
            "Shards recorded as failed under on_error='partial'",
        )
        self._metric_backoff = registry.histogram(
            "repro_orchestrator_retry_backoff_seconds",
            "Deterministic backoff delay before each retry",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._metric_faults_injected = registry.counter(
            "repro_faults_injected_total",
            "Faults fired from the active fault plan, by site and kind",
            labels=("site", "kind"),
        )

    # -- failure resolution (shared by inline and pool paths) ---------------

    def _count_injected(self, shard: Shard, attempt: int) -> None:
        """Count a planned shard-site fault at dispatch time (parent-side).

        Parent-side counting survives even the ``kill`` kind, whose
        worker never lives to report anything.
        """
        plan = faults.active_plan()
        if plan is None:
            return
        spec = plan.match(faults.SITE_SHARD, shard.index, attempt)
        if spec is not None:
            self._metric_faults_injected.labels(
                site=faults.SITE_SHARD, kind=spec.kind
            ).inc()

    def _resolve_failure(
        self,
        shard: Shard,
        attempt: int,
        error: BaseException,
        failures: List[FailedShard],
    ) -> Optional[float]:
        """Decide what happens after a failed attempt.

        Returns the backoff delay in seconds when the shard should be
        retried; returns ``None`` when the failure is final and was
        recorded (partial mode); raises when the sweep must abort.
        """
        retry = self.policy.retry
        if isinstance(error, ShardTimeoutError):
            self._metric_timeouts.inc()
            reason = "timeout"
        elif isinstance(error, WorkerCrashError):
            self._metric_worker_deaths.inc()
            reason = "worker_death"
        else:
            reason = "exception"
        if is_retryable(error) and attempt < retry.max_attempts:
            delay = retry.backoff_for(shard.key, attempt + 1)
            self._metric_retries.labels(reason=reason).inc()
            self._metric_backoff.observe(delay)
            self.n_retries += 1
            _ops_logger.warning(
                "retrying shard %d (attempt %d/%d in %.3fs): %s",
                shard.index,
                attempt + 1,
                retry.max_attempts,
                delay,
                error,
            )
            return delay
        if self.policy.on_error == "partial" and not isinstance(
            error, (KeyboardInterrupt, SystemExit)
        ):
            self._metric_failed_shards.inc()
            record = FailedShard(
                shard=shard,
                attempts=attempt,
                error_type=type(error).__name__,
                message=str(error),
            )
            failures.append(record)
            _ops_logger.warning("giving up on %s", record.describe())
            return None
        raise error

    # -- execution backends -------------------------------------------------

    def execute(
        self,
        task: ShardTask,
        pending: List[Shard],
        instrument: bool = False,
        failures: Optional[List[FailedShard]] = None,
    ) -> Iterator[ShardCompletion]:
        """Yield ``(index, result, elapsed, snapshot, attempts)`` per success.

        Completion order is arbitrary under the pool; callers re-order.
        Final failures are appended to ``failures`` (partial mode) or
        raised.  ``instrument`` travels inside each job so spawn-context
        workers (which do not inherit the parent's active registry)
        still know whether to capture a snapshot.
        """
        if failures is None:
            failures = []
        if not pending:
            return
        if self.workers <= 1 or len(pending) == 1:
            yield from self._execute_inline(task, pending, instrument, failures)
        else:
            yield from self._execute_pool(task, pending, instrument, failures)

    def _execute_inline(
        self,
        task: ShardTask,
        pending: List[Shard],
        instrument: bool,
        failures: List[FailedShard],
    ) -> Iterator[ShardCompletion]:
        """Serial backend: same retry/deadline semantics, no preemption.

        ``shard_timeout_s`` cannot interrupt an in-process shard, so it
        is not enforced here (``kill``/``hang`` faults degrade to
        ``raise`` for the same reason); the sweep ``deadline_s`` is
        checked between attempts.
        """
        deadline_at = (
            time.monotonic() + self.policy.deadline_s
            if self.policy.deadline_s is not None
            else None
        )
        expired = False
        for position, shard in enumerate(pending):
            attempt = 1
            while True:
                if deadline_at is not None and time.monotonic() > deadline_at:
                    expired = True
                    break
                self._count_injected(shard, attempt)
                try:
                    index, result, elapsed, snapshot = _run_shard(
                        task, shard, instrument, attempt=attempt, inline=True
                    )
                except Exception as exc:
                    delay = self._resolve_failure(shard, attempt, exc, failures)
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                yield index, result, elapsed, snapshot, attempt
                break
            if expired:
                deadline_error = SweepDeadlineError(
                    f"sweep deadline of {self.policy.deadline_s}s expired with "
                    f"{len(pending) - position} shard(s) unfinished"
                )
                for remaining in pending[position:]:
                    self._resolve_failure(remaining, 1, deadline_error, failures)
                return

    def _execute_pool(
        self,
        task: ShardTask,
        pending: List[Shard],
        instrument: bool,
        failures: List[FailedShard],
    ) -> Iterator[ShardCompletion]:
        """Pooled backend: tracked async submission over private pipes.

        Each worker owns a duplex pipe and executes one ``(shard,
        attempt)`` at a time, so the parent always knows who is running
        what and since when.  The loop multiplexes on pipe + process
        sentinels, which gives it, in one place:

        * completion collection (any order),
        * hung-shard enforcement (`shard_timeout_s` → SIGKILL + respawn),
        * worker-death recovery (sentinel/EOF → respawn + requeue),
        * deterministic retry backoff (a ``not_before`` ready queue),
        * the sweep deadline.
        """
        policy = self.policy
        context = multiprocessing.get_context(
            self._mp_context or _default_start_method()
        )
        n_procs = min(self.workers, len(pending))
        deadline_at = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        #: (shard, attempt, not_before) — retries wait out their backoff here.
        ready: Deque[Tuple[Shard, int, float]] = deque(
            (shard, 1, 0.0) for shard in pending
        )
        outstanding = len(pending)
        workers = [_PoolWorker(context, task, instrument) for _ in range(n_procs)]

        def fail_attempt(shard: Shard, attempt: int, error: Exception) -> int:
            """Shared post-failure bookkeeping; returns outstanding delta."""
            delay = self._resolve_failure(shard, attempt, error, failures)
            if delay is None:
                return -1
            ready.append((shard, attempt + 1, time.monotonic() + delay))
            return 0

        try:
            while outstanding > 0:
                now = time.monotonic()

                if deadline_at is not None and now > deadline_at:
                    deadline_error = SweepDeadlineError(
                        f"sweep deadline of {policy.deadline_s}s expired with "
                        f"{outstanding} shard(s) unfinished"
                    )
                    abandoned: List[Tuple[Shard, int]] = [
                        (shard, attempt) for shard, attempt, _ in ready
                    ]
                    for worker in workers:
                        if worker.busy:
                            abandoned.append(worker.current)
                    ready.clear()
                    for shard, attempt in abandoned:
                        # Never retryable: _resolve_failure records or raises.
                        self._resolve_failure(
                            shard, attempt, deadline_error, failures
                        )
                        outstanding -= 1
                    return

                # Dispatch ready work onto idle workers.
                for worker in workers:
                    if worker.busy:
                        continue
                    item = self._pop_ready(ready, now)
                    if item is None:
                        break
                    shard, attempt, _ = item
                    self._count_injected(shard, attempt)
                    try:
                        worker.submit(shard, attempt)
                    except (OSError, ValueError):
                        # The pipe died between checks: treat as a crash.
                        worker.kill()
                        workers[workers.index(worker)] = _PoolWorker(
                            context, task, instrument
                        )
                        ready.appendleft((shard, attempt, now))

                busy = [worker for worker in workers if worker.busy]
                wait_handles = [worker.conn for worker in busy] + [
                    worker.process.sentinel for worker in busy
                ]
                timeout = self._next_wake(busy, ready, deadline_at, now)
                if wait_handles:
                    ready_handles = _mp_connection.wait(
                        wait_handles, timeout=timeout
                    )
                else:
                    time.sleep(timeout if timeout is not None else 0.01)
                    ready_handles = []

                # Drain completions first (a worker that answered and then
                # died of natural shutdown causes must not read as a crash).
                for worker in busy:
                    if worker.conn not in ready_handles:
                        continue
                    shard, attempt = worker.current
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        continue  # death: the sentinel scan below handles it
                    worker.current = None
                    if message[0] == "done":
                        _, index, attempt, result, elapsed, snapshot = message
                        outstanding -= 1
                        yield index, result, elapsed, snapshot, attempt
                    else:
                        _, _, attempt, error = message
                        outstanding += fail_attempt(shard, attempt, error)

                # Liveness + timeout enforcement on whoever is still busy.
                now = time.monotonic()
                for slot, worker in enumerate(workers):
                    if not worker.busy:
                        continue
                    shard, attempt = worker.current
                    if not worker.process.is_alive():
                        worker.kill()
                        workers[slot] = _PoolWorker(context, task, instrument)
                        crash = WorkerCrashError(
                            f"worker pid {worker.process.pid} died executing "
                            f"shard {shard.index} (attempt {attempt}); "
                            "respawned the worker and requeued the shard"
                        )
                        outstanding += fail_attempt(shard, attempt, crash)
                    elif (
                        policy.shard_timeout_s is not None
                        and now - worker.started_at > policy.shard_timeout_s
                    ):
                        worker.kill()
                        workers[slot] = _PoolWorker(context, task, instrument)
                        timeout_error = ShardTimeoutError(
                            f"shard {shard.index} (attempt {attempt}) exceeded "
                            f"shard_timeout_s={policy.shard_timeout_s}s; "
                            "killed the worker and respawned it"
                        )
                        outstanding += fail_attempt(shard, attempt, timeout_error)
        finally:
            for worker in workers:
                if worker.busy:
                    worker.kill()
                else:
                    worker.shutdown()

    @staticmethod
    def _pop_ready(
        ready: Deque[Tuple[Shard, int, float]], now: float
    ) -> Optional[Tuple[Shard, int, float]]:
        """Pop the first queue item whose backoff has elapsed, if any."""
        for _ in range(len(ready)):
            item = ready.popleft()
            if item[2] <= now:
                return item
            ready.append(item)
        return None

    def _next_wake(
        self,
        busy: List[_PoolWorker],
        ready: Deque[Tuple[Shard, int, float]],
        deadline_at: Optional[float],
        now: float,
    ) -> Optional[float]:
        """Longest safe blocking time before a timer could need service.

        ``None`` (block until a pipe/sentinel event) when no shard
        timeout, backoff expiry, or deadline is pending — the common
        fault-free case, where the loop wakes only on real events.
        """
        wakes: List[float] = []
        if self.policy.shard_timeout_s is not None:
            for worker in busy:
                wakes.append(worker.started_at + self.policy.shard_timeout_s)
        for _, _, not_before in ready:
            if not_before > now:
                wakes.append(not_before)
        if deadline_at is not None:
            wakes.append(deadline_at)
        if not wakes:
            return None
        return min(0.5, max(0.01, min(wakes) - now))
