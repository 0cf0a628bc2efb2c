"""The job engine: bounded queue, admission control, memoization, workers.

The engine is the service's synchronous core — the asyncio front end
(:mod:`repro.service.app`) calls into it with plain method calls and
never blocks on compute, because jobs execute on dedicated worker
threads.  Three cooperating mechanisms keep a long-running service
healthy under concurrent load:

* **Admission control**: submissions are refused with
  :class:`~repro.errors.AdmissionError` (HTTP 429 + ``Retry-After``)
  when the pending queue is at its high watermark or the submitting
  client already holds ``max_client_inflight`` unfinished jobs.
  Refusing early is the point — a bounded queue degrades to fast,
  honest 429s instead of unbounded latency.
* **Memoization + single-flight**: every job's content-hash key
  (:func:`~repro.service.jobs.job_key`) indexes a table of
  *executions*.  A key seen before and **successfully** finished is a
  **memo hit** — the new job record completes instantly with the stored
  result bytes.  A key currently queued or running is a **dedup hit** —
  the new record attaches to the in-flight execution, so N concurrent
  identical requests cost exactly one computation.  Result bytes are
  rendered once per execution (by
  :func:`~repro.analysis.experiments.dump_payload`, the CLI's
  serialization), so every record sharing a key serves byte-identical
  payloads.  Failures are **never**
  memoized: a failed execution is dropped from the key table the
  moment it finishes (its records keep answering status queries), so
  resubmitting after a transient failure — a shard timeout, a worker
  death, an injected fault — re-executes instead of replaying the
  cached error forever.
* **LRU eviction**: finished job *records* (id -> status) are evicted
  oldest-touched-first beyond ``max_records``; a later ``GET`` on an
  evicted id is a clean 404 (:class:`~repro.errors.JobNotFoundError`).
  Executions (key -> result) live in their own LRU of the same size,
  so the memo cache is bounded too.

Everything observable is counted in :mod:`repro.telemetry` — queue
depth, admissions and rejections, dedup/memo hits, per-kind job
latency — which is how the soak test *proves* single-flight: N clients,
one ``repro_service_jobs_executed_total`` increment.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.analysis.experiments import dump_payload
from repro.errors import AdmissionError, JobNotFoundError
from repro.service.jobs import JobContext, PreparedJob, prepare_job
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry

__all__ = ["EngineConfig", "JobEngine", "JobStatus"]

#: Job lifecycle states, in order.
_QUEUED, _RUNNING, _DONE, _FAILED = "queued", "running", "done", "failed"


@dataclass(frozen=True)
class EngineConfig:
    """Operator-facing engine knobs (the ``repro-runner serve`` flags).

    ``max_queue`` is the admission high watermark on *pending
    executions*; ``max_client_inflight`` caps unfinished jobs per
    client identity; ``max_records`` bounds both the job-record store
    and the memo cache (LRU eviction beyond it); ``service_workers`` is
    the number of job-executing threads; ``retry_after_s`` is surfaced
    verbatim in 429 responses.  ``context`` carries the per-job
    orchestrator resources (worker pool size, shard cache, robustness
    policy).

    Client identity is whatever string the front end passes to
    :meth:`JobEngine.submit` — the client-chosen ``X-Client-Id`` header
    when present, else the peer address.  It is advisory fair-share
    state, not a security boundary: a client minting a fresh id per
    request sidesteps its own cap (the global ``max_queue`` watermark
    still holds).  The per-client table only tracks identities with
    jobs currently in flight (entries are deleted at zero), so it is
    bounded by the number of live job records, not by the number of
    distinct ids ever seen.
    """

    max_queue: int = 8
    max_client_inflight: int = 4
    max_records: int = 256
    service_workers: int = 1
    retry_after_s: float = 1.0
    context: JobContext = JobContext()


class _Execution:
    """One computation: the single flight all records with its key share."""

    def __init__(self, job: PreparedJob) -> None:
        self.job = job
        self.state = _QUEUED
        self.payload_json: Optional[str] = None
        self.error: Optional[Dict[str, str]] = None
        self.done = threading.Event()
        #: ids of every record attached to this flight (for fan-out).
        self.record_ids: List[str] = []


@dataclass
class JobStatus:
    """A point-in-time public snapshot of one job record."""

    id: str
    kind: str
    state: str
    key: str
    params: Dict[str, Any]
    deduplicated: bool
    memoized: bool
    error: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON body served by ``GET /v1/jobs/{id}``."""
        body: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "key": self.key,
            "params": self.params,
            "deduplicated": self.deduplicated,
            "memoized": self.memoized,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.state == _DONE:
            body["result_url"] = f"/v1/jobs/{self.id}/result"
        return body


@dataclass
class _Record:
    """One submission: a client-visible id attached to an execution."""

    id: str
    client: str
    execution: _Execution
    deduplicated: bool = False
    memoized: bool = False
    finished: bool = field(default=False)


class JobEngine:
    """Thread-safe job queue + memo store behind the HTTP front end.

    Lifecycle: construct, :meth:`start`, submit/get from any thread,
    :meth:`stop`.  :meth:`pause` / :meth:`resume` freeze the worker
    threads between jobs — tests use them to pile up a deterministic
    backlog for admission-control and single-flight assertions.
    """

    def __init__(self, config: EngineConfig = EngineConfig()) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: Deque[_Execution] = deque()
        self._executions: "OrderedDict[str, _Execution]" = OrderedDict()
        self._records: "OrderedDict[str, _Record]" = OrderedDict()
        self._inflight_by_client: Dict[str, int] = {}
        self._paused = False
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._seq = 0
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        registry = get_registry()
        self._m_jobs = registry.counter(
            "repro_service_jobs_total",
            "Job records by kind and terminal outcome.",
            labels=("kind", "outcome"),
        )
        self._m_executed = registry.counter(
            "repro_service_jobs_executed_total",
            "Underlying computations actually executed (post-dedup/memo).",
            labels=("kind",),
        )
        self._m_dedup = registry.counter(
            "repro_service_dedup_hits_total",
            "Submissions attached to an already-in-flight identical job.",
            labels=("kind",),
        )
        self._m_memo = registry.counter(
            "repro_service_memo_hits_total",
            "Submissions answered from the completed-result memo cache.",
            labels=("kind",),
        )
        self._m_rejected = registry.counter(
            "repro_service_admission_rejections_total",
            "Submissions refused by admission control, by reason.",
            labels=("reason",),
        )
        self._m_evicted = registry.counter(
            "repro_service_evictions_total",
            "Completed job records evicted from the LRU store.",
        )
        self._m_depth = registry.gauge(
            "repro_service_queue_depth",
            "Executions queued and not yet started.",
        )
        self._m_job_seconds = registry.histogram(
            "repro_service_job_seconds",
            "Wall-clock seconds per executed job.",
            labels=("kind",),
            buckets=DEFAULT_TIME_BUCKETS,
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            for index in range(max(1, self.config.service_workers)):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def stop(self) -> None:
        """Stop the workers; queued-but-unstarted jobs stay queued."""
        with self._work_ready:
            self._stopping = True
            self._work_ready.notify_all()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads.clear()

    def pause(self) -> None:
        """Freeze workers between jobs (deterministic backlogs in tests)."""
        with self._work_ready:
            self._paused = True

    def resume(self) -> None:
        """Unfreeze workers paused by :meth:`pause`."""
        with self._work_ready:
            self._paused = False
            self._work_ready.notify_all()

    # -- submission -------------------------------------------------------

    def submit(self, kind: Any, params: Any, client: str) -> JobStatus:
        """Validate, admit, and enqueue (or dedup/memo) one request.

        Raises :class:`~repro.errors.ConfigurationError` on a bad spec
        and :class:`~repro.errors.AdmissionError` when refused; both are
        raised before any state changes, so a rejected request leaves no
        residue.
        """
        job = prepare_job(kind, params)  # ConfigurationError -> HTTP 400
        with self._lock:
            # Only successful executions stay in the key table (_finish
            # drops failed ones), so a memo hit is always a done result
            # and a failure never blocks re-execution of its key.
            existing = self._executions.get(job.key)
            memo_hit = existing is not None and existing.state == _DONE
            dedup_hit = existing is not None and not memo_hit
            if not memo_hit and not dedup_hit:
                if len(self._pending) >= self.config.max_queue:
                    self._m_rejected.labels(reason="queue_full").inc()
                    raise AdmissionError(
                        f"job queue at high watermark "
                        f"({self.config.max_queue} pending)",
                        retry_after_s=self.config.retry_after_s,
                    )
            if not memo_hit:
                inflight = self._inflight_by_client.get(client, 0)
                if inflight >= self.config.max_client_inflight:
                    self._m_rejected.labels(reason="client_cap").inc()
                    raise AdmissionError(
                        f"client {client!r} already has {inflight} jobs in "
                        f"flight (cap {self.config.max_client_inflight})",
                        retry_after_s=self.config.retry_after_s,
                    )

            record_id = self._next_id()
            if memo_hit:
                assert existing is not None
                self._executions.move_to_end(job.key)
                record = _Record(
                    id=record_id,
                    client=client,
                    execution=existing,
                    memoized=True,
                    finished=True,
                )
                self._m_memo.labels(kind=job.kind).inc()
                self._m_jobs.labels(kind=job.kind, outcome=_DONE).inc()
            elif dedup_hit:
                assert existing is not None
                record = _Record(
                    id=record_id,
                    client=client,
                    execution=existing,
                    deduplicated=True,
                )
                existing.record_ids.append(record_id)
                self._inflight_by_client[client] = (
                    self._inflight_by_client.get(client, 0) + 1
                )
                self._m_dedup.labels(kind=job.kind).inc()
            else:
                execution = _Execution(job)
                execution.record_ids.append(record_id)
                self._executions[job.key] = execution
                self._pending.append(execution)
                self._m_depth.set(float(len(self._pending)))
                record = _Record(id=record_id, client=client, execution=execution)
                self._inflight_by_client[client] = (
                    self._inflight_by_client.get(client, 0) + 1
                )
                self._work_ready.notify()
            self._records[record_id] = record
            self._evict_records()
            return self._status(record)

    def _next_id(self) -> str:
        self._seq += 1
        return f"job-{self._seq:06d}-{uuid.uuid4().hex[:8]}"

    def _evict_records(self) -> None:
        """Drop finished records (and finished executions) beyond the LRU cap."""
        while len(self._records) > self.config.max_records:
            evicted = None
            for record_id, record in self._records.items():
                if record.finished:
                    evicted = record_id
                    break
            if evicted is None:
                break  # everything is in flight; never evict live jobs
            del self._records[evicted]
            self._m_evicted.inc()
        while len(self._executions) > self.config.max_records:
            key = next(
                (
                    key
                    for key, execution in self._executions.items()
                    if execution.done.is_set()
                ),
                None,
            )
            if key is None:
                break
            del self._executions[key]

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> JobStatus:
        """Status snapshot for one job id (404 via ``JobNotFoundError``)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFoundError(
                    f"no job {job_id!r} (never submitted, or evicted)"
                )
            self._records.move_to_end(job_id)
            return self._status(record)

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's exact payload bytes (the byte-identity contract).

        Raises :class:`~repro.errors.JobNotFoundError` for unknown ids
        and for jobs that are not in the ``done`` state — the status
        endpoint is where callers poll for readiness.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFoundError(
                    f"no job {job_id!r} (never submitted, or evicted)"
                )
            execution = record.execution
            if execution.state != _DONE or execution.payload_json is None:
                raise JobNotFoundError(
                    f"job {job_id!r} has no result (state: {execution.state})"
                )
            return execution.payload_json.encode("utf-8")

    def queue_depth(self) -> int:
        """Executions queued and not yet started (the watermark input)."""
        with self._lock:
            return len(self._pending)

    def wait(self, job_id: str, timeout_s: float = 60.0) -> JobStatus:
        """Block until a job reaches a terminal state (test convenience)."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFoundError(f"no job {job_id!r}")
            execution = record.execution
        if not execution.done.wait(max(0.0, deadline - time.monotonic())):
            raise TimeoutError(f"job {job_id!r} did not finish in {timeout_s}s")
        return self.get(job_id)

    def _status(self, record: _Record) -> JobStatus:
        execution = record.execution
        return JobStatus(
            id=record.id,
            kind=execution.job.kind,
            state=execution.state,
            key=execution.job.key,
            params=dict(execution.job.params),
            deduplicated=record.deduplicated,
            memoized=record.memoized,
            error=dict(execution.error) if execution.error else None,
        )

    # -- workers ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._work_ready:
                while not self._stopping and (self._paused or not self._pending):
                    self._work_ready.wait(timeout=0.5)
                if self._stopping:
                    return
                execution = self._pending.popleft()
                self._m_depth.set(float(len(self._pending)))
                execution.state = _RUNNING
            self._execute(execution)

    def _execute(self, execution: _Execution) -> None:
        job = execution.job
        started = time.perf_counter()
        try:
            payload = job.run(self.config.context)
            payload_json = dump_payload(payload)
        except Exception as error:  # noqa: BLE001 — a job must never kill a worker
            self._m_job_seconds.labels(kind=job.kind).observe(
                time.perf_counter() - started
            )
            self._finish(
                execution,
                _FAILED,
                error={"type": type(error).__name__, "message": str(error)},
            )
            return
        self._m_job_seconds.labels(kind=job.kind).observe(
            time.perf_counter() - started
        )
        self._finish(execution, _DONE, payload_json=payload_json)

    def _finish(
        self,
        execution: _Execution,
        state: str,
        payload_json: Optional[str] = None,
        error: Optional[Dict[str, str]] = None,
    ) -> None:
        with self._lock:
            execution.payload_json = payload_json
            execution.error = error
            execution.state = state
            if state == _FAILED and self._executions.get(execution.job.key) is execution:
                # Never memoize a failure: the records keep serving the
                # structured error, but the next identical submission
                # starts a fresh execution instead of replaying it.
                del self._executions[execution.job.key]
            self._m_executed.labels(kind=execution.job.kind).inc()
            for record_id in execution.record_ids:
                record = self._records.get(record_id)
                if record is None:
                    continue
                record.finished = True
                remaining = self._inflight_by_client.get(record.client, 1) - 1
                if remaining <= 0:
                    # Delete at zero so the table tracks only identities
                    # with live jobs — a fresh X-Client-Id per request
                    # cannot grow it without bound.
                    self._inflight_by_client.pop(record.client, None)
                else:
                    self._inflight_by_client[record.client] = remaining
                self._m_jobs.labels(kind=execution.job.kind, outcome=state).inc()
            execution.done.set()
