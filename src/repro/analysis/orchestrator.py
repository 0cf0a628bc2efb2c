"""Parallel sweep execution: fan shards out over workers, merge in order.

The :class:`Orchestrator` turns a :class:`~repro.analysis.sweep.SweepSpec`
into results.  It guarantees the property every experiment in this repo
relies on:

    **the merged output is bit-identical at any worker count** —

because (a) every shard's randomness comes from its own deterministic seed
(spawned from the sweep root, independent of scheduling), (b) shards never
share state, and (c) results are re-ordered into canonical shard order
before they reach the caller's merge step.  Parallelism therefore changes
wall-clock time and nothing else — and so does *recovery*: a retried
shard reuses its deterministic seed, so surviving a fault never changes a
byte of output.

Features:

* ``workers="auto"`` sizes the pool to the machine (``os.cpu_count()``);
  ``workers<=1`` runs shards inline in the calling process — the serial
  path and the parallel path execute exactly the same shard function.
* An optional **on-disk shard cache** keyed by each shard's content hash
  (sweep name + version + root seed + parameters).  Re-running a sweep
  only computes missing shards, which makes interrupted campaigns
  resumable.  Cache writes are atomic (tmp file + rename); format v2
  payloads carry a SHA-256 checksum of the result, and entries that fail
  the checksum (bit-rot, torn writes) are **quarantined** into a
  ``quarantine/`` subdirectory and recomputed.  Cache *write* failures
  (read-only directory, full disk) degrade to a one-time warning — they
  never abort a sweep.
* **Fault tolerance** via an :class:`~repro.analysis.retry.ExecutionPolicy`:
  per-shard retries with deterministic exponential backoff
  (:class:`~repro.analysis.retry.RetryPolicy`), a per-attempt
  ``shard_timeout_s`` enforced by SIGKILLing hung workers, a sweep-wide
  ``deadline_s``, and an ``on_error="raise"|"partial"`` switch — partial
  mode records :class:`~repro.analysis.retry.FailedShard` entries on the
  result instead of aborting, keeping every successful outcome
  bit-identical to a clean run.
* **Worker-death recovery**: the pool loop tracks which worker holds
  which shard over a private pipe per worker, so an OOM-killed or
  segfaulted worker is detected, respawned, and its lost shard requeued
  under the retry policy.  ``multiprocessing.Pool.imap_unordered`` —
  which hangs forever on a dead worker — is gone.
* **Deterministic fault injection** (:mod:`repro.faults`): an active
  :class:`~repro.faults.FaultPlan` makes chosen shard attempts raise,
  hang, or die, and chosen cache writes corrupt, truncate, or ENOSPC —
  the harness that proves all of the above actually works (see the
  chaos-smoke CI job and ``docs/robustness.md``).
* Progress reporting through the ``repro.progress`` logger — an
  in-place stderr line (``[fig3] 12/18 shards, 3 cached, 41.2s``) when
  enabled, silenced by raising the logger level.
* **Telemetry aggregation**: when the parent process has telemetry
  enabled (:func:`repro.telemetry.enable`), each worker runs its shard
  inside a private :func:`~repro.telemetry.runtime.capture` registry and
  ships the snapshot back with the result.  The parent merges snapshots
  in *canonical shard order* after the run, so merged metrics are
  identical at any ``--workers`` count.  Recovery adds its own families
  (retries, timeouts, worker deaths, quarantined entries, injected
  faults) — all parent-side, see ``docs/observability.md``.

Shard functions must be module-level callables taking ``(params, seed)``
and returning JSON-serializable data — both requirements come from the
``multiprocessing`` / cache substrate, and both keep results mergeable
across processes and sessions.

The submit/collect loop itself — worker pool, pipes, retries, timeouts,
death recovery — lives in :mod:`repro.analysis.scheduler` as the
reusable :class:`~repro.analysis.scheduler.ShardScheduler`; this module
layers the shard cache, progress reporting and canonical-order merge on
top of it.  The audit service (:mod:`repro.service`) executes its jobs
through this same orchestrator, so the CLI and the HTTP front end are
two clients of one engine.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Union,
)

from repro import faults
from repro.analysis.retry import (
    DEFAULT_EXECUTION_POLICY,
    ExecutionPolicy,
    FailedShard,
    RetryPolicy,
)
from repro.analysis.scheduler import ShardScheduler, ShardTask
from repro.analysis.sweep import Shard, SweepSpec, canonical_json
from repro.errors import CacheIntegrityError, OrchestrationError
from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS
from repro.telemetry.runtime import get_registry

__all__ = [
    "Orchestrator",
    "ShardCache",
    "ShardOutcome",
    "ShardScheduler",
    "ShardTask",
    "SweepResult",
    "SweepRunStats",
    "configure_progress_logging",
    "resolve_workers",
    "run_sweep",
]

#: Cache format version; bump when the payload layout changes.
#: v2 adds a SHA-256 checksum over the canonical-JSON result; v1 entries
#: (no checksum) read as plain misses, so old cache directories migrate
#: by recomputation, never by error.
_CACHE_FORMAT = 2

#: Subdirectory (inside the cache dir) where integrity failures land.
QUARANTINE_DIRNAME = "quarantine"

#: The progress logger: in-place stderr updates ride on ``logging`` so
#: ``--no-progress`` (or any embedding application) can silence them by
#: level instead of monkey-patching streams.
PROGRESS_LOGGER_NAME = "repro.progress"

_progress_logger = logging.getLogger(PROGRESS_LOGGER_NAME)

#: Operational warnings (cache degradation, quarantines, worker deaths).
_ops_logger = logging.getLogger("repro.orchestrator")


class _InPlaceStreamHandler(logging.StreamHandler):
    """A stderr handler that rewrites one line instead of appending.

    Messages are emitted with no terminator and a leading ``\\r`` added by
    the callers, so successive progress reports overwrite each other the
    way the previous print-based reporter did.
    """

    terminator = ""

    def flush(self) -> None:
        """Flush the stream unless it was closed under the handler.

        ``setStream`` flushes the stream it replaces; one closed meanwhile
        (a finished test capture) has nothing left to flush.
        """
        if not getattr(self.stream, "closed", False):
            super().flush()


def configure_progress_logging(
    enabled: bool = True, stream: Any = None
) -> logging.Logger:
    """Route orchestrator progress through ``logging`` and return the logger.

    Idempotent: attaches one :class:`_InPlaceStreamHandler` (stderr by
    default) the first time and re-points its stream afterwards.
    ``enabled=False`` keeps the handler but raises the logger level to
    ``WARNING`` — the ``--no-progress`` behaviour.
    """
    handler = next(
        (
            existing
            for existing in _progress_logger.handlers
            if isinstance(existing, _InPlaceStreamHandler)
        ),
        None,
    )
    if handler is None:
        handler = _InPlaceStreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        _progress_logger.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)
    _progress_logger.propagate = False
    _progress_logger.setLevel(logging.INFO if enabled else logging.WARNING)
    return _progress_logger


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalize a ``--workers`` value to a concrete worker count.

    ``"auto"`` (or ``None``) maps to the CPU count; any integer is clamped
    below at 1.  A count of 1 means "run shards inline" — no pool is
    created, which keeps tracebacks and profiles simple.
    """
    if workers is None or workers == "auto":
        return os.cpu_count() or 1
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise OrchestrationError(
            f"workers must be an integer or 'auto', got {workers!r}"
        ) from None
    return max(1, count)


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's result plus execution metadata.

    ``telemetry`` is the worker-side metrics snapshot captured around the
    shard's execution, or ``None`` for cached shards and telemetry-off
    runs.  It rides on the outcome — never through the shard cache — so
    cached payloads stay byte-identical whether telemetry is on or off.
    ``attempts`` records how many tries the shard needed (1 = first try).
    """

    shard: Shard
    result: Any
    cached: bool
    elapsed: float
    telemetry: Optional[Mapping[str, Any]] = None
    attempts: int = 1


@dataclass
class SweepRunStats:
    """Aggregate accounting for one orchestrated sweep run."""

    n_shards: int = 0
    n_cached: int = 0
    n_computed: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    shard_seconds: float = 0.0  # summed per-shard compute time
    n_failed: int = 0  # shards that exhausted their attempts (partial mode)
    n_retries: int = 0  # extra attempts beyond each shard's first


@dataclass
class SweepResult:
    """All shard outcomes of a sweep, in canonical shard order.

    Under ``on_error="partial"``, shards that exhausted their attempts
    appear in ``failed`` (as :class:`~repro.analysis.retry.FailedShard`
    records, canonical order) instead of ``outcomes``; the outcomes that
    are present are bit-identical to what a fault-free run produces.
    """

    spec: SweepSpec
    outcomes: List[ShardOutcome] = field(default_factory=list)
    stats: SweepRunStats = field(default_factory=SweepRunStats)
    failed: List[FailedShard] = field(default_factory=list)

    def results(self) -> List[Any]:
        """Shard results in shard order (the merge-ready view).

        Raises :class:`~repro.errors.OrchestrationError` if any shard
        failed — positional merges over a silently shortened list would
        misalign.  Partial-aware callers use :meth:`results_with`.
        """
        if self.failed:
            raise OrchestrationError(
                f"{len(self.failed)} of {self.stats.n_shards} shards failed "
                "(on_error='partial'); use results_with(fill=...) for a "
                "positionally aligned view, or inspect .failed: "
                + "; ".join(record.describe() for record in self.failed[:3])
            )
        return [outcome.result for outcome in self.outcomes]

    def results_with(self, fill: Any = None) -> List[Any]:
        """Full-length results in shard order, ``fill`` at failed slots.

        The partial-degradation view: positional merges stay aligned and
        can drop (or impute) the failed grid points explicitly.
        """
        failed_indices = {record.shard.index for record in self.failed}
        by_index = {outcome.shard.index: outcome.result for outcome in self.outcomes}
        out: List[Any] = []
        for shard in self.spec.shards():
            if shard.index in failed_indices:
                out.append(fill)
            else:
                out.append(by_index[shard.index])
        return out

    def result_for(self, **params: Any) -> Any:
        """The result of the unique shard whose params contain ``params``."""
        matches = [
            outcome.result
            for outcome in self.outcomes
            if all(outcome.shard.params.get(k) == v for k, v in params.items())
        ]
        if len(matches) != 1:
            raise OrchestrationError(
                f"expected exactly one shard matching {params}, found {len(matches)}"
            )
        return matches[0]


class ShardCache:
    """Content-addressed on-disk cache of shard results (JSON files).

    One file per shard, named by the shard key.  A format-v2 payload
    records the parameters and seed alongside the result plus a SHA-256
    checksum of the result's canonical JSON, so cache directories are
    self-describing, auditable, and tamper-evident.  On ``load``:

    * well-formed v2 entries with a matching checksum are hits;
    * v1 (pre-checksum) entries are plain misses — old directories
      migrate by recomputation, never by error;
    * unparseable files and checksum mismatches are **quarantined**
      (moved into ``quarantine/`` and counted) and read as misses —
      resumability must never depend on a clean cache.

    ``store`` is atomic (tmp file + rename) and consults the active
    :class:`~repro.faults.FaultPlan`, which may corrupt or truncate the
    payload or raise ``OSError(ENOSPC)`` — the orchestrator degrades
    store failures to a one-time warning.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OrchestrationError(
                f"cache directory {self.directory} is not usable: {exc}"
            ) from exc

    def _path(self, shard: Shard) -> Path:
        return self.directory / f"{shard.key}.json"

    @staticmethod
    def result_checksum(result: Any) -> str:
        """SHA-256 hex digest of the result's canonical JSON form."""
        return hashlib.sha256(
            canonical_json(result).encode("utf-8")
        ).hexdigest()

    def quarantine_dir(self) -> Path:
        """Where integrity failures are moved (created on demand)."""
        return self.directory / QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (best effort) and count the event."""
        get_registry().counter(
            "repro_orchestrator_cache_quarantined_total",
            "Cache entries quarantined on integrity failure, by reason",
            labels=("reason",),
        ).labels(reason=reason).inc()
        target = self.quarantine_dir() / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            _ops_logger.warning(
                "quarantined cache entry %s (%s) -> %s", path.name, reason, target
            )
        except OSError as exc:
            # Last resort: leave it in place; the recompute will overwrite.
            _ops_logger.warning(
                "could not quarantine cache entry %s (%s): %s", path, reason, exc
            )

    def load(self, shard: Shard, strict: bool = False) -> Optional[Any]:
        """Return the cached result for ``shard``, or ``None`` on a miss.

        Integrity failures (unparseable JSON, checksum mismatch) are
        quarantined and read as misses; ``strict=True`` raises
        :class:`~repro.errors.CacheIntegrityError` instead — the audit
        mode tests and tooling use.
        """
        path = self._path(shard)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except ValueError:
            if strict:
                raise CacheIntegrityError(
                    f"cache entry {path.name} is not valid JSON"
                )
            self._quarantine(path, reason="unreadable")
            return None
        if not isinstance(payload, dict) or payload.get("format") != _CACHE_FORMAT:
            return None  # v1 or foreign format: a plain miss, never an error
        if payload.get("key") != shard.key or "result" not in payload:
            return None
        expected = payload.get("sha256")
        actual = self.result_checksum(payload["result"])
        if expected != actual:
            if strict:
                raise CacheIntegrityError(
                    f"cache entry {path.name} failed its checksum "
                    f"(stored {str(expected)[:12]}..., computed {actual[:12]}...)"
                )
            self._quarantine(path, reason="checksum")
            return None
        return payload["result"]

    def store(self, shard: Shard, result: Any, elapsed: float) -> None:
        """Atomically persist one shard result (format v2, checksummed).

        Raises ``OSError`` on write failure (including an injected
        ENOSPC); callers decide whether that is fatal — the orchestrator
        degrades it to a warning plus a counter.
        """
        fault = faults.match_cache_fault(shard.index)  # may raise OSError
        payload = {
            "format": _CACHE_FORMAT,
            "key": shard.key,
            "params": dict(shard.params),
            "seed": shard.seed,
            "elapsed": elapsed,
            "result": result,
            "sha256": self.result_checksum(result),
        }
        if fault is not None:
            get_registry().counter(
                "repro_faults_injected_total",
                "Faults fired from the active fault plan, by site and kind",
                labels=("site", "kind"),
            ).labels(site=faults.SITE_CACHE_STORE, kind=fault).inc()
        text = json.dumps(payload)
        if fault == "corrupt":
            # Valid JSON whose result no longer matches its checksum —
            # simulated bit-rot that only the v2 checksum can catch.
            payload["sha256"] = "0" * 64
            text = json.dumps(payload)
        elif fault == "truncate":
            text = text[: len(text) // 2]  # torn write / power loss
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, self._path(shard))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


class Orchestrator:
    """Runs sweep shards serially or across a worker pool, then merges.

    Parameters
    ----------
    workers:
        ``"auto"``, or a positive integer.  ``1`` executes inline.
    cache_dir:
        Directory for the shard cache; ``None`` disables caching.
    progress:
        ``True`` for the built-in stderr reporter, ``False`` for silence,
        or a callable ``(done, total, n_cached, elapsed) -> None``.
    mp_context:
        ``multiprocessing`` start-method name (default: the platform
        default, ``fork`` on Linux — cheapest for read-only shared code;
        ``forkserver`` when the sweep runs off the main thread, where a
        fork could copy another thread's held lock into the child).
    policy:
        The :class:`~repro.analysis.retry.ExecutionPolicy` governing
        retries, timeouts, the sweep deadline, partial-result mode, and
        fault injection.  ``None`` keeps the fail-fast default (one
        attempt, no timeouts, ``on_error="raise"``).
    """

    def __init__(
        self,
        workers: Union[int, str, None] = "auto",
        cache_dir: Union[str, Path, None] = None,
        progress: Union[bool, Callable[[int, int, int, float], None]] = False,
        mp_context: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = ShardCache(cache_dir) if cache_dir is not None else None
        self.policy = policy if policy is not None else DEFAULT_EXECUTION_POLICY
        self._progress = progress
        self._mp_context = mp_context
        if progress is True:
            configure_progress_logging(enabled=True)

    # -- public API ---------------------------------------------------------

    def run(self, spec: SweepSpec, task: ShardTask) -> SweepResult:
        """Execute every shard of ``spec`` and return ordered outcomes."""
        with faults.injected(self.policy.fault_plan):
            return self._run(spec, task)

    def _run(self, spec: SweepSpec, task: ShardTask) -> SweepResult:
        started = time.perf_counter()
        registry = get_registry()
        instrument = registry.enabled
        cache_lookups = registry.counter(
            "repro_orchestrator_cache_lookups_total",
            "Shard cache lookups by result (hit, miss, or disabled)",
            labels=("result",),
        )
        shards_seen = registry.counter(
            "repro_orchestrator_shards_total",
            "Shards resolved by the orchestrator, by state",
            labels=("state",),
        )
        shard_seconds = registry.histogram(
            "repro_orchestrator_shard_seconds",
            "Per-shard compute latency (cache hits excluded)",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        queue_wait = registry.histogram(
            "repro_orchestrator_queue_wait_seconds",
            "Per-shard completion wall time minus its own compute time",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._metric_cache_write_errors = registry.counter(
            "repro_orchestrator_cache_write_errors_total",
            "Shard-cache store failures degraded to warnings",
        )
        self._cache_warned = False

        shards = spec.shards()
        outcomes: Dict[int, ShardOutcome] = {}
        failures: List[FailedShard] = []

        pending: List[Shard] = []
        for shard in shards:
            cached = self.cache.load(shard) if self.cache is not None else None
            if self.cache is None:
                cache_lookups.labels(result="disabled").inc()
            else:
                cache_lookups.labels(
                    result="hit" if cached is not None else "miss"
                ).inc()
            if cached is not None:
                shards_seen.labels(state="cached").inc()
                outcomes[shard.index] = ShardOutcome(
                    shard=shard, result=cached, cached=True, elapsed=0.0
                )
            else:
                pending.append(shard)
        n_cached = len(outcomes)
        n_resolved = len(outcomes)
        self._report(spec, n_resolved, len(shards), n_cached, started)

        exec_started = time.perf_counter()
        # The extracted submit/collect engine: worker pool, retries,
        # timeouts, death recovery.  Constructed per run so its metric
        # families bind to whatever registry is active *now*.
        scheduler = ShardScheduler(
            workers=self.workers,
            policy=self.policy,
            mp_context=self._mp_context,
        )
        iterator = scheduler.execute(task, pending, instrument, failures)
        try:
            for index, result, elapsed, snapshot, attempts in iterator:
                shard = shards[index]
                if self.cache is not None:
                    self._store_guarded(shard, result, elapsed)
                shards_seen.labels(state="computed").inc()
                shard_seconds.observe(elapsed)
                queue_wait.observe(
                    max(0.0, (time.perf_counter() - exec_started) - elapsed)
                )
                outcomes[index] = ShardOutcome(
                    shard=shard,
                    result=result,
                    cached=False,
                    elapsed=elapsed,
                    telemetry=snapshot,
                    attempts=attempts,
                )
                n_resolved = len(outcomes) + len(failures)
                self._report(spec, n_resolved, len(shards), n_cached, started)
        finally:
            iterator.close()
        self._finish_report(len(shards))

        failures.sort(key=lambda record: record.shard.index)
        ordered = [
            outcomes[shard.index] for shard in shards if shard.index in outcomes
        ]
        # Merge worker snapshots in canonical shard order — not completion
        # order — so the merged registry is identical at any worker count
        # (gauges keep the value of the highest-indexed shard that set them).
        for outcome in ordered:
            if outcome.telemetry is not None:
                registry.merge(outcome.telemetry)
        wall = time.perf_counter() - started
        registry.gauge(
            "repro_orchestrator_workers", "Worker-pool size of the last sweep"
        ).set(float(self.workers))
        registry.gauge(
            "repro_orchestrator_cache_hit_ratio",
            "Cache hits over total shards for the last sweep",
        ).set(n_cached / len(shards) if shards else 0.0)
        registry.histogram(
            "repro_orchestrator_sweep_seconds",
            "Wall time of one orchestrated sweep",
            labels=("sweep",),
            buckets=DEFAULT_TIME_BUCKETS,
        ).labels(sweep=spec.name).observe(wall)
        stats = SweepRunStats(
            n_shards=len(shards),
            n_cached=n_cached,
            n_computed=len(ordered) - n_cached,
            workers=self.workers,
            wall_seconds=wall,
            shard_seconds=sum(outcome.elapsed for outcome in ordered),
            n_failed=len(failures),
            n_retries=scheduler.n_retries,
        )
        return SweepResult(
            spec=spec, outcomes=ordered, stats=stats, failed=failures
        )

    def map(self, spec: SweepSpec, task: ShardTask) -> List[Any]:
        """Shorthand: run the sweep and return just the ordered results."""
        return self.run(spec, task).results()

    # -- cache degradation --------------------------------------------------

    def _store_guarded(self, shard: Shard, result: Any, elapsed: float) -> None:
        """Persist one shard; store failures degrade to a one-time warning.

        A read-only cache directory or a full disk costs persistence of
        this run's shards — never the run itself.
        """
        try:
            self.cache.store(shard, result, elapsed)
        except OSError as exc:
            self._metric_cache_write_errors.inc()
            if not self._cache_warned:
                self._cache_warned = True
                _ops_logger.warning(
                    "shard cache write to %s failed (%s: %s); continuing "
                    "without persistence — this run is not resumable",
                    self.cache.directory,
                    type(exc).__name__,
                    exc,
                )

    # -- progress -----------------------------------------------------------

    def _report(
        self, spec: SweepSpec, done: int, total: int, n_cached: int, started: float
    ) -> None:
        elapsed = time.perf_counter() - started
        if callable(self._progress):
            self._progress(done, total, n_cached, elapsed)
        elif self._progress:
            _progress_logger.info(
                "\r[%s] %d/%d shards (%d cached, %d workers, %.1fs)",
                spec.name,
                done,
                total,
                n_cached,
                self.workers,
                elapsed,
            )

    def _finish_report(self, total: int) -> None:
        # Callable reporters share the in-place stderr line (tests and the
        # CLI both route through the same logger), so they need the
        # trailing newline exactly as much as the built-in reporter does.
        if self._progress and total:
            _progress_logger.info("\n")


def run_sweep(
    spec: SweepSpec,
    task: ShardTask,
    workers: Union[int, str, None] = 1,
    cache_dir: Union[str, Path, None] = None,
    progress: Union[bool, Callable[[int, int, int, float], None]] = False,
    policy: Optional[ExecutionPolicy] = None,
) -> SweepResult:
    """One-shot convenience wrapper around :class:`Orchestrator`."""
    orchestrator = Orchestrator(
        workers=workers, cache_dir=cache_dir, progress=progress, policy=policy
    )
    return orchestrator.run(spec, task)
