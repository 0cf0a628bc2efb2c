"""Orchestrator robustness: retries, partial mode, deadlines, cache integrity.

Every fault here is injected from a deterministic :class:`FaultPlan`, so
the suite asserts the strongest property the hardening work promises:
recovery never changes bytes — a sweep that retried, timed out, or lost
a worker produces results identical to an undisturbed run.

The worker-pool tests use module-level task functions (the pool pickles
tasks by reference) and tiny workloads, mirroring ``test_orchestrator``.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time

import pytest

from repro.analysis.orchestrator import (
    Orchestrator,
    ShardCache,
    configure_progress_logging,
    run_sweep,
)
from repro.analysis.retry import ExecutionPolicy, RetryPolicy
from repro.analysis.sweep import SweepSpec, grid_of
from repro.errors import (
    CacheIntegrityError,
    InjectedFaultError,
    OrchestrationError,
    SweepDeadlineError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.sim.rng import RngStreams
from repro.telemetry import MetricsRegistry, capture, disable


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    yield
    disable()


def seeded_task(params, seed):
    """A shard whose result depends on its params and its derived seed."""
    stream = RngStreams(seed).get("draw")
    return {"x": params["x"], "draw": [stream.random() for _ in range(3)]}


def slow_task(params, seed):
    time.sleep(0.25)
    return params["x"]


#: A registry a helper thread holds locked while a pool starts (below).
_HELD_REGISTRY = MetricsRegistry()


def registry_task(params, seed):
    """A shard that touches ``_HELD_REGISTRY`` — a held lock hangs it."""
    _HELD_REGISTRY.counter("repro_test_touches_total", "Shard touches").inc()
    return params["x"]


def spec_of(n=4, **overrides):
    options = dict(name="t", grid=grid_of(x=list(range(n))), root_seed=11)
    options.update(overrides)
    return SweepSpec(**options)


def plan_of(*specs, name="t-plan"):
    return FaultPlan(specs=tuple(specs), name=name)


def retrying(plan, attempts=2, **overrides):
    options = dict(
        retry=RetryPolicy(max_attempts=attempts, backoff_base_s=0.01),
        fault_plan=plan,
    )
    options.update(overrides)
    return ExecutionPolicy(**options)


def _counter(snapshot, name, **labels):
    """Sum a counter family's samples matching the given labels."""
    family = snapshot["metrics"].get(name, {"samples": []})
    return sum(
        sample["value"]
        for sample in family["samples"]
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


class TestRetryRecovery:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_raise_is_retried_bit_identically(self, workers):
        clean = run_sweep(spec_of(), seeded_task, workers=1).results()
        plan = plan_of(FaultSpec(site="shard", kind="raise", shard_index=1))
        sweep = run_sweep(
            spec_of(), seeded_task, workers=workers, policy=retrying(plan)
        )
        assert sweep.results() == clean  # retries reuse the shard's seed
        assert sweep.stats.n_retries == 1 and sweep.stats.n_failed == 0
        assert [o.attempts for o in sweep.outcomes] == [1, 2, 1, 1]

    def test_exhausted_attempts_raise_the_preserved_subclass(self):
        plan = plan_of(
            FaultSpec(site="shard", kind="raise", shard_index=1, attempt=1),
            FaultSpec(site="shard", kind="raise", shard_index=1, attempt=2),
        )
        with pytest.raises(InjectedFaultError, match=r"shard 1 \{'x': 1\}"):
            run_sweep(spec_of(), seeded_task, workers=1, policy=retrying(plan))

    def test_retry_metrics_are_counted(self):
        plan = plan_of(FaultSpec(site="shard", kind="raise", shard_index=2))
        with capture() as registry:
            run_sweep(spec_of(), seeded_task, workers=1, policy=retrying(plan))
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_orchestrator_retries_total") == 1
        assert (
            _counter(snapshot, "repro_faults_injected_total", site="shard", kind="raise")
            == 1
        )


class TestPartialMode:
    def _fail_shard_2(self):
        return plan_of(
            FaultSpec(site="shard", kind="raise", shard_index=2, attempt=1),
            FaultSpec(site="shard", kind="raise", shard_index=2, attempt=2),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_successes_survive_next_to_failure_records(self, workers):
        clean = run_sweep(spec_of(), seeded_task, workers=1).results()
        sweep = run_sweep(
            spec_of(),
            seeded_task,
            workers=workers,
            policy=retrying(self._fail_shard_2(), on_error="partial"),
        )
        assert [record.shard.index for record in sweep.failed] == [2]
        assert sweep.failed[0].attempts == 2
        assert sweep.failed[0].error_type == "InjectedFaultError"
        assert sweep.stats.n_failed == 1
        aligned = sweep.results_with(fill=None)
        assert aligned[2] is None
        assert [aligned[i] for i in (0, 1, 3)] == [clean[i] for i in (0, 1, 3)]

    def test_results_refuses_a_shortened_list(self):
        sweep = run_sweep(
            spec_of(),
            seeded_task,
            workers=1,
            policy=retrying(self._fail_shard_2(), on_error="partial"),
        )
        with pytest.raises(OrchestrationError, match="results_with"):
            sweep.results()

    def test_partial_view_identical_inline_vs_pooled(self):
        policy = retrying(self._fail_shard_2(), on_error="partial")
        inline = run_sweep(spec_of(), seeded_task, workers=1, policy=policy)
        pooled = run_sweep(spec_of(), seeded_task, workers=2, policy=policy)
        assert inline.results_with(fill="X") == pooled.results_with(fill="X")
        assert [r.shard.index for r in inline.failed] == [
            r.shard.index for r in pooled.failed
        ]


class TestDeadline:
    def test_expiry_raises_sweep_deadline_error(self):
        policy = ExecutionPolicy(deadline_s=0.2)
        with pytest.raises(SweepDeadlineError):
            run_sweep(spec_of(), slow_task, workers=1, policy=policy)

    def test_partial_mode_records_the_unfinished_tail(self):
        policy = ExecutionPolicy(deadline_s=0.2, on_error="partial")
        sweep = run_sweep(spec_of(), slow_task, workers=1, policy=policy)
        # Shard 0 finishes before the deadline check; the rest are recorded.
        assert sweep.results_with(fill=None)[0] == 0
        assert [record.shard.index for record in sweep.failed] == [1, 2, 3]
        assert all(r.error_type == "SweepDeadlineError" for r in sweep.failed)

    def test_deadline_is_not_retried(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01), deadline_s=0.2
        )
        started = time.perf_counter()
        with pytest.raises(SweepDeadlineError):
            run_sweep(spec_of(), slow_task, workers=1, policy=policy)
        assert time.perf_counter() - started < 2.0  # no 3x attempt budget


class TestShardTimeout:
    def test_hung_worker_is_killed_and_the_shard_retried(self):
        clean = run_sweep(spec_of(), seeded_task, workers=1).results()
        plan = plan_of(
            FaultSpec(site="shard", kind="hang", shard_index=1, sleep_s=30.0)
        )
        with capture() as registry:
            sweep = run_sweep(
                spec_of(),
                seeded_task,
                workers=2,
                policy=retrying(plan, shard_timeout_s=0.4),
            )
        assert sweep.results() == clean
        assert sweep.stats.n_retries == 1
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_orchestrator_shard_timeouts_total") == 1


class TestCacheIntegrity:
    def _spec_and_shard(self):
        spec = spec_of()
        shard = list(spec.shards())[1]
        return spec, shard

    def test_v2_round_trip_is_checksummed(self, tmp_path):
        _, shard = self._spec_and_shard()
        cache = ShardCache(tmp_path)
        result = seeded_task(shard.params, shard.seed)
        cache.store(shard, result, elapsed=0.1)
        payload = json.loads((tmp_path / f"{shard.key}.json").read_text())
        assert payload["format"] == 2
        assert payload["sha256"] == ShardCache.result_checksum(result)
        assert cache.load(shard) == result

    def test_checksum_mismatch_is_quarantined_as_a_miss(self, tmp_path):
        _, shard = self._spec_and_shard()
        cache = ShardCache(tmp_path)
        cache.store(shard, {"v": 1}, elapsed=0.0)
        path = tmp_path / f"{shard.key}.json"
        payload = json.loads(path.read_text())
        payload["result"] = {"v": 2}  # bit-rot after the checksum
        path.write_text(json.dumps(payload))
        with capture() as registry:
            assert cache.load(shard) is None
        assert not path.exists()
        assert (cache.quarantine_dir() / path.name).exists()
        assert (
            _counter(
                registry.snapshot(),
                "repro_orchestrator_cache_quarantined_total",
                reason="checksum",
            )
            == 1
        )

    def test_strict_load_raises_instead_of_quarantining(self, tmp_path):
        _, shard = self._spec_and_shard()
        cache = ShardCache(tmp_path)
        cache.store(shard, {"v": 1}, elapsed=0.0)
        path = tmp_path / f"{shard.key}.json"
        payload = json.loads(path.read_text())
        payload["sha256"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheIntegrityError, match="checksum"):
            cache.load(shard, strict=True)
        assert path.exists()  # strict mode audits; it does not move files

    def test_unparseable_entry_is_quarantined(self, tmp_path):
        _, shard = self._spec_and_shard()
        cache = ShardCache(tmp_path)
        path = tmp_path / f"{shard.key}.json"
        path.write_text("{torn write")
        assert cache.load(shard) is None
        assert (cache.quarantine_dir() / path.name).exists()
        with pytest.raises(CacheIntegrityError, match="not valid JSON"):
            path.write_text("{torn write")
            cache.load(shard, strict=True)

    def test_v1_entry_is_a_plain_miss_never_an_error(self, tmp_path):
        """Pre-checksum cache directories migrate by recomputation."""
        _, shard = self._spec_and_shard()
        cache = ShardCache(tmp_path)
        path = tmp_path / f"{shard.key}.json"
        v1 = {
            "key": shard.key,
            "params": dict(shard.params),
            "seed": shard.seed,
            "elapsed": 0.1,
            "result": {"v": 1},
        }
        path.write_text(json.dumps(v1))
        assert cache.load(shard) is None
        assert path.exists()  # not quarantined: v1 is legitimate, just old
        assert cache.load(shard, strict=True) is None  # not an audit failure

    def test_sweep_recomputes_through_a_corrupted_entry(self, tmp_path):
        plan = plan_of(FaultSpec(site="cache_store", kind="corrupt", shard_index=1))
        first = run_sweep(
            spec_of(), seeded_task, workers=1, cache_dir=tmp_path,
            policy=ExecutionPolicy(fault_plan=plan),
        )
        second = run_sweep(spec_of(), seeded_task, workers=1, cache_dir=tmp_path)
        assert second.results() == first.results()
        assert second.stats.n_cached == 3  # the poisoned entry was a miss
        assert len(list(ShardCache(tmp_path).quarantine_dir().iterdir())) == 1


class TestCacheWriteDegradation:
    def test_injected_enospc_degrades_to_a_warning(self, tmp_path, caplog):
        """A full disk must never fail the sweep — only its cache."""
        plan = plan_of(FaultSpec(site="cache_store", kind="enospc", shard_index=0))
        clean = run_sweep(spec_of(), seeded_task, workers=1).results()
        with caplog.at_level("WARNING", logger="repro.orchestrator"):
            with capture() as registry:
                sweep = run_sweep(
                    spec_of(), seeded_task, workers=1, cache_dir=tmp_path,
                    policy=ExecutionPolicy(fault_plan=plan),
                )
        assert sweep.results() == clean
        snapshot = registry.snapshot()
        assert _counter(snapshot, "repro_orchestrator_cache_write_errors_total") == 1
        warnings = [r for r in caplog.records if "cache" in r.getMessage()]
        assert len(warnings) == 1
        # The other three shards were stored and resume on the next run.
        assert (
            run_sweep(spec_of(), seeded_task, workers=1, cache_dir=tmp_path)
            .stats.n_cached
            == 3
        )

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root bypasses directory write permissions"
    )
    def test_read_only_cache_dir_degrades_to_one_warning(self, tmp_path, caplog):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        os.chmod(cache_dir, 0o500)
        try:
            clean = run_sweep(spec_of(), seeded_task, workers=1).results()
            with caplog.at_level("WARNING", logger="repro.orchestrator"):
                with capture() as registry:
                    sweep = run_sweep(
                        spec_of(), seeded_task, workers=1, cache_dir=cache_dir
                    )
            assert sweep.results() == clean
            snapshot = registry.snapshot()
            assert (
                _counter(snapshot, "repro_orchestrator_cache_write_errors_total") == 4
            )
            warnings = [r for r in caplog.records if "cache" in r.getMessage()]
            assert len(warnings) == 1  # one warning, not one per shard
        finally:
            os.chmod(cache_dir, 0o700)


class TestProgressReporting:
    def test_callable_progress_still_terminates_the_status_line(self):
        calls = []
        stream = io.StringIO()
        configure_progress_logging(enabled=True, stream=stream)
        try:
            run_sweep(
                spec_of(), seeded_task, workers=1,
                progress=lambda done, total, cached, elapsed: calls.append(done),
            )
        finally:
            configure_progress_logging(enabled=False)
        assert calls and calls[-1] == 4
        assert stream.getvalue().endswith("\n")


class TestForkFromThreads:
    def test_pool_started_off_the_main_thread_survives_a_held_lock(self):
        """A pool started from a non-main thread does not fork held locks.

        A helper thread holds a registry's lock while another thread runs
        a pooled sweep whose shards take that lock.  A ``fork`` child
        would inherit the lock held by a thread it does not have and
        hang; the scheduler's off-main-thread default (``forkserver``)
        starts children that import the registry afresh.
        """
        held, release = threading.Event(), threading.Event()

        def hold():
            with _HELD_REGISTRY._lock:
                held.set()
                release.wait(120)

        outcome = {}

        def sweep():
            outcome["results"] = run_sweep(
                spec_of(), registry_task, workers=2
            ).results()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(10)
        runner = threading.Thread(target=sweep, daemon=True)
        try:
            runner.start()
            runner.join(60)
            assert not runner.is_alive(), "the pooled sweep hung on a forked lock"
        finally:
            release.set()
            holder.join(10)
        assert outcome["results"] == [0, 1, 2, 3]

    def test_start_method_follows_the_thread_unless_named(self, monkeypatch):
        import multiprocessing

        from repro.analysis import scheduler

        requested = []
        real = multiprocessing.get_context

        def spy(method=None):
            requested.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)

        def pooled(mp_context):
            run = scheduler.ShardScheduler(workers=2, mp_context=mp_context)
            list(run.execute(seeded_task, spec_of(2).shards()))

        pooled(None)  # main thread: the platform default
        for mp_context in (None, "fork"):
            thread = threading.Thread(target=pooled, args=(mp_context,))
            thread.start()
            thread.join(60)
        assert requested == [None, "forkserver", "fork"]
