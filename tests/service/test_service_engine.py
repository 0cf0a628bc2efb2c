"""Unit tests of the job engine: keys, admission, dedup, memo, eviction.

These tests drive :class:`repro.service.JobEngine` directly (no HTTP)
and register tiny synthetic job kinds so every behavior — single-flight
attachment, memo hits, per-client caps, LRU eviction, worker-surviving
failures — is exercised in milliseconds, decoupled from the real audit
compute (which the black-box suite covers).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionError, ConfigurationError, JobNotFoundError
from repro.service import EngineConfig, JobEngine, PreparedJob, job_key, prepare_job
from repro.service.jobs import JOB_KINDS


@pytest.fixture()
def echo_kind(monkeypatch):
    """Register an instant 'echo' kind that returns its params."""

    def _prepare(raw):
        params = dict(raw)
        return PreparedJob(
            "echo", params, job_key("echo", params), lambda ctx: {"echo": params}
        )

    monkeypatch.setitem(JOB_KINDS, "echo", _prepare)
    return "echo"


@pytest.fixture()
def failing_kind(monkeypatch):
    """Register a 'boom' kind whose execution always raises."""

    def _prepare(raw):
        params = dict(raw)

        def _run(ctx):
            raise RuntimeError("synthetic job failure")

        return PreparedJob("boom", params, job_key("boom", params), _run)

    monkeypatch.setitem(JOB_KINDS, "boom", _prepare)
    return "boom"


@pytest.fixture()
def flaky_kind(monkeypatch):
    """Register a 'flaky' kind that fails its first execution, then works."""
    calls = {"n": 0}

    def _prepare(raw):
        params = dict(raw)

        def _run(ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient flake")
            return {"ok": True, "execution": calls["n"]}

        return PreparedJob("flaky", params, job_key("flaky", params), _run)

    monkeypatch.setitem(JOB_KINDS, "flaky", _prepare)
    return "flaky"


@pytest.fixture()
def engine():
    """A started single-thread engine with small, test-friendly limits."""
    instance = JobEngine(
        EngineConfig(max_queue=4, max_client_inflight=2, max_records=16)
    )
    instance.start()
    yield instance
    instance.stop()


class TestJobKey:
    def test_key_is_spelling_independent(self):
        a = job_key("audit", {"agents": 10, "seed": 1})
        b = job_key("audit", {"seed": 1, "agents": 10})
        assert a == b

    def test_key_separates_kinds_and_params(self):
        base = job_key("audit", {"agents": 10})
        assert job_key("dynamics", {"agents": 10}) != base
        assert job_key("audit", {"agents": 11}) != base

    def test_equivalent_requests_normalize_to_one_key(self):
        """Defaults are filled before hashing: omitted == explicit default."""
        implicit = prepare_job("audit", {"agents": 2000})
        explicit = prepare_job("audit", {"agents": 2000, "seed": 2021})
        assert implicit.key == explicit.key

    def test_default_chunk_agents_shares_the_explicit_key(self):
        """An omitted ``chunk_agents`` is the default window, not a second
        key for a computation whose payload echoes ``chunk_agents: 131072``."""
        implicit = prepare_job("audit", {"agents": 2000})
        explicit = prepare_job("audit", {"agents": 2000, "chunk_agents": 131072})
        assert implicit.params["chunk_agents"] == 131072
        assert implicit.key == explicit.key


class TestSubmission:
    def test_echo_job_round_trips(self, engine, echo_kind):
        status = engine.submit(echo_kind, {"x": 1}, "c")
        done = engine.wait(status.id)
        assert done.state == "done"
        assert b'"echo"' in engine.result_bytes(status.id)

    def test_unknown_job_id_is_not_found(self, engine):
        with pytest.raises(JobNotFoundError):
            engine.get("job-zzz")

    def test_result_of_unfinished_job_is_not_found(self, engine, echo_kind):
        engine.pause()
        status = engine.submit(echo_kind, {"x": 2}, "c")
        with pytest.raises(JobNotFoundError):
            engine.result_bytes(status.id)
        engine.resume()
        engine.wait(status.id)

    def test_bad_spec_leaves_no_residue(self, engine):
        with pytest.raises(ConfigurationError):
            engine.submit("audit", {"schemes": ["not-a-scheme"]}, "c")
        assert engine.queue_depth() == 0

    def test_failed_job_reports_structured_error(self, engine, failing_kind):
        status = engine.submit(failing_kind, {}, "c")
        done = engine.wait(status.id)
        assert done.state == "failed"
        assert done.error == {
            "type": "RuntimeError",
            "message": "synthetic job failure",
        }
        with pytest.raises(JobNotFoundError):
            engine.result_bytes(status.id)

    def test_worker_survives_a_failing_job(self, engine, echo_kind, failing_kind):
        failed = engine.submit(failing_kind, {}, "c")
        engine.wait(failed.id)
        ok = engine.submit(echo_kind, {"after": "failure"}, "c")
        assert engine.wait(ok.id).state == "done"


class TestSingleFlightAndMemo:
    def test_concurrent_identicals_attach_to_one_flight(self, engine, echo_kind):
        engine.pause()
        first = engine.submit(echo_kind, {"x": 1}, "a")
        second = engine.submit(echo_kind, {"x": 1}, "b")
        third = engine.submit(echo_kind, {"x": 1}, "c")
        assert not first.deduplicated
        assert second.deduplicated and third.deduplicated
        assert len({first.id, second.id, third.id}) == 3
        engine.resume()
        for status in (first, second, third):
            assert engine.wait(status.id).state == "done"
        payloads = {engine.result_bytes(s.id) for s in (first, second, third)}
        assert len(payloads) == 1

    def test_repeat_submission_is_a_memo_hit(self, engine, echo_kind):
        first = engine.submit(echo_kind, {"x": 9}, "a")
        engine.wait(first.id)
        repeat = engine.submit(echo_kind, {"x": 9}, "b")
        assert repeat.memoized
        assert repeat.state == "done"
        assert engine.result_bytes(repeat.id) == engine.result_bytes(first.id)

    def test_failure_is_not_memoized(self, engine, flaky_kind):
        """A transient failure must not be replayed as a cached answer:
        resubmitting the identical spec re-executes the job."""
        first = engine.submit(flaky_kind, {"x": 1}, "c")
        assert engine.wait(first.id).state == "failed"
        retry = engine.submit(flaky_kind, {"x": 1}, "c")
        assert not retry.memoized and not retry.deduplicated
        assert engine.wait(retry.id).state == "done"
        assert b'"ok": true' in engine.result_bytes(retry.id)
        # The failed record still answers status queries with its error.
        stale = engine.get(first.id)
        assert stale.state == "failed"
        assert stale.error == {"type": "RuntimeError", "message": "transient flake"}

    def test_failure_does_not_block_concurrent_dedup(self, engine, failing_kind):
        """Records attached to a failing flight all observe the failure."""
        engine.pause()
        first = engine.submit(failing_kind, {"y": 2}, "a")
        attached = engine.submit(failing_kind, {"y": 2}, "b")
        assert attached.deduplicated
        engine.resume()
        assert engine.wait(first.id).state == "failed"
        assert engine.wait(attached.id).state == "failed"

    def test_memo_hit_bypasses_admission(self, engine, echo_kind):
        """A cached answer costs nothing, so caps must not refuse it."""
        first = engine.submit(echo_kind, {"x": 5}, "a")
        engine.wait(first.id)
        engine.pause()
        # Fill the queue to its watermark with distinct work.
        for index in range(engine.config.max_queue):
            engine.submit(echo_kind, {"fill": index}, f"filler-{index}")
        memo = engine.submit(echo_kind, {"x": 5}, "late-client")
        assert memo.memoized and memo.state == "done"
        engine.resume()


class TestAdmissionControl:
    def test_queue_high_watermark_refuses(self, engine, echo_kind):
        engine.pause()
        for index in range(engine.config.max_queue):
            engine.submit(echo_kind, {"i": index}, f"c{index}")
        with pytest.raises(AdmissionError) as excinfo:
            engine.submit(echo_kind, {"i": 999}, "c999")
        assert excinfo.value.retry_after_s > 0
        engine.resume()

    def test_queue_drains_and_admits_again(self, engine, echo_kind):
        engine.pause()
        queued = [
            engine.submit(echo_kind, {"i": index}, f"c{index}")
            for index in range(engine.config.max_queue)
        ]
        with pytest.raises(AdmissionError):
            engine.submit(echo_kind, {"i": -1}, "cx")
        engine.resume()
        for status in queued:
            engine.wait(status.id)
        late = engine.submit(echo_kind, {"i": -1}, "cx")
        assert engine.wait(late.id).state == "done"

    def test_per_client_inflight_cap(self, engine, echo_kind):
        engine.pause()
        for index in range(engine.config.max_client_inflight):
            engine.submit(echo_kind, {"i": index}, "greedy")
        with pytest.raises(AdmissionError):
            engine.submit(echo_kind, {"i": 99}, "greedy")
        # Another client still has headroom.
        other = engine.submit(echo_kind, {"i": 99}, "patient")
        assert other.state == "queued"
        engine.resume()

    def test_inflight_table_is_pruned_at_zero(self, engine, echo_kind, failing_kind):
        """Client identities are forgotten once their last job finishes,
        so a fresh X-Client-Id per request cannot grow the table."""
        for index in range(3):
            status = engine.submit(echo_kind, {"i": index}, f"one-shot-{index}")
            engine.wait(status.id)
        failed = engine.submit(failing_kind, {}, "one-shot-fail")
        engine.wait(failed.id)
        assert engine._inflight_by_client == {}


class TestEviction:
    def test_finished_records_are_lru_evicted(self, echo_kind):
        engine = JobEngine(
            EngineConfig(max_queue=32, max_client_inflight=32, max_records=3)
        )
        engine.start()
        try:
            ids = []
            for index in range(6):
                status = engine.submit(echo_kind, {"i": index}, "c")
                engine.wait(status.id)
                ids.append(status.id)
            with pytest.raises(JobNotFoundError):
                engine.get(ids[0])
            # The freshest records survive.
            assert engine.get(ids[-1]).state == "done"
        finally:
            engine.stop()

    def test_live_jobs_are_never_evicted(self, echo_kind):
        engine = JobEngine(
            EngineConfig(max_queue=32, max_client_inflight=32, max_records=2)
        )
        engine.start()
        try:
            engine.pause()
            live = [
                engine.submit(echo_kind, {"i": index}, f"c{index}")
                for index in range(4)
            ]
            # Over capacity, but everything is queued: nothing to evict.
            for status in live:
                assert engine.get(status.id).state == "queued"
            engine.resume()
            for status in live:
                engine.wait(status.id)
        finally:
            engine.stop()
