"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError

from des.engine import EventEngine, drain


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append("c"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = EventEngine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule_at(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_after_uses_current_time(self):
        engine = EventEngine()
        times = []
        engine.schedule_at(5.0, lambda: engine.schedule_after(2.0, lambda: times.append(engine.now)))
        engine.run()
        assert times == [7.0]

    def test_scheduling_in_the_past_raises(self):
        engine = EventEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-0.1, lambda: None)

    def test_clock_starts_at_zero(self):
        assert EventEngine().now == 0.0


class TestRun:
    def test_run_until_stops_before_later_events(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        executed = engine.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert engine.now == 5.0  # clock advances to the horizon

    def test_run_until_resumes_later(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run()
        assert fired == [1, 10]

    def test_max_events_budget(self):
        engine = EventEngine()
        for i in range(10):
            engine.schedule_at(float(i), lambda: None)
        assert engine.run(max_events=4) == 4
        assert engine.pending_count == 6

    def test_events_scheduled_during_run_execute(self):
        engine = EventEngine()
        fired = []

        def chain(depth: int):
            fired.append(depth)
            if depth < 3:
                engine.schedule_after(1.0, lambda: chain(depth + 1))

        engine.schedule_at(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_run_is_not_reentrant(self):
        engine = EventEngine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule_at(0.0, reenter)
        engine.run()
        assert len(errors) == 1

    def test_executed_count_tracks_events(self):
        engine = EventEngine()
        for i in range(5):
            engine.schedule_at(float(i), lambda: None)
        engine.run()
        assert engine.executed_count == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancelled_events_do_not_count_as_executed(self):
        engine = EventEngine()
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        engine.run()
        assert engine.executed_count == 0

    def test_step_skips_cancelled(self):
        engine = EventEngine()
        fired = []
        first = engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(2.0, lambda: fired.append("b"))
        first.cancel()
        event = engine.step()
        assert event is not None
        assert fired == ["b"]

    def test_clear_drops_pending(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.clear()
        assert engine.pending_count == 0
        assert engine.run() == 0

    def test_clear_resets_cancelled_counter(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None).cancel()
        engine.clear()
        assert engine.cancelled_pending_count == 0


class TestLazyDeletionCompaction:
    """Regression: cancelled events must not pile up in the heap.

    Before the lazy-deletion counter, a schedule/cancel-heavy workload
    (per-step protocol timeouts that are almost always cancelled early)
    left every dead entry in the heap until its fire time, making each
    push O(log dead) — quadratic in aggregate for 100k timeouts.
    """

    def test_100k_scheduled_and_cancelled_timeouts_stay_compact(self):
        engine = EventEngine()
        live = engine.schedule_at(10_000_000.0, lambda: None, label="live")
        for i in range(100_000):
            engine.schedule_at(1_000_000.0 + i, lambda: None, label="timeout").cancel()
            # The heap never holds more dead entries than live ones (plus
            # the sub-threshold slack below the compaction minimum).
            assert engine.pending_count <= EventEngine._COMPACT_MIN_SIZE
        assert engine.cancelled_pending_count <= engine.pending_count
        assert not live.cancelled
        assert engine.run() == 1  # only the live event ever fires

    def test_rolling_timeout_pattern_stays_compact(self):
        # The protocol idiom: arm a timeout, cancel it when progress
        # arrives, arm the next one.
        engine = EventEngine()
        fired = []
        previous = None
        for i in range(10_000):
            if previous is not None:
                previous.cancel()
            previous = engine.schedule_at(
                float(i + 1), lambda i=i: fired.append(i), label="timeout"
            )
            assert engine.pending_count <= EventEngine._COMPACT_MIN_SIZE
        engine.run()
        assert fired == [9_999]

    def test_compaction_preserves_order_and_counts(self):
        engine = EventEngine()
        fired = []
        events = [
            engine.schedule_at(float(i), lambda i=i: fired.append(i))
            for i in range(64)
        ]
        for event in events[1::2]:
            event.cancel()
        engine.run()
        assert fired == list(range(0, 64, 2))
        assert engine.executed_count == 32
        assert engine.cancelled_pending_count == 0

    def test_cancel_is_idempotent_in_counter(self):
        engine = EventEngine()
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert engine.cancelled_pending_count == 1

    def test_standalone_event_cancel_still_works(self):
        from des.engine import Event

        event = Event(time=1.0, callback=lambda: None)
        event.cancel()
        assert event.cancelled


class TestDrain:
    def test_drain_returns_counts_and_time(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        executed, now = drain(engine, until=5.0)
        assert executed == 2
        assert now == 5.0

    def test_step_on_empty_engine_returns_none(self):
        assert EventEngine().step() is None
