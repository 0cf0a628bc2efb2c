"""Tests of the benchmark's span recorder (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import asyncio
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import MAIN, THREAD, Patches, SpanRecorder, traced  # noqa: E402


class SteppedClock:
    """A clock the test sets by hand, shared by every thread."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run_interleaved(recorder, clock, steps):
    """Run ``(thread, time, action, name)`` steps in exactly this order.

    Each named thread executes only its own steps, one at a time, with
    the shared clock set to the step's time; the spans of the two
    threads therefore overlap exactly as the script says.
    """
    turns = {who: threading.Event() for who, *_ in steps}
    finished = threading.Event()
    frames = {}

    def worker(who):
        for index, (owner, at, action, name) in enumerate(steps):
            if owner != who:
                continue
            assert turns[who].wait(timeout=10)
            turns[who].clear()
            clock.now = at
            if action == "enter":
                frames[(who, name)] = recorder.enter(name)
            else:
                recorder.exit(frames.pop((who, name)))
            finished.set()

    threads = [threading.Thread(target=worker, args=(who,)) for who in turns]
    for thread in threads:
        thread.start()
    for owner, *_ in steps:
        finished.clear()
        turns[owner].set()
        assert finished.wait(timeout=10)
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_overlapping_spans_on_two_threads_get_their_own_self_time():
    clock = SteppedClock()
    recorder = SpanRecorder(clock=clock)
    run_interleaved(
        recorder,
        clock,
        [
            ("a", 0.0, "enter", "a.outer"),
            ("b", 1.0, "enter", "b.outer"),
            ("a", 2.0, "enter", "a.inner"),
            ("b", 3.0, "enter", "b.inner"),
            ("a", 5.0, "exit", "a.inner"),  # a.inner: 3 s
            ("b", 9.0, "exit", "b.inner"),  # b.inner: 6 s
            ("a", 10.0, "exit", "a.outer"),  # a.outer: 10 s, self 7 s
            ("b", 12.0, "exit", "b.outer"),  # b.outer: 11 s, self 5 s
        ],
    )
    spans = recorder.spans()
    assert spans["a.inner"]["self_s"] == 3.0
    assert spans["b.inner"]["self_s"] == 6.0
    assert spans["a.outer"]["self_s"] == 7.0
    assert spans["a.outer"]["total_s"] == 10.0
    assert spans["b.outer"]["self_s"] == 5.0
    assert spans["b.outer"]["total_s"] == 11.0
    assert all(row["calls"] == 1 for row in spans.values())
    assert recorder.spans((MAIN,)) == {}
    assert set(recorder.spans((THREAD,))) == set(spans)


def test_wrappers_count_and_restore():
    import json as module

    recorder = SpanRecorder()
    patches = Patches()
    original = module.dumps
    patches.set(
        module,
        "dumps",
        traced(recorder, original, "json.dumps", lambda a, k, r: recorder.count("chars", len(r))),
    )
    assert module.dumps([1, 2]) == "[1, 2]"
    patches.undo()
    assert module.dumps is original
    assert recorder.spans()["json.dumps"]["calls"] == 1
    assert recorder.counts["chars"] == 6.0


def test_coroutines_are_leaf_spans():
    recorder = SpanRecorder()

    async def inner():
        await asyncio.sleep(0)
        return 7

    wrapped = traced(recorder, inner, "coro")

    async def outer():
        frame = recorder.enter("outer")
        value = await wrapped()
        recorder.exit(frame)
        return value

    assert asyncio.run(outer()) == 7
    spans = recorder.spans()
    assert spans["coro"]["calls"] == 1
    # A leaf never enters the stack, so it takes nothing from its caller.
    assert spans["outer"]["self_s"] == spans["outer"]["total_s"]


def test_snapshot_round_trip_and_spool(tmp_path):
    recorder = SpanRecorder()
    recorder.leaf("x", 1.5)
    recorder.count("n", 2)
    recorder.see("keys", "k1")
    recorder.see("keys", "k1")
    recorder.spool(tmp_path)
    assert recorder.spans() == {}
    merged = SpanRecorder()
    merged.collect(tmp_path)
    assert merged.spans()["x"]["self_s"] == 1.5
    assert merged.counts["n"] == 2
    assert merged.distinct("keys") == 1
    assert list(tmp_path.glob("spans-*.json")) == []
