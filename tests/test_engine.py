"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator.engine import EventQueue, EventType


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_SUBMIT, payload="b")
        q.push(5.0, EventType.JOB_SUBMIT, payload="a")
        q.push(20.0, EventType.JOB_SUBMIT, payload="c")
        assert [e.payload for e in q.drain()] == ["a", "b", "c"]

    def test_tie_break_ends_before_submits(self):
        q = EventQueue()
        q.push(10.0, EventType.JOB_SUBMIT, payload="submit")
        q.push(10.0, EventType.JOB_END, payload="end")
        assert q.pop().payload == "end"
        assert q.pop().payload == "submit"

    def test_schedule_events_last_at_same_time(self):
        q = EventQueue()
        q.push(1.0, EventType.SCHEDULE, payload="sched")
        q.push(1.0, EventType.JOB_END, payload="end")
        q.push(1.0, EventType.JOB_SUBMIT, payload="submit")
        assert [e.payload for e in q.drain()] == ["end", "submit", "sched"]

    def test_fifo_within_same_time_and_type(self):
        q = EventQueue()
        q.push(3.0, EventType.JOB_SUBMIT, payload=1)
        q.push(3.0, EventType.JOB_SUBMIT, payload=2)
        q.push(3.0, EventType.JOB_SUBMIT, payload=3)
        assert [e.payload for e in q.drain()] == [1, 2, 3]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(1.0, EventType.SCHEDULE)
        assert q
        assert len(q) == 1

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, EventType.SCHEDULE, payload="x")
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventType.SCHEDULE)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), EventType.SCHEDULE)

    def test_validity_token_carried(self):
        q = EventQueue()
        event = q.push(1.0, EventType.JOB_END, payload=1, validity_token=7)
        assert event.validity_token == 7


class TestPopBatch:
    def test_empty_queue_returns_empty_batch(self):
        assert EventQueue().pop_batch() == []

    def test_collects_one_instant_only(self):
        q = EventQueue()
        q.push(1.0, EventType.JOB_SUBMIT, payload="a")
        q.push(1.0, EventType.JOB_SUBMIT, payload="b")
        q.push(2.0, EventType.JOB_SUBMIT, payload="c")
        batch = q.pop_batch()
        assert [e.payload for e in batch] == ["a", "b"]
        assert len(q) == 1

    def test_batch_arrives_in_priority_then_fifo_order(self):
        q = EventQueue()
        q.push(5.0, EventType.SCHEDULE, payload="sched")
        q.push(5.0, EventType.JOB_SUBMIT, payload="s1")
        q.push(5.0, EventType.JOB_END, payload=1)
        q.push(5.0, EventType.JOB_SUBMIT, payload="s2")
        batch = q.pop_batch()
        assert [e.payload for e in batch] == [1, "s1", "s2", "sched"]
        keys = [(e.time, e.type_priority, e.serial) for e in batch]
        assert keys == sorted(keys)

    def test_stale_events_never_surface_or_define_the_instant(self):
        q = EventQueue(is_stale=lambda event: event.payload == "old")
        q.push(1.0, EventType.JOB_END, payload="old")
        q.push(3.0, EventType.JOB_SUBMIT, payload="s")
        q.push(3.0, EventType.JOB_END, payload="old")
        q.push(9.0, EventType.JOB_END, payload="new")
        assert q.peek().time == 3.0
        assert [e.payload for e in q.pop_batch()] == ["s"]
        assert [e.payload for e in q.drain()] == ["new"]
        assert not q

    def test_batch_after_until_stays_queued(self):
        q = EventQueue(is_stale=lambda event: event.payload == "old")
        q.push(1.0, EventType.JOB_END, payload="old")  # stale: does not define the instant
        q.push(5.0, EventType.JOB_SUBMIT, payload="s")
        assert q.pop_batch(until=3.0) == []
        assert [e.payload for e in q.pop_batch(until=5.0)] == ["s"]


# ---------------------------------------------------------------------- #
# Property tests: order under reconfiguration storms
# ---------------------------------------------------------------------- #
_ops = st.lists(
    st.tuples(
        st.sampled_from(["end", "submit", "pop"]),
        st.integers(1, 3),                             # payload (job id)
        st.integers(0, 4),                             # validity token
        st.floats(0.0, 100.0, allow_nan=False),        # time
    ),
    max_size=60,
)


class TestQueueOrderProperties:
    @given(ops=_ops)
    @settings(max_examples=120, suppress_health_check=[HealthCheck.filter_too_much])
    def test_drain_yields_strictly_increasing_keys(self, ops):
        q = EventQueue()
        for op, payload, token, time in ops:
            if op == "end":
                q.push(time, EventType.JOB_END, payload=payload, validity_token=token)
            elif op == "submit":
                q.push(time, EventType.JOB_SUBMIT, payload=payload)
            elif q:
                q.pop()
        drained = list(q.drain())
        keys = [(e.time, e.type_priority, e.serial) for e in drained]
        assert keys == sorted(keys)
        for a, b in zip(keys, keys[1:]):
            assert a < b  # serial is unique, so strictly increasing
        assert not q and len(q) == 0

    @given(
        times=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=30),
        storm=st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_pop_batch_equals_sorted_pops(self, times, storm):
        """pop_batch returns exactly what repeated pop() at the same instant
        would, already in order — the re-sort the driver used to do."""

        def build() -> EventQueue:
            q = EventQueue()
            for i, t in enumerate(times):
                q.push(t, EventType.JOB_SUBMIT, payload=("s", i))
            for token in range(storm):
                q.push(times[0], EventType.JOB_END, payload=99, validity_token=token)
            return q

        q1, q2 = build(), build()
        batch = q1.pop_batch()
        expected = []
        first = q2.pop()
        expected.append(first)
        while q2 and q2.peek().time == first.time:
            expected.append(q2.pop())
        expected.sort(key=lambda e: (e.type_priority, e.serial))
        assert [(e.time, e.type_priority, e.serial, e.payload) for e in batch] == [
            (e.time, e.type_priority, e.serial, e.payload) for e in expected
        ]
        assert len(q1) == len(q2)
