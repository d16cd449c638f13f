"""Discrete-event engine: event types, the event and the event queue.

The engine is intentionally tiny — a binary heap of ``(time, priority,
serial, event)`` tuples, which compare in C and never reach the event since
the serial is unique — because the complexity of the reproduction lives in
the schedulers, not in the event plumbing.  Events are never removed from the
heap; instead, components that reschedule work (e.g. a job whose end time
moved because it was shrunk) bump a *serial* number on the job, and the
simulation's one stale-end rule
(:meth:`repro.simulator.simulation.Simulation.is_stale_end`) recognises an
end event whose token no longer matches.  The queue drops such events when
they reach the front of the heap, so they never surface in or define a
per-instant batch; the simulation re-checks each event as it processes the
batch, since a job can be reconfigured earlier in the same instant.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple


class EventType(enum.IntEnum):
    """Kinds of events the simulation processes.

    The integer values double as tie-break priorities for events that share
    a timestamp: ends are processed before submits so that resources freed
    at time *t* are visible to jobs arriving at *t*, and explicit schedule
    triggers run last once the system state for the instant is settled.
    """

    JOB_END = 0
    JOB_SUBMIT = 1
    SCHEDULE = 2


@dataclass(slots=True)
class Event:
    """A single simulation event.

    The queue orders events by ``(time, type priority, serial)``; the
    payload is not part of the ordering.
    """

    time: float
    type_priority: int
    serial: int
    event_type: EventType
    payload: Any = None
    # For JOB_END events: the job's ``end_event_serial`` at scheduling time.
    # A mismatch at pop time means the job was reconfigured and this event is
    # stale.
    validity_token: int = 0


class EventQueue:
    """A time-ordered queue of :class:`Event` objects.

    ``is_stale`` names superseded events: one at the front of the heap is
    dropped instead of being peeked or popped.  ``len()`` and truthiness
    count every event still in the heap, stale ones included.
    """

    def __init__(self, is_stale: Optional[Callable[[Event], bool]] = None) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._is_stale = is_stale

    def _discard_stale(self) -> None:
        heap, is_stale = self._heap, self._is_stale
        if is_stale is not None:
            while heap and is_stale(heap[0][3]):
                heapq.heappop(heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        event_type: EventType,
        payload: Any = None,
        validity_token: int = 0,
    ) -> Event:
        """Add an event; returns the created :class:`Event`."""
        if time != time or time < 0:  # NaN or negative
            raise ValueError(f"invalid event time {time!r}")
        priority = int(event_type)
        serial = next(self._counter)
        event = Event(time, priority, serial, event_type, payload, validity_token)
        heapq.heappush(self._heap, (time, priority, serial, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        self._discard_stale()
        return heapq.heappop(self._heap)[3]

    def pop_batch(self, until: Optional[float] = None) -> List[Event]:
        """Pop every live event sharing the earliest timestamp, in order.

        The heap already yields ``(time, type priority, serial)`` order, so
        the returned batch needs no re-sort: within one instant, ends come
        first, then submits, then schedule markers, FIFO within each kind.
        Returns an empty list when no live events remain, or when the
        earliest lies after ``until``.
        """
        self._discard_stale()
        heap = self._heap
        if not heap:
            return []
        first_time = heap[0][0]
        if until is not None and first_time > until:
            return []
        batch: List[Event] = []
        while heap and heap[0][0] == first_time:
            batch.append(heapq.heappop(heap)[3])
            self._discard_stale()
        return batch

    def peek(self) -> Optional[Event]:
        """Return the earliest live event without removing it (or ``None``)."""
        self._discard_stale()
        return self._heap[0][3] if self._heap else None

    def drain(self) -> Iterator[Event]:
        """Pop every remaining live event in order (used by tests)."""
        while self.peek() is not None:
            yield self.pop()
