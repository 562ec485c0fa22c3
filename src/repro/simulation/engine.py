"""A small discrete-event simulation engine.

The economy simulation needs only a modest scheduler — periodic auction events
interleaved with utilization-drift events — but keeping it as a proper
discrete-event engine (time-ordered heap, stable tie-breaking, cancellation)
makes the simulation easy to extend (job churn, capacity turn-ups, operator
interventions) and easy to test in isolation.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True, frozen=True)
class _QueueEntry:
    time: float
    priority: int
    seq: int
    event: "Event" = field(compare=False)


@dataclass(frozen=True)
class Event:
    """A scheduled callback.

    ``priority`` breaks ties at equal times (lower runs first); ``name`` is a
    label for traces and tests.
    """

    time: float
    callback: Callable[["SimulationEngine"], None]
    name: str = ""
    priority: int = 0


class SimulationEngine:
    """Time-ordered event execution with cancellation and periodic scheduling."""

    def __init__(self, *, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self._processed = 0
        self.trace: list[tuple[float, str]] = []

    # -- clock ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return sum(1 for entry in self._queue if entry.seq not in self._cancelled)

    # -- scheduling -----------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        name: str = "",
        priority: int = 0,
    ) -> int:
        """Schedule ``callback`` to run ``delay`` time units from now; returns a handle."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        seq = next(self._seq)
        event = Event(time=self._now + delay, callback=callback, name=name, priority=priority)
        heapq.heappush(self._queue, _QueueEntry(event.time, priority, seq, event))
        return seq

    def schedule_at(
        self,
        time: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        name: str = "",
        priority: int = 0,
    ) -> int:
        """Schedule ``callback`` at an absolute time (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before current time {self._now}")
        return self.schedule(time - self._now, callback, name=name, priority=priority)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        count: int,
        name: str = "",
        priority: int = 0,
        start_delay: float | None = None,
    ) -> list[int]:
        """Schedule ``count`` repetitions of ``callback`` every ``period`` time units."""
        if period <= 0:
            raise ValueError("period must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        first = period if start_delay is None else start_delay
        return [
            self.schedule(first + i * period, callback, name=name, priority=priority)
            for i in range(count)
        ]

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event by handle (no-op if it already ran)."""
        self._cancelled.add(handle)

    # -- execution ------------------------------------------------------------------------
    def step(self) -> Event | None:
        """Execute the next pending event; returns it, or ``None`` if the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.seq in self._cancelled:
                self._cancelled.discard(entry.seq)
                continue
            self._now = entry.time
            self.trace.append((entry.time, entry.event.name))
            entry.event.callback(self)
            self._processed += 1
            return entry.event
        return None

    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue empties, ``until`` time passes, or ``max_events`` fire.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            # peek for the time bound
            next_entry = self._queue[0]
            if until is not None and next_entry.time > until:
                self._now = float(until)
                break
            if self.step() is None:
                break
            executed += 1
        else:
            if until is not None and self._now < until:
                self._now = float(until)
        return executed
