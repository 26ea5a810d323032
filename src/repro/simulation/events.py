"""The simulation trace: an append-only log of timestamped events.

:class:`SimulationTrace` records what happened and when on the
simulated clock — arrivals, dropouts, ignored stragglers, phase
timeouts — and is the observability surface tests and the CLI report
against.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Mapping
from typing import Any

from repro.simulation.clock import SimulatedClock


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulation event.

    Attributes:
        time: Simulated time of the event.
        kind: Short machine-readable label (e.g. ``"client-dropped"``).
        details: Free-form fields (client index, phase, ...).
    """

    time: float
    kind: str
    details: Mapping[str, Any]


class SimulationTrace:
    """Append-only event log shared by the round driver and the engine.

    Args:
        clock: The clock events are timestamped against.
        max_events: Optional ring-buffer cap.  When set, appending past
            the cap drops the *oldest* events (counted in
            :attr:`dropped_events`), so million-round runs keep a
            bounded recent window instead of exhausting memory.  The
            default keeps every event — the behaviour tests and the
            exact-replay tooling rely on.
    """

    def __init__(
        self, clock: SimulatedClock, max_events: int | None = None
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._clock = clock
        self.max_events = max_events
        self._events: deque[TraceEvent] = deque(maxlen=max_events)
        #: Events evicted by the ring buffer since construction.
        self.dropped_events = 0

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first (a fresh list)."""
        return list(self._events)

    def _append(self, event: TraceEvent) -> None:
        if (
            self.max_events is not None
            and len(self._events) == self.max_events
        ):
            self.dropped_events += 1  # deque evicts the oldest itself.
        self._events.append(event)

    def record(self, kind: str, **details: Any) -> None:
        """Append one event stamped with the current simulated time."""
        self._append(
            TraceEvent(time=self._clock.now, kind=kind, details=details)
        )

    def merge(self, events: "list[TraceEvent]") -> None:
        """Absorb events recorded on another clock (e.g. a shard
        sub-round's private clock, possibly in another process).

        Events keep their own timestamps — they describe when things
        happened on the sub-round's timeline, which shares the parent's
        epoch — and are appended as given; callers wanting global time
        order should pre-sort deterministically.  The ring-buffer cap
        (if any) applies here too.
        """
        for event in events:
            self._append(event)

    def __len__(self) -> int:
        return len(self._events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All retained events with the given label, in order."""
        return [event for event in self._events if event.kind == kind]

    def count(self, kind: str) -> int:
        """Number of retained events with the given label."""
        return len(self.of_kind(kind))
