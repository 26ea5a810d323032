"""Spans: measure a region of code on both clocks at once.

Simulation code lives in two timelines — the deterministic simulated
clock (what a deployment *would* experience: upload latencies, phase
deadlines) and the wall clock (what this host actually spent computing).
A :class:`Span` records both; :func:`time_phase` is the context manager
the round drivers wrap each protocol phase in, observing the simulated
duration and the wall duration into two histograms as the block exits.

Spans deliberately never touch the RNG and only *read* the simulated
clock, so instrumented and uninstrumented runs stay bit-identical — a
property the integration tests pin via the engine's parameters digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.telemetry.registry import Histogram, _Family

if TYPE_CHECKING:  # Typing only: keeps telemetry import-cycle-free.
    from repro.simulation.clock import SimulatedClock


@dataclasses.dataclass
class Span:
    """One measured region, on the wall clock and (optionally) the
    simulated clock.

    Attributes:
        name: What was measured (e.g. a phase tag).
        wall_start/wall_end: ``time.perf_counter()`` endpoints.
        sim_start/sim_end: Simulated-clock endpoints (``None`` without
            a clock).
    """

    name: str
    wall_start: float = 0.0
    wall_end: float | None = None
    sim_start: float | None = None
    sim_end: float | None = None

    @property
    def wall_duration(self) -> float:
        """Elapsed wall seconds (so far, if the span is still open)."""
        end = self.wall_end if self.wall_end is not None else time.perf_counter()
        return end - self.wall_start

    @property
    def sim_duration(self) -> float | None:
        """Elapsed simulated seconds, or ``None`` without a clock."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start


@contextlib.contextmanager
def time_phase(
    name: str,
    clock: "SimulatedClock | None" = None,
    sim_histogram: "Histogram | _Family | None" = None,
    wall_histogram: "Histogram | _Family | None" = None,
) -> Iterator[Span]:
    """Measure the enclosed block as a :class:`Span`.

    On exit the simulated duration is observed into ``sim_histogram``
    (when a clock was given) and the wall duration into
    ``wall_histogram``.  Either histogram may be ``None`` — the span is
    still yielded for callers that only want the timing object.  Safe
    around a block that advances the simulated clock: wall time then
    measures the real compute spent while simulated time advanced.
    """
    span = Span(
        name=name,
        wall_start=time.perf_counter(),
        sim_start=clock.now if clock is not None else None,
    )
    try:
        yield span
    finally:
        span.wall_end = time.perf_counter()
        if clock is not None:
            span.sim_end = clock.now
        duration = span.sim_duration
        if sim_histogram is not None and duration is not None:
            sim_histogram.observe(duration)
        if wall_histogram is not None:
            wall_histogram.observe(span.wall_duration)
