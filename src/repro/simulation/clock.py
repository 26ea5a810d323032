"""Deterministic simulated clock: time without a wall clock.

Federated rounds are full of waiting — upload latencies, phase
deadlines, straggler timeouts.  Simulating them against the wall clock
would make every run slow *and* nondeterministic.  A
:class:`SimulatedClock` is just a number that only moves forward: the
round drivers (:mod:`repro.simulation.rounds`) compute when each upload
lands from the clients' plans and move ``now`` to each arrival or
deadline in turn (:meth:`SimulatedClock.advance_to`), and a sharded
round deposits its slowest shard's finish time the same way.  Nothing
is scheduled on the clock and nothing waits on it, so a run replays
bit-identically for a fixed seed.
"""

from __future__ import annotations

from collections.abc import Coroutine
from typing import Any

from repro.errors import SimulationError


class SimulatedClock:
    """A monotone simulated clock.

    Args:
        start: Initial simulated time (seconds; an arbitrary epoch).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move ``now`` forward to ``when``; an earlier ``when`` leaves
        it where it is (the clock never moves backwards)."""
        self._now = max(self._now, float(when))

    def run(self, main: Coroutine[Any, Any, Any]) -> Any:
        """Run a round's ``run()`` coroutine to completion; returns its
        value.

        The round drivers are coroutines that never suspend, so this
        steps ``main`` once.

        Raises:
            SimulationError: If ``main`` suspends — it is waiting on
                something no simulated round provides.
        """
        try:
            main.send(None)
        except StopIteration as done:
            return done.value
        main.close()
        raise SimulationError(
            "a simulated round never suspends, but this coroutine did"
        )
