"""Dropout-tolerant SecAgg rounds on a phase schedule, on the simulated
clock.

:func:`repro.secagg.bonawitz.run_bonawitz` runs the one in-process
phase loop (:func:`repro.secagg.statemachine.drive_phases`) with zero
latency and no deadline: every phase is a barrier, dropouts are a
static schedule, and time does not exist.  :class:`AsyncSecAggRound`
runs the same loop and adds time: each client answers a phase its
:class:`~repro.simulation.population.ClientPlan` latency after the
phase opened, and the datagrams reach the driver in arrival order until
either everyone expected has responded or the phase deadline passes —
whichever comes first — and then it closes the phase.

Which uploads make a phase is a pure function of the plans and the
timeout, so the round is one loop over the four phases with one heap of
datagrams in flight, ordered by ``(arrival time, push order)`` — no
event loop, no tasks, no timers.

The protocol logic itself — message encoding, negotiation, phase
bookkeeping, thresholds, crypto — lives entirely in the shared core,
what a refused datagram, a closed phase and an abort mean lives in the
driver, and when a phase closes lives in the loop; this file builds the
round, records what only the simulator traces and reports the outcome.
The consequences are exactly the ones the protocol was designed for:

* a client that crashes (plan says stop) or straggles past the deadline
  simply misses the phase; the surviving set shrinks monotonically
  ``U0 ⊇ U1 ⊇ U2 ⊇ U3`` and Shamir reconstruction removes whatever
  masks the dropouts left behind;
* a client whose upload the server session refuses is evicted, exactly
  as over sockets: the round goes on without it;
* if any phase's survivor count falls below the Shamir threshold the
  server raises :class:`~repro.errors.AggregationError` — the round
  aborts rather than mis-aggregating;
* a message arriving after its phase closed is logged and ignored
  (the straggler is treated as a dropout for the round);
* a client proposing an unknown protocol version or mask-PRG backend is
  refused at Hello with a typed :class:`~repro.secagg.wire.Reject` — it
  keeps a :class:`~repro.errors.NegotiationError` on its session and
  goes silent while the rest of the round proceeds.

Late in the round the server broadcasts an
:class:`~repro.secagg.wire.UnmaskRequest`; the ``tamper_unmask_request``
seam lets tests inject the malicious overlap request that clients must
refuse (the protocol's core security rule).  Every datagram is tallied
in the round's :class:`~repro.secagg.wire.WireStats`, surfaced on the
:class:`RoundOutcome` and as per-phase ``wire-phase`` trace events.

With a :class:`~repro.telemetry.MetricsRegistry` attached, the driver
reports the round into the ``secagg_*`` round families — the same ones,
counted the same way, as the socket server's.  Instrumentation only ever
*reads* the simulated clock — never the RNG — so metered and unmetered
runs stay bit-identical.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping

import numpy as np

from repro.errors import ChaosKillError, ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_UNMASK,
    UnmaskRequest,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.kernels import MaskPrg, get_mask_prg
from repro.secagg.keys import TOY_GROUP, KeyAgreementGroup
from repro.secagg.statemachine import (
    ClientSession,
    RoundDriver,
    ServerSession,
    drive_phases,
)
from repro.secagg.wire import PROTOCOL_V1, WireStats
from repro.simulation.clock import SimulatedClock
from repro.telemetry.registry import MetricsRegistry
from repro.simulation.events import SimulationTrace
from repro.simulation.population import ClientPlan


@dataclasses.dataclass(frozen=True)
class RoundOutcome:
    """Result of one simulated secure-aggregation round.

    Attributes:
        modular_sum: ``Σ_{u ∈ included} x_u mod m``.
        included: ``U2`` — clients whose input made the aggregate.
        dropped: Cohort members that dropped or straggled out.
        started_at: Simulated time the round began.
        completed_at: Simulated time the sum was recovered.
        wire: Per-phase, per-client message/byte accounting for the
            round (``None`` for outcomes built before any traffic).
        composer: How intermediate sums were combined for hierarchical
            rounds (``"clear"`` exposes shard sums to the composing
            node, ``"secagg"`` keeps them masked); ``None`` for flat
            rounds, which have no intermediate sums.
    """

    modular_sum: np.ndarray
    included: frozenset[int]
    dropped: frozenset[int]
    started_at: float
    completed_at: float
    wire: WireStats | None = None
    composer: str | None = None

    @property
    def duration(self) -> float:
        """Simulated wall time of the round."""
        return self.completed_at - self.started_at


class AsyncSecAggRound:
    """One Bonawitz round over a cohort with behaviour plans.

    Args:
        vectors: Private input per cohort member (1-based index ->
            length-``d`` integer vector over ``Z_m``).
        modulus: Aggregation modulus ``m``.
        threshold: Shamir reconstruction threshold ``t``.
        clock: The simulated clock the round advances, phase by phase.
        rng: Round-scoped randomness; per-client protocol generators are
            spawned from it in sorted index order (mirroring
            ``run_bonawitz``).
        plans: Behaviour plan per cohort member; omitted members stay
            online with zero latency.
        phase_timeout: Simulated seconds the server waits per phase
            before moving on without the missing clients.
        group: DH group (defaults to the fast 61-bit toy group).
        field: Shamir sharing field.
        trace: Optional event log for observability.
        tamper_unmask_request: Test/adversary seam applied to the
            server's round-3 announcement before broadcast.
        mask_prg: The :class:`~repro.secagg.kernels.MaskPrg` instance
            whose memo the server and every cohort member fill (default
            :data:`~repro.secagg.kernels.DEFAULT_MASK_PRG`).  There is
            one mask PRG; the instance only says which memo the round
            fills — the benchmark passes a fresh one per round to time
            cold expansion.
        client_versions: Protocol version each client proposes at Hello
            (defaults to :data:`~repro.secagg.wire.PROTOCOL_V1`); the
            seam for exercising version-negotiation rejections.
        metrics: Optional :class:`~repro.telemetry.MetricsRegistry` the
            round's driver and sessions report into — per-phase latency
            histograms (on both clocks), round outcome / dropout /
            timeout counters, and wire byte+message counters fed from
            the session's :class:`~repro.secagg.wire.WireStats`.
            ``None`` (default) keeps the round entirely
            instrumentation-free.
        fail_at_phase: Chaos seam — the server "crashes" (raises
            :class:`~repro.errors.ChaosKillError`) when it reaches this
            phase, before collecting or committing anything for it.
            ``None`` (default) never fails.
    """

    def __init__(
        self,
        vectors: Mapping[int, np.ndarray],
        modulus: int,
        threshold: int,
        clock: SimulatedClock,
        rng: np.random.Generator,
        plans: Mapping[int, ClientPlan] | None = None,
        phase_timeout: float = 60.0,
        group: KeyAgreementGroup | None = None,
        field: PrimeField = DEFAULT_FIELD,
        trace: SimulationTrace | None = None,
        tamper_unmask_request: Callable[[UnmaskRequest], UnmaskRequest]
        | None = None,
        mask_prg: MaskPrg | None = None,
        client_versions: Mapping[int, int] | None = None,
        metrics: MetricsRegistry | None = None,
        fail_at_phase: int | None = None,
    ) -> None:
        if not vectors:
            raise ConfigurationError("cohort must not be empty")
        if phase_timeout <= 0:
            raise ConfigurationError(
                f"phase_timeout must be > 0, got {phase_timeout}"
            )
        self._cohort = tuple(sorted(vectors))
        if not 2 <= threshold <= len(self._cohort):
            raise ConfigurationError(
                f"threshold must lie in [2, {len(self._cohort)}], "
                f"got {threshold}"
            )
        dimensions = {np.asarray(v).shape for v in vectors.values()}
        if len(dimensions) != 1 or len(next(iter(dimensions))) != 1:
            raise ConfigurationError(
                f"all vectors must share one 1-d shape, got {dimensions}"
            )
        self._vectors = {
            u: np.asarray(vectors[u], dtype=np.int64) for u in self._cohort
        }
        self._dimension = next(iter(dimensions))[0]
        self._modulus = modulus
        self._threshold = threshold
        self._clock = clock
        self._plans = dict(plans or {})
        self._phase_timeout = phase_timeout
        self._group = group if group is not None else TOY_GROUP
        self._field = field
        self._trace = trace
        self._tamper = tamper_unmask_request
        self._mask_prg = get_mask_prg(mask_prg)
        self._client_versions = dict(client_versions or {})
        if fail_at_phase is not None and not (
            ROUND_ADVERTISE <= fail_at_phase <= ROUND_UNMASK
        ):
            raise ConfigurationError(
                f"fail_at_phase must lie in [{ROUND_ADVERTISE}, "
                f"{ROUND_UNMASK}] or be None, got {fail_at_phase}"
            )
        self._fail_at_phase = fail_at_phase
        # Spawn per-client generators in sorted order, like run_bonawitz.
        # The upper endpoint is exclusive, so 2**63 makes the full
        # 63-bit seed range reachable.
        self._client_rngs = {
            u: np.random.default_rng(int(rng.integers(0, 2**63)))
            for u in self._cohort
        }
        self._metrics = metrics
        self._driver: RoundDriver | None = None

    @property
    def abort_phase(self) -> int | None:
        """On an :class:`~repro.errors.AggregationError`, the phase that
        failed (the driver's abort record; ``None`` otherwise)."""
        return None if self._driver is None else self._driver.abort_phase

    @property
    def survivors_at_abort(self) -> frozenset[int]:
        """On abort, the cohort members that had delivered the failing
        phase — the hierarchical round's re-homing candidates."""
        if self._driver is None:
            return frozenset()
        return self._driver.survivors_at_abort

    def _latency(self, client: int, phase: int) -> float | None:
        plan = self._plans.get(client, ClientPlan())
        return plan.latencies[phase] if plan.responds_at(phase) else None

    def _record(self, kind: str, **details) -> None:
        if self._trace is not None:
            self._trace.record(kind, **details)

    def _kill(self, driver: RoundDriver) -> ChaosKillError:
        """Abort at the phase about to open: the chaos server kill."""
        tag = driver.session.phase_tag
        driver.abort()
        self._record("chaos-server-kill", phase=tag)
        return ChaosKillError(
            f"chaos: server killed before the {tag} phase committed"
        )

    async def run(self) -> RoundOutcome:
        """Execute the round; returns the outcome or raises on failure.

        A coroutine only so that it runs under :meth:`SimulatedClock.run
        <repro.simulation.clock.SimulatedClock.run>`; it never suspends.
        The phases run in :func:`~repro.secagg.statemachine.drive_phases`.

        Raises:
            AggregationError: If any phase falls below the threshold, or
                a client refused a (tampered) unmask request.  A client's
                error is preferred as the root cause (the overlap-refusal
                rule): the first in index order is raised, chained from
                the server's threshold failure if there is one.
        """
        started_at = self._clock.now
        session = ServerSession(
            self._modulus,
            self._dimension,
            self._threshold,
            self._field,
            self._group,
            self._mask_prg,
            tamper_unmask_request=self._tamper,
            metrics=self._metrics,
        )
        # The hooks close over the clock and the trace, not over this
        # round: the round holds the driver, and a cycle would leave
        # every finished round's session to the garbage collector.
        clock, trace = self._clock, self._trace
        driver = self._driver = RoundDriver(
            session,
            self._cohort,
            metrics=self._metrics,
            now=lambda: clock.now,
            record=trace.record if trace is not None else None,
        )
        if self._fail_at_phase == ROUND_ADVERTISE:
            # Before the clients exist: it meters no client series.
            raise self._kill(driver)
        clients = {u: self._client_session(u) for u in self._cohort}
        phases = drive_phases(
            driver, clients, self._latency, clock, self._phase_timeout
        )
        pool = set(driver.waiting)
        for phase, deliveries in phases:
            if phase == ROUND_ADVERTISE:
                for client, reason in session.rejections.items():
                    self._record(
                        "client-rejected", client=client, reason=reason
                    )
            elif phase == ROUND_MASKED_INPUT and session.tampered:
                self._record("unmask-request-tampered")
            if phase == ROUND_UNMASK:
                # Recorded even if a client's refusal is raised next.
                self._record(
                    "round-complete",
                    included=len(session.included),
                    dropped=len(self._cohort) - len(session.included),
                    wire_messages=session.stats.total_messages,
                    wire_bytes=session.stats.total_bytes,
                )
                continue
            # Pool members the server addresses nothing to are done.
            for u in sorted(pool.difference(deliveries)):
                self._record("client-excluded", client=u)
            if self._fail_at_phase == phase + 1:
                # Thrown into the loop, which prefers a client's error.
                phases.throw(self._kill(driver))
            pool = set(driver.waiting)
        included = session.included
        return RoundOutcome(
            modular_sum=session.modular_sum,
            included=included,
            dropped=frozenset(self._cohort) - included,
            started_at=started_at,
            completed_at=clock.now,
            wire=session.stats,
        )

    def _client_session(self, index: int) -> ClientSession:
        return ClientSession(
            index=index,
            vector=self._vectors[index],
            modulus=self._modulus,
            threshold=self._threshold,
            rng=self._client_rngs[index],
            group=self._group,
            field=self._field,
            mask_prg=self._mask_prg,
            version=self._client_versions.get(index, PROTOCOL_V1),
            metrics=self._metrics,
        )
