"""Async dropout-tolerant SecAgg rounds: the mailbox caller of the driver.

:func:`repro.secagg.bonawitz.run_bonawitz` runs the sans-I/O protocol
sessions (:mod:`repro.secagg.statemachine`) synchronously: every phase
is a barrier, dropouts are a static schedule, and time does not exist.
This module is the second of the three callers of the one
:class:`~repro.secagg.statemachine.RoundDriver`: every client is an
asyncio task that sleeps its upload latency on the simulated clock
before posting its wire frames into the server's mailbox, and the server
offers each datagram to the driver until either everyone expected has
responded or the phase deadline passes — whichever comes first — and
then has it close the phase.

The protocol logic itself — message encoding, negotiation, phase
bookkeeping, thresholds, crypto — lives entirely in the shared core, and
what a refused datagram, a closed phase and an abort mean lives in the
driver; this file only moves bytes and decides when phases close.  The
consequences are exactly the ones the protocol was designed for:

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
  refused at Hello with a typed :class:`~repro.secagg.wire.Reject` — its
  task parks a :class:`~repro.errors.NegotiationError` and exits cleanly
  while the rest of the round proceeds.

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

import asyncio

import numpy as np

from repro.errors import AggregationError, ChaosKillError, ConfigurationError
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    UnmaskRequest,
    warm_pairwise_agreements,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.kernels import MaskPrg, get_mask_prg
from repro.secagg.keys import TOY_GROUP, KeyAgreementGroup
from repro.secagg.statemachine import (
    PHASE_TAGS,
    ClientSession,
    RoundDriver,
    ServerSession,
)
from repro.secagg.wire import PROTOCOL_V1, WireStats
from repro.simulation.clock import SimulatedClock
from repro.telemetry.registry import MetricsRegistry
from repro.simulation.events import Mailbox, SimulationTrace
from repro.simulation.population import ClientPlan

#: Server -> client sentinel: "you are no longer part of this round".
_EXCLUDED = object()


@dataclasses.dataclass(frozen=True)
class RoundOutcome:
    """Result of one asynchronous secure-aggregation round.

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
    """One event-driven Bonawitz round over a cohort with behaviour plans.

    Args:
        vectors: Private input per cohort member (1-based index ->
            length-``d`` integer vector over ``Z_m``).
        modulus: Aggregation modulus ``m``.
        threshold: Shamir reconstruction threshold ``t``.
        clock: The simulated clock all waiting happens on.
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
        mask_prg: Mask PRG suite shared by the server and every cohort
            member — ``"shake256"`` (default) or ``"sha256-ctr"``
            (compatibility), or a
            :class:`~repro.secagg.kernels.MaskPrg` instance.
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
        mask_prg: MaskPrg | str | None = None,
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
        self._inbox = Mailbox(clock)
        self._boxes = {u: Mailbox(clock) for u in self._cohort}
        # Live client sessions, registered as their tasks spawn so the
        # server can batch-warm the pairwise DH agreements.
        self._live_clients: dict[int, ClientSession] = {}
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

    def _plan(self, client: int) -> ClientPlan:
        return self._plans.get(client, ClientPlan())

    def _record(self, kind: str, **details) -> None:
        if self._trace is not None:
            self._trace.record(kind, **details)

    async def run(self) -> RoundOutcome:
        """Execute the round; returns the outcome or raises on failure.

        Raises:
            AggregationError: If any phase falls below the threshold, or
                a client refused a (tampered) unmask request.
        """
        started_at = self._clock.now
        tasks = {
            u: asyncio.ensure_future(self._client_task(u))
            for u in self._cohort
        }
        server_error: AggregationError | None = None
        try:
            outcome = await self._server_task(started_at)
        except AggregationError as error:
            server_error = error
        finally:
            for task in tasks.values():
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks.values(), return_exceptions=True)
        if server_error is not None:
            # Prefer a client-side protocol rejection as the root cause
            # (e.g. the overlap-refusal rule): the server's threshold
            # failure is its downstream symptom.  Checked *after* the
            # teardown gather so a refusal that completes only once the
            # cancellation sweep lets the task run (it was already past
            # its last await) is still surfaced.
            for u in self._cohort:
                task = tasks[u]
                if task.done() and not task.cancelled() and task.exception():
                    raise task.exception() from server_error
            raise server_error
        # Surface client failures even when the server recovered a sum.
        for u in self._cohort:
            task = tasks[u]
            if task.done() and not task.cancelled() and task.exception():
                raise task.exception()
        return outcome

    async def _server_task(self, started_at: float) -> RoundOutcome:
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
        for phase in (
            ROUND_ADVERTISE,
            ROUND_SHARE_KEYS,
            ROUND_MASKED_INPUT,
            ROUND_UNMASK,
        ):
            if self._fail_at_phase == phase:
                tag = PHASE_TAGS[phase]
                driver.abort()
                self._record("chaos-server-kill", phase=tag)
                raise ChaosKillError(
                    f"chaos: server killed before the {tag} phase committed"
                )
            pool = set(driver.waiting)
            # The phase is over at the earlier of "nobody left to wait
            # on" and the simulated deadline; stragglers' late messages
            # reach a later phase's offer() and are ignored there.
            deadline = self._clock.now + self._phase_timeout
            while driver.waiting:
                item = await self._inbox.get_before(deadline)
                if item is None:
                    driver.timeout()
                    break
                driver.offer(*item)
            deliveries = driver.close()
            if phase == ROUND_ADVERTISE:
                # Pre-derive the accepted roster's pairwise DH keys
                # in one vectorised sweep (pure memoisation warm-up;
                # the rejected clients' keys would never be used).
                warm_pairwise_agreements(
                    [
                        self._live_clients[u].crypto
                        for u in sorted(session.expected)
                        if u in self._live_clients
                    ]
                )
                for client, reason in session.rejections.items():
                    self._record(
                        "client-rejected", client=client, reason=reason
                    )
            if session.tampered and phase == ROUND_MASKED_INPUT:
                self._record("unmask-request-tampered")
            if phase != ROUND_UNMASK:
                self._broadcast(deliveries, among=pool)
        modular_sum = session.modular_sum
        completed_at = self._clock.now
        included = session.included
        self._record(
            "round-complete",
            included=len(included),
            dropped=len(self._cohort) - len(included),
            wire_messages=session.stats.total_messages,
            wire_bytes=session.stats.total_bytes,
        )
        return RoundOutcome(
            modular_sum=modular_sum,
            included=included,
            dropped=frozenset(self._cohort) - included,
            started_at=started_at,
            completed_at=completed_at,
            wire=session.stats,
        )

    def _broadcast(
        self, deliveries: dict[int, bytes], among: set[int]
    ) -> None:
        """Send each recipient its datagram; pool members with nothing
        addressed to them get the shutdown sentinel so their tasks
        terminate instead of hanging."""
        for u in sorted(among | set(deliveries)):
            if u in deliveries:
                self._boxes[u].put(deliveries[u])
            else:
                self._boxes[u].put(_EXCLUDED)
                self._record("client-excluded", client=u)

    async def _client_task(self, index: int) -> None:
        plan = self._plan(index)
        session = ClientSession(
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
        self._live_clients[index] = session
        # Phase 0 — propose the header and advertise both public keys.
        if not plan.responds_at(ROUND_ADVERTISE):
            self._record("client-dropped", client=index, phase=ROUND_ADVERTISE)
            return
        await self._clock.sleep(plan.latencies[ROUND_ADVERTISE])
        self._inbox.put((index, b"".join(session.start())))
        # Phases 1-3 — receive the server's datagram, respond in kind.
        for phase in (ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK):
            data = await self._boxes[index].get()
            if data is _EXCLUDED:
                return
            if not plan.responds_at(phase):
                self._record("client-dropped", client=index, phase=phase)
                return
            responses = session.handle(data)
            if session.rejected is not None:
                # Typed negotiation failure: the task ends cleanly; the
                # error stays inspectable on the session.
                self._record(
                    "client-rejected-ack",
                    client=index,
                    reason=str(session.rejected),
                )
                return
            await self._clock.sleep(plan.latencies[phase])
            self._inbox.put((index, b"".join(responses)))
