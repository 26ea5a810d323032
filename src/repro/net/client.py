"""One swarm participant: a :class:`ClientSession` on a real socket.

:func:`run_client` drives the sans-I/O client session over TCP against
a :class:`~repro.net.server.SecAggServer`: connect, send the handshake
datagram (Hello + Advertise — the server binds the connection to the
Hello's sender index), read the :class:`~repro.secagg.wire.Welcome`
frame that pins the durable round id, then alternate ``read delivery ->
handle -> send response`` through the three remaining phases.  The
function never raises on protocol-level outcomes; everything a swarm
wants to count comes back as a :class:`ClientReport`.

Fault injection is part of the contract, not an afterthought:

* ``delay`` sleeps before every send (straggler injection — push a
  client past the server's phase deadline and it is evicted, not
  waited on);
* ``drop_at_phase`` silently stops participating before that phase's
  upload — phase 0 means "never connects", matching ``run_bonawitz``'s
  ``dropouts={index: 0}`` semantics exactly, so a swarm schedule can be
  replayed against the in-memory transport for bit-identical aggregates;
* ``disconnect_at_phase`` abruptly drops the TCP connection at that
  phase (before its delivery, or after its upload with
  ``disconnect_after_upload``) and then *resumes*: reconnect under the
  retry policy, present a :class:`~repro.secagg.wire.Resume` handshake
  with the round id and the count of deliveries already processed, and
  continue from the server's replay — a transient fault, not a dropout;
* ``version`` proposes a protocol version at Hello — an unsupported one
  exercises the typed-Reject path over a real socket.

Resilience knobs: ``connect_timeout`` bounds every dial (no more
hanging forever against a dead address), and a
:class:`~repro.resilience.retry.RetryPolicy` governs reconnect attempts
with capped exponential backoff + deterministic jitter (the jitter RNG
is derived from the plan seed, so swarm runs stay reproducible).  With
``retry=None`` (the default) the client behaves exactly as before: one
dial, no resume — any transport failure is terminal.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import random

import numpy as np

from repro.errors import AggregationError
from repro.net.frames import read_datagram, write_datagram
from repro.resilience.retry import RetryPolicy
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.keys import TOY_GROUP, KeyAgreementGroup
from repro.secagg.statemachine import PHASE_TAGS, ClientSession
from repro.secagg.wire import (
    PROTOCOL_V1,
    Reject,
    Resume,
    Welcome,
    decode_frames,
    encode_message,
)
from repro.telemetry import MetricsRegistry

_TRANSPORT_ERRORS = (
    asyncio.IncompleteReadError,
    ConnectionError,
    OSError,
)


@dataclasses.dataclass(frozen=True)
class ClientPlan:
    """What one swarm client does this round.

    Attributes:
        index: Protocol index (nonzero; the id the handshake binds).
        seed: Seed of the client's local RNG — the swarm derives these
            exactly like :func:`~repro.secagg.bonawitz.run_bonawitz`
            derives per-client generators, which is what makes the
            network aggregate bit-identical to the in-memory one.
        delay: Seconds to sleep before each post-handshake upload
            (0 = none); the handshake itself is never delayed.
        drop_at_phase: Protocol phase (0-3) before whose upload the
            client silently stops, or ``None`` to run to completion.
            Phase 0 means the client never connects.
        version: Protocol version proposed at Hello.
        disconnect_at_phase: Protocol phase (1-3) at which the client
            abruptly drops its connection and then resumes via the
            Resume handshake, or ``None``.  Requires a retry policy and
            a server-side grace window; unlike ``drop_at_phase`` the
            client remains a full participant of the round.
        disconnect_after_upload: When True the injected disconnect
            happens *after* that phase's upload was sent (exercising
            server-side idempotent redelivery on resume) instead of
            before its delivery was read.
    """

    index: int
    seed: int
    delay: float = 0.0
    drop_at_phase: int | None = None
    version: int = PROTOCOL_V1
    disconnect_at_phase: int | None = None
    disconnect_after_upload: bool = False


@dataclasses.dataclass(frozen=True)
class ClientReport:
    """How one client's round went.

    ``status`` is one of ``completed`` (all four uploads sent),
    ``rejected`` (typed Reject at Hello), ``dropped`` (planned dropout),
    ``disconnected`` (the transport failed or the server closed early,
    and retries — if any — were exhausted), ``resume-rejected`` (the
    server refused a Resume handshake: stale round id, expired grace, or
    prior eviction), or ``error`` (a protocol violation surfaced
    client-side).

    ``retries`` counts reconnect attempts (including failed ones);
    ``resumes`` counts Resume handshakes the server accepted.
    """

    index: int
    status: str
    detail: str = ""
    uploads_sent: int = 0
    retries: int = 0
    resumes: int = 0


class _GiveUp(Exception):
    """Terminal transport failure: report ``disconnected`` with detail."""


class _ResumeRejected(Exception):
    """The server refused the Resume handshake; the reason is terminal."""


class _Runner:
    """Mutable per-round client state threaded through the retry paths."""

    def __init__(
        self,
        host: str,
        port: int,
        plan: ClientPlan,
        session: ClientSession,
        timeout: float,
        connect_timeout: float,
        retry: RetryPolicy | None,
        metrics: MetricsRegistry | None,
    ) -> None:
        self.host = host
        self.port = port
        self.plan = plan
        self.session = session
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry
        # Jitter only — protocol randomness lives in the session's RNG.
        self.rng = random.Random((plan.seed << 8) ^ plan.index)
        self.metrics = metrics
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        # session.start() draws the round's keys; it must run exactly
        # once, so the handshake bytes are cached for re-dials.
        self.handshake = b"".join(session.start())
        self.last_upload: bytes = self.handshake
        self.round_id: int | None = None
        self.deliveries_seen = 0
        self.retries = 0
        self.resumes = 0
        self.uploads = 0

    # -- transport ------------------------------------------------------

    def _count_retry(self, reason: str) -> None:
        self.retries += 1
        if self.metrics is not None:
            self.metrics.counter(
                "net_retries_total", "Client reconnect attempts by reason."
            ).labels(reason=reason).inc()

    async def _dial(self) -> None:
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            self.connect_timeout,
        )

    async def connect(self) -> None:
        """Dial with capped exponential backoff under the retry policy."""
        attempt = 0
        while True:
            try:
                await self._dial()
                return
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS) as error:
                timed_out = isinstance(error, asyncio.TimeoutError)
                if self.retry is None or attempt >= self.retry.max_retries:
                    raise _GiveUp(
                        f"connect timed out after {self.connect_timeout}s"
                        if timed_out
                        else (str(error) or type(error).__name__)
                    ) from error
                self._count_retry(
                    "connect-timeout" if timed_out else "connect"
                )
                await asyncio.sleep(self.retry.delay(attempt, self.rng))
                attempt += 1

    def drop_connection(self) -> None:
        """Abruptly sever the transport, as the network would."""
        if self.writer is not None:
            with contextlib.suppress(Exception):
                self.writer.transport.abort()
        self.reader = self.writer = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(*_TRANSPORT_ERRORS):
                await self.writer.wait_closed()
            self.reader = self.writer = None

    # -- round admission ------------------------------------------------

    async def admit(self) -> Reject | None:
        """Send the handshake and read the Welcome that opens the round.

        Returns the typed Reject when the server refuses the Hello, or
        ``None`` on success (``round_id`` is then pinned).  A connection
        that dies before admission is redialed under the retry policy —
        re-sending the *identical* handshake bytes, which the server
        treats as a resume-from-scratch if the round already started.
        """
        attempt = 0
        while True:
            payload: bytes | None = None
            try:
                assert self.writer is not None and self.reader is not None
                await write_datagram(self.writer, self.handshake)
                payload = await asyncio.wait_for(
                    read_datagram(self.reader), self.timeout
                )
            except _TRANSPORT_ERRORS:
                payload = None
            if payload is not None:
                frames = decode_frames(payload)
                message = frames[0][1] if frames else None
                if isinstance(message, Welcome):
                    self.round_id = message.round_id
                    return None
                if isinstance(message, Reject):
                    return message
                raise AggregationError(
                    f"client {self.plan.index} expected Welcome or Reject "
                    f"after the handshake, got "
                    f"{type(message).__name__ if message else 'nothing'}"
                )
            if self.retry is None or attempt >= self.retry.max_retries:
                raise _GiveUp("server closed before the round opened")
            self._count_retry("admission")
            await asyncio.sleep(self.retry.delay(attempt, self.rng))
            self.drop_connection()
            await self.connect()
            attempt += 1

    # -- resume ---------------------------------------------------------

    async def resume(self, reason: str) -> None:
        """Reconnect and re-enter the in-flight round mid-phase.

        Presents ``Resume(index, round_id, deliveries_seen)``; on the
        Welcome ack, re-sends the last upload (the server ignores the
        idempotent duplicate — this covers the case where the original
        send raced the disconnect) and returns with the transport live.
        Replayed deliveries arrive as ordinary datagrams and are read by
        the phase loop.
        """
        if self.retry is None or self.round_id is None:
            raise _GiveUp(reason)
        self.drop_connection()
        attempt = 0
        while True:
            if attempt > self.retry.max_retries:
                raise _GiveUp(
                    f"resume attempts exhausted after {reason}"
                )
            if attempt > 0:
                await asyncio.sleep(
                    self.retry.delay(attempt - 1, self.rng)
                )
            self._count_retry(reason)
            attempt += 1
            try:
                await self._dial()
                assert self.writer is not None and self.reader is not None
                await write_datagram(
                    self.writer,
                    encode_message(
                        Resume(
                            sender=self.plan.index,
                            round_id=self.round_id,
                            deliveries=min(self.deliveries_seen, 255),
                        ),
                        self.session.header,
                    ),
                )
                ack = await asyncio.wait_for(
                    read_datagram(self.reader), self.timeout
                )
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                self.drop_connection()
                continue
            if ack is None:
                self.drop_connection()
                continue
            frames = decode_frames(ack)
            message = frames[0][1] if frames else None
            if isinstance(message, Welcome):
                self.resumes += 1
                with contextlib.suppress(*_TRANSPORT_ERRORS):
                    await write_datagram(self.writer, self.last_upload)
                return
            if isinstance(message, Reject):
                raise _ResumeRejected(message.reason)
            self.drop_connection()

    # -- phase I/O ------------------------------------------------------

    async def read_delivery(self, tag: str) -> bytes:
        """Read one phase delivery, resuming through transport faults.

        A read *timeout* is terminal (the connection is alive; the phase
        simply has not closed — reconnecting cannot help), but EOF and
        connection errors trigger a resume when one is possible.
        """
        while True:
            assert self.reader is not None
            try:
                delivery = await asyncio.wait_for(
                    read_datagram(self.reader), self.timeout
                )
            except asyncio.TimeoutError:
                raise _GiveUp(
                    f"timed out waiting for the {tag} delivery"
                ) from None
            except _TRANSPORT_ERRORS as error:
                await self.resume(
                    str(error) or type(error).__name__
                )
                continue
            if delivery is None:
                await self.resume(f"server closed before the {tag} delivery")
                continue
            return delivery

    async def send_upload(self, upload: bytes, tag: str) -> None:
        try:
            assert self.writer is not None
            await write_datagram(self.writer, upload)
        except _TRANSPORT_ERRORS as error:
            await self.resume(str(error) or type(error).__name__)
            # resume() already re-sent ``last_upload``; if this upload
            # is newer, send it on the fresh transport.
            if upload != self.last_upload:
                assert self.writer is not None
                await write_datagram(self.writer, upload)

    async def transient_disconnect(self, tag: str) -> None:
        await self.resume(f"injected disconnect at {tag}")


async def run_client(
    host: str,
    port: int,
    plan: ClientPlan,
    vector: np.ndarray,
    modulus: int,
    threshold: int,
    group: KeyAgreementGroup = TOY_GROUP,
    field: PrimeField = DEFAULT_FIELD,
    timeout: float = 60.0,
    connect_timeout: float = 10.0,
    retry: RetryPolicy | None = None,
    metrics: MetricsRegistry | None = None,
) -> ClientReport:
    """Run one client's whole round against a listening server.

    Args:
        host/port: The server's TCP address.
        plan: Identity, seed and fault-injection schedule.
        vector: The client's private input over ``Z_modulus``.
        modulus/threshold/group/field: Protocol parameters —
            must match the server's.
        timeout: Wall seconds to wait for any single server delivery.
        connect_timeout: Wall seconds to wait for any single dial.
        retry: Reconnect policy; ``None`` disables retries and resume
            (every transport failure is then terminal).
        metrics: Optional registry for ``net_retries_total{reason=}``.

    Returns:
        The client's :class:`ClientReport`; never raises for
        protocol-level outcomes.
    """
    if plan.drop_at_phase == ROUND_ADVERTISE:
        return ClientReport(
            index=plan.index,
            status="dropped",
            detail="round-0 dropout: never connected",
        )
    session = ClientSession(
        index=plan.index,
        vector=np.asarray(vector),
        modulus=modulus,
        threshold=threshold,
        rng=np.random.default_rng(plan.seed),
        group=group,
        field=field,
        version=plan.version,
    )
    runner = _Runner(
        host=host,
        port=port,
        plan=plan,
        session=session,
        timeout=timeout,
        connect_timeout=connect_timeout,
        retry=retry,
        metrics=metrics,
    )

    def report(status: str, detail: str = "") -> ClientReport:
        return ClientReport(
            index=plan.index,
            status=status,
            detail=detail,
            uploads_sent=runner.uploads,
            retries=runner.retries,
            resumes=runner.resumes,
        )

    try:
        await runner.connect()
    except _GiveUp as giveup:
        return report("disconnected", str(giveup))
    try:
        # The handshake is never delayed: straggler injection targets
        # the round's phases, and a late *join* would just hold the
        # cohort open rather than exercise a phase deadline.
        rejected = await runner.admit()
        runner.uploads += 1
        if rejected is not None:
            return report("rejected", rejected.reason)
        for phase in (ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK):
            tag = PHASE_TAGS[phase]
            if (
                plan.disconnect_at_phase == phase
                and not plan.disconnect_after_upload
            ):
                await runner.transient_disconnect(tag)
            delivery = await runner.read_delivery(tag)
            responses = session.handle(delivery)
            runner.deliveries_seen += 1
            if session.rejected is not None:
                return report("rejected", str(session.rejected))
            if plan.drop_at_phase == phase:
                # A mid-round dropout receives the phase's delivery and
                # then silently disconnects instead of uploading — the
                # client is *in the roster* and fails at this phase,
                # exactly ``run_bonawitz``'s ``dropouts={index: phase}``.
                # Vanishing before the delivery would instead remove the
                # join from the forming cohort and stall the server at
                # the join deadline.
                return report(
                    "dropped",
                    f"planned dropout before the {tag} upload",
                )
            if plan.delay:
                await asyncio.sleep(plan.delay)
            if responses:
                upload = b"".join(responses)
                await runner.send_upload(upload, tag)
                runner.last_upload = upload
                runner.uploads += 1
            if (
                plan.disconnect_at_phase == phase
                and plan.disconnect_after_upload
                and phase != ROUND_UNMASK
            ):
                # After the *final* upload there is nothing left to be
                # redelivered, and the round may commit before a Resume
                # lands — the injection would race round completion
                # rather than exercise replay, so it is skipped there.
                await runner.transient_disconnect(tag)
        return report("completed")
    except _GiveUp as giveup:
        return report("disconnected", str(giveup))
    except _ResumeRejected as refusal:
        return report("resume-rejected", str(refusal))
    except AggregationError as error:
        return report("error", str(error))
    except (asyncio.TimeoutError, *_TRANSPORT_ERRORS) as error:
        return report("disconnected", str(error) or type(error).__name__)
    finally:
        await runner.close()
