"""The real-socket SecAgg aggregation server.

This is the third transport over the sans-I/O protocol core — after the
synchronous in-memory loop (:func:`repro.secagg.bonawitz.run_bonawitz`)
and the simulated-clock mailbox
(:class:`repro.simulation.rounds.AsyncSecAggRound`) — and the first one
whose clients are *real peers on real sockets*: an asyncio TCP listener
drives one :class:`~repro.secagg.statemachine.ServerSession` per round,
with wall-clock phase deadlines doing the job the simulated clock's
``phase_timeout`` does in the simulator.

Transport rules (everything the protocol core deliberately does not
decide):

* **Identity is connection-bound.**  A connection's first datagram must
  open with :class:`~repro.secagg.wire.Hello`; the Hello's sender index
  becomes the connection's bound client id (first come, first bound —
  a duplicate id is refused with a typed
  :class:`~repro.secagg.wire.Reject`).  Every subsequent datagram is
  ingested as ``session.receive(data, sender=<bound id>)``, so a frame
  claiming a different origin raises inside the core and the connection
  is evicted — one socket can never impersonate another.
* **Phases close on the wall clock.**  A phase ends at the earlier of
  "every expected client delivered" and ``phase_timeout`` seconds;
  stragglers are treated as dropouts, exactly like the simulator.
* **Disconnects are evictions, not hangs** — unless a **grace window**
  is configured.  With ``resume_grace == 0`` a peer that vanishes
  mid-phase (or whose socket is already gone at phase start) is removed
  from the waiting set immediately; Bonawitz dropout tolerance does the
  rest.  With ``resume_grace > 0`` the dropped peer is *parked*: it
  keeps its place in the round until it reconnects with a
  :class:`~repro.secagg.wire.Resume` (undelivered datagrams are then
  replayed from the session's buffer), its grace expires, or the phase
  deadline passes.  A resumed peer may re-send what it already sent
  (byte-identical redelivery is idempotent) but never *different*
  bytes for the same phase — that is answered with a typed Reject and
  eviction (the at-most-once guard).
* **Late traffic is ignored and counted**, mirroring the mailbox
  transport's ``message-ignored`` semantics.
* **Rounds are durable when a journal is configured.**  The server
  journals the cohort at round start and every phase's ingested
  uploads at phase commit; a killed-and-restarted server replays the
  committed uploads through a fresh session (the crypto server draws
  no randomness, so the reconstruction is byte-identical) and resumes
  the round under the grace window — or cleanly aborts it.  Epsilon
  charges are idempotent by round id, so a crash can never
  double-charge the ledger.

Telemetry lands in the *same* metric families the simulator reports
(``secagg_phase_wall_duration_seconds``, ``secagg_rounds_total``,
``secagg_wire_bytes_total``, ...), plus a handful of ``net_*`` families
only a real listener has (connections, evictions, round wall time); the
registry is served live over HTTP ``GET /metrics``
(:mod:`repro.net.http`), so simulated and real runs share one metrics
catalog and one scrape format.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib

import numpy as np

from repro.errors import AggregationError, ConfigurationError, ConflictError
from repro.net.frames import MAX_DATAGRAM_BYTES, read_datagram, write_datagram
from repro.net.http import start_metrics_endpoint
from repro.resilience.journal import (
    DurableLedger,
    InterruptedRound,
    RoundJournal,
    recover_journal,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.keys import TOY_GROUP, KeyAgreementGroup
from repro.secagg.statemachine import (
    PHASE_TAGS,
    ServerSession,
    count_phase_wire,
)
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
)
from repro.secagg.wire import (
    Hello,
    Reject,
    Resume,
    Welcome,
    WireStats,
    decode_frames,
    encode_message,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import time_phase


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Configuration of one :class:`SecAggServer`.

    Attributes:
        host: Interface to bind (default loopback).
        port: TCP port (0 = ephemeral; read it back from
            :attr:`SecAggServer.port` after start).
        metrics_port: Port for the HTTP ``/metrics`` endpoint (0 =
            ephemeral, ``None`` = no endpoint).
        modulus: Aggregation modulus ``m``.
        dimension: Vector length ``d`` every client must upload.
        threshold: Shamir reconstruction threshold ``t``.
        cohort_size: Connections to admit into each round; the round
            starts once this many clients have completed the handshake
            (or ``join_timeout`` expires after the first join).
        rounds: Rounds to serve before :meth:`SecAggServer.serve_rounds`
            returns.
        phase_timeout: Wall seconds the server waits per phase before
            evicting the stragglers and moving on.
        join_timeout: Wall seconds after the first handshake to wait
            for the rest of the cohort.
        mask_prg: Mask PRG backend name for the round's negotiated
            header.
        group: DH group — defaults to the fast 61-bit toy group, the
            same default the in-memory drivers use.
        max_datagram_bytes: Upload size bound enforced by the framing
            layer, per datagram.
        resume_grace: Wall seconds a dropped connection is *parked*
            (kept in the round, resumable) before eviction.  ``0``
            keeps the historical behavior: disconnect == instant
            eviction.
        journal_path: Path of the append-only round journal.  ``None``
            disables durability; with a path, rounds checkpoint at
            every phase commit and a restarted server recovers (or
            cleanly aborts) the interrupted round.
        round_epsilon: Epsilon charged to the durable ledger per
            *completed* round (idempotent by round id; aborted rounds
            charge nothing).
    """

    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = 0
    modulus: int = 2**16
    dimension: int = 32
    threshold: int = 2
    cohort_size: int = 4
    rounds: int = 1
    phase_timeout: float = 30.0
    join_timeout: float = 30.0
    mask_prg: str | None = None
    group: KeyAgreementGroup = TOY_GROUP
    field: PrimeField = DEFAULT_FIELD
    max_datagram_bytes: int = MAX_DATAGRAM_BYTES
    resume_grace: float = 0.0
    journal_path: str | None = None
    round_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.cohort_size < 2:
            raise ConfigurationError(
                f"cohort_size must be >= 2, got {self.cohort_size}"
            )
        if not 2 <= self.threshold <= self.cohort_size:
            raise ConfigurationError(
                f"threshold must lie in [2, {self.cohort_size}], "
                f"got {self.threshold}"
            )
        if self.phase_timeout <= 0 or self.join_timeout <= 0:
            raise ConfigurationError("timeouts must be > 0")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.resume_grace < 0:
            raise ConfigurationError("resume_grace must be >= 0")
        if self.round_epsilon < 0:
            raise ConfigurationError("round_epsilon must be >= 0")


@dataclasses.dataclass(frozen=True)
class NetRoundResult:
    """Outcome of one served round.

    Attributes:
        index: Round number (0-based).
        modular_sum: The recovered aggregate, or ``None`` if aborted.
        included: ``U2`` — clients whose input made the aggregate.
        dropped: Round participants that dropped, straggled, or were
            evicted before their input made it in.
        evicted: Subset of ``dropped`` the *transport* removed
            (disconnects, spoofed frames, protocol violations).
        rejected: Clients refused at Hello, with the refusal reason.
        aborted: Abort reason, or ``None`` on success.
        wall_duration: Wall seconds from round start to completion.
        wire: The round's byte/message ledger.
        round_id: The durable round identity (journal/ledger key) —
            distinct from ``index`` after a recovery, since the
            recovered round keeps its pre-crash id.
        recovered: True when this round was reconstructed from the
            journal after a restart.
    """

    index: int
    modular_sum: np.ndarray | None
    included: frozenset[int]
    dropped: frozenset[int]
    evicted: frozenset[int]
    rejected: dict[int, str]
    aborted: str | None
    wall_duration: float
    wire: WireStats | None
    round_id: int = 0
    recovered: bool = False

    @property
    def digest(self) -> str | None:
        """SHA-256 hex digest of the aggregate (``None`` if aborted) —
        directly comparable with the in-memory transports' digests."""
        if self.modular_sum is None:
            return None
        return hashlib.sha256(self.modular_sum.tobytes()).hexdigest()


class _Connection:
    """One accepted, handshake-bound client connection."""

    __slots__ = ("client", "writer")

    def __init__(self, client: int, writer: asyncio.StreamWriter) -> None:
        self.client = client
        self.writer = writer

    def close(self) -> None:
        with contextlib.suppress(ConnectionError, OSError, RuntimeError):
            self.writer.close()


class SecAggServer:
    """Serve SecAgg rounds to real TCP clients.

    Usage (one event loop; the swarm may share it or live in another
    process entirely)::

        server = SecAggServer(ServerConfig(cohort_size=16, threshold=10))
        await server.start()
        results = await server.serve_rounds()
        await server.stop()

    Args:
        config: The server configuration.
        metrics: Registry to report into (and to serve on ``/metrics``);
            a private one is created by default.
    """

    def __init__(
        self,
        config: ServerConfig,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.results: list[NetRoundResult] = []
        # Header for pre-round Reject notices (duplicate ids); rounds
        # negotiate their own header via their ServerSession.
        self._reject_header = ServerSession(
            config.modulus, config.dimension, config.threshold,
            config.field, config.group, config.mask_prg,
        ).header
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._inbox: asyncio.Queue = asyncio.Queue()
        self._connections: dict[int, _Connection] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._pending_joins: dict[int, bytes] = {}
        self._stop_requested = False
        #: Dropped-but-resumable clients -> grace deadline (loop time).
        self._parked: dict[int, float] = {}
        #: The in-flight round's shared state (id, roster, session, ...)
        #: consulted by resume handling; ``None`` between rounds.
        self._round_state: dict | None = None
        self._journal: RoundJournal | None = None
        self.ledger = DurableLedger()
        self._next_round_id = 0
        self._interrupted: InterruptedRound | None = None
        if config.journal_path is not None:
            recovery = recover_journal(config.journal_path)
            self._journal = RoundJournal(config.journal_path)
            self.ledger = DurableLedger(self._journal, recovery.charged)
            self._next_round_id = recovery.next_round_id
            self._interrupted = recovery.interrupted
        # Same family names (and help) the simulator's rounds report
        # into, so /metrics holds one catalog for both worlds.
        self._m_wall_phase = self.metrics.histogram(
            "secagg_phase_wall_duration_seconds",
            "Wall-clock compute seconds per protocol phase.",
        )
        self._m_rounds = self.metrics.counter(
            "secagg_rounds_total",
            "Secure-aggregation rounds finished, by outcome.",
        )
        self._m_timeouts = self.metrics.counter(
            "secagg_phase_timeouts_total",
            "Phases the server closed at the deadline, by phase.",
        )
        self._m_dropped = self.metrics.counter(
            "secagg_clients_dropped_total",
            "Cohort members that dropped or straggled out, by phase.",
        )
        self._m_ignored = self.metrics.counter(
            "secagg_messages_ignored_total",
            "Datagrams ignored: stragglers, duplicates, unknown senders.",
        )
        self._m_wire_messages = self.metrics.counter(
            "secagg_wire_messages_total",
            "Protocol messages on the wire, by phase and direction.",
        )
        self._m_wire_bytes = self.metrics.counter(
            "secagg_wire_bytes_total",
            "Serialized bytes on the wire, by phase and direction.",
        )
        # Families only a real listener has.
        self._m_connections = self.metrics.counter(
            "net_connections_total",
            "TCP connections by handshake outcome.",
        )
        self._m_evictions = self.metrics.counter(
            "net_evictions_total",
            "Clients evicted from a round by the transport, by reason.",
        )
        self._m_round_wall = self.metrics.histogram(
            "net_round_wall_seconds",
            "Wall seconds per served round, handshake to aggregate.",
        )
        self._m_resume = self.metrics.counter(
            "net_resume_total",
            "Resume handshakes by outcome.",
        )
        self._m_recovery = self.metrics.counter(
            "round_recovery_total",
            "Journal recoveries of interrupted rounds, by outcome.",
        )

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP listener (and the ``/metrics`` endpoint)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        if self.config.metrics_port is not None:
            self._metrics_server = await start_metrics_endpoint(
                self.metrics, host=self.config.host,
                port=self.config.metrics_port,
            )

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ConfigurationError("the server has not been started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        """The bound ``/metrics`` port, or ``None`` when disabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and drop every open connection."""
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None
        for connection in list(self._connections.values()):
            connection.close()
        self._connections.clear()
        # Drain the per-connection reader tasks: the closes above feed
        # them EOF, so they exit on their own.  Waiting (rather than
        # cancelling) matters on Python 3.11, where cancelling a
        # streams-server handler task makes the protocol's completion
        # callback itself raise and spam the loop's exception handler.
        tasks = [
            task for task in self._handler_tasks
            if task is not asyncio.current_task()
        ]
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=2.0)
            for task in pending:  # pragma: no cover - stuck handler
                task.cancel()
            if pending:  # pragma: no cover
                await asyncio.wait(pending, timeout=1.0)
        if self._journal is not None:
            self._journal.close()

    async def crash(self) -> None:
        """Abandon everything immediately — the in-process ``kill -9``.

        Closes the listeners and every connection with no round
        wind-down and no journal ``round-end`` record, leaving exactly
        the on-disk state a killed process would: committed phases
        only.  A new :class:`SecAggServer` over the same journal path
        recovers from it.  The task driving :meth:`serve_rounds` must
        be cancelled by the caller — a real ``kill -9`` takes it down
        too.
        """
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None
        for connection in list(self._connections.values()):
            connection.close()
        self._connections.clear()
        if self._journal is not None:
            self._journal.close()

    def request_stop(self) -> None:
        """Ask the server to stop after draining the in-flight round.

        Safe to call from a signal handler on the loop thread: sets the
        stop flag and wakes the round driver, which finishes the
        current round (phases stay deadline-bounded) and then returns
        from :meth:`serve_rounds` instead of gathering the next cohort.
        """
        if not self._stop_requested:
            self._stop_requested = True
            self._inbox.put_nowait(("stop", 0, b""))

    async def __aenter__(self) -> "SecAggServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        limit = self.config.max_datagram_bytes
        try:
            handshake = await asyncio.wait_for(
                read_datagram(reader, limit), self.config.join_timeout
            )
        except (AggregationError, asyncio.TimeoutError, ConnectionError):
            self._m_connections.labels(outcome="malformed-handshake").inc()
            writer.close()
            return
        if handshake is None:
            self._m_connections.labels(outcome="malformed-handshake").inc()
            writer.close()
            return
        client = self._bound_client(handshake)
        kind = "join"
        if client is None:
            resume = self._bound_resume(handshake)
            if resume is not None:
                client, kind = resume.sender, "resume"
        if client is None:
            self._m_connections.labels(outcome="malformed-handshake").inc()
            writer.close()
            return
        if client in self._connections:
            self._m_connections.labels(outcome="duplicate-id").inc()
            await self._refuse(
                writer, client,
                f"client id {client} is already bound to another connection",
            )
            return
        connection = _Connection(client, writer)
        self._connections[client] = connection
        self._m_connections.labels(outcome="accepted").inc()
        await self._inbox.put((kind, client, handshake))
        try:
            while True:
                payload = await read_datagram(reader, limit)
                if payload is None:
                    break
                await self._inbox.put(("data", client, payload))
        except (AggregationError, ConnectionError, OSError):
            pass  # Mid-datagram disconnect or frame abuse: same eviction.
        finally:
            if self._connections.get(client) is connection:
                del self._connections[client]
            await self._inbox.put(("gone", client, b""))
            connection.close()

    @staticmethod
    def _bound_client(handshake: bytes) -> int | None:
        """The client id a handshake datagram binds, or ``None``.

        The first frame must be a :class:`~repro.secagg.wire.Hello` with
        a positive sender index; the full datagram (Hello + Advertise)
        is later fed to the session verbatim.
        """
        try:
            frames = decode_frames(handshake)
        except AggregationError:
            return None
        if not frames or not isinstance(frames[0][1], Hello):
            return None
        sender = frames[0][1].sender
        return sender if sender > 0 else None

    @staticmethod
    def _bound_resume(handshake: bytes) -> Resume | None:
        """The :class:`~repro.secagg.wire.Resume` a handshake carries.

        A resume handshake is exactly one Resume frame with a positive
        sender; anything else is not a resume (and, if it is not a
        Hello either, the connection is refused as malformed).
        """
        try:
            frames = decode_frames(handshake)
        except AggregationError:
            return None
        if len(frames) != 1 or not isinstance(frames[0][1], Resume):
            return None
        message = frames[0][1]
        return message if message.sender > 0 else None

    async def _refuse(
        self, writer: asyncio.StreamWriter, client: int, reason: str
    ) -> None:
        """Answer a doomed handshake with a typed Reject, then close."""
        with contextlib.suppress(ConnectionError, OSError):
            await write_datagram(
                writer,
                encode_message(
                    Reject(client=client, reason=reason),
                    self._reject_header,
                ),
            )
        writer.close()

    # -- round driving ----------------------------------------------------

    async def serve_rounds(self) -> list[NetRoundResult]:
        """Serve ``config.rounds`` rounds; returns their results.

        A journal-recovered round (left in flight by a crash) is driven
        first and counts toward the round budget.  A
        :meth:`request_stop` finishes the in-flight round, then returns
        early.
        """
        index = len(self.results)
        if self._interrupted is not None:
            interrupted, self._interrupted = self._interrupted, None
            result = await self._recover_round(index, interrupted)
            if result is not None:
                self.results.append(result)
                index += 1
        while index < self.config.rounds and not self._stop_requested:
            result = await self._run_round(index)
            if result is None:
                break
            self.results.append(result)
            index += 1
        return self.results

    def _build_session(self) -> ServerSession:
        return ServerSession(
            self.config.modulus,
            self.config.dimension,
            self.config.threshold,
            self.config.field,
            self.config.group,
            self.config.mask_prg,
            metrics=self.metrics,
            resumable=True,
        )

    def _journal_params(self) -> dict:
        """The config fingerprint a journaled round must match to be
        reconstructible by this server."""
        return {
            "modulus": self.config.modulus,
            "dimension": self.config.dimension,
            "threshold": self.config.threshold,
            "version": self._reject_header.version,
            "mask_prg": self._reject_header.mask_prg,
        }

    async def _run_round(self, index: int) -> NetRoundResult | None:
        joins = await self._gather_cohort()
        if not joins and self._stop_requested:
            return None
        round_id = self._next_round_id
        self._next_round_id += 1
        session = self._build_session()
        if self._journal is not None:
            self._journal.round_start(
                round_id, sorted(joins), self._journal_params()
            )
        await self._send_welcomes(session, round_id, joins)
        return await self._drive(
            index=index,
            round_id=round_id,
            session=session,
            roster=frozenset(joins),
            joins=joins,
            start_phase=ROUND_ADVERTISE,
            recovered=False,
        )

    async def _recover_round(
        self, index: int, interrupted: InterruptedRound
    ) -> NetRoundResult | None:
        """Resume — or cleanly abort — the round a crash left in flight.

        Replaying the journaled phase uploads through a fresh session
        reconstructs the pre-crash server state byte-identically (the
        crypto server draws no randomness), including the replay buffer
        the returning clients will be served from.  The whole roster
        starts parked under the grace window; clients reconnect with
        Resume and the round continues from the first uncommitted
        phase.  If nothing was committed, the config changed, or there
        is no grace window to wait in, the round is aborted instead —
        with no charge, since the ledger only ever charges completed
        rounds.
        """
        round_id = interrupted.round_id
        session = self._build_session()
        recoverable = bool(interrupted.phases) and (
            interrupted.params == self._journal_params()
        )
        if recoverable:
            try:
                for _, uploads in interrupted.phases:
                    for client in sorted(uploads):
                        session.receive(uploads[client], sender=client)
                    session.advance()
            except AggregationError:
                recoverable = False
        if not recoverable or self.config.resume_grace <= 0:
            if self._journal is not None:
                self._journal.round_end(round_id, "aborted", None)
            self._m_recovery.labels(outcome="aborted").inc()
            self._m_rounds.labels(outcome="aborted").inc()
            return None
        self._m_recovery.labels(outcome="resumed").inc()
        loop = asyncio.get_running_loop()
        for client in session.expected:
            self._parked[client] = loop.time() + self.config.resume_grace
        return await self._drive(
            index=index,
            round_id=round_id,
            session=session,
            roster=frozenset(interrupted.cohort),
            joins={},
            start_phase=session.phase,
            recovered=True,
        )

    async def _send_welcomes(
        self, session: ServerSession, round_id: int, joins: dict[int, bytes]
    ) -> None:
        """Announce the durable round id to every gathered cohort member."""
        for client in sorted(joins):
            connection = self._connections.get(client)
            if connection is None:
                continue
            try:
                await write_datagram(
                    connection.writer,
                    encode_message(
                        Welcome(client=client, round_id=round_id),
                        session.header,
                    ),
                )
            except (AggregationError, ConnectionError, OSError):
                pass  # the reader task's "gone" event handles the drop

    async def _drive(
        self,
        *,
        index: int,
        round_id: int,
        session: ServerSession,
        roster: frozenset[int],
        joins: dict[int, bytes],
        start_phase: int,
        recovered: bool,
    ) -> NetRoundResult:
        loop = asyncio.get_running_loop()
        evicted: set[int] = set()
        # Snapshot the cohort's connection *objects*: by round end the
        # same client ids may already be bound to next-round
        # connections, and cleanup must not close those.  Resumed
        # connections are added as they are accepted.
        round_connections: dict[int, _Connection] = {
            client: self._connections[client]
            for client in roster
            if client in self._connections
        }
        self._round_state = {
            "round_id": round_id,
            "roster": roster,
            "session": session,
            "connections": round_connections,
        }
        started = loop.time()
        aborted: str | None = None
        with time_phase("round", wall_histogram=self._m_round_wall):
            expected = set(session.expected) if recovered else set(joins)
            for phase in range(start_phase, ROUND_UNMASK + 1):
                tag = PHASE_TAGS[phase]
                with time_phase(
                    tag,
                    wall_histogram=self._m_wall_phase.labels(phase=tag),
                ):
                    if phase == ROUND_ADVERTISE:
                        datagrams = dict(joins)
                    else:
                        datagrams = await self._collect(tag, expected, evicted)
                    committed: dict[int, bytes] = {}
                    for client in sorted(datagrams):
                        if await self._ingest(
                            session, client, datagrams[client], tag, evicted
                        ):
                            committed[client] = datagrams[client]
                    try:
                        deliveries = session.advance()
                    except AggregationError as error:
                        aborted = str(error)
                        break
                    if self._journal is not None:
                        self._journal.phase_commit(round_id, tag, committed)
                    if phase != ROUND_UNMASK:
                        await self._deliver(deliveries, tag, evicted)
                    expected = set(session.expected)
                # Driven phases never revisit a tag (a recovered round's
                # replay happens before the first one), so the per-tag
                # totals are this phase's traffic.
                totals = session.stats.phase_summary(tag)
                if totals is not None:
                    count_phase_wire(
                        tag, totals, self._m_wire_messages, self._m_wire_bytes
                    )
        wall_duration = loop.time() - started
        if aborted is None:
            included = session.included
            modular_sum = session.modular_sum
            self._m_rounds.labels(outcome="completed").inc()
        else:
            included = frozenset()
            modular_sum = None
            self._m_rounds.labels(outcome="aborted").inc()
        digest = (
            hashlib.sha256(modular_sum.tobytes()).hexdigest()
            if modular_sum is not None
            else None
        )
        if self._journal is not None:
            self._journal.round_end(
                round_id,
                "completed" if aborted is None else "aborted",
                digest,
            )
        if aborted is None:
            # Exactly one charge per completed round id; an aborted
            # round charges nothing (its noise never shipped).
            self.ledger.charge(round_id, self.config.round_epsilon)
        self._round_state = None
        self._parked.clear()
        self._close_round_connections(list(round_connections.values()))
        return NetRoundResult(
            index=index,
            modular_sum=modular_sum,
            included=included,
            dropped=frozenset(roster) - included,
            evicted=frozenset(evicted),
            rejected=dict(session.rejections),
            aborted=aborted,
            wall_duration=wall_duration,
            wire=session.stats,
            round_id=round_id,
            recovered=recovered,
        )

    async def _gather_cohort(self) -> dict[int, bytes]:
        """Admit handshakes until the cohort is full (or times out)."""
        loop = asyncio.get_running_loop()
        joins: dict[int, bytes] = {}
        while self._pending_joins and len(joins) < self.config.cohort_size:
            client, handshake = self._pending_joins.popitem()
            if client in self._connections:
                joins[client] = handshake
        deadline = (
            loop.time() + self.config.join_timeout if joins else None
        )
        while len(joins) < self.config.cohort_size:
            if deadline is None:
                event = await self._inbox.get()
            else:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    event = await asyncio.wait_for(
                        self._inbox.get(), remaining
                    )
                except asyncio.TimeoutError:
                    break
            kind, client, payload = event
            if kind == "join":
                joins[client] = payload
                if deadline is None:
                    deadline = loop.time() + self.config.join_timeout
            elif kind == "gone":
                joins.pop(client, None)
            elif kind == "resume":
                # No round is in flight; whatever this client wants to
                # resume is gone.
                await self._reject_resume(
                    client, "no round in flight", outcome="rejected"
                )
            elif kind == "stop":
                break
            else:
                self._m_ignored.inc()
        return joins

    async def _collect(
        self, tag: str, expected: set[int], evicted: set[int]
    ) -> dict[int, bytes]:
        """Gather one phase's datagrams until complete or deadline.

        With no grace window, members whose connection is gone (at
        phase start or mid-phase) are evicted immediately — a
        disconnect must never leave the round waiting out the full
        deadline for a peer that cannot answer.  With ``resume_grace >
        0`` they are parked instead: still counted as pending until
        they resume, their grace expires (eviction, reason
        ``grace-expired``), or the phase deadline passes.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.phase_timeout
        grace = self.config.resume_grace
        collected: dict[int, bytes] = {}
        pending = {
            client
            for client in expected
            if client not in evicted
        }
        for client in sorted(pending):
            if client not in self._connections and client not in self._parked:
                if grace > 0:
                    self._park(client)
                else:
                    self._evict(client, tag, evicted, reason="disconnect")
        pending -= evicted
        while pending - set(collected):
            now = loop.time()
            if now >= deadline:
                self._expire(tag, pending - set(collected))
                break
            for client in [
                parked
                for parked, until in self._parked.items()
                if until <= now
            ]:
                del self._parked[client]
                if client in pending and client not in collected:
                    self._evict(client, tag, evicted, reason="grace-expired")
            pending -= evicted
            if not pending - set(collected):
                break
            # Wake at the earliest of the phase deadline and the next
            # grace expiry among peers the phase is still waiting on.
            wake = min(
                [deadline]
                + [
                    until
                    for parked, until in self._parked.items()
                    if parked in pending and parked not in collected
                ]
            )
            try:
                kind, client, payload = await asyncio.wait_for(
                    self._inbox.get(), max(wake - now, 0.001)
                )
            except asyncio.TimeoutError:
                continue
            if kind == "stop":
                continue  # flag is set; finish draining this round first
            if kind == "join":
                state = self._round_state
                if (
                    state is not None
                    and client in state["roster"]
                    and client not in evicted
                    and client not in state["session"].rejections
                ):
                    # A current-round member re-handshaking from
                    # scratch (it lost its connection before learning
                    # the round id): resume with a full replay.
                    await self._accept_resume(client, 0, tag, evicted)
                else:
                    # A connection for the *next* round; park it.
                    self._pending_joins[client] = payload
                continue
            if kind == "resume":
                await self._handle_resume(client, payload, tag, evicted)
                continue
            if kind == "gone":
                if client in pending and client not in collected:
                    if grace > 0:
                        self._park(client)
                    else:
                        self._evict(client, tag, evicted, reason="disconnect")
                        pending.discard(client)
                continue
            if client not in pending:
                self._m_ignored.inc()
                continue
            state = self._round_state
            if state is not None and state["session"].already_ingested(
                client, payload
            ):
                # A resumed client re-sending an upload a *previous*
                # phase already committed; drop it before it can shadow
                # the upload this phase is actually waiting for.
                self._m_ignored.inc()
                continue
            if client in collected:
                if bytes(payload) == bytes(collected[client]):
                    # Idempotent redelivery after a resume.
                    self._m_ignored.inc()
                else:
                    # The at-most-once guard, in-phase flavour: the
                    # same client re-submitting *different* bytes can
                    # never be honoured.
                    await self._conflict_evict(
                        client,
                        tag,
                        evicted,
                        f"client {client} re-submitted different bytes "
                        f"for the {tag} phase",
                    )
                    collected.pop(client, None)
                    pending.discard(client)
                continue
            collected[client] = payload
        return collected

    def _park(self, client: int) -> None:
        """Hold a dropped client under the resume grace window."""
        if client not in self._parked:
            loop = asyncio.get_running_loop()
            self._parked[client] = loop.time() + self.config.resume_grace

    async def _handle_resume(
        self, client: int, payload: bytes, tag: str, evicted: set[int]
    ) -> None:
        """Vet one Resume handshake against the in-flight round."""
        state = self._round_state
        try:
            frames = decode_frames(payload)
        except AggregationError:
            frames = []
        message = frames[0][1] if frames else None
        if not isinstance(message, Resume):
            await self._reject_resume(
                client, "malformed resume", outcome="rejected"
            )
            return
        if state is None or message.round_id != state["round_id"]:
            await self._reject_resume(
                client,
                f"stale round id {message.round_id}",
                outcome="rejected",
            )
            return
        if client in evicted or client in state["session"].rejections:
            await self._reject_resume(
                client,
                "no longer a participant of this round",
                outcome="expired",
            )
            return
        if client not in state["roster"]:
            await self._reject_resume(
                client,
                "not a member of this round's cohort",
                outcome="rejected",
            )
            return
        await self._accept_resume(client, message.deliveries, tag, evicted)

    async def _accept_resume(
        self, client: int, deliveries_seen: int, tag: str, evicted: set[int]
    ) -> None:
        """Unpark a resumed client and replay what it has not seen."""
        state = self._round_state
        assert state is not None
        session: ServerSession = state["session"]
        self._parked.pop(client, None)
        connection = self._connections.get(client)
        if connection is None:
            # It vanished again between the handshake and now; park it
            # and let the grace machinery decide.
            if self.config.resume_grace > 0:
                self._park(client)
            else:
                self._evict(client, tag, evicted, reason="disconnect")
            return
        state["connections"][client] = connection
        try:
            await write_datagram(
                connection.writer,
                encode_message(
                    Welcome(client=client, round_id=state["round_id"]),
                    session.header,
                ),
            )
            for replayed in session.replay_for(client, deliveries_seen):
                await write_datagram(connection.writer, replayed)
        except (AggregationError, ConnectionError, OSError):
            if self.config.resume_grace > 0:
                self._park(client)
            else:
                self._evict(client, tag, evicted, reason="disconnect")
            return
        self._m_resume.labels(outcome="accepted").inc()

    async def _reject_resume(
        self, client: int, reason: str, outcome: str
    ) -> None:
        """Answer a doomed resume with a typed Reject, then close."""
        self._m_resume.labels(outcome=outcome).inc()
        connection = self._connections.get(client)
        if connection is None:
            return
        with contextlib.suppress(AggregationError, ConnectionError, OSError):
            await write_datagram(
                connection.writer,
                encode_message(
                    Reject(client=client, reason=reason),
                    self._reject_header,
                ),
            )
        connection.close()

    async def _conflict_evict(
        self, client: int, tag: str, evicted: set[int], reason: str
    ) -> None:
        """At-most-once violation: typed Reject, then eviction."""
        connection = self._connections.get(client)
        if connection is not None:
            with contextlib.suppress(
                AggregationError, ConnectionError, OSError
            ):
                await write_datagram(
                    connection.writer,
                    encode_message(
                        Reject(client=client, reason=reason),
                        self._reject_header,
                    ),
                )
        self._evict(client, tag, evicted, reason="conflict")

    def _expire(self, tag: str, missing: set[int]) -> None:
        self._m_timeouts.labels(phase=tag).inc()
        for client in missing:
            self._m_dropped.labels(phase=tag).inc()
            self._m_evictions.labels(reason="straggler").inc()

    async def _ingest(
        self,
        session: ServerSession,
        client: int,
        datagram: bytes,
        tag: str,
        evicted: set[int],
    ) -> bool:
        """Feed one datagram to the session under the bound sender id.

        Returns True when the session accepted it (it then belongs in
        the phase's journal commit).
        """
        try:
            session.receive(datagram, sender=client)
        except ConflictError as error:
            # The at-most-once guard, cross-phase flavour: a resumed
            # client tried to replace an upload the session already
            # committed.
            await self._conflict_evict(client, tag, evicted, str(error))
            return False
        except AggregationError:
            # Spoofed sender, duplicate delivery, out-of-phase frame,
            # header mismatch: the connection is lying or broken either
            # way — evict it and let dropout tolerance absorb the loss.
            self._evict(client, tag, evicted, reason="protocol")
            return False
        return True

    def _evict(
        self, client: int, tag: str, evicted: set[int], reason: str
    ) -> None:
        if client in evicted:
            return
        evicted.add(client)
        self._parked.pop(client, None)
        self._m_evictions.labels(reason=reason).inc()
        self._m_dropped.labels(phase=tag).inc()
        connection = self._connections.get(client)
        if connection is not None:
            connection.close()

    async def _deliver(
        self, deliveries: dict[int, bytes], tag: str, evicted: set[int]
    ) -> None:
        for recipient in sorted(deliveries):
            if recipient in evicted:
                continue
            connection = self._connections.get(recipient)
            if connection is None:
                continue
            try:
                await write_datagram(
                    connection.writer, deliveries[recipient]
                )
            except (AggregationError, ConnectionError, OSError):
                if self.config.resume_grace > 0:
                    # The delivery stays in the session's replay
                    # buffer; a resume within the grace window gets it.
                    self._park(recipient)
                else:
                    self._evict(recipient, tag, evicted, reason="disconnect")

    def _close_round_connections(
        self, round_connections: list[_Connection]
    ) -> None:
        for connection in round_connections:
            connection.close()
