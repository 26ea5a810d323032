"""The real-socket SecAgg aggregation server.

This is the second caller of the one
:class:`~repro.secagg.statemachine.RoundDriver` — after the in-process
phase loop :func:`~repro.secagg.statemachine.drive_phases` (behind
:func:`repro.secagg.bonawitz.run_bonawitz` and
:class:`repro.simulation.rounds.AsyncSecAggRound`) — and the only one
whose clients are *real peers on real sockets*: an asyncio TCP listener
offers every datagram to the driver of the round in flight, with
wall-clock phase deadlines doing the job the simulated clock's
``phase_timeout`` does in the simulator.  What a refused datagram, a
closed phase and an abort mean is the driver's business and the same as
in the other two; this file is what only a socket needs.

Transport rules (everything the protocol core deliberately does not
decide):

* **Identity is connection-bound.**  A connection's first datagram must
  open with :class:`~repro.secagg.wire.Hello`; the Hello's sender index
  becomes the connection's bound client id (first come, first bound —
  a duplicate id is refused with a typed
  :class:`~repro.secagg.wire.Reject`).  Every subsequent datagram is
  offered to the driver under the bound id, so a frame claiming a
  different origin is refused inside the core and the connection is
  evicted — one socket can never impersonate another.
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
* **Late traffic is ignored and counted** by the driver, as in the
  simulator.
* **Rounds are durable when a journal is configured.**  The server
  journals the cohort at round start and every phase's ingested
  uploads at phase commit; a killed-and-restarted server replays the
  committed uploads through a fresh session (the crypto server draws
  no randomness, so the reconstruction is byte-identical) and resumes
  the round under the grace window — or cleanly aborts it.  Epsilon
  charges are idempotent by round id, so a crash can never
  double-charge the ledger.

The round's telemetry is the driver's — the very ``secagg_*`` round
families the simulator reports, counted by the same code — plus a
handful of ``net_*`` families only a real listener has (connections,
evictions by reason, round wall time); the registry is served live over
HTTP ``GET /metrics`` (:mod:`repro.net.http`), so simulated and real
runs share one metrics catalog and one scrape format.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
from collections.abc import AsyncIterator

import numpy as np

from repro.errors import AggregationError, ConfigurationError
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
    RoundDriver,
    ServerSession,
)
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_UNMASK,
    forget_round_memos,
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
        rounds: Rounds to serve before :meth:`SecAggServer.rounds` ends
            (and :meth:`SecAggServer.serve_rounds` returns).
        phase_timeout: Wall seconds the server waits per phase before
            evicting the stragglers and moving on.
        join_timeout: Wall seconds after the first handshake to wait
            for the rest of the cohort.
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

    A long-lived server takes each result as its round ends instead
    (``async for result in server.rounds(): ...``), so that nothing
    accumulates.

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
        #: Rounds served so far; the next round's index.
        self._served = 0
        # Header for pre-round Reject notices (duplicate ids); rounds
        # negotiate their own header via their ServerSession.
        self._reject_header = ServerSession(
            config.modulus, config.dimension, config.threshold,
            config.field, config.group,
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
        # Families only a real listener has; the secagg_* round families
        # are each round's driver's.
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
        current round (phases stay deadline-bounded) and then ends
        :meth:`rounds` instead of gathering the next cohort.
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

    async def rounds(self) -> AsyncIterator[NetRoundResult]:
        """Serve ``config.rounds`` rounds, yielding each result as its
        round ends.

        The server keeps no result, so a long-lived ``repro serve``
        holds one round's state however many it has served.  A
        journal-recovered round (left in flight by a crash) is driven
        first and counts toward the round budget.  A
        :meth:`request_stop` finishes the in-flight round, then ends
        the iteration early.
        """
        if self._interrupted is not None:
            interrupted, self._interrupted = self._interrupted, None
            result = await self._recover_round(self._served, interrupted)
            if result is not None:
                self._served += 1
                yield result
        while self._served < self.config.rounds and not self._stop_requested:
            result = await self._run_round(self._served)
            if result is None:
                break
            self._served += 1
            yield result

    async def serve_rounds(self) -> list[NetRoundResult]:
        """Serve ``config.rounds`` rounds (see :meth:`rounds`); returns
        their results."""
        return [result async for result in self.rounds()]

    def _build_session(self) -> ServerSession:
        return ServerSession(
            self.config.modulus,
            self.config.dimension,
            self.config.threshold,
            self.config.field,
            self.config.group,
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
        # Keys and seeds are fresh every round: what the last round's
        # dropout recovery memoised is dead weight in a long-lived
        # server, so the round opens on empty memos like every other
        # transport's.
        forget_round_memos(self.config.group)
        session = self._build_session()
        if self._journal is not None:
            self._journal.round_start(
                round_id, sorted(joins), self._journal_params()
            )
        await self._send_welcomes(session, round_id, joins)
        return await self._drive(
            index=index,
            round_id=round_id,
            driver=RoundDriver(session, joins, metrics=self.metrics),
            roster=frozenset(joins),
            joins=joins,
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
        driver = RoundDriver(
            self._build_session(), interrupted.cohort, metrics=self.metrics
        )
        recoverable = bool(interrupted.phases) and (
            interrupted.params == self._journal_params()
        )
        if recoverable:
            try:
                driver.restore(uploads for _, uploads in interrupted.phases)
            except AggregationError:
                recoverable = False
        if not recoverable or self.config.resume_grace <= 0:
            if self._journal is not None:
                self._journal.round_end(round_id, "aborted", None)
            self._m_recovery.labels(outcome="aborted").inc()
            driver.abort()
            return None
        self._m_recovery.labels(outcome="resumed").inc()
        for client in driver.waiting:
            self._park(client)
        return await self._drive(
            index=index,
            round_id=round_id,
            driver=driver,
            roster=frozenset(interrupted.cohort),
            joins={},
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
        driver: RoundDriver,
        roster: frozenset[int],
        joins: dict[int, bytes],
        recovered: bool,
    ) -> NetRoundResult:
        loop = asyncio.get_running_loop()
        session = driver.session
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
            "driver": driver,
            "connections": round_connections,
            # What the session accepted in the phase being collected:
            # the journal's phase commit.
            "committed": {},
        }
        started = loop.time()
        aborted: str | None = None
        with time_phase("round", wall_histogram=self._m_round_wall):
            # A recovered round picks up at the first phase its journal
            # had not committed.
            for phase in range(session.phase, ROUND_UNMASK + 1):
                committed = self._round_state["committed"] = {}
                if phase == ROUND_ADVERTISE:
                    # The handshakes that formed the cohort are the
                    # advertise uploads.
                    for client in sorted(joins):
                        await self._offer(client, joins[client])
                else:
                    await self._collect()
                try:
                    deliveries = driver.close()
                except AggregationError as error:
                    aborted = str(error)
                    break
                if self._journal is not None:
                    self._journal.phase_commit(
                        round_id, PHASE_TAGS[phase], committed
                    )
                await self._deliver(deliveries)
        wall_duration = loop.time() - started
        included = session.included if aborted is None else frozenset()
        modular_sum = session.modular_sum if aborted is None else None
        digest = (
            hashlib.sha256(modular_sum.tobytes()).hexdigest()
            if modular_sum is not None
            else None
        )
        if aborted is None:
            # Exactly one charge per completed round id; an aborted
            # round charges nothing (its noise never shipped).  The
            # charge is durable before the round-end: a crash between
            # the two leaves an interrupted round whose replayed charge
            # the ledger refuses, never a completed round left uncharged.
            self.ledger.charge(round_id, self.config.round_epsilon)
        if self._journal is not None:
            self._journal.round_end(
                round_id,
                "completed" if aborted is None else "aborted",
                digest,
            )
        self._round_state = None
        self._parked.clear()
        self._close_round_connections(list(round_connections.values()))
        return NetRoundResult(
            index=index,
            modular_sum=modular_sum,
            included=included,
            dropped=frozenset(roster) - included,
            evicted=frozenset(driver.evicted),
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
            # Anything else is data from a connection no round has
            # admitted yet: there is no phase it could be late for.
        return joins

    async def _collect(self) -> None:
        """Offer the driver one phase's datagrams until it waits on
        nobody or the wall deadline passes.

        With no grace window, members whose connection is gone (at
        phase start or mid-phase) are evicted immediately — a
        disconnect must never leave the round waiting out the full
        deadline for a peer that cannot answer.  With ``resume_grace >
        0`` they are parked instead: still waited on until they resume,
        their grace expires (eviction, reason ``grace-expired``), or
        the phase deadline passes.
        """
        loop = asyncio.get_running_loop()
        state = self._round_state
        assert state is not None
        driver: RoundDriver = state["driver"]
        waiting = driver.waiting
        deadline = loop.time() + self.config.phase_timeout
        for client in sorted(waiting):
            if client not in self._connections and client not in self._parked:
                self._lost(client)
        while waiting:
            now = loop.time()
            if now >= deadline:
                self._m_evictions.labels(reason="straggler").inc(
                    len(driver.timeout())
                )
                break
            for client in [
                parked
                for parked, until in self._parked.items()
                if until <= now
            ]:
                del self._parked[client]
                if client in waiting:
                    self._evict(client, "grace-expired")
            if not waiting:
                break
            # Wake at the earliest of the phase deadline and the next
            # grace expiry among peers the phase is still waiting on.
            wake = min(
                [deadline]
                + [
                    until
                    for parked, until in self._parked.items()
                    if parked in waiting
                ]
            )
            try:
                kind, client, payload = await asyncio.wait_for(
                    self._inbox.get(), max(wake - now, 0.001)
                )
            except asyncio.TimeoutError:
                continue
            if kind == "data":
                await self._offer(client, payload)
            elif kind == "gone":
                if client in waiting:
                    self._lost(client)
            elif kind == "resume":
                await self._handle_resume(client, payload)
            elif kind == "join":
                if (
                    client in state["roster"]
                    and client not in driver.evicted
                    and client not in driver.session.rejections
                ):
                    # A current-round member re-handshaking from
                    # scratch (it lost its connection before learning
                    # the round id): resume with a full replay.
                    await self._accept_resume(client, 0)
                else:
                    # A connection for the *next* round; park it.
                    self._pending_joins[client] = payload
            # "stop": the flag is set; finish draining this round first.

    async def _offer(self, client: int, payload: bytes) -> None:
        """Offer one datagram to the round's driver under the bound id.

        A datagram the session refuses — spoofed sender, wrong shape,
        out of phase, header mismatch — has already evicted its sender
        there: the connection is lying or broken either way, so it is
        closed and dropout tolerance absorbs the loss.
        """
        state = self._round_state
        assert state is not None
        driver: RoundDriver = state["driver"]
        refusal = driver.offer(client, payload)
        if refusal is None:
            state["committed"][client] = payload
        elif refusal != "ignored":
            if refusal == "conflict":
                # The at-most-once guard: the same client re-submitting
                # *different* bytes for the phase can never be honoured.
                await self._send_reject(
                    client,
                    f"client {client} re-submitted different bytes for "
                    f"the {driver.session.phase_tag} phase",
                )
            self._dismiss(client, refusal)

    def _park(self, client: int) -> None:
        """Hold a dropped client under the resume grace window."""
        if client not in self._parked:
            loop = asyncio.get_running_loop()
            self._parked[client] = loop.time() + self.config.resume_grace

    def _lost(self, client: int) -> None:
        """A round member's connection is gone: park it under the grace
        window, or with none evict it at once."""
        if self.config.resume_grace > 0:
            self._park(client)
        else:
            self._evict(client, "disconnect")

    async def _handle_resume(self, client: int, payload: bytes) -> None:
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
        driver: RoundDriver = state["driver"]
        if client in driver.evicted or client in driver.session.rejections:
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
        await self._accept_resume(client, message.deliveries)

    async def _accept_resume(self, client: int, deliveries_seen: int) -> None:
        """Unpark a resumed client and replay what it has not seen."""
        state = self._round_state
        assert state is not None
        session: ServerSession = state["driver"].session
        self._parked.pop(client, None)
        connection = self._connections.get(client)
        if connection is None:
            # It vanished again between the handshake and now.
            self._lost(client)
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
            self._lost(client)
            return
        self._m_resume.labels(outcome="accepted").inc()

    async def _send_reject(
        self, client: int, reason: str
    ) -> _Connection | None:
        """Tell a client, if it is still connected, why it is refused;
        returns the connection that was told."""
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
        return connection

    async def _reject_resume(
        self, client: int, reason: str, outcome: str
    ) -> None:
        """Answer a doomed resume with a typed Reject, then close."""
        self._m_resume.labels(outcome=outcome).inc()
        connection = await self._send_reject(client, reason)
        if connection is not None:
            connection.close()

    def _evict(self, client: int, reason: str) -> None:
        """The transport gives up on a round member."""
        state = self._round_state
        assert state is not None
        if state["driver"].evict(client, reason):
            self._dismiss(client, reason)

    def _dismiss(self, client: int, reason: str) -> None:
        """What an eviction means on a socket, whoever decided it: the
        reason is counted, the connection closed, and whatever the
        client had delivered this phase — the driver retracted it —
        kept out of the journal."""
        state = self._round_state
        assert state is not None
        state["committed"].pop(client, None)
        self._parked.pop(client, None)
        self._m_evictions.labels(reason=reason).inc()
        connection = self._connections.get(client)
        if connection is not None:
            connection.close()

    async def _deliver(self, deliveries: dict[int, bytes]) -> None:
        for recipient in sorted(deliveries):
            connection = self._connections.get(recipient)
            if connection is None:
                continue
            try:
                await write_datagram(
                    connection.writer, deliveries[recipient]
                )
            except (AggregationError, ConnectionError, OSError):
                # With a grace window the delivery stays in the
                # session's replay buffer; a resume gets it.
                self._lost(recipient)

    def _close_round_connections(
        self, round_connections: list[_Connection]
    ) -> None:
        for connection in round_connections:
            connection.close()
