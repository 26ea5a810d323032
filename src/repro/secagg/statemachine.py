"""Sans-I/O client/server state machines for the SecAgg protocol.

This module is the single protocol implementation every transport
drives.  :class:`ClientSession` and :class:`ServerSession` consume
inbound wire frames (:mod:`repro.secagg.wire`) and emit outbound ones —
**no I/O, no clock, no asyncio**.

One driver, three callers.  :class:`RoundDriver` wraps one
:class:`ServerSession` for one round and is the only code that feeds it
or closes its phases, so what happens to a datagram the session refuses
(its sender is evicted, the round goes on), what a closed phase reports
(the ``secagg_*`` round families, the ``wire-phase`` trace event) and
what an abort leaves behind (the phase and who had delivered it) are
each written once.  The callers keep only what is genuinely theirs —
*when* a phase is over and how bytes move:

* :func:`drive_in_memory` (which
  :func:`repro.secagg.bonawitz.run_bonawitz` calls, and through it every
  composition round of an aggregation tree) closes a phase when every
  live client has answered;
* :class:`repro.simulation.rounds.AsyncSecAggRound` — mailboxes on the
  simulated clock, one per shard under the sharded backends — closes it
  at the earlier of "everyone delivered" and the phase deadline;
* :class:`repro.net.server.SecAggServer` does the same over sockets on
  the wall clock, and adds what only a lossy transport needs (parking,
  resumption, Reject notices, the journal).

The sessions wrap the existing crypto state machines
(:class:`repro.secagg.bonawitz.BonawitzClient` /
:class:`~repro.secagg.bonawitz.BonawitzServer`) — all key agreement,
Shamir sharing, masking and recovery stay on the vectorised kernel
layer and remain bit-identical to the pre-wire implementation.

Negotiation is first-class: a round opens with a :class:`~repro.secagg.wire.Hello`
whose frame header proposes a protocol version and mask-PRG backend.
The server accepts or answers a typed
:class:`~repro.secagg.wire.Reject`; a rejected client parks a
:class:`repro.errors.NegotiationError` in :attr:`ClientSession.rejected`
instead of crashing mid-round, and a server whose accepted roster falls
below the Shamir threshold raises :class:`~repro.errors.NegotiationError`
naming the rejections.

There is one path per leg: every upload is parsed by
:func:`~repro.secagg.wire.decode_frames` and checked at
:meth:`ServerSession.receive` against what the *round* fixed, never
against another upload.  A share-keys upload is one frame — one
envelope per member of the sorted roster at the length the round's
key-agreement group fixes — whose ciphertext matrix the server keeps
opaque and routes as one transpose; a masked-input datagram is held
to the round's length *before* it is decoded (its coordinates unpack to
up to 64 times their bytes), then to the round's coordinate width,
dimension and alphabet
(:meth:`~repro.secagg.bonawitz.BonawitzServer.check_masked_input`), an
unmask response to
:meth:`~repro.secagg.bonawitz.BonawitzServer.check_unmask_response`.
A datagram is taken whole or not at all: a refusal is a typed
:class:`~repro.errors.AggregationError` that leaves the session as it
found it.

The server session also keeps the round's wire ledger
(:class:`~repro.secagg.wire.WireStats`): every frame it receives or
emits is tallied per phase and client, so transports get message/byte
accounting for free.

Both sessions optionally report into a
:class:`~repro.telemetry.registry.MetricsRegistry`: negotiation
outcomes and categorized reject reasons
(``secagg_negotiations_total`` / ``secagg_negotiation_rejects_total``),
and frames decoded/encoded per role and direction
(``secagg_frames_total``).  With ``metrics=None`` (the default) the
sessions do no metric work at all — the no-telemetry path.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Set

import numpy as np

from repro.errors import (
    AggregationError,
    ConfigurationError,
    ConflictError,
    NegotiationError,
)
from repro.secagg.bonawitz import (
    ROUND_ADVERTISE,
    ROUND_MASKED_INPUT,
    ROUND_SHARE_KEYS,
    ROUND_UNMASK,
    BonawitzClient,
    BonawitzServer,
    public_key_length,
    sealed_share_length,
    warm_pairwise_agreements,
)
from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.kernels import MaskPrg
from repro.secagg.keys import (
    KeyAgreementGroup,
    X25519Group,
    _require_x25519,
    oakley_group,
    suite_name,
)
from repro.secagg.wire import (
    PROTOCOL_V1,
    SUPPORTED_PROTOCOL_VERSIONS,
    Advertise,
    Hello,
    MaskedInput,
    Message,
    NegotiatedHeader,
    Reject,
    Roster,
    SealedDelivery,
    SealedUpload,
    UnmaskRequest,
    UnmaskResponse,
    WireStats,
    decode_frames,
    encode_message,
    intern_header,
    modulus_bits,
    split_suite,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.report import SIM_PHASE_HISTOGRAM, WALL_PHASE_HISTOGRAM

#: Wire tag per protocol phase — shared by transports, traces and the
#: accounting ledger.
PHASE_TAGS = {
    ROUND_ADVERTISE: "advertise",
    ROUND_SHARE_KEYS: "share-keys",
    ROUND_MASKED_INPUT: "masked-input",
    ROUND_UNMASK: "unmask",
}

#: Phase reached once the aggregate sum is recovered.
PHASE_DONE = ROUND_UNMASK + 1


class ClientSession:
    """One participant's sans-I/O protocol session.

    Feed inbound datagrams to :meth:`handle`; it returns the frames to
    send back to the server (possibly none).  The session never blocks,
    sleeps, or touches a socket — dropout, latency and delivery order
    are entirely the transport's business.

    Args:
        index: The client's unique nonzero identifier.
        vector: The private input vector over ``Z_m``.
        modulus: Aggregation modulus ``m``.
        threshold: Shamir reconstruction threshold ``t``.
        rng: Client-local randomness.
        group: DH group for both key pairs.
        field: Shamir sharing field.
        mask_prg: The mask PRG instance whose memo this client fills
            (default :data:`~repro.secagg.kernels.DEFAULT_MASK_PRG`).
        version: Protocol version to propose at Hello.
        metrics: Optional registry for frame/rejection counters; the
            default collects nothing.
    """

    def __init__(
        self,
        index: int,
        vector: np.ndarray,
        modulus: int,
        threshold: int,
        rng: np.random.Generator,
        group: KeyAgreementGroup,
        field: PrimeField = DEFAULT_FIELD,
        mask_prg: MaskPrg | None = None,
        version: int = PROTOCOL_V1,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # x25519 without the optional `cryptography` package is refused
        # here, not swapped for a weaker group or failed mid-round.
        if isinstance(group, X25519Group):
            _require_x25519()
        self._crypto = BonawitzClient(
            index=index,
            vector=vector,
            modulus=modulus,
            threshold=threshold,
            rng=rng,
            group=group,
            field=field,
            mask_prg=mask_prg,
        )
        self.index = index
        # The round fixes the width of a masked coordinate and of a key.
        self._bits = modulus_bits(modulus)
        self._key_width = public_key_length(group)
        # Interned: decoded frames carrying the negotiated header
        # resolve to this very object, so hot-path comparisons are
        # identity checks.
        self.header = intern_header(
            version, suite_name(self._crypto._mask_prg.name, group)
        )
        #: Terminal negotiation failure, set on receiving a Reject.
        self.rejected: NegotiationError | None = None
        self._m_frames_in = self._m_frames_out = self._m_rejected = None
        if metrics is not None:
            frames = metrics.counter(
                "secagg_frames_total",
                "Wire frames decoded (in) / encoded (out), per role.",
            )
            self._m_frames_in = frames.labels(role="client", direction="in")
            self._m_frames_out = frames.labels(role="client", direction="out")
            self._m_rejected = metrics.counter(
                "secagg_client_rejections_total",
                "Hello rejections acknowledged by clients.",
            ).labels()

    @property
    def crypto(self) -> BonawitzClient:
        """The wrapped crypto state machine (simulation accelerators
        like :func:`~repro.secagg.bonawitz.warm_pairwise_agreements`
        operate on it directly)."""
        return self._crypto

    def _encode(self, message: Message) -> bytes:
        return encode_message(message, self.header)

    def _count_frames(self, inbound: int, outbound: int) -> None:
        if self._m_frames_in is not None:
            if inbound:
                self._m_frames_in.inc(inbound)
            if outbound:
                self._m_frames_out.inc(outbound)

    def start(self) -> list[bytes]:
        """Open the round: propose the header and advertise both keys.

        Returns:
            Two frames — :class:`~repro.secagg.wire.Hello` (whose header
            carries the proposal) and the round-0
            :class:`~repro.secagg.wire.Advertise`.
        """
        advertisement = self._crypto.advertise_keys()
        self._count_frames(0, 2)
        return [
            self._encode(Hello(sender=self.index)),
            self._encode(advertisement),
        ]

    def handle(self, data: bytes) -> list[bytes]:
        """Process one server datagram; returns the response frames.

        Every server datagram is one frame: a roster, a share delivery,
        an unmask request or a Reject.

        Raises:
            AggregationError: On a protocol violation — including the
                core security rule (an unmask request naming a peer as
                both survivor and dropout is refused) and the
                one-answer rules: a second roster, share delivery or
                unmask request is refused, as is a roster whose keys are
                not the group's width and a delivery naming fewer than
                ``threshold`` senders or one of them twice.
            NegotiationError: If a non-Reject frame carries a header
                that does not match the negotiated one.
        """
        if self.rejected is not None:
            raise AggregationError(
                f"client {self.index} was rejected at Hello and holds no "
                "round state"
            )
        frames = decode_frames(data)
        if not frames:
            return []
        first = frames[0][1]
        if isinstance(first, Reject):
            self.rejected = NegotiationError(
                f"client {self.index} rejected at Hello: {first.reason}"
            )
            self._count_frames(1, 0)
            if self._m_rejected is not None:
                self._m_rejected.inc()
            return []
        for header, _ in frames:
            if header is not self.header and header != self.header:
                raise NegotiationError(
                    f"client {self.index} negotiated {self.header} but "
                    f"received a frame speaking {header}"
                )
        if len(frames) != 1:
            raise AggregationError(
                f"a {type(first).__name__} must arrive alone"
            )
        if isinstance(first, Roster):
            if first.width != self._key_width:
                raise AggregationError(
                    f"client {self.index} received {first.width}-byte keys; "
                    f"this round's are {self._key_width} bytes"
                )
            _, sealed = self._crypto.share_keys_matrix(first)
            self._count_frames(1, 1)
            return [self._encode(SealedUpload(self.index, sealed))]
        if isinstance(first, SealedDelivery):
            if first.recipient != self.index:
                raise AggregationError(
                    f"client {self.index} received the envelopes of "
                    f"{first.recipient}"
                )
            senders = first.senders.tolist()
            self._crypto.receive_share_matrix(senders, first.ciphertexts)
            # U1 is the delivery's sender column: the server routes one
            # envelope per round-1 completer (self included).
            masked = self._crypto.masked_input(frozenset(senders))
            self._count_frames(1, 1)
            return [self._encode(MaskedInput(self.index, masked, self._bits))]
        if isinstance(first, UnmaskRequest):
            response = self._crypto.unmask_columns(first)
            self._count_frames(1, 1)
            return [self._encode(response)]
        raise AggregationError(
            f"client {self.index} cannot handle inbound "
            f"{type(first).__name__}"
        )


class ServerSession:
    """The aggregation server's sans-I/O protocol session.

    Drive it phase by phase: :meth:`receive` inbound datagrams (in any
    order, until the transport decides the phase is over), then
    :meth:`advance` to close the phase and collect the outbound
    per-recipient datagrams.  The session validates senders, enforces
    thresholds through the wrapped crypto server, negotiates
    version/backend at Hello, and tallies every byte in :attr:`stats`.

    Args:
        modulus: Aggregation modulus ``m``.
        dimension: Vector length ``d``.
        threshold: Shamir threshold ``t``.
        field: Shamir sharing field (must match the clients').
        group: DH group (must match the clients'; default
            :func:`~repro.secagg.keys.oakley_group`).
        mask_prg: The mask PRG instance whose memo recovery fills
            (default :data:`~repro.secagg.kernels.DEFAULT_MASK_PRG`).
        accept_versions: Protocol versions the server may choose from;
            the round itself runs at the highest one (a round's shared
            broadcasts carry exactly one header, so every accepted
            client must propose that version at Hello).
        tamper_unmask_request: Test/adversary seam applied to the
            round-3 announcement before it is encoded for broadcast.
        metrics: Optional registry for negotiation-outcome and frame
            counters; the default collects nothing.
        resumable: Enable resumption support for lossy transports.
            The session then (a) retains every emitted per-recipient
            datagram so :meth:`replay_for` can re-deliver to a
            reconnecting client, and (b) enforces the at-most-once
            upload guard — a byte-identical re-send of an already
            ingested datagram is ignored (idempotent redelivery), but
            *different* bytes for an already committed phase raise
            :class:`~repro.errors.ConflictError` instead of silently
            replacing the contribution.  Off by default: the in-memory
            transports are loss-free, and there a duplicate is a
            protocol violation worth raising on.
    """

    def __init__(
        self,
        modulus: int,
        dimension: int,
        threshold: int,
        field: PrimeField = DEFAULT_FIELD,
        group: KeyAgreementGroup | None = None,
        mask_prg: MaskPrg | None = None,
        accept_versions: frozenset[int] = SUPPORTED_PROTOCOL_VERSIONS,
        tamper_unmask_request: Callable[[UnmaskRequest], UnmaskRequest]
        | None = None,
        metrics: MetricsRegistry | None = None,
        resumable: bool = False,
    ) -> None:
        if not accept_versions:
            raise ConfigurationError(
                "the server must accept at least one protocol version"
            )
        if group is None:
            group = oakley_group()
        elif isinstance(group, X25519Group):
            _require_x25519()
        self._crypto = BonawitzServer(
            modulus, dimension, threshold, field, group, mask_prg
        )
        self._threshold = threshold
        self._sealed_length = sealed_share_length(group, field)
        self._key_width = public_key_length(group)
        self._bits = modulus_bits(modulus)
        self.header = intern_header(
            max(accept_versions),
            suite_name(self._crypto._mask_prg.name, group),
        )
        # The round fixes a masked-input datagram's length to the byte.
        blank = MaskedInput(0, np.zeros(dimension, dtype=np.int64), self._bits)
        self._masked_length = len(encode_message(blank, self.header))
        self._tamper = tamper_unmask_request
        self.stats = WireStats()
        #: Clients refused at Hello, with the refusal reason.
        self.rejections: dict[int, str] = {}
        #: True once a tamper seam rewrote the unmask request.
        self.tampered = False
        self._phase = ROUND_ADVERTISE
        self._hellos: dict[int, NegotiatedHeader] = {}
        self._advertisements: dict[int, Advertise] = {}
        # The share-keys roster in sorted order — whom the rows of every
        # sealed upload are for — and, per sender, its ciphertext matrix
        # (opaque to the server) until routing transposes them wholesale.
        self._share_roster: list[int] = []
        self._sealed_uploads: dict[int, np.ndarray] = {}
        self._masked: dict[int, np.ndarray] = {}
        self._responses: dict[int, UnmaskResponse] = {}
        self._expected: frozenset[int] = frozenset()
        self._request: UnmaskRequest | None = None
        self._modular_sum: np.ndarray | None = None
        self.resumable = resumable
        # Replay buffer: per recipient, every datagram this session has
        # emitted, in delivery order.  The n-th entry closes phase n
        # from that client's point of view, so a resume quoting
        # "deliveries processed = k" replays log[k:].
        self._delivery_log: dict[int, list[bytes]] = {}
        # At-most-once memo: per sender, the raw datagram ingested for
        # each phase.  Byte-compared on redelivery.
        self._upload_memo: dict[int, dict[int, bytes]] = {}
        self._m_frames_in = self._m_frames_out = None
        self._m_negotiations = self._m_rejects = None
        if metrics is not None:
            frames = metrics.counter(
                "secagg_frames_total",
                "Wire frames decoded (in) / encoded (out), per role.",
            )
            self._m_frames_in = frames.labels(role="server", direction="in")
            self._m_frames_out = frames.labels(role="server", direction="out")
            self._m_negotiations = metrics.counter(
                "secagg_negotiations_total",
                "Hello negotiation outcomes.",
            )
            self._m_rejects = metrics.counter(
                "secagg_negotiation_rejects_total",
                "Hello rejections by reason category.",
            )

    @property
    def crypto(self) -> BonawitzServer:
        """The wrapped crypto state machine."""
        return self._crypto

    @property
    def phase(self) -> int:
        """Current protocol phase (``ROUND_*``, or :data:`PHASE_DONE`)."""
        return self._phase

    @property
    def phase_tag(self) -> str:
        """Wire tag of the current phase."""
        if self._phase == PHASE_DONE:
            return "done"
        return PHASE_TAGS[self._phase]

    @property
    def expected(self) -> frozenset[int]:
        """Clients that may still deliver in the current phase.

        Empty during the advertise phase — only the transport knows the
        cohort before any client has spoken.
        """
        return self._expected

    def _phase_table(self) -> dict:
        """Where the current phase's accepted uploads sit, by sender
        (nowhere once the round is done)."""
        return {
            ROUND_ADVERTISE: self._advertisements,
            ROUND_SHARE_KEYS: self._sealed_uploads,
            ROUND_MASKED_INPUT: self._masked,
            ROUND_UNMASK: self._responses,
        }.get(self._phase, {})

    def received(self) -> frozenset[int]:
        """Senders that already delivered in the current phase."""
        return frozenset(self._phase_table())

    def retract(self, sender: int) -> None:
        """Forget what ``sender`` delivered in the current phase.

        For a transport that evicts a client *after* accepting its
        upload (the at-most-once guard: the same connection then sent
        different bytes for the phase): the phase closes as if the
        client had never answered.  The bytes stay in :attr:`stats` —
        they did cross the wire.
        """
        self._phase_table().pop(sender, None)

    def phase_ready(self) -> bool:
        """True once every expected client delivered (never during
        advertise, where ``expected`` is the transport's knowledge)."""
        return bool(self._expected) and self._expected <= self.received()

    @property
    def modular_sum(self) -> np.ndarray:
        """The recovered aggregate; available once the round is done."""
        if self._modular_sum is None:
            raise AggregationError("the aggregate has not been recovered yet")
        return self._modular_sum

    @property
    def included(self) -> frozenset[int]:
        """``U2`` — clients whose input made the aggregate."""
        if self._request is None:
            raise AggregationError("survivors are not known yet")
        return frozenset(self._request.survivors)

    # -- inbound ----------------------------------------------------------

    def receive(self, data: bytes, sender: int | None = None) -> None:
        """Ingest one client datagram for the current phase.

        Args:
            data: One or more concatenated frames from a single client.
            sender: The transport-authenticated sender identity.  It is
                **required**: frames claim whatever origin they like, so
                accepting a datagram without the transport's own binding
                would let one connection impersonate another.  Frames
                claiming a different sender are rejected (spoofing).

        The datagram is taken whole or not at all: when any frame of it
        is refused, whatever its earlier frames stored is taken back,
        and the phase's uploads, the Hello outcomes, :attr:`stats` and
        the at-most-once memo are as the call found them (an upload the
        sender delivered in an *earlier* datagram is not touched).

        Raises:
            AggregationError: When ``sender`` is omitted, and on
                spoofed/duplicate/out-of-phase/malformed frames.
        """
        if sender is None:
            # Trusting the frame-claimed origin here would turn every
            # transport into an impersonation vector — the binding must
            # come from outside the bytes (connection handshake, mailbox
            # slot, loop index).
            raise AggregationError(
                "receive() requires the transport-authenticated sender; "
                "the frame-claimed origin cannot be trusted"
            )
        if self.resumable and self._guard_redelivery(sender, data):
            return
        if (
            self._phase == ROUND_MASKED_INPUT
            and len(data) != self._masked_length
        ):
            # Refused before it is decoded: a coordinate is up to 64
            # times wider in memory than on the wire, so a frame must
            # not get to declare how much the server unpacks.
            raise AggregationError(
                f"client {sender} sent a {len(data)}-byte datagram; this "
                f"round's masked inputs are {self._masked_length} bytes"
            )
        frames = decode_frames(data)
        # Every frame is the sender's own and stores at most one entry
        # under it, never over an earlier one — so the tables it is
        # absent from now are exactly what a refusal undoes.
        fresh = [
            table
            for table in (self._hellos, self.rejections, self._phase_table())
            if sender not in table
        ]
        try:
            for header, message in frames:
                claimed = self._sender_of(message)
                self._check_claimed(claimed, sender)
                self._dispatch(header, message, claimed)
        except AggregationError:
            for table in fresh:
                table.pop(sender, None)
            raise
        messages = len(frames)
        self.stats.record_upload(
            self.phase_tag, sender, len(data), messages=messages
        )
        if self._m_frames_in is not None and messages:
            self._m_frames_in.inc(messages)
        if self.resumable:
            self._upload_memo.setdefault(sender, {})[self._phase] = bytes(data)

    def _check_header(self, header: NegotiatedHeader, sender: int) -> None:
        """Post-negotiation frames must carry the round's exact header."""
        if header is not self.header and header != self.header:
            raise NegotiationError(
                f"client {sender} sent a frame speaking {header} into a "
                f"round negotiated at {self.header}"
            )

    @staticmethod
    def _check_claimed(claimed: int, sender: int) -> None:
        if claimed != sender:
            raise AggregationError(
                f"frame claims sender {claimed} but came from {sender}"
            )

    def _guard_redelivery(self, sender: int, data: bytes) -> bool:
        """At-most-once guard; True when the datagram is a known re-send.

        A resumed client re-sending exactly what it already sent is
        redelivery, not a violation — ignore it.  Different bytes for a
        phase this sender already committed can never be honoured: the
        original contribution is locked in, so the conflicting upload
        is a typed :class:`~repro.errors.ConflictError`.
        """
        memo = self._upload_memo.get(sender)
        if not memo:
            return False
        payload = bytes(data)
        if any(previous == payload for previous in memo.values()):
            return True
        committed = memo.get(self._phase)
        if committed is not None:
            raise ConflictError(
                f"client {sender} re-submitted different bytes for the "
                f"{self.phase_tag} phase; the original upload is locked in"
            )
        return False

    def already_ingested(self, sender: int, data: bytes) -> bool:
        """True when ``data`` is byte-identical to an upload this
        session already committed from ``sender`` (resumable mode only).

        Transports use this to drop idempotent re-sends *before*
        letting them occupy a phase's collection slot — a resumed
        client re-sending its previous upload must not shadow the
        upload the current phase is actually waiting for.
        """
        memo = self._upload_memo.get(sender)
        return bool(memo) and bytes(data) in memo.values()

    def replay_for(self, client: int, deliveries_seen: int) -> list[bytes]:
        """Datagrams a resumed ``client`` has not processed yet.

        Args:
            client: The resuming client's index.
            deliveries_seen: How many deliveries the client reports
                having processed; everything after that is replayed in
                order.
        """
        if not self.resumable:
            raise ConfigurationError(
                "replay_for() requires a session built with resumable=True"
            )
        if deliveries_seen < 0:
            raise AggregationError("deliveries_seen must be >= 0")
        return list(self._delivery_log.get(client, [])[deliveries_seen:])

    @staticmethod
    def _sender_of(message: Message) -> int:
        if isinstance(message, (Hello, SealedUpload, MaskedInput)):
            return message.sender
        if isinstance(message, Advertise):
            return message.index
        if isinstance(message, UnmaskResponse):
            return message.responder
        raise AggregationError(
            f"the server cannot ingest {type(message).__name__} frames"
        )

    def _dispatch(
        self, header: NegotiatedHeader, message: Message, sender: int
    ) -> None:
        if isinstance(message, Hello):
            if self._phase != ROUND_ADVERTISE:
                raise AggregationError(
                    f"client {sender} sent a Hello outside the advertise phase"
                )
            if sender in self._hellos or sender in self.rejections:
                raise AggregationError(
                    f"duplicate Hello from client {sender}"
                )
            if header.version != self.header.version:
                # Every broadcast shares one header, so a round speaks
                # exactly one version; a client proposing anything else
                # — even another version the server *could* have chosen
                # — could not follow the round's frames and is refused
                # here rather than crashing mid-round.
                self.rejections[sender] = (
                    f"unsupported protocol version {header.version} "
                    f"(round speaks {self.header.version})"
                )
                self._count_negotiation("rejected", "version")
            elif header.mask_prg != self.header.mask_prg:
                # The suite string carries both backends; reject on the
                # first component that differs so the reason names the
                # actual mismatch.
                client_prg, client_kex = split_suite(header.mask_prg)
                round_prg, round_kex = split_suite(self.header.mask_prg)
                if client_prg != round_prg:
                    self.rejections[sender] = (
                        f"mask PRG backend {client_prg!r} does not match "
                        f"the round's {round_prg!r}"
                    )
                    self._count_negotiation("rejected", "mask-prg")
                else:
                    self.rejections[sender] = (
                        f"key-agreement backend {client_kex!r} does not "
                        f"match the round's {round_kex!r}"
                    )
                    self._count_negotiation("rejected", "key-agreement")
            else:
                self._hellos[sender] = header
                self._count_negotiation("accepted")
            return
        if isinstance(message, Advertise):
            if self._phase != ROUND_ADVERTISE:
                raise AggregationError(
                    "Advertise outside the advertise phase"
                )
            if sender in self.rejections:
                return  # Rejected at Hello; the keys are ignored.
            if sender not in self._hellos:
                raise AggregationError(
                    f"client {sender} advertised keys without a Hello"
                )
            if sender in self._advertisements:
                raise AggregationError(
                    f"duplicate advertisement from client {sender}"
                )
            if message.width != self._key_width:
                raise AggregationError(
                    f"client {sender} advertised {message.width}-byte keys; "
                    f"this round's are {self._key_width} bytes"
                )
            self._advertisements[sender] = message
            return
        self._check_header(header, sender)
        if isinstance(message, SealedUpload):
            if self._phase != ROUND_SHARE_KEYS:
                raise AggregationError(
                    "SealedUpload outside the share-keys phase"
                )
            self._require_expected(sender)
            if sender in self._sealed_uploads:
                raise AggregationError(
                    f"client {sender} sent a second share-keys upload"
                )
            # What an honest client emits for the roster broadcast is
            # fixed by the round: one envelope per roster member, each
            # of the group's length.
            shape = (len(self._share_roster), self._sealed_length)
            if message.ciphertexts.shape != shape:
                count, length = message.ciphertexts.shape
                raise AggregationError(
                    f"client {sender} sent {count} envelopes of {length} "
                    f"bytes; this round's uploads are {shape[0]} of {shape[1]}"
                )
            self._sealed_uploads[sender] = message.ciphertexts
            return
        if isinstance(message, MaskedInput):
            if self._phase != ROUND_MASKED_INPUT:
                raise AggregationError(
                    "MaskedInput outside the masked-input phase"
                )
            self._require_expected(sender)
            if sender in self._masked:
                raise AggregationError(
                    f"duplicate masked input from client {sender}"
                )
            # Held to the round's width, dimension and alphabet here,
            # where the sender can still be named and evicted, instead
            # of failing everyone's phase at its close.
            if message.bits != self._bits:
                raise AggregationError(
                    f"client {sender} sent {message.bits}-bit coordinates; "
                    f"this round's are {self._bits} bits"
                )
            self._crypto.check_masked_input(sender, message.vector)
            self._masked[sender] = message.vector
            return
        if isinstance(message, UnmaskResponse):
            if self._phase != ROUND_UNMASK:
                raise AggregationError(
                    "UnmaskResponse outside the unmask phase"
                )
            self._require_expected(sender)
            if sender in self._responses:
                raise AggregationError(
                    f"client {sender} sent a second unmask response"
                )
            # Held to the shape the round fixed before it is stored, so
            # a malformed response evicts its sender here instead of
            # failing the whole quorum at recovery.
            self._crypto.check_unmask_response(message)
            self._responses[sender] = message
            return
        raise AggregationError(
            f"the server cannot ingest {type(message).__name__} frames"
        )

    def _count_negotiation(self, outcome: str, reason: str | None = None) -> None:
        if self._m_negotiations is not None:
            self._m_negotiations.labels(outcome=outcome).inc()
            if reason is not None:
                self._m_rejects.labels(reason=reason).inc()

    def _require_expected(self, sender: int) -> None:
        if sender not in self._expected:
            raise AggregationError(
                f"client {sender} is not a participant of the "
                f"{self.phase_tag} phase"
            )

    # -- outbound ---------------------------------------------------------

    def advance(self) -> dict[int, bytes]:
        """Close the current phase and emit the per-recipient datagrams.

        Returns:
            Recipient index -> encoded frame (the roster, a routed
            mailbox, the unmask request, or a Reject notice).  Empty
            after the final phase.

        Raises:
            AggregationError: If the phase's deliveries fall below the
                Shamir threshold.
            NegotiationError: If Hello rejections pushed the accepted
                roster below the threshold.
        """
        if self._phase == ROUND_ADVERTISE:
            out = self._close_advertise()
        elif self._phase == ROUND_SHARE_KEYS:
            out = self._route_columns()
        elif self._phase == ROUND_MASKED_INPUT:
            out = self._close_masked_input()
        elif self._phase == ROUND_UNMASK:
            self._modular_sum = self._crypto.recover_sum(
                list(self._responses.values())
            )
            self._expected = frozenset()
            self._phase = PHASE_DONE
            return {}
        else:
            raise AggregationError("the round is already complete")
        tag = PHASE_TAGS[self._phase]
        for recipient, (payload, messages) in out.items():
            self.stats.record_download(
                tag, recipient, len(payload), messages=messages
            )
            if self._m_frames_out is not None:
                self._m_frames_out.inc(messages)
        self._phase += 1
        deliveries = {
            recipient: payload for recipient, (payload, _) in out.items()
        }
        if self.resumable:
            for recipient, payload in deliveries.items():
                self._delivery_log.setdefault(recipient, []).append(payload)
        return deliveries

    def _close_advertise(self) -> dict[int, tuple[bytes, int]]:
        try:
            roster = self._crypto.collect_advertisements(
                list(self._advertisements.values())
            )
        except AggregationError as error:
            if self.rejections:
                raise NegotiationError(
                    f"{error} (after rejecting clients "
                    f"{sorted(self.rejections)} at Hello)"
                ) from error
            raise
        # One roster frame, shared by every recipient.
        broadcast = encode_message(roster, self.header)
        out: dict[int, tuple[bytes, int]] = {
            index: (broadcast, 1) for index in roster.indices
        }
        for client, reason in self.rejections.items():
            out[client] = (
                encode_message(
                    Reject(client=client, reason=reason), self.header
                ),
                1,
            )
        self._expected = frozenset(roster.indices)
        self._share_roster = list(roster.indices)
        return out

    def _route_columns(self) -> dict[int, tuple[bytes, int]]:
        """Route the share-keys phase as one transpose.

        Every stored upload is a ``(roster, L)`` ciphertext matrix
        (:meth:`_dispatch` admits nothing else), so the whole phase is
        one ``(senders, roster, L)`` uint8 stack; a recipient's mailbox
        is a plane of its transpose — rows in sorted-sender order, named
        by the delivery's sender column — and goes only to clients that
        themselves completed the phase.
        """
        senders = sorted(self._sealed_uploads)
        survivors = self._crypto.register_share_keys(senders)
        routed = np.ascontiguousarray(
            np.stack(
                [self._sealed_uploads[sender] for sender in senders]
            ).transpose(1, 0, 2)
        )
        column = np.asarray(senders, dtype="<u4")
        out = {
            recipient: (
                encode_message(
                    SealedDelivery(recipient, column, routed[position]),
                    self.header,
                ),
                1,
            )
            for position, recipient in enumerate(self._share_roster)
            if recipient in survivors
        }
        self._sealed_uploads.clear()
        self._expected = frozenset(out)
        return out

    def _close_masked_input(self) -> dict[int, tuple[bytes, int]]:
        request = self._crypto.collect_masked_inputs(self._masked)
        if self._tamper is not None:
            request = self._tamper(request)
            self.tampered = True
        self._request = request
        payload = encode_message(request, self.header)
        out = {
            survivor: (payload, 1) for survivor in sorted(request.survivors)
        }
        self._expected = frozenset(request.survivors)
        return out


class RoundDriver:
    """One round of one :class:`ServerSession`, closed phase by phase.

    The only code that calls :meth:`ServerSession.receive` and
    :meth:`ServerSession.advance`.  A transport hands it every datagram
    that arrives (:meth:`offer`), tells it who it gave up on
    (:meth:`evict`, :meth:`timeout`) and asks it to :meth:`close` the
    phase once :attr:`waiting` is empty or its deadline passed; what a
    refusal, a closed phase and an abort mean is decided here, once:

    * a datagram the session refuses evicts its sender — ``"protocol"``
      for an :class:`~repro.errors.AggregationError` (spoofed origin,
      wrong shape, out of phase, a re-send on a loss-free transport),
      ``"conflict"`` for a :class:`~repro.errors.ConflictError` — and
      the round goes on; it aborts only when :meth:`close` finds the
      phase under its threshold;
    * a closed phase is metered once: wall (and, given ``now``,
      simulated) seconds since the previous close, the phase's
      :meth:`WireStats.phase_summary
      <repro.secagg.wire.WireStats.phase_summary>` totals as wire
      counters and a ``wire-phase`` trace event, and one
      ``secagg_clients_dropped_total`` per member the phase expected and
      closed without, whatever kept it away;
    * an abort leaves :attr:`abort_phase` and :attr:`survivors_at_abort`
      behind and counts the round aborted, once.

    Sans-I/O like the session it wraps: no asyncio, no socket, and no
    clock beyond ``time.perf_counter`` for the wall histogram and the
    caller's ``now`` for the simulated one.

    Args:
        session: The round's server session.
        cohort: Who may deliver the advertise phase (afterwards the
            session tracks the shrinking participant set itself).
        metrics: Registry for the ``secagg_*`` round families, which are
            registered here and nowhere else; ``None`` (default) meters
            nothing.
        now: Reads the caller's simulated clock, for
            ``secagg_phase_sim_duration_seconds``; a transport on the
            wall clock has none.
        record: Trace sink ``record(kind, **details)``; receives
            ``message-received`` / ``message-ignored`` /
            ``client-evicted`` / ``phase-timeout`` / ``wire-phase``.
    """

    def __init__(
        self,
        session: ServerSession,
        cohort: Iterable[int],
        metrics: MetricsRegistry | None = None,
        now: Callable[[], float] | None = None,
        record: Callable[..., None] | None = None,
    ) -> None:
        self.session = session
        self._cohort = frozenset(cohort)
        #: Evicted client -> why (``"protocol"``, ``"conflict"``, or the
        #: transport's own reason such as ``"disconnect"``).
        self.evicted: dict[int, str] = {}
        #: On abort, the phase that failed and who had delivered it —
        #: before the masking phase commits those survivors can be
        #: re-homed to a sibling shard instead of dropped with theirs.
        self.abort_phase: int | None = None
        self.survivors_at_abort: frozenset[int] = frozenset()
        self._now = now
        self._record = record
        self._metrics = metrics
        if metrics is not None:
            if now is not None:
                self._m_sim_phase = metrics.histogram(
                    SIM_PHASE_HISTOGRAM,
                    "Simulated seconds per protocol phase.",
                )
            self._m_wall_phase = metrics.histogram(
                WALL_PHASE_HISTOGRAM,
                "Wall-clock compute seconds per protocol phase.",
            )
            self._m_rounds = metrics.counter(
                "secagg_rounds_total",
                "Secure-aggregation rounds finished, by outcome.",
            )
            self._m_dropped = metrics.counter(
                "secagg_clients_dropped_total",
                "Members a phase expected and closed without, by phase.",
            )
            self._m_timeouts = metrics.counter(
                "secagg_phase_timeouts_total",
                "Phases the server closed at the deadline, by phase.",
            )
            self._m_ignored = metrics.counter(
                "secagg_messages_ignored_total",
                "Datagrams ignored: stragglers, re-sends, unknown senders.",
            ).labels()
            self._m_wire_messages = metrics.counter(
                "secagg_wire_messages_total",
                "Protocol messages on the wire, by phase and direction.",
            )
            self._m_wire_bytes = metrics.counter(
                "secagg_wire_bytes_total",
                "Serialized bytes on the wire, by phase and direction.",
            )
        self._open_phase()

    def _open_phase(self) -> None:
        session = self.session
        self._members = (
            self._cohort
            if session.phase == ROUND_ADVERTISE
            else session.expected
        )
        self._waiting = set(self._members).difference(self.evicted)
        if self._metrics is not None:
            self._wall_start = time.perf_counter()
            self._sim_start = self._now() if self._now is not None else None

    def _note(self, kind: str, **details) -> None:
        if self._record is not None:
            self._record(kind, **details)

    @property
    def waiting(self) -> Set[int]:
        """Members the phase still waits on: the cohort during
        advertise, afterwards :attr:`ServerSession.expected`, minus
        whoever delivered or was evicted.  A live read-only view."""
        return self._waiting

    def offer(self, sender: int, data: bytes) -> str | None:
        """Hand the session one datagram under its transport-bound sender.

        Returns:
            ``None`` when the session accepted it, else why not:
            ``"ignored"`` — the sender is not (or no longer) part of
            the phase, or a resumable session has these very bytes
            already (redelivery after a resume is idempotent) — counted,
            nothing else happens; ``"protocol"`` / ``"conflict"`` — the
            session refused it and the sender is now evicted.
        """
        session = self.session
        tag = session.phase_tag
        if (
            sender not in self._members
            or sender in self.evicted
            or (session.resumable and session.already_ingested(sender, data))
        ):
            self._note("message-ignored", sender=sender, during=tag)
            if self._metrics is not None:
                self._m_ignored.inc()
            return "ignored"
        try:
            session.receive(data, sender=sender)
        except AggregationError as error:
            reason = (
                "conflict" if isinstance(error, ConflictError) else "protocol"
            )
            self.evict(sender, reason)
            return reason
        self._waiting.discard(sender)
        self._note("message-received", sender=sender, phase=tag)
        return None

    def evict(self, sender: int, reason: str) -> bool:
        """Drop ``sender`` from the round; true unless already evicted.

        Nothing it sends is looked at again and nothing further is
        addressed to it.  If it had already delivered the current phase
        that upload is retracted, so the phase closes without it.
        """
        if sender in self.evicted:
            return False
        self.evicted[sender] = reason
        if sender in self._members and sender not in self._waiting:
            self.session.retract(sender)
        self._waiting.discard(sender)
        self._note(
            "client-evicted",
            client=sender,
            phase=self.session.phase_tag,
            reason=reason,
        )
        return True

    def timeout(self) -> frozenset[int]:
        """The phase's deadline passed; returns who it was waiting on.

        They are not evicted — a straggler simply misses the phase and
        :meth:`close` counts it dropped like any other absentee.
        """
        tag = self.session.phase_tag
        missing = frozenset(self._waiting)
        self._note("phase-timeout", phase=tag, missing=sorted(missing))
        if self._metrics is not None:
            self._m_timeouts.labels(phase=tag).inc()
        return missing

    def abort(self) -> None:
        """Record where the round died and count it aborted, once.

        :meth:`close` calls it when the session finds the phase under
        threshold; a caller calls it when the round dies on its side of
        the loop (an injected server kill, an unrecoverable journal).
        """
        if self.abort_phase is None:
            self.abort_phase = self.session.phase
            self.survivors_at_abort = self.session.received()
            if self._metrics is not None:
                self._m_rounds.labels(outcome="aborted").inc()

    def close(self) -> dict[int, bytes]:
        """Close the phase; returns the datagrams to deliver.

        Evicted recipients are left out.  After the unmask phase the
        result is empty and the session holds the aggregate.

        Raises:
            AggregationError: If the phase's deliveries fall below the
                Shamir threshold (or Hello rejections took the roster
                there) — after :meth:`abort` recorded it.
        """
        session = self.session
        tag = session.phase_tag
        # A client refused at Hello did answer; it is counted where it
        # was refused (secagg_negotiations_total), not as dropped.
        absent = len(
            self._members.difference(session.received(), session.rejections)
        )
        try:
            deliveries = session.advance()
        except AggregationError:
            self.abort()
            raise
        if self._record is not None or self._metrics is not None:
            self._meter_phase(tag, absent)
        self._open_phase()
        if session.phase == PHASE_DONE and self._metrics is not None:
            self._m_rounds.labels(outcome="completed").inc()
        return {
            recipient: payload
            for recipient, payload in deliveries.items()
            if recipient not in self.evicted
        }

    def _meter_phase(self, tag: str, absent: int) -> None:
        # Each phase writes its wire cells exactly once (a recovered
        # round's replay happens before the first metered phase), so
        # the per-tag totals are the phase delta.
        totals = self.session.stats.phase_summary(tag)
        if totals is not None:
            self._note("wire-phase", phase=tag, **totals)
        if self._metrics is None:
            return
        self._m_wall_phase.labels(phase=tag).observe(
            time.perf_counter() - self._wall_start
        )
        if self._now is not None:
            self._m_sim_phase.labels(phase=tag).observe(
                self._now() - self._sim_start
            )
        if absent:
            self._m_dropped.labels(phase=tag).inc(absent)
        if totals is not None:
            for direction in ("up", "down"):
                count = totals[f"{direction}_messages"]
                if count:
                    self._m_wire_messages.labels(
                        phase=tag, direction=direction
                    ).inc(count)
                nbytes = totals[f"{direction}_bytes"]
                if nbytes:
                    self._m_wire_bytes.labels(
                        phase=tag, direction=direction
                    ).inc(nbytes)

    def restore(self, phases: Iterable[Mapping[int, bytes]]) -> None:
        """Replay phases a journal committed, unmetered.

        The crypto server draws no randomness, so feeding the committed
        uploads back in sorted order rebuilds the pre-crash session
        byte for byte, replay buffer included.

        Raises:
            AggregationError: If the session refuses the replay.
        """
        for uploads in phases:
            for client in sorted(uploads):
                self.session.receive(uploads[client], sender=client)
            self.session.advance()
        self._open_phase()


def drive_in_memory(
    server: ServerSession,
    clients: Mapping[int, ClientSession],
    responds: Callable[[int, int], bool] | None = None,
    metrics: MetricsRegistry | None = None,
) -> RoundDriver:
    """Drive one round synchronously: the in-memory caller of
    :class:`RoundDriver`.

    Every responding client opens with Hello + Advertise, then for each
    later phase the server's datagrams go to the clients in index order
    and their responses straight back, the phase closing once everyone
    still talking has answered.  On return the server holds the round's
    result (``modular_sum``, ``included``, ``stats``).

    Args:
        server: The round's server session.
        clients: Client session per nonzero index.
        responds: ``responds(index, phase)`` is false from the phase at
            which a client stops talking (it then neither receives nor
            answers); by default nobody drops.
        metrics: Registry the driver meters the round into; by default
            nothing is metered.

    Returns:
        The round's driver: who was evicted, and why.

    Raises:
        AggregationError: If a phase closes below the Shamir threshold
            or a *client* session refuses its input (a datagram the
            server session refuses only evicts its sender).
    """
    driver = RoundDriver(server, clients, metrics=metrics)
    for index in sorted(clients):
        if responds is None or responds(index, ROUND_ADVERTISE):
            driver.offer(index, b"".join(clients[index].start()))
    deliveries = driver.close()
    # Pre-derive the roster's pairwise DH keys in one vectorised sweep
    # (a pure memoisation warm-up; see warm_pairwise_agreements).
    warm_pairwise_agreements(
        [clients[index].crypto for index in sorted(server.expected)]
    )
    for phase in (ROUND_SHARE_KEYS, ROUND_MASKED_INPUT, ROUND_UNMASK):
        for index in sorted(deliveries):
            if responds is not None and not responds(index, phase):
                continue
            client = clients[index]
            responses = client.handle(deliveries[index])
            if responses and client.rejected is None:
                driver.offer(index, b"".join(responses))
        deliveries = driver.close()
    return driver
