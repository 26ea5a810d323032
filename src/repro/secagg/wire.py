"""Typed, versioned wire messages for the SecAgg protocol core.

Every message the Bonawitz protocol exchanges is defined here as a
frozen dataclass with a deterministic byte encoding, so the *same*
message types flow through every transport — the synchronous in-memory
driver (:func:`repro.secagg.bonawitz.run_bonawitz`), the
simulated-clock mailbox transport
(:class:`repro.simulation.rounds.AsyncSecAggRound`) and the
sharded process backend — and recorded traffic can be replayed
byte for byte.

Frame layout (all integers little-endian)::

    0..1   magic          b"SG"
    2      format version  uint8  (the *encoding* layout, WIRE_FORMAT_VERSION)
    3      message type    uint8
    4..7   frame length    uint32 (whole frame, header included)
    8..9   protocol version uint16 — the negotiated header
    10     PRG name length uint8     (protocol version + MaskPrg
    11..   PRG name        ascii      backend name, on every frame)
    ...    message body

The two-part header separates concerns deliberately: the *format
version* says how to parse the bytes; the *negotiated header*
(:class:`NegotiatedHeader`) says which protocol semantics the sender is
speaking — the protocol version and the mask-PRG backend that all
participants of a round must agree on (``"shake256"`` by default;
``"sha256-ctr"`` is the compatibility suite, bit-identical to the
original implementation).  Negotiation happens at :class:`Hello`: the
server checks each client's proposed header and answers with a typed
:class:`Reject` (surfaced client-side as
:class:`repro.errors.NegotiationError`) instead of crashing mid-round.

Frames are self-delimiting, so several messages concatenate into one
transport datagram (a client's round-1 upload is one frame per sealed
envelope); :func:`decode_frames` walks them back out.
:func:`encode_message` and :func:`iter_frames` are the codec of every
message.  The one leg with O(n²) frames a round — sealed shares — also
has an array-at-a-time encoder, decoder and router
(:func:`encode_sealed_matrix`, :func:`decode_sealed_columns`,
:func:`route_sealed_stack`) whose bytes are pinned to the per-frame
ones; a masked input and an unmask response are one frame per client
and already arrays inside it.  Multi-byte integers that can exceed 64
bits (DH public keys, Shamir share values) use a minimal-length,
length-prefixed little-endian encoding, keeping the format
deterministic: equal messages encode to equal bytes.

:class:`WireStats` is the per-round accounting ledger — message counts
and serialized bytes per phase, per client, in both directions — that
transports attach to their round outcomes.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AggregationError
from repro.secagg.shamir import LimbShares

#: First bytes of every frame.
WIRE_MAGIC = b"SG"

#: Version of the byte *layout* (bump when the framing itself changes).
WIRE_FORMAT_VERSION = 1

#: Protocol semantics version 1: four-round Bonawitz, negotiated PRG.
PROTOCOL_V1 = 1

#: Protocol versions this implementation can speak.
SUPPORTED_PROTOCOL_VERSIONS = frozenset({PROTOCOL_V1})

# Message type tags (uint8 in the frame header).
MSG_HELLO = 1
MSG_ADVERTISE = 2
MSG_SEALED_SHARES = 3
MSG_MASKED_INPUT = 4
MSG_UNMASK_REQUEST = 5
MSG_UNMASK_RESPONSE = 6
MSG_REJECT = 7
MSG_WELCOME = 8
MSG_RESUME = 9

_HEADER = struct.Struct("<2sBBIHB")  # magic, fmt, type, length, version, prg len
_SEALED_BODY = struct.Struct("<III")  # sender, recipient, ciphertext length
_MASKED_PREFIX = struct.Struct("<II")  # sender, dimension


@dataclasses.dataclass(frozen=True)
class NegotiatedHeader:
    """The negotiated protocol context carried on every frame.

    Attributes:
        version: Protocol semantics version (``PROTOCOL_V1``).
        mask_prg: The negotiated backend string every participant of the
            round must share.  A plain mask-PRG registry name
            (:data:`repro.secagg.kernels.MASK_PRGS`) implies classic
            modular DH; ``"<prg>+<kex>"`` additionally selects a
            key-agreement backend (see :func:`split_suite`), keeping
            pre-existing byte streams unchanged.
    """

    version: int
    mask_prg: str

    def __post_init__(self) -> None:
        if not 0 <= self.version < (1 << 16):
            raise AggregationError(
                f"protocol version must fit uint16, got {self.version}"
            )
        try:
            encoded = self.mask_prg.encode("ascii")
        except UnicodeEncodeError:
            raise AggregationError(
                f"mask PRG name must be ascii, got {self.mask_prg!r}"
            ) from None
        if not 0 < len(encoded) < 256:
            raise AggregationError(
                f"mask PRG name must be 1..255 ascii bytes, got "
                f"{self.mask_prg!r}"
            )


#: Interned headers, keyed by (version, prg-name bytes).  Frames are
#: decoded quadratically often per round and almost always carry the
#: round's one negotiated header; interning makes per-frame header
#: "construction" a dict hit and header comparison an identity check.
#: Bounded defensively (adversarial streams could mint names).
_HEADER_CACHE_MAX = 4096
_header_cache: dict[tuple[int, bytes], NegotiatedHeader] = {}


def intern_header(version: int, mask_prg: str | bytes) -> NegotiatedHeader:
    """Return the canonical :class:`NegotiatedHeader` for these values.

    Sessions and the decoder share this pool, so equal headers are the
    *same* object and the per-frame ``header == negotiated`` checks on
    the hot path short-circuit on identity.
    """
    name_bytes = (
        mask_prg if isinstance(mask_prg, bytes) else mask_prg.encode("ascii")
    )
    key = (version, name_bytes)
    header = _header_cache.get(key)
    if header is None:
        try:
            name = name_bytes.decode("ascii")
        except UnicodeDecodeError:
            raise AggregationError(
                "malformed wire frame: non-ascii PRG name"
            ) from None
        header = NegotiatedHeader(version=version, mask_prg=name)
        if len(_header_cache) >= _HEADER_CACHE_MAX:
            _header_cache.clear()
        _header_cache[key] = header
    return header


def split_suite(name: str) -> tuple[str, str]:
    """Split a negotiated backend string into (mask PRG, key agreement).

    A bare PRG name means classic modular DH (``"mod-dh"``) — exactly
    what every pre-x25519 frame carried, so old byte streams and golden
    vectors parse unchanged; ``"<prg>+<kex>"`` names both backends.
    """
    prg, sep, kex = name.partition("+")
    return prg, (kex if sep else "mod-dh")


@dataclasses.dataclass(frozen=True)
class Hello:
    """Round-start handshake: ``sender`` proposes this frame's header.

    The negotiation payload *is* the frame's :class:`NegotiatedHeader`;
    the body only identifies the client proposing it.
    """

    sender: int


@dataclasses.dataclass(frozen=True)
class Advertise:
    """A client's round-0 message: its two DH public keys."""

    index: int
    channel_public: int
    mask_public: int


@dataclasses.dataclass(frozen=True)
class SealedShares:
    """A round-1 envelope: shares of ``(b_u, s_u^SK)`` sealed for one peer.

    The server forwards envelopes without the channel key, so the payload
    is an opaque byte string from its point of view.
    """

    sender: int
    recipient: int
    ciphertext: bytes


@dataclasses.dataclass(frozen=True, eq=False)
class MaskedInput:
    """A client's round-2 upload: the doubly masked vector over ``Z_m``."""

    sender: int
    vector: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskedInput):
            return NotImplemented
        return self.sender == other.sender and np.array_equal(
            self.vector, other.vector
        )

    def __hash__(self) -> int:
        # Defining __eq__ suppresses the implicit hash; stay hashable
        # (consistently with __eq__) like every other message type.
        return hash((self.sender, self.vector.tobytes()))


@dataclasses.dataclass(frozen=True)
class UnmaskRequest:
    """The server's round-3 announcement of who survived.

    Attributes:
        survivors: ``U2`` — clients whose masked input was received; their
            self-mask seeds must be reconstructed.
        dropouts: ``U1 \\ U2`` — clients whose pairwise masks linger in the
            aggregate; their mask private keys must be reconstructed.
    """

    survivors: frozenset[int]
    dropouts: frozenset[int]


@dataclasses.dataclass(frozen=True, eq=False)
class UnmaskResponse:
    """One client's round-3 reply: the requested shares it holds.

    The seed section scales with the survivor count (one share per
    survivor, in every response), so it is columnar in memory as it is
    on the wire: ``peers`` holds the survivor ids, ``xs`` / ``ys`` the
    matching share columns (``ys`` is uint64 — every sharing field fits
    it).  The key section scales with the (few) dropouts and stays a
    per-peer dict.  The server consumes the columns as they are — one
    transpose at recovery instead of O(survivors × threshold) dict
    lookups.
    """

    responder: int
    peers: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    key_shares: dict[int, LimbShares]

    def _columns(self) -> tuple:
        return tuple(
            tuple(np.asarray(column).tolist())
            for column in (self.peers, self.xs, self.ys)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnmaskResponse):
            return NotImplemented
        return (
            self.responder == other.responder
            and self._columns() == other._columns()
            and self.key_shares == other.key_shares
        )

    def __hash__(self) -> int:
        # Values, not buffers: a decoded response (uint32 columns) and
        # the one a client built compare and hash alike.
        return hash((self.responder, self._columns()))


@dataclasses.dataclass(frozen=True)
class Reject:
    """Typed negotiation failure: the server refuses ``client`` at Hello.

    Carried on a frame bearing the *server's* negotiated header, so the
    rejected client learns what the round actually speaks.
    """

    client: int
    reason: str


@dataclasses.dataclass(frozen=True)
class Welcome:
    """Transport-level round admission: ``client`` is in round ``round_id``.

    Sent by the socket server once the cohort is gathered (and again as
    the positive acknowledgement of an accepted :class:`Resume`).  The
    round id is the durable identity the journal charges epsilon
    against, so clients quote it back when resuming.  Never fed to the
    protocol state machine — it is connection plumbing, not protocol
    state.
    """

    client: int
    round_id: int


@dataclasses.dataclass(frozen=True)
class Resume:
    """A reconnecting client's request to rejoin an in-flight round.

    Attributes:
        sender: The client index (same identity the Hello bound).
        round_id: The round the client believes it is resuming — a
            stale id is rejected, never silently remapped.
        deliveries: How many phase deliveries the client has already
            processed; the server replays everything from that point.
    """

    sender: int
    round_id: int
    deliveries: int


Message = (
    Hello
    | Advertise
    | SealedShares
    | MaskedInput
    | UnmaskRequest
    | UnmaskResponse
    | Reject
    | Welcome
    | Resume
)

_TYPE_OF_MESSAGE = {
    Hello: MSG_HELLO,
    Advertise: MSG_ADVERTISE,
    SealedShares: MSG_SEALED_SHARES,
    MaskedInput: MSG_MASKED_INPUT,
    UnmaskRequest: MSG_UNMASK_REQUEST,
    UnmaskResponse: MSG_UNMASK_RESPONSE,
    Reject: MSG_REJECT,
    Welcome: MSG_WELCOME,
    Resume: MSG_RESUME,
}


_COLUMN_WIDTHS = (1, 2, 4, 8)


def _column_width(max_value: int) -> int:
    """Smallest power-of-two byte width holding ``max_value``.

    Power-of-two widths keep the columnar sections numpy-decodable;
    the choice is a pure function of the values, so the encoding stays
    deterministic.  Share values live in a field that fits uint64, so 8
    is the widest column there is.
    """
    for width in _COLUMN_WIDTHS:
        if max_value < 1 << (8 * width):
            return width
    raise AggregationError(
        f"share value too wide for the wire: {max_value.bit_length()} bits"
    )


def _encode_biguint(value: int) -> bytes:
    """Length-prefixed minimal little-endian encoding of a non-negative int.

    Deterministic: every integer has exactly one encoding (minimal byte
    length; zero encodes as a single zero byte).
    """
    if value < 0:
        raise AggregationError(f"wire integers must be >= 0, got {value}")
    width = max(1, (value.bit_length() + 7) // 8)
    if width >= (1 << 16):
        raise AggregationError(f"integer too wide for the wire: {width} bytes")
    return width.to_bytes(2, "little") + value.to_bytes(width, "little")


class _Reader:
    """Bounds-checked cursor over one frame's body."""

    def __init__(self, data: memoryview, start: int, end: int) -> None:
        self._data = data
        self._pos = start
        self._end = end

    def take(self, count: int) -> memoryview:
        if self._pos + count > self._end:
            raise AggregationError(
                "malformed wire frame: body truncated "
                f"({self._end - self._pos} bytes left, {count} needed)"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def biguint(self) -> int:
        width = self.u16()
        if width == 0:
            raise AggregationError("malformed wire frame: zero-width integer")
        return int.from_bytes(self.take(width), "little")

    def done(self) -> bool:
        return self._pos == self._end

    def require_done(self) -> None:
        if not self.done():
            raise AggregationError(
                "malformed wire frame: "
                f"{self._end - self._pos} trailing body bytes"
            )


def _encode_index_set(values: frozenset[int]) -> bytes:
    ordered = sorted(values)
    return b"".join(
        [len(ordered).to_bytes(4, "little")]
        + [value.to_bytes(4, "little") for value in ordered]
    )


def _decode_index_set(reader: _Reader) -> frozenset[int]:
    count = reader.u32()
    return frozenset(reader.u32() for _ in range(count))


def _encode_body(message: Message) -> bytes:
    if isinstance(message, Hello):
        return message.sender.to_bytes(4, "little")
    if isinstance(message, Advertise):
        return (
            message.index.to_bytes(4, "little")
            + _encode_biguint(message.channel_public)
            + _encode_biguint(message.mask_public)
        )
    if isinstance(message, SealedShares):
        return (
            message.sender.to_bytes(4, "little")
            + message.recipient.to_bytes(4, "little")
            + len(message.ciphertext).to_bytes(4, "little")
            + message.ciphertext
        )
    if isinstance(message, MaskedInput):
        vector = np.ascontiguousarray(message.vector, dtype="<i8")
        if vector.ndim != 1:
            raise AggregationError(
                f"masked input must be 1-d, got shape {vector.shape}"
            )
        return (
            message.sender.to_bytes(4, "little")
            + vector.shape[0].to_bytes(4, "little")
            + vector.tobytes()
        )
    if isinstance(message, UnmaskRequest):
        return _encode_index_set(message.survivors) + _encode_index_set(
            message.dropouts
        )
    if isinstance(message, UnmaskResponse):
        # The seed columns go out as they are, at the one fixed byte
        # width their largest value needs; the key section is per peer.
        count = int(message.peers.shape[0])
        parts = [
            message.responder.to_bytes(4, "little"),
            count.to_bytes(4, "little"),
        ]
        if count:
            width = _column_width(int(message.ys.max()))
            parts.append(width.to_bytes(1, "little"))
            parts.extend(
                np.ascontiguousarray(column, dtype="<u4").tobytes()
                for column in (message.peers, message.xs)
            )
            parts.append(
                np.asarray(message.ys, dtype="<u8")
                .astype(f"<u{width}")
                .tobytes()
            )
        else:
            parts.append((1).to_bytes(1, "little"))
        parts.append(len(message.key_shares).to_bytes(4, "little"))
        for peer in sorted(message.key_shares):
            limb_shares = message.key_shares[peer]
            parts.append(peer.to_bytes(4, "little"))
            parts.append(limb_shares.x.to_bytes(4, "little"))
            parts.append(len(limb_shares.ys).to_bytes(2, "little"))
            parts.extend(_encode_biguint(y) for y in limb_shares.ys)
        return b"".join(parts)
    if isinstance(message, Reject):
        reason = message.reason.encode("utf-8")
        return (
            message.client.to_bytes(4, "little")
            + len(reason).to_bytes(2, "little")
            + reason
        )
    if isinstance(message, Welcome):
        return message.client.to_bytes(4, "little") + message.round_id.to_bytes(
            8, "little"
        )
    if isinstance(message, Resume):
        if not 0 <= message.deliveries < 256:
            raise AggregationError(
                f"resume delivery count must fit uint8, got "
                f"{message.deliveries}"
            )
        return (
            message.sender.to_bytes(4, "little")
            + message.round_id.to_bytes(8, "little")
            + message.deliveries.to_bytes(1, "little")
        )
    raise AggregationError(f"cannot encode {type(message).__name__} frames")


def _decode_body(msg_type: int, reader: _Reader) -> Message:
    """Generic decoder for the types without a :func:`_decode_fast` path."""
    if msg_type == MSG_HELLO:
        message: Message = Hello(sender=reader.u32())
    elif msg_type == MSG_UNMASK_REQUEST:
        message = UnmaskRequest(
            survivors=_decode_index_set(reader),
            dropouts=_decode_index_set(reader),
        )
    elif msg_type == MSG_REJECT:
        client = reader.u32()
        length = reader.u16()
        message = Reject(
            client=client, reason=bytes(reader.take(length)).decode("utf-8")
        )
    elif msg_type == MSG_WELCOME:
        message = Welcome(
            client=reader.u32(),
            round_id=int.from_bytes(reader.take(8), "little"),
        )
    elif msg_type == MSG_RESUME:
        message = Resume(
            sender=reader.u32(),
            round_id=int.from_bytes(reader.take(8), "little"),
            deliveries=reader.u8(),
        )
    else:
        raise AggregationError(f"unknown wire message type {msg_type}")
    reader.require_done()
    return message


def _frame(msg_type: int, body: bytes, header: NegotiatedHeader) -> bytes:
    """Wrap an encoded body into a self-delimiting frame."""
    prg = header.mask_prg.encode("ascii")
    length = _HEADER.size + len(prg) + len(body)
    return (
        _HEADER.pack(
            WIRE_MAGIC,
            WIRE_FORMAT_VERSION,
            msg_type,
            length,
            header.version,
            len(prg),
        )
        + prg
        + body
    )


def encode_message(message: Message, header: NegotiatedHeader) -> bytes:
    """Serialise one message into a self-delimiting frame.

    Deterministic: equal ``(message, header)`` pairs always produce
    identical bytes (sets are sorted, integers minimally encoded).
    """
    try:
        msg_type = _TYPE_OF_MESSAGE[type(message)]
    except KeyError:
        raise AggregationError(
            f"cannot encode {type(message).__name__} frames"
        ) from None
    return _frame(msg_type, _encode_body(message), header)


def _decode_fast(
    msg_type: int, view: memoryview, start: int, end: int
) -> Message | None:
    """Allocation-light decoders for the quadratically frequent types.

    Returns ``None`` for the types :func:`_decode_body` covers; a type
    has one decoder, and malformed frames end in the same typed errors
    on both.
    """
    if msg_type == MSG_SEALED_SHARES:
        if end - start < _SEALED_BODY.size:
            raise AggregationError(
                "malformed wire frame: body truncated "
                f"({end - start} bytes left, {_SEALED_BODY.size} needed)"
            )
        sender, recipient, length = _SEALED_BODY.unpack_from(view, start)
        if end - start - _SEALED_BODY.size != length:
            raise AggregationError(
                "malformed wire frame: ciphertext length mismatch"
            )
        return SealedShares(
            sender=sender,
            recipient=recipient,
            ciphertext=bytes(view[start + _SEALED_BODY.size : end]),
        )
    if msg_type == MSG_MASKED_INPUT:
        if end - start < _MASKED_PREFIX.size:
            raise AggregationError(
                "malformed wire frame: body truncated "
                f"({end - start} bytes left, {_MASKED_PREFIX.size} needed)"
            )
        sender, dimension = _MASKED_PREFIX.unpack_from(view, start)
        if end - start - _MASKED_PREFIX.size != 8 * dimension:
            raise AggregationError(
                "malformed wire frame: masked-input length mismatch"
            )
        return MaskedInput(
            sender=sender,
            vector=np.frombuffer(
                view[start + _MASKED_PREFIX.size : end], dtype="<i8"
            ).astype(np.int64),
        )
    if msg_type == MSG_UNMASK_RESPONSE:
        from_bytes = int.from_bytes
        cursor = start

        def read_uint(width: int) -> int:
            nonlocal cursor
            if cursor + width > end:
                raise AggregationError(
                    "malformed wire frame: body truncated "
                    f"({end - cursor} bytes left, {width} needed)"
                )
            value = from_bytes(view[cursor : cursor + width], "little")
            cursor += width
            return value

        def read_biguint() -> int:
            width = read_uint(2)
            if width == 0:
                raise AggregationError(
                    "malformed wire frame: zero-width integer"
                )
            return read_uint(width)

        responder = read_uint(4)
        seed_count = read_uint(4)
        seed_width = read_uint(1)
        if seed_width not in _COLUMN_WIDTHS:
            raise AggregationError(
                f"malformed wire frame: seed column width {seed_width}"
            )
        # The seed section stays columnar — zero per-survivor objects.
        peers = xs = ys = np.empty(0, dtype=np.uint64)
        if seed_count:
            columns = 8 + seed_width
            if cursor + seed_count * columns > end:
                raise AggregationError(
                    "malformed wire frame: body truncated "
                    f"({end - cursor} bytes left, "
                    f"{seed_count * columns} needed)"
                )
            peers = np.frombuffer(
                view, dtype="<u4", count=seed_count, offset=cursor
            )
            cursor += 4 * seed_count
            xs = np.frombuffer(
                view, dtype="<u4", count=seed_count, offset=cursor
            )
            cursor += 4 * seed_count
            ys = np.frombuffer(
                view, dtype=f"<u{seed_width}", count=seed_count, offset=cursor
            ).astype(np.uint64)
            cursor += seed_width * seed_count
        key_shares: dict[int, LimbShares] = {}
        for _ in range(read_uint(4)):
            peer = read_uint(4)
            x = read_uint(4)
            num_limbs = read_uint(2)
            key_shares[peer] = LimbShares(
                x=x, ys=tuple(read_biguint() for _ in range(num_limbs))
            )
        if cursor != end:
            raise AggregationError(
                f"malformed wire frame: {end - cursor} trailing body bytes"
            )
        return UnmaskResponse(responder, peers, xs, ys, key_shares)
    if msg_type == MSG_ADVERTISE:
        if end - start < 8:
            raise AggregationError(
                "malformed wire frame: body truncated "
                f"({end - start} bytes left, 8 needed)"
            )
        index = int.from_bytes(view[start : start + 4], "little")
        cursor = start + 4
        values = []
        for _ in range(2):
            width = int.from_bytes(view[cursor : cursor + 2], "little")
            cursor += 2
            if width == 0:
                raise AggregationError(
                    "malformed wire frame: zero-width integer"
                )
            if cursor + width > end:
                raise AggregationError(
                    "malformed wire frame: body truncated "
                    f"({end - cursor} bytes left, {width} needed)"
                )
            values.append(
                int.from_bytes(view[cursor : cursor + width], "little")
            )
            cursor += width
        if cursor != end:
            raise AggregationError(
                f"malformed wire frame: {end - cursor} trailing body bytes"
            )
        return Advertise(
            index=index, channel_public=values[0], mask_public=values[1]
        )
    return None


def encode_sealed_matrix(
    sender: int,
    recipients: Sequence[int],
    ciphertexts: np.ndarray,
    header: NegotiatedHeader,
) -> bytes:
    """Encode one sender's whole envelope matrix as a frame stream.

    Byte-identical to concatenating :func:`encode_message` over the
    corresponding :class:`SealedShares` objects, built with a handful of
    numpy assignments instead of quadratically many Python frames.

    Args:
        sender: The uploading client.
        recipients: Row owner per matrix row.
        ciphertexts: ``(n, L)`` uint8 envelope matrix.
        header: The sender's negotiated header.
    """
    count, ciphertext_len = ciphertexts.shape
    prg = header.mask_prg.encode("ascii")
    header_size = _HEADER.size + len(prg)
    frame_len = header_size + _SEALED_BODY.size + ciphertext_len
    prefix = (
        _HEADER.pack(
            WIRE_MAGIC,
            WIRE_FORMAT_VERSION,
            MSG_SEALED_SHARES,
            frame_len,
            header.version,
            len(prg),
        )
        + prg
    )
    frames = np.empty((count, frame_len), dtype=np.uint8)
    frames[:, :header_size] = np.frombuffer(prefix, dtype=np.uint8)
    fields = np.empty((count, 3), dtype="<u4")
    fields[:, 0] = sender
    fields[:, 1] = recipients
    fields[:, 2] = ciphertext_len
    frames[:, header_size : header_size + _SEALED_BODY.size] = fields.view(
        np.uint8
    ).reshape(count, _SEALED_BODY.size)
    frames[:, header_size + _SEALED_BODY.size :] = ciphertexts
    return frames.tobytes()


def decode_sealed_columns(
    data: bytes,
) -> tuple[NegotiatedHeader, list[int], list[int], np.ndarray, int] | None:
    """Columnar bulk-parse of a homogeneous sealed-shares datagram.

    The protocol's quadratic leg is ``n`` equal-length
    :class:`SealedShares` frames per datagram (one sender's envelopes to
    the whole roster, or one recipient's routed mailbox — uniform
    because the mask-key limb count is fixed per DH group).  When the
    datagram has that exact shape, the fields are parsed with one numpy
    pass instead of a per-frame Python loop.

    Returns:
        ``(header, senders, recipients, ciphertext_matrix, frame_len)``
        where ``ciphertext_matrix`` is a zero-copy ``(n, L)`` uint8 view
        into ``data`` — or ``None`` whenever the datagram does not have
        the homogeneous shape (the sessions then refuse it).

    Raises:
        AggregationError: If the shape matches but a frame is corrupt.
    """
    total = len(data)
    if total < _HEADER.size:
        return None
    magic, fmt, msg_type, length, version, prg_len = _HEADER.unpack_from(
        data, 0
    )
    if (
        magic != WIRE_MAGIC
        or fmt != WIRE_FORMAT_VERSION
        or msg_type != MSG_SEALED_SHARES
        or length <= 0
        or total % length != 0
    ):
        return None
    header_size = _HEADER.size + prg_len
    ciphertext_len = length - header_size - _SEALED_BODY.size
    if ciphertext_len < 0 or length > total:
        return None
    count = total // length
    table = np.frombuffer(data, dtype=np.uint8).reshape(count, length)
    if count > 1 and not np.array_equal(
        table[1:, :header_size],
        np.broadcast_to(table[0, :header_size], (count - 1, header_size)),
    ):
        return None  # Heterogeneous headers: not one uniform stream.
    header = intern_header(version, bytes(data[_HEADER.size : header_size]))
    fields = np.ascontiguousarray(
        table[:, header_size : header_size + _SEALED_BODY.size]
    ).view("<u4")
    if not (fields[:, 2] == ciphertext_len).all():
        raise AggregationError(
            "malformed wire frame: ciphertext length mismatch"
        )
    body = header_size + _SEALED_BODY.size
    return (
        header,
        fields[:, 0].tolist(),
        fields[:, 1].tolist(),
        table[:, body:],
        length,
    )


def route_sealed_stack(stack: np.ndarray) -> np.ndarray:
    """Route a uniform sealed-shares tensor to per-recipient mailboxes.

    ``stack[s, r]`` is sender ``s``'s raw frame bound for the recipient
    in column ``r`` (senders in sorted order, the recipient order shared
    by every sender).  The result's ``[r]`` plane is recipient ``r``'s
    whole mailbox, frames already in sorted-sender order — ``tobytes()``
    of a plane is the exact datagram joining the per-envelope frames
    would produce.  Runs as one contiguous transpose.
    """
    return np.ascontiguousarray(stack.transpose(1, 0, 2))


#: Broadcast-decode memo: the server sends *one* roster (and unmask
#: request) byte string to every recipient, so each client would decode
#: identical bytes — quadratically many advertise parses per round.
#: Messages are immutable value objects, so the decoded frames are safe
#: to share; the memo is tiny and content-keyed (never identity-keyed).
_BROADCAST_MEMO_MAX = 16
_broadcast_memo: dict[bytes, list] = {}


def decode_frames(data: bytes) -> list[tuple[NegotiatedHeader, Message]]:
    """Parse a datagram of one or more concatenated frames.

    Identical datagrams are memoised (broadcasts are decoded once per
    round, not once per recipient); callers receive a fresh list over
    shared immutable messages.

    Returns:
        ``(header, message)`` pairs in frame order.

    Raises:
        AggregationError: On bad magic, an unknown format version or
            message type, truncation, or trailing garbage.
    """
    memoised = _broadcast_memo.get(data)
    if memoised is None:
        memoised = [
            (header, message)
            for header, message, _ in iter_frames(data, keep_raw=False)
        ]
        if len(_broadcast_memo) >= _BROADCAST_MEMO_MAX:
            _broadcast_memo.clear()
        _broadcast_memo[bytes(data)] = memoised
    return list(memoised)


def iter_frames(
    data: bytes, keep_raw: bool = True
) -> list[tuple[NegotiatedHeader, Message, "memoryview | None"]]:
    """Like :func:`decode_frames`, but keeps each frame's raw bytes.

    Transports that forward messages verbatim (the server routing sealed
    envelopes) reuse the raw frame instead of re-encoding it.  ``raw``
    is a zero-copy :class:`memoryview` into ``data`` (which it keeps
    alive); pass ``keep_raw=False`` when the spans are not needed.
    """
    view = memoryview(data)
    frames: list[tuple[NegotiatedHeader, Message, memoryview | None]] = []
    offset = 0
    total = len(view)
    # Datagrams are homogeneous in practice (a roster broadcast, one
    # sender's sealed envelopes), so after the first frame the header
    # region differs only in the length field: two slice comparisons
    # replace the full unpack + intern on the hot path.
    known_front: bytes | None = None  # magic | fmt | type
    known_tail: bytes | None = None  # version | prg len | prg name
    known_type = -1
    known_header: NegotiatedHeader | None = None
    tail_end = 0  # header size including the PRG name
    while offset < total:
        if offset + _HEADER.size > total:
            raise AggregationError(
                "malformed wire frame: truncated header "
                f"({total - offset} bytes)"
            )
        if (
            known_front is not None
            and view[offset : offset + 4] == known_front
            and view[offset + 8 : offset + tail_end] == known_tail
        ):
            msg_type = known_type
            header = known_header
            length = int.from_bytes(view[offset + 4 : offset + 8], "little")
            if length < tail_end or offset + length > total:
                raise AggregationError(
                    f"malformed wire frame: declared length {length} does "
                    f"not fit the datagram"
                )
            body_start = offset + tail_end
        else:
            magic, fmt, msg_type, length, version, prg_len = (
                _HEADER.unpack_from(view, offset)
            )
            if magic != WIRE_MAGIC:
                raise AggregationError(
                    f"malformed wire frame: bad magic {bytes(magic)!r}"
                )
            if fmt != WIRE_FORMAT_VERSION:
                raise AggregationError(
                    f"unsupported wire format version {fmt} "
                    f"(this implementation speaks {WIRE_FORMAT_VERSION})"
                )
            if length < _HEADER.size + prg_len or offset + length > total:
                raise AggregationError(
                    f"malformed wire frame: declared length {length} does "
                    f"not fit the datagram"
                )
            prg_start = offset + _HEADER.size
            header = intern_header(
                version, bytes(view[prg_start : prg_start + prg_len])
            )
            body_start = prg_start + prg_len
            tail_end = _HEADER.size + prg_len
            known_front = bytes(view[offset : offset + 4])
            known_tail = bytes(view[offset + 8 : offset + tail_end])
            known_type = msg_type
            known_header = header
        end = offset + length
        message = _decode_fast(msg_type, view, body_start, end)
        if message is None:
            reader = _Reader(view, body_start, end)
            message = _decode_body(msg_type, reader)
        frames.append(
            (header, message, view[offset:end] if keep_raw else None)
        )
        offset = end
    return frames


def decode_message(data: bytes) -> tuple[NegotiatedHeader, Message]:
    """Parse exactly one frame; rejects datagrams holding more or less."""
    frames = decode_frames(data)
    if len(frames) != 1:
        raise AggregationError(
            f"expected exactly one wire frame, got {len(frames)}"
        )
    return frames[0]


# ---------------------------------------------------------------------------
# Wire accounting


@dataclasses.dataclass
class WireTally:
    """Running message/byte counters for one (phase, client) cell."""

    messages: int = 0
    bytes: int = 0

    def add(self, nbytes: int, messages: int = 1) -> None:
        self.messages += messages
        self.bytes += nbytes


@dataclasses.dataclass
class WireStats:
    """Per-round wire accounting: counts and bytes per phase, per client.

    ``uploads`` tallies client-to-server traffic, ``downloads``
    server-to-client traffic; both map phase tag -> client index ->
    :class:`WireTally`.  Transports attach one instance per round to
    their outcome; sharded rounds :meth:`merge` their sub-rounds'
    ledgers.
    """

    uploads: dict[str, dict[int, WireTally]] = dataclasses.field(
        default_factory=dict
    )
    downloads: dict[str, dict[int, WireTally]] = dataclasses.field(
        default_factory=dict
    )

    @staticmethod
    def _cell(
        table: dict[str, dict[int, WireTally]], phase: str, client: int
    ) -> WireTally:
        return table.setdefault(phase, {}).setdefault(client, WireTally())

    def record_upload(
        self, phase: str, client: int, nbytes: int, messages: int = 1
    ) -> None:
        """Tally one client-to-server datagram."""
        self._cell(self.uploads, phase, client).add(nbytes, messages)

    def record_download(
        self, phase: str, client: int, nbytes: int, messages: int = 1
    ) -> None:
        """Tally one server-to-client datagram."""
        self._cell(self.downloads, phase, client).add(nbytes, messages)

    @staticmethod
    def _totals(table: Mapping[str, Mapping[int, WireTally]]) -> WireTally:
        total = WireTally()
        for cells in table.values():
            for tally in cells.values():
                total.add(tally.bytes, tally.messages)
        return total

    @property
    def total_messages(self) -> int:
        """Messages moved in either direction across all phases."""
        return (
            self._totals(self.uploads).messages
            + self._totals(self.downloads).messages
        )

    @property
    def total_bytes(self) -> int:
        """Serialized bytes moved in either direction across all phases."""
        return (
            self._totals(self.uploads).bytes
            + self._totals(self.downloads).bytes
        )

    def phase_totals(self) -> dict[str, dict[str, int]]:
        """Aggregate view per phase: messages and bytes each direction."""
        summary: dict[str, dict[str, int]] = {}
        for direction, table in (
            ("up", self.uploads),
            ("down", self.downloads),
        ):
            for phase, cells in table.items():
                entry = summary.setdefault(
                    phase,
                    {
                        "up_messages": 0,
                        "up_bytes": 0,
                        "down_messages": 0,
                        "down_bytes": 0,
                    },
                )
                for tally in cells.values():
                    entry[f"{direction}_messages"] += tally.messages
                    entry[f"{direction}_bytes"] += tally.bytes
        return summary

    def phase_summary(self, phase: str) -> dict[str, int] | None:
        """Totals for one phase tag, or ``None`` if it has no cells.

        Cells are keyed by phase and a round's phases never revisit, so
        once a phase's span closes this is that phase's traffic — one
        pass over one tag's cells.  The transports meter from it.
        """
        up = self.uploads.get(phase)
        down = self.downloads.get(phase)
        if not up and not down:
            return None
        entry = {
            "up_messages": 0,
            "up_bytes": 0,
            "down_messages": 0,
            "down_bytes": 0,
        }
        if up:
            for tally in up.values():
                entry["up_messages"] += tally.messages
                entry["up_bytes"] += tally.bytes
        if down:
            for tally in down.values():
                entry["down_messages"] += tally.messages
                entry["down_bytes"] += tally.bytes
        return entry

    def client_totals(self) -> dict[int, dict[str, int]]:
        """Aggregate view per client: messages and bytes each direction."""
        summary: dict[int, dict[str, int]] = {}
        for direction, table in (
            ("up", self.uploads),
            ("down", self.downloads),
        ):
            for cells in table.values():
                for client, tally in cells.items():
                    entry = summary.setdefault(
                        client,
                        {
                            "up_messages": 0,
                            "up_bytes": 0,
                            "down_messages": 0,
                            "down_bytes": 0,
                        },
                    )
                    entry[f"{direction}_messages"] += tally.messages
                    entry[f"{direction}_bytes"] += tally.bytes
        return summary

    def merge(self, others: Iterable["WireStats"]) -> "WireStats":
        """Fold other ledgers into this one (sharded-round composition)."""
        for other in others:
            for mine, theirs in (
                (self.uploads, other.uploads),
                (self.downloads, other.downloads),
            ):
                for phase, cells in theirs.items():
                    for client, tally in cells.items():
                        self._cell(mine, phase, client).add(
                            tally.bytes, tally.messages
                        )
        return self
