"""Typed, versioned wire messages for the SecAgg protocol core.

Every message the Bonawitz protocol exchanges is defined here as a
frozen dataclass with a deterministic byte encoding, so the *same*
message types flow through every transport — the synchronous in-memory
driver (:func:`repro.secagg.bonawitz.run_bonawitz`), the
simulated-clock mailbox transport
(:class:`repro.simulation.rounds.AsyncSecAggRound`), the sharded process
backend and the socket service — and recorded traffic can be replayed
byte for byte.  :func:`encode_message` and :func:`decode_frames` are the
one encoder and the one decoder of every message.

Frame layout, format 4 (all integers little-endian)::

    0..1   magic            b"SG"
    2      format version   uint8  (the *encoding* layout, WIRE_FORMAT_VERSION)
    3      message type     uint8
    4..7   frame length     uint32 (whole frame, header included)
    8..9   protocol version uint16 — the negotiated header
    10     suite name length uint8   (protocol version + backend
    11..   suite name       ascii     string, on every frame)
    ...    message body

The two-part header separates concerns deliberately: the *format
version* says how to parse the bytes; the *negotiated header*
(:class:`NegotiatedHeader`) says which protocol semantics the sender is
speaking — the protocol version and the mask-PRG backend that all
participants of a round must agree on (``"shake256"``; a peer of an
older release may propose another and is refused).  Negotiation
happens at :class:`Hello`: the
server checks each client's proposed header and answers with a typed
:class:`Reject` (surfaced client-side as
:class:`repro.errors.NegotiationError`) instead of crashing mid-round.

Every frame follows one rule: **a frame carries only what the round has
not already fixed.**  Bodies of the frames that are a round's bill::

    advertise         index u32 | width u8
                      | width bytes: the channel key | width bytes: the mask key
    roster            count u32 | width u8
                      | count * u32: the indices, strictly increasing
                      | count * width bytes: the channel keys, in that order
                      | count * width bytes: the mask keys, in that order
    share-keys upload sender u32 | count u32 | L u32
                      | count * L bytes: one L-byte envelope per roster
                        member, rows in sorted-roster order; an envelope
                        is the recipient's seed share, then its share of
                        each base-p digit of the mask key, lowest first
                        (u64 each, sealed)
    share delivery    recipient u32 | count u32 | L u32
                      | count * u32: who sealed each row
                      | count * L bytes: the envelopes, rows in that order
    masked input      sender u32 | dimension u32 | bits u8
                      | ceil(dimension * bits / 8) bytes: the coordinates,
                        ``bits`` bits each, packed little-endian (bit k of
                        the stream is bit k % 8 of byte k // 8), the
                        padding bits of the last byte zero
    unmask response   responder u32 | seeds u32 | keys u32 | digits u8
                      | seeds * u64: a seed share per survivor, in the
                        request's (sorted) survivor order
                      | keys * digits * u64: a key share per dropout, rows
                        in sorted-dropout order, lowest digit first

A key is ``width`` bytes whatever its value: the width is the
key-agreement group's (8 on the toy group, 32 on x25519, 128 on
Oakley-2).  ``bits`` is ``ceil(log2 m)`` (:func:`modulus_bits`) — what
the paper's "bitwidth" axis counts.  A share value is 8 bytes, the
width of every sharing field.  A mask key is shared as its base-``p``
digits in the round's sharing field, as many as the group's largest
key has: on the default field (``p = 2^61 - 1``) one on the toy group,
whose keys are field elements, five on x25519 and 17 on Oakley-2 — so
``L`` is 16, 48 and 144 bytes.  All of these are functions of the round
and **never of the values**: a width chosen from the values would leak
their magnitude and make a frame's length data-dependent.  The encoder
refuses a value that does not fit its width instead of wrapping it, and
the server refuses a frame whose width is not the round's (and, since
an int64 vector is ``64 / bits`` times its payload, decodes no
masked-input datagram that is not the round's length).

What the round fixes is not sent.  The roster is one frame of columns,
not a frame per member.  A share-keys datagram is the ciphertext matrix
and three integers: an envelope's sender, recipient and length, and
(inside it) the Shamir point and digit count, are fixed by the roster,
the key-agreement group and the sharing field.  An unmask response
names neither the survivors (the request it answers just did) nor the
responder's Shamir point (its 1-based position in the sorted roster).
Frames of formats 1 to 3 are refused with the typed "speaks N" error;
no decoder for them is kept.  Format 3 wrote a key as base-``2^60``
limbs: its x25519 envelopes have format 4's length but not its
meaning, which is why the layout's version moved with the digits.

Frames are self-delimiting, so several messages concatenate into one
transport datagram (a client's Hello and Advertise);
:func:`decode_frames` walks them back out.  The encoding is
deterministic: equal messages encode to equal bytes.

:class:`WireStats` is the per-round accounting ledger — message counts
and serialized bytes per phase, per client, in both directions — that
transports attach to their round outcomes.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import AggregationError

#: First bytes of every frame.
WIRE_MAGIC = b"SG"

#: Version of the byte *layout* (bump when the framing itself changes).
WIRE_FORMAT_VERSION = 4

#: Protocol semantics version 1: four-round Bonawitz, negotiated PRG.
PROTOCOL_V1 = 1

#: Protocol versions this implementation can speak.
SUPPORTED_PROTOCOL_VERSIONS = frozenset({PROTOCOL_V1})

# Message type tags (uint8 in the frame header).
MSG_HELLO = 1
MSG_ADVERTISE = 2
MSG_SEALED_UPLOAD = 3
MSG_MASKED_INPUT = 4
MSG_UNMASK_REQUEST = 5
MSG_UNMASK_RESPONSE = 6
MSG_REJECT = 7
MSG_WELCOME = 8
MSG_RESUME = 9
MSG_SEALED_DELIVERY = 10
MSG_ROSTER = 11

_HEADER = struct.Struct("<2sBBIHB")  # magic, fmt, type, length, version, prg len
_SEALED_PREFIX = struct.Struct("<III")  # owner, envelope count, envelope length
_MASKED_PREFIX = struct.Struct("<IIB")  # sender, dimension, bits
_KEYS_PREFIX = struct.Struct("<IB")  # advertise: index, width; roster: count, width
_UNMASK_PREFIX = struct.Struct("<IIIB")  # responder, seeds, keys, digits

#: Coordinate widths that are whole little-endian machine words: the
#: same layout as the generic bit-packer, reached by one ``astype``.
_WORD_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}
#: Coordinates the generic unpacker expands at a time (a multiple of 8).
_UNPACK_BLOCK = 1024


@dataclasses.dataclass(frozen=True)
class NegotiatedHeader:
    """The negotiated protocol context carried on every frame.

    Attributes:
        version: Protocol semantics version (``PROTOCOL_V1``).
        mask_prg: The negotiated backend string every participant of the
            round must share.  A plain mask-PRG name
            (:attr:`repro.secagg.kernels.MaskPrg.name`) implies classic
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
#: decoded O(n) times per round and almost always carry the
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
    """A client's round-0 message: its two DH public keys.

    ``width`` is the bytes one key takes on the wire — the
    key-agreement group's, never the values' (a session states it,
    :func:`repro.secagg.bonawitz.public_key_length`).
    """

    index: int
    channel_public: int
    mask_public: int
    width: int


@dataclasses.dataclass(frozen=True)
class Roster:
    """The server's round-0 broadcast: every accepted client's keys.

    One frame of three columns, aligned: ``indices`` strictly
    increasing, and the two public keys of each, ``width`` bytes apiece
    on the wire.
    """

    indices: tuple[int, ...]
    channel_keys: tuple[int, ...]
    mask_keys: tuple[int, ...]
    width: int


class _ArrayMessage:
    """Value equality for the messages that hold arrays.

    Two messages are equal when every field holds the same values —
    array dtype and buffer do not matter (a decoded message and the one
    a session built compare and hash alike), any differing value or
    shape does.
    """

    def _values(self) -> tuple:
        values = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value = (value.shape, tuple(value.ravel().tolist()))
            elif isinstance(value, dict):
                value = tuple(sorted(value.items()))
            values.append(value)
        return tuple(values)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


@dataclasses.dataclass(frozen=True, eq=False)
class SealedUpload(_ArrayMessage):
    """A client's whole round-1 upload: one envelope per roster member.

    Row ``j`` of ``ciphertexts`` is the shares of ``(b_u, s_u^SK)``
    sealed for the ``j``-th member of the sorted roster.  The server
    forwards envelopes without the channel key, so the ``(n, L)`` uint8
    matrix is opaque to it.
    """

    sender: int
    ciphertexts: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class SealedDelivery(_ArrayMessage):
    """A client's routed round-1 mailbox: the envelopes sealed for it.

    ``senders`` names who sealed each row of ``ciphertexts`` (``U1``, in
    sorted order) — the one thing about the mailbox the recipient cannot
    derive from the roster.
    """

    recipient: int
    senders: np.ndarray
    ciphertexts: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class MaskedInput(_ArrayMessage):
    """A client's round-2 upload: the doubly masked vector over ``Z_m``.

    ``bits`` is the width of one coordinate on the wire.  A session
    always states it, from the round's modulus (:func:`modulus_bits`);
    the default is the widest there is.
    """

    sender: int
    vector: np.ndarray
    bits: int = 64


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
class UnmaskResponse(_ArrayMessage):
    """One client's round-3 reply: the requested share values it holds.

    Only values: whose share each is follows from the request it
    answers, and where it sits from the responder's roster position.
    Both sections are uint64 (every sharing field fits it), in memory
    as on the wire, so the server recovers with one transpose.

    Attributes:
        responder: Who answers.
        seed_shares: ``(survivors,)`` — a share of each survivor's
            self-mask seed, in sorted-survivor order.
        key_shares: ``(dropouts, digits)`` — a share of each dropout's
            mask private key, rows in sorted-dropout order, one column
            per base-``p`` digit of the group's keys.
    """

    responder: int
    seed_shares: np.ndarray
    key_shares: np.ndarray


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
    | Roster
    | SealedUpload
    | SealedDelivery
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
    Roster: MSG_ROSTER,
    SealedUpload: MSG_SEALED_UPLOAD,
    SealedDelivery: MSG_SEALED_DELIVERY,
    MaskedInput: MSG_MASKED_INPUT,
    UnmaskRequest: MSG_UNMASK_REQUEST,
    UnmaskResponse: MSG_UNMASK_RESPONSE,
    Reject: MSG_REJECT,
    Welcome: MSG_WELCOME,
    Resume: MSG_RESUME,
}


def modulus_bits(modulus: int) -> int:
    """Bits one coordinate over ``Z_m`` takes on the wire: ``ceil(log2 m)``."""
    if modulus < 2:
        raise AggregationError(f"modulus must be >= 2, got {modulus}")
    return (modulus - 1).bit_length()


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 64:
        raise AggregationError(
            f"malformed wire frame: coordinate width {bits} outside 1..64 bits"
        )


def _word_bits(bits: int) -> int:
    """The narrowest machine word holding a ``bits``-bit coordinate."""
    return next(word for word in _WORD_DTYPES if bits <= word)


def _pack_bits(vector: np.ndarray, bits: int) -> bytes:
    """The generic packer: any width, coordinates already in range."""
    word = _word_bits(bits)
    planes = np.unpackbits(
        vector.astype(_WORD_DTYPES[word]).view(np.uint8).reshape(-1, word // 8),
        axis=1,
        bitorder="little",
    )
    return np.packbits(planes[:, :bits], bitorder="little").tobytes()


def pack_coordinates(vector: np.ndarray, bits: int) -> bytes:
    """Pack a vector over ``[0, 2^bits)`` at ``bits`` bits a coordinate.

    Little-endian throughout, so the word-sized widths are a plain
    ``astype`` — byte for byte what :func:`_pack_bits` emits for them.

    Raises:
        AggregationError: If a coordinate does not fit ``bits`` bits (it
            is refused, never wrapped) or ``bits`` is outside ``1..64``.
    """
    _check_bits(bits)
    vector = np.asarray(vector)
    if vector.ndim != 1 or vector.dtype.kind not in "iu":
        raise AggregationError(
            f"masked input must be a 1-d integer vector, got shape "
            f"{vector.shape} of {vector.dtype}"
        )
    # One pass checks both ends: read as uint64, a negative int64 (and a
    # uint64 no int64 holds) is >= 2^63, past any width's top.
    words = vector.astype(np.int64, copy=False).view(np.uint64)
    if vector.size and int(words.max()) >> min(bits, 63):
        raise AggregationError(
            f"masked-input coordinates must lie in [0, 2^{bits}), got range "
            f"[{vector.min()}, {vector.max()}]"
        )
    if bits in _WORD_DTYPES:
        return vector.astype(_WORD_DTYPES[bits]).tobytes()
    return _pack_bits(vector, bits)


def unpack_coordinates(payload: memoryview, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_coordinates`; an int64 vector.

    ``payload`` must be exactly ``ceil(count * bits / 8)`` bytes — the
    caller checks that against the frame before anything is allocated.

    A 64-bit coordinate no int64 holds comes out negative, which no
    round's alphabet admits.

    Raises:
        AggregationError: On non-zero padding bits.
    """
    if bits in _WORD_DTYPES:
        return np.frombuffer(payload, dtype=_WORD_DTYPES[bits]).astype(np.int64)
    raw = np.frombuffer(payload, dtype=np.uint8)
    spare = 8 * raw.shape[0] - count * bits
    if spare and raw[-1] >> (8 - spare):
        raise AggregationError(
            "malformed wire frame: non-zero masked-input padding bits"
        )
    values = np.empty(count, dtype=np.int64)
    weights = np.left_shift(1, np.arange(bits, dtype=np.int64))
    # A bit is a whole word while it is being weighed, so go block by
    # block (a block of 8k coordinates starts on a byte): the scratch
    # space stays a constant whatever the frame declares.
    for at in range(0, count, _UNPACK_BLOCK):
        size = min(_UNPACK_BLOCK, count - at)
        planes = np.unpackbits(
            raw[at * bits // 8 :], count=size * bits, bitorder="little"
        ).reshape(size, bits)
        values[at : at + size] = planes.astype(np.int64) @ weights
    return values


def _encode_sealed(
    owner: int, ciphertexts: np.ndarray, senders: np.ndarray | None = None
) -> bytes:
    """A share-keys body: upload (no sender column) or delivery."""
    matrix = np.ascontiguousarray(ciphertexts, dtype=np.uint8)
    if matrix.ndim != 2:
        raise AggregationError(
            f"share-keys envelopes must be a 2-d matrix, got {matrix.shape}"
        )
    parts = [_SEALED_PREFIX.pack(owner, *matrix.shape)]
    if senders is not None:
        column = np.ascontiguousarray(senders, dtype="<u4")
        if column.shape != matrix.shape[:1]:
            raise AggregationError(
                f"{column.shape[0]} senders for {matrix.shape[0]} envelopes"
            )
        parts.append(column.tobytes())
    parts.append(matrix.tobytes())
    return b"".join(parts)


def _check_width(width: int) -> None:
    if not 1 <= width <= 255:
        raise AggregationError(
            f"malformed wire frame: key width {width} outside 1..255 bytes"
        )


def _encode_keys(values: Iterable[int], width: int) -> bytes:
    """Public keys at the round's byte width, little-endian.

    Raises:
        AggregationError: If a key is negative or wider than ``width``
            bytes (refused, never truncated), or ``width`` is outside
            ``1..255``.
    """
    _check_width(width)
    try:
        return b"".join(value.to_bytes(width, "little") for value in values)
    except OverflowError:
        raise AggregationError(
            f"public keys must lie in [0, 2^{8 * width}) to travel at "
            f"{width} bytes"
        ) from None


def _read_keys(
    view: memoryview, offset: int, count: int, width: int
) -> tuple[int, ...]:
    """``count`` keys of ``width`` bytes from ``offset``; one C pass at a
    machine-word width (the toy group's 8 bytes)."""
    dtype = _WORD_DTYPES.get(8 * width)
    if dtype is not None:
        return tuple(
            np.frombuffer(view, dtype, count=count, offset=offset).tolist()
        )
    return tuple(
        int.from_bytes(view[at : at + width], "little")
        for at in range(offset, offset + count * width, width)
    )


def _share_matrix(values: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """Share values as a little-endian uint64 array of ``ndim`` axes;
    a value outside ``[0, 2^64)`` is refused, never wrapped."""
    values = np.asarray(values)
    try:
        words = values.astype("<u8")
        wrapped = bool(values.size) and bool((values < 0).any())
    except OverflowError:
        wrapped = True
    if wrapped:
        raise AggregationError(
            f"{what} values must lie in [0, 2^64): every sharing field "
            "fits 8 bytes"
        )
    if words.ndim != ndim:
        raise AggregationError(
            f"{what} must have {ndim} axes, got shape {words.shape}"
        )
    return words


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

    def require_done(self) -> None:
        if self._pos != self._end:
            raise AggregationError(
                "malformed wire frame: "
                f"{self._end - self._pos} trailing body bytes"
            )


def _unpack_prefix(
    prefix: struct.Struct, view: memoryview, start: int, end: int
) -> tuple:
    """The fixed fields that open a body, which must hold them."""
    if start + prefix.size > end:
        raise AggregationError(
            "malformed wire frame: body truncated "
            f"({end - start} bytes left, {prefix.size} needed)"
        )
    return prefix.unpack_from(view, start)


def _require_body(have: int, need: int) -> None:
    """A body whose prefix fixes its length must be that long: checked
    before anything is read or allocated."""
    if have < need:
        raise AggregationError(
            "malformed wire frame: body truncated "
            f"({have} bytes left, {need} needed)"
        )
    if have > need:
        raise AggregationError(
            f"malformed wire frame: {have - need} trailing body bytes"
        )


def _encode_index_set(values: frozenset[int]) -> bytes:
    ordered = sorted(values)
    return len(ordered).to_bytes(4, "little") + np.asarray(
        ordered, dtype="<u4"
    ).tobytes()


def _decode_index_set(reader: _Reader) -> frozenset[int]:
    count = reader.u32()
    return frozenset(np.frombuffer(reader.take(4 * count), "<u4").tolist())


def _encode_body(message: Message) -> bytes:
    if isinstance(message, Hello):
        return message.sender.to_bytes(4, "little")
    if isinstance(message, Advertise):
        keys = _encode_keys(
            (message.channel_public, message.mask_public), message.width
        )
        return _KEYS_PREFIX.pack(message.index, message.width) + keys
    if isinstance(message, Roster):
        count = len(message.indices)
        if not count == len(message.channel_keys) == len(message.mask_keys):
            raise AggregationError(
                f"a roster of {count} members needs {count} keys of each "
                "kind"
            )
        if list(message.indices) != sorted(set(message.indices)):
            raise AggregationError(
                "roster indices must be strictly increasing"
            )
        keys = _encode_keys(
            message.channel_keys + message.mask_keys, message.width
        )
        return (
            _KEYS_PREFIX.pack(count, message.width)
            + np.asarray(message.indices, dtype="<u4").tobytes()
            + keys
        )
    if isinstance(message, SealedUpload):
        return _encode_sealed(message.sender, message.ciphertexts)
    if isinstance(message, SealedDelivery):
        return _encode_sealed(
            message.recipient, message.ciphertexts, message.senders
        )
    if isinstance(message, MaskedInput):
        payload = pack_coordinates(message.vector, message.bits)
        return (
            _MASKED_PREFIX.pack(
                message.sender, len(message.vector), message.bits
            )
            + payload
        )
    if isinstance(message, UnmaskRequest):
        return _encode_index_set(message.survivors) + _encode_index_set(
            message.dropouts
        )
    if isinstance(message, UnmaskResponse):
        seeds = _share_matrix(message.seed_shares, 1, "seed shares")
        keys = _share_matrix(message.key_shares, 2, "key shares")
        if keys.shape[1] > 255:
            raise AggregationError(
                f"key shares of {keys.shape[1]} digits do not fit the wire"
            )
        return (
            _UNMASK_PREFIX.pack(message.responder, *seeds.shape, *keys.shape)
            + seeds.tobytes()
            + keys.tobytes()
        )
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


def _decode_body(
    msg_type: int, view: memoryview, start: int, end: int
) -> Message:
    """Decode the body ``view[start:end]`` of one ``msg_type`` frame.

    A body whose prefix declares its length is held to it before
    anything is read; array fields are zero-copy views into ``view``.
    """
    if msg_type in (MSG_SEALED_UPLOAD, MSG_SEALED_DELIVERY):
        owner, count, length = _unpack_prefix(_SEALED_PREFIX, view, start, end)
        body = start + _SEALED_PREFIX.size
        delivery = msg_type == MSG_SEALED_DELIVERY
        if end - body != count * (length + 4 * delivery):
            raise AggregationError(
                f"malformed wire frame: {count} envelopes of {length} bytes "
                f"do not fill a {end - body}-byte share-keys body"
            )
        ciphertexts = np.frombuffer(
            view, dtype=np.uint8, count=count * length, offset=end - count * length
        ).reshape(count, length)
        if not delivery:
            return SealedUpload(owner, ciphertexts)
        senders = np.frombuffer(view, dtype="<u4", count=count, offset=body)
        return SealedDelivery(owner, senders, ciphertexts)
    if msg_type == MSG_MASKED_INPUT:
        sender, dimension, bits = _unpack_prefix(
            _MASKED_PREFIX, view, start, end
        )
        body = start + _MASKED_PREFIX.size
        _check_bits(bits)
        if end - body != -(-dimension * bits // 8):
            raise AggregationError(
                f"malformed wire frame: {dimension} coordinates of {bits} "
                f"bits do not fill a {end - body}-byte masked-input payload"
            )
        return MaskedInput(
            sender, unpack_coordinates(view[body:end], dimension, bits), bits
        )
    if msg_type == MSG_ROSTER:
        count, width = _unpack_prefix(_KEYS_PREFIX, view, start, end)
        _check_width(width)
        body = start + _KEYS_PREFIX.size
        _require_body(end - body, count * (4 + 2 * width))
        indices = np.frombuffer(view, dtype="<u4", count=count, offset=body)
        if np.any(indices[1:] <= indices[:-1]):
            raise AggregationError(
                "malformed wire frame: roster indices are not strictly "
                "increasing"
            )
        keys = _read_keys(view, body + 4 * count, 2 * count, width)
        return Roster(
            tuple(indices.tolist()), keys[:count], keys[count:], width
        )
    if msg_type == MSG_ADVERTISE:
        index, width = _unpack_prefix(_KEYS_PREFIX, view, start, end)
        _check_width(width)
        body = start + _KEYS_PREFIX.size
        _require_body(end - body, 2 * width)
        channel, mask = _read_keys(view, body, 2, width)
        return Advertise(index, channel, mask, width)
    if msg_type == MSG_UNMASK_RESPONSE:
        responder, seeds, keys, digits = _unpack_prefix(
            _UNMASK_PREFIX, view, start, end
        )
        body = start + _UNMASK_PREFIX.size
        _require_body(end - body, 8 * (seeds + keys * digits))
        return UnmaskResponse(
            responder,
            np.frombuffer(view, dtype="<u8", count=seeds, offset=body),
            np.frombuffer(
                view, dtype="<u8", count=keys * digits, offset=body + 8 * seeds
            ).reshape(keys, digits),
        )
    reader = _Reader(view, start, end)
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
    identical bytes (sets are sorted, every width is fixed by the
    round).
    """
    try:
        msg_type = _TYPE_OF_MESSAGE[type(message)]
    except KeyError:
        raise AggregationError(
            f"cannot encode {type(message).__name__} frames"
        ) from None
    return _frame(msg_type, _encode_body(message), header)


def decode_frames(data: bytes) -> list[tuple[NegotiatedHeader, Message]]:
    """Parse a datagram of one or more concatenated frames.

    Array fields of the decoded messages are zero-copy views into
    ``data``, which they keep alive.

    Returns:
        ``(header, message)`` pairs in frame order.

    Raises:
        AggregationError: On bad magic, an unknown format version or
            message type, truncation, or trailing garbage.
    """
    view = memoryview(data)
    frames: list[tuple[NegotiatedHeader, Message]] = []
    offset = 0
    total = len(view)
    while offset < total:
        if offset + _HEADER.size > total:
            raise AggregationError(
                "malformed wire frame: truncated header "
                f"({total - offset} bytes)"
            )
        magic, fmt, msg_type, length, version, prg_len = _HEADER.unpack_from(
            view, offset
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
        end = offset + length
        frames.append(
            (header, _decode_body(msg_type, view, prg_start + prg_len, end))
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
