"""Array-carrying wire messages: golden pins, one representation each.

A roster, a masked input, a share-keys datagram and an unmask response
are each one class with one codec
(:func:`~repro.secagg.wire.encode_message` /
:func:`~repro.secagg.wire.decode_frames`).  Here their golden bytes
round-trip through it; the coordinate packer is pinned at every width
(the word-sized widths take an ``astype`` path whose bytes must be the
generic packer's); every frame's length is a function of the round and
not of the values; and every refusal that guards a packed or columnar
section is a typed :class:`~repro.errors.AggregationError`, raised from
the declared sizes before anything is allocated.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.secagg.bonawitz import public_key_length
from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.keys import TOY_GROUP, X25519_GROUP, DhGroup
from repro.secagg.statemachine import ClientSession, ServerSession
from repro.secagg.wire import (
    MSG_MASKED_INPUT,
    MSG_ROSTER,
    MSG_SEALED_DELIVERY,
    MSG_SEALED_UPLOAD,
    MSG_UNMASK_REQUEST,
    MSG_UNMASK_RESPONSE,
    PROTOCOL_V1,
    Advertise,
    MaskedInput,
    NegotiatedHeader,
    Roster,
    SealedDelivery,
    SealedUpload,
    UnmaskRequest,
    UnmaskResponse,
    decode_frames,
    decode_message,
    encode_message,
    modulus_bits,
    pack_coordinates,
)
from repro.secagg.wire import _encode_ids, _frame, _pack_bits, _read_ids

HEADER = NegotiatedHeader(version=PROTOCOL_V1, mask_prg="sha256-ctr")
#: Frame header under ``HEADER`` (11 + the suite name), then the fixed
#: fields of a masked-input body (sender, dimension, bits) and of a
#: share-keys body (owner, count, L).
HEADER_BYTES = 11 + len("sha256-ctr")
MASKED_PREFIX = HEADER_BYTES + 9
SEALED_PREFIX = HEADER_BYTES + 12

#: Frozen encoder outputs (same format contract as
#: ``tests/test_wire.py``, whose sealed-upload golden is the first one
#: here and whose unmask hex is byte-identical to this module's).
GOLDEN_SEALED_MATRIX = (
    # Upload: sender 2, two 2-byte envelopes, the matrix.
    "534705032500000001000a7368613235362d637472"
    "020000000200000002000000deadbeef"
    # The delivery of the same matrix to client 5, sealed by 2 and 6:
    # the senders as the gaps 2 and 6 - 2 - 1 = 3.
    "5347050a2700000001000a7368613235362d637472"
    "050000000200000002000000" "0203" "deadbeef"
)
GOLDEN_MASKED = (
    # A word-sized width: sender 4, dimension 4, 16 bits, 4 x <u2.
    "534705042600000001000a7368613235362d637472"
    "04000000040000001000000100ffff0201"
)
GOLDEN_UNMASK = (
    # A dropout's key share is one base-p digit on the toy group.
    "534705063a00000001000a7368613235362d637472"
    "06000000020000000100000001"
    "15cd5b0700000000" "0100000000000000"
    "feffffffffffff1f"
)

GOLDEN_RESPONSE = UnmaskResponse(
    responder=6,
    seed_shares=np.array([123456789, 1], dtype=np.uint64),
    key_shares=np.array([[2**61 - 2]], dtype=np.uint64),
)


def _unmask_frame(seeds, keys, limbs, values):
    """A well-framed unmask response with a hand-written body."""
    body = b"".join(
        [
            (6).to_bytes(4, "little"),  # responder
            seeds.to_bytes(4, "little"),
            keys.to_bytes(4, "little"),
            limbs.to_bytes(1, "little"),
            values,
        ]
    )
    return _frame(MSG_UNMASK_RESPONSE, body, HEADER)


def _roster_frame(count, width, rest):
    """A well-framed roster declaring ``count`` keys of ``width`` bytes."""
    body = count.to_bytes(4, "little") + width.to_bytes(1, "little") + rest
    return _frame(MSG_ROSTER, body, HEADER)


class TestGoldenVectors:
    def test_sealed_matrix_matches_golden(self):
        ciphertexts = np.array([[0xDE, 0xAD], [0xBE, 0xEF]], dtype=np.uint8)
        upload = SealedUpload(2, ciphertexts)
        delivery = SealedDelivery(5, np.array([2, 6]), ciphertexts)
        encoded = [encode_message(m, HEADER) for m in (upload, delivery)]
        assert b"".join(encoded).hex() == GOLDEN_SEALED_MATRIX
        assert [decode_message(frame)[1] for frame in encoded] == [
            upload, delivery
        ]

    def test_masked_input_round_trips_golden(self):
        message = MaskedInput(
            4, np.array([0, 1, 65535, 258], dtype=np.int64), bits=16
        )
        assert encode_message(message, HEADER).hex() == GOLDEN_MASKED
        header, decoded = decode_message(bytes.fromhex(GOLDEN_MASKED))
        assert header == HEADER and decoded == message
        assert decoded.vector.dtype == np.int64

    def test_unmask_response_round_trips_golden(self):
        assert encode_message(GOLDEN_RESPONSE, HEADER).hex() == GOLDEN_UNMASK
        header, decoded = decode_message(bytes.fromhex(GOLDEN_UNMASK))
        assert header == HEADER
        assert decoded == GOLDEN_RESPONSE
        assert hash(decoded) == hash(GOLDEN_RESPONSE)

    def test_golden_unmask_decodes_to_columns(self):
        """Both sections stay arrays end to end — what the server's
        one-transpose recovery consumes — and both are uint64."""
        _, decoded = decode_message(bytes.fromhex(GOLDEN_UNMASK))
        assert decoded.responder == 6
        assert decoded.seed_shares.tolist() == [123456789, 1]
        assert decoded.key_shares.tolist() == [[2**61 - 2]]
        assert decoded.seed_shares.dtype == decoded.key_shares.dtype
        assert decoded.key_shares.dtype == np.uint64

    def test_responses_compare_by_value(self):
        """Array-aware equality, the way ``MaskedInput`` has it: dtype
        and buffer do not matter, any differing value or shape does."""
        same = UnmaskResponse(
            responder=6,
            seed_shares=np.array([123456789, 1], dtype=np.int64),
            key_shares=np.array([[2**61 - 2]], dtype=np.int64),
        )
        assert same == GOLDEN_RESPONSE and hash(same) == hash(GOLDEN_RESPONSE)
        for change in (
            {"responder": 7},
            {"seed_shares": np.array([123456789, 2], dtype=np.uint64)},
            {"seed_shares": np.array([123456789], dtype=np.uint64)},
            {"key_shares": np.array([[2**61 - 3]], dtype=np.uint64)},
            {"key_shares": np.array([[10, 2**61 - 2]], dtype=np.uint64)},
            {"key_shares": np.array([[10], [2**61 - 2]], dtype=np.uint64)},
            {"key_shares": np.zeros((0, 1), dtype=np.uint64)},
        ):
            assert dataclasses.replace(GOLDEN_RESPONSE, **change) != (
                GOLDEN_RESPONSE
            ), change
        assert GOLDEN_RESPONSE != "not a response"

    def test_a_value_wider_than_64_bits_has_no_place(self):
        """No sharing field is wider than uint64, so a share value is 8
        bytes and there is no width field to declare another: a 16-byte
        value where the frame declares one seed share leaves 8 trailing
        bytes — and a value that wide cannot be encoded either."""
        frame = _unmask_frame(1, 0, 0, (2**100).to_bytes(16, "little"))
        with pytest.raises(AggregationError, match="8 trailing body bytes"):
            decode_message(frame)
        for value in (np.array([2**100], dtype=object), np.array([-1])):
            wide = UnmaskResponse(
                responder=6,
                seed_shares=value,
                key_shares=np.zeros((0, 2), dtype=np.uint64),
            )
            with pytest.raises(AggregationError, match=r"\[0, 2\^64\)"):
                encode_message(wide, HEADER)

    def test_the_key_section_must_be_a_matrix(self):
        ragged = dataclasses.replace(
            GOLDEN_RESPONSE, key_shares=np.array([10, 2], dtype=np.uint64)
        )
        with pytest.raises(AggregationError, match="2 axes"):
            encode_message(ragged, HEADER)

    @pytest.mark.parametrize("missing", [1, 8, 15])
    def test_truncated_share_values_are_refused_before_any_read(
        self, missing
    ):
        """A frame declaring more values than its body holds is refused
        from the declared counts alone, before a value is read past the
        frame's end."""
        values = np.array([7, 9, 1, 2], dtype="<u8").tobytes()
        whole = _unmask_frame(2, 1, 2, values)
        decoded = decode_message(whole)[1]
        assert decoded.seed_shares.tolist() == [7, 9]
        assert decoded.key_shares.tolist() == [[1, 2]]
        short = _unmask_frame(2, 1, 2, values[:-missing])
        with pytest.raises(AggregationError, match="body truncated"):
            decode_message(short)
        with pytest.raises(AggregationError, match="body truncated"):
            decode_message(_frame(MSG_UNMASK_RESPONSE, bytes(12), HEADER))


#: Share values live in a field that fits uint64: 8 bytes each.
SHARE_VALUES = st.integers(min_value=0, max_value=2**64 - 1)


def _masked_frame(dimension, bits, payload, sender=4):
    """A well-framed masked input with a hand-written body."""
    body = (
        sender.to_bytes(4, "little")
        + dimension.to_bytes(4, "little")
        + bits.to_bytes(1, "little")
        + payload
    )
    return _frame(MSG_MASKED_INPUT, body, HEADER)


def _sealed_frame(msg_type, count, length, rest, owner=2):
    """A well-framed share-keys body declaring ``count`` x ``length``."""
    body = (
        owner.to_bytes(4, "little")
        + count.to_bytes(4, "little")
        + length.to_bytes(4, "little")
        + rest
    )
    return _frame(msg_type, body, HEADER)


def _coordinates(seed, dimension, bits):
    """``dimension`` values over ``[0, 2^bits)``, both ends included."""
    rng = np.random.default_rng(seed)
    values = rng.integers(
        0, 1 << bits, size=dimension, dtype=np.uint64
    ).astype(np.int64)
    values[:1] = 0
    values[-1:] = (1 << bits) - 1
    return values


class TestCoordinatePacking:
    @given(
        bits=st.integers(min_value=1, max_value=63),
        dimension=st.integers(min_value=0, max_value=257),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_at_every_width(self, bits, dimension, seed):
        """``ceil(d * bits / 8)`` payload bytes after the fixed prefix,
        whatever the values are, and the same vector back."""
        message = MaskedInput(9, _coordinates(seed, dimension, bits), bits)
        frame = encode_message(message, HEADER)
        assert len(frame) == MASKED_PREFIX + -(-dimension * bits // 8)
        header, decoded = decode_message(frame)
        assert header == HEADER and decoded == message
        assert decoded.vector.dtype == np.int64 and decoded.bits == bits
        assert encode_message(decoded, HEADER) == frame

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("dimension", [0, 1, 7, 64])
    def test_word_widths_are_the_generic_packers_bytes(self, bits, dimension):
        """The ``astype`` shortcut is a shortcut, not a second layout."""
        values = _coordinates(bits, dimension, min(bits, 63))
        assert pack_coordinates(values, bits) == _pack_bits(values, bits)
        assert pack_coordinates(values, bits) == values.astype(
            f"<u{bits // 8}"
        ).tobytes()

    def test_width_is_a_function_of_the_modulus_not_the_values(self):
        """All-zero and all-(m - 1) vectors make frames of one length,
        at ``ceil(log2 m)`` bits a coordinate."""
        for modulus, bits in (
            (2, 1), (2**6, 6), (1000, 10), (2**16, 16), (2**16 + 1, 17),
            (2**31 - 1, 31),
        ):
            assert modulus_bits(modulus) == bits
            frames = {
                len(encode_message(
                    MaskedInput(1, np.full(33, value), bits), HEADER
                ))
                for value in (0, modulus - 1)
            }
            assert frames == {MASKED_PREFIX + -(-33 * bits // 8)}
        with pytest.raises(AggregationError, match="modulus"):
            modulus_bits(1)

    def test_a_session_states_the_rounds_width(self):
        vector = np.arange(8, dtype=np.int64)
        client = ClientSession(
            1, vector, 1000, 2, np.random.default_rng(0), TOY_GROUP
        )
        peer = ClientSession(
            2, vector, 1000, 2, np.random.default_rng(1), TOY_GROUP
        )
        server = ServerSession(1000, 8, 2, group=TOY_GROUP)
        for session in (client, peer):
            server.receive(b"".join(session.start()), sender=session.index)
        roster = server.advance()
        for session in (client, peer):
            (upload,) = session.handle(roster[session.index])
            server.receive(upload, sender=session.index)
        (masked,) = client.handle(server.advance()[1])
        _, message = decode_message(masked)
        assert message.bits == 10 and len(masked) == len(
            encode_message(MaskedInput(1, vector, 10), client.header)
        )

    @pytest.mark.parametrize(
        "vector, bits, match",
        [
            ([0, 256], 8, "must lie in"),
            ([0, 1024], 10, "must lie in"),
            ([-1, 3], 10, "must lie in"),
            ([-1], 64, "must lie in"),
            ([1, 2], 0, "outside 1..64"),
            ([1, 2], 65, "outside 1..64"),
            ([[1, 2]], 8, "1-d integer"),
            ([0.5], 8, "1-d integer"),
        ],
    )
    def test_encoder_refuses_instead_of_wrapping(self, vector, bits, match):
        with pytest.raises(AggregationError, match=match):
            encode_message(MaskedInput(1, np.asarray(vector), bits), HEADER)

    @pytest.mark.parametrize("bits", [0, 65, 255])
    def test_declared_width_outside_1_to_64_is_refused(self, bits):
        with pytest.raises(AggregationError, match="outside 1..64"):
            decode_message(_masked_frame(1, bits, b"\x00"))

    def test_non_zero_padding_bits_are_refused(self):
        frame = bytearray(
            encode_message(MaskedInput(4, np.array([5, 1, 2]), 10), HEADER)
        )
        assert decode_message(bytes(frame))[1].vector.tolist() == [5, 1, 2]
        # 30 bits in 4 bytes: the top two bits of the last byte are padding.
        frame[-1] |= 0x40
        with pytest.raises(AggregationError, match="padding bits"):
            decode_message(bytes(frame))

    @pytest.mark.parametrize("bits", [10, 16])
    @pytest.mark.parametrize("change", [-1, +1])
    def test_payload_of_the_wrong_length_is_refused(self, bits, change):
        payload = pack_coordinates(np.arange(9), bits)
        resized = payload[:-1] if change < 0 else payload + b"\x00"
        with pytest.raises(AggregationError, match="do not fill"):
            decode_message(_masked_frame(9, bits, resized))
        with pytest.raises(AggregationError, match="body truncated"):
            decode_message(_frame(MSG_MASKED_INPUT, b"\x01\x00", HEADER))

    def test_coordinate_no_int64_holds_is_refused(self):
        """On the way out by the encoder; on the way in it reads as a
        negative int64, which no round's alphabet check admits."""
        with pytest.raises(AggregationError, match="must lie in"):
            pack_coordinates(np.array([2**63], dtype=np.uint64), 64)
        frame = _masked_frame(1, 64, (2**63).to_bytes(8, "little"))
        (coordinate,) = decode_message(frame)[1].vector
        assert coordinate < 0


class TestShareKeysFrame:
    @pytest.mark.parametrize(
        "msg_type", [MSG_SEALED_UPLOAD, MSG_SEALED_DELIVERY]
    )
    @pytest.mark.parametrize(
        "count, length, rest",
        [
            (2, 3, bytes(5)),  # one byte short of the matrix
            (2, 3, bytes(15)),  # one byte past the delivery
            (2**32 - 1, 2**32 - 1, bytes(8)),  # absurd claim, tiny body
            (0, 24, bytes(1)),  # nothing declared, something sent
        ],
    )
    def test_count_times_length_must_fill_the_frame(
        self, msg_type, count, length, rest
    ):
        with pytest.raises(AggregationError, match="do not fill"):
            decode_message(_sealed_frame(msg_type, count, length, rest))

    def test_truncated_prefix_is_refused(self):
        with pytest.raises(AggregationError, match="body truncated"):
            decode_message(_frame(MSG_SEALED_UPLOAD, bytes(11), HEADER))

    def test_encoder_refuses_a_ragged_message(self):
        with pytest.raises(AggregationError, match="2-d matrix"):
            encode_message(SealedUpload(1, np.zeros(4, np.uint8)), HEADER)
        with pytest.raises(AggregationError, match="senders for"):
            encode_message(
                SealedDelivery(1, np.array([1]), np.zeros((2, 3), np.uint8)),
                HEADER,
            )

    def test_every_server_datagram_is_one_frame(self):
        """The roster is one frame of columns, not a frame per member:
        whatever phase the server closes, a recipient decodes exactly
        one frame (so no decode is worth memoising across recipients)."""
        clients = {
            u: ClientSession(
                u, np.zeros(4, np.int64), 2**8, 2,
                np.random.default_rng(u), TOY_GROUP,
            )
            for u in (1, 2, 3)
        }
        server = ServerSession(2**8, 4, 2, group=TOY_GROUP)
        uploads = {u: b"".join(c.start()) for u, c in clients.items()}
        kinds = []
        while uploads:
            for u, upload in uploads.items():
                server.receive(upload, sender=u)
            deliveries = server.advance()
            for datagram in deliveries.values():
                (frame,) = decode_frames(datagram)
                kinds.append(type(frame[1]).__name__)
            uploads = {
                u: b"".join(clients[u].handle(datagram))
                for u, datagram in deliveries.items()
            }
        assert kinds == 3 * ["Roster"] + 3 * ["SealedDelivery"] + 3 * [
            "UnmaskRequest"
        ]

    def test_messages_compare_by_value(self):
        matrix = np.arange(6, dtype=np.uint8).reshape(2, 3)
        upload = SealedUpload(2, matrix)
        assert upload == SealedUpload(2, matrix.astype(np.int64))
        assert hash(upload) == hash(SealedUpload(2, matrix.copy()))
        assert upload != SealedUpload(2, matrix.reshape(3, 2))
        assert upload != SealedUpload(3, matrix)
        assert upload != SealedDelivery(2, np.array([1, 2]), matrix)
        masked = MaskedInput(1, np.array([1, 2]), 8)
        assert masked == MaskedInput(1, np.array([1, 2], dtype=np.uint8), 8)
        assert masked != dataclasses.replace(masked, bits=16)


class TestBoundedDecode:
    """Decode never allocates more than a small multiple of what it was
    handed: sizes are checked against the frame before any buffer is
    made, and the array sections are ``frombuffer`` views.  The one
    exception is inherent — an int64 vector is ``64 / bits`` times its
    packed payload — so there the decoder is bounded by what goes out,
    and the server decodes no masked-input datagram that is not the
    round's length to the byte (``tests/test_statemachine.py``,
    ``TestMaskedInputIngest``)."""

    @staticmethod
    def _peak(frame):
        tracemalloc.start()
        try:
            decode_message(frame)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_declared_sizes_buy_no_memory(self):
        for frame in (
            _masked_frame(2**32 - 1, 64, bytes(16)),
            _masked_frame(2**32 - 1, 1, bytes(16)),
            _sealed_frame(MSG_SEALED_UPLOAD, 2**32 - 1, 2**32 - 1, bytes(16)),
            _sealed_frame(MSG_SEALED_DELIVERY, 2**31, 0, bytes(16)),
        ):
            with pytest.raises(AggregationError, match="do not fill"):
                self._peak(frame)
            tracemalloc.start()
            with pytest.raises(AggregationError):
                decode_message(frame)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
            tracemalloc.stop()
        for frame in (
            _roster_frame(2**32 - 1, 255, bytes(16)),
            _unmask_frame(2**32 - 1, 2**32 - 1, 255, bytes(16)),
        ):
            with pytest.raises(AggregationError, match="body truncated"):
                self._peak(frame)
            tracemalloc.start()
            with pytest.raises(AggregationError):
                decode_message(frame)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
            tracemalloc.stop()

    def test_a_responses_columns_decode_in_place(self):
        frame = encode_message(
            UnmaskResponse(
                1,
                np.arange(512, dtype=np.uint64),
                np.arange(64 * 18, dtype=np.uint64).reshape(64, 18),
            ),
            HEADER,
        )
        assert self._peak(frame) < len(frame)

    def test_share_keys_frames_decode_in_place(self):
        """The envelope matrix is a view into the frame; the one thing a
        delivery allocates is its sender column, 8 bytes an id once the
        gaps are summed."""
        matrix = np.arange(128 * 24, dtype=np.uint8).reshape(128, 24)
        for message, column in (
            (SealedUpload(1, matrix), 0),
            (SealedDelivery(1, np.arange(128), matrix), 8 * 128),
        ):
            frame = encode_message(message, HEADER)
            assert self._peak(frame) < len(frame) + column
            decoded = decode_message(frame)[1]
            assert np.shares_memory(
                decoded.ciphertexts, np.frombuffer(frame, np.uint8)
            )

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_word_sized_masked_input_is_one_copy(self, bits):
        """The payload is viewed in place; the one allocation is the
        int64 vector the aggregator sums."""
        frame = encode_message(
            MaskedInput(1, np.arange(8192) % 251, bits), HEADER
        )
        assert self._peak(frame) < 8 * 8192 + 16 * 1024

    @pytest.mark.parametrize("bits", [1, 6, 10, 18, 33])
    def test_packed_masked_input_stays_a_small_multiple(self, bits):
        """At a sub-word width the decoded int64 vector alone is
        ``64 / bits`` times the payload, so the bound is against what
        goes out: the vector, and a constant of scratch space (the
        unpacker moves a block of coordinates at a time)."""
        dimension = 65_536
        frame = encode_message(
            MaskedInput(1, np.arange(dimension) % (1 << bits), bits), HEADER
        )
        assert self._peak(frame) < 8 * dimension + 512 * 1024


class TestUnmaskResponseRoundTrip:
    @given(
        responder=st.integers(min_value=1, max_value=2**32 - 1),
        seeds=st.lists(SHARE_VALUES, max_size=12),
        dropouts=st.integers(min_value=0, max_value=6),
        limbs=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_response_round_trip(
        self, responder, seeds, dropouts, limbs, data
    ):
        """One class in, the same class out, columns intact — and the
        bytes are a function of the values alone."""
        keys = data.draw(
            st.lists(
                SHARE_VALUES,
                min_size=dropouts * limbs,
                max_size=dropouts * limbs,
            )
        )
        response = UnmaskResponse(
            responder,
            np.array(seeds, dtype=np.uint64),
            np.array(keys, dtype=np.uint64).reshape(dropouts, limbs),
        )
        encoded = encode_message(response, HEADER)
        header, decoded = decode_message(encoded)
        assert header == HEADER
        assert decoded == response
        assert decoded.seed_shares.dtype == np.uint64
        assert decoded.key_shares.shape == (dropouts, limbs)
        assert encode_message(decoded, HEADER) == encoded


def _request_frame(*sets):
    """A well-framed unmask request: each set a u32 count and raw gaps."""
    body = b"".join(
        count.to_bytes(4, "little") + gaps for count, gaps in sets
    )
    return _frame(MSG_UNMASK_REQUEST, body, HEADER)


def _leb128(gap):
    """One gap in LEB128, written from the definition: seven bits a
    byte, lowest first, the top bit set on every byte but the last."""
    out = bytearray()
    while True:
        out.append(gap & 0x7F | (0x80 if gap >> 7 else 0))
        gap >>= 7
        if not gap:
            return bytes(out)


U32 = st.integers(min_value=0, max_value=2**32 - 1)
#: Id lists: empty, single (the ends of u32 included), dense runs, and
#: random sparse sets.
ID_LISTS = st.one_of(
    st.just([]),
    st.sampled_from([0, 1, 127, 128, 2**32 - 1]).map(lambda i: [i]),
    st.lists(U32, max_size=1),
    st.tuples(U32, st.integers(min_value=1, max_value=300)).map(
        lambda run: list(range(run[0], min(run[0] + run[1], 2**32)))
    ),
    st.sets(U32, max_size=64).map(sorted),
    st.sets(st.integers(min_value=0, max_value=5_000), max_size=64).map(
        sorted
    ),
)


class TestIdLists:
    """The one codec of the three id lists (roster indices, delivery
    senders, unmask-request sets): LEB128 gaps, read with no roster or
    session at hand."""

    @given(ids=ID_LISTS, tail=st.binary(max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ids, tail):
        """Exact bytes from the definition, and the reader stops where
        the list does whatever follows it."""
        encoded = _encode_ids(ids, "ids")
        gaps = [b - a - 1 for a, b in zip([-1] + ids, ids)]
        assert encoded == b"".join(map(_leb128, gaps))
        view = memoryview(encoded + tail)
        decoded, end = _read_ids(view, 0, len(view), len(ids))
        assert decoded.tolist() == ids and end == len(encoded)
        request = UnmaskRequest(frozenset(ids), frozenset(ids[:1]))
        assert decode_message(encode_message(request, HEADER))[1] == request

    def test_consecutive_ids_cost_a_byte_and_none_more_than_five(self):
        assert _encode_ids(range(1, 129), "ids") == bytes([1] + 127 * [0])
        assert _encode_ids([2**32 - 1], "ids") == bytes.fromhex("ffffffff0f")
        assert len(_encode_ids([0, 2**32 - 1], "ids")) == 1 + 5

    @pytest.mark.parametrize(
        "ids, match",
        [
            ([3, 1], "strictly increasing"),
            ([1, 1], "strictly increasing"),
            ([-1, 4], r"lie in \[0, 2\^32\)"),
            ([2**32], r"lie in \[0, 2\^32\)"),
            ([1.5], "list of integers"),
        ],
    )
    def test_encoder_refusals(self, ids, match):
        with pytest.raises(AggregationError, match=match):
            _encode_ids(ids, "ids")

    @pytest.mark.parametrize(
        "frame, match",
        [
            # More ids declared than bytes left: a gap is at least one.
            (_request_frame((5, bytes(3)), (0, b"")), "body truncated"),
            (_request_frame((2**32 - 1, bytes(8))), "body truncated"),
            # A gap whose continuation bit runs off the end.
            (_request_frame((0, b""), (1, b"\x80")), "body truncated"),
            (_request_frame((1, b"\x01"), (2, b"\x01\x81")), "body truncated"),
            # 1 written in two bytes, and 0 in three.
            (_request_frame((1, b"\x81\x00"), (0, b"")), "overlong"),
            (_request_frame((1, b"\x80\x80\x00"), (0, b"")), "overlong"),
            # A gap of 2^32, a sum past 2^32 - 1, and a six-byte gap
            # (past any u32's five).
            (_request_frame((1, _leb128(2**32)), (0, b"")), r"2\^32"),
            (
                _request_frame((2, _leb128(2**32 - 1) + b"\x00"), (0, b"")),
                r"2\^32",
            ),
            (
                _request_frame((1, b"\x80" * 5 + b"\x01"), (0, b"")),
                "at most 5 bytes",
            ),
            # A byte past both lists.
            (_request_frame((1, b"\x01"), (1, b"\x02\x00")), "1 trailing"),
        ],
        ids=[
            "count-over-bytes", "absurd-count", "cut-gap", "cut-second-gap",
            "overlong", "overlong-zero", "gap-2^32", "sum-2^32",
            "six-byte-gap", "trailing",
        ],
    )
    def test_decoder_refusals(self, frame, match):
        with pytest.raises(AggregationError, match=match):
            decode_message(frame)

    def test_delivery_and_roster_refuse_what_the_request_does(self):
        """The same reader serves the other two lists; what stands
        between a delivery's senders and its matrix must be exactly the
        gaps."""
        for count, gaps, match in (
            (1, b"\x81\x00", "overlong"),
            (2, b"\x01\x00\x00", "do not fill"),
            (2, b"\x01", "do not fill"),
            (2, b"\x01\x80\x01\x00", "do not fill"),
            (2, _leb128(2**32 - 1) + b"\x00", r"2\^32"),
        ):
            frame = _sealed_frame(
                MSG_SEALED_DELIVERY, count, 2, gaps + bytes(2 * count)
            )
            with pytest.raises(AggregationError, match=match):
                decode_message(frame)
        with pytest.raises(AggregationError, match="overlong"):
            decode_message(_roster_frame(1, 1, b"\x81\x00" + bytes(2)))
        with pytest.raises(AggregationError, match="strictly increasing"):
            encode_message(
                SealedDelivery(1, np.array([2, 2]), np.zeros((2, 2), np.uint8)),
                HEADER,
            )

    @pytest.mark.parametrize("spread", ["dense", "sparse"])
    @pytest.mark.parametrize("members", [3, 128, 1000])
    def test_decode_stays_within_a_small_multiple_of_the_frame(
        self, members, spread
    ):
        """Peak traced memory of a decode is at most ``16 x`` the frame
        plus 64 KiB for all three frames that carry id lists, their ids
        consecutive or spread over all of u32.  (An unmask request's
        sets are frozensets of Python ints, ~75 bytes an id past 256:
        past ~1 000 ids it is the message type, not the gaps, that
        breaks the bound; :meth:`test_the_reader_alone_is_bounded`
        holds the reader to it at any size.)"""
        rng = np.random.default_rng(members)
        ids = (
            np.arange(1, members + 1)
            if spread == "dense"
            else np.sort(rng.choice(2**32, members, replace=False))
        )
        split = 3 * members // 4
        for message in (
            Roster(tuple(ids.tolist()), (1,) * members, (2,) * members, 8),
            SealedDelivery(3, ids, np.zeros((members, 16), np.uint8)),
            UnmaskRequest(
                frozenset(ids[:split].tolist()), frozenset(ids[split:].tolist())
            ),
        ):
            frame = encode_message(message, HEADER)
            assert TestBoundedDecode._peak(frame) <= 16 * len(frame) + 65_536

    @pytest.mark.parametrize("spread", ["dense", "sparse"])
    def test_the_reader_alone_is_bounded(self, spread):
        members = 65_536
        rng = np.random.default_rng(7)
        ids = (
            np.arange(members)
            if spread == "dense"
            else np.sort(rng.choice(2**32, members, replace=False))
        )
        body = _encode_ids(ids, "ids")
        view = memoryview(body)
        tracemalloc.start()
        try:
            decoded, _ = _read_ids(view, 0, len(body), members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded, ids)
        assert peak <= 16 * len(body) + 65_536

    def test_absurd_counts_buy_no_memory(self):
        for frame in (
            _request_frame((2**32 - 1, bytes(16))),
            _roster_frame(2**32 - 1, 1, bytes(16)),
            _sealed_frame(MSG_SEALED_DELIVERY, 2**32 - 1, 0, bytes(16)),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(
                    AggregationError, match="body truncated|do not fill"
                ):
                    decode_message(frame)
                assert tracemalloc.get_traced_memory()[1] < 64 * 1024
            finally:
                tracemalloc.stop()


#: The public-key width of each key-agreement group a round can use.
KEY_WIDTHS = {"toy-dh": 8, "x25519": 32, "oakley-2": 128}


class TestValueIndependentLengths:
    """A frame's length is a function of the round, never of the values
    in it — the rule the masked input's packed width already keeps.
    Format 2 wrote keys and key-share values minimal-length, so an
    all-zero advertisement was 14 bytes shorter than an all-ones one."""

    def test_key_widths_are_the_groups(self):
        assert {
            name: public_key_length(group)
            for name, group in (
                ("toy-dh", TOY_GROUP),
                ("x25519", X25519_GROUP),
                ("oakley-2", DhGroup()),
            )
        } == KEY_WIDTHS

    @given(
        width=st.sampled_from(sorted(KEY_WIDTHS.values())),
        count=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_keys_travel_at_the_groups_width(self, width, count):
        lengths = set()
        for key in (0, 2 ** (8 * width) - 1):
            lengths.add(
                (
                    len(encode_message(Advertise(1, key, key, width), HEADER)),
                    len(
                        encode_message(
                            Roster(
                                tuple(range(1, count + 1)),
                                (key,) * count,
                                (key,) * count,
                                width,
                            ),
                            HEADER,
                        )
                    ),
                )
            )
        # The indices 1..count are the gaps 1, 0, 0, ...: a byte each.
        assert lengths == {
            (HEADER_BYTES + 5 + 2 * width,
             HEADER_BYTES + 5 + count * (1 + 2 * width))
        }

    @given(
        seeds=st.integers(min_value=0, max_value=64),
        dropouts=st.integers(min_value=0, max_value=8),
        limbs=st.integers(min_value=1, max_value=18),
    )
    @settings(max_examples=30, deadline=None)
    def test_share_values_travel_at_eight_bytes(self, seeds, dropouts, limbs):
        lengths = {
            len(
                encode_message(
                    UnmaskResponse(
                        1,
                        np.full(seeds, value, dtype=np.uint64),
                        np.full((dropouts, limbs), value, dtype=np.uint64),
                    ),
                    HEADER,
                )
            )
            for value in (0, DEFAULT_FIELD.prime - 1, 2**64 - 1)
        }
        assert lengths == {HEADER_BYTES + 13 + 8 * (seeds + dropouts * limbs)}


class TestRosterFrame:
    """A roster is one frame: ``count`` and ``width`` fix its key
    columns, which close the frame, and what is left before them is the
    indices' gaps — one to five bytes an index, strictly increasing by
    construction."""

    def test_hand_written_roster_decodes(self):
        """The indices 2 and 5 are the gaps 2 and 5 - 2 - 1 = 2."""
        frame = _roster_frame(2, 8, bytes([2, 2]) + bytes(32))
        assert decode_message(frame)[1] == Roster((2, 5), (0, 0), (0, 0), 8)

    @pytest.mark.parametrize(
        "frame, match",
        [
            (_frame(MSG_ROSTER, bytes(4), HEADER), "body truncated"),
            # Two one-byte gaps and two 2 x 8-byte keys are 34 bytes.
            (_roster_frame(2, 8, bytes(33)), "body truncated"),
            (_roster_frame(2, 8, bytes(35)), "1 trailing body bytes"),
            # A count the columns do not fill, either way: three members
            # need 3 + 48 bytes; one leaves 34 - 16 - 1 = 17 over.
            (_roster_frame(3, 8, bytes(34)), "body truncated"),
            (_roster_frame(1, 8, bytes(34)), "17 trailing body bytes"),
            # 8-byte keys declared 9 bytes wide (2 + 36 > 34) or 7 wide
            # (34 - 28 = 6 bytes before the keys, 2 of them gaps).
            (_roster_frame(2, 9, bytes(34)), "body truncated"),
            (_roster_frame(2, 7, bytes(34)), "4 trailing body bytes"),
            (_roster_frame(0, 0, b""), "outside 1..255"),
            (_roster_frame(2**32 - 1, 255, bytes(16)), "body truncated"),
        ],
        ids=[
            "truncated-prefix", "truncated-body", "trailing-bytes",
            "count-over", "count-under", "width-over", "width-under",
            "zero-width", "absurd-claim",
        ],
    )
    def test_a_roster_its_counts_do_not_fit_is_refused(self, frame, match):
        with pytest.raises(AggregationError, match=match):
            decode_message(frame)

    @pytest.mark.parametrize(
        "indices",
        [[5, 2], [2, 2], [1, 3, 2]],
        ids=["unsorted", "repeated", "out-of-order"],
    )
    def test_unsorted_or_repeated_indices_are_refused(self, indices):
        """The encoder refuses them; no frame can carry them (below)."""
        zeros = (0,) * len(indices)
        with pytest.raises(AggregationError, match="strictly increasing"):
            encode_message(Roster(tuple(indices), zeros, zeros, 8), HEADER)

    @given(
        count=st.integers(min_value=0, max_value=8),
        gaps=st.binary(max_size=48),
    )
    @settings(max_examples=300, deadline=None)
    def test_no_bytes_decode_to_unsorted_indices(self, count, gaps):
        """Whatever bytes stand before the key columns, a roster decodes
        with strictly increasing indices below 2^32, or not at all."""
        frame = _roster_frame(count, 1, gaps + bytes(2 * count))
        try:
            indices = decode_message(frame)[1].indices
        except AggregationError:
            return
        assert list(indices) == sorted(set(indices))
        assert len(indices) == count and indices[-1:] < (2**32,)

    def test_ragged_columns_are_unencodable(self):
        with pytest.raises(AggregationError, match="2 keys of each kind"):
            encode_message(Roster((1, 2), (0, 0), (0,), 8), HEADER)

    def test_a_roster_at_another_width_is_refused_by_the_client(self):
        """The decoder takes any width; the client holds it to its
        group's, as the server holds an advertisement to it."""
        clients = {
            u: ClientSession(
                u, np.zeros(4, np.int64), 2**8, 2,
                np.random.default_rng(u), TOY_GROUP,
            )
            for u in (1, 2)
        }
        server = ServerSession(2**8, 4, 2, group=TOY_GROUP)
        for u, client in clients.items():
            server.receive(b"".join(client.start()), sender=u)
        roster = decode_message(server.advance()[1])[1]
        wide = dataclasses.replace(roster, width=9)
        with pytest.raises(AggregationError, match="9-byte keys"):
            clients[1].handle(encode_message(wide, server.header))
        (upload,) = clients[1].handle(encode_message(roster, server.header))
        assert isinstance(decode_message(upload)[1], SealedUpload)

    def test_an_advertisement_at_another_width_is_refused(self):
        client = ClientSession(
            1, np.zeros(4, np.int64), 2**8, 2,
            np.random.default_rng(1), TOY_GROUP,
        )
        server = ServerSession(2**8, 4, 2, group=TOY_GROUP)
        hello, advertise = client.start()
        keys = decode_message(advertise)[1]
        wide = encode_message(
            dataclasses.replace(keys, width=9), server.header
        )
        with pytest.raises(AggregationError, match="9-byte keys"):
            server.receive(hello + wide, sender=1)
        server.receive(hello + advertise, sender=1)
        assert server.received() == frozenset({1})


class TestColumnarRouting:
    """The server routes a share-keys phase as one transpose of the
    uploaded matrices; it never looks inside an envelope."""

    @staticmethod
    def _routed(dropped=()):
        rng = np.random.default_rng(3)
        clients = {
            u: ClientSession(
                u, np.zeros(4, np.int64), 2**8, 2,
                np.random.default_rng(u), TOY_GROUP,
            )
            for u in (1, 2, 3, 5)
        }
        server = ServerSession(2**8, 4, 2, group=TOY_GROUP)
        for u, client in clients.items():
            server.receive(b"".join(client.start()), sender=u)
        server.advance()
        uploads = {
            # A toy-group envelope: a seed share and one key digit.
            u: rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
            for u in clients
            if u not in dropped
        }
        for u, matrix in uploads.items():
            server.receive(
                encode_message(SealedUpload(u, matrix), server.header),
                sender=u,
            )
        return uploads, {
            u: decode_message(datagram)[1]
            for u, datagram in server.advance().items()
        }

    def test_route_matches_per_frame_transpose(self):
        uploads, deliveries = self._routed()
        assert sorted(deliveries) == [1, 2, 3, 5]
        for position, recipient in enumerate([1, 2, 3, 5]):
            delivery = deliveries[recipient]
            assert delivery.recipient == recipient
            assert delivery.senders.tolist() == [1, 2, 3, 5]
            for row, sender in enumerate(delivery.senders.tolist()):
                assert np.array_equal(
                    delivery.ciphertexts[row], uploads[sender][position]
                )

    def test_routed_mailbox_names_who_completed_the_phase(self):
        """A client that did not share keys gets no mailbox and seals no
        row of anyone else's: the sender column is ``U1``."""
        _, deliveries = self._routed(dropped=(2,))
        assert sorted(deliveries) == [1, 3, 5]
        for delivery in deliveries.values():
            assert delivery.senders.tolist() == [1, 3, 5]
            assert delivery.ciphertexts.shape == (3, 16)
