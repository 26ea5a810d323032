"""Wire-format tests: golden-vector round trips and codec properties.

Mirrors the style of ``tests/test_keys_prg.py``: every message type has
a frozen-hex golden vector pinning the byte layout (so accidental format
changes fail loudly — recorded traces and cross-version negotiation
depend on stable bytes), plus Hypothesis encode/decode property tests
and malformed-frame rejection coverage.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.secagg.wire import (
    PROTOCOL_V1,
    WIRE_FORMAT_VERSION,
    WIRE_MAGIC,
    Advertise,
    Hello,
    MaskedInput,
    NegotiatedHeader,
    Reject,
    Resume,
    Roster,
    SealedDelivery,
    SealedUpload,
    UnmaskRequest,
    UnmaskResponse,
    Welcome,
    WireStats,
    decode_frames,
    decode_message,
    encode_message,
)

HEADER = NegotiatedHeader(version=PROTOCOL_V1, mask_prg="sha256-ctr")

#: One representative message per wire type, with its frozen encoding
#: under ``HEADER``.  Regenerate only on a deliberate format-version
#: bump — these bytes are the compatibility contract.  Recorded for
#: format 3; the masked-input, advertise, roster and unmask-response
#: entries were written out by hand from the layout table in
#: ``repro.secagg.wire`` first (see ``TestGoldenVectors``'s
#: ``*_by_hand`` tests).  Format 4 moved the format byte from 3 to 4 and
#: left every body as it was; the unmask response's key share went from
#: format 3's two toy-group limbs to the toy group's one base-p digit
#: (``digits`` 2 -> 1, one 8-byte value fewer, frame length 0x42 -> 0x3a),
#: and format 3's bytes are kept as a refused frame below.  Format 5
#: moved the format byte to 5 and wrote the three id lists (the roster's
#: indices, the delivery's senders, both sets of the unmask request) as
#: LEB128 gaps instead of u32 columns, one byte an id here: the roster
#: 0x42 -> 0x3c, the delivery 0x2d -> 0x27 and the request 0x2d -> 0x21
#: bytes; format 4's three frames are kept as refused frames below.
GOLDEN = {
    "hello": (
        Hello(sender=7),
        "534705011900000001000a7368613235362d63747207000000",
    ),
    "advertise": (
        Advertise(
            index=3, channel_public=0x1F2E3D4C5B6A7988, mask_public=2, width=8
        ),
        # index, width; then both keys at 8 bytes, the small one too.
        "534705022a00000001000a7368613235362d637472"
        "0300000008"
        "88796a5b4c3d2e1f"
        "0200000000000000",
    ),
    "roster": (
        Roster(
            indices=(2, 5),
            channel_keys=(0x1F2E3D4C5B6A7988, 7),
            mask_keys=(2, 0x0102030405060708),
            width=8,
        ),
        # count, width; the indices as gaps (2, then 5 - 2 - 1); the
        # channel-key column; the mask-key column.
        "5347050b3c00000001000a7368613235362d637472"
        "0200000008"
        "0202"
        "88796a5b4c3d2e1f" "0700000000000000"
        "0200000000000000" "0807060504030201",
    ),
    "sealed-upload": (
        SealedUpload(
            sender=2,
            ciphertexts=np.array([[0xDE, 0xAD], [0xBE, 0xEF]], dtype=np.uint8),
        ),
        # sender, count, L; then the (2, 2) matrix row by row.
        "534705032500000001000a7368613235362d637472"
        "020000000200000002000000deadbeef",
    ),
    "sealed-delivery": (
        SealedDelivery(
            recipient=5,
            senders=np.array([2, 6], dtype="<u4"),
            ciphertexts=np.array([[0xDE, 0xAD], [0xBE, 0xEF]], dtype=np.uint8),
        ),
        # recipient, count, L; the senders as gaps (2, then 6 - 2 - 1);
        # the matrix.
        "5347050a2700000001000a7368613235362d637472"
        "050000000200000002000000" "0203" "deadbeef",
    ),
    "masked-input": (
        MaskedInput(
            sender=4,
            vector=np.array([0, 1, 1023, 512, 5], dtype=np.int64),
            bits=10,
        ),
        # sender, dimension, bits; then 5 x 10 bits in 7 bytes.
        "534705042500000001000a7368613235362d637472"
        "04000000050000000a0004f03f800500",
    ),
    "unmask-request": (
        UnmaskRequest(survivors=frozenset({1, 3, 2}), dropouts=frozenset({9})),
        # Each set: its count, then its ids as gaps (1, 0, 0; and 9).
        "534705052100000001000a7368613235362d637472"
        "03000000" "010000" "01000000" "09",
    ),
    "unmask-response": (
        UnmaskResponse(
            responder=6,
            seed_shares=np.array([123456789, 1], dtype=np.uint64),
            key_shares=np.array([[2**61 - 2]], dtype=np.uint64),
        ),
        # responder, seeds, keys, digits; the seed column; the key matrix.
        "534705063a00000001000a7368613235362d637472"
        "06000000020000000100000001"
        "15cd5b0700000000" "0100000000000000"
        "feffffffffffff1f",
    ),
    "reject": (
        Reject(client=8, reason="unsupported protocol version 9"),
        "534705073900000001000a7368613235362d637472"
        "080000001e00756e737570706f727465642070726f746f636f6c2076"
        "657273696f6e2039",
    ),
    "welcome": (
        Welcome(client=5, round_id=0x0102030405060708),
        "534705082100000001000a7368613235362d637472"
        "050000000807060504030201",
    ),
    "resume": (
        Resume(sender=9, round_id=3, deliveries=2),
        "534705092200000001000a7368613235362d637472"
        "09000000030000000000000002",
    ),
}


def gap_bytes(ids) -> int:
    """Bytes the sorted ``ids`` take as LEB128 gaps, from the layout: a
    gap ``g`` is one byte a started 7 bits."""
    ordered = sorted(ids)
    gaps = [b - a - 1 for a, b in zip([-1] + ordered, ordered)]
    return sum(max(1, -(-gap.bit_length() // 7)) for gap in gaps)


def _by_hand(msg_type: int, body: bytes) -> str:
    """A format-5 frame under ``HEADER``, written out from the layout."""
    prg = b"sha256-ctr"
    header = (
        WIRE_MAGIC
        + bytes([WIRE_FORMAT_VERSION, msg_type])  # format 5, message type
        + (11 + len(prg) + len(body)).to_bytes(4, "little")
        + PROTOCOL_V1.to_bytes(2, "little")
        + bytes([len(prg)])
        + prg
    )
    return (header + body).hex()


class TestGoldenVectors:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoding_matches_golden(self, name):
        message, expected_hex = GOLDEN[name]
        assert encode_message(message, HEADER).hex() == expected_hex

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes_decode_back(self, name):
        message, golden_hex = GOLDEN[name]
        header, decoded = decode_message(bytes.fromhex(golden_hex))
        assert header == HEADER
        assert decoded == message

    def test_masked_input_golden_by_hand(self):
        """The masked-input golden, derived from the documented layout
        and not from the encoder: coordinate ``i`` occupies stream bits
        ``[10 i, 10 i + 10)``, stream bit ``k`` is bit ``k % 8`` of
        byte ``k // 8``.

        ====== ===== ============ ===================================
        value  at    bits set     bytes touched
        ====== ===== ============ ===================================
        0      0     —            —
        1      10    10           byte 1 |= 0x04
        1023   20    20..29       byte 2 |= 0xF0, byte 3 |= 0x3F
        512    30    39           byte 4 |= 0x80
        5      40    40, 42       byte 5 |= 0x05
        ====== ===== ============ ===================================

        50 bits fill ``ceil(50 / 8) = 7`` bytes, the last six bits of
        which are padding and zero."""
        payload = bytes([0x00, 0x04, 0xF0, 0x3F, 0x80, 0x05, 0x00])
        body = (
            (4).to_bytes(4, "little")  # sender
            + (5).to_bytes(4, "little")  # dimension
            + (10).to_bytes(1, "little")  # bits
            + payload
        )
        assert _by_hand(4, body) == GOLDEN["masked-input"][1]

    def test_advertise_golden_by_hand(self):
        """A key is the group's width whatever its value: the mask key
        2 takes eight bytes like the channel key beside it."""
        body = (
            (3).to_bytes(4, "little")  # index
            + (8).to_bytes(1, "little")  # width
            + (0x1F2E3D4C5B6A7988).to_bytes(8, "little")  # channel key
            + (2).to_bytes(8, "little")  # mask key
        )
        assert _by_hand(2, body) == GOLDEN["advertise"][1]

    def test_roster_golden_by_hand(self):
        """One frame: the count and width once, then three columns —
        the indices 2 and 5 as the gaps 2 and ``5 - 2 - 1 = 2``, a byte
        each."""
        body = (
            (2).to_bytes(4, "little")  # count
            + (8).to_bytes(1, "little")  # width
            + bytes([2, 2])  # the index gaps
            + b"".join(
                key.to_bytes(8, "little")
                for key in (0x1F2E3D4C5B6A7988, 7, 2, 0x0102030405060708)
            )
        )
        assert _by_hand(11, body) == GOLDEN["roster"][1]

    def test_sealed_delivery_golden_by_hand(self):
        """The senders 2 and 6 are the gaps 2 and ``6 - 2 - 1 = 3``."""
        body = (
            (5).to_bytes(4, "little")  # recipient
            + (2).to_bytes(4, "little")  # count
            + (2).to_bytes(4, "little")  # L
            + bytes([2, 3])  # the sender gaps
            + bytes([0xDE, 0xAD, 0xBE, 0xEF])
        )
        assert _by_hand(10, body) == GOLDEN["sealed-delivery"][1]

    def test_unmask_request_golden_by_hand(self):
        """Each set is its count and then its sorted ids as gaps: the
        survivors 1, 2, 3 are 1, 0, 0 and the dropout 9 is 9."""
        body = (
            (3).to_bytes(4, "little")
            + bytes([1, 0, 0])
            + (1).to_bytes(4, "little")
            + bytes([9])
        )
        assert _by_hand(5, body) == GOLDEN["unmask-request"][1]

    def test_unmask_response_golden_by_hand(self):
        """Share values only, 8 bytes each: no survivor ids, no points,
        no per-peer digit counts or length prefixes.  A toy-group key is
        one base-p digit, so a dropout costs one value."""
        body = (
            (6).to_bytes(4, "little")  # responder
            + (2).to_bytes(4, "little")  # seed shares
            + (1).to_bytes(4, "little")  # key shares
            + (1).to_bytes(1, "little")  # digits a key share
            + b"".join(
                value.to_bytes(8, "little")
                for value in (123456789, 1, 2**61 - 2)
            )
        )
        assert _by_hand(6, body) == GOLDEN["unmask-response"][1]

    def test_header_variants_are_pinned_too(self):
        frame = encode_message(
            Hello(sender=1), NegotiatedHeader(version=2, mask_prg="shake256")
        )
        assert frame.hex() == (
            "5347050117000000020008" "7368616b65323536" "01000000"
        )

    def test_encoding_is_deterministic_under_set_order(self):
        # frozenset iteration order varies; the encoding must not.
        a = UnmaskRequest(
            survivors=frozenset([3, 1, 2]), dropouts=frozenset([5, 4])
        )
        b = UnmaskRequest(
            survivors=frozenset([2, 3, 1]), dropouts=frozenset([4, 5])
        )
        assert encode_message(a, HEADER) == encode_message(b, HEADER)


class TestFrameStream:
    def test_concatenated_frames_decode_in_order(self):
        messages = [Hello(sender=1), Advertise(3, 17, 23, 8), Hello(sender=2)]
        datagram = b"".join(encode_message(m, HEADER) for m in messages)
        decoded = decode_frames(datagram)
        assert [m for _, m in decoded] == messages
        assert all(h == HEADER for h, _ in decoded)

    def test_decode_message_rejects_multi_frame_datagrams(self):
        datagram = encode_message(Hello(1), HEADER) * 2
        with pytest.raises(AggregationError, match="exactly one"):
            decode_message(datagram)

    def test_empty_datagram_decodes_to_no_frames(self):
        assert decode_frames(b"") == []


class TestMalformedFrames:
    def test_bad_magic_rejected(self):
        frame = bytearray(encode_message(Hello(1), HEADER))
        frame[0:2] = b"XX"
        with pytest.raises(AggregationError, match="magic"):
            decode_frames(bytes(frame))

    def test_unknown_format_version_rejected(self):
        frame = bytearray(encode_message(Hello(1), HEADER))
        frame[2] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(AggregationError, match="format version"):
            decode_frames(bytes(frame))

    def test_format_1_frame_is_refused_with_what_this_side_speaks(self):
        """No format-1 decoder is kept: a frame recorded before the bump
        (here format 1's masked-input golden) gets the typed refusal."""
        old = bytes.fromhex(
            "5347" "01" "043d00000001000a7368613235362d637472"
            "0400000004000000000000000000000001000000000000"
            "00ffff0000000000000000000000010000"
        )
        with pytest.raises(
            AggregationError, match="format version 1 .*speaks 5"
        ):
            decode_frames(old)

    def test_format_2_frame_is_refused_with_what_this_side_speaks(self):
        """Format 2's advertise and unmask-response goldens (minimal-
        length keys; survivor ids and points beside each seed share)
        get the same typed refusal: no format-2 decoder is kept."""
        for old in (
            "534702022600000001000a7368613235362d637472"
            "03000000080088796a5b4c3d2e1f010002",
            "534702065100000001000a7368613235362d637472"
            "060000000200000004"
            "02000000050000000600000006000000"
            "15cd5b0701000000"
            "010000000900000006000000020001000a0800feffffffffffff1f",
        ):
            with pytest.raises(
                AggregationError, match="format version 2 .*speaks 5"
            ):
                decode_frames(bytes.fromhex(old))

    def test_format_3_frame_is_refused_with_what_this_side_speaks(self):
        """Format 3's unmask-response golden — a key share as two
        base-2^60 limbs, a layout format 4 would parse without error
        and reconstruct into the wrong key — and its sealed upload get
        the typed refusal: no format-3 decoder is kept."""
        for old in (
            "534703064200000001000a7368613235362d637472"
            "06000000020000000100000002"
            "15cd5b0700000000" "0100000000000000"
            "0a00000000000000" "feffffffffffff1f",
            "534703032500000001000a7368613235362d637472"
            "020000000200000002000000deadbeef",
        ):
            with pytest.raises(
                AggregationError,
                match=r"unsupported wire format version 3 "
                r"\(this implementation speaks 5\)",
            ):
                decode_frames(bytes.fromhex(old))

    def test_format_4_frame_is_refused_with_what_this_side_speaks(self):
        """Format 4's roster, delivery and unmask-request goldens wrote
        their ids as u32 columns, which a format-5 reader would take for
        gaps (the roster's ``02000000`` as the ids 2, 3, 4, 5): each gets
        the typed refusal, and no format-4 decoder is kept."""
        for old in (
            "5347040b4200000001000a7368613235362d637472"
            "0200000008" "0200000005000000"
            "88796a5b4c3d2e1f" "0700000000000000"
            "0200000000000000" "0807060504030201",
            "5347040a2d00000001000a7368613235362d637472"
            "0500000002000000020000000200000006000000deadbeef",
            "534704052d00000001000a7368613235362d637472"
            "030000000100000002000000030000000100000009000000",
        ):
            with pytest.raises(
                AggregationError, match="format version 4 .*speaks 5"
            ):
                decode_frames(bytes.fromhex(old))

    def test_unknown_message_type_rejected(self):
        frame = bytearray(encode_message(Hello(1), HEADER))
        frame[3] = 99
        with pytest.raises(AggregationError, match="message type"):
            decode_frames(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = encode_message(Advertise(3, 17, 23, 8), HEADER)
        with pytest.raises(AggregationError, match="malformed|truncated"):
            decode_frames(frame[:-3])

    def test_trailing_body_bytes_rejected(self):
        frame = bytearray(encode_message(Hello(1), HEADER))
        # Grow the declared length and append a stray byte.
        frame += b"\x00"
        frame[4:8] = len(frame).to_bytes(4, "little")
        with pytest.raises(AggregationError, match="trailing"):
            decode_frames(bytes(frame))

    def test_truncated_header_rejected(self):
        with pytest.raises(AggregationError, match="truncated header"):
            decode_frames(WIRE_MAGIC + b"\x01")

    @pytest.mark.parametrize("key", [-5, 2**64])
    def test_a_key_outside_its_width_is_unencodable(self, key):
        """Refused, never wrapped or truncated to the width."""
        with pytest.raises(AggregationError, match="must lie in"):
            encode_message(Advertise(1, key, 2, 8), HEADER)
        with pytest.raises(AggregationError, match="must lie in"):
            encode_message(Roster((1,), (2,), (key,), 8), HEADER)

    @pytest.mark.parametrize("width", [0, 256])
    def test_a_key_width_outside_1_to_255_is_unencodable(self, width):
        with pytest.raises(AggregationError, match="outside 1..255"):
            encode_message(Advertise(1, 0, 0, width), HEADER)


class TestHypothesisRoundTrips:
    @given(
        sender=st.integers(min_value=0, max_value=2**32 - 1),
        version=st.integers(min_value=0, max_value=2**16 - 1),
        prg=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=24,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_hello_round_trip(self, sender, version, prg):
        header = NegotiatedHeader(version=version, mask_prg=prg)
        decoded_header, decoded = decode_message(
            encode_message(Hello(sender=sender), header)
        )
        assert decoded_header == header
        assert decoded == Hello(sender=sender)

    @given(
        index=st.integers(min_value=1, max_value=2**32 - 1),
        width=st.integers(min_value=1, max_value=255),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_advertise_round_trip(self, index, width, data):
        key = st.integers(min_value=0, max_value=2 ** (8 * width) - 1)
        message = Advertise(
            index=index,
            channel_public=data.draw(key),
            mask_public=data.draw(key),
            width=width,
        )
        encoded = encode_message(message, HEADER)
        assert decode_message(encoded)[1] == message
        # header, (index, width), the two keys.
        assert len(encoded) == 21 + 5 + 2 * width

    @given(
        indices=st.sets(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=12
        ),
        width=st.sampled_from([1, 8, 32, 128, 255]),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roster_round_trip(self, indices, width, data):
        count = len(indices)
        keys = st.lists(
            st.integers(min_value=0, max_value=2 ** (8 * width) - 1),
            min_size=count,
            max_size=count,
        )
        message = Roster(
            tuple(sorted(indices)),
            tuple(data.draw(keys)),
            tuple(data.draw(keys)),
            width,
        )
        encoded = encode_message(message, HEADER)
        assert decode_message(encoded)[1] == message
        # header, (count, width), the index gaps, two key columns.
        assert len(encoded) == 21 + 5 + gap_bytes(indices) + 2 * count * width

    @given(
        owner=st.integers(min_value=1, max_value=2**32 - 1),
        senders=st.sets(
            st.integers(min_value=1, max_value=2**32 - 1), max_size=12
        ).map(sorted),
        length=st.integers(min_value=0, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_sealed_shares_round_trip(self, owner, senders, length, data):
        """One codec for both directions of the share-keys leg: an
        upload is the matrix, a delivery the matrix and who sealed each
        row (``U1``, sorted)."""
        size = len(senders) * length
        raw = data.draw(st.binary(min_size=size, max_size=size))
        ciphertexts = np.frombuffer(raw, dtype=np.uint8).reshape(
            len(senders), length
        )
        for message in (
            SealedUpload(owner, ciphertexts),
            SealedDelivery(owner, np.asarray(senders, "<u4"), ciphertexts),
        ):
            encoded = encode_message(message, HEADER)
            assert decode_message(encoded)[1] == message
            # header, (owner, count, L), [sender gaps], matrix.
            column = gap_bytes(senders) * isinstance(message, SealedDelivery)
            assert len(encoded) == 21 + 12 + column + size

    @given(
        sender=st.integers(min_value=1, max_value=2**32 - 1),
        values=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1), max_size=32
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_input_round_trip(self, sender, values):
        """At the default width (64 bits: what a message says when no
        session stated the round's) every int64 alphabet fits."""
        message = MaskedInput(
            sender=sender, vector=np.asarray(values, dtype=np.int64)
        )
        decoded = decode_message(encode_message(message, HEADER))[1]
        assert decoded == message
        assert decoded.vector.dtype == np.int64

    @given(
        survivors=st.frozensets(
            st.integers(min_value=1, max_value=2**32 - 1), max_size=16
        ),
        dropouts=st.frozensets(
            st.integers(min_value=1, max_value=2**32 - 1), max_size=16
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_request_round_trip(self, survivors, dropouts):
        message = UnmaskRequest(survivors=survivors, dropouts=dropouts)
        encoded = encode_message(message, HEADER)
        assert decode_message(encoded)[1] == message
        # header, then each set's count and gaps.
        assert len(encoded) == 21 + 8 + gap_bytes(survivors) + gap_bytes(
            dropouts
        )

    @given(
        responder=st.integers(min_value=1, max_value=2**32 - 1),
        # Share values live in a field that fits uint64.
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), max_size=8
        ),
        dropouts=st.integers(min_value=0, max_value=4),
        limbs=st.integers(min_value=0, max_value=20),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_response_round_trip(
        self, responder, seeds, dropouts, limbs, data
    ):
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=dropouts * limbs,
                max_size=dropouts * limbs,
            )
        )
        message = UnmaskResponse(
            responder=responder,
            seed_shares=np.array(seeds, dtype=np.uint64),
            key_shares=np.array(values, dtype=np.uint64).reshape(
                dropouts, limbs
            ),
        )
        encoded = encode_message(message, HEADER)
        assert decode_message(encoded)[1] == message
        # header, (responder, seeds, keys, limbs), 8 bytes a value.
        assert len(encoded) == 21 + 13 + 8 * (len(seeds) + len(values))

    @given(
        client=st.integers(min_value=1, max_value=2**32 - 1),
        reason=st.text(max_size=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_reject_round_trip(self, client, reason):
        message = Reject(client=client, reason=reason)
        assert decode_message(encode_message(message, HEADER))[1] == message

    @given(
        client=st.integers(min_value=0, max_value=2**32 - 1),
        round_id=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_welcome_round_trip(self, client, round_id):
        message = Welcome(client=client, round_id=round_id)
        assert decode_message(encode_message(message, HEADER))[1] == message

    @given(
        sender=st.integers(min_value=1, max_value=2**32 - 1),
        round_id=st.integers(min_value=0, max_value=2**64 - 1),
        deliveries=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=50, deadline=None)
    def test_resume_round_trip(self, sender, round_id, deliveries):
        message = Resume(
            sender=sender, round_id=round_id, deliveries=deliveries
        )
        assert decode_message(encode_message(message, HEADER))[1] == message


#: Valid frames the mutation property starts from: every golden, plus
#: id lists long and sparse enough for a mutation to land in a
#: multi-byte gap.
MUTATION_SEEDS = [bytes.fromhex(golden) for _, golden in GOLDEN.values()] + [
    encode_message(message, HEADER)
    for message in (
        Roster((1, 2, 3, 200, 70_000), (5,) * 5, (9,) * 5, 1),
        SealedDelivery(
            4,
            np.array([1, 2, 300, 2**32 - 1]),
            np.arange(8, dtype=np.uint8).reshape(4, 2),
        ),
        UnmaskRequest(
            survivors=frozenset({1, 2, 3, 5, 129, 2**20}),
            dropouts=frozenset({4, 2**32 - 1}),
        ),
    )
]


@st.composite
def mutated_frames(draw):
    """A valid frame after one to three byte flips, insertions or
    deletions."""
    frame = bytearray(draw(st.sampled_from(MUTATION_SEEDS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(frame)))
        kind = draw(st.sampled_from(["flip", "insert", "delete"]))
        if kind == "flip" and at < len(frame):
            frame[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif kind == "insert":
            frame[at:at] = draw(st.binary(min_size=1, max_size=6))
        else:
            del frame[at : at + draw(st.integers(min_value=1, max_value=6))]
    return bytes(frame)


class TestMutatedFrames:
    @given(frame=mutated_frames())
    @settings(max_examples=2_000, deadline=None)
    def test_a_mutated_frame_is_refused_or_canonical(self, frame):
        """Every frame has one encoding: whatever a corrupted frame
        decodes to re-encodes to exactly its bytes, or the codec refuses
        it with a typed error — never another exception, and never a
        message a second encoding also stands for (an id column read
        as ``[3, 1, 1]`` that comes back as ``{1, 3}``)."""
        try:
            header, message = decode_message(frame)
            again = encode_message(message, header)
        except AggregationError:
            return
        assert again == frame


class TestWireStats:
    def test_totals_and_phase_breakdown(self):
        stats = WireStats()
        stats.record_upload("advertise", 1, 100, messages=2)
        stats.record_upload("advertise", 2, 50)
        stats.record_download("advertise", 1, 400, messages=4)
        stats.record_upload("unmask", 1, 25)
        assert stats.total_messages == 8
        assert stats.total_bytes == 575
        phases = stats.phase_totals()
        assert phases["advertise"] == {
            "up_messages": 3,
            "up_bytes": 150,
            "down_messages": 4,
            "down_bytes": 400,
        }
        assert phases["unmask"]["up_bytes"] == 25
        # The transports' per-phase metering primitive agrees.
        assert stats.phase_summary("advertise") == phases["advertise"]
        assert stats.phase_summary("share-keys") is None

    def test_client_totals(self):
        stats = WireStats()
        stats.record_upload("advertise", 1, 10)
        stats.record_download("share-keys", 1, 30, messages=3)
        stats.record_upload("advertise", 2, 7)
        per_client = stats.client_totals()
        assert per_client[1] == {
            "up_messages": 1,
            "up_bytes": 10,
            "down_messages": 3,
            "down_bytes": 30,
        }
        assert per_client[2]["up_bytes"] == 7

    def test_merge_folds_ledgers(self):
        a, b = WireStats(), WireStats()
        a.record_upload("advertise", 1, 10)
        b.record_upload("advertise", 1, 5, messages=2)
        b.record_download("unmask", 3, 8)
        merged = WireStats().merge([a, b])
        assert merged.total_messages == 4
        assert merged.total_bytes == 23
        assert merged.uploads["advertise"][1].bytes == 15

    def test_stats_survive_pickling(self):
        # Sharded rounds carry ledgers across process boundaries.
        import pickle

        stats = WireStats()
        stats.record_upload("advertise", 1, 10)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.total_bytes == 10


class TestHeaderValidation:
    def test_version_must_fit_uint16(self):
        with pytest.raises(AggregationError, match="uint16"):
            NegotiatedHeader(version=2**16, mask_prg="sha256-ctr")

    def test_prg_name_must_be_ascii(self):
        with pytest.raises(AggregationError, match="ascii"):
            NegotiatedHeader(version=1, mask_prg="φ-prg")

    def test_prg_name_must_be_nonempty(self):
        with pytest.raises(AggregationError, match="1..255"):
            NegotiatedHeader(version=1, mask_prg="")

    def test_headers_are_value_objects(self):
        assert NegotiatedHeader(1, "shake256") == NegotiatedHeader(1, "shake256")
        assert NegotiatedHeader(1, "shake256") != NegotiatedHeader(2, "philox")
        assert dataclasses.asdict(NegotiatedHeader(1, "shake256")) == {
            "version": 1,
            "mask_prg": "shake256",
        }
