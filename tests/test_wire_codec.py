"""Array-carrying wire messages: golden pins, one representation each.

The sealed-share leg is the one with two codecs — the array-at-a-time
trio and the per-frame reference :func:`~repro.secagg.wire.encode_message`
— and their whole contract is *bit-identity*: golden vectors freeze the
bytes and Hypothesis pins the equivalence on arbitrary inputs.  A masked
input and an unmask response have one class and one codec each; here
their golden bytes round-trip through it, and the refusals that guard
the columnar seed section are pinned.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.secagg.shamir import LimbShares
from repro.secagg.wire import (
    MSG_UNMASK_RESPONSE,
    PROTOCOL_V1,
    MaskedInput,
    NegotiatedHeader,
    SealedShares,
    UnmaskResponse,
    decode_message,
    decode_sealed_columns,
    encode_message,
    encode_sealed_matrix,
    route_sealed_stack,
)
from repro.secagg.wire import _frame

HEADER = NegotiatedHeader(version=PROTOCOL_V1, mask_prg="sha256-ctr")

#: Frozen encoder outputs (same format contract as
#: ``tests/test_wire.py``): the masked-input and unmask hexes are
#: byte-identical to that module's golden vectors.
GOLDEN_SEALED_MATRIX = (
    "534701032300000001000a7368613235362d637472"
    "020000000500000002000000dead"
    "534701032300000001000a7368613235362d637472"
    "020000000600000002000000beef"
)
GOLDEN_MASKED = (
    "534701043d00000001000a7368613235362d637472"
    "0400000004000000000000000000000001000000000000"
    "00ffff0000000000000000000000010000"
)
GOLDEN_UNMASK = (
    "534701065100000001000a7368613235362d637472"
    "060000000200000004"
    "02000000050000000600000006000000"
    "15cd5b0701000000"
    "010000000900000006000000020001000a0800feffffffffffff1f"
)


def _response(responder, seeds, keys):
    """Build an :class:`UnmaskResponse` the way the client session does:
    ``seeds`` maps peer -> ``(x, y)``, columns in sorted-peer order."""
    peers = sorted(seeds)
    return UnmaskResponse(
        responder=responder,
        peers=np.asarray(peers, dtype="<u4"),
        xs=np.fromiter(
            (seeds[p][0] for p in peers), dtype="<u4", count=len(peers)
        ),
        ys=np.asarray([seeds[p][1] for p in peers], dtype=np.uint64),
        key_shares=dict(sorted(keys.items())),
    )


GOLDEN_RESPONSE = _response(
    6,
    {2: (6, 123456789), 5: (6, 1)},
    {9: LimbShares(x=6, ys=(10, 2**61 - 2))},
)


def _unmask_frame(seed_count, width, columns, tail=(0).to_bytes(4, "little")):
    """A well-framed unmask response with a hand-written body."""
    body = b"".join(
        [
            (6).to_bytes(4, "little"),  # responder
            seed_count.to_bytes(4, "little"),
            width.to_bytes(1, "little"),  # declared column width
            columns,
            tail,  # key section: none by default
        ]
    )
    return _frame(MSG_UNMASK_RESPONSE, body, HEADER)


class TestGoldenVectors:
    def test_sealed_matrix_matches_golden(self):
        ciphertexts = np.array([[0xDE, 0xAD], [0xBE, 0xEF]], dtype=np.uint8)
        encoded = encode_sealed_matrix(2, [5, 6], ciphertexts, HEADER)
        assert encoded.hex() == GOLDEN_SEALED_MATRIX

    def test_masked_input_round_trips_golden(self):
        message = MaskedInput(4, np.array([0, 1, 65535, 2**40], dtype=np.int64))
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
        """The seed section stays arrays end to end — what the server's
        one-transpose recovery consumes — and ``ys`` is uint64 whatever
        width the frame chose."""
        _, decoded = decode_message(bytes.fromhex(GOLDEN_UNMASK))
        assert decoded.responder == 6
        assert decoded.peers.tolist() == [2, 5]
        assert decoded.xs.tolist() == [6, 6]
        assert decoded.ys.tolist() == [123456789, 1]
        assert decoded.ys.dtype == np.uint64
        assert decoded.key_shares == {9: LimbShares(x=6, ys=(10, 2**61 - 2))}

    def test_responses_compare_by_value(self):
        """Array-aware equality, the way ``MaskedInput`` has it: dtype
        and buffer do not matter, any differing value does."""
        same = UnmaskResponse(
            responder=6,
            peers=np.array([2, 5], dtype=np.int64),
            xs=np.array([6, 6], dtype=np.int64),
            ys=np.array([123456789, 1], dtype=np.int64),
            key_shares=dict(GOLDEN_RESPONSE.key_shares),
        )
        assert same == GOLDEN_RESPONSE and hash(same) == hash(GOLDEN_RESPONSE)
        for change in (
            {"responder": 7},
            {"peers": np.array([2, 6], dtype="<u4")},
            {"xs": np.array([6, 7], dtype="<u4")},
            {"ys": np.array([123456789, 2], dtype=np.uint64)},
            {"ys": np.array([123456789], dtype=np.uint64)},
            {"key_shares": {}},
        ):
            assert dataclasses.replace(GOLDEN_RESPONSE, **change) != (
                GOLDEN_RESPONSE
            ), change
        assert GOLDEN_RESPONSE != "not a response"

    def test_sixteen_byte_seed_column_is_refused_with_a_type(self):
        """No sharing field is wider than uint64, so nothing honest
        emits a 16-byte seed column; a well-formed frame *declaring*
        one is outside input and ends in a typed error — and a value
        that wide cannot be encoded either."""
        frame = _unmask_frame(
            1,
            16,
            (2).to_bytes(4, "little")  # peer
            + (6).to_bytes(4, "little")  # x
            + (2**100).to_bytes(16, "little"),  # y
        )
        with pytest.raises(AggregationError, match="seed column width 16"):
            decode_message(frame)
        wide = UnmaskResponse(
            responder=6,
            peers=np.array([2]),
            xs=np.array([6]),
            ys=np.array([2**100], dtype=object),
            key_shares={},
        )
        with pytest.raises(AggregationError, match="too wide for the wire"):
            encode_message(wide, HEADER)

    @pytest.mark.parametrize("missing", [1, 8, 15])
    def test_truncated_seed_columns_are_refused_before_any_read(
        self, missing
    ):
        """A frame declaring more seed shares than its body holds is
        refused from the declared count alone, before a column is read
        past the frame's end."""
        columns = (
            np.array([2, 5], dtype="<u4").tobytes()
            + np.array([6, 6], dtype="<u4").tobytes()
            + np.array([7, 9], dtype="<u8").tobytes()
        )
        whole = _unmask_frame(2, 8, columns)
        assert decode_message(whole)[1].ys.tolist() == [7, 9]
        # The key section's count is cut with the columns, so only the
        # declared seed count says how much should have been there.
        short = _unmask_frame(2, 8, columns[:-missing], tail=b"")
        with pytest.raises(AggregationError, match="body truncated"):
            decode_message(short)


SEED_STRATEGY = st.dictionaries(
    st.integers(min_value=1, max_value=2**32 - 1),
    st.tuples(
        st.integers(min_value=1, max_value=2**32 - 1),
        # Seed shares live in a field that fits uint64: 8 bytes is the
        # widest seed column on the wire.
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=12,
)
KEY_STRATEGY = st.dictionaries(
    st.integers(min_value=1, max_value=2**32 - 1),
    st.tuples(
        st.integers(min_value=1, max_value=2**32 - 1),
        st.lists(
            st.integers(min_value=0, max_value=2**128 - 1),
            min_size=1,
            max_size=4,
        ),
    ),
    max_size=6,
)


class TestScalarBatchedEquivalence:
    @given(
        sender=st.integers(min_value=1, max_value=2**32 - 1),
        recipients=st.lists(
            st.integers(min_value=1, max_value=2**32 - 1),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        width=st.integers(min_value=0, max_value=48),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_sealed_matrix(self, sender, recipients, width, data):
        raw = data.draw(
            st.binary(
                min_size=len(recipients) * width,
                max_size=len(recipients) * width,
            )
        )
        ciphertexts = np.frombuffer(raw, dtype=np.uint8).reshape(
            len(recipients), width
        )
        assert encode_sealed_matrix(
            sender, recipients, ciphertexts, HEADER
        ) == b"".join(
            encode_message(
                SealedShares(
                    sender=sender,
                    recipient=recipient,
                    ciphertext=ciphertexts[position].tobytes(),
                ),
                HEADER,
            )
            for position, recipient in enumerate(recipients)
        )

    @given(
        responder=st.integers(min_value=1, max_value=2**32 - 1),
        seeds=SEED_STRATEGY,
        keys=KEY_STRATEGY,
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_response_round_trip(self, responder, seeds, keys):
        """One class in, the same class out, columns intact — and the
        bytes are a function of the values alone."""
        response = _response(
            responder,
            seeds,
            {p: LimbShares(x=x, ys=tuple(ys)) for p, (x, ys) in keys.items()},
        )
        encoded = encode_message(response, HEADER)
        header, decoded = decode_message(encoded)
        assert header == HEADER
        assert decoded == response
        assert decoded.ys.dtype == np.uint64
        assert encode_message(decoded, HEADER) == encoded


class TestColumnarRouting:
    def test_route_matches_per_frame_transpose(self):
        rng = np.random.default_rng(3)
        stack = rng.integers(
            0, 256, size=(5, 7, 33), dtype=np.uint8
        )
        routed = route_sealed_stack(stack)
        assert routed.shape == (7, 5, 33)
        for col in range(7):
            expected = b"".join(
                stack[row, col].tobytes() for row in range(5)
            )
            assert routed[col].tobytes() == expected

    def test_routed_mailbox_is_columnar_decodable(self):
        ciphertexts = np.arange(24, dtype=np.uint8).reshape(3, 8)
        datagrams = [
            encode_sealed_matrix(s, [1, 2, 3], ciphertexts, HEADER)
            for s in (1, 2, 3)
        ]
        frame_len = len(datagrams[0]) // 3
        stack = np.stack(
            [
                np.frombuffer(d, dtype=np.uint8).reshape(3, frame_len)
                for d in datagrams
            ]
        )
        routed = route_sealed_stack(stack)
        header, senders, recipients, _, _ = decode_sealed_columns(
            routed[1].tobytes()
        )
        assert header == HEADER
        assert senders == [1, 2, 3]
        assert recipients == [2, 2, 2]
