"""Bulk wire-encoder tests: golden pins and per-frame equivalence.

The bulk encoders' whole contract is *bit-identity* with the per-frame
reference :func:`~repro.secagg.wire.encode_message` — golden vectors
freeze the bytes and Hypothesis pins the bulk/per-frame equivalence on
arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.secagg.shamir import LimbShares, Share
from repro.secagg.wire import (
    MSG_UNMASK_RESPONSE,
    PROTOCOL_V1,
    MaskedInput,
    NegotiatedHeader,
    SealedShares,
    UnmaskColumns,
    UnmaskResponse,
    decode_message,
    decode_sealed_columns,
    decode_unmask_columns,
    encode_masked_input,
    encode_message,
    encode_sealed_matrix,
    encode_unmask_columns,
    route_sealed_stack,
)
from repro.secagg.wire import _frame

HEADER = NegotiatedHeader(version=PROTOCOL_V1, mask_prg="sha256-ctr")

#: Frozen bulk-encoder outputs (same format contract as
#: ``tests/test_wire.py``): the masked-input and unmask hexes are
#: byte-identical to that module's per-frame golden vectors.
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


def _columns(responder, seed_shares, key_shares):
    """Build an :class:`UnmaskColumns` the way the client session does."""
    peers = sorted(seed_shares)
    return UnmaskColumns(
        responder=responder,
        peers=np.asarray(peers, dtype="<u4"),
        xs=np.fromiter(
            (seed_shares[p].x for p in peers), dtype="<u4", count=len(peers)
        ),
        ys=np.asarray([seed_shares[p].y for p in peers], dtype=np.uint64),
        key_shares=dict(sorted(key_shares.items())),
    )


class TestGoldenVectors:
    def test_sealed_matrix_matches_golden(self):
        ciphertexts = np.array([[0xDE, 0xAD], [0xBE, 0xEF]], dtype=np.uint8)
        encoded = encode_sealed_matrix(2, [5, 6], ciphertexts, HEADER)
        assert encoded.hex() == GOLDEN_SEALED_MATRIX

    def test_masked_input_matches_golden(self):
        vector = np.array([0, 1, 65535, 2**40], dtype=np.int64)
        assert (
            encode_masked_input(4, vector, HEADER).hex()
            == GOLDEN_MASKED
        )

    def test_unmask_columns_match_golden(self):
        columns = _columns(
            6,
            {2: Share(x=6, y=123456789), 5: Share(x=6, y=1)},
            {9: LimbShares(x=6, ys=(10, 2**61 - 2))},
        )
        assert (
            encode_unmask_columns(columns, HEADER).hex()
            == GOLDEN_UNMASK
        )

    def test_golden_unmask_decodes_to_columns(self):
        header, columns = decode_unmask_columns(bytes.fromhex(GOLDEN_UNMASK))
        assert header == HEADER
        assert columns.responder == 6
        assert columns.peers.tolist() == [2, 5]
        assert columns.xs.tolist() == [6, 6]
        assert columns.ys.tolist() == [123456789, 1]
        assert columns.key_shares == {9: LimbShares(x=6, ys=(10, 2**61 - 2))}
        _, response = decode_message(bytes.fromhex(GOLDEN_UNMASK))
        assert columns.to_response() == response

    def test_sixteen_byte_seed_column_is_refused_with_a_type(self):
        """No sharing field is wider than uint64, so nothing honest
        emits a 16-byte seed column; a well-formed frame *declaring*
        one is outside input and ends in a typed error on both decoders
        — and a value that wide cannot be encoded either."""
        body = b"".join(
            [
                (6).to_bytes(4, "little"),  # responder
                (1).to_bytes(4, "little"),  # one seed share
                (16).to_bytes(1, "little"),  # declared column width
                (2).to_bytes(4, "little"),  # peer
                (6).to_bytes(4, "little"),  # x
                (2**100).to_bytes(16, "little"),  # y
                (0).to_bytes(4, "little"),  # no key shares
            ]
        )
        frame = _frame(MSG_UNMASK_RESPONSE, body, HEADER)
        for decode in (decode_unmask_columns, decode_message):
            with pytest.raises(AggregationError, match="seed column width 16"):
                decode(frame)
        wide = UnmaskResponse(
            responder=6, seed_shares={2: Share(x=6, y=2**100)}, key_shares={}
        )
        with pytest.raises(AggregationError, match="too wide for the wire"):
            encode_message(wide, HEADER)


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
        sender=st.integers(min_value=1, max_value=2**32 - 1),
        values=st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            max_size=40,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_input(self, sender, values):
        vector = np.array(values, dtype=np.int64)
        assert encode_masked_input(sender, vector, HEADER) == encode_message(
            MaskedInput(sender=sender, vector=vector), HEADER
        )

    @given(
        responder=st.integers(min_value=1, max_value=2**32 - 1),
        seeds=SEED_STRATEGY,
        keys=KEY_STRATEGY,
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_columns(self, responder, seeds, keys):
        columns = _columns(
            responder,
            {p: Share(x=x, y=y) for p, (x, y) in seeds.items()},
            {p: LimbShares(x=x, ys=tuple(ys)) for p, (x, ys) in keys.items()},
        )
        assert encode_unmask_columns(columns, HEADER) == encode_message(
            columns.to_response(), HEADER
        )

    @given(
        responder=st.integers(min_value=1, max_value=2**32 - 1),
        seeds=SEED_STRATEGY,
        keys=KEY_STRATEGY,
    )
    @settings(max_examples=50, deadline=None)
    def test_unmask_decode_round_trip(self, responder, seeds, keys):
        response = UnmaskResponse(
            responder=responder,
            seed_shares={p: Share(x=x, y=y) for p, (x, y) in seeds.items()},
            key_shares={
                p: LimbShares(x=x, ys=tuple(ys))
                for p, (x, ys) in keys.items()
            },
        )
        encoded = encode_message(response, HEADER)
        decoded = decode_unmask_columns(encoded)
        assert decoded is not None
        header, columns = decoded
        assert header == HEADER
        assert columns.to_response() == response


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
